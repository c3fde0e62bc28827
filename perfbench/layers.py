"""Span recorders wrapped around each layer's public functions.

:func:`install` rebinds the public entry points of every layer to thin
wrappers that time each call into a :class:`~spans.Recorder`, and returns
a function that puts the originals back.  Nothing under ``src/`` changes:
a wrapper replaces the module attribute (or class attribute) that callers
look up, so functions imported by name into another module are rebound
there too.  Only the traced run installs them; the untraced run measures
the program as users run it.

:func:`layer_metrics` turns the recorded spans into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import os

import repro.experiments
import repro.experiments.cache
import repro.experiments.runner
import repro.paper.cli
import repro.service.service
import repro.workloads
from repro.experiments.scheduler import ReliabilityStats
from repro.isa.functional import FunctionalCore
from repro.paper.store import ResultsStore, job_key
from repro.pipeline.core import Core
from repro.pipeline.sampling import SampledSimulator

from spans import children_of, median, self_time, tail, wall_breakdown

# The package re-exports a function named ``lower``, which hides the module
# of that name from attribute access.
_riscv_lower = importlib.import_module("repro.isa.riscv.lower")

#: Layers, in the order the metrics are printed.
LAYERS = ("workloads", "isa.riscv", "isa.functional", "pipeline.core",
          "pipeline.sampling", "experiments", "paper.store", "paper.render",
          "service")


def _note_trace(span, args, trace) -> None:
    span.attrs["uops"] = len(trace)


def _note_result(span, args, result) -> None:
    span.attrs["cycles"] = result.cycles
    span.attrs["uops"] = result.instructions


def _note_plan_result(span, args, result) -> None:
    span.attrs["uops"] = result.instructions
    span.attrs["detailed"] = (result.instructions
                              - result.stats.get("fastforwarded_instructions", 0))


def _note_retired(span, args, retired) -> None:
    span.attrs["uops"] = retired


def _note_claim(span, args, grant) -> None:
    span.attrs["contended"] = grant is None
    span.attrs["lease_path"] = str(args[0].lease_path)


class _Patcher:
    """Rebinds attributes to span-recording wrappers; undoes it on close."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as span:
                result = original(*args, **kwargs)
                if note is not None:
                    note(span, args, result)
                return result

        self.bind(owner, attr, wrapper)

    def bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _run_sweep_wrapper(original, recorder):
    """``run_sweep`` with its public ``stats`` out-parameter always filled
    in (for the retry count) and, for a service job, the job id taken from
    the job's first logged event so the span joins its request."""

    @functools.wraps(original)
    def run_sweep(spec, *args, **kwargs):
        if kwargs.get("stats") is None:
            kwargs["stats"] = ReliabilityStats()
        logger = kwargs.get("logger")
        attrs = {}
        if logger is not None and logger.events \
                and logger.events[0].get("event") == "sweep_queued":
            attrs["job_id"] = logger.events[0]["id"]
        with recorder.span("experiments.run_sweep", **attrs) as span:
            try:
                return original(spec, *args, **kwargs)
            finally:
                span.attrs["retries"] = kwargs["stats"].retries

    return run_sweep


def _run_jobs_wrapper(original, recorder):
    """``run_jobs`` noting every cell it simulated.

    Only the innermost call (no store) simulates; the resumable outer call
    delegates to it.  Cells run by pool workers leave no spans here, so
    each becomes a span ending when the parent received it and lasting the
    ``JobResult.elapsed`` the worker measured.
    """

    @functools.wraps(original)
    def run_jobs(jobs, *args, **kwargs):
        workers = kwargs.get("workers", args[0] if args else 1)
        with recorder.span("experiments.run_jobs") as span:
            if kwargs.get("store") is not None:
                return original(jobs, *args, **kwargs)
            pooled = workers > 1 and len(jobs) > 1
            cells = span.attrs["cells"] = []
            progress = kwargs.get("progress")

            def noting(completed, total, job_result):
                if not job_result.from_store:
                    result = job_result.result
                    cells.append({
                        "key": job_key(job_result.job),
                        "ok": job_result.ok,
                        "elapsed": job_result.elapsed,
                        "pooled": pooled,
                        "cycles": result.cycles if result else 0,
                        "uops": result.instructions if result else 0,
                    })
                    if pooled:
                        now = recorder.clock()
                        recorder.add("pipeline.core.cell",
                                     now - job_result.elapsed, now,
                                     parent=span.sid)
                if progress is not None:
                    progress(completed, total, job_result)

            kwargs["progress"] = noting
            return original(jobs, *args, **kwargs)

    return run_jobs


def install(recorder):
    """Wrap every layer's public entry points; returns the undo function."""
    patch = _Patcher(recorder)
    for module in (repro.workloads, repro.experiments.cache,
                   repro.experiments.runner):
        patch.wrap(module, "materialize_trace", "workloads.trace_gen",
                   _note_trace)
    patch.wrap(_riscv_lower, "decode_all", "isa.riscv.decode")
    patch.wrap(_riscv_lower, "lower", "isa.riscv.lower")
    patch.wrap(FunctionalCore, "fast_forward", "isa.functional.fast_forward",
               _note_retired)
    patch.wrap(Core, "run", "pipeline.core.run", _note_result)
    patch.wrap(SampledSimulator, "plan", "pipeline.sampling.plan")
    patch.wrap(SampledSimulator, "execute_plan", "pipeline.sampling.execute",
               _note_plan_result)
    run_sweep = _run_sweep_wrapper(repro.experiments.runner.run_sweep, recorder)
    for module in (repro.experiments.runner, repro.experiments,
                   repro.paper.cli, repro.service.service):
        patch.bind(module, "run_sweep", run_sweep)
    patch.bind(repro.experiments.runner, "run_jobs",
               _run_jobs_wrapper(repro.experiments.runner.run_jobs, recorder))
    for method in ("has", "get", "record", "release"):
        patch.wrap(ResultsStore, method, f"paper.store.{method}")
    patch.wrap(ResultsStore, "claim", "paper.store.claim", _note_claim)
    patch.wrap(repro.paper.cli, "render_figures", "paper.render.render_figures")
    return patch.close


def busy(spans, names, by_id) -> float:
    """Seconds inside spans named in ``names``, counting nested ones once."""
    total = 0.0
    for span in spans:
        if span.name in names:
            parent = by_id.get(span.parent)
            if parent is None or parent.name not in names:
                total += span.duration
    return total


def _root_of(span, by_id):
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
    return span


def layer_metrics(spans, roots, shared_store: bool, service=None) -> dict:
    """Per-layer metrics from one traced run's spans.

    ``roots`` are the spans whose wall time is accounted for (one per
    ``run_paper``/``run_sweep`` pass, or one per service request);
    ``shared_store`` says whether every pass wrote one store (the service)
    rather than a fresh store each.  ``service`` carries the client-side
    counts of ``service_mix``.  A layer a workload bypasses reports 0.
    """
    by_id = {span.sid: span for span in spans}
    named: dict[str, list] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def attr_sum(name, key) -> float:
        return sum(span.attrs.get(key, 0) for span in named.get(name, ()))

    def busy_in(*names) -> float:
        return busy(spans, set(names), by_id)

    cells = [cell for span in named.get("experiments.run_jobs", ())
             for cell in span.attrs.get("cells", ())]
    pooled = [cell for cell in cells if cell["pooled"] and cell["ok"]]
    sim_s = busy_in("pipeline.core.run") + sum(c["elapsed"] for c in pooled)
    sim_uops = attr_sum("pipeline.core.run", "uops") \
        + sum(c["uops"] for c in pooled)
    ff_s = busy_in("isa.functional.fast_forward")
    executed = attr_sum("pipeline.sampling.execute", "uops")

    index = children_of(spans)
    shares: dict[str, float] = {}
    for root in roots:
        for layer, seconds in wall_breakdown(root, index).items():
            shares[layer] = shares.get(layer, 0.0) + seconds
    unaccounted = sum(self_time(root, index.get(root.sid, ())) for root in roots)

    claims = named.get("paper.store.claim", [])
    claim_times = [span.duration for span in claims] or [0.0]
    lease_paths = {span.attrs["lease_path"] for span in claims}
    simulated = [cell for cell in cells if cell["ok"]]
    scopes = {("run" if shared_store else _root_of(span, by_id).sid,
               cell["key"])
              for span in named.get("experiments.run_jobs", ())
              for cell in span.attrs.get("cells", ()) if cell["ok"]}
    service = service or {}
    cells_total = service.get("cells_total", 0)

    metrics = {
        "workloads.trace_gen_s": busy_in("workloads.trace_gen"),
        "workloads.trace_gen_uops": attr_sum("workloads.trace_gen", "uops"),
        "isa.riscv.decode_lower_s": busy_in("isa.riscv.decode",
                                            "isa.riscv.lower"),
        "isa.functional.ff_s": ff_s,
        "isa.functional.ff_uops_per_s": (
            attr_sum("isa.functional.fast_forward", "uops") / ff_s
            if ff_s else 0.0),
        "pipeline.core.sim_s": sim_s,
        "pipeline.core.us_per_uop": 1e6 * sim_s / sim_uops if sim_uops else 0.0,
        "pipeline.core.sim_cycles": attr_sum("pipeline.core.run", "cycles")
        + sum(c["cycles"] for c in pooled),
        "pipeline.sampling.plan_s": busy_in("pipeline.sampling.plan"),
        "pipeline.sampling.execute_s": busy_in("pipeline.sampling.execute"),
        "pipeline.sampling.detailed_frac": (
            attr_sum("pipeline.sampling.execute", "detailed") / executed
            if executed else 0.0),
        "experiments.cells": len(simulated),
        "experiments.cell_s": sum(cell["elapsed"] for cell in simulated),
        "experiments.overhead_s": shares.get("experiments", 0.0),
        "experiments.retries": attr_sum("experiments.run_sweep", "retries"),
        "paper.store.read_s": busy_in("paper.store.has", "paper.store.get"),
        "paper.store.record_s": busy_in("paper.store.record"),
        "paper.store.records": len(named.get("paper.store.record", ())),
        "paper.store.claims": len(claims),
        "paper.store.claims_contended": sum(
            1 for span in claims if span.attrs["contended"]),
        "paper.store.claim_s_p50": median(claim_times),
        "paper.store.claim_s_tail": tail(claim_times)[0],
        "paper.store.lease_bytes": max(
            (os.path.getsize(path) for path in lease_paths
             if os.path.exists(path)), default=0),
        "paper.store.useful_sim_ratio": (len(scopes) / len(simulated)
                                         if simulated else 0.0),
        "paper.render.render_s": busy_in("paper.render.render_figures"),
        "service.queue_wait_s": busy_in("service.queue_wait"),
        "service.http_s": busy_in("service.http"),
        "service.from_store_frac": (service.get("cells_from_store", 0)
                                    / cells_total if cells_total else 0.0),
        "service.refused": service.get("refused", 0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = shares.get(layer, 0.0)
    metrics["trace.wall_s"] = sum(root.duration for root in roots)
    metrics["trace.unaccounted_s"] = unaccounted
    return metrics
