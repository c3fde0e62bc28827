"""The benchmark's three workloads, driven through the program's public API.

* ``paper_smoke`` -- :func:`repro.paper.run_paper` at the CI grid.
* ``sampled_long`` -- :func:`repro.experiments.run_sweep`, two-speed
  sampled, over the long workloads.
* ``service_mix`` -- a closed loop of two HTTP clients
  (:class:`repro.service.client.ServiceClient`) against an in-process
  :class:`repro.service.SweepService` + :class:`repro.service.ServiceServer`.

Each workload is a :class:`Workload`.  Its ``run(seconds, seed, gate,
workdir, recorder=None)`` runs passes (or requests) for about ``seconds``,
checks every output through the :class:`~gate.Gate`, and returns an
:class:`Outcome`; its ``warm_up(seed, workdir)`` makes the untimed calls
that go before.  A batch workload runs whole rounds of passes, a round
being one pass over each of its inputs, so every run times the same mix of
inputs.  Inputs come only from the workload seed: the same seed gives the
same passes and requests in the same order.  Every run starts from empty
caches and a fresh results store.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import repro.experiments
import repro.paper
from repro.experiments import SweepSpec
from repro.paper import job_key
from repro.service import ServiceServer, SweepService
from repro.service.client import ServiceClient, ServiceError

from gate import Gate, cells_digest, digest

#: Program seeds the paper passes cycle through (``run_paper(seed=...)``).
PAPER_SEEDS = (1, 2, 3, 4)
#: Pool workers per paper pass.
PAPER_WORKERS = 2

#: The sampled sweep: Fig 7's long-slice geometry over the long workloads.
LONG_WORKLOADS = ("long_phase_mix", "long_stride_drift")
LONG_SCHEMES = ("isrb", "unlimited")
LONG_OPS = 1_000_000
LONG_PERIOD = 50_000
LONG_SEEDS = (1, 2)
#: Modelled µops of each long workload in the untimed warm-up sweep.
LONG_WARM_OPS = 3 * LONG_PERIOD

#: One service request: isrb against the baseline on three workloads.
SERVICE_WORKLOADS = ("move_chain", "spill_reload",
                     "riscv:examples/rv32i/checksum.bin")
SERVICE_SCHEMES = ("isrb",)
SERVICE_OPS = 2_000
SERVICE_CLIENTS = 2
#: Spec seeds shared by both clients are drawn from this range (read path
#: once stored, lease contention when both ask at once) ...
SHARED_SEEDS = range(1, 33)
SHARED_POOL = 4
#: ... and fresh spec seeds, each asked once per run (write path), from this.
FRESH_SEEDS = range(1001, 1401)

_TERMINAL = {"done", "failed", "cancelled"}


@dataclass
class Outcome:
    """What one workload run did, for the metrics."""

    uops: int = 0               # modelled µops in distinct delivered cells
    wall_s: float = 0.0         # host seconds those µops took
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    roots: list = field(default_factory=list)   # spans to account wall for
    shared_store: bool = False  # every pass wrote the same results store
    service: dict = field(default_factory=dict)

    def uops_per_s(self) -> float:
        return self.uops / self.wall_s


def long_spec(workload: str, seed: int) -> SweepSpec:
    return SweepSpec(schemes=LONG_SCHEMES, workloads=(workload,),
                     max_ops=LONG_OPS, seed=seed, sample_period=LONG_PERIOD)


def service_spec(seed: int) -> dict:
    """The wire-format spec of one service request."""
    return {"schemes": list(SERVICE_SCHEMES),
            "workloads": list(SERVICE_WORKLOADS),
            "max_ops": SERVICE_OPS, "seed": seed}


def service_requests(seed: int) -> list[list[int]]:
    """Per client, the spec seeds it submits in order.

    A third of the requests reuse one of a small pool of seeds shared by
    both clients; the rest take fresh seeds, never asked twice in a run.
    Each consecutive triple of a client's requests holds one shared and two
    fresh seeds, in random order, so the read/write mix of a run does not
    drift with its seed.
    """
    rng = random.Random(seed)
    shared = rng.sample(SHARED_SEEDS, SHARED_POOL)
    fresh = rng.sample(FRESH_SEEDS, len(FRESH_SEEDS))
    plans = []
    for client in range(SERVICE_CLIENTS):
        own = fresh[client::SERVICE_CLIENTS]
        plan = []
        for index in range(0, len(own) - 1, 2):
            triple = [rng.choice(shared), own[index], own[index + 1]]
            rng.shuffle(triple)
            plan.extend(triple)
        plans.append(plan)
    return plans


def _result_cells(results) -> dict[str, dict]:
    return {key: result.to_dict() for key, result in results.items()}


def _span(recorder, name: str):
    """``recorder.span(name)``, or nothing when the run is untraced."""
    return nullcontext() if recorder is None else recorder.span(name)


def _run_passes(name: str, one_pass, cycle: int, seconds: float, seed: int,
                gate: Gate, workdir: Path, recorder=None) -> Outcome:
    """Run whole rounds of ``one_pass`` for about ``seconds``; check each pass.

    ``one_pass(index, seed, workdir, progress)`` makes one call into the
    program and returns ``(case, attempted, failed, outputs)``: the
    reference case it ran, its cell counts, and each output to check, as
    text or as the path of a file the call wrote.  Any ``cycle``
    consecutive passes cover every case once; a round is that many passes.

    At least one round runs.  Another starts only while the run would then
    end nearer to ``seconds`` than it is now, judged by the mean round so
    far.  Garbage is collected between passes, outside the timing.
    """
    outcome = Outcome()
    start = time.perf_counter()
    index = 0
    while True:
        if index and index % cycle == 0:
            elapsed = time.perf_counter() - start
            round_s = elapsed / (index // cycle)
            if elapsed + round_s / 2 >= seconds:
                break
        delivered = {}

        def progress(_done, _total, job_result, delivered=delivered):
            if job_result.ok:
                delivered[job_key(job_result.job)] = job_result.result

        gc.collect()
        began = time.perf_counter()
        with _span(recorder, "bench.pass") as root:
            case, attempted, failed, outputs = one_pass(index, seed, workdir,
                                                        progress)
        took = time.perf_counter() - began
        uops = sum(result.instructions for result in delivered.values())
        outcome.latencies.append(took)
        outcome.wall_s += took
        outcome.uops += uops
        outcome.attempted += attempted
        outcome.failed += failed
        if root is not None:
            outcome.roots.append(root)
        for output, value in outputs.items():
            if isinstance(value, Path):
                value = value.read_bytes()
            gate.check(name, case, output, digest(value))
        gate.check(name, case, "cells", cells_digest(_result_cells(delivered)))
        index += 1
    return outcome


def _paper_pass(index: int, seed: int, workdir: Path, progress):
    """``run_paper(smoke=True, workers=2)`` into a fresh directory and store;
    passes cycle through :data:`PAPER_SEEDS`."""
    paper_seed = PAPER_SEEDS[(seed + index) % len(PAPER_SEEDS)]
    summary = repro.paper.run_paper(smoke=True, workers=PAPER_WORKERS,
                                    out_dir=workdir / f"paper-{index}",
                                    seed=paper_seed, progress=progress)
    return (paper_seed, summary.total_cells, summary.failures,
            {"report_md": summary.paths["report"],
             "figures_json": summary.paths["figures_json"]})


def _paper_warm_up(seed: int, workdir: Path) -> None:
    """One untimed paper pass."""
    _paper_pass(0, seed, workdir, None)


def _sampled_warm_up(seed: int, workdir: Path) -> None:
    """One untimed sampled sweep of both long workloads, kept short."""
    del workdir
    spec = SweepSpec(schemes=LONG_SCHEMES, workloads=LONG_WORKLOADS,
                     max_ops=LONG_WARM_OPS, seed=LONG_SEEDS[0],
                     sample_period=LONG_PERIOD)
    repro.experiments.run_sweep(spec, workers=1, cache_dir=None)


def _sampled_pass(index: int, seed: int, workdir: Path, progress):
    """A sampled ``run_sweep`` of one long workload: checkpoint farm, one
    process, no cache dir, no store.  Any four consecutive passes cover
    both workloads at both seeds; the workload seed picks the first."""
    del workdir  # nothing touches the disk
    turn = seed + index
    workload = LONG_WORKLOADS[turn % len(LONG_WORKLOADS)]
    long_seed = LONG_SEEDS[turn // len(LONG_WORKLOADS) % len(LONG_SEEDS)]
    spec = long_spec(workload, long_seed)
    report = repro.experiments.run_sweep(spec, workers=1, cache_dir=None,
                                         progress=progress)
    return (f"{workload}/{long_seed}", spec.job_count(), len(report.failures),
            {"report_md": report.to_markdown()})


def _await_terminal(client: ServiceClient, sweep_id: str, http):
    """Follow the sweep's SSE stream to its end; returns (status, events)."""
    events: list[dict] = []
    while True:
        for event in client.stream(sweep_id, start=len(events)):
            events.append(event)
        with http():
            status = client.status(sweep_id)
        if status["state"] in _TERMINAL:
            return status, events


def run_service_mix(seconds: float, seed: int, gate: Gate, workdir: Path,
                    recorder=None) -> Outcome:
    """Two closed-loop HTTP clients against a service on a fresh store."""
    outcome = Outcome(shared_store=True)
    counts = {"cells_total": 0, "cells_from_store": 0, "refused": 0}
    seen: set[tuple] = set()
    lock = threading.Lock()
    service = SweepService(workdir / "service" / "results.jsonl", workers=1,
                           max_concurrent=SERVICE_CLIENTS)
    server = ServiceServer(service, port=0).start()
    plans = service_requests(seed)
    errors: list[Exception] = []

    def http():
        return _span(recorder, "service.http")

    def client_loop(client_index: int) -> None:
        client = ServiceClient("127.0.0.1", server.port,
                               client_id=f"perfbench-{client_index}")
        for spec_seed in plans[client_index]:
            if time.perf_counter() - start >= seconds:
                return
            began = time.perf_counter()
            with _span(recorder, "service.request") as root:
                try:
                    with http():
                        sweep = client.submit(service_spec(spec_seed))
                except ServiceError as exc:
                    if exc.status not in (429, 503):
                        raise
                    with lock:
                        outcome.attempted += 1
                        outcome.failed += 1
                        counts["refused"] += 1
                    continue
                status, events = _await_terminal(client, sweep["id"], http)
            took = time.perf_counter() - began
            if status["state"] != "done":
                with lock:
                    outcome.attempted += 1
                    outcome.failed += 1
                continue
            with http():
                body = client.report_bytes(sweep["id"])
            results = json.loads(body)["results"]
            times = {event["event"]: event["t"] for event in events}
            with lock:
                gate.check("service_mix", spec_seed, "report", digest(body))
                gate.check("service_mix", spec_seed, "cells", cells_digest(
                    {str(i): result for i, result in enumerate(results)}))
                outcome.attempted += 1
                outcome.latencies.append(took)
                counts["cells_total"] += status["cells"]["total"]
                counts["cells_from_store"] += status["cells"]["from_store"]
                for result in results:
                    cell = (spec_seed, result["workload"], result["config_label"])
                    if cell not in seen:
                        seen.add(cell)
                        outcome.uops += result["instructions"]
                if root is not None:
                    root.attrs["sweep_id"] = sweep["id"]
                    outcome.roots.append(root)
                    if "sweep_queued" in times and "sweep_started" in times:
                        offset = time.time() - recorder.clock()
                        recorder.add("service.queue_wait",
                                     times["sweep_queued"] - offset,
                                     times["sweep_started"] - offset,
                                     parent=root.sid)

    def guarded(client_index: int) -> None:
        try:
            client_loop(client_index)
        except Exception as exc:  # re-raised by the caller after join
            errors.append(exc)

    start = time.perf_counter()
    threads = [threading.Thread(target=guarded, args=(index,),
                                name=f"perfbench-client-{index}")
               for index in range(SERVICE_CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        outcome.wall_s = time.perf_counter() - start
        server.stop()
    if errors:
        raise errors[0]
    outcome.service = counts
    if recorder is not None:
        _join_service_spans(recorder, outcome.roots)
    return outcome


def _join_service_spans(recorder, roots) -> None:
    """Parent each service-side ``run_sweep`` span to its HTTP request."""
    by_sweep = {root.attrs["sweep_id"]: root.sid for root in roots}
    for span in recorder.spans:
        job_id = span.attrs.get("job_id")
        if span.parent is None and job_id in by_sweep:
            span.parent = by_sweep[job_id]


def _no_warm_up(seed: int, workdir: Path) -> None:
    del seed, workdir


class Workload(NamedTuple):
    """How to run a workload, and how to warm up for it untimed."""

    run: Callable[..., Outcome]
    warm_up: Callable[[int, Path], None]


WORKLOADS = {
    "paper_smoke": Workload(
        functools.partial(_run_passes, "paper_smoke", _paper_pass,
                          len(PAPER_SEEDS)),
        _paper_warm_up),
    "sampled_long": Workload(
        functools.partial(_run_passes, "sampled_long", _sampled_pass,
                          len(LONG_WORKLOADS) * len(LONG_SEEDS)),
        _sampled_warm_up),
    "service_mix": Workload(run_service_mix, _no_warm_up),
}
