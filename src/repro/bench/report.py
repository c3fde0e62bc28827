"""Benchmark results, summary metrics and baseline comparison.

A :class:`BenchReport` is the machine-readable artifact behind
``BENCH_core.json``: one :class:`BenchResult` row per benchmark case plus a
``summary`` of throughput geomeans.  :func:`compare_reports` implements the
CI smoke gate -- all summary metrics are rates (higher is better), so a
regression is simply a metric falling more than ``tolerance`` below the
committed baseline.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.report import geomean as _strict_geomean


def geomean(values) -> float:
    """Geometric mean of positive values, skipping ``None`` entries.

    Thin wrapper over :func:`repro.experiments.report.geomean` (one shared
    implementation) that drops the ``None`` cells non-sim cases produce.
    """
    return _strict_geomean(value for value in values if value is not None)


@dataclass
class BenchResult:
    """Outcome of one benchmark case.

    ``ops`` counts the unit of work (dynamic micro-ops generated, micro-ops
    committed, or sweep jobs); ``cycles`` is only set for simulation cases.
    Throughput fields are derived from the best (smallest) wall time over
    the configured repeats -- best-of, not mean, because scheduler noise
    only ever adds time.
    """

    name: str
    kind: str  # "trace_gen" | "sim" | "sweep"
    ops: int
    wall_seconds: float
    cycles: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        """Work units per second (the headline throughput figure)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.ops / self.wall_seconds

    @property
    def cycles_per_sec(self) -> float | None:
        """Simulated cycles per wall second (``None`` for non-sim cases)."""
        if self.cycles is None or self.wall_seconds <= 0:
            return None
        return self.cycles / self.wall_seconds

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "kind": self.kind,
            "ops": self.ops,
            "wall_seconds": self.wall_seconds,
            "ops_per_sec": self.ops_per_sec,
            "cycles": self.cycles,
            "cycles_per_sec": self.cycles_per_sec,
        }
        if self.detail:
            data["detail"] = dict(self.detail)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BenchResult":
        return cls(
            name=data["name"],
            kind=data["kind"],
            ops=int(data["ops"]),
            wall_seconds=float(data["wall_seconds"]),
            cycles=None if data.get("cycles") is None else int(data["cycles"]),
            detail=dict(data.get("detail", {})),
        )


@dataclass
class BenchReport:
    """All benchmark results plus derived summary metrics."""

    results: list[BenchResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def cases(self, kind: str) -> list[BenchResult]:
        """The results of one benchmark kind, in run order."""
        return [result for result in self.results if result.kind == kind]

    def summary(self) -> dict[str, float]:
        """Geomean throughput per benchmark kind (the smoke-gate metrics).

        Every metric is a rate in "per second" units, so *higher is
        better* -- :func:`compare_reports` relies on that convention.
        """
        out: dict[str, float] = {}
        trace_gen = self.cases("trace_gen")
        if trace_gen:
            out["trace_gen_ops_per_sec_geomean"] = geomean(
                case.ops_per_sec for case in trace_gen)
        sims = self.cases("sim")
        if sims:
            out["sim_ops_per_sec_geomean"] = geomean(case.ops_per_sec for case in sims)
            out["sim_cycles_per_sec_geomean"] = geomean(
                case.cycles_per_sec for case in sims)
        ff = self.cases("ff")
        if ff:
            out["ff_ops_per_sec_geomean"] = geomean(case.ops_per_sec for case in ff)
        decode = self.cases("decode")
        if decode:
            # RV32I source instructions decoded + lowered per second.
            out["decode_insns_per_sec_geomean"] = geomean(
                case.ops_per_sec for case in decode)
        for kind in ("sampled", "sampled_long"):
            cases = self.cases(kind)
            if not cases:
                continue
            out[f"{kind}_ops_per_sec_geomean"] = geomean(
                case.ops_per_sec for case in cases)
            ratios = [case.detail.get("ipc_ratio") for case in cases]
            if all(ratio for ratio in ratios):
                out[f"{kind}_ipc_ratio_geomean"] = geomean(ratios)
            speedups = [case.detail.get("speedup") for case in cases]
            if all(speedup for speedup in speedups):
                out[f"{kind}_speedup_geomean"] = geomean(speedups)
        sweeps = self.cases("sweep")
        if sweeps:
            out["sweep_jobs_per_sec"] = geomean(case.ops_per_sec for case in sweeps)
        paper = self.cases("paper")
        if paper:
            # Cells-per-second of the end-to-end smoke figure pipeline
            # (grid expansion + store + simulation + SVG/report rendering).
            out["paper_cells_per_sec"] = geomean(
                case.ops_per_sec for case in paper)
        store = self.cases("store")
        if store:
            # Lease claim+release pairs per second on the results store.
            out["store_claim_release_per_sec_geomean"] = geomean(
                case.ops_per_sec for case in store)
        farm = self.cases("sweep_farm")
        if farm:
            out["sweep_farm_jobs_per_sec"] = geomean(case.ops_per_sec for case in farm)
            speedups = [case.detail.get("speedup") for case in farm]
            if all(speedups):
                out["sweep_farm_speedup_geomean"] = geomean(speedups)
        adaptive = self.cases("adaptive")
        if adaptive:
            out["adaptive_ops_per_sec_geomean"] = geomean(
                case.ops_per_sec for case in adaptive)
            # Fixed-geometry detailed micro-ops per adaptive detailed
            # micro-op at equal achieved tolerance: >= 1.0 means the error
            # budget spent no more detailed simulation than the fixed
            # geometry (the acceptance gate), > 1.0 that it stopped early.
            saved = [case.detail.get("ops_saved_ratio") for case in adaptive]
            if all(saved):
                out["adaptive_ops_saved_geomean"] = geomean(saved)
            # Unpaired/paired speedup-delta variance: > 1.0 means matched
            # window offsets reduced the variance of the per-window
            # ISRB/baseline IPC ratio below the independent-sampling
            # estimate.
            gains = [case.detail.get("unpaired_delta_var", 0.0)
                     / case.detail["paired_delta_var"]
                     for case in adaptive
                     if case.detail.get("paired_delta_var")]
            if gains:
                out["adaptive_pairing_gain_geomean"] = geomean(gains)
        return out

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "summary": self.summary(),
            "results": [result.to_dict() for result in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        """Write the JSON artifact (``BENCH_core.json`` by convention)."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        return cls(
            results=[BenchResult.from_dict(row) for row in data.get("results", [])],
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def load(cls, path: str | Path) -> "BenchReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_text(self) -> str:
        """Human-readable table printed by ``repro bench``."""
        lines = []
        width = max((len(result.name) for result in self.results), default=12)
        for result in self.results:
            cycles = (f"  {result.cycles_per_sec:12.0f} cyc/s"
                      if result.cycles_per_sec is not None else "")
            extra = ""
            if "events_per_cycle" in result.detail:
                extra += f" epc={result.detail['events_per_cycle']:.2f}"
            if "speedup" in result.detail:
                extra += f" speedup={result.detail['speedup']:.2f}x"
            lines.append(f"{result.name:{width}s}  [{result.kind}] "
                         f"{result.ops_per_sec:12.1f} ops/s{cycles} "
                         f" wall={result.wall_seconds:.3f}s{extra}")
        lines.append("")
        for key, value in sorted(self.summary().items()):
            lines.append(f"{key:32s} {value:12.1f}")
        return "\n".join(lines)


def git_rev(directory: Path | None = None) -> str:
    """The commit checked out around ``directory`` (default: this package).

    ``"unknown"`` outside a git checkout or without a ``git`` executable,
    so a report always says which code it measured when it can.
    """
    directory = directory or Path(__file__).resolve().parent
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=directory,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def default_meta(**extra) -> dict:
    """Environment metadata recorded in every report."""
    meta = {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }
    meta.update(extra)
    return meta


def compare_reports(current: BenchReport, baseline: BenchReport,
                    tolerance: float = 0.30,
                    kinds: list[str] | None = None) -> list[str]:
    """Compare throughput against a committed baseline.

    Returns a list of human-readable regression messages; empty means the
    gate passes.  Only cases present *in both reports by name* are
    compared -- per-kind geomeans are recomputed over that shared subset,
    so a reduced ``--smoke`` run gated against the committed full-suite
    ``BENCH_core.json`` compares like against like instead of a fast
    subset against a full-suite average (and adding or removing a
    benchmark case never fails the gate by itself).  Improvements are
    never failures.  ``tolerance`` is the allowed fractional slowdown
    (0.30 = 30%), sized generously because CI machines differ in absolute
    speed run-to-run.

    ``kinds`` restricts the gate to those benchmark kinds (e.g.
    ``["sim"]`` for the tight tracing-off overhead gate, which needs a
    much smaller tolerance than the microbenchmark kinds can hold on
    shared CI runners).  ``None`` gates every shared kind.
    """
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")
    current_by_name = {result.name: result for result in current.results}
    baseline_by_name = {result.name: result for result in baseline.results}
    shared = sorted(set(current_by_name) & set(baseline_by_name))

    metrics: list[tuple[str, float, float]] = []
    shared_kinds = sorted({baseline_by_name[name].kind for name in shared})
    if kinds is not None:
        shared_kinds = [kind for kind in shared_kinds if kind in kinds]
    for kind in shared_kinds:
        names = [name for name in shared if baseline_by_name[name].kind == kind]
        metrics.append((
            f"{kind}_ops_per_sec_geomean[{len(names)} shared case(s)]",
            geomean(current_by_name[name].ops_per_sec for name in names),
            geomean(baseline_by_name[name].ops_per_sec for name in names),
        ))
        if any(baseline_by_name[name].cycles_per_sec is not None for name in names):
            metrics.append((
                f"{kind}_cycles_per_sec_geomean[{len(names)} shared case(s)]",
                geomean(current_by_name[name].cycles_per_sec for name in names),
                geomean(baseline_by_name[name].cycles_per_sec for name in names),
            ))

    regressions: list[str] = []
    for key, now, base_value in metrics:
        if base_value <= 0 or now <= 0:
            continue
        floor = base_value * (1.0 - tolerance)
        if now < floor:
            regressions.append(
                f"{key}: {now:.1f}/s is {(1 - now / base_value) * 100:.1f}% below "
                f"baseline {base_value:.1f}/s (allowed {tolerance * 100:.0f}%)")
    return regressions
