"""The benchmark of record: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (see ``workloads.py`` and ``README.md`` beside this
file) for ``--seconds`` and prints, as the last line of standard output,
one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, every
time in them normalised to the reference host's speed (see
``hostspeed.py``);
``--trace 1`` reports its per-layer metrics instead, from a run that first
measures half the time untraced and then half traced, so the tracing
overhead is reported too.  The lines before the JSON show the metrics as a
table, the run's metadata and, when traced, where the wall time went.

The exit code is 0 when every output matched its reference digest, 1 on a
mismatch, and 2 when the program or the benchmark's files are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import Gate, load_reference
from hostspeed import HostSampler, slowdown
from spans import Recorder, median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def _src_digest() -> str:
    """Digest of the program's sources (the checkout may not be a git repo)."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(workload: str, seed: int, traced: bool) -> dict:
    return {"git_rev": _git_rev(), "src_digest": _src_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "platform": platform.platform(),
            "workload": workload, "seed": seed, "traced": traced}


def setup_seconds(workload: str) -> list[float]:
    """Time process start to ready, :data:`SETUP_REPEATS` times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        began = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]) - began)
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(outcome, host_samples) -> tuple[dict, dict]:
    """Every end-to-end metric but ``setup_s``, plus details to print.

    Times are normalised to the reference host by the kernel times
    ``host_samples`` taken during the run; the details keep them raw.
    """
    tail_value, tail_pct, count = tail(outcome.latencies)
    raw = {"uops_per_s": outcome.uops_per_s(),
           "latency_p50_s": median(outcome.latencies),
           "latency_tail_s": tail_value}
    host = slowdown(host_samples)
    metrics = {
        "uops_per_s": raw["uops_per_s"] * host,
        "latency_p50_s": raw["latency_p50_s"] / host,
        "latency_tail_s": raw["latency_tail_s"] / host,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    detail = {"latency_tail_percentile": round(tail_pct, 1),
              "latency_samples": count,
              "uops": outcome.uops, "wall_s": outcome.wall_s,
              "host_slowdown": host, "host_samples": len(host_samples),
              "raw": raw}
    return metrics, detail


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)  # workload names such as riscv:examples/... are relative
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    drive = workload.run
    gate = Gate(load_reference())
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    # Every temporary file of this process and its children stays in the
    # checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    try:
        if args.trace:
            import layers

            units = _declared("per_layer")
            half = args.seconds / 2
            # Warm up first, outside both halves, so that the process's
            # first-call costs do not bias the tracing overhead.
            workload.warm_up(args.seed, workdir / "warm")
            with HostSampler() as plain_host:
                plain = drive(half, args.seed, gate, workdir / "plain")
            recorder = Recorder()
            uninstall = layers.install(recorder)
            try:
                with HostSampler() as traced_host:
                    traced = drive(half, args.seed, gate, workdir / "traced",
                                   recorder)
            finally:
                uninstall()
            metrics = layers.layer_metrics(recorder.spans, traced.roots,
                                           traced.shared_store,
                                           traced.service)
            # Normalised, so that host drift between the halves does not
            # show as tracing overhead.
            metrics["trace.uops_per_s"] = (traced.uops_per_s()
                                           * traced_host.slowdown())
            metrics["trace.untraced_uops_per_s"] = (plain.uops_per_s()
                                                    * plain_host.slowdown())
            metrics["trace.overhead_frac"] = (
                1 - metrics["trace.uops_per_s"]
                / metrics["trace.untraced_uops_per_s"])
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            detail = {"spans": len(recorder.spans), "roots": len(traced.roots)}
        else:
            units = _declared("end_to_end")
            workload.warm_up(args.seed, workdir / "warm")
            with HostSampler() as host:
                outcome = drive(args.seconds, args.seed, gate, workdir)
            # Set-up probes run after the workload so that the children's
            # peak RSS counts only the workload's own workers.
            metrics, detail = end_to_end(outcome, host.samples)
            with HostSampler() as setup_host:
                setup = setup_seconds(args.workload)
            detail["setup_samples"] = setup
            detail["setup_host_slowdown"] = setup_host.slowdown()
            metrics["setup_s"] = median(setup) / setup_host.slowdown()
            attempted, failed = outcome.attempted, outcome.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in units}
    _print_table(f"{args.workload} seed {args.seed} "
                 f"({'per-layer' if args.trace else 'end-to-end'})",
                 metrics, units)
    for mismatch in gate.mismatches:
        print(f"MISMATCH {mismatch}")
    print(json.dumps({"meta": metadata(args.workload, args.seed,
                                       bool(args.trace)),
                      "detail": detail, "gate_checks": gate.checks}))
    print(json.dumps({
        "correct": gate.ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if gate.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
