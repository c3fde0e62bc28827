"""Write ``reference.json``: the digests every benchmark run is checked against.

``python3 perfbench/make_reference.py`` runs each input the workloads can
draw -- every paper seed, every sampled-long seed and every service spec
seed -- directly through the program (no service, no timing) and records
the digests of its outputs and of every cell's simulated statistics.  Run
it again only when a change is meant to alter simulated results, and say
so in that change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _paper(seed: int) -> dict:
    from repro.paper import job_key, run_paper

    from gate import cells_digest, digest

    cells = {}

    def progress(_done, _total, job_result):
        cells[job_key(job_result.job)] = job_result.result.to_dict()

    with tempfile.TemporaryDirectory() as out:
        summary = run_paper(smoke=True, workers=2, out_dir=out, seed=seed,
                            progress=progress)
        return {"report_md": digest(summary.paths["report"].read_bytes()),
                "figures_json": digest(
                    summary.paths["figures_json"].read_bytes()),
                "cells": cells_digest(cells)}


def _sampled(workload: str, seed: int) -> dict:
    from repro.experiments import run_sweep
    from repro.paper import job_key

    from gate import cells_digest, digest
    from workloads import long_spec

    cells = {}

    def progress(_done, _total, job_result):
        cells[job_key(job_result.job)] = job_result.result.to_dict()

    report = run_sweep(long_spec(workload, seed), workers=1, cache_dir=None,
                       progress=progress)
    return {"report_md": digest(report.to_markdown()),
            "cells": cells_digest(cells)}


def _service(seed: int) -> tuple[int, dict]:
    from repro.experiments import run_sweep
    from repro.service import spec_from_dict

    from gate import cells_digest, digest
    from workloads import service_spec

    report = run_sweep(spec_from_dict(service_spec(seed)), workers=1,
                       cache_dir=None)
    body = (report.to_json() + "\n").encode()  # the bytes the service serves
    results = json.loads(body)["results"]
    return seed, {"report": digest(body), "cells": cells_digest(
        {str(i): result for i, result in enumerate(results)})}


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import (FRESH_SEEDS, LONG_SEEDS, LONG_WORKLOADS,
                           PAPER_SEEDS, SHARED_SEEDS)

    reference = {
        "paper_smoke": {str(seed): _paper(seed) for seed in PAPER_SEEDS},
        "sampled_long": {f"{workload}/{seed}": _sampled(workload, seed)
                         for workload in LONG_WORKLOADS
                         for seed in LONG_SEEDS},
    }
    seeds = [*SHARED_SEEDS, *FRESH_SEEDS]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        reference["service_mix"] = {
            str(seed): entry for seed, entry in pool.imap(_service, seeds)}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(PAPER_SEEDS)} paper seeds, "
          f"{len(reference['sampled_long'])} sampled sweeps, "
          f"{len(seeds)} service specs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
