"""One set-up of a workload in a fresh process, for ``setup_s``.

``python3 perfbench/setup_probe.py WORKLOAD`` imports what the workload
needs and, for ``service_mix``, starts the service on an empty store and
waits until ``/health`` answers.  It then prints ``time.monotonic()`` (a
system-wide clock, so the parent can subtract its own reading taken before
starting this process) and tears everything down.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if workload == "paper_smoke":
        import repro.paper  # noqa: F401
    elif workload == "sampled_long":
        import repro.experiments  # noqa: F401
    elif workload == "service_mix":
        from repro.service import ServiceServer, SweepService
        from repro.service.client import ServiceClient

        with tempfile.TemporaryDirectory() as store_dir:
            service = SweepService(Path(store_dir) / "results.jsonl")
            server = ServiceServer(service, port=0).start()
            try:
                ServiceClient("127.0.0.1", server.port).health()
                print(time.monotonic(), flush=True)
            finally:
                server.stop()
        return 0
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print(time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
