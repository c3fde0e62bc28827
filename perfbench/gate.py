"""The correctness gate: digests of what a run produced against references.

Every run checks its outputs against ``reference.json`` beside this file,
which ``make_reference.py`` writes from direct, untimed runs of the same
inputs.  The simulator is deterministic, so a change that only makes it
faster leaves every digest identical; any mismatch fails the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Hex digits kept of each SHA-256 digest.
DIGEST_CHARS = 32


def digest(data: bytes | str) -> str:
    """Truncated SHA-256 of ``data`` (text is UTF-8 encoded)."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


def cells_digest(cells: dict[str, dict]) -> str:
    """Digest of every cell's simulated statistics, keyed by cell.

    ``cells`` maps a cell key to its result (``SimulationResult.to_dict``:
    cycles, instructions and the full stats map).
    """
    return digest(json.dumps(cells, sort_keys=True))


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


class Gate:
    """Collects digest checks; any mismatch or missing reference fails."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.checks = 0
        self.mismatches: list[str] = []

    def check(self, workload: str, case, name: str, actual: str) -> bool:
        """Compare one digest with ``reference[workload][str(case)][name]``.

        ``case`` names the input: a seed, or ``"<workload>/<seed>"``.
        """
        self.checks += 1
        expected = self.reference.get(workload, {}).get(str(case), {}) \
            .get(name)
        if expected == actual:
            return True
        self.mismatches.append(f"{workload} {case} {name}: "
                               f"expected {expected}, got {actual}")
        return False

    @property
    def ok(self) -> bool:
        return self.checks > 0 and not self.mismatches
