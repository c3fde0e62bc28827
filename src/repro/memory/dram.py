"""An open-page DDR3-like main-memory latency model.

Table 1 specifies a single-channel DDR3-1600 part (11-11-11 timings, 2
ranks, 8 banks per rank, 8KB row buffer) with a minimum read latency of 75
core cycles and a maximum of 185 cycles.  This model captures the dominant
effect at that abstraction level: row-buffer hits pay the minimum latency,
row-buffer conflicts pay extra activation/precharge latency, and a busy
bank adds queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramConfig:
    """Latency parameters of the main memory model (in core cycles)."""

    min_latency: int = 75
    row_miss_penalty: int = 55
    max_latency: int = 185
    ranks: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 8192
    bank_busy_cycles: int = 24

    def __post_init__(self) -> None:
        if self.min_latency <= 0 or self.max_latency < self.min_latency:
            raise ValueError("invalid DRAM latency bounds")
        if self.ranks <= 0 or self.banks_per_rank <= 0 or self.row_bytes <= 0:
            raise ValueError("DRAM geometry values must be positive")


class DramModel:
    """Per-bank open-row tracking with queueing delay for busy banks."""

    def __init__(self, config: DramConfig | None = None) -> None:
        self.config = config or DramConfig()
        banks = self.config.ranks * self.config.banks_per_rank
        self._open_row: list[int | None] = [None] * banks
        self._bank_free_at: list[int] = [0] * banks
        self.accesses = 0
        self.row_hits = 0
        self.row_conflicts = 0

    def _locate(self, address: int) -> tuple[int, int]:
        row = address // self.config.row_bytes
        bank = row % (self.config.ranks * self.config.banks_per_rank)
        return bank, row

    def access(self, address: int, now: int) -> int:
        """Return the latency of an access issued at cycle ``now``."""
        self.accesses += 1
        config = self.config
        bank, row = self._locate(address)
        latency = config.min_latency
        if self._open_row[bank] is None or self._open_row[bank] != row:
            if self._open_row[bank] is not None:
                self.row_conflicts += 1
            latency += config.row_miss_penalty
        else:
            self.row_hits += 1
        # Queueing behind an earlier access to the same bank.
        if self._bank_free_at[bank] > now:
            latency += self._bank_free_at[bank] - now
        latency = min(latency, config.max_latency)
        self._open_row[bank] = row
        self._bank_free_at[bank] = now + config.bank_busy_cycles
        return latency

    def next_ready_cycle(self, now: int) -> int | None:
        """Earliest cycle after ``now`` at which a busy bank frees up.

        A next-ready-time query for the event-driven core loop: bank-busy
        expiry only changes the *latency* of a later access (queueing
        delay), never initiates work by itself, so the bound is advisory --
        reporting it early is harmless, under-reporting is impossible
        because ``_bank_free_at`` is exact.  ``None`` means no bank is busy.
        """
        pending = [t for t in self._bank_free_at if t > now]
        return min(pending) if pending else None

    def warm(self, address: int) -> None:
        """Timing-free warming access: update the bank's open row only.

        Used by the sampled-simulation fast-forward path so that detailed
        windows see row-buffer locality consistent with the skipped
        instruction stream; no statistics or bank-busy timing are touched.
        """
        bank, row = self._locate(address)
        self._open_row[bank] = row

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self, now: int = 0) -> dict:
        """Serialise open rows and bank-busy times *relative to* cycle ``now``.

        Bank-free times are absolute cycles; a detailed window restarts its
        cycle counter at zero, so the snapshot stores the remaining busy
        delta (clamped at zero) instead.
        """
        return {
            "open_rows": list(self._open_row),
            "bank_busy_in": [max(0, t - now) for t in self._bank_free_at],
        }

    def restore_snapshot(self, snapshot: dict, now: int = 0) -> None:
        """Restore a :meth:`to_snapshot` image, rebasing busy times onto ``now``."""
        self.restore_open_rows(snapshot["open_rows"])
        self._bank_free_at = [now + delta for delta in snapshot["bank_busy_in"]]

    def restore_open_rows(self, open_rows: list) -> None:
        """Overwrite the open rows only (bank-busy timing is left alone)."""
        if len(open_rows) != len(self._open_row):
            raise ValueError("DRAM snapshot geometry does not match this model")
        self._open_row = list(open_rows)

    def carry_over(self, now: int) -> None:
        """Rebase busy times onto cycle 0 as a snapshot at ``now`` would; zero stats."""
        self._bank_free_at = [max(0, t - now) for t in self._bank_free_at]
        self.accesses = 0
        self.row_hits = 0
        self.row_conflicts = 0

    def __repr__(self) -> str:
        banks = self.config.ranks * self.config.banks_per_rank
        return f"DramModel(banks={banks}, min={self.config.min_latency})"
