"""Store Sets memory dependence predictor.

The predictor maintains two tables:

* the **Store Set ID Table (SSIT)**, indexed by a hash of the instruction
  PC, which maps loads and stores to a *store set identifier* (SSID);
* the **Last Fetched Store Table (LFST)**, indexed by SSID, which records
  the most recently renamed, still in-flight store of that set.

A load whose PC maps to a valid SSID is made dependent on the store recorded
in the LFST.  When a memory-order violation is detected (a load executed
before an older store to the same address), the offending load and store are
placed in the same store set so future instances are serialised.

Table 1 of the paper uses a 4K-entry SSIT ("4K-SSID/LFST Store Sets, not
rolled-back on squash"); both table sizes are configurable here.  The
classic *cyclic clearing* of the SSIT is also implemented so stale store
sets eventually dissolve.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StoreSetsConfig:
    """Geometry and policy of the Store Sets predictor."""

    ssit_entries: int = 4096
    lfst_entries: int = 4096
    clear_interval: int = 30_000

    def __post_init__(self) -> None:
        if self.ssit_entries <= 0 or self.lfst_entries <= 0:
            raise ValueError("store sets table sizes must be positive")
        if self.clear_interval <= 0:
            raise ValueError("clear_interval must be positive")


class StoreSetsPredictor:
    """Store Sets with incremental SSID allocation and periodic clearing."""

    def __init__(self, config: StoreSetsConfig | None = None) -> None:
        self.config = config or StoreSetsConfig()
        self._ssit: dict[int, int] = {}
        self._lfst: dict[int, int | None] = {}
        self._next_ssid = 0
        self._accesses_since_clear = 0
        # Statistics.
        self.violations_trained = 0
        self.dependencies_predicted = 0

    # -- index helpers ------------------------------------------------------------

    def _ssit_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.ssit_entries

    def _allocate_ssid(self) -> int:
        ssid = self._next_ssid
        self._next_ssid = (self._next_ssid + 1) % self.config.lfst_entries
        return ssid

    # -- rename-time interface ----------------------------------------------------

    def lookup_load(self, load_pc: int) -> int | None:
        """Return the sequence number of the store this load should wait for.

        Returns ``None`` when the load is predicted independent.  The caller
        is responsible for checking that the returned store is still in
        flight.
        """
        self._tick()
        ssid = self._ssit.get(self._ssit_index(load_pc))
        if ssid is None:
            return None
        store_seq = self._lfst.get(ssid)
        if store_seq is not None:
            self.dependencies_predicted += 1
        return store_seq

    def store_renamed(self, store_pc: int, store_seq: int) -> int | None:
        """Record a renamed store in the LFST; returns the store it should follow, if any.

        Store Sets also serialises stores belonging to the same set; the
        returned sequence number (or ``None``) is the previous store of the
        set that this store must not bypass.
        """
        self._tick()
        ssid = self._ssit.get(self._ssit_index(store_pc))
        if ssid is None:
            return None
        previous = self._lfst.get(ssid)
        self._lfst[ssid] = store_seq
        return previous

    def store_completed(self, store_pc: int, store_seq: int) -> None:
        """Remove a store from the LFST once it leaves the window (if still recorded)."""
        ssid = self._ssit.get(self._ssit_index(store_pc))
        if ssid is not None and self._lfst.get(ssid) == store_seq:
            self._lfst[ssid] = None

    # -- violation training -------------------------------------------------------

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Place a violating load/store pair in the same store set.

        Implements the assignment rules of the original proposal: allocate a
        new set when neither instruction has one, join the existing set when
        exactly one does, and merge towards the smaller SSID when both do.
        """
        self.violations_trained += 1
        load_index = self._ssit_index(load_pc)
        store_index = self._ssit_index(store_pc)
        load_ssid = self._ssit.get(load_index)
        store_ssid = self._ssit.get(store_index)
        if load_ssid is None and store_ssid is None:
            ssid = self._allocate_ssid()
            self._ssit[load_index] = ssid
            self._ssit[store_index] = ssid
        elif load_ssid is None:
            self._ssit[load_index] = store_ssid
        elif store_ssid is None:
            self._ssit[store_index] = load_ssid
        else:
            winner = min(load_ssid, store_ssid)
            self._ssit[load_index] = winner
            self._ssit[store_index] = winner

    # -- housekeeping ---------------------------------------------------------

    def _tick(self) -> None:
        """Cyclically clear the tables so stale sets eventually dissolve."""
        self._accesses_since_clear += 1
        if self._accesses_since_clear >= self.config.clear_interval:
            self._accesses_since_clear = 0
            self._ssit.clear()
            self._lfst.clear()

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the SSIT and the SSID allocator.

        The LFST is deliberately *not* captured: it names still-in-flight
        stores by trace sequence number, and a snapshot is only taken with
        the pipeline drained, when no store is in flight -- restoring an
        empty LFST is therefore the architecturally correct state (and
        keeps stale sequence numbers from leaking into the next window's
        trace, whose numbering restarts at zero).
        """
        return {
            "ssit": dict(self._ssit),
            "next_ssid": self._next_ssid,
            "accesses_since_clear": self._accesses_since_clear,
        }

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the predictor state with a :meth:`to_snapshot` image."""
        self._ssit = {int(index): ssid for index, ssid in snapshot["ssit"].items()}
        self._lfst = {}
        self._next_ssid = snapshot["next_ssid"]
        self._accesses_since_clear = snapshot["accesses_since_clear"]

    def carry_over(self) -> None:
        """Drop the LFST, as restoring a :meth:`to_snapshot` image does."""
        self._lfst = {}

    def storage_bits(self) -> int:
        """Approximate storage requirement in bits (SSID width times table sizes)."""
        ssid_bits = max(self.config.lfst_entries.bit_length() - 1, 1)
        seq_bits = 8  # the LFST holds a small in-flight store identifier
        return self.config.ssit_entries * ssid_bits + self.config.lfst_entries * seq_bits

    def __repr__(self) -> str:
        return (f"StoreSetsPredictor(ssit={self.config.ssit_entries}, "
                f"lfst={self.config.lfst_entries})")
