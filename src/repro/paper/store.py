"""Append-only on-disk store of completed simulation results.

A paper-figure grid is hundreds of ``(workload, config)`` cells, each worth
seconds to minutes of simulation.  :class:`ResultsStore` makes the grid
*resumable*: every finished cell is appended to a JSONL file the moment it
completes, and a restarted run skips every cell the store already holds.
``repro paper`` and ``repro sweep --resume`` both run on top of it.

Keying
------
A cell is identified by :func:`job_key`: the trace key ``(workload,
max_ops, seed)``, the report variant, the sampling-geometry fingerprint and
a fingerprint of the *entire* :class:`~repro.pipeline.config.CoreConfig`
(which subsumes :meth:`~repro.pipeline.config.CoreConfig.warm_signature`).
Two jobs that could ever simulate differently therefore never share a key:
a PRF-sizing sweep reuses variant names across sizing points, but each
sizing point hashes to a different config fingerprint.

Durability model
----------------
The store is a plain append-only JSONL file, one completed cell per line,
flushed **and fsynced** after every append (``fsync=False`` opts out for
throwaway stores), so a completed cell survives both a killed process and
a lost page cache.  Appends keep an atomic-append discipline: every record
is one ``write()`` of a full newline-terminated line, and opening the
store for appending first *repairs* a torn tail (a final line without its
newline, i.e. a record killed mid-append) by truncating it -- the affected
cell simply re-simulates, and the file converges to the same bytes a clean
run would have written.  Loading additionally tolerates arbitrary interior
corruption: garbage bytes, stale versions and unreadable files are all
skipped.  Duplicate keys keep the *last* record so a re-recorded cell wins.

Leases (multi-process coordination)
-----------------------------------
The store doubles as the coordination substrate for concurrent runs over
one grid: a cell-granular **lease** is a lock file
``<store>.leases/<sha256(key)[:32]>.lock`` holding ``{"owner", "ttl"}``,
created with ``O_EXCL`` (exactly one racing claimant wins), heartbeated
by its mtime and released by unlink.  Once ``mtime + ttl`` has passed
the owner is presumed crashed and any surviving run *reclaims* the cell.
Every lease operation is O(1) in the lease history.  Two ``repro sweep
--resume`` processes on one store partition the pending cells instead of
duplicating them; the results file itself stays pure (lease traffic
never touches it), which is what keeps fault-free and fault-injected
stores byte-comparable after :meth:`ResultsStore.compact`.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.pipeline.result import SimulationResult

#: Bumped whenever the record layout changes; stale lines are ignored (the
#: cells re-simulate) instead of being misread.
STORE_FORMAT_VERSION = 1

#: Default seconds before an unrefreshed lease is considered stale.
DEFAULT_LEASE_TTL = 300.0


class TornWriteError(OSError):
    """A store append was torn mid-line (only raised by fault injection)."""


def job_key(job) -> str:
    """Stable identity of one sweep cell (see the module docstring).

    ``job`` is any object with the :class:`~repro.experiments.grid.Job`
    surface: ``workload``, ``max_ops``, ``seed``, ``variant``, ``config``
    and ``sampling``.  The key is human-readable up front (trace key and
    variant for debugging a store file by eye) and exact at the back (full
    config and sampling fingerprints).
    """
    config_fp = hashlib.sha256(repr(job.config).encode()).hexdigest()[:16]
    if job.sampling is None:
        sampling_fp = "full"
    else:
        # SamplingConfig.__repr__ follows an omit-default rule (error-budget
        # knobs appear only when set), so keys recorded before those knobs
        # existed stay byte-identical and pre-existing stores resume with
        # zero cells re-simulated.
        sampling_fp = "s" + hashlib.sha256(
            repr(job.sampling).encode()).hexdigest()[:12]
    return (f"{job.workload}|ops{job.max_ops}|seed{job.seed}|{job.variant}"
            f"|w{job.config.warm_signature()}|c{config_fp}|{sampling_fp}")


def parse_key(key: str) -> dict | None:
    """Split a :func:`job_key` back into its queryable components.

    Returns ``{"workload", "max_ops", "seed", "variant", "warm",
    "config", "sampling"}`` or ``None`` for a key this version cannot
    parse.  The reverse of the key layout documented above; a workload
    name containing ``|`` (never produced by the registry) would make the
    split ambiguous, so the fixed six-field tail is anchored at the end.

    >>> parse_key("move_chain|ops800|seed1|isrb_me|wabc|cdef|full")["variant"]
    'isrb_me'
    """
    parts = key.split("|")
    if len(parts) < 7:
        return None
    workload = "|".join(parts[:-6])
    ops, seed, variant, warm, config, sampling = parts[-6:]
    if not (ops.startswith("ops") and seed.startswith("seed")
            and warm.startswith("w") and config.startswith("c")):
        return None
    try:
        return {"workload": workload, "max_ops": int(ops[3:]),
                "seed": int(seed[4:]), "variant": variant,
                "warm": warm[1:], "config": config[1:],
                "sampling": sampling}
    except ValueError:
        return None


@dataclass
class StoreStats:
    """Accounting for one :class:`ResultsStore` (reported by ``repro paper``)."""

    hits: int = 0
    misses: int = 0
    appended: int = 0
    corrupt_lines: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "appended": self.appended, "corrupt_lines": self.corrupt_lines}


class ResultsStore:
    """Append-only JSONL store of completed ``(job, SimulationResult)`` cells.

    The store is safe to share across the many :func:`~repro.experiments
    .runner.run_sweep` calls of one figure grid (one open handle, one
    in-memory index) and across *processes over time* (every run reloads
    the file).  Concurrent processes coordinate through cell leases (see
    the module docstring); results are still only appended by each sweep's
    parent process, never by pool workers.
    """

    def __init__(self, path: str | Path, fsync: bool = True,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 owner: str | None = None, clock=time.time) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.lease_ttl = lease_ttl
        #: Unique identity of this run for lease ownership (never compared
        #: across runs, so it may -- must -- be nondeterministic).
        self.owner = owner or (f"{socket.gethostname()}-{os.getpid()}"
                               f"-{uuid.uuid4().hex[:8]}")
        self._clock = clock
        self.stats = StoreStats()
        self._index: dict[str, dict] | None = None
        self._handle = None
        #: Keys this store instance currently holds a lease on.
        self.owned_leases: set[str] = set()
        self._last_heartbeat = self._clock()

    @property
    def lease_path(self) -> Path:
        """The directory holding this store's lease lock files."""
        return self.path.with_name(self.path.name + ".leases")

    # -- loading --------------------------------------------------------------------

    def _load(self) -> dict[str, dict]:
        """Parse the store file into the key index, skipping corrupt lines."""
        if self._index is not None:
            return self._index
        index: dict[str, dict] = {}
        try:
            text = self.path.read_text(errors="replace")
        except FileNotFoundError:
            self._index = index
            return index
        except OSError:
            # Unreadable store: behave as empty, the run re-simulates.
            self.stats.corrupt_lines += 1
            self._index = index
            return index
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.stats.corrupt_lines += 1
                continue
            if (not isinstance(record, dict)
                    or record.get("v") != STORE_FORMAT_VERSION
                    or not isinstance(record.get("key"), str)
                    or not isinstance(record.get("result"), dict)):
                self.stats.corrupt_lines += 1
                continue
            index[record["key"]] = record["result"]
        self._index = index
        return index

    def reload(self) -> None:
        """Drop the in-memory index so the next lookup re-reads the file.

        The concurrent-resume poll loop uses this to observe cells another
        process finished after we first loaded.
        """
        self._index = None

    def __len__(self) -> int:
        return len(self._load())

    # -- lookup / append ------------------------------------------------------------

    def has(self, job) -> bool:
        """Whether a record for ``job`` exists.

        Unlike :meth:`get` this neither deserialises nor touches
        :attr:`stats` -- it is the planning probe the sweep runner uses to
        decide which traces/plans still need warming.
        """
        return job_key(job) in self._load()

    def get(self, job) -> SimulationResult | None:
        """The stored result for ``job``, or ``None`` (cell must run)."""
        payload = self._load().get(job_key(job))
        if payload is None:
            self.stats.misses += 1
            return None
        try:
            result = SimulationResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            # A record whose body does not deserialize is corruption too.
            self.stats.corrupt_lines += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def _serialize(self, job, result: SimulationResult,
                   meta: dict | None = None) -> tuple[str, dict, str]:
        key = job_key(job)
        payload = result.to_dict()
        record = {"v": STORE_FORMAT_VERSION, "key": key,
                  "job_id": getattr(job, "job_id", ""),
                  "result": payload}
        if meta:
            record["meta"] = dict(meta)
        return key, payload, json.dumps(record, sort_keys=True)

    def _open_for_append(self) -> None:
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic-append discipline: a pre-existing file must end on a line
        # boundary before we append.  A missing trailing newline is by
        # construction a torn final append (this store only ever writes
        # whole lines), so repair it -- the torn cell re-simulates and the
        # file converges to the bytes a clean run would have written.
        self.repair()
        self._handle = self.path.open("a")

    def record(self, job, result: SimulationResult, meta: dict | None = None) -> None:
        """Append one completed cell, flush and fsync it to disk immediately.

        The flush-and-fsync is what makes a killed grid resumable: every
        cell that finished before the kill is recoverable, at worst the one
        being appended is lost as a torn line (truncated and re-simulated
        on the next run).

        ``meta`` carries observability-only record metadata (wall-time,
        worker identity): it is written to the store line but never read
        back into results -- :meth:`get` deserialises only ``result`` --
        so it cannot leak into the deterministic report artifacts
        (:meth:`compact` drops it entirely).
        """
        key, payload, line = self._serialize(job, result, meta)
        self._open_for_append()
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._load()[key] = payload
        self.stats.appended += 1

    def record_torn(self, job, result: SimulationResult,
                    meta: dict | None = None) -> None:
        """Fault-injection hook: tear the append mid-line and raise.

        Writes only the first half of the record line (no newline), syncs
        it so the torn bytes really reach the file, and raises
        :class:`TornWriteError` -- exactly what a power cut mid-append
        leaves behind.  The caller recovers with :meth:`repair` +
        :meth:`record`; the chaos tests pin that the repaired store is
        byte-identical to one that never tore.
        """
        _key, _payload, line = self._serialize(job, result, meta)
        self._open_for_append()
        self._handle.write(line[:max(len(line) // 2, 1)])
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        raise TornWriteError(f"store append torn mid-line for {job.job_id}")

    def repair(self) -> int:
        """Truncate a torn (newline-less) tail; returns bytes removed.

        Safe by the append discipline: complete records always end in a
        newline, so trailing bytes without one are a torn append, never a
        finished cell.  Interior corruption is *not* rewritten here --
        loading skips it and :meth:`compact` cleans it.
        """
        had_handle = self._handle is not None
        if had_handle:
            self._handle.close()
            self._handle = None
        removed = 0
        try:
            with self.path.open("rb+") as handle:
                handle.seek(0, 2)
                size = handle.tell()
                if size:
                    handle.seek(-1, 2)
                    if handle.read(1) != b"\n":
                        data = None
                        handle.seek(0)
                        data = handle.read()
                        keep = data.rfind(b"\n") + 1  # 0 when no newline at all
                        handle.truncate(keep)
                        removed = size - keep
        except OSError:
            return 0
        if had_handle:
            self._handle = self.path.open("a")
        return removed

    def close(self) -> None:
        """Close the append handle (the store remains usable; it reopens)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- leases ---------------------------------------------------------------------

    def _lock_file(self, key: str) -> Path:
        return self.lease_path / (hashlib.sha256(key.encode()).hexdigest()[:32]
                                  + ".lock")

    @contextlib.contextmanager
    def _mutex(self):
        """Serialise every change to an existing lock (creation excepted);
        the kernel drops the ``flock`` if its holder dies mid-reclaim."""
        fd = os.open(self.lease_path / "mutex", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _create_lock(self, lock: Path) -> bool:
        """Atomically create ``lock`` for this run; False when it exists."""
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except (FileNotFoundError, NotADirectoryError):
            if self.lease_path.is_file():
                # The sidecar of the old JSONL lease log; not honoured.
                self.lease_path.unlink(missing_ok=True)
            self.lease_path.mkdir(parents=True, exist_ok=True)
            return self._create_lock(lock)
        try:
            os.write(fd, json.dumps({"owner": self.owner,
                                     "ttl": self.lease_ttl}).encode())
            now = self._clock()
            os.utime(fd, (now, now))
        finally:
            os.close(fd)
        return True

    def _read_lock(self, lock: Path) -> dict | None:
        """``{"owner", "t", "ttl", "expires"}`` of ``lock`` (``t`` = mtime).

        A lock torn before its content was written has no owner and this
        run's TTL, so it still goes stale.  None when there is no lock.
        """
        try:
            with lock.open("rb") as handle:
                t = os.fstat(handle.fileno()).st_mtime
                data = handle.read()
        except FileNotFoundError:
            return None
        try:
            entry = json.loads(data)
            owner, ttl = str(entry["owner"]), float(entry["ttl"])
        except (ValueError, KeyError, TypeError):
            owner, ttl = None, self.lease_ttl
        return {"owner": owner, "t": t, "ttl": ttl, "expires": t + ttl}

    def _owns(self, lock: Path) -> bool:
        held = self._read_lock(lock)
        return held is not None and held["owner"] == self.owner

    def lease_holder(self, job) -> dict | None:
        """The live lease on ``job`` (``{"owner", "expires", ...}``) or None."""
        entry = self._read_lock(self._lock_file(job_key(job)))
        if entry is None or entry["expires"] <= self._clock():
            return None
        return entry

    def claim(self, job) -> str | None:
        """Try to lease ``job`` for this run; None when another run holds it.

        Returns ``"fresh"`` (nobody held it), ``"reclaimed"`` (a stale
        lease was taken over) or ``None``.  The lock file's ``O_EXCL``
        creation is the single arbiter: whoever creates it holds the cell.
        A stale lock is unlinked under :meth:`_mutex` after a re-read,
        then the reclaimer races for ``O_EXCL`` like any fresh claimant.
        """
        key = job_key(job)
        lock = self._lock_file(key)
        grant = "fresh"
        if not self._create_lock(lock):
            now = self._clock()
            with self._mutex():
                held = self._read_lock(lock)
                if held is not None:
                    if held["owner"] != self.owner and held["expires"] > now:
                        return None
                    lock.unlink()
                    if held["owner"] != self.owner:
                        grant = "reclaimed"
            if not self._create_lock(lock):
                return None  # a racing claimant created it first
        self.owned_leases.add(key)
        return grant

    def heartbeat_owned(self, min_interval: float | None = None) -> int:
        """Refresh every owned lease; returns how many were refreshed.

        ``min_interval`` (default ``ttl / 4``) rate-limits refreshes so the
        per-cell delivery path can call this unconditionally.  A lease
        another run has reclaimed in the meantime is left alone.
        """
        interval = min_interval if min_interval is not None else self.lease_ttl / 4
        now = self._clock()
        if not self.owned_leases or now - self._last_heartbeat < interval:
            return 0
        self._last_heartbeat = now
        refreshed = 0
        with self._mutex():
            for key in self.owned_leases:
                lock = self._lock_file(key)
                if self._owns(lock):
                    os.utime(lock, (now, now))
                    refreshed += 1
        return refreshed

    def release(self, job) -> None:
        """Release this run's lease on ``job`` (no-op when not held)."""
        key = job_key(job)
        if key in self.owned_leases:
            self._release_keys([key])

    def release_owned(self) -> int:
        """Release every lease this run still holds (cancellation path)."""
        return self._release_keys(list(self.owned_leases))

    def _release_keys(self, keys: list[str]) -> int:
        if keys:
            with self._mutex():
                for key in keys:
                    lock = self._lock_file(key)
                    if self._owns(lock):
                        lock.unlink()
        self.owned_leases.difference_update(keys)
        return len(keys)

    # -- read-side queries (the service's ``GET /results``) ---------------------------

    def query(self, workload: str | None = None, variant: str | None = None,
              fingerprint: str | None = None,
              limit: int | None = None) -> list[dict]:
        """Stored cells matching the filters, sorted by key.

        ``workload`` and ``variant`` match exactly; ``fingerprint`` is a
        prefix match on the config fingerprint (so a full 16-hex
        fingerprint and a shortened one both work).  Each row carries the
        parsed key components plus the raw result payload; keys this
        store version cannot parse (foreign writers) are skipped.  Purely
        read-side: never touches leases or :attr:`stats`.
        """
        self.reload()
        rows: list[dict] = []
        for key in sorted(self._load()):
            parsed = parse_key(key)
            if parsed is None:
                continue
            if workload is not None and parsed["workload"] != workload:
                continue
            if variant is not None and parsed["variant"] != variant:
                continue
            if fingerprint is not None \
                    and not parsed["config"].startswith(fingerprint):
                continue
            rows.append({"key": key, **parsed,
                         "result": self._load()[key]})
            if limit is not None and len(rows) >= limit:
                break
        return rows

    # -- maintenance (``repro store``) ------------------------------------------------

    def verify(self) -> dict:
        """Integrity report of the store and lease files (read-only).

        Counts well-formed records, duplicate keys, corrupt lines and a
        torn tail on the results file, plus live/stale leases and the lock
        files on disk.
        """
        report = {"path": str(self.path), "file_bytes": 0, "lines": 0,
                  "records": 0, "unique_keys": 0, "duplicate_keys": 0,
                  "corrupt_lines": 0, "torn_tail": False,
                  "leases_live": 0, "leases_stale": 0, "lease_files": 0}
        try:
            raw = self.path.read_bytes()
        except OSError:
            raw = b""
        report["file_bytes"] = len(raw)
        report["torn_tail"] = bool(raw) and not raw.endswith(b"\n")
        keys: dict[str, int] = {}
        for line in raw.decode(errors="replace").splitlines():
            if not line.strip():
                continue
            report["lines"] += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                report["corrupt_lines"] += 1
                continue
            if (not isinstance(record, dict)
                    or record.get("v") != STORE_FORMAT_VERSION
                    or not isinstance(record.get("key"), str)
                    or not isinstance(record.get("result"), dict)):
                report["corrupt_lines"] += 1
                continue
            report["records"] += 1
            keys[record["key"]] = keys.get(record["key"], 0) + 1
        report["unique_keys"] = len(keys)
        report["duplicate_keys"] = sum(count - 1 for count in keys.values())
        now = self._clock()
        for lock in self.lease_path.glob("*.lock"):
            entry = self._read_lock(lock)
            if entry is None:
                continue  # released while we listed the directory
            report["lease_files"] += 1
            if entry["expires"] > now:
                report["leases_live"] += 1
            else:
                report["leases_stale"] += 1
        return report

    def compact(self, keep_meta: bool = False) -> dict:
        """Rewrite the store in canonical form; returns what was dropped.

        Canonical form: the last record per key, sorted by key, one
        ``json.dumps(..., sort_keys=True)`` line each, observability
        ``meta`` stripped (unless ``keep_meta``).  Torn tails, interior
        garbage and duplicates disappear -- two stores holding the same
        results compact to **byte-identical files** regardless of append
        order, faults survived or meta recorded, which is the form the
        chaos gates compare.  The rewrite is atomic (temp file +
        ``os.replace``); lease lock files are not touched.
        """
        before = self.verify()
        records: dict[str, dict] = {}
        try:
            text = self.path.read_text(errors="replace")
        except OSError:
            text = ""
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (not isinstance(record, dict)
                    or record.get("v") != STORE_FORMAT_VERSION
                    or not isinstance(record.get("key"), str)
                    or not isinstance(record.get("result"), dict)):
                continue
            if not keep_meta:
                record.pop("meta", None)
            records[record["key"]] = record
        self.close()
        if records or self.path.exists():
            tmp = self.path.with_name(self.path.name + ".compact.tmp")
            with tmp.open("w") as handle:
                for key in sorted(records):
                    handle.write(json.dumps(records[key], sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        self.reload()
        return {"records_kept": len(records),
                "duplicates_dropped": before["duplicate_keys"],
                "corrupt_dropped": before["corrupt_lines"],
                "torn_tail_dropped": before["torn_tail"]}
