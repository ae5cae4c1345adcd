"""Transaction specifications and the active-request table.

The engine is a fluid, discrete-time simulator: every active request is a
row in a structure-of-arrays :class:`RequestTable` so that each tick's
admission, resource arbitration, completion and release are a handful of
vectorized numpy operations rather than a Python loop over requests.  This
keeps full experiment runs (tens of thousands of ticks, hundreds of
concurrent requests) fast enough to sweep six scaling policies per
benchmark.

Row assignment is part of the table's contract, because per-tick sums run
in row order: :meth:`RequestTable.add_many` hands out exactly the rows
that many one-row :meth:`RequestTable.add` calls would (free rows
last-released first; only once the free list is empty does the table
grow, and the new rows follow in ascending order), and
:meth:`RequestTable.release` returns rows to the free list in the order
given.

A request carries remaining-work components (CPU ms, logical reads, log
KB) plus an optional *hot-lock critical section*: the application-level
serialization that the paper's TPC-C experiment shows cannot be relieved by
a larger container.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import WorkloadError

__all__ = [
    "TransactionSpec",
    "RequestTable",
    "spec_values",
    "VALUE_COLUMNS",
    "WORK_ROWS",
    "ARRIVAL_ROW",
    "LOCK_NONE",
    "LOCK_QUEUED",
    "LOCK_HELD",
]

#: lock_state values.
LOCK_NONE = 0  #: no hot lock needed (or already released)
LOCK_QUEUED = 1  #: waiting in a hot-lock queue; no work progresses
LOCK_HELD = 2  #: inside the critical section


@dataclass(frozen=True)
class TransactionSpec:
    """Resource-demand profile of one transaction/query type.

    Attributes:
        name: label, e.g. ``"new_order"``.
        weight: relative frequency in the workload mix.
        cpu_ms: total CPU milliseconds of work.
        logical_reads: buffer-pool page accesses.
        log_kb: bytes (KB) written to the log at commit.
        lock_probability: chance the transaction enters a hot-lock critical
            section (application-level contention).
        lock_hold_ms: wall-clock length of the critical section; it does
            not shrink with container size — this floor is what makes
            lock-bound workloads insensitive to scaling.
        max_read_iops: per-request read-stream limit (a single query cannot
            saturate a large container's disk alone).
        max_log_mb_s: per-request log-write stream limit.
        work_sigma: lognormal sigma of the per-request work-size jitter
            (0 = every instance identical); gives latency distributions a
            realistic spread.
    """

    name: str
    weight: float
    cpu_ms: float
    logical_reads: float
    log_kb: float
    lock_probability: float = 0.0
    lock_hold_ms: float = 0.0
    max_read_iops: float = 400.0
    max_log_mb_s: float = 10.0
    work_sigma: float = 0.25

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(f"{self.name}: weight must be positive")
        if min(self.cpu_ms, self.logical_reads, self.log_kb) < 0:
            raise WorkloadError(f"{self.name}: work components must be >= 0")
        if not 0.0 <= self.lock_probability <= 1.0:
            raise WorkloadError(
                f"{self.name}: lock_probability must be in [0, 1]"
            )
        if self.lock_probability > 0 and self.lock_hold_ms <= 0:
            raise WorkloadError(
                f"{self.name}: contended transactions need lock_hold_ms > 0"
            )

    @property
    def service_ms_estimate(self) -> float:
        """Rough uncontended service time, used for sizing sanity checks."""
        io_ms = 1000.0 * self.logical_reads / max(self.max_read_iops, 1e-9)
        log_ms = self.log_kb / 1024.0 / max(self.max_log_mb_s, 1e-9) * 1000.0
        return self.cpu_ms + io_ms + log_ms + self.lock_hold_ms


#: The float columns of a :class:`RequestTable`, in the row order of its
#: :attr:`~RequestTable.values` matrix and of :func:`spec_values`.
VALUE_COLUMNS = (
    "cpu_rem_ms",
    "reads_rem",
    "log_rem_kb",
    "hold_rem_ms",
    "max_read_iops",
    "max_log_mb_s",
    "arrival_ms",
)
#: The rows of work a per-request size multiplier scales.
WORK_ROWS = slice(0, 3)
#: The row holding each request's arrival time.
ARRIVAL_ROW = VALUE_COLUMNS.index("arrival_ms")


def spec_values(specs: Sequence[TransactionSpec]) -> np.ndarray:
    """Float columns of a fresh request of each spec, one column per spec.

    Shape ``(len(VALUE_COLUMNS), len(specs))``: work unscaled, hold time
    and arrival zero.  Gather columns by transaction type, scale
    :data:`WORK_ROWS` and set :data:`ARRIVAL_ROW` to admit a batch.
    """
    return np.array(
        [
            [s.cpu_ms, s.logical_reads, s.log_kb, 0.0, s.max_read_iops, s.max_log_mb_s, 0.0]
            for s in specs
        ],
        dtype=float,
    ).T.copy()


class RequestTable:
    """Structure-of-arrays store for in-flight requests.

    Rows are recycled through a free list; numpy column views over the
    ``active`` mask give the per-tick working sets.  The float columns
    (:data:`VALUE_COLUMNS`) are the rows of one ``values`` matrix, so a
    tick gathers or admits all of them in one indexing operation; each is
    also an attribute (a view of its row).
    """

    _INITIAL_CAPACITY = 256

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._capacity = max(capacity, 16)
        self.values = np.zeros((len(VALUE_COLUMNS), self._capacity))
        self._bind_value_columns()
        self.active = np.zeros(self._capacity, dtype=bool)
        self.txn_type = np.zeros(self._capacity, dtype=np.int32)
        self.lock_id = np.full(self._capacity, -1, dtype=np.int32)
        self.lock_state = np.zeros(self._capacity, dtype=np.int8)
        self._free: list[int] = list(range(self._capacity))[::-1]
        self._active_count = 0

    def _bind_value_columns(self) -> None:
        for row, name in enumerate(VALUE_COLUMNS):
            setattr(self, name, self.values[row])

    def _grow(self) -> None:
        old_capacity = self._capacity
        new_capacity = old_capacity * 2
        values = np.zeros((len(VALUE_COLUMNS), new_capacity))
        values[:, :old_capacity] = self.values
        self.values = values
        self._bind_value_columns()
        for name, fill in (
            ("active", False),
            ("txn_type", 0),
            ("lock_id", -1),
            ("lock_state", 0),
        ):
            old = getattr(self, name)
            grown = np.full(new_capacity, fill, dtype=old.dtype)
            grown[:old_capacity] = old
            setattr(self, name, grown)
        self._free.extend(range(new_capacity - 1, old_capacity - 1, -1))
        self._capacity = new_capacity

    def __len__(self) -> int:
        return self._active_count

    @property
    def capacity(self) -> int:
        return self._capacity

    def add(
        self,
        txn_type: int,
        arrival_ms: float,
        spec: TransactionSpec,
        lock_id: int,
        work_multiplier: float = 1.0,
    ) -> int:
        """Admit one request; returns its row index."""
        values = spec_values([spec])
        values[WORK_ROWS] *= work_multiplier
        values[ARRIVAL_ROW] = arrival_ms
        (row,) = self.add_many([txn_type], [lock_id], values)
        return int(row)

    def add_many(
        self, txn_type: ArrayLike, lock_id: ArrayLike, values: np.ndarray
    ) -> np.ndarray:
        """Admit a batch of requests in order; returns their row indices.

        ``txn_type`` and ``lock_id`` hold one entry per request (lock -1:
        none); ``values`` holds their float columns, shaped like
        :attr:`values` with one column per request (see
        :func:`spec_values`).  Rows are assigned exactly as that many
        one-row admissions would assign them: free rows pop last-released
        first, and only when the free list runs dry does the table grow,
        after which the new rows pop in ascending order.
        """
        rows = self._take_rows(len(txn_type))
        lock_id = np.asarray(lock_id)
        self.values[:, rows] = values
        self.active[rows] = True
        self.txn_type[rows] = txn_type
        self.lock_id[rows] = lock_id
        self.lock_state[rows] = np.where(lock_id >= 0, LOCK_QUEUED, LOCK_NONE)
        self._active_count += rows.size
        return rows

    def _take_rows(self, n: int) -> np.ndarray:
        """Pop ``n`` rows off the free list, growing it whenever it empties."""
        free = self._free
        taken: list[int] = []
        while len(taken) < n:
            if not free:
                self._grow()
            k = min(n - len(taken), len(free))
            taken.extend(free[: -k - 1 : -1])
            del free[-k:]
        return np.asarray(taken, dtype=np.intp)

    def release(self, rows: np.ndarray) -> None:
        """Retire completed rows back to the free list.

        Inactive rows are skipped and a repeated row is released once, so
        the free list grows exactly as it would under one-row releases in
        the same order.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        live = rows[self.active[rows]]
        if live.size == 0:
            return
        released = list(dict.fromkeys(live.tolist()))
        self.active[live] = False
        self.lock_id[live] = -1
        self.lock_state[live] = LOCK_NONE
        self._free.extend(released)
        self._active_count -= len(released)

    def active_rows(self) -> np.ndarray:
        """Indices of all in-flight requests."""
        return self.active.nonzero()[0]

    def runnable_rows(self) -> np.ndarray:
        """Indices of requests allowed to progress (not queued on a lock)."""
        return (self.active & (self.lock_state != LOCK_QUEUED)).nonzero()[0]

    def blocked_rows(self) -> np.ndarray:
        """Indices of requests queued on a hot lock."""
        return (self.active & (self.lock_state == LOCK_QUEUED)).nonzero()[0]

    def work_done(self, rows: np.ndarray) -> np.ndarray:
        """Boolean mask over ``rows``: all work components finished."""
        return (
            (self.cpu_rem_ms[rows] <= 1e-9)
            & (self.reads_rem[rows] <= 1e-9)
            & (self.log_rem_kb[rows] <= 1e-9)
        )
