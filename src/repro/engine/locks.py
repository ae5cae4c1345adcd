"""Hot-lock manager: application-level serialization.

Models a small set of highly-contended logical locks (think: the TPC-C
warehouse row a district's NewOrder transactions all update).  Each lock is
a FIFO server whose service time is the transaction's *critical-section*
length in wall-clock milliseconds — deliberately independent of the
container size.  Time spent queued accrues to
:data:`repro.engine.waits.WaitClass.LOCK`.

The engine runs in discrete ticks, so each lock serves its queue fluidly,
in two regimes:

* **Steady (ρ < 1, queue drains within the tick)** — queueing happens at
  sub-tick scale, invisible to the tick loop, so the delay is injected
  analytically from the M/D/1 Pollaczek–Khinchine mean wait
  ``ρ·hold / 2(1 − ρ)``.
* **Backlogged (queue survives the tick)** — requests served this tick
  really did wait from the tick start; they receive sequential service
  offsets, and requests still queued accrue a full tick of lock wait.

Either way a lock sustains at most ``1000 / hold_ms`` transactions per
second no matter how large the container — the mechanism behind the
paper's Figure 13, where lock waits dominate every resource wait class and
a utilization-driven scaler wastes money chasing them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["HotLockManager", "LockGrants"]

_EMPTY_ROWS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class LockGrants:
    """The requests granted a hot lock in one tick.

    Parallel arrays, in grant order (lock by lock, FIFO within a lock);
    also readable as a list of ``(row, queue_delay_ms)`` pairs (``len``,
    iteration, indexing, equality).
    """

    rows: np.ndarray
    delays_ms: np.ndarray

    def __len__(self) -> int:
        return int(self.rows.size)

    def __getitem__(self, index: int) -> tuple[int, float]:
        return int(self.rows[index]), float(self.delays_ms[index])

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return zip(self.rows.tolist(), self.delays_ms.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


_NO_GRANTS = LockGrants(_EMPTY_ROWS, np.empty(0))


class HotLockManager:
    """Fluid FIFO service over ``n_locks`` hot locks."""

    def __init__(self, n_locks: int) -> None:
        if n_locks < 0:
            raise ConfigurationError(f"n_locks must be >= 0, got {n_locks}")
        self._n_locks = n_locks
        self._queues: list[np.ndarray] = [_EMPTY_ROWS] * n_locks
        self._carry_ms = [0.0] * n_locks
        self._backlogged = [False] * n_locks

    @property
    def n_locks(self) -> int:
        return self._n_locks

    def enqueue(self, lock_id: int, row: int) -> None:
        """Queue request ``row`` on ``lock_id``."""
        self.enqueue_many(np.asarray([lock_id]), np.asarray([row]))

    def enqueue_many(self, lock_ids: np.ndarray, rows: np.ndarray) -> None:
        """Queue ``rows`` on their ``lock_ids``, in order (FIFO per lock)."""
        arrivals = [rows[lock_ids == lock_id] for lock_id in range(self._n_locks)]
        if sum(queued.size for queued in arrivals) != lock_ids.size:
            bad = lock_ids[(lock_ids < 0) | (lock_ids >= self._n_locks)][0]
            raise ConfigurationError(f"lock_id {int(bad)} out of range")
        for lock_id, queued in enumerate(arrivals):
            if queued.size:
                self._queues[lock_id] = np.concatenate((self._queues[lock_id], queued))

    def queue_length(self, lock_id: int) -> int:
        return int(self._queues[lock_id].size)

    def total_waiting(self) -> int:
        """Requests currently queued across all locks."""
        return sum(queue.size for queue in self._queues)

    def serve_tick(
        self, tick_ms: float, hold_ms_for: Callable[[np.ndarray], np.ndarray | float]
    ) -> LockGrants:
        """Advance every lock by one tick of service.

        Args:
            tick_ms: wall-clock service budget added to each lock.
            hold_ms_for: maps an array of queued row indices to their
                critical-section lengths in ms (an array, or one scalar
                for all of them); called once per non-empty lock.

        Returns:
            The requests granted this tick with their ``queue_delay_ms``:
            the time each spent (or, in the steady regime, statistically
            spends) waiting for the lock; the caller adds it to the
            request's latency floor and to the LOCK wait class.
        """
        granted_rows: list[np.ndarray] = []
        granted_delays: list[np.ndarray] = []
        for lock_id in range(self._n_locks):
            queue = self._queues[lock_id]
            if queue.size == 0:
                # An idle lock must not bank capacity: contention resumes
                # from a cold queue, not from saved-up service.
                self._carry_ms[lock_id] = 0.0
                self._backlogged[lock_id] = False
                continue
            was_backlogged = self._backlogged[lock_id]
            hold = np.empty(queue.size)
            hold[:] = hold_ms_for(queue)
            np.maximum(hold, 1e-6, out=hold)
            # Serve the queue head while the budget covers its hold time.
            # The running budget is the sequential difference, and the
            # service offsets the sequential sum, of the holds served.
            budget = np.subtract.accumulate(
                np.concatenate(([self._carry_ms[lock_id] + tick_ms], hold))
            )
            short = budget[:-1] < hold
            n_served = int(short.argmax()) if np.count_nonzero(short) else queue.size
            served = queue[:n_served]
            offsets = np.cumsum(hold[:n_served])
            self._queues[lock_id] = queue[n_served:]

            still_backlogged = n_served < queue.size
            self._backlogged[lock_id] = still_backlogged
            # Carry at most one tick of unused budget forward so a long
            # critical section can span tick boundaries.
            self._carry_ms[lock_id] = min(float(budget[n_served]), tick_ms)

            if n_served == 0:
                continue
            if was_backlogged or still_backlogged:
                # Overload regime: the queue genuinely spans ticks, so the
                # sequential service offsets are the real delays.
                delays = np.concatenate(([0.0], offsets[:-1]))
            else:
                # Steady regime: arrivals spread through the tick and the
                # queue drains within it, so inject the M/D/1 mean wait.
                total_hold = float(offsets[-1])
                rho = min(total_hold / tick_ms, 0.98)
                mean_hold = total_hold / n_served
                delays = np.full(n_served, rho * mean_hold / (2.0 * (1.0 - rho)))
            granted_rows.append(served)
            granted_delays.append(delays)
        if not granted_rows:
            return _NO_GRANTS
        return LockGrants(
            np.concatenate(granted_rows), np.concatenate(granted_delays)
        )

    def abandon(self, row: int) -> None:
        """Remove ``row`` from whichever queue holds it (request cancelled)."""
        for lock_id, queue in enumerate(self._queues):
            hits = np.flatnonzero(queue == row)
            if hits.size:
                self._queues[lock_id] = np.delete(queue, hits[0])
                return

    def reset(self) -> None:
        self._queues = [_EMPTY_ROWS] * self._n_locks
        self._carry_ms = [0.0] * self._n_locks
        self._backlogged = [False] * self._n_locks
