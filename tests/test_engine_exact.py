"""Exactness pins for the engine tick.

The golden digests below were recorded from a per-request implementation
of the tick (one Python iteration per admitted, released and
lock-granted request).  ``DatabaseServer._tick`` must reproduce them bit
for bit: every latency, wait, utilization sample,
arrival/completion/rejection count, and the final RNG state.  The
profiles push the request table past its 256-row initial capacity and
saturate ``max_concurrency``; tpcc keeps its hot locks in both the steady
and the backlogged regime.

The unit tests pin the bulk primitives the tick is built from against
their one-row forms, and the array lock service against the per-row one.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.containers import default_catalog
from repro.engine.locks import HotLockManager
from repro.engine.requests import (
    ARRIVAL_ROW,
    LOCK_NONE,
    LOCK_QUEUED,
    WORK_ROWS,
    RequestTable,
    TransactionSpec,
    spec_values,
)
from repro.engine.server import DatabaseServer, EngineConfig
from repro.service.checkpoint import encode_state
from repro.workloads import cpuio_workload, ds2_workload, tpcc_workload

CATALOG = default_catalog()

WORKLOADS = {
    "cpuio": cpuio_workload,
    "tpcc": tpcc_workload,
    "ds2": ds2_workload,
}

#: name -> (workload, container level, prewarm, per-interval rates, seed).
#: Each interval is 15 ticks at the listed constant rate.
CASES = {
    "cpuio-ramp": ("cpuio", 3, True, (5.0, 40.0, 120.0, 400.0, 10.0), 11),
    "cpuio-cold-small": ("cpuio", 0, False, (20.0, 100.0, 20.0), 12),
    "tpcc-locks": ("tpcc", 8, True, (100.0, 400.0, 400.0, 20.0, 0.0), 13),
    "tpcc-cpu-bound": ("tpcc", 3, True, (60.0, 150.0, 30.0), 14),
    "ds2-cold": ("ds2", 5, False, (30.0, 120.0, 400.0, 15.0), 15),
    "ds2-warm": ("ds2", 8, True, (50.0, 300.0, 5.0), 16),
}

#: sha256 of the canonical JSON of every interval's counters, the raw
#: per-tick utilization samples, and the final bit-generator state.
GOLDEN = {
    "cpuio-ramp": (
        "36a6f0971977897c4e27173207a74595"
        "a2dfced1c0cc1484ade98efc9cd8ab3f"
    ),
    "cpuio-cold-small": (
        "8984ac49404fbd4333cf97f83f1ae8fc"
        "9a7fa80c94709a65499de79a5a29135f"
    ),
    "tpcc-locks": (
        "22c0e625dbc1de0eec589d32532e194c"
        "525accd641d3bd92b33d3272aba61302"
    ),
    "tpcc-cpu-bound": (
        "7cae7db60b8eddb60763eded5edb6ed8"
        "c8c6762b4d186d8a2b6960de45bcf7cf"
    ),
    "ds2-cold": (
        "e22824143543ef2f555783151cf379f3"
        "c99f133b1b54198da9f08d69b94f4a01"
    ),
    "ds2-warm": (
        "ae05296c73af971b0961924dffcab4b9"
        "5478c238e44ed49694b484db28f04510"
    ),
}


def _run_case(name: str) -> str:
    workload_name, level, prewarm, rates, seed = CASES[name]
    workload = WORKLOADS[workload_name]()
    config = EngineConfig(interval_ticks=15, seed=seed)
    server = DatabaseServer(
        specs=workload.specs,
        dataset=workload.dataset,
        container=CATALOG.at_level(level),
        config=config,
        n_hot_locks=workload.n_hot_locks,
    )
    if prewarm:
        server.prewarm()
    samples: list = []
    snapshot = server._acc.snapshot

    def recording_snapshot(**kwargs):
        samples.append(
            {kind.value: list(v) for kind, v in server._acc.utilization_samples.items()}
        )
        return snapshot(**kwargs)

    server._acc.snapshot = recording_snapshot
    intervals = []
    for rate in rates:
        profile = np.full(config.interval_ticks, rate)
        intervals.append(encode_state(server.run_interval_with_rates(profile).state_dict()))
    record = {
        "intervals": intervals,
        "samples": samples,
        "rng": server._rng.bit_generator.state,
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_interval_counters_match_golden(name):
    assert _run_case(name) == GOLDEN[name]


def test_cases_reach_the_interesting_regimes():
    """The golden profiles grow the table and saturate admission."""
    workload = tpcc_workload()
    server = DatabaseServer(
        specs=workload.specs,
        dataset=workload.dataset,
        container=CATALOG.at_level(8),
        config=EngineConfig(interval_ticks=15, seed=13),
        n_hot_locks=workload.n_hot_locks,
    )
    server.prewarm()
    counters = [server.run_interval(rate) for rate in (100.0, 400.0)]
    assert server.table.capacity > 256
    assert counters[-1].rejected > 0
    assert server.locks.total_waiting() > 0


# -- bulk primitives against their one-row forms ------------------------------


def _spec(i: int) -> TransactionSpec:
    return TransactionSpec(
        name=f"t{i}",
        weight=1.0 + i,
        cpu_ms=3.0 + 1.5 * i,
        logical_reads=7.0 + i,
        log_kb=0.5 * i,
        lock_probability=0.5 if i % 2 else 0.0,
        lock_hold_ms=4.0 if i % 2 else 0.0,
        max_read_iops=100.0 + i,
        max_log_mb_s=2.0 + i,
    )


SPECS = [_spec(i) for i in range(4)]
COLUMNS = (
    "active",
    "txn_type",
    "arrival_ms",
    "cpu_rem_ms",
    "reads_rem",
    "log_rem_kb",
    "lock_id",
    "lock_state",
    "hold_rem_ms",
    "max_read_iops",
    "max_log_mb_s",
)


def _assert_tables_equal(a: RequestTable, b: RequestTable) -> None:
    assert a.capacity == b.capacity
    assert len(a) == len(b)
    assert a._free == b._free
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


def _batch(rng: np.random.Generator, n: int):
    types = rng.integers(0, len(SPECS), size=n)
    arrival = rng.random(n) * 1000.0
    lock_id = np.where(rng.random(n) < 0.4, rng.integers(0, 3, size=n), -1)
    multiplier = np.exp(0.3 * rng.standard_normal(n))
    return types, arrival, lock_id, multiplier


def _reference_add(table, txn_type, arrival_ms, spec, lock_id, multiplier) -> int:
    """One-row admission: the reference ``add_many`` must equal."""
    if not table._free:
        table._grow()
    row = table._free.pop()
    table.active[row] = True
    table.txn_type[row] = txn_type
    table.arrival_ms[row] = arrival_ms
    table.cpu_rem_ms[row] = spec.cpu_ms * multiplier
    table.reads_rem[row] = spec.logical_reads * multiplier
    table.log_rem_kb[row] = spec.log_kb * multiplier
    table.lock_id[row] = lock_id
    table.lock_state[row] = LOCK_QUEUED if lock_id >= 0 else LOCK_NONE
    table.hold_rem_ms[row] = 0.0
    table.max_read_iops[row] = spec.max_read_iops
    table.max_log_mb_s[row] = spec.max_log_mb_s
    table._active_count += 1
    return row


def _reference_release(table, rows) -> None:
    """Per-row release: the reference ``release`` must equal."""
    for row in rows:
        row = int(row)
        if not table.active[row]:
            continue
        table.active[row] = False
        table.lock_id[row] = -1
        table.lock_state[row] = LOCK_NONE
        table._free.append(row)
        table._active_count -= 1


def _add_one_by_one(table, types, arrival, lock_id, multiplier, add=None) -> list[int]:
    add = add or (lambda *args: _reference_add(table, *args))
    return [
        add(int(t), float(a), SPECS[int(t)], int(lock), float(m))
        for t, a, lock, m in zip(types, arrival, lock_id, multiplier)
    ]


def _add_bulk(table, types, arrival, lock_id, multiplier) -> list[int]:
    values = spec_values(SPECS)[:, types]
    values[WORK_ROWS] *= multiplier
    values[ARRIVAL_ROW] = arrival
    return table.add_many(types, lock_id, values).tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batches=st.lists(st.integers(0, 90), min_size=1, max_size=8),
    release_share=st.floats(0.0, 1.0),
)
def test_bulk_insert_and_release_equal_row_by_row(seed, batches, release_share):
    # Interleaved bulk inserts and releases on a 16-row table: batches
    # overrun the free list mid-batch, forcing growth, and the recycled
    # rows must come back in exactly the one-row pop order.  ``add`` (the
    # one-row case of ``add_many``) must match the reference too.
    rng = np.random.default_rng(seed)
    reference = RequestTable(capacity=16)
    one_row = RequestTable(capacity=16)
    bulk = RequestTable(capacity=16)
    for n in batches:
        batch = _batch(rng, n)
        rows = _add_one_by_one(reference, *batch)
        assert _add_bulk(bulk, *batch) == rows
        assert _add_one_by_one(one_row, *batch, add=one_row.add) == rows
        _assert_tables_equal(reference, bulk)
        _assert_tables_equal(reference, one_row)
        live = reference.active_rows()
        chosen = live[rng.random(live.size) < release_share]
        rng.shuffle(chosen)
        _reference_release(reference, chosen)
        bulk.release(chosen)
        for row in chosen:
            one_row.release(np.asarray([row]))
        _assert_tables_equal(reference, bulk)
        _assert_tables_equal(reference, one_row)


def test_bulk_insert_growth_mid_batch_pops_free_rows_first():
    table = RequestTable(capacity=16)
    first = _add_bulk(table, *_batch(np.random.default_rng(0), 16))
    assert first == list(range(16))
    table.release(np.asarray([3, 9, 5]))
    rows = _add_bulk(table, *_batch(np.random.default_rng(1), 6))
    # The three freed rows (last released first), then the new rows
    # from the grown block in ascending order.
    assert rows == [5, 9, 3, 16, 17, 18]
    assert table.capacity == 32


def test_release_skips_inactive_and_repeated_rows():
    reference = RequestTable(capacity=16)
    bulk = RequestTable(capacity=16)
    batch = _batch(np.random.default_rng(2), 10)
    _add_one_by_one(reference, *batch)
    _add_bulk(bulk, *batch)
    rows = np.asarray([4, 2, 4, 12, 7, 2])
    _reference_release(reference, rows)
    bulk.release(rows)
    _assert_tables_equal(reference, bulk)


def test_empty_bulk_insert_is_a_noop():
    table = RequestTable(capacity=16)
    rows = _add_bulk(table, *_batch(np.random.default_rng(3), 0))
    assert rows == [] and len(table) == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("size", [1, 7, 64, 600])
def test_mix_cdf_draw_equals_generator_choice(workload, size):
    specs = WORKLOADS[workload]().specs
    weights = np.asarray([s.weight for s in specs], dtype=float)
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in range(50):
        reference = np.random.default_rng(seed)
        fast = np.random.default_rng(seed)
        expected = reference.choice(len(specs), size=size, p=p)
        drawn = cdf.searchsorted(fast.random(size), side="right")
        np.testing.assert_array_equal(drawn, expected)
        assert fast.bit_generator.state == reference.bit_generator.state


class _ReferenceLocks:
    """Per-row lock service: the reference the array ``serve_tick`` must equal."""

    def __init__(self, n_locks: int) -> None:
        self.queues = [[] for _ in range(n_locks)]
        self.carry = [0.0] * n_locks
        self.backlogged = [False] * n_locks

    def serve_tick(self, tick_ms, hold_ms_for):
        granted = []
        for lock_id, queue in enumerate(self.queues):
            if not queue:
                self.carry[lock_id] = 0.0
                self.backlogged[lock_id] = False
                continue
            was_backlogged = self.backlogged[lock_id]
            budget = self.carry[lock_id] + tick_ms
            served = []
            offset = 0.0
            total_hold = 0.0
            while queue:
                hold = max(hold_ms_for(queue[0]), 1e-6)
                if budget < hold:
                    break
                served.append((queue.pop(0), offset))
                offset += hold
                total_hold += hold
                budget -= hold
            still_backlogged = bool(queue)
            self.backlogged[lock_id] = still_backlogged
            self.carry[lock_id] = min(budget, tick_ms)
            if was_backlogged or still_backlogged:
                granted.extend(served)
            elif served:
                rho = min(total_hold / tick_ms, 0.98)
                mean_hold = total_hold / len(served)
                delay = rho * mean_hold / (2.0 * (1.0 - rho))
                granted.extend((row, delay) for row, _ in served)
        return granted


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_locks=st.integers(0, 4),
    load=st.floats(0.0, 60.0),
)
def test_lock_grants_equal_per_row_service(seed, n_locks, load):
    # Per-row hold times spanning sub-tick to multi-tick critical
    # sections, so both regimes and the carried budget all occur.
    rng = np.random.default_rng(seed)
    hold_of = rng.choice([0.0, 3.0, 30.0, 90.0, 1500.0], size=4096) * rng.random(4096)
    manager = HotLockManager(n_locks)
    reference = _ReferenceLocks(n_locks)
    next_row = 0
    for _ in range(12):
        n = int(rng.poisson(load)) if n_locks else 0
        lock_ids = rng.integers(0, max(n_locks, 1), size=n)
        rows = np.arange(next_row, next_row + n)
        next_row += n
        manager.enqueue_many(lock_ids, rows)
        for lock_id, row in zip(lock_ids.tolist(), rows.tolist()):
            reference.queues[lock_id].append(row)
        grants = manager.serve_tick(1000.0, lambda queued: hold_of[queued])
        expected = reference.serve_tick(1000.0, lambda row: float(hold_of[row]))
        assert list(grants) == expected
        assert grants.rows.tolist() == [row for row, _ in expected]
        assert manager.total_waiting() == sum(len(q) for q in reference.queues)
        assert manager._carry_ms == reference.carry
