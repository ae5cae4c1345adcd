"""``fleet_decide``: the vectorized controller over a synthetic fleet.

``ClosedLoopFleetSynthesizer`` feeds ``VectorizedAutoScaler.decide_batch``
for 20k tenants with bounded budgets, float64 rings.  No engine runs, so
the interval is controller-bound: signals dominate decide and synthesis
is about 1 % of the interval.

Oracle: a seeded contiguous sample of tenants is re-run untimed as a
shard of the same fleet (the synthesizer draws at full fleet width and
slices, so a shard sees exactly the rows the full fleet sees) with the
columnar recorder attached and aux columns staged.  Every sampled tenant
is replayed through the scalar ``explain()`` — which parity-checks each
interval against the recorded vectorized decision — and the timed run's
per-interval levels and spend for those rows must equal the shard's.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.budget import BudgetManager, BurstStrategy
from repro.core.latency import LatencyGoal
from repro.core.thresholds import default_thresholds
from repro.engine.containers import default_catalog
from repro.fleet import vectorized
from repro.fleet.vectorized import (
    ClosedLoopFleetSynthesizer,
    VectorizedAutoScaler,
    VectorizedTelemetry,
)
from repro.obs.fleet import FleetParityError, FleetTraceRecorder, explain

import common
from spans import Spans

N_TENANTS = 20_000
#: Ring-fill intervals (one signal window), counted as set-up.
FILL = default_thresholds().signal_window
#: Measured intervals per episode.
MEASURED = 20
SAMPLE = 64
GOAL_MS = 100.0
#: Per-tenant budget tiers, as a share of the way from the cheapest to
#: the dearest container per interval; the low tiers bind.
BUDGET_TIERS = (0.15, 0.3, 0.5, 0.8)
#: The synthesizer's non-scalable wait remainder (its ``wait_pct``
#: denominator adds 3000 ms); the scalar counters carry it as lock wait.
LOCK_MS = 3000.0


def _budgets(catalog, seed: int, n_intervals: int) -> list[BudgetManager]:
    low, high = catalog.smallest.cost, catalog.max_cost
    tiers = [
        BudgetManager(
            budget=(low + share * (high - low)) * n_intervals,
            n_intervals=n_intervals,
            min_cost=low,
            max_cost=high,
            strategy=BurstStrategy.CONSERVATIVE,
        )
        for share in BUDGET_TIERS
    ]
    pick = np.random.default_rng([seed, 0xB0D6E7]).integers(
        0, len(tiers), N_TENANTS
    )
    return [tiers[k] for k in pick]


def _sample_lo(seed: int) -> int:
    return int(np.random.default_rng([seed, 0x5A3]).integers(0, N_TENANTS - SAMPLE))


def _episode(seed: int, spans: Spans | None) -> common.Episode:
    catalog = default_catalog()
    costs = np.array([catalog.at_level(i).cost for i in range(catalog.num_levels)])
    n_intervals = FILL + MEASURED
    lo = _sample_lo(seed)
    rows = slice(lo, lo + SAMPLE)

    began = time.perf_counter()
    synth = ClosedLoopFleetSynthesizer(N_TENANTS, catalog, seed)
    budgets = _budgets(catalog, seed, n_intervals)
    scaler = VectorizedAutoScaler(
        catalog,
        N_TENANTS,
        goal=LatencyGoal(GOAL_MS),
        budget=budgets,
        record_actions=False,
    )
    sample_levels = []
    for i in range(FILL):
        fields = synth.interval(i, scaler.level, scaler.balloon_limit_gb)
        scaler.decide_batch(float(i), **fields)
        sample_levels.append(scaler.level[rows].copy())
    setup_s = time.perf_counter() - began

    counts0 = dict(scaler.action_counts)
    intervals_s = []
    cost_sum = 0.0
    latencies = []
    if spans is not None:
        spans.enabled = True
    for i in range(FILL, n_intervals):
        in_force = scaler.level
        start = time.perf_counter()
        fields = synth.interval(i, in_force, scaler.balloon_limit_gb)
        scaler.decide_batch(float(i), **fields)
        intervals_s.append(time.perf_counter() - start)
        cost_sum += float(costs[in_force].sum())
        latencies.append(fields["latency_ms"])
        sample_levels.append(scaler.level[rows].copy())
    if spans is not None:
        spans.enabled = False
        counts = scaler.action_counts
        spans.count("decide.resizes", counts["resizes"] - counts0["resizes"])
        spans.count(
            "decide.balloon_transitions",
            sum(
                counts[k] - counts0[k]
                for k in ("probe_started", "balloon_aborted", "balloon_confirmed")
            ),
        )

    tokens_ok = scaler.budget_available >= -1e-9
    spend_ok = scaler._spent <= np.array([m.budget for m in budgets]) + 1e-6
    counts = scaler.action_counts
    digest = (
        tuple(int(v) for v in np.bincount(scaler.level, minlength=len(costs))),
        int(counts["resizes"]),
        int(counts["budget_forced"]),
        int(counts["probe_started"] + counts["balloon_aborted"] + counts["balloon_confirmed"]),
        float(scaler._spent.sum()),
    )
    return common.Episode(
        setup_s=setup_s,
        intervals_s=intervals_s,
        tenants=N_TENANTS,
        failed_tenants=int(np.count_nonzero(~(tokens_ok & spend_ok))),
        sim_cost=cost_sum / (N_TENANTS * MEASURED),
        sim_latency_p95_ms=common.latency_p95(np.concatenate(latencies)),
        digest=digest,
        outputs={
            "lo": lo,
            "levels": np.stack(sample_levels),
            "spent": scaler._spent[rows].copy(),
        },
    )


def _shard_store(seed: int, lo: int):
    """Untimed recorder pass over the sampled rows, aux columns staged."""
    catalog = default_catalog()
    n_intervals = FILL + MEASURED
    synth = ClosedLoopFleetSynthesizer(
        N_TENANTS, catalog, seed, lo=lo, hi=lo + SAMPLE
    )
    scaler = VectorizedAutoScaler(
        catalog,
        SAMPLE,
        goal=LatencyGoal(GOAL_MS),
        budget=_budgets(catalog, seed, n_intervals)[lo : lo + SAMPLE],
        record_actions=True,
    )
    recorder = FleetTraceRecorder()
    scaler.attach_recorder(recorder)
    for i in range(n_intervals):
        fields = synth.interval(i, scaler.level, scaler.balloon_limit_gb)
        latency = fields["latency_ms"]
        recorder.stage_aux(
            {
                "util_frac": fields["util_pct"] / 100.0,
                "lock_ms": np.full(SAMPLE, LOCK_MS),
                "system_ms": np.zeros(SAMPLE),
                "completions": np.isfinite(latency).astype(np.int64),
                "start_s": np.full(SAMPLE, i * 60.0),
                "end_s": np.full(SAMPLE, (i + 1) * 60.0),
            }
        )
        scaler.decide_batch(float(i), **fields)
    return recorder.finish()


def _explain_problems(store) -> list[str]:
    last = store.n_intervals - 1
    problems = []
    for tenant in range(store.n_tenants):
        try:
            explain(store, tenant, last)
        except FleetParityError as exc:
            problems.append(f"scalar replay of sampled tenant {tenant}: {exc}")
    return problems


def _rows_problems(outputs: dict, store) -> list[str]:
    problems = []
    recorded = store.arrays["level_after"]
    if not np.array_equal(outputs["levels"], recorded):
        bad = np.argwhere(outputs["levels"] != recorded)
        problems.append(
            f"timed run levels differ from the verified shard at "
            f"(interval, tenant) {bad[:3].tolist()}"
        )
    if not np.array_equal(outputs["spent"], store.arrays["spent"][-1]):
        problems.append("timed run spend differs from the verified shard")
    return problems


def verify(seed: int, episode: common.Episode) -> list[str]:
    """The exact oracle, plus a self-test that it rejects a flipped level."""
    outputs = episode.outputs
    store = _shard_store(seed, outputs["lo"])
    problems = _explain_problems(store) + _rows_problems(outputs, store)

    flipped = dict(outputs, levels=outputs["levels"].copy())
    flipped["levels"][-1, 0] ^= 1
    if not _rows_problems(flipped, store):
        problems.append("self-test: a flipped level passed the row check")
    store.arrays["level_after"][MEASURED // 2, 0] ^= 1
    try:
        explain(store, 0, store.n_intervals - 1)
        problems.append("self-test: a flipped recorded level passed explain()")
    except FleetParityError:
        pass
    return problems


def prepare(seed: int):
    return (lambda spans: _episode(seed, spans)), None


def install(spans: Spans) -> None:
    spans.wrap(ClosedLoopFleetSynthesizer, "interval", "synth")
    spans.wrap(VectorizedAutoScaler, "decide_batch", "decide")
    spans.wrap(VectorizedTelemetry, "signals", "signals")
    spans.wrap(vectorized, "estimate_fleet", "estimate")
    spans.wrap(vectorized, "batched_detect_trend", "stats.trend")
    spans.wrap(vectorized, "batched_spearman", "stats.spearman")
    spans.wrap(vectorized, "batched_tail_median", "stats.tail_median")


TOP_LAYERS = ("synth", "decide")
