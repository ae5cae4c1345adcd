"""``fleet_chaos``: real engine tenants through the vectorized degraded path.

Three sub-fleets of real ``DatabaseServer`` tenants — cpuio, tpcc and
ds2 — each run through ``chaos_sweep``'s vectorized degraded path with a
seeded random fault schedule per tenant.  The interval is engine-bound;
the run also drives the telemetry guard, retries, the circuit breaker
and refunds.  ``chaos_sweep`` takes one workload, so the sub-fleets run
one after another; tenants never interact, so fleet interval ``i`` is
timed as the sum of the sub-fleets' interval ``i`` — what one lock-step
caller over the mixed fleet would spend.

Oracle: for seeded sampled tenants of each sub-fleet, the outcome must
equal the scalar ``chaos_sweep(engine="scalar")`` run of that tenant.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.engine.server import DatabaseServer
from repro.fleet import degraded, vectorized
from repro.fleet.chaos import chaos_sweep
from repro.fleet.degraded import DegradedVectorizedAutoScaler, MaskedFaultDataPlane
from repro.fleet.vectorized import MaskedVectorizedTelemetry
from repro.workloads import cpuio_workload, ds2_workload, tpcc_workload

import common
from spans import Spans

SUB_FLEETS = (("cpuio", cpuio_workload), ("tpcc", tpcc_workload), ("ds2", ds2_workload))
TENANTS = 8  # per sub-fleet
SWEEP = {
    "n_intervals": 64,
    "n_faults": 10,
    "interval_ticks": 15,
    "warmup_intervals": 6,
    "goal_ms": 150.0,
    "budget_factor": 0.35,
}
SAMPLE = 3  # tenants per sub-fleet replayed on the scalar path


def _base_seed(seed: int, sub: int) -> int:
    return seed * 1000 + 100 * sub


def _outcome_key(outcome) -> tuple:
    """An outcome as comparable values (the schedule by its events)."""
    fields = dataclasses.asdict(outcome)
    fields["schedule"] = repr(outcome.schedule)
    fields.pop("tenant_id")
    return tuple(sorted(fields.items()))


def _episode(seed: int, boundaries: common.Boundaries) -> common.Episode:
    setup_s = 0.0
    fleet_intervals = np.zeros(SWEEP["n_intervals"])
    outcomes = []
    boundaries.served = []
    for sub, (_, factory) in enumerate(SUB_FLEETS):
        workload = factory()
        boundaries.start()
        began = time.perf_counter()
        result = chaos_sweep(
            n_tenants=TENANTS,
            base_seed=_base_seed(seed, sub),
            workload=workload,
            **SWEEP,
        )
        ends = np.array(boundaries.ends)
        warm = SWEEP["warmup_intervals"]
        setup_s += ends[warm - 1] - began
        fleet_intervals += np.diff(ends[warm - 1 :])
        outcomes.append(result.outcomes)
        plane = boundaries.last_args[1]
        if boundaries.spans is not None:
            spans = boundaries.spans
            spans.count("subfleet_intervals", SWEEP["n_intervals"])
            spans.count(
                "faults.injected",
                sum(
                    int(getattr(plane, name).sum())
                    for name in (
                        "dropped", "delayed", "duplicated", "corrupted", "skewed",
                        "failed_resizes", "partial_resizes", "failed_balloons",
                    )
                ),
            )
            for o in result.outcomes:
                spans.count("executor.resize_failures", o.resize_failures)
                spans.count("executor.circuit_opens", o.circuit_opens)
                spans.count("guard.quarantined", o.quarantined)
                spans.count("guard.missed", o.missed)
                spans.count("guard.discarded", o.discarded)

    sim_cost, sim_latency = common.served_sim(boundaries.served)
    return common.Episode(
        setup_s=setup_s,
        intervals_s=list(fleet_intervals),
        tenants=TENANTS * len(SUB_FLEETS),
        failed_tenants=sum(not o.healthy for sub in outcomes for o in sub),
        sim_cost=sim_cost,
        sim_latency_p95_ms=sim_latency,
        digest=tuple(_outcome_key(o) for sub in outcomes for o in sub),
        outputs=outcomes,
    )


def _sampled(seed: int, sub: int) -> list[int]:
    rng = np.random.default_rng([seed, sub, 0xC4A05])
    return sorted(int(t) for t in rng.choice(TENANTS, SAMPLE, replace=False))


def _mismatches(vectorized_outcomes, scalar_outcomes) -> list[str]:
    return [
        f"tenant seed {v.seed}: vectorized outcome {v} != scalar {s}"
        for v, s in zip(vectorized_outcomes, scalar_outcomes)
        if _outcome_key(v) != _outcome_key(s)
    ]


def verify(seed: int, episode: common.Episode) -> list[str]:
    """Sampled outcomes against scalar chaos runs, plus a self-test."""
    problems = []
    for sub, (_, factory) in enumerate(SUB_FLEETS):
        picked = _sampled(seed, sub)
        ours = [episode.outputs[sub][t] for t in picked]
        scalar = [
            chaos_sweep(
                n_tenants=1,
                base_seed=_base_seed(seed, sub) + t,
                workload=factory(),
                engine="scalar",
                **SWEEP,
            ).outcomes[0]
            for t in picked
        ]
        problems += _mismatches(ours, scalar)
        perturbed = [dataclasses.replace(ours[0], spent=ours[0].spent + 1.0)]
        if not _mismatches(perturbed, scalar[:1]):
            problems.append("self-test: a perturbed outcome passed the check")
    return problems


def prepare(seed: int):
    boundaries = common.Boundaries(SWEEP["warmup_intervals"], SWEEP["n_intervals"])
    hooks = boundaries.hooks(DegradedVectorizedAutoScaler, "execute_interval")

    def episode(spans: Spans | None) -> common.Episode:
        boundaries.spans = spans
        return _episode(seed, boundaries)

    return episode, hooks


def _count_actuation(spans: Spans):
    def after(args, report) -> None:
        tried = report.attempts > 0
        spans.count("executor.requested", int(np.count_nonzero(tried)))
        spans.count(
            "executor.applied", int(np.count_nonzero(tried & report.succeeded))
        )

    return after


def install(spans: Spans) -> None:
    spans.wrap(
        DatabaseServer, "run_interval_with_rates", "engine",
        after=common.engine_counter(spans),
    )
    spans.wrap(MaskedFaultDataPlane, "run_interval_rows", "dataplane")
    spans.wrap(DegradedVectorizedAutoScaler, "decide_wave", "wave")
    spans.wrap(
        DegradedVectorizedAutoScaler, "execute_interval", "execute",
        after=_count_actuation(spans),
    )
    spans.wrap(MaskedVectorizedTelemetry, "signals_rows", "signals")
    spans.wrap(degraded, "estimate_fleet", "estimate")
    spans.wrap(vectorized, "batched_detect_trend", "stats.trend")
    spans.wrap(vectorized, "batched_spearman", "stats.spearman")
    spans.wrap(vectorized, "batched_tail_median", "stats.tail_median")


TOP_LAYERS = ("dataplane", "wave", "execute")
