"""A stranded or lagging tenant is never charged past its budget.

Regression for budget-capped tenants whose telemetry arrives late.  A
late delivery surfaces at an interval boundary ahead of that interval's
own delivery, so the interval that just ended can still be unsettled
when the next container is chosen: at a boundary where only the late
delivery arrives, and at every boundary of a run of late intervals.
Choices used to be checked against the balance before that interval's
charge, so two charges later landed at once and
``BudgetManager.end_interval`` raised ``BudgetError`` out of
``AutoScaler.decide`` — whether the tenant was stranded on a costly
container by an open circuit (seed 913005) or merely running one when
late deliveries came in a row (seeds 1000 and 4003).  Every choice is
now checked against the balance left once the unsettled intervals are
charged, and every token credited back must be a refund an actuation
scheduled.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.autoscaler import AutoScaler
from repro.core.explanations import ActionKind
from repro.core.budget import BudgetManager
from repro.engine.containers import default_catalog
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.fleet.chaos import chaos_sweep
from repro.fleet.degraded import DegradedVectorizedAutoScaler
from repro.obs.tracer import Tracer
from repro.service import decode_state, encode_state
from repro.workloads import cpuio_workload

REPRODUCER = dict(
    n_tenants=1,
    base_seed=913005,
    n_intervals=64,
    n_faults=10,
    interval_ticks=15,
    warmup_intervals=6,
    goal_ms=150.0,
    budget_factor=0.35,
)


@pytest.mark.parametrize("base_seed", [913005, 1000, 4003])
def test_late_telemetry_never_charges_past_the_budget(base_seed):
    tracer = Tracer()
    result = chaos_sweep(
        workload=cpuio_workload(),
        engine="scalar",
        tracer_for=lambda tenant: tracer,
        **dict(REPRODUCER, base_seed=base_seed),
    )
    (outcome,) = result.outcomes
    assert outcome.error is None
    assert not outcome.budget_overdrawn
    assert outcome.spent <= outcome.budget_total
    events = tracer.events()
    # Refunds are exactly the actuation refunds, credited in order: the
    # platform absorbs nothing else.
    scheduled = [
        e.fields["refund_scheduled"]
        for e in events
        if e.kind.value == "resize-result" and e.fields["refund_scheduled"] > 0
    ]
    credited = [e.fields["amount"] for e in events if e.kind.value == "budget-refund"]
    assert credited == scheduled[: len(credited)]
    # Every charge fit the balance it was taken from.
    for e in events:
        if e.kind.value == "budget-spend":
            assert e.fields["cost"] <= e.fields["tokens_before"] + 1e-9
    # A late delivery's decision was forced down to what the balance left
    # after the unsettled interval can pay for.
    forced_late = [
        e
        for e in events
        if e.kind.value == "decision"
        and e.fields["actions"] == ["telemetry-late", "budget-constrained"]
    ]
    assert forced_late
    if base_seed == 913005:
        assert outcome.entered_safe_mode
        assert outcome.refunded > 0


def _key(outcome):
    fields = dataclasses.asdict(outcome)
    fields["schedule"] = outcome.schedule.events
    return fields


@pytest.mark.parametrize("base_seed", [913005, 1000, 4003])
def test_vectorized_degraded_path_matches_the_scalar_fix(base_seed):
    # 913005: stranded by an open circuit.  1000 and 4003: consecutive
    # late deliveries leave an interval unsettled while the next
    # container is chosen, and two intervals are then charged at once.
    sweep = dict(REPRODUCER, base_seed=base_seed)
    scalar = chaos_sweep(workload=cpuio_workload(), engine="scalar", **sweep)
    fleet = chaos_sweep(workload=cpuio_workload(), engine="vectorized", **sweep)
    assert [_key(o) for o in fleet.outcomes] == [_key(o) for o in scalar.outcomes]
    (outcome,) = scalar.outcomes
    assert outcome.error is None
    assert not outcome.budget_overdrawn


def test_three_late_deliveries_in_a_row(monkeypatch):
    # Seed 1000 with late deliveries at intervals 24-26: the decisions at
    # the second and third boundaries process a delivery one interval
    # old, so the interval that just ended is still unsettled when they
    # choose the next container.
    random = FaultSchedule.random.__func__

    def with_late_run(cls, **kwargs):
        schedule = random(cls, **kwargs)
        late = [
            FaultEvent(kind=FaultKind.TELEMETRY_LATE, interval=interval)
            for interval in (24, 25, 26)
        ]
        return cls(list(schedule.events) + late)

    monkeypatch.setattr(FaultSchedule, "random", classmethod(with_late_run))
    sweep = dict(REPRODUCER, base_seed=1000)
    scalar = chaos_sweep(workload=cpuio_workload(), engine="scalar", **sweep)
    fleet = chaos_sweep(workload=cpuio_workload(), engine="vectorized", **sweep)
    assert [_key(o) for o in fleet.outcomes] == [_key(o) for o in scalar.outcomes]
    (outcome,) = scalar.outcomes
    assert outcome.error is None
    assert not outcome.budget_overdrawn


def _budgets(catalog, n):
    return [
        BudgetManager(
            budget=40 * catalog.max_cost,
            n_intervals=40,
            min_cost=catalog.smallest.cost,
            max_cost=catalog.max_cost,
        )
        for _ in range(n)
    ]


def test_late_decision_fits_the_balance_after_the_unsettled_interval():
    catalog = default_catalog()
    budget = BudgetManager(
        budget=40 * catalog.smallest.cost + catalog.max_cost,
        n_intervals=40,
        min_cost=catalog.smallest.cost,
        max_cost=catalog.max_cost,
    )
    top = catalog.largest
    scaler = AutoScaler(catalog, initial_container=top, budget=budget)
    assert budget.affordable(top.cost)
    # Nothing unsettled: a duplicate's decision holds the container.
    duplicate = scaler._passive_decision(ActionKind.TELEMETRY_DISCARDED, ("dup",))
    assert duplicate.container == top and not duplicate.resized

    # The interval that just ran on ``top`` has not been settled yet.
    scaler._unsettled = 1
    left = budget.balance_after([], [top.cost])
    assert top.cost > left
    decision = scaler._passive_decision(ActionKind.TELEMETRY_LATE, ("late",))
    assert decision.resized
    assert decision.explanations[-1].action is ActionKind.BUDGET_CONSTRAINED
    affordable = [c for c in catalog if c.cost <= left]
    assert decision.container == max(affordable, key=lambda c: (c.cost, c.level))
    # The belief is still the container running; the ledger did not move.
    assert scaler.container == top
    assert budget.available == budget.depth

    restored = AutoScaler(
        catalog, budget=BudgetManager.from_state_dict(budget.state_dict())
    )
    restored.load_state_dict(scaler.state_dict())
    assert restored._unsettled == 1
    for ledger in (scaler, restored):
        ledger._settle_budget(top.cost)
        assert ledger._unsettled == 0


def test_balance_after_matches_the_settlements():
    catalog = default_catalog()
    (budget,) = _budgets(catalog, 1)
    budget.end_interval(catalog.max_cost)
    for refunds, costs in (
        ([], []),
        ([3.5], [catalog.max_cost]),
        ([1e6, 2.0], [40.0, 90.0]),
    ):
        projected = budget.balance_after(refunds, costs)
        (twin,) = _budgets(catalog, 1)
        twin.load_state_dict(budget.state_dict())
        for amount in refunds:
            twin.refund(amount)
        for cost in costs:
            twin.end_interval(cost)
        assert twin.available == projected


def test_vectorized_refunds_match_the_scalar_and_survive_a_checkpoint():
    # Two actuations' refunds pending at one settlement: late telemetry
    # left an interval unsettled when the next actuation scheduled its
    # refund.  Both are credited in order, with the scalar's arithmetic.
    catalog = default_catalog()
    cost = [catalog.at_level(level).cost for level in range(3)]
    (budget,) = _budgets(catalog, 1)
    scalar = AutoScaler(catalog, budget=budget)
    scalar._settle_budget(catalog.max_cost)
    scalar.schedule_refund(cost[1] - cost[0])
    scalar.schedule_refund(cost[2] - cost[1])
    scalar._settle_budget(catalog.smallest.cost)

    fleet = DegradedVectorizedAutoScaler(catalog, 2, budget=_budgets(catalog, 2))
    both = np.ones(2, dtype=bool)
    fleet._settle_rows(both, np.full(2, catalog.max_cost))
    fleet._schedule_refund_row(0, 0, 1)
    fleet._schedule_refund_row(0, 1, 2)
    restored = DegradedVectorizedAutoScaler(catalog, 2, budget=_budgets(catalog, 2))
    restored.load_state_dict(
        decode_state(json.loads(json.dumps(encode_state(fleet.state_dict()))))
    )
    for ledger in (fleet, restored):
        ledger._settle_rows(both, np.full(2, catalog.smallest.cost))
        assert ledger._refunded.tolist() == [budget.refunded, 0.0]
        assert ledger._tokens[0] == budget.available
        assert ledger._spent[0] == budget.spent
        assert ledger._pending_refund.tolist() == [0.0, 0.0]
        assert ledger._refund_backlog == {}
