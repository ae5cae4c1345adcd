"""Chaos-mode experiment runner: the closed loop under injected faults.

:func:`run_chaos` drives the full production-shaped control loop —

    :class:`~repro.faults.chaos.FaultyServer` (unreliable telemetry +
    actuation) → :class:`~repro.core.telemetry_guard.TelemetryGuard`
    (admission) → :class:`~repro.core.autoscaler.AutoScaler` (decisions)
    → :class:`~repro.core.resize_executor.ResizeExecutor` (retries,
    refunds, circuit breaker) → back into the server

— for one tenant over one trace, under a seeded
:class:`~repro.faults.schedule.FaultSchedule`.  The flow mirrors
:func:`~repro.harness.experiment.run_policy` step for step (same seeds,
same warm-up, same billing), so a run with an **empty** schedule produces
a byte-identical decision trace to the plain harness — the chaos suite's
ground truth.

Invariants the chaos suite asserts over :class:`ChaosResult`:

* no exception escapes the loop, whatever the schedule;
* the budget is never overdrawn, and failed-resize refunds are credited;
* after the last fault the decision trace reconverges to the fault-free
  twin's within a bounded number of intervals
  (:func:`reconvergence_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace
from collections.abc import Sequence

from repro.core.autoscaler import AutoScaler, ScalingDecision
from repro.core.budget import BudgetManager
from repro.core.damper import OscillationDamper
from repro.core.latency import LatencyGoal
from repro.core.resize_executor import ActuationReport, ResizeExecutor
from repro.core.telemetry_guard import TelemetryGuard
from repro.engine.billing import BillingMeter
from repro.engine.server import DatabaseServer
from repro.engine.telemetry import IntervalCounters
from repro.faults.chaos import FaultyServer
from repro.faults.schedule import FaultSchedule
from repro.harness.experiment import ExperimentConfig
from repro.obs.events import EventKind
from repro.obs.tracer import Tracer
from repro.workloads.base import Workload
from repro.workloads.loadgen import LoadGenerator
from repro.workloads.traces import Trace

__all__ = ["ChaosResult", "run_chaos", "reconvergence_interval"]


@dataclass(frozen=True)
class ChaosResult:
    """Everything observed during one chaos run.

    Attributes:
        schedule: the (measurement-relative) fault schedule that ran.
        decisions: every scaling decision, including per-delivery no-ops
            for duplicates and late redeliveries.
        interval_decisions: exactly one decision per measured interval —
            the one the executor actuated.
        reports: the executor's actuation report per measured interval.
        containers: container actually in force at the start of each
            measured interval (ground truth, read from the server).
        counters: every telemetry delivery the controller received.
        meter: per-interval billing at the container actually in force.
        server: the fault-injecting wrapper (injection tallies).
        scaler / executor: the live control-plane objects, for inspecting
            budget, guard statistics, circuit state, and safe mode.
    """

    schedule: FaultSchedule
    decisions: list[ScalingDecision]
    interval_decisions: list[ScalingDecision]
    reports: list[ActuationReport]
    containers: list[str]
    counters: list[IntervalCounters]
    meter: BillingMeter
    server: FaultyServer
    scaler: AutoScaler
    executor: ResizeExecutor

    @property
    def guard(self) -> TelemetryGuard | None:
        return self.scaler.guard

    @property
    def budget(self) -> BudgetManager:
        return self.scaler.budget

    def decision_trace(self) -> list[str]:
        """Chosen container per measured interval (for trace comparison)."""
        return [d.container.name for d in self.interval_decisions]


def run_chaos(
    workload: Workload,
    trace: Trace,
    schedule: FaultSchedule,
    config: ExperimentConfig | None = None,
    goal: LatencyGoal | None = None,
    budget: BudgetManager | None = None,
    guard: TelemetryGuard | None = None,
    damper: OscillationDamper | None = None,
    scaler_kwargs: dict | None = None,
    executor_kwargs: dict | None = None,
    tracer: Tracer | None = None,
) -> ChaosResult:
    """Run Auto against ``trace`` with ``schedule``'s faults injected.

    Args:
        workload / trace / config: as for
            :func:`~repro.harness.experiment.run_policy`.
        schedule: measurement-relative fault schedule (interval 0 = first
            measured interval; warm-up is always fault-free).
        goal: tenant latency goal.
        budget: tenant budget; when given, its period must cover the
            warm-up intervals too (they are billed).  Unconstrained when
            omitted.
        guard / damper: degraded-mode components; a default
            :class:`TelemetryGuard` and :class:`OscillationDamper` are
            attached when omitted.
        scaler_kwargs / executor_kwargs: extra keyword arguments for
            :class:`AutoScaler` / :class:`ResizeExecutor`.
        tracer: optional run tracer, threaded through the scaler, guard,
            estimator, budget, and executor; the harness adds one BILLING
            event per measured interval.
    """
    config = config or ExperimentConfig()
    engine = dc_replace(config.engine, seed=config.seed)
    scaler = AutoScaler(
        catalog=config.catalog,
        goal=goal,
        budget=budget,
        thresholds=config.thresholds,
        guard=guard or TelemetryGuard(),
        damper=damper or OscillationDamper(),
        **(scaler_kwargs or {}),
    )
    base = DatabaseServer(
        specs=workload.specs,
        dataset=workload.dataset,
        container=scaler.container,
        config=engine,
        n_hot_locks=workload.n_hot_locks,
    )
    server = FaultyServer(
        base,
        schedule.shifted(config.warmup_intervals),
        config.catalog,
        seed=config.seed + 2,
    )
    if tracer is not None:
        scaler.attach_tracer(tracer)
    executor = ResizeExecutor(
        scaler, server, seed=config.seed + 3, tracer=tracer,
        **(executor_kwargs or {})
    )
    loadgen = LoadGenerator(
        trace,
        interval_ticks=engine.interval_ticks,
        seed=config.seed + 1,
    )

    # Warm-up, identical to run_policy's (the schedule is shifted past it,
    # so warm-up is always fault-free and deliveries arrive one per
    # interval).
    warmup_rate = max(float(trace.rates[0]), trace.mean)
    for _ in range(config.warmup_intervals):
        deliveries = server.run_interval(warmup_rate)
        decision, _ = scaler.decide_interval(deliveries)
        executor.execute(decision)

    meter = BillingMeter()
    decisions: list[ScalingDecision] = []
    interval_decisions: list[ScalingDecision] = []
    reports: list[ActuationReport] = []
    containers: list[str] = []
    all_counters: list[IntervalCounters] = []
    for interval_index in range(trace.n_intervals):
        rates = loadgen.interval_rates(interval_index)
        in_force = server.container
        containers.append(in_force.name)
        deliveries = server.run_interval_with_rates(rates)
        meter.charge(interval_index, in_force)
        if tracer is not None and tracer.enabled:
            tracer.emit(
                "harness", EventKind.BILLING,
                interval=config.warmup_intervals + interval_index,
                billed_interval=interval_index,
                container=in_force.name,
                cost=in_force.cost,
            )
        all_counters.extend(deliveries)
        decision, per_delivery = scaler.decide_interval(deliveries)
        decisions.extend(per_delivery)
        interval_decisions.append(decision)
        reports.append(executor.execute(decision))

    return ChaosResult(
        schedule=schedule,
        decisions=decisions,
        interval_decisions=interval_decisions,
        reports=reports,
        containers=containers,
        counters=all_counters,
        meter=meter,
        server=server,
        scaler=scaler,
        executor=executor,
    )


def reconvergence_interval(
    faulted: Sequence[str],
    clean: Sequence[str],
    last_fault_interval: int,
) -> int | None:
    """Intervals after the last fault until the traces agree for good.

    Returns the smallest ``k >= 1`` such that from measured interval
    ``last_fault_interval + k`` onward the faulted run's per-interval trace
    equals the clean twin's, or ``None`` if they never reconverge within
    the run.  Pass container-name traces
    (:attr:`ChaosResult.containers` or ``decision_trace()``) from a
    faulted run and an empty-schedule twin.
    """
    n = min(len(faulted), len(clean))
    start = max(last_fault_interval + 1, 0)
    for j in range(start, n):
        if all(faulted[k] == clean[k] for k in range(j, n)):
            return j - last_fault_interval
    return None
