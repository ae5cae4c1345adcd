"""The end-to-end auto-scaling logic (paper Section 6).

Each billing interval the :class:`AutoScaler` consumes the interval's
telemetry and produces a :class:`ScalingDecision`:

* **Scale up** when latency is BAD — or significantly degrading — *and*
  the demand estimator finds high demand for at least one resource, budget
  permitting.  Latency violations without resource demand (lock-bound
  code, for example) produce an explained *no-change*: adding resources
  cannot help, and this refusal is where most of Auto's cost advantage
  over utilization-driven scaling comes from.
* **Scale down** when latency goals are met with margin and nothing is
  trending up: either every resource shows low demand, or the latency
  headroom alone justifies trying a smaller size.  Scale-downs that would
  evict the tenant's cached working set are gated behind a ballooning
  probe (Section 4.3) unless ballooning is disabled.
* The token-bucket budget manager bounds every choice; when the desired
  container is unaffordable the most expensive affordable one is used and
  the decision is explained as budget-constrained.

The tenant-facing knobs (Section 2.3) — budget, latency goal, coarse
performance sensitivity — all enter here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ballooning import BalloonController, BalloonPhase, BalloonStatus
from repro.core.budget import BudgetManager, unconstrained_budget
from repro.core.damper import OscillationDamper
from repro.core.demand_estimator import DemandEstimate, DemandEstimator
from repro.core.explanations import ActionKind, Explanation
from repro.core.latency import LatencyGoal, PerformanceSensitivity
from repro.core.signals import LatencyStatus, WorkloadSignals
from repro.core.telemetry_guard import GuardAction, TelemetryGuard
from repro.core.telemetry_manager import TelemetryManager
from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.engine.bufferpool import engine_overhead_gb, usable_cache_gb
from repro.engine.containers import ContainerCatalog, ContainerSpec
from repro.engine.resources import ResourceKind, ResourceVector
from repro.engine.telemetry import IntervalCounters
from repro.errors import ConfigurationError
from repro.obs.events import EventKind
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.stats.rolling import RollingWindow

__all__ = ["ScalingDecision", "AutoScaler"]


@dataclass(frozen=True)
class ScalingDecision:
    """The auto-scaler's output for one billing interval.

    Attributes:
        container: the container to run for the next interval.
        balloon_limit_gb: memory balloon cap to apply (None = no cap).
        resized: whether ``container`` differs from the previous one.
        explanations: the explainable reasoning trail.
        demand: the demand estimate behind the decision (None during the
            initial warm-up interval).
        signals: the signal set behind the decision (None during warm-up).
        decision_id: correlation key (``d00042``) tying this decision's
            trace events — estimate, budget checks, resize attempts, any
            eventual refund — into one chain.  Empty when the scaler
            pre-dates the tracer (old pickles) or in unit tests that build
            decisions by hand.
    """

    container: ContainerSpec
    balloon_limit_gb: float | None
    resized: bool
    explanations: tuple[Explanation, ...] = ()
    demand: DemandEstimate | None = None
    signals: WorkloadSignals | None = None
    decision_id: str = ""

    def explanation_text(self) -> str:
        return "; ".join(str(e) for e in self.explanations)


class AutoScaler:
    """Closed-loop demand-driven container sizing ("Auto" in the paper).

    Args:
        catalog: the container sizes the DaaS offers.
        initial_container: starting size (defaults to the smallest).
        goal: optional tenant latency goal.
        budget: optional budget manager; unconstrained when omitted.
        thresholds: signal-categorization configuration.
        sensitivity: coarse performance-sensitivity knob, used when no
            explicit goal is given and to tune scale-down caution.
        use_waits / use_trends / use_correlation / use_ballooning:
            ablation switches; all on for the paper's design.
        guard: optional :class:`TelemetryGuard` admitting telemetry
            deliveries; when set, corrupt/duplicate/late intervals are
            quarantined or discarded instead of poisoning the signal
            windows.  ``None`` (the default) preserves the paper's
            trust-everything behaviour exactly.
        damper: optional :class:`OscillationDamper` enforcing a cool-down
            when container choices flap.  ``None`` disables damping.
    """

    def __init__(
        self,
        catalog: ContainerCatalog,
        initial_container: ContainerSpec | None = None,
        goal: LatencyGoal | None = None,
        budget: BudgetManager | None = None,
        thresholds: ThresholdConfig | None = None,
        sensitivity: PerformanceSensitivity = PerformanceSensitivity.MEDIUM,
        use_waits: bool = True,
        use_trends: bool = True,
        use_correlation: bool = True,
        use_ballooning: bool = True,
        guard: TelemetryGuard | None = None,
        damper: OscillationDamper | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.catalog = catalog
        self.goal = goal
        self.sensitivity = sensitivity
        self.thresholds = thresholds or default_thresholds()
        self.budget = budget or unconstrained_budget(catalog.max_cost)
        self.telemetry = TelemetryManager(self.thresholds, goal)
        self.estimator = DemandEstimator(
            thresholds=self.thresholds,
            use_waits=use_waits,
            use_trends=use_trends,
            use_correlation=use_correlation,
        )
        self.use_ballooning = use_ballooning
        self.balloon = BalloonController()
        self._container = initial_container or catalog.smallest
        self._balloon_limit: float | None = None
        self._low_demand_streak = 0
        self._disk_reads = RollingWindow(self.thresholds.signal_window)
        # Degraded-mode state (inert unless a guard / damper / executor is
        # attached): telemetry admission, flap damping, explicit safe mode
        # driven by the resize executor's circuit breaker, and refunds the
        # executor schedules for actuation failures.
        self.guard = guard
        self.damper = damper
        self._safe_mode = False
        self._safe_mode_reason = ""
        self._pending_refunds: list[tuple[float, str | None]] = []
        # Intervals that have ended but are not settled yet: each
        # decide_interval boundary opens one, each settlement closes one.
        # Late telemetry can leave one open while the next container is
        # chosen, and that choice is charged only after it.
        self._unsettled = 0
        # Observability: one tracer threaded through every sub-component,
        # and a monotonically minted decision id correlating each
        # decision's events (estimate → budget checks → resize → refund).
        self.tracer: Tracer = NULL_TRACER
        self._decision_seq = 0
        self._prev_decision_id: str | None = None
        if tracer is not None:
            self.attach_tracer(tracer)

    def attach_tracer(self, tracer: Tracer) -> None:
        """Thread one run's tracer through the whole control plane."""
        self.tracer = tracer
        self.telemetry.tracer = tracer
        self.estimator.tracer = tracer
        self.budget.bind_tracer(tracer)
        if self.guard is not None:
            self.guard.tracer = tracer

    @property
    def container(self) -> ContainerSpec:
        return self._container

    @property
    def in_safe_mode(self) -> bool:
        return self._safe_mode

    def _mint_decision(self) -> str:
        """New decision id; also becomes the tracer's ambient correlation."""
        decision_id = f"d{self._decision_seq:05d}"
        self._decision_seq += 1
        self.tracer.set_decision(decision_id)
        return decision_id

    # -- the closed loop -----------------------------------------------------

    def decide(self, counters: IntervalCounters) -> ScalingDecision:
        """Consume one interval's telemetry and choose the next container."""
        if self.guard is not None:
            verdict = self.guard.inspect(counters)
            if verdict.action is GuardAction.DISCARD:
                return self._passive_decision(
                    ActionKind.TELEMETRY_DISCARDED, verdict.reasons
                )
            if verdict.action is GuardAction.ADMIT_LATE:
                # The interval was already settled as a gap; the data is
                # still worth feeding to the signal windows.
                self.telemetry.observe(counters)
                self._disk_reads.append(counters.disk_physical_reads)
                return self._passive_decision(
                    ActionKind.TELEMETRY_LATE, verdict.reasons
                )
            if verdict.action is GuardAction.QUARANTINE:
                self.tracer.set_interval(counters.interval_index)
                return self._degraded_decision(
                    ActionKind.TELEMETRY_QUARANTINED,
                    "counters quarantined, holding last known-good signals: "
                    + "; ".join(verdict.reasons),
                )
            # ADMIT: settle any intervals that silently never arrived.
            for _ in range(verdict.missed_intervals):
                self._settle_budget(self._container.cost)

        self.tracer.set_interval(counters.interval_index)
        self.telemetry.observe(counters)
        self._disk_reads.append(counters.disk_physical_reads)
        # Charge the interval that just ran (the paper: "at the end of the
        # i-th billing interval ... C_i tokens are subtracted"); what
        # remains is B_{i+1}, the budget the next choice must fit.  The
        # charge is attributed to the decision that chose the billed
        # container — the *previous* one.
        self._settle_budget(counters.container.cost, self._prev_decision_id)
        if self._safe_mode:
            return self._safe_mode_decision()
        decision_id = self._mint_decision()
        signals = self.telemetry.signals()
        demand = self.estimator.estimate(signals)
        explanations: list[Explanation] = []

        balloon_confirmed = self._handle_balloon(counters, signals, demand, explanations)

        latency_needs_help = self._latency_needs_help(signals)
        # Without a latency goal, scaling is driven by demand alone.
        wants_scale_up = demand.any_high and (
            self.goal is None or latency_needs_help
        )
        previous = self._container

        if wants_scale_up:
            target = self._scale_up_target(signals, demand, explanations)
        elif latency_needs_help:
            target = previous
            explanations.append(self._no_resource_demand_explanation(signals, demand))
            self._low_demand_streak = 0
        else:
            target = self._maybe_scale_down(
                signals, demand, balloon_confirmed, explanations
            )

        # Anti-flapping: during a damper cool-down, discretionary moves are
        # suppressed (the budget constraint below still overrides — it is a
        # hard invariant, damping is not).
        if (
            self.damper is not None
            and self.damper.cooling_down
            and target.name != previous.name
        ):
            explanations.append(
                Explanation(
                    action=ActionKind.OSCILLATION_DAMPED,
                    reason=(
                        f"resize to {target.name} suppressed: oscillation "
                        f"cool-down ({self.damper.cooldown_remaining} "
                        "interval(s) remaining)"
                    ),
                )
            )
            self.tracer.emit(
                "damper", EventKind.DAMPER,
                action="suppressed", suppressed_target=target.name,
                cooldown_remaining=self.damper.cooldown_remaining,
            )
            target = previous

        # The budget constrains every path, not just scale-ups: once the
        # bucket drains, even *holding* an expensive container is no
        # longer affordable and the tenant is forced down.
        constrained = self._enforce_budget(target, explanations)
        budget_forced = constrained.name != target.name
        target = constrained

        if self.damper is not None and self.damper.observe(
            previous.level, target.level
        ):
            explanations.append(
                Explanation(
                    action=ActionKind.OSCILLATION_DAMPED,
                    reason=(
                        "up/down flapping detected "
                        f"(> {self.damper.max_reversals} reversals in the "
                        f"last {self.damper.window} moves); cooling down for "
                        f"{self.damper.cooldown_intervals} interval(s)"
                    ),
                )
            )
            self.tracer.emit(
                "damper", EventKind.DAMPER,
                action="tripped",
                cooldown_intervals=self.damper.cooldown_intervals,
            )

        if target.name != previous.name:
            self._on_resize()
            self.tracer.emit(
                "scaler", EventKind.RESIZE_APPLIED,
                from_container=previous.name, to_container=target.name,
                from_level=previous.level, to_level=target.level,
                forced=budget_forced,
            )
        self._container = target
        if not explanations:
            explanations.append(
                Explanation(ActionKind.NO_CHANGE, "demand matches current container")
            )
        decision = ScalingDecision(
            container=target,
            balloon_limit_gb=self._balloon_limit,
            resized=target.name != previous.name,
            explanations=tuple(explanations),
            demand=demand,
            signals=signals,
            decision_id=decision_id,
        )
        self._finish_decision(decision)
        return decision

    # -- scale-up ---------------------------------------------------------------

    def _latency_needs_help(self, signals: WorkloadSignals) -> bool:
        """BAD latency, or a significant degrading trend (early warning)."""
        if self.goal is None:
            # No goal: latency never gates scaling by itself.
            return False
        if signals.latency_status is LatencyStatus.BAD:
            return True
        if not signals.latency_degrading or np.isnan(signals.latency_ms):
            return False
        near_goal = signals.latency_ms >= 0.6 * self.goal.target_ms
        # The trend must also be material: projected over the trend
        # window, it should move latency by a noticeable share of the
        # goal.  Theil-Sen happily flags a consistent 0.1 ms/interval
        # drift as significant; reacting to that would be pure churn.
        projected_ms = signals.latency_trend.slope * self.thresholds.trend_window
        material = projected_ms >= 0.10 * self.goal.target_ms
        return near_goal and material

    def _scale_up_target(
        self,
        signals: WorkloadSignals,
        demand: DemandEstimate,
        explanations: list[Explanation],
    ) -> ContainerSpec:
        self._low_demand_streak = 0
        self._cancel_balloon_if_probing(explanations)

        desired = self._desired_vector(demand)
        affordable = self.catalog.cheapest_covering_within(
            desired, self.budget.available
        )
        covering = self.catalog.smallest_covering(desired)
        for resource_demand in demand.high_resources():
            explanations.append(
                Explanation(
                    action=ActionKind.SCALE_UP,
                    reason=(
                        f"scale-up due to a {resource_demand.kind.value} "
                        f"bottleneck ({resource_demand.reason})"
                    ),
                    resource=resource_demand.kind,
                    rule_id=resource_demand.rule_id,
                    details={
                        "utilization_pct": signals.resource(
                            resource_demand.kind
                        ).utilization_pct,
                        "wait_ms": signals.resource(resource_demand.kind).wait_ms,
                    },
                )
            )
        if affordable.cost < covering.cost:
            explanations.append(
                Explanation(
                    action=ActionKind.BUDGET_CONSTRAINED,
                    reason=(
                        f"scale-up constrained by budget: wanted "
                        f"{covering.name} ({covering.cost:g}/interval), "
                        f"budget allows {self.budget.available:.1f}"
                    ),
                )
            )
        # Never scale *down* as a side effect of a scale-up search.
        if affordable.cost < self._container.cost:
            return self._container
        return affordable

    def _desired_vector(self, demand: DemandEstimate) -> ResourceVector:
        """Resource amounts implied by the per-dimension step estimates."""
        current = self._container
        amounts = {}
        for kind in ResourceKind:
            steps = demand.demand(kind).steps if kind in demand.demands else 0
            if steps > 0:
                target_level = min(
                    current.level + steps, self.catalog.num_levels - 1
                )
                amounts[kind.value] = self.catalog.at_level(
                    target_level
                ).resources.get(kind)
            else:
                amounts[kind.value] = current.resources.get(kind)
        return ResourceVector(**amounts)

    def _no_resource_demand_explanation(
        self, signals: WorkloadSignals, demand: DemandEstimate
    ) -> Explanation:
        if demand.non_resource_bound and demand.dominant_non_resource_wait:
            wait_name = demand.dominant_non_resource_wait.value
            reason = (
                "latency goal not met, but waits are dominated by "
                f"{wait_name} waits ({signals.non_resource_wait_pct:.0f}% of "
                "total): more resources would not help"
            )
        else:
            reason = (
                "latency goal not met, but no resource shows high demand: "
                "holding the current container"
            )
        return Explanation(action=ActionKind.NO_CHANGE, reason=reason)

    # -- scale-down ----------------------------------------------------------------

    def _maybe_scale_down(
        self,
        signals: WorkloadSignals,
        demand: DemandEstimate,
        balloon_confirmed: bool,
        explanations: list[Explanation],
    ) -> ContainerSpec:
        current = self._container
        if current.level == 0:
            self._low_demand_streak = 0
            return current
        if not self._scale_down_allowed(signals, demand):
            self._low_demand_streak = 0
            return current

        self._low_demand_streak += 1
        if self._low_demand_streak < self.sensitivity.idle_intervals_before_scale_down:
            return current

        target = self.catalog.step_from(current, -1)
        if self._needs_balloon_probe(signals, target) and not balloon_confirmed:
            if self.use_ballooning:
                if self.balloon.can_probe_to(target.memory_gb):
                    decision = self.balloon.start_probe(
                        current_memory_gb=current.memory_gb,
                        target_memory_gb=target.memory_gb,
                        baseline_disk_reads=self._baseline_disk_reads(),
                    )
                    self._balloon_limit = decision.limit_gb
                    explanations.append(
                        Explanation(
                            action=ActionKind.BALLOON_START,
                            reason=(
                                "low demand detected but the cached working "
                                "set would not fit the smaller container; "
                                "probing memory demand via ballooning"
                            ),
                            resource=ResourceKind.MEMORY,
                        )
                    )
                    self.tracer.emit(
                        "balloon", EventKind.BALLOON,
                        transition="probe-started",
                        limit_gb=decision.limit_gb,
                        target_memory_gb=target.memory_gb,
                    )
                return current  # hold while probing / cooling down
            # Ballooning ablated: shrink blindly (the Figure 14 "no
            # ballooning" behaviour).
        self._low_demand_streak = 0
        explanations.append(
            Explanation(
                action=ActionKind.SCALE_DOWN,
                reason=(
                    f"scale-down to {target.name}: latency goals met with "
                    "margin and no resource shows high demand"
                ),
            )
        )
        return target

    def _scale_down_allowed(
        self, signals: WorkloadSignals, demand: DemandEstimate
    ) -> bool:
        if demand.any_high:
            return False
        if signals.latency_degrading:
            return False
        if self.goal is None:
            return demand.all_low
        if signals.latency_status is LatencyStatus.BAD:
            return False
        if signals.latency_status is LatencyStatus.UNKNOWN:
            # Idle tenant (no completions): treat as low demand.
            return demand.all_low_or_flat
        margin = self.sensitivity.scale_down_margin
        has_headroom = signals.latency_ms <= margin * self.goal.target_ms
        if not has_headroom:
            return False
        if demand.all_low:
            return True
        # Latency headroom alone can justify a smaller container (the
        # paper: goals met => take the savings), but only if the smaller
        # size could actually absorb the current load: project every
        # resource's utilization onto the next size down and require it to
        # stay out of the HIGH band.
        return demand.all_low_or_flat and self._fits_next_size_down(signals)

    def _fits_next_size_down(self, signals: WorkloadSignals) -> bool:
        current = self._container
        if current.level == 0:
            return False
        target = self.catalog.step_from(current, -1)
        allowed_pct = self._allowed_projected_utilization(signals)
        for kind in ResourceKind:
            if kind is ResourceKind.MEMORY:
                continue  # memory safety is the balloon probe's job
            allocation = target.resources.get(kind)
            if allocation <= 0:
                return False
            projected = (
                signals.resource(kind).utilization_pct
                * current.resources.get(kind)
                / allocation
            )
            if projected >= allowed_pct:
                return False
        return True

    def _allowed_projected_utilization(self, signals: WorkloadSignals) -> float:
        """Utilization ceiling a smaller container may be projected to run at.

        The more latency headroom the tenant has, the hotter the scaler is
        willing to run the smaller size — this is how loose latency goals
        (e.g. 5x Max) translate into cheaper containers, paper Figure 9(b).
        """
        # A modest margin above the HIGH band: the next size down may run
        # warm, as long as it is not projected into outright saturation.
        base = min(self.thresholds.util_high_pct * 1.15, 92.0)
        if self.goal is None or not np.isfinite(signals.latency_ms):
            return base
        if signals.latency_ms <= 0:
            return 92.0
        headroom_ratio = self.goal.target_ms / signals.latency_ms
        if headroom_ratio < 1.8:
            # Marginal headroom: relaxing here just oscillates across the
            # goal boundary.  Keep the standard ceiling.
            return base
        return float(min(92.0, base * float(np.sqrt(headroom_ratio / 1.3))))

    def _needs_balloon_probe(
        self, signals: WorkloadSignals, target: ContainerSpec
    ) -> bool:
        """Would the smaller container evict cached working data?"""
        cached_gb = max(
            signals.memory_used_gb - engine_overhead_gb(self._container.memory_gb),
            0.0,
        )
        return cached_gb > usable_cache_gb(target.memory_gb) + 1e-9

    # -- balloon plumbing --------------------------------------------------------------

    def _handle_balloon(
        self,
        counters: IntervalCounters,
        signals: WorkloadSignals,
        demand: DemandEstimate,
        explanations: list[Explanation],
    ) -> bool:
        """Advance an active probe; returns True if low memory confirmed."""
        if self.balloon.phase is not BalloonPhase.PROBING:
            self.balloon.tick_cooldown()
            return False
        if self._latency_needs_help(signals) or demand.any_high:
            self.balloon.cancel()
            self._balloon_limit = None
            explanations.append(
                Explanation(
                    action=ActionKind.BALLOON_ABORT,
                    reason="balloon probe cancelled: demand or latency pressure",
                    resource=ResourceKind.MEMORY,
                )
            )
            self.tracer.emit(
                "balloon", EventKind.BALLOON,
                transition="cancelled-pressure",
            )
            return False
        decision = self.balloon.observe(counters)
        self._balloon_limit = decision.limit_gb
        if decision.status is BalloonStatus.ABORTED:
            explanations.append(
                Explanation(
                    action=ActionKind.BALLOON_ABORT,
                    reason=(
                        "balloon probe aborted: disk I/O rose "
                        f"{self.balloon.io_spike_ratio:g}x above baseline — "
                        "memory demand is not low; reverting"
                    ),
                    resource=ResourceKind.MEMORY,
                )
            )
            self.tracer.emit(
                "balloon", EventKind.BALLOON,
                transition="aborted-io-spike",
                io_spike_ratio=self.balloon.io_spike_ratio,
            )
            return False
        if decision.status is BalloonStatus.CONFIRMED_LOW:
            self._balloon_limit = None
            explanations.append(
                Explanation(
                    action=ActionKind.BALLOON_CONFIRM,
                    reason=(
                        "balloon probe reached the smaller container's memory "
                        "without an I/O spike: memory demand confirmed low"
                    ),
                    resource=ResourceKind.MEMORY,
                )
            )
            self.tracer.emit(
                "balloon", EventKind.BALLOON, transition="confirmed-low",
            )
            return True
        return False

    def _cancel_balloon_if_probing(self, explanations: list[Explanation]) -> None:
        if self.balloon.phase is BalloonPhase.PROBING:
            self.balloon.cancel()
            self._balloon_limit = None
            explanations.append(
                Explanation(
                    action=ActionKind.BALLOON_ABORT,
                    reason="balloon probe cancelled by scale-up",
                    resource=ResourceKind.MEMORY,
                )
            )
            self.tracer.emit(
                "balloon", EventKind.BALLOON, transition="cancelled-scale-up",
            )

    # -- degraded modes -------------------------------------------------------

    def decide_interval(
        self, deliveries: list[IntervalCounters]
    ) -> tuple[ScalingDecision, list[ScalingDecision]]:
        """One interval boundary: a decision per delivery, or a gap decision.

        Returns the actuated decision and every decision made.  The
        actuated decision is the last one: held (late) redeliveries are
        delivered first, so on a healthy stream it is the fresh
        interval's.  The interval that just ended stays unsettled until
        a delivery or the gap settles it, and every choice made before
        then is checked against the balance left after its charge.
        """
        self._unsettled += 1
        if not deliveries:
            decision = self.decide_missing()
            return decision, [decision]
        per_delivery = [self.decide(counters) for counters in deliveries]
        return per_delivery[-1], per_delivery

    def decide_missing(self) -> ScalingDecision:
        """Handle a billing-interval boundary with no telemetry delivery.

        The controller's tick fired but no counters arrived (telemetry
        dropout).  The interval still ran and must be billed; the safest
        action on zero information is to hold the current container.  A
        late delivery for this interval can still be absorbed by the guard
        without double-billing.
        """
        self.tracer.set_interval(self.tracer.current_interval + 1)
        if self.guard is not None:
            self.guard.note_missing_interval()
        return self._degraded_decision(
            ActionKind.TELEMETRY_GAP,
            "no telemetry arrived for this interval; holding the current "
            "container and billing the believed cost",
        )

    def notify_actuation(self, applied: ContainerSpec) -> None:
        """Reconcile the scaler's container belief with actuation reality.

        Called by :class:`~repro.core.resize_executor.ResizeExecutor` after
        every actuation attempt.  A divergence means the decided resize did
        not (fully) happen: adopt the actual container and drop probe state
        keyed to the stale belief.
        """
        if applied.name == self._container.name:
            return
        self._container = applied
        self.balloon.cancel()
        self._balloon_limit = None
        self._low_demand_streak = 0

    def notify_balloon_actuation_failed(self) -> None:
        """The balloon cap could not be applied; abandon the probe."""
        self.balloon.cancel()
        self._balloon_limit = None

    def schedule_refund(
        self, amount: float, decision_id: str | None = None
    ) -> None:
        """Credit tokens back at the next settlement (platform's fault).

        ``decision_id`` names the resize decision whose failed actuation
        earned the refund, so the eventual BUDGET_REFUND event joins back
        to the attempt that caused it.
        """
        if amount > 0:
            self._pending_refunds.append((amount, decision_id))

    def enter_safe_mode(self, intervals: int, reason: str) -> None:
        """Hold the current container until :meth:`exit_safe_mode`.

        Driven by the resize executor's circuit breaker; ``intervals`` is
        informational (the breaker owns the clock).
        """
        self._safe_mode = True
        self._safe_mode_reason = reason
        self._cancel_balloon_if_probing([])
        self._low_demand_streak = 0

    def exit_safe_mode(self) -> None:
        self._safe_mode = False
        self._safe_mode_reason = ""

    def _settle_budget(self, cost: float, decision_id: str | None = None) -> None:
        """Apply any pending actuation refunds, then charge the interval.

        The refunds land first so a tenant stranded on a too-expensive
        container by a failed scale-down stays solvent: the net charge is
        the cost of the container the scaler actually chose.  Each refund
        is credited under the decision id of the resize that earned it;
        the charge is attributed to ``decision_id`` (the decision that
        chose the billed container).
        """
        if self._pending_refunds:
            for amount, refund_decision_id in self._pending_refunds:
                self.budget.refund(amount, refund_decision_id)
            self._pending_refunds.clear()
        self.budget.end_interval(cost, decision_id)
        self._unsettled = max(self._unsettled - 1, 0)

    def _available(self) -> float:
        """The balance the next container will be charged from.

        The current balance, unless intervals that already ended are
        still unsettled: those settle first, exactly as
        :meth:`_settle_budget` will — the pending refunds, then each
        interval at the believed cost.
        """
        if not self._unsettled:
            return self.budget.available
        return self.budget.balance_after(
            [amount for amount, _ in self._pending_refunds],
            [self._container.cost] * self._unsettled,
        )

    def _safe_mode_decision(self) -> ScalingDecision:
        """Hold the current container while the circuit breaker is open."""
        decision_id = self._mint_decision()
        explanations = [
            Explanation(
                action=ActionKind.SAFE_MODE,
                reason=(
                    "safe mode: actuation circuit open "
                    f"({self._safe_mode_reason}); holding "
                    f"{self._container.name}"
                ),
            )
        ]
        self.balloon.tick_cooldown()
        previous = self._container
        target = self._enforce_budget(previous, explanations)
        resized = target.name != previous.name
        if resized:
            self._on_resize()
            self.tracer.emit(
                "scaler", EventKind.RESIZE_APPLIED,
                from_container=previous.name, to_container=target.name,
                from_level=previous.level, to_level=target.level,
                forced=True,
            )
        self._container = target
        decision = ScalingDecision(
            container=target,
            balloon_limit_gb=self._balloon_limit,
            resized=resized,
            explanations=tuple(explanations),
            decision_id=decision_id,
        )
        self._finish_decision(decision)
        return decision

    def _degraded_decision(
        self, kind: ActionKind, reason: str
    ) -> ScalingDecision:
        """Hold on untrustworthy input: bill, explain, change nothing else.

        The signal windows are left untouched (hold-last-signals), the
        balloon probe is frozen rather than advanced on bad data, and the
        only container change allowed is a budget-forced downgrade.
        """
        self._settle_budget(self._container.cost, self._prev_decision_id)
        decision_id = self._mint_decision()
        explanations = [Explanation(action=kind, reason=reason)]
        if self._safe_mode:
            explanations.append(
                Explanation(
                    action=ActionKind.SAFE_MODE,
                    reason=(
                        "safe mode: actuation circuit open "
                        f"({self._safe_mode_reason})"
                    ),
                )
            )
        self.balloon.tick_cooldown()
        previous = self._container
        target = self._enforce_budget(previous, explanations)
        resized = target.name != previous.name
        if resized:
            self._on_resize()
            self.tracer.emit(
                "scaler", EventKind.RESIZE_APPLIED,
                from_container=previous.name, to_container=target.name,
                from_level=previous.level, to_level=target.level,
                forced=True,
            )
        self._container = target
        decision = ScalingDecision(
            container=target,
            balloon_limit_gb=self._balloon_limit,
            resized=resized,
            explanations=tuple(explanations),
            decision_id=decision_id,
        )
        self._finish_decision(decision)
        return decision

    def _passive_decision(
        self, kind: ActionKind, reasons: tuple[str, ...]
    ) -> ScalingDecision:
        """Acknowledge a delivery that represents no new interval.

        Duplicates and late redeliveries do not advance billing or scaling
        state; the decision exists so callers get an explained no-op.  It
        gets a decision id of its own, but — having settled no billing —
        it does not become the attribution target for the next interval's
        charge.

        A late delivery surfaces at an interval boundary ahead of that
        interval's own delivery, so the interval that just ended is still
        unsettled, and when nothing else arrives this decision is the one
        actuated.  The container it holds must fit the balance left once
        that interval is charged; if it does not, the decision requests
        the most expensive container that does.  The belief is left
        alone: it changes only once the executor applies the request, and
        a fresh delivery later in the same boundary decides from the
        container actually running.
        """
        decision_id = self._mint_decision()
        explanations = [Explanation(action=kind, reason="; ".join(reasons))]
        target = self._container
        if target.cost > self._available() + 1e-9:
            target = self._enforce_budget(target, explanations)
        decision = ScalingDecision(
            container=target,
            balloon_limit_gb=self._balloon_limit,
            resized=target.name != self._container.name,
            explanations=tuple(explanations),
            decision_id=decision_id,
        )
        self._finish_decision(decision, passive=True)
        return decision

    def _finish_decision(
        self, decision: ScalingDecision, passive: bool = False
    ) -> None:
        """Record the DECISION event and roll the correlation state."""
        if not passive:
            self._prev_decision_id = decision.decision_id or None
        if self.tracer.enabled:
            self.tracer.emit(
                "scaler", EventKind.DECISION,
                decision_id=decision.decision_id or None,
                container=decision.container.name,
                resized=decision.resized,
                actions=[e.action.value for e in decision.explanations],
                balloon_limit_gb=decision.balloon_limit_gb,
                budget_available=self.budget.available,
                safe_mode=self._safe_mode,
            )
            self.tracer.set_decision(None)

    def _enforce_budget(
        self, target: ContainerSpec, explanations: list[Explanation]
    ) -> ContainerSpec:
        """The hard budget constraint, shared with the degraded paths."""
        available = self._available()
        affordable_now = target.cost <= available + 1e-9
        self.tracer.emit(
            "budget", EventKind.BUDGET_CHECK,
            target=target.name, cost=target.cost,
            available=available, affordable=affordable_now,
        )
        if affordable_now:
            return target
        affordable = [c for c in self.catalog if c.cost <= available + 1e-9]
        forced = max(affordable, key=lambda c: (c.cost, c.level))
        explanations.append(
            Explanation(
                action=ActionKind.BUDGET_CONSTRAINED,
                reason=(
                    f"container {target.name} ({target.cost:g}/interval) "
                    f"no longer fits the remaining budget "
                    f"({available:.1f}); forced down to "
                    f"{forced.name}"
                ),
            )
        )
        return forced

    def _on_resize(self) -> None:
        self.balloon.cancel()
        self._balloon_limit = None
        self._low_demand_streak = 0

    def _baseline_disk_reads(self) -> float:
        values = self._disk_reads.values()
        if values.size == 0:
            return 1.0
        return float(np.median(values))

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Exact serializable state of the whole per-tenant control loop.

        Covers the scaler's own mutables plus every stateful
        sub-component (telemetry windows, budget ledger, balloon probe,
        guard sequencing, damper cool-down).  The estimator is pure
        configuration and carries no runtime state.  The attached tracer
        and the resize executor checkpoint separately — they belong to
        the controller process, not to the scaling policy.
        """
        return {
            "container": self._container.name,
            "balloon_limit": self._balloon_limit,
            "low_demand_streak": self._low_demand_streak,
            "disk_reads": self._disk_reads.state_dict(),
            "safe_mode": self._safe_mode,
            "safe_mode_reason": self._safe_mode_reason,
            "pending_refunds": [
                [amount, decision_id]
                for amount, decision_id in self._pending_refunds
            ],
            "unsettled": self._unsettled,
            "decision_seq": self._decision_seq,
            "prev_decision_id": self._prev_decision_id,
            "telemetry": self.telemetry.state_dict(),
            "budget": self.budget.state_dict(),
            "balloon": self.balloon.state_dict(),
            "guard": None if self.guard is None else self.guard.state_dict(),
            "damper": None if self.damper is None else self.damper.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a scaler built with the *same configuration* (catalog,
        goal, thresholds, ablation switches) from :meth:`state_dict`."""
        if (state["guard"] is None) != (self.guard is None):
            raise ConfigurationError(
                "guard presence mismatch between checkpoint and live scaler"
            )
        if (state["damper"] is None) != (self.damper is None):
            raise ConfigurationError(
                "damper presence mismatch between checkpoint and live scaler"
            )
        self._container = self.catalog.by_name(str(state["container"]))
        balloon_limit = state["balloon_limit"]
        self._balloon_limit = (
            None if balloon_limit is None else float(balloon_limit)
        )
        self._low_demand_streak = int(state["low_demand_streak"])
        self._disk_reads.load_state_dict(state["disk_reads"])
        self._safe_mode = bool(state["safe_mode"])
        self._safe_mode_reason = str(state["safe_mode_reason"])
        self._pending_refunds = [
            (float(amount), None if decision_id is None else str(decision_id))
            for amount, decision_id in state["pending_refunds"]
        ]
        self._unsettled = int(state["unsettled"])
        self._decision_seq = int(state["decision_seq"])
        prev = state["prev_decision_id"]
        self._prev_decision_id = None if prev is None else str(prev)
        self.telemetry.load_state_dict(state["telemetry"])
        self.budget.load_state_dict(state["budget"])
        self.balloon.load_state_dict(state["balloon"])
        if self.guard is not None:
            self.guard.load_state_dict(state["guard"])
        if self.damper is not None:
            self.damper.load_state_dict(state["damper"])
