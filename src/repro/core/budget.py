"""The Budget Manager: token-bucket budget allocation (paper Section 5).

A tenant states a budget ``B`` over a *budgeting period* of ``n`` billing
intervals.  The manager translates it into a per-interval available budget
``B_i`` such that Σ cost ≤ B while still allowing bursts, by adapting the
token-bucket traffic shaper from computer networks:

* the bucket holds at most ``D = B − (n−1)·Cmin`` tokens (the maximum
  burst),
* it refills at ``TR`` tokens per interval (the guaranteed steady spend),
* it starts with ``TI`` tokens.

**Aggressive** bursting starts full (``TI = D``, ``TR = Cmin``): early
bursts can run the most expensive containers until the bucket drains,
after which only ``Cmin`` per interval remains.  **Conservative** bursting
(``TI = K·Cmax``, ``TR = (B − TI)/(n−1)``) caps the initial burst at ~K
intervals of the most expensive container and saves more for later.

Invariants (property-tested):
  * ``available`` is always ≥ the refill floor and ≤ ``D``;
  * total charged over the period never exceeds ``B``;
  * ``available ≥ Cmin`` at every decision point, so the cheapest
    container is always affordable.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import BudgetError
from repro.obs.events import EventKind
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["BurstStrategy", "BudgetManager", "unconstrained_budget"]

#: Histogram edges for per-interval charges, in tokens (container costs in
#: the default catalog span 1–96).
SPEND_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class BurstStrategy(enum.Enum):
    """How eagerly the surplus budget may be consumed early."""

    AGGRESSIVE = "aggressive"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class _BucketParams:
    depth: float
    fill_rate: float
    initial: float


class BudgetManager:
    """Token-bucket allocation of a period budget to billing intervals.

    Args:
        budget: total budget ``B`` for the period.
        n_intervals: billing intervals ``n`` in the period.
        min_cost: ``Cmin``, the cheapest container's per-interval cost.
        max_cost: ``Cmax``, the most expensive container's cost.
        strategy: aggressive or conservative bursting.
        conservative_k: the ``K`` in ``TI = K·Cmax`` (conservative only);
            chosen by the service administrator from fleet telemetry.
    """

    def __init__(
        self,
        budget: float,
        n_intervals: int,
        min_cost: float,
        max_cost: float,
        strategy: BurstStrategy = BurstStrategy.AGGRESSIVE,
        conservative_k: int = 3,
    ) -> None:
        if n_intervals < 1:
            raise BudgetError("n_intervals must be >= 1")
        if min_cost <= 0 or max_cost < min_cost:
            raise BudgetError("need 0 < min_cost <= max_cost")
        if budget < n_intervals * min_cost:
            raise BudgetError(
                f"budget {budget} cannot cover {n_intervals} intervals of the "
                f"cheapest container ({n_intervals * min_cost})"
            )
        if conservative_k < 1:
            raise BudgetError("conservative_k must be >= 1")

        self.budget = float(budget)
        self.n_intervals = int(n_intervals)
        self.min_cost = float(min_cost)
        self.max_cost = float(max_cost)
        self.strategy = strategy
        self.conservative_k = int(conservative_k)

        params = self._configure()
        self._depth = params.depth
        self._fill_rate = params.fill_rate
        self._tokens = params.initial
        self._interval = 0
        self._spent = 0.0
        self._refunded = 0.0
        self.tracer: Tracer = NULL_TRACER

    def bind_tracer(self, tracer: Tracer) -> None:
        """Attach the run's tracer; ledger movements become trace events."""
        self.tracer = tracer

    def _configure(self) -> _BucketParams:
        depth = self.budget - (self.n_intervals - 1) * self.min_cost
        if self.strategy is BurstStrategy.AGGRESSIVE:
            return _BucketParams(depth=depth, fill_rate=self.min_cost, initial=depth)
        # Conservative: cap the initial burst at ~K max-cost intervals.
        initial = min(self.conservative_k * self.max_cost, depth)
        if self.n_intervals == 1:
            return _BucketParams(depth=depth, fill_rate=0.0, initial=depth)
        fill_rate = (self.budget - initial) / (self.n_intervals - 1)
        if fill_rate < self.min_cost:
            # K is too large for this budget; fall back to the largest
            # initial burst that keeps the guaranteed floor.
            initial = self.budget - (self.n_intervals - 1) * self.min_cost
            fill_rate = self.min_cost
        return _BucketParams(depth=depth, fill_rate=fill_rate, initial=initial)

    # -- queries -------------------------------------------------------------

    @property
    def available(self) -> float:
        """Tokens available for the *current* billing interval (``B_i``)."""
        return self._tokens

    @property
    def depth(self) -> float:
        return self._depth

    @property
    def fill_rate(self) -> float:
        return self._fill_rate

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def refunded(self) -> float:
        """Total tokens credited back for charges the platform failed to
        honour (e.g. a scale-down the actuator never applied)."""
        return self._refunded

    @property
    def remaining_intervals(self) -> int:
        return max(self.n_intervals - self._interval, 0)

    @property
    def exhausted_period(self) -> bool:
        return self._interval >= self.n_intervals

    def affordable(self, cost: float) -> bool:
        """Whether a container of ``cost`` fits this interval's budget."""
        return cost <= self._tokens + 1e-9

    def balance_after(
        self, refunds: Iterable[float], costs: Iterable[float]
    ) -> float:
        """``available`` after a :meth:`refund` of each of ``refunds``,
        then an :meth:`end_interval` of each of ``costs``.

        The same arithmetic, without moving the ledger.
        """
        tokens = self._tokens
        for amount in refunds:
            tokens += min(tokens + amount, self._depth) - tokens
        for cost in costs:
            tokens = min(max(tokens - cost, 0.0) + self._fill_rate, self._depth)
        return tokens

    # -- state transitions --------------------------------------------------------

    def end_interval(self, cost: float, decision_id: str | None = None) -> None:
        """Charge the interval's container cost and refill the bucket.

        The paper: "At the end of the i-th billing interval, TR tokens are
        added and C_i tokens are subtracted."  ``decision_id`` correlates
        the charge to the scaling decision that chose the billed container.
        """
        if self.exhausted_period:
            raise BudgetError("budgeting period already finished")
        if cost < 0:
            raise BudgetError("cost must be non-negative")
        if not self.affordable(cost):
            raise BudgetError(
                f"cost {cost} exceeds available budget {self._tokens:.2f}"
            )
        before = self._tokens
        self._interval += 1
        self._spent += cost
        # affordable() tolerates costs up to 1e-9 beyond the balance, so the
        # post-charge balance is clamped at zero before refilling; otherwise
        # repeated epsilon-overdraws would erode the documented
        # ``available >= fill-rate floor`` invariant microscopically.
        after_spend = max(before - cost, 0.0)
        filled = after_spend + self._fill_rate
        self._tokens = min(filled, self._depth)
        if self.tracer.enabled:
            tracer = self.tracer
            tracer.emit(
                "budget", EventKind.BUDGET_SPEND, decision_id=decision_id,
                cost=cost, tokens_before=before, tokens_after=after_spend,
                spent_total=self._spent,
            )
            tracer.emit(
                "budget", EventKind.BUDGET_FILL, decision_id=decision_id,
                fill=self._fill_rate, tokens_after=self._tokens,
            )
            if before - cost < 0.0:
                tracer.emit(
                    "budget", EventKind.BUDGET_CLAMP, decision_id=decision_id,
                    bound="zero", overdraw=cost - before,
                )
            if filled > self._depth:
                tracer.emit(
                    "budget", EventKind.BUDGET_CLAMP, decision_id=decision_id,
                    bound="depth", overshoot=filled - self._depth,
                )
            tracer.metrics.histogram("budget.spend_cost", SPEND_BUCKETS).observe(cost)

    def refund(self, amount: float, decision_id: str | None = None) -> None:
        """Credit tokens back for a charge the platform failed to honour.

        Used by the degraded-mode control plane: when the actuator fails to
        apply a chosen (cheaper) container and the tenant is forced to keep
        running — and paying for — the old one, the cost difference is the
        platform's fault, not the tenant's, so it is returned to the bucket.
        Refunds are clamped at the bucket depth (the burst bound is a hard
        invariant) and never drive ``spent`` below zero.  ``decision_id``
        correlates the credit back to the resize attempt that caused it.
        """
        if amount < 0:
            raise BudgetError("refund amount must be non-negative")
        if amount == 0:
            return
        credited = min(self._tokens + amount, self._depth) - self._tokens
        self._tokens += credited
        self._spent = max(self._spent - credited, 0.0)
        self._refunded += credited
        if self.tracer.enabled:
            self.tracer.emit(
                "budget", EventKind.BUDGET_REFUND, decision_id=decision_id,
                amount=amount, credited=credited, tokens_after=self._tokens,
            )
            if credited < amount:
                self.tracer.emit(
                    "budget", EventKind.BUDGET_CLAMP, decision_id=decision_id,
                    bound="depth", overshoot=amount - credited,
                )

    def start_new_period(self) -> None:
        """Roll into a fresh budgeting period (e.g. a new month)."""
        params = self._configure()
        self._tokens = params.initial
        self._interval = 0
        self._spent = 0.0
        self._refunded = 0.0

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> dict:
        """Exact serializable ledger state (configuration + mutables)."""
        return {
            "budget": self.budget,
            "n_intervals": self.n_intervals,
            "min_cost": self.min_cost,
            "max_cost": self.max_cost,
            "strategy": self.strategy.value,
            "conservative_k": self.conservative_k,
            "tokens": self._tokens,
            "interval": self._interval,
            "spent": self._spent,
            "refunded": self._refunded,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the mutable ledger, validating configuration identity."""
        config = (
            float(state["budget"]),
            int(state["n_intervals"]),
            float(state["min_cost"]),
            float(state["max_cost"]),
            str(state["strategy"]),
            int(state["conservative_k"]),
        )
        live = (
            self.budget,
            self.n_intervals,
            self.min_cost,
            self.max_cost,
            self.strategy.value,
            self.conservative_k,
        )
        if config != live:
            raise BudgetError(
                f"budget configuration mismatch: checkpoint has {config}, "
                f"live manager has {live}"
            )
        self._tokens = float(state["tokens"])
        self._interval = int(state["interval"])
        self._spent = float(state["spent"])
        self._refunded = float(state["refunded"])

    @classmethod
    def from_state_dict(cls, state: dict) -> "BudgetManager":
        """Construct a manager directly from :meth:`state_dict` output."""
        manager = cls(
            budget=float(state["budget"]),
            n_intervals=int(state["n_intervals"]),
            min_cost=float(state["min_cost"]),
            max_cost=float(state["max_cost"]),
            strategy=BurstStrategy(state["strategy"]),
            conservative_k=int(state["conservative_k"]),
        )
        manager.load_state_dict(state)
        return manager


def unconstrained_budget(
    catalog_max_cost: float, n_intervals: int = 1_000_000
) -> BudgetManager:
    """A budget that never binds — the default when tenants set none.

    Degenerate catalogs (``catalog_max_cost <= 0``, e.g. an all-free tier
    or an empty-catalog sentinel) fall back to a unit-cost bucket: such a
    catalog can only ever charge zero per interval, so any bucket with a
    positive budget never binds for it.
    """
    max_cost = float(catalog_max_cost)
    if max_cost <= 0.0:
        max_cost = 1.0
    return BudgetManager(
        budget=max_cost * n_intervals * 2.0,
        n_intervals=n_intervals,
        min_cost=max_cost / 1000.0,
        max_cost=max_cost,
        strategy=BurstStrategy.AGGRESSIVE,
    )
