"""What every workload shares: the episode loop and the metrics.

A workload is run as *episodes*.  One episode builds a fresh fleet from
the seed (its set-up), then runs a fixed number of closed-loop fleet
intervals: interval ``i + 1`` starts only after interval ``i``'s
decisions are actuated.  Every episode of a run sees the same inputs, so
every episode must produce the same digest; the first one is also
checked against the workload's exact oracle.  Episodes repeat until the
run's time is spent, which gives several set-up samples and enough
interval samples for a p90.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.server import DatabaseServer
from spans import Hooks, Spans


@dataclass
class Episode:
    """What one episode measured and produced."""

    setup_s: float
    #: Wall time of each measured fleet interval, telemetry in to every
    #: decision actuated.
    intervals_s: list[float]
    #: Tenants decided per fleet interval.
    tenants: int
    #: Tenants that died, raised, or overdrew their budget.
    failed_tenants: int
    #: Mean cost of the container in force per measured tenant-interval.
    sim_cost: float
    #: p95 over measured tenant-intervals of each interval's latency.
    sim_latency_p95_ms: float
    #: Deterministic summary of the outputs; equal across episodes.
    digest: Any
    #: Summary of the state set-up ends in, where the workload has one;
    #: equal across episodes and set-ups.
    setup_digest: Any = None
    #: Whatever the workload's oracle needs; dropped once checked.
    outputs: Any = field(default=None, repr=False)

    @property
    def tenant_intervals(self) -> int:
        return self.tenants * len(self.intervals_s)

    @property
    def busy_s(self) -> float:
        """Set-up plus measured intervals: what the next episode will
        take (the oracle, run once, is left out)."""
        return self.setup_s + sum(self.intervals_s)


@dataclass
class SetUp:
    """A set-up timed alone, with no interval after it."""

    seconds: float
    digest: Any


class Boundaries:
    """Interval ends and engine output, observed at the program's seams.

    The program's own loop runs the intervals; an untimed hook after the
    call that finishes each interval stamps its end.  The
    ``setup_ends``-th stamp ends set-up, and the next ``measured`` stamps
    end the measured intervals, during which the engine's output is kept
    and ``spans`` (when set) record.
    """

    def __init__(self, setup_ends: int, measured: int) -> None:
        self.setup_ends = setup_ends
        self.measured = measured
        self.spans: Spans | None = None
        self.ends: list[float] = []
        self.served: list = []  # IntervalCounters of measured intervals
        self.last_args: tuple = ()
        self.measuring = False

    def start(self) -> None:
        """Before each call into the program's loop."""
        self.ends = []
        self.measuring = False

    def interval_done(self, args, result) -> None:
        self.ends.append(time.perf_counter())
        self.last_args = args
        if len(self.ends) in (self.setup_ends, self.setup_ends + self.measured):
            self.measuring = len(self.ends) == self.setup_ends
            if self.spans is not None:
                self.spans.enabled = self.measuring

    def engine_served(self, args, counters) -> None:
        if self.measuring:
            self.served.append(counters)

    def hooks(self, owner, attr: str) -> Hooks:
        """Hook ``owner.attr`` as the interval end, and the engine."""
        hooks = Hooks()
        hooks.add(owner, attr, after=self.interval_done)
        hooks.add(
            DatabaseServer, "run_interval_with_rates", after=self.engine_served
        )
        return hooks


#: Episodes per run at least, so that set-up always has several samples.
#: Episodes are sized so that about four fit in 30 s on a 2-core machine.
MIN_EPISODES = 2
#: Set-up samples per run at least, for a workload that runs fewer
#: episodes than ``MIN_EPISODES`` and times its set-up alone instead.
MIN_SETUPS = 3


def run_for(
    seconds: float, episode: Callable[[], Episode], min_episodes: int = MIN_EPISODES
) -> list[Episode]:
    """Run episodes until another would overrun ``seconds``."""
    start = time.perf_counter()
    episodes: list[Episode] = []
    while True:
        episodes.append(episode())
        if (
            len(episodes) >= min_episodes
            and time.perf_counter() - start + episodes[-1].busy_s > seconds
        ):
            return episodes


def peak_rss_mb() -> float:
    """This process's high-water resident set (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_episodes_agree(episodes: list[Episode], setups: list[SetUp]) -> list[str]:
    first = episodes[0].digest
    problems = [
        f"episode {k} digest differs from episode 0: {e.digest!r} != {first!r}"
        for k, e in enumerate(episodes)
        if e.digest != first
    ]
    first = episodes[0].setup_digest
    problems += [
        f"set-up {k} ended in another state than episode 0's set-up: "
        f"{s.digest!r} != {first!r}"
        for k, s in enumerate(setups)
        if s.digest != first
    ]
    return problems


def end_to_end(
    episodes: list[Episode], setups: list[SetUp]
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, as ``name -> (value, unit)``."""
    samples = np.array([s for e in episodes for s in e.intervals_s])
    tenant_intervals = sum(e.tenant_intervals for e in episodes)
    attempted = sum(e.tenants for e in episodes)
    failed = sum(e.failed_tenants for e in episodes)
    p50, p90 = np.percentile(samples, [50, 90])
    first = episodes[0]
    return {
        "tenant_intervals_per_s": (tenant_intervals / samples.sum(), "1/s"),
        "interval_s_p50": (float(p50), "s"),
        "interval_s_p90": (float(p90), "s"),
        "setup_s": (
            statistics.median(
                [e.setup_s for e in episodes] + [s.seconds for s in setups]
            ),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "tenant_ok_frac": (1.0 - failed / attempted, "fraction"),
        "sim_cost_per_tenant_interval": (first.sim_cost, "tokens"),
        "sim_latency_p95_ms": (first.sim_latency_p95_ms, "ms"),
    }


def run_workload(
    module, seed: int, seconds: float, trace: bool
) -> tuple[list[Episode], list[Episode], list[SetUp], Spans, list[str]]:
    """Measure one workload module, then check its outputs.

    The module provides ``prepare(seed) -> (episode, hooks)`` — where
    ``episode(spans_or_None)`` runs one episode and ``hooks`` (or None)
    are its installed boundary observers — plus ``install(spans)`` and
    ``verify(seed, episode)``.  A module may lower ``MIN_EPISODES``; its
    ``episode(None, setup_only=True)`` then times set-up alone and
    returns a ``SetUp``, and untraced runs take ``MIN_SETUPS`` set-up
    samples in all, the set-ups alone first.  Untraced runs return
    ``(episodes, [], set-ups, ...)``; traced runs return ``(untraced,
    traced, [], ...)`` pairs.
    """
    spans = Spans()
    if trace:
        module.install(spans)
    run_episode, hooks = module.prepare(seed)
    problems: list[str] = []
    verified = False

    def episode(traced: Spans | None) -> Episode:
        # The first (traced, when tracing) episode goes to the oracle at
        # once, and no episode keeps its outputs: peak memory must not
        # depend on how many episodes fit in the run.
        nonlocal verified
        result = run_episode(traced)
        if not verified and (traced is not None or not trace):
            problems.extend(module.verify(seed, result))
            verified = True
        result.outputs = None
        return result

    min_episodes = getattr(module, "MIN_EPISODES", MIN_EPISODES)
    setups: list[SetUp] = []
    try:
        if trace:
            plain, traced = traced_pairs(seconds, episode, spans)
        else:
            if min_episodes < MIN_EPISODES:
                setups = [
                    run_episode(None, setup_only=True)
                    for _ in range(MIN_SETUPS - min_episodes)
                ]
            plain = run_for(seconds, lambda: episode(None), min_episodes)
            traced = []
    finally:
        if hooks is not None:
            hooks.restore()
        spans.restore()
    problems += check_episodes_agree(plain + traced, setups)
    return plain, traced, setups, spans, problems


def traced_pairs(
    seconds: float,
    episode: Callable[[Spans | None], Episode],
    spans: Spans,
) -> tuple[list[Episode], list[Episode]]:
    """Alternate untraced and traced episodes of identical inputs.

    Returns ``(untraced, traced)``; their measured interval time gives
    the tracing overhead, and the traced ones carry the layer spans.
    """
    start = time.perf_counter()
    plain: list[Episode] = []
    traced: list[Episode] = []
    while True:
        plain.append(episode(None))
        traced.append(episode(spans))
        took = plain[-1].busy_s + traced[-1].busy_s
        if time.perf_counter() - start + took > seconds:
            return plain, traced


def layer_metrics(
    spans: Spans,
    plain: list[Episode],
    traced: list[Episode],
    top_layers: tuple[str, ...],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the traced episodes' spans; the
    tracing overhead compares them with the untraced ones.

    A layer that does not run in a workload reads 0.  Times are per
    measured tenant-interval unless the name says per call; counts named
    without a denominator are per episode.
    """
    n = sum(e.tenant_intervals for e in traced)
    per_episode = len(traced)
    counts = spans.counts

    def us(seconds: float) -> tuple[float, str]:
        return seconds / n * 1e6, "us"

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms_per(seconds: float, calls: float) -> tuple[float, str]:
        return ratio(seconds, calls) * 1e3, "ms"

    puts = spans.calls["checkpoint.put"]
    measured = sum(sum(e.intervals_s) for e in traced)
    untraced = sum(sum(e.intervals_s) for e in plain)
    episodes = plain + traced
    unaccounted = measured - sum(spans.total[layer] for layer in top_layers)
    metrics = {
        "engine.us_per_tenant_interval": us(spans.total["engine"]),
        "engine.completions_per_tenant_interval": (
            counts["engine.completions"] / n,
            "count",
        ),
        "engine.rejected_frac": (
            ratio(counts["engine.rejected"], counts["engine.arrivals"]),
            "fraction",
        ),
        "decide.us_per_tenant_interval": us(spans.total["decide"]),
        "signals.us_per_tenant_interval": us(spans.total["signals"]),
        "stats.trend.us_per_tenant_interval": us(spans.total["stats.trend"]),
        "stats.spearman.us_per_tenant_interval": us(spans.total["stats.spearman"]),
        "stats.tail_median.us_per_tenant_interval": us(
            spans.total["stats.tail_median"]
        ),
        "estimate.us_per_tenant_interval": us(spans.total["estimate"]),
        "actuation.us_per_tenant_interval": us(spans.self_time("decide")),
        "synth.us_per_tenant_interval": us(spans.total["synth"]),
        "decide.resizes_per_tenant_interval": (counts["decide.resizes"] / n, "count"),
        "decide.balloon_transitions": (
            counts["decide.balloon_transitions"] / per_episode,
            "count",
        ),
        "wave.us_per_tenant_interval": us(spans.total["wave"]),
        "wave.waves_per_interval": (
            ratio(spans.calls["wave"], counts["subfleet_intervals"]),
            "count",
        ),
        "execute.us_per_tenant_interval": us(spans.total["execute"]),
        "dataplane.us_per_tenant_interval": us(spans.self_time("dataplane")),
        "chaos.driver.us_per_tenant_interval": us(
            unaccounted if "dataplane" in top_layers else 0.0
        ),
        "executor.apply_ratio": (
            ratio(counts["executor.applied"], counts["executor.requested"]),
            "fraction",
        ),
        "core.decide.us_per_call": (
            ratio(spans.total["core.decide"], spans.calls["core.decide"]) * 1e6,
            "us",
        ),
        "core.execute.us_per_call": (
            ratio(spans.total["core.execute"], spans.calls["core.execute"]) * 1e6,
            "us",
        ),
        "service.state_dict_ms": ms_per(
            spans.total["service.state_dict"], spans.calls["service.state_dict"]
        ),
        "checkpoint.capture_ms": ms_per(
            spans.total["checkpoint.capture"], spans.calls["checkpoint.capture"]
        ),
        "checkpoint.put_ms": ms_per(spans.total["checkpoint.put"], puts),
        "checkpoint.encode_ms": ms_per(spans.total["checkpoint.encode"], puts),
        "checkpoint.encodes_per_put": (
            ratio(spans.calls["checkpoint.encode"], puts),
            "count",
        ),
        "checkpoint.decode_ms": ms_per(spans.total["checkpoint.decode"], puts),
        "checkpoint.write_ms": ms_per(spans.self_time("checkpoint.write"), puts),
        "checkpoint.bytes": (
            ratio(counts["checkpoint.bytes"], spans.calls["checkpoint.encode"]),
            "bytes",
        ),
        "trace.events_per_tenant_interval": (counts["trace.events"] / n, "count"),
        "interval.unaccounted_us_per_tenant_interval": us(unaccounted),
        "trace.overhead_pct": ((measured / untraced - 1.0) * 100.0, "%"),
        "failed_tenant_frac": (
            sum(e.failed_tenants for e in episodes) / sum(e.tenants for e in episodes),
            "fraction",
        ),
    }
    for name in (
        "executor.resize_failures",
        "executor.circuit_opens",
        "guard.quarantined",
        "guard.missed",
        "guard.discarded",
        "faults.injected",
    ):
        metrics[name] = (counts[name] / per_episode, "count")
    return metrics


def latency_p95(values: np.ndarray) -> float:
    """p95 of every finite per-tenant-interval latency."""
    return float(np.percentile(values[np.isfinite(values)], 95.0))


def served_sim(served: list) -> tuple[float, float]:
    """``(mean container cost, latency p95)`` over what the engine served
    (``IntervalCounters``, one per measured tenant-interval)."""
    cost = float(np.mean([c.container.cost for c in served]))
    latency = np.array(
        [c.latency_percentile(95.0) for c in served if c.latencies_ms.size]
    )
    return cost, latency_p95(latency)


def engine_counter(spans: Spans) -> Callable:
    """``after`` callback counting what each engine interval served."""

    def after(args, counters) -> None:
        spans.count("engine.completions", counters.completions)
        spans.count("engine.arrivals", counters.arrivals)
        spans.count("engine.rejected", counters.rejected)

    return after
