"""``serve_checkpoint``: the durable controller service and its write path.

``run_service`` (what ``repro serve`` runs) over 10 mixed, faulted,
budgeted tenants — cpuio, tpcc and ds2 in turn — checkpointing every
tick to a directory on disk.  It is the only workload on the scalar
``core/`` path with incremental statistics, and the only one that
writes: every tick captures, encodes, decodes and saves a checkpoint.
A fleet interval here is one service tick, checkpoint included.

Oracle: seeded sampled tenants' in-force containers must equal a batch
``run_chaos`` of the same tenant, and the on-disk ``latest.json`` must
decode to the service's in-memory controller state and restore to it.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.autoscaler import AutoScaler
from repro.core.budget import BudgetManager
from repro.core.latency import LatencyGoal
from repro.core.resize_executor import ResizeExecutor
from repro.engine.server import DatabaseServer
from repro.faults.schedule import FaultSchedule
from repro.harness.chaos import run_chaos
from repro.harness.experiment import ExperimentConfig
from repro.obs.tracer import Tracer
from repro.service import Checkpoint, CheckpointStore, TenantSpec, run_service
from repro.service.controller import ControllerService, TenantRuntime
from repro.workloads import Trace, cpuio_workload, ds2_workload, tpcc_workload

import common
from spans import Spans

TENANTS = 10
WORKLOADS = (cpuio_workload, tpcc_workload, ds2_workload)
TICKS = 50  # measured service ticks per episode
WARMUP = 6
N_FAULTS = 8
GOAL_MS = 150.0
#: Per-tenant budget, as a share of the way from the cheapest to the
#: dearest container per interval.
BUDGET_SHARES = (0.25, 0.35, 0.5)
SAMPLE = 3
#: The checkpoint that ends set-up, as the store names it on disk.
BOOTSTRAP = "checkpoint-initial.json"
#: An episode takes most of a run, so one is enough; set-up is also
#: timed alone (``run_service`` over no ticks) for more samples.
MIN_EPISODES = 1
#: Scratch space for checkpoint directories, inside the checkout.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"


def _config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, warmup_intervals=WARMUP)


def _specs(seed: int, config: ExperimentConfig) -> list[TenantSpec]:
    low, high = config.catalog.smallest.cost, config.catalog.max_cost
    n_budget = WARMUP + TICKS + 2
    specs = []
    for i in range(TENANTS):
        rng = np.random.default_rng([seed, i])
        base = float(rng.uniform(20.0, 30.0))
        rates = np.full(TICKS, base)
        burst = int(rng.integers(5, 8))
        start = int(rng.integers(0, TICKS - burst))
        rates[start : start + burst] = base * float(rng.uniform(7.0, 10.0))
        share = BUDGET_SHARES[i % len(BUDGET_SHARES)]
        per_interval = low + share * (high - low)

        def budget(per_interval=per_interval) -> BudgetManager:
            return BudgetManager(
                budget=per_interval * n_budget,
                n_intervals=n_budget,
                min_cost=low,
                max_cost=high,
            )

        specs.append(
            TenantSpec(
                tenant_id=f"tenant-{i:03d}",
                workload=WORKLOADS[i % len(WORKLOADS)](),
                trace=Trace(name=f"serve-{i}", rates=rates),
                schedule=FaultSchedule.random(
                    seed=seed * 1000 + i,
                    n_intervals=TICKS,
                    n_faults=N_FAULTS,
                    last=TICKS - TICKS // 4 - 1,
                ),
                goal=LatencyGoal(GOAL_MS),
                budget_factory=budget,
            )
        )
    return specs


def _state_json(service: ControllerService) -> str:
    return Checkpoint.capture("controller", service.tick - 1, service.state_dict()).to_json()


def _serve(seed: int, boundaries: common.Boundaries, ticks: int):
    """``run_service`` over ``ticks`` ticks.  Returns its start time, its
    result, the bootstrap and latest checkpoint files it left (name ->
    text), and its inputs."""
    config = _config(seed)
    specs = _specs(seed, config)
    boundaries.start()
    boundaries.served = []
    SCRATCH.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        began = time.perf_counter()
        result = run_service(
            specs,
            config=config,
            n_intervals=ticks,
            store=CheckpointStore(directory=directory),
        )
        files = {
            name: (directory / name).read_text()
            for name in (BOOTSTRAP, "latest.json")
        }
    finally:
        shutil.rmtree(directory)
        _tidy()
    return began, result, files, specs, config


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _setup_only(seed: int, boundaries: common.Boundaries) -> common.SetUp:
    """The service's set-up alone: ``run_service`` over no ticks."""
    began, _, files, _, _ = _serve(seed, boundaries, 0)
    return common.SetUp(boundaries.ends[0] - began, _sha(files[BOOTSTRAP]))


def _episode(seed: int, boundaries: common.Boundaries) -> common.Episode:
    began, result, files, specs, config = _serve(seed, boundaries, TICKS)
    latest = files["latest.json"]
    ends = np.array(boundaries.ends)
    sim_cost, sim_latency = common.served_sim(boundaries.served)

    runtimes = result.runtimes
    if boundaries.spans is not None:
        spans = boundaries.spans
        for runtime in runtimes:
            guard = runtime.scaler.guard.stats
            spans.count("executor.resize_failures", runtime.executor.total_failures)
            spans.count("executor.circuit_opens", runtime.executor.circuit_opens)
            spans.count("guard.quarantined", guard.quarantined)
            spans.count("guard.missed", guard.missed)
            spans.count("guard.discarded", guard.discarded)
            server = runtime.server
            spans.count(
                "faults.injected",
                server.dropped + server.delayed + server.duplicated
                + server.corrupted + server.skewed + server.failed_resizes
                + server.partial_resizes + server.failed_balloons,
            )
    failed = 0
    for runtime in runtimes:
        budget = runtime.scaler.budget
        if budget.spent > budget.budget + 1e-6 or budget.available < -1e-9:
            failed += 1
    digest = (
        tuple(
            (r.spec.tenant_id, tuple(r.containers), r.meter.total_cost,
             r.scaler.budget.spent)
            for r in runtimes
        ),
        _sha(latest),
    )
    return common.Episode(
        setup_s=ends[0] - began,
        setup_digest=_sha(files[BOOTSTRAP]),
        intervals_s=list(np.diff(ends)),
        tenants=TENANTS,
        failed_tenants=failed,
        sim_cost=sim_cost,
        sim_latency_p95_ms=sim_latency,
        digest=digest,
        outputs={"result": result, "specs": specs, "config": config, "latest": latest},
    )


def _container_mismatches(containers: dict, reference: dict) -> list[str]:
    return [
        f"{tenant}: service containers {containers[tenant]} != run_chaos "
        f"{reference[tenant]}"
        for tenant in reference
        if containers[tenant] != reference[tenant]
    ]


def _restore_problems(service: ControllerService, latest_text: str) -> list[str]:
    expected = _state_json(service)
    latest = Checkpoint.from_json(latest_text)
    if latest.to_json() != expected:
        return ["latest.json does not decode to the in-memory controller state"]
    service.restore(latest)
    if _state_json(service) != expected:
        return ["restoring latest.json does not reproduce the controller state"]
    return []


def verify(seed: int, episode: common.Episode) -> list[str]:
    """Sampled tenants against ``run_chaos``; latest.json against memory;
    plus self-tests that a flipped container and a corrupted checkpoint
    are both caught."""
    out = episode.outputs
    result, config = out["result"], out["config"]
    picked = np.random.default_rng([seed, 0x5E7]).choice(TENANTS, SAMPLE, replace=False)
    reference = {}
    for i in sorted(int(i) for i in picked):
        spec = out["specs"][i]
        batch = run_chaos(
            spec.workload, spec.trace, spec.schedule, config=config,
            goal=spec.goal, budget=spec.budget_factory(),
        )
        reference[spec.tenant_id] = list(batch.containers)
    containers = {r.spec.tenant_id: list(r.containers) for r in result.runtimes}
    problems = _container_mismatches(containers, reference)

    tenant = next(iter(reference))
    flipped = dict(containers)
    flipped[tenant] = [reference[tenant][0] + "?"] + reference[tenant][1:]
    if not _container_mismatches(flipped, reference):
        problems.append("self-test: a flipped container passed the check")

    problems += _restore_problems(result.service, out["latest"])
    corrupted = out["latest"].replace('"tick":', '"tick":1', 1)
    if corrupted == out["latest"] or not _restore_problems(result.service, corrupted):
        problems.append("self-test: a corrupted latest.json passed the check")
    return problems


def prepare(seed: int):
    # The bootstrap checkpoint ends set-up; then one checkpoint per tick.
    boundaries = common.Boundaries(1, TICKS)
    hooks = boundaries.hooks(ControllerService, "checkpoint")

    def episode(
        spans: Spans | None, setup_only: bool = False
    ) -> common.Episode | common.SetUp:
        boundaries.spans = spans
        if setup_only:
            return _setup_only(seed, boundaries)
        return _episode(seed, boundaries)

    return episode, hooks


def _tidy() -> None:
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # absent, or still holds another run's directory


def _count_actuation(spans: Spans):
    def after(args, report) -> None:
        if report.attempts > 0:
            spans.count("executor.requested")
            spans.count("executor.applied", int(report.succeeded))

    return after


def install(spans: Spans) -> None:
    spans.wrap(
        DatabaseServer, "run_interval_with_rates", "engine",
        after=common.engine_counter(spans),
    )
    spans.wrap(TenantRuntime, "step", "tenant.step")
    spans.wrap(ControllerService, "checkpoint", "service.checkpoint")
    spans.wrap(ControllerService, "state_dict", "service.state_dict")
    spans.wrap(Checkpoint, "capture", "checkpoint.capture")
    spans.wrap(CheckpointStore, "put", "checkpoint.put")
    spans.wrap(
        Checkpoint, "to_json", "checkpoint.encode",
        after=lambda args, text: spans.count("checkpoint.bytes", len(text)),
    )
    spans.wrap(Checkpoint, "from_json", "checkpoint.decode")
    spans.wrap(Checkpoint, "save", "checkpoint.write")
    spans.wrap(AutoScaler, "decide", "core.decide")
    spans.wrap(
        ResizeExecutor, "execute", "core.execute", after=_count_actuation(spans)
    )
    spans.wrap(
        Tracer, "emit", "trace.emit",
        after=lambda args, event: spans.count("trace.events"),
    )


TOP_LAYERS = ("tenant.step", "service.checkpoint")
