"""Repo benchmark: closed-loop fleet workloads with exact output oracles.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_decide --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps the program's layer entry points (from this
process — the program is not edited) and reports per-layer metrics plus
the tracing overhead.  Either way the run's outputs are checked against
the workload's exact oracle before any number is printed; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--workload all`` runs each workload in its
own fresh process and prints a table.

Inputs are generated from ``--seed`` only; the program is imported from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One process, one thread: keep any native pool from spawning workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_decide", "fleet_chaos", "serve_checkpoint")


def _import_program() -> None:
    """Put the checkout's ``src/`` and this directory on the import path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: the program's sources are missing ({src / 'repro'}); "
            "run from a full checkout"
        )
    sys.path[:0] = [str(src), str(HERE)]


def _result(correct: bool, episodes, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": sum(e.tenants for e in episodes),
        "failed": sum(e.failed_tenants for e in episodes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import importlib

    common = importlib.import_module("common")
    module = importlib.import_module(workload)
    plain, traced, setups, spans, problems = common.run_workload(
        module, seed, seconds, trace
    )
    episodes = plain + traced
    if trace:
        metrics = common.layer_metrics(spans, plain, traced, module.TOP_LAYERS)
    else:
        metrics = common.end_to_end(episodes, setups)
        samples = sum(len(e.intervals_s) for e in episodes)
        print(
            f"{workload}: {len(episodes)} episodes, {samples} interval samples "
            f"(p50 and p90 are over these), {episodes[0].tenants} tenants, "
            f"{len(episodes) + len(setups)} set-up samples"
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps(_result(not problems, episodes, metrics)))
    return 1 if problems else 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; a table of every metric."""
    status = 0
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "1" if trace else "0",
            ],
            capture_output=True,
            text=True,
            timeout=600,
            check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows[workload] = result
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(rows))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
