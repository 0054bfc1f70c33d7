#!/usr/bin/env python3
"""Benchmark for qmetro: four closed-loop workloads, one caller, no concurrency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: ``scan``, ``channel_qfi``, ``sequential_bound``, ``census`` (see
``perfbench/README.md``).  Each run starts fresh interpreters with the
BLAS/OpenMP thread variables pinned to 1 and ``QMETRO_THREADS`` unset: two
that only set up (import and input generation), and one that sets up and then
runs the workload's fixed task list round after round for about
``--seconds``.  ``setup_s`` is the median of the three set-ups.

Every task is timed by wall clock and by process CPU time.  The gated
metrics use CPU time, because on a shared virtual machine the wall clock also
counts time the hypervisor gives to other tenants; the wall-clock figures are
printed beside them.

The output is one line per metric with its unit and sample count, then, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(from wrappers installed around the library's public functions, see
``tracer.py``) with ``--trace 1``.  Exits non-zero without a result when the
checkout holds no ``src/qmetro`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "channel_qfi", "sequential_bound", "census")
SETUPS = 3  # interpreters whose set-up time is measured; the median is reported
P90_MIN_SAMPLES = 100  # task_p90_ms needs ten samples beyond it
RUN_BUDGET_S = 170.0  # every worker must have ended by then
SETUP_TIMEOUT_S = 40.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("QMETRO_THREADS", None)
    for var in PINNED:
        env[var] = "1"
    return env


def _worker(args, mode: str, workdir: str, timeout: float) -> dict:
    result = os.path.join(workdir, f"result_{mode}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--workdir", workdir, "--result", result,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=_worker_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _list_time(rounds, clock: str) -> float:
    """Time of the fixed task list: each task's median over the rounds, summed.

    A burst of host noise that slows one task in one round drops out, where a
    median of the round sums would keep it whenever it hit most rounds.
    """
    return sum(statistics.median(per_task) for per_task in zip(*(r[clock] for r in rounds)))


def _by_kind(labels, rounds) -> dict:
    """Task latencies grouped by label with the trailing task number removed."""
    kinds = {}
    for r in rounds:
        for label, value in zip(labels, r["latencies"]):
            kinds.setdefault(label.partition("#")[0], []).append(value)
    return kinds


def _report(args, setups, run) -> dict:
    digests = {s["digest"] for s in setups} | {run["digest"]}
    plain = [r for r in run["rounds"] if not r["traced"]]
    latencies = [x for r in plain for x in r["latencies"]]
    attempted = sum(len(r["latencies"]) for r in run["rounds"])
    failed = len(run["failures"])
    check = run["self_check"]
    problems = list(run["wrong"])
    if len(digests) != 1:
        problems.append(f"interpreters generated different inputs: {sorted(digests)}")
    if check["wrappers_in_untraced_rounds"] or check["attributes_not_restored"]:
        problems.append(f"tracer self-check failed: {check}")
    if args.trace and (check["spans_outside_tasks"] or not check["attributes_wrapped"]):
        problems.append(f"tracer self-check failed: {check}")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={run['digest']} rounds={len(run['rounds'])} tasks_per_round={run['tasks_per_round']}")
    print("machine " + json.dumps(run["machine"], sort_keys=True))
    lines = []
    if args.trace:
        traced = [r for r in run["rounds"] if r["traced"]]
        metrics = dict(run["per_layer"])
        metrics["trace.overhead_frac"] = _list_time(traced, "cpu") / _list_time(plain, "cpu") - 1.0
        units = per_layer_units()
        lines.append(f"# per-layer values are per round, over {len(traced)} traced rounds")
        lines += [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in units.items()]
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        cpu_s, wall_s = _list_time(plain, "cpu"), _list_time(plain, "latencies")
        setup = statistics.median(s["setup_s"] for s in setups)
        setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
        cpu = [x for r in plain for x in r["cpu"]]
        p50_cpu, p50 = statistics.median(cpu) * 1e3, statistics.median(latencies) * 1e3
        out = {
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "task_cpu_p50_ms": {"value": p50_cpu, "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        n = len(latencies)
        lines.append(f"cpu_s = {cpu_s:.6g} s (CPU time of the task list: per-task medians over {len(plain)} rounds)")
        lines.append(f"wall_s = {wall_s:.6g} s (wall time of the task list, same estimator)")
        lines.append(f"setup_s = {setup:.6g} s (CPU time to first task, median of {len(setups)} interpreters)")
        lines.append(f"setup_wall_s = {setup_wall:.6g} s (wall time to first task, same median)")
        lines.append(f"task_cpu_p50_ms = {p50_cpu:.6g} ms (n={n})")
        lines.append(f"task_p50_ms = {p50:.6g} ms (wall, n={n})")
        if n >= P90_MIN_SAMPLES:
            lines.append(f"task_cpu_p90_ms = {_quantile(cpu, 0.9) * 1e3:.6g} ms (n={n})")
            lines.append(f"task_p90_ms = {_quantile(latencies, 0.9) * 1e3:.6g} ms (wall, n={n})")
        lines.append(f"peak_rss_mb = {run['peak_rss_mb']:.6g} MB")
        for kind, values in _by_kind(run["labels"], plain).items():
            lines.append(f"# task {kind}: median {statistics.median(values) * 1e3:.6g} ms (n={len(values)})")
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for msg in run["failures"][:10]:
        lines.append(f"# failed: {msg}")
    for msg in problems[:10]:
        lines.append(f"# incorrect: {msg}")
    print("\n".join(lines))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qmetro", "__init__.py")):
        print(f"perfbench: no qmetro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=scratch)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = [_worker(args, "setup", workdir, SETUP_TIMEOUT_S) for _ in range(SETUPS - 1)]
        run = _worker(args, "run", workdir, max(deadline - time.monotonic(), 1.0))
        result = _report(args, setups + [run], run)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
