"""One workload run in a fresh interpreter; started by ``run.py``, not by hand.

``--mode setup`` imports ``qmetro`` from the checkout's ``src/``, generates
the workload's inputs and reports the CPU time this process has used so far,
and the wall time since ``--t0`` (a ``time.monotonic`` reading the parent
took just before starting this process).  ``--mode run`` does the same and
then runs the fixed task list round after round, closed loop, for about
``--seconds``, timing every task by wall clock and by process CPU time.  With
``--trace 1`` the rounds alternate untraced and traced so the tracing overhead
is measured in the same process.  The result is written as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_qmetro():
    sys.path.insert(0, SRC)
    import qmetro
    from qmetro import bounds, channel_model, cli, fisher_info, protocols, qubit_core  # noqa: F401

    where = os.path.dirname(os.path.abspath(qmetro.__file__))
    if where != os.path.join(SRC, "qmetro"):
        raise SystemExit(f"qmetro imported from {where}, not from {SRC}")
    return qmetro


def _machine() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def _run_round(workload, tracer, round_no):
    """Run every task once, back to back; returns wall and CPU latencies and failures."""
    latencies, cpu, failures, wrong = [], [], [], []
    for i, task in enumerate(workload.tasks):
        if tracer is not None:
            tracer.begin_task((round_no, i))
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = task.run()
            error = None
        except workloads.Raised as exc:
            error = f"{task.label}: {exc}"
        except Exception as exc:  # a program error fails the task, never the run
            error = f"{task.label}: {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        if tracer is not None:
            tracer.end_task()
        if error is not None:
            failures.append(error)
            continue
        try:
            message = task.check(result)
        except Exception as exc:  # unreadable output is a wrong answer, not a harness crash
            message = f"{task.label}: output check raised {type(exc).__name__}: {exc}"
        if message is not None:
            failures.append(message)
            wrong.append(message)
        elif tracer is not None and task.out_path is not None:
            tracer.count("cli.rows_written", workloads.data_rows(task.out_path))
    return latencies, cpu, failures, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    qm = _import_qmetro()
    workload = workloads.build(args.workload, args.seed, args.workdir, qm)
    result = {
        "setup_s": time.process_time(),  # CPU time since the process started
        "setup_wall_s": time.monotonic() - args.t0,
        "digest": workload.digest,
        "tasks_per_round": len(workload.tasks),
    }
    if args.mode == "setup":
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    leaked = tracing.installed_wrappers()  # an untraced run must never see a wrapper
    tracer = tracing.Tracer() if args.trace else None
    rounds = []
    failures, wrong = [], []
    restore_errors = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            lat, cpu, fail, bad = _run_round(workload, tracer if traced else None, len(rounds))
        finally:
            if traced:
                restore_errors += tracer.uninstall()
        if traced:
            tracer.fold()
        else:
            leaked += tracing.installed_wrappers()
        rounds.append({"traced": traced, "clock_s": time.perf_counter() - t0, "latencies": lat, "cpu": cpu})
        failures += fail
        wrong += bad
        elapsed = time.perf_counter() - start
        next_round = statistics.median(r["clock_s"] for r in rounds)
        need_traced = tracer is not None and not any(r["traced"] for r in rounds)
        if not need_traced and elapsed + next_round > args.seconds:
            break

    result.update(
        labels=[task.label for task in workload.tasks],
        machine=_machine(),
        rounds=rounds,
        failures=failures,
        wrong=wrong,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        self_check={
            "wrappers_in_untraced_rounds": sorted(set(leaked)),
            "attributes_not_restored": sorted(set(restore_errors)),
            "spans_outside_tasks": tracer.orphans if tracer is not None else 0,
            "attributes_wrapped": tracer.wrapped if tracer is not None else 0,
        },
    )
    if tracer is not None:
        traced_rounds = sum(r["traced"] for r in rounds)
        result["per_layer"] = tracer.metrics(traced_rounds)
        result["traced_rounds"] = traced_rounds
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
