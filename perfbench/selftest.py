#!/usr/bin/env python3
"""Self-test of the benchmark's tracer; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks that an untraced interpreter holds no wrapper, that installing the
tracer wraps a function in every namespace that binds it, that spans opened
on the CLI's worker threads are charged to the task that caused them, and
that uninstalling puts every original object back.  Exits 0 when all hold.
"""

from __future__ import annotations

import os
import sys
import tempfile

import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qmetro import bounds, cli, protocols, qubit_core

    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    expect(not tracing.installed_wrappers(), "an untraced interpreter holds a wrapper")
    originals = {mod: vars(mod).copy() for mod in tracing.package_modules()}
    ptm = qubit_core.ptm_from_kraus

    tracer = tracing.Tracer()
    tracer.install()
    for mod in (qubit_core, cli, bounds, protocols):
        expect(mod.ptm_from_kraus is not ptm, f"{mod.__name__}.ptm_from_kraus not wrapped")
    expect(getattr(protocols.qfi_bloch, tracing.MARKER, None) == ("fisher_info", "qfi_bloch"),
           "protocols.qfi_bloch not wrapped as fisher_info.qfi_bloch")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tracer.begin_task("figure2")
        code = cli.main(["figure2", "--n-max", "5", "--threads", "2", "--out", os.path.join(tmp, "f.csv")])
        tracer.end_task()
    expect(code == 0, f"figure2 exited {code}")
    restore_errors = tracer.uninstall()
    roots = tracer._roots
    expect([r.key for r in roots] == [("cli", "main")], f"root spans {[r.key for r in roots]}, want cli.main only")
    expect(roots and {c.key[0] for c in roots[0].children} == {"protocols"},
           "worker-thread spans are not children of the cli.main span")
    tracer.fold()
    metrics = tracer.metrics(1)

    expect(not restore_errors, f"attributes not restored: {restore_errors}")
    for mod, before in originals.items():
        for attr, obj in before.items():
            expect(vars(mod).get(attr) is obj, f"{mod.__name__}.{attr} is not the original object")
    expect(not tracing.installed_wrappers(), "a wrapper survived uninstall")
    expect(tracer.orphans == 0, f"{tracer.orphans} spans outside the task")
    expect(metrics["cli.main.calls"] == 1, "cli.main not counted once")
    expect(metrics["protocols.simulate_sequence.calls"] == 25, "worker-thread spans lost")
    # per row n: three SPAM curves of n steps, one interval of 6, the no-control run of n
    expect(metrics["protocols.channel_steps"] == sum(4 * n + 6 for n in range(1, 6)),
           "protocols.channel_steps miscounted")

    for line in failures:
        print(f"selftest: FAIL {line}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
