"""The README's library quick start runs verbatim and gives what its comments state."""

import ast
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> tuple[dict, dict]:
    """Run the ``## Library quick start`` block; its namespace and the value of each bare
    expression, keyed by the name of the function the expression starts with."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", text, re.S | re.M).group(1)
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            key = ast.get_source_segment(block, stmt.value).split("(")[0]
            values[key] = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    return namespace, values


def test_quick_start_gives_what_its_comments_state():
    namespace, values = quick_start()
    assert values["hnks_check"] is True
    # 4 (1-2p)^2 n^2 at p = 0.1, n = 100; the logical 7x7 power lands on it exactly
    assert values["qec_repetition_sim"] == pytest.approx(25600.0, rel=1e-12)
    # QFI per use at n = 10^4 sits 3.6e-4 below its n -> infinity limit
    asymptotic = namespace["sql_asymptotic"](namespace["fam"], 0.01)
    assert values["sql_protocol"] == pytest.approx(asymptotic, rel=1e-3)
    # the certified value is 3.9999999999999996, with a duality gap of 1.3e-15
    assert values["channel_qfi_ancilla"] == pytest.approx(4.0, rel=1e-12)
