"""Every name a ``qmetro`` module binds with a top-level import is used there or exported."""

import ast
import pathlib

import pytest

import qmetro

SOURCES = sorted(pathlib.Path(qmetro.__file__).parent.glob("*.py"))


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # `a.b` reads the name `a`, which ast.walk already reports as a Name
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used | exported]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_import(path):
    assert not unused_imports(path), f"{path.name} imports names it never uses"
