"""Every name a ``qmetro`` module binds with a top-level import is used there or exported,
every ``qmetro`` module imports only from the layers below its own, and none imports scipy."""

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


# each layer imports only from the layers before it; the modules of one layer never import each other
LAYERS = [
    ("qubit_core",),
    ("channel_model",),
    ("fisher_info",),
    ("protocols", "bounds"),
    ("cli",),
    ("__init__", "__main__"),
]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def imported_modules(path: pathlib.Path) -> set[str]:
    """The ``qmetro`` modules ``path`` imports, at top level or inside a function."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module.split(".")[0]] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qmetro":
            parts = node.module.split(".")
            out.update(parts[1:2] if len(parts) > 1 else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("qmetro."))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_follow_layers(path):
    assert path.stem in RANK, f"{path.name} has no layer"
    late = sorted(m for m in imported_modules(path) if RANK.get(m, len(LAYERS)) >= RANK[path.stem])
    assert not late, f"{path.name} imports {late}, which are not in an earlier layer"


def scipy_imports(path: pathlib.Path) -> list[int]:
    """Lines of ``path`` that import scipy or one of its modules, at top level or inside a function."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_scipy_import(path):
    assert not scipy_imports(path), f"{path.name} imports scipy; qmetro runs on numpy alone"


def test_scipy_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy\nfrom scipy.optimize import minimize\n\ndef f():\n    import scipy.linalg\n")
    assert scipy_imports(probe) == [2, 5]
