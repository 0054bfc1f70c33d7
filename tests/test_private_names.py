"""Every name a ``qmetro`` module defines has a reader.

A top-level private name is read by some ``qmetro`` module.  A public name, one in a module's
``__all__``, is read by a ``qmetro`` module, a ``perfbench`` script or the README's code, or is on
:data:`ALLOWED` with its reason; test-only helpers live in ``tests/oracles.py``.  So is a public
method or property of a ``qmetro`` class (dataclass fields are data, not methods).
"""

import ast
import pathlib
import re

import qmetro

SOURCES = sorted(pathlib.Path(qmetro.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent

# public names kept with no reader in src/, perfbench/ or the README
ALLOWED = {
    "apply_kraus": "perfbench/tracer.py names it in TRACED and wraps it by getattr",
    "povm_fi": "perfbench/tracer.py names it in TRACED and wraps it by getattr",
    "qfi_state": "perfbench/tracer.py names it in TRACED and wraps it by getattr",
    "sld": "a state functional, API beside qfi_state",
    "bures_distance": "a state functional, API beside qfi_state",
    "contractive_bound": "the paper's ceiling for strictly contractive channels (criterion 7)",
    "serialize_config": "the writer of the config grammar, which carries its round-trip contract",
}


def private_definitions(tree: ast.Module) -> dict:
    """The top-level functions, classes and constants named with one leading underscore, by line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_") and not name.id.startswith("__"):
                    defined[name.id] = node.lineno
    return defined


def reads(tree: ast.Module) -> set:
    """The names ``tree`` loads, bare or as attributes, outside the definition that binds each."""
    out = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(top, "name", None))  # a recursive call does not count as a read
        out |= names
    return out


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set().union(*(reads(tree) for tree in trees.values()))
    unread = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]
    assert not unread, f"private names no qmetro module reads: {unread}"


def exported(tree: ast.Module) -> list:
    """The names in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def outside_readers() -> set:
    """The names the ``perfbench`` scripts and the README's code read."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # the README reads the identifiers in its code blocks and code spans, not the words of its prose
    outside = set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))))
    for script in (ROOT / "perfbench").glob("*.py"):
        outside |= reads(ast.parse(script.read_text(encoding="utf-8")))
    return outside


def test_every_public_name_has_a_reader():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    outside = outside_readers()
    public = {name: module for module, tree in trees.items() for name in exported(tree)}
    # a definition nothing reads is no reader of the names it uses: drop it until none is left
    unread = set()
    while True:
        read = outside.union(
            *(reads(ast.Module([top for top in tree.body if getattr(top, "name", None) not in unread], []))
              for tree in trees.values())
        )
        found = {name for name in public if name not in read and name not in ALLOWED}
        if found == unread:
            break
        unread = found
    assert not unread, f"public names with no reader: {sorted(f'{public[n]} {n}' for n in unread)}"
    stale = sorted(name for name in ALLOWED if name not in public or name in read)
    assert not stale, f"allow-listed names that are not exported or that have a reader: {stale}"


def test_every_public_method_has_a_reader():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = outside_readers().union(*(reads(tree) for tree in trees.values()))
    unread = [
        f"{module}:{node.lineno} {cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read
    ]
    assert not unread, f"public methods with no reader: {unread}"
