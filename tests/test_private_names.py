"""Every top-level private name a ``qmetro`` module defines is read by some ``qmetro`` module."""

import ast
import pathlib

import qmetro

SOURCES = sorted(pathlib.Path(qmetro.__file__).parent.glob("*.py"))


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
