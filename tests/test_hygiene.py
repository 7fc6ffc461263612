"""Leftovers in the package source: imports nothing reads, and private
module-level names nothing references."""

import ast
from pathlib import Path

import pytest

import kbranch

# __init__ too, so a name re-exported from the package top level fails
MODULES = sorted(Path(kbranch.__file__).parent.glob("*.py"))


def _loaded_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _loaded_names(tree)
    imported = [(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names]
    assert [n for n in imported if n not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_referenced(path):
    tree = ast.parse(path.read_text())
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            defined += [n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    private = [n for n in defined if n.startswith("_")
               and not n.startswith("__")]
    used = _loaded_names(tree)
    assert [n for n in private if n not in used] == []


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """The functools cache decorators that name no finite integer maxsize:
    functools.cache, a bare lru_cache, and lru_cache(maxsize=None)."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name == "cache":
                bad.append(node.name)
            elif name == "lru_cache":
                sizes = [] if call is None else call.args[:1] + [
                    k.value for k in call.keywords if k.arg == "maxsize"]
                if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                        and type(sizes[0].value) is int
                        and sizes[0].value > 0):
                    bad.append(node.name)
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_cache_is_bounded(path):
    assert _unbounded_caches(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("source, bad", [
    ("@functools.cache\ndef f(x): pass", ["f"]),
    ("@cache\ndef f(x): pass", ["f"]),
    ("@lru_cache(maxsize=None)\ndef f(x): pass", ["f"]),
    ("@functools.lru_cache(None)\ndef f(x): pass", ["f"]),
    ("@lru_cache\ndef f(x): pass", ["f"]),
    ("@lru_cache()\ndef f(x): pass", ["f"]),
    ("@lru_cache(maxsize=SIZE)\ndef f(x): pass", ["f"]),
    ("@lru_cache(maxsize=4)\ndef f(x): pass", []),
    ("@functools.lru_cache(64)\ndef f(x): pass", []),
])
def test_unbounded_caches_are_found(source, bad):
    assert _unbounded_caches(ast.parse(source)) == bad
