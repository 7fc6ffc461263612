"""Leftovers in the package source: imports nothing reads, and private
module-level names nothing references."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import kbranch

# __init__ too, so a name re-exported from the package top level fails
MODULES = sorted(Path(kbranch.__file__).parent.glob("*.py"))


def _loaded_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


# the nodes whose code runs in a scope of its own
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _scope_code(scope: ast.AST) -> list[ast.AST]:
    """The nodes of a scope's own code; a nested scope's node is listed, as
    its name binds here, but not entered."""
    code, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        code.append(node)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return code


def _imported(node: ast.AST) -> list[str]:
    if (not isinstance(node, (ast.Import, ast.ImportFrom))
            or getattr(node, "module", None) == "__future__"):
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _bound(code: list[ast.AST]) -> set[str]:
    """The names a scope's code binds (by assignment, argument, import or
    definition), less those it declares global or nonlocal."""
    declared = {n for node in code
                if isinstance(node, (ast.Global, ast.Nonlocal))
                for n in node.names}
    bound = {n.id for n in code if isinstance(n, ast.Name)
             and not isinstance(n.ctx, ast.Load)}
    bound |= {n.arg for n in code if isinstance(n, ast.arg)}
    bound |= {n.name for n in code if isinstance(n, (
        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    bound |= {n for node in code for n in _imported(node)}
    return bound - declared


def _unused_imports(tree: ast.Module) -> list[str]:
    """The imported names that no load reads.  A load reads the binding of
    the innermost enclosing scope that binds its name (by assignment,
    argument, import or definition, unless declared global or nonlocal
    there); a class body's bindings are seen by its own code alone."""
    imports, loads = [], set()

    def visit(scope, outer):
        code = _scope_code(scope)
        chain = [(scope, _bound(code)), *outer]
        for node in code:
            imports.extend((scope, n) for n in _imported(node))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(next((id(s), node.id) for s, names in chain
                               if node.id in names or s is tree))
            elif isinstance(node, _SCOPES):
                visit(node, chain[isinstance(scope, ast.ClassDef):])

    visit(tree, [])
    return [n for scope, n in imports if (id(scope), n) not in loads]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    # importing dataclasses loads inspect, ast, dis and tokenize, and each
    # decorated class execs new source: start-up cost for every CLI run
    modules = {(a.name if isinstance(node, ast.Import) else node.module or "")
               .split(".")[0] for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names}
    assert "dataclasses" not in modules


@pytest.mark.parametrize("source, unused", [
    ("from operator import sub\nx = [sub for sub in y]", ["sub"]),
    ("from operator import sub\nx = [sub(a, 1) for a in y]", []),
    ("from operator import sub\ndef f(sub): return sub", ["sub"]),
    ("from operator import sub\nf = lambda sub: sub", ["sub"]),
    ("from operator import sub\ndef f(y): return sub(y, 1)", []),
    ("import os\ndef f():\n    os = 1\n    return os", ["os"]),
    ("import os\ndef f():\n    global os\n    os = os.sep", []),
    ("import os\nclass C:\n    os = 1\n    def f(self): return os", []),
    ("import os.path\nos.path.join", []),
    ("from typing import Mapping\ndef f(x: Mapping): pass", []),
    ("def f():\n    import os\n    return os", []),
    ("def f():\n    import os\ndef g():\n    return os", ["os"]),
])
def test_shadowed_imports_are_found(source, unused):
    assert _unused_imports(ast.parse(source)) == unused


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


# the methods of list, dict and set that change their object in place
_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop",
             "clear", "add"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _root_name(node: ast.AST) -> str | None:
    """The name an expression such as x[k].attr[j] reaches through its
    subscripts and attributes, if it reaches one."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _global_mutations(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, name) for each module-level name that a function
    mutates: a subscript store or del reaching it, a call of one of
    _MUTATORS on it, or a global declaration of it.  Such state, a memo
    say, is unbounded and unseen by the cache checks.  A name counts as
    the module's where no enclosing function binds it; module-level code,
    which runs once at import, is not checked."""
    module, found = _bound(_scope_code(tree)), []

    def visit(scope, hidden, func):
        code = _scope_code(scope)
        if isinstance(scope, _FUNCTIONS):
            func = getattr(scope, "name", "<lambda>")
        if func is not None and not isinstance(scope, ast.ClassDef):
            hidden = hidden | _bound(code)
        for node in code:
            names = []
            if func is not None:
                if isinstance(node, ast.Subscript) and not isinstance(
                        node.ctx, ast.Load):
                    names = [_root_name(node)]
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS):
                    names = [_root_name(node.func.value)]
                elif isinstance(node, ast.Global):
                    names = node.names
            found.extend((func, n) for n in names
                         if n in module and n not in hidden)
            if isinstance(node, _SCOPES):
                visit(node, hidden, func)

    visit(tree, set(), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_mutates_module_state(path):
    assert _global_mutations(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("source, bad", [
    ("X = {}\ndef f(k): X[k] = 1", [("f", "X")]),
    ("X = {}\ndef f(k): X[k] += 1", [("f", "X")]),
    ("X = {}\ndef f(k): del X[k]", [("f", "X")]),
    ("X = {}\ndef f(k): X[k][0] = 1", [("f", "X")]),
    *[(f"X = {{}}\ndef f(v): X.{m}(v)", [("f", "X")]) for m in sorted(
        _MUTATORS)],
    ("X = []\nf = lambda v: X.append(v)", [("<lambda>", "X")]),
    ("X = []\ndef f(v): return [X.append(y) for y in v]", [("f", "X")]),
    ("X = {}\ndef f():\n    def g(k): X[k] = 1", [("g", "X")]),
    ("X = {}\ndef f():\n    global X\n    X = {}", [("f", "X")]),
    ("import os\ndef f(): os.environ['A'] = '1'", [("f", "os")]),
    ("X = {}\nclass C:\n    def m(self, k): X[k] = 1", [("m", "X")]),
    ("X = {}\ndef f(X, k): X[k] = 1", []),
    ("X = {}\ndef f(k):\n    X = {}\n    X[k] = 1", []),
    ("X = {}\ndef f():\n    X = {}\n    def g(k): X[k] = 1", []),
    ("X = {}\ndef f(k): return X.get(k), X[k]", []),
    ("X = {}\nX[1] = 2\nX.update(a=1)", []),
    ("def f(k):\n    y = {}\n    y[k] = 1\n    y.pop(k)", []),
    ("X = {}\nclass C:\n    def m(self, k): self.X[k] = 1", []),
])
def test_module_state_mutations_are_found(source, bad):
    assert _global_mutations(ast.parse(source)) == bad


# what reads the package besides the package itself: the benchmark
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench")
                   .glob("*.py"))
# entry points that run from outside: pyproject's [project.scripts]
ENTRY_POINTS = {"cli.main"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree: ast.Module):
    """(name, node, is a method) for the module-level functions and classes
    and the methods of its classes whose names are public."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f, True) for f in node.body
                        if isinstance(f, _FUNCTIONS)
                        and not f.name.startswith("_"))


def _references(trees: list[ast.Module]) -> dict[str, list]:
    """Each name a loaded Name, an attribute load or an imported name
    reads, to (whether by attribute, the ids of the definitions around it)
    per reference."""
    refs: dict[str, list] = {}
    todo = [(tree, frozenset()) for tree in trees]
    while todo:
        node, around = todo.pop()
        if isinstance(node, _DEFS):
            around = around | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.id, []).append((False, around))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            refs.setdefault(node.attr, []).append((True, around))
        elif isinstance(node, ast.alias):
            refs.setdefault(node.name.split(".")[-1], []).append(
                (False, around))
        todo.extend((child, around) for child in ast.iter_child_nodes(node))
    return refs


def _unreferenced(modules: dict[str, ast.Module],
                  readers: list[ast.Module] = ()) -> list[str]:
    """The public functions, classes and methods of the modules that no
    code reads outside their own bodies, in the modules or the readers; a
    method counts as read only through an attribute."""
    refs = _references([*modules.values(), *readers])
    return [f"{stem}.{name}" for stem, tree in modules.items()
            for name, node, method in _public_definitions(tree)
            if not any((attr or not method) and id(node) not in around
                       for attr, around in refs.get(name.split(".")[-1],
                                                    ()))]


def test_every_public_name_is_referenced():
    unread = _unreferenced({p.stem: ast.parse(p.read_text()) for p in MODULES},
                           [ast.parse(p.read_text()) for p in PERFBENCH])
    assert [n for n in unread if n not in ENTRY_POINTS] == []


@pytest.mark.parametrize("source, unread", [
    ("def f(): pass", ["m.f"]),
    ("def f(): return f()", ["m.f"]),
    ("def f(): pass\ndef g(): return f", ["m.g"]),
    ("def f(): pass\nx = f()", []),
    ("class C:\n    def run(self): return self.run()", ["m.C", "m.C.run"]),
    ("class C:\n    def run(self): pass\nprint(C, run)", ["m.C.run"]),
    ("class C:\n    def run(self): pass\nC().run()", []),
    ("class C:\n    def _run(self): pass\nC", []),
    ("def _f(): pass", []),
    ("async def f(): pass\nfrom m import f", []),
    ("def f(): pass\nclass C:\n    def g(self): return f\nC", ["m.C.g"]),
    ("import m\nm.f\ndef f(): pass", []),
    ("def f(): pass\n'f'", ["m.f"]),
])
def test_unreferenced_names_are_found(source, unread):
    assert _unreferenced({"m": ast.parse(source)}) == unread


def _attribute_reads(tree: ast.Module, attr: str) -> list[int]:
    """The lines on which the source reads an attribute of this name."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load) and n.attr == attr)


def _row_lookups(tree: ast.Module) -> list[int]:
    """The lines on which the source reads the index method of a name or an
    attribute called rows."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "index"
                  and "rows" in (getattr(n.value, "attr", None),
                                 getattr(n.value, "id", None)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_characters_reads_the_z_row_index(path):
    # Z' exponents name a character through ZCharTable.index alone
    reads = _row_lookups(ast.parse(path.read_text()))
    assert path.stem == "characters" or reads == []


@pytest.mark.parametrize("source, lines", [
    ("t.rows.index(r)", [1]),
    ("x = 1\ni = g.hm.ztable.rows.index", [2]),
    ("rows.index(r)", [1]),
    ("t.index(r)", []),
    ("t.rows[i].index(r)", []),
    ("t.rows.count(r)", []),
])
def test_row_lookups_are_found(source, lines):
    assert _row_lookups(ast.parse(source)) == lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_reaches_into_an_instance_dict(path):
    # a built record keeps all of its state in its fields
    assert re.findall(r"\bvars\(|__dict__", path.read_text()) == []


def test_cli_sizes_no_table():
    # branching plans each scan of a table, and so sizes and caps it: the
    # CLI reads none of what a scan's size depends on
    tree = ast.parse((MODULES[0].parent / "cli.py").read_text())
    assert [line for attr in ("blattner_applies", "fibres", "k_roots")
            for line in _attribute_reads(tree, attr)] == []


def _named_caps_and_numbers(tree: ast.Module) -> tuple[list, set]:
    """The MAX_* names the source reads, imports or binds, and its numeric
    literals."""
    names = [getattr(n, "id", None) or getattr(n, "attr", None) or n.name
             for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute, ast.alias))]
    return ([n for n in names if n.split(".")[-1].startswith("MAX_")],
            {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
             and type(n.value) in (int, float)})


def test_cli_names_no_cap_and_no_dirac_default():
    # branching owns every cap of a table and verify the defaults of verify
    # dirac: the CLI parses and prints, deciding neither
    from kbranch.verify import suite_dirac
    caps, numbers = _named_caps_and_numbers(
        ast.parse((MODULES[0].parent / "cli.py").read_text()))
    defaults = [p.default for p in
                inspect.signature(suite_dirac).parameters.values()]
    assert defaults == [8.0, 0.05, 1e-6]
    assert caps == [] and numbers.isdisjoint(defaults)


@pytest.mark.parametrize("source, caps, numbers", [
    ("from .branching import MAX_WINDOW", ["MAX_WINDOW"], set()),
    ("import m\nm.MAX_BOX + 1", ["MAX_BOX"], {1}),
    ("MAX_X = 2", ["MAX_X"], {2}),
    ("f(8.0, h=0.05, tol=1e-6)", [], {8.0, 0.05, 1e-6}),
    ("x = 'MAX_WINDOW'  # 8.0", [], set()),
])
def test_caps_and_numbers_are_found(source, caps, numbers):
    assert _named_caps_and_numbers(ast.parse(source)) == (caps, numbers)


@pytest.mark.parametrize("source, lines", [
    ("t.index_of[r]", [1]),
    ("x = 1\ni = g.hm.ztable.index_of", [2]),
    ("f(t.index_of.get(r))", [1]),
    ("t.index_of = {}", []),
    ("index_of = {}\nindex_of[r]", []),
    ("t.index(r)", []),
])
def test_attribute_reads_are_found(source, lines):
    assert _attribute_reads(ast.parse(source), "index_of") == lines


def test_cli_resolves_no_group_name():
    # groups.builtin_group looks a builtin up and words its refusal: the CLI
    # neither reads the data directory nor lists the builtins itself
    tree = ast.parse((MODULES[0].parent / "cli.py").read_text())
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or n.name
             for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
    assert names.isdisjoint({"data_dir", "builtin_group_names"})


def _literals_naming(tree: ast.Module, names, spared=()) -> list[str]:
    """The string literals of the source that contain one of the names,
    less those equal to a spared string."""
    return [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and isinstance(n.value, str) and n.value not in spared
            and any(name in n.value for name in names)]


def test_cli_lists_no_builtin_group():
    # the data directory is the one list of builtins, and the refusal of a
    # missing one prints it: no help or message of the CLI repeats it.  A
    # verify suite may share a group's name (su21): that literal names the
    # suite
    from kbranch.groups import _BUILTIN_DIR
    from kbranch.verify import SUITES
    shipped = [p.stem for p in _BUILTIN_DIR.glob("*.json")]
    tree = ast.parse((MODULES[0].parent / "cli.py").read_text())
    assert shipped and _literals_naming(tree, shipped, SUITES) == []


@pytest.mark.parametrize("source, found", [
    ("f(help='builtin name (su21)')", ["builtin name (su21)"]),
    ("SUITES = ('sl2', 'su21')", []),
    ("x = 'a group-data file path'", []),
    ("'''Run su21.'''", ["Run su21."]),
    ("su21 = 1", []),
])
def test_literals_naming_are_found(source, found):
    assert _literals_naming(ast.parse(source), ["su21"], {"su21"}) == found


_WINDOW = re.compile(r"(^|_)window$")


def _window_refusals(tree: ast.Module) -> list[str]:
    """The functions that raise under an if whose test compares a window: a
    name or attribute called window or ending in _window."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _scope_code(func):
            if not isinstance(node, ast.If) or not any(
                    isinstance(n, ast.Raise) for stmt in node.body
                    for n in ast.walk(stmt)):
                continue
            compared = {getattr(n, "id", None) or getattr(n, "attr", None)
                        for c in ast.walk(node.test)
                        if isinstance(c, ast.Compare) for n in ast.walk(c)}
            if any(_WINDOW.search(n) for n in compared if n):
                found.append(func.name)
                break
    return found


def test_branching_alone_refuses_a_window():
    # branching._check_window refuses every window of a table, the SL(2,R)
    # oracle's and the cylinder's weight window too
    refusals = {p.stem: _window_refusals(ast.parse(p.read_text()))
                for p in MODULES if p.stem != "branching"}
    assert {m: f for m, f in refusals.items() if f} == {}


@pytest.mark.parametrize("source, funcs", [
    ("def f(window):\n    if window < 0:\n        raise ValueError", ["f"]),
    ("def f(w):\n    if type(w.weight_window) is not int:\n"
     "        raise ValueError", ["f"]),
    ("def f(window):\n    if window < 0:\n        return None", []),
    ("def f(out_of_window):\n    if out_of_window:\n        raise ValueError",
     []),
    ("def f(windows):\n    if windows < 0:\n        raise ValueError", []),
    ("def f(window):\n    if window < 0:\n        pass\n"
     "    else:\n        raise ValueError", []),
    ("def f(n):\n    def g(window):\n        if window > 64:\n"
     "            raise ValueError\n    return g", ["g"]),
])
def test_window_refusals_are_found(source, funcs):
    assert _window_refusals(ast.parse(source)) == funcs


def _reads(scope: ast.AST) -> set[str]:
    """The names a scope's code reads, by a load or an augmented
    assignment, its nested scopes' reads of names they do not bind
    included."""
    code = _scope_code(scope)
    reads = {n.id for n in code
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    reads |= {n.target.id for n in code if isinstance(n, ast.AugAssign)
              and isinstance(n.target, ast.Name)}
    for node in code:
        if isinstance(node, _SCOPES):
            reads |= _reads(node) - _bound(_scope_code(node))
    return reads


def _unread_parameters(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter its function never reads.
    A method's first parameter is spared: the call binds it, and a dunder
    method such as __hash__ takes it whether it reads it or not."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, _FUNCTIONS)}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, _FUNCTIONS):
            continue
        a = func.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg,
                                  *a.kwonlyargs, a.kwarg) if p]
        reads = _reads(func)
        found += [(getattr(func, "name", "<lambda>"), p)
                  for p in params[id(func) in methods:] if p not in reads]
    return found


# perfbench/workloads.py passes it; it goes with ktype_table_series
_UNREAD_KEPT = {("branching", "ktype_table_series", "restrictions")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    unread = {(path.stem, *f) for f in
              _unread_parameters(ast.parse(path.read_text()))}
    assert unread - _UNREAD_KEPT == set()


@pytest.mark.parametrize("source, unread", [
    ("def f(x, y): return x", [("f", "y")]),
    ("def f(x, *args, k=1, **kw): return x", [
        ("f", "args"), ("f", "k"), ("f", "kw")]),
    ("def f(x, /, y): return y", [("f", "x")]),
    ("f = lambda x, y: y", [("<lambda>", "x")]),
    ("def f(x):\n    x = 1\n    return x", []),
    ("def f(x):\n    x += 1", []),
    ("def f(x):\n    def g(): return x\n    return g", []),
    ("def f(x):\n    return [x for _ in y]", []),
    ("def f(x):\n    def g(x): return x\n    return g", [("f", "x")]),
    ("def f(x):\n    return [x for x in y]", [("f", "x")]),
    ("def f(x):\n    def g(k=x): return k\n    return g", []),
    ("class C:\n    def __hash__(self): return 0", []),
    ("class C:\n    def m(self, x): return self", [("m", "x")]),
    ("def f(self): return 0", [("f", "self")]),
])
def test_unread_parameters_are_found(source, unread):
    assert _unread_parameters(ast.parse(source)) == unread


def _readers(tree: ast.Module, name: str) -> list[str]:
    """The innermost function around each read of a name, or each use, read
    or write, of an attribute of that name; <module> for one outside every
    function."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id == name) or (isinstance(node, ast.Attribute)
                                         and node.attr == name):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_evaluate_alone_reads_a_chamber_table():
    # an oracle is a chamber table read at signed offsets: _evaluate is the
    # one function of any module that reads or grows a chamber's tables
    readers = {p.stem: _readers(ast.parse(p.read_text()), "tables")
               for p in MODULES}
    assert {m: r for m, r in readers.items() if r} == {
        "branching": ["_evaluate", "_evaluate"]}


@pytest.mark.parametrize("source, readers", [
    ("def f():\n    return _table(c)", ["f"]),
    ("def f():\n    g = _table\n    return [_table(x) for x in y]",
     ["f", "f"]),
    ("def f():\n    def g(): return _table()\n    return g", ["g"]),
    ("t = _table", ["<module>"]),
    ("def _table(c): return c\nx.tables = 1", []),
    ("def f(): return m._table(c)", ["f"]),
])
def test_readers_are_found(source, readers):
    assert _readers(ast.parse(source), "_table") == readers


@pytest.mark.parametrize("source, readers", [
    ("def f():\n    return c.tables.get(m)", ["f"]),
    ("def f():\n    c.tables[m] = t\n    return [x.tables for x in y]",
     ["f", "f"]),
    ("def f(c): c.tables = 1", ["f"]),
    ("def tables(c): return c", []),
])
def test_attribute_uses_are_found(source, readers):
    assert _readers(ast.parse(source), "tables") == readers


# the lines of src/kbranch/*.py, as `cat src/kbranch/*.py | wc -l` counts
# them: a change that shrinks the source lowers it, and one that grows it
# says why
SRC_LINES = 2976


def test_source_is_within_its_line_budget():
    assert sum(p.read_bytes().count(b"\n") for p in MODULES) <= SRC_LINES
