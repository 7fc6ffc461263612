"""List each statement of src/kbranch that the test suite never runs, and
each raise statement it never runs or runs only under a private entry point.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/raise_coverage.py -q

The tests run in this process under sys.settrace, which records the lines
of src/kbranch that run.  A statement is the lines of a simple statement,
or the header of a compound one (its decorators through the line before
its body); it counts where one of those lines is in the line table of the
compiled module, so docstrings and the like do not, and it ran where one
of them ran.  Each statement none of whose lines ran is printed as
file:line.  So is each ast.Raise none of whose lines ran, and each raise
that ran, but only where the outermost src/kbranch frame of every hit is a
private function (a leading underscore, not a dunder such as __new__): no
caller of the package's API reaches it.

A test that runs Python in a child process is followed: while the tests
run, subprocess.Popen puts a temporary sitecustomize.py first on each
child's PYTHONPATH (over the env the test passes), which imports this file
and traces the child the same way (follow_child), writing its lines and
hits out at exit; they are merged with this process's.  The raises that
only a child reaches are listed apart.

KEPT names, by file and enclosing function, the statements kept on purpose
although no test runs them, and the raises kept as internal invariants
although only a private entry point reaches them, each with its reason;
they are printed apart, with it.

The exit status is pytest's if the tests fail, else 1 if a statement or a
raise outside KEPT was listed as never run or private, else 0.  The file
is not named test_*, so pytest does not collect it.
"""

import ast
import atexit
import json
import os
import sys
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parent.parent / "src" / "kbranch"
KEPT = {("ktypes.py", "_kostant"): (
    "Kostant's formula's negative multiplicity: sound group data never "
    "reach it, and a test reaches it by planting a defect")}


def raise_lines() -> dict[str, list[range]]:
    """Per source file, the line span of each raise statement."""
    return {str(path): sorted((range(n.lineno, n.end_lineno + 1)
                               for n in ast.walk(ast.parse(path.read_text()))
                               if isinstance(n, ast.Raise)),
                              key=lambda span: span.start)
            for path in sorted(SRC.glob("*.py"))}


def statements(path: Path) -> list[tuple[range, str]]:
    """The line span and the enclosing function ('' at module level) of
    each statement of a source file that compiles to code, first line
    first."""
    text = path.read_text()
    compiled, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        compiled.update(line for *_, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if isinstance(c, CodeType)]
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                first = min([child.lineno, *(d.lineno for d in getattr(
                    child, "decorator_list", ()))])
                body = getattr(child, "body", None)
                last = (max(child.lineno, body[0].lineno - 1) if body
                        else child.end_lineno)
                if compiled.intersection(range(first, last + 1)):
                    found.append((range(first, last + 1), function))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(text), "")
    return sorted(found, key=lambda s: s[0].start)


def trace(spans: dict[str, list[range]]
          ) -> tuple[dict[str, set[int]], dict[str, dict[int, list]]]:
    """Trace this thread's frames of src/kbranch from now on, into the
    returned lines that ran, per file, and hits: per raise line that ran,
    [its function, whether a hit came through a public entry point]."""
    wanted = {f: {n for span in s for n in span} for f, s in spans.items()}
    ran: dict[str, set[int]] = {f: set() for f in spans}
    hits: dict[str, dict[int, list]] = {f: {} for f in spans}

    def local(frame, event, _):
        path, line = frame.f_code.co_filename, frame.f_lineno
        if event != "line":
            return local
        ran[path].add(line)
        if line in wanted[path]:
            hit = hits[path].setdefault(line, [frame.f_code.co_name, False])
            entry, outer = frame, frame.f_back
            while not hit[1] and outer is not None:  # the outermost frame
                if outer.f_code.co_filename in wanted:
                    entry = outer
                outer = outer.f_back
            name = entry.f_code.co_name
            hit[1] = hit[1] or not name.startswith("_") or name.endswith("__")
        return local

    def tracer(frame, event, _):  # trace the frames of src/kbranch alone
        return local if frame.f_code.co_filename in wanted else None

    sys.settrace(tracer)
    return ran, hits


def follow_child(out_dir: str) -> None:
    """Trace this child process, and write its lines and hits to out_dir at
    exit."""
    ran, hits = trace(raise_lines())
    out = Path(out_dir) / f"{os.getpid()}.json"
    atexit.register(lambda: out.write_text(json.dumps(
        [{f: sorted(lines) for f, lines in ran.items()}, hits])))


_SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tests!r})
import raise_coverage
sys.path.remove({tests!r})
raise_coverage.follow_child({out!r})
"""


def _run_followed(args: list[str]) -> tuple[int, dict, dict]:
    """pytest.main(args) with each child process followed: its status,
    and the lines and the hits of the children, merged."""
    import subprocess
    import tempfile

    import pytest

    with tempfile.TemporaryDirectory() as site:
        out = Path(site, "hits")
        out.mkdir()
        Path(site, "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
            tests=str(Path(__file__).resolve().parent), out=str(out)))

        class Followed(subprocess.Popen):
            def __init__(self, cmd, *rest, env=None, **kwargs):
                env = dict(os.environ if env is None else env)
                env["PYTHONPATH"] = os.pathsep.join(
                    [site, *filter(None, [env.get("PYTHONPATH")])])
                super().__init__(cmd, *rest, env=env, **kwargs)

        popen, subprocess.Popen = subprocess.Popen, Followed
        try:
            status = pytest.main(args)
        finally:
            subprocess.Popen = popen
        ran: dict[str, set[int]] = {}
        children: dict[str, dict[int, list]] = {}
        for child in sorted(out.glob("*.json")):
            lines, hits = json.loads(child.read_text())
            for f, ns in lines.items():
                ran.setdefault(f, set()).update(ns)
            for f, ns in hits.items():
                for n, (name, public) in ns.items():
                    hit = children.setdefault(f, {}).setdefault(
                        int(n), [name, False])
                    hit[1] = hit[1] or public
    return status, ran, children


def main(args: list[str]) -> int:
    spans = raise_lines()
    ran, hits = trace(spans)
    try:
        status, ran_in_child, children = _run_followed(args)
    finally:
        sys.settrace(None)
    unrun, kept_unrun, total = [], [], 0
    for f in spans:
        lines = ran[f] | ran_in_child.get(f, set())
        for span, function in statements(Path(f)):
            total += 1
            where = f"{Path(f).relative_to(SRC.parent.parent)}:{span.start}"
            if lines.isdisjoint(span):
                reason = KEPT.get((Path(f).name, function))
                (kept_unrun.append(f"{where}: {reason}") if reason
                 else unrun.append(where))
    unreached, private, kept, in_child = [], [], [], []
    for f, ss in spans.items():
        for s in ss:
            here = [hits[f][n] for n in s if n in hits[f]]
            ran_at = here + [children[f][n] for n in s
                             if n in children.get(f, {})]
            where = f"{Path(f).relative_to(SRC.parent.parent)}:{s.start}"
            if not ran_at:
                unreached.append(where)
            elif not any(public for _, public in ran_at):
                reason = KEPT.get((Path(f).name, ran_at[0][0]))
                (kept.append(f"{where}: {reason}") if reason
                 else private.append(where))
            elif not here:
                in_child.append(where)
    print(f"{len(unrun)} of {total} statements never ran:", *unrun,
          sep="\n")
    print(f"{len(kept_unrun)} kept statements never ran:", *kept_unrun,
          sep="\n")
    print(f"{len(unreached)} of {sum(map(len, spans.values()))} raise "
          "statements never ran:", *unreached, sep="\n")
    print(f"{len(private)} ran only under a private entry point:", *private,
          sep="\n")
    print(f"{len(kept)} kept internal invariants:", *kept, sep="\n")
    print(f"{len(in_child)} ran only in a child process:", *in_child,
          sep="\n")
    return status or int(bool(unrun or unreached or private))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
