"""List each raise statement in src/kbranch that the test suite never runs,
or runs only under a private entry point.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/raise_coverage.py -q

The tests run in this process under sys.settrace, which records the lines
of src/kbranch that run; each ast.Raise none of whose lines ran is printed
as file:line.  So is each raise that ran, but only where the outermost
src/kbranch frame of every hit is a private function (a leading
underscore, not a dunder such as __new__): no caller of the package's API
reaches it.

A test that runs Python in a child process is followed: while the tests
run, subprocess.Popen puts a temporary sitecustomize.py first on each
child's PYTHONPATH (over the env the test passes), which imports this file
and traces the child the same way (follow_child), writing its hits out at
exit; they are merged with this process's.  The raises that only a child
reaches are listed apart.

KEPT names the raises kept as internal invariants although only a private
entry point reaches them, by file and enclosing function; they are printed
apart.  It holds Kostant's formula's negative multiplicity in
ktypes._kostant, which sound group data never reach and a test reaches by
planting a defect.

The exit status is pytest's if the tests fail, else 1 if a raise outside
KEPT was listed as never run or private, else 0.  The file is not named
test_*, so pytest does not collect it.
"""

import ast
import atexit
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kbranch"
KEPT = {("ktypes.py", "_kostant")}


def raise_lines() -> dict[str, list[range]]:
    """Per source file, the line span of each raise statement."""
    return {str(path): sorted((range(n.lineno, n.end_lineno + 1)
                               for n in ast.walk(ast.parse(path.read_text()))
                               if isinstance(n, ast.Raise)),
                              key=lambda span: span.start)
            for path in sorted(SRC.glob("*.py"))}


def trace(spans: dict[str, list[range]]) -> dict[str, dict[int, list]]:
    """Trace this thread's frames of src/kbranch from now on, into the
    returned hits: per raise line that ran, [its function, whether a hit
    came through a public entry point]."""
    wanted = {f: {n for span in s for n in span} for f, s in spans.items()}
    hits: dict[str, dict[int, list]] = {f: {} for f in spans}

    def local(frame, event, _):
        path = frame.f_code.co_filename
        if event == "line" and frame.f_lineno in wanted[path]:
            hit = hits[path].setdefault(frame.f_lineno,
                                        [frame.f_code.co_name, False])
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
    return hits


def follow_child(out_dir: str) -> None:
    """Trace this child process, and write its hits to out_dir at exit."""
    hits = trace(raise_lines())
    out = Path(out_dir) / f"{os.getpid()}.json"
    atexit.register(lambda: out.write_text(json.dumps(hits)))


_SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tests!r})
import raise_coverage
sys.path.remove({tests!r})
raise_coverage.follow_child({out!r})
"""


def _run_followed(args: list[str]) -> tuple[int, dict]:
    """pytest.main(args) with each child process followed: its status,
    and the hits of the children, merged."""
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
        children: dict[str, dict[int, list]] = {}
        for child in sorted(out.glob("*.json")):
            for f, lines in json.loads(child.read_text()).items():
                for n, (name, public) in lines.items():
                    hit = children.setdefault(f, {}).setdefault(
                        int(n), [name, False])
                    hit[1] = hit[1] or public
    return status, children


def main(args: list[str]) -> int:
    spans = raise_lines()
    hits = trace(spans)
    try:
        status, children = _run_followed(args)
    finally:
        sys.settrace(None)
    unreached, private, kept, in_child = [], [], [], []
    for f, ss in spans.items():
        for s in ss:
            here = [hits[f][n] for n in s if n in hits[f]]
            ran = here + [children[f][n] for n in s if n in children.get(f, {})]
            where = f"{Path(f).relative_to(SRC.parent.parent)}:{s.start}"
            if not ran:
                unreached.append(where)
            elif not any(public for _, public in ran):
                (kept if (Path(f).name, ran[0][0]) in KEPT
                 else private).append(where)
            elif not here:
                in_child.append(where)
    print(f"{len(unreached)} of {sum(map(len, spans.values()))} raise "
          "statements never ran:", *unreached, sep="\n")
    print(f"{len(private)} ran only under a private entry point:", *private,
          sep="\n")
    print(f"{len(kept)} kept internal invariants:", *kept, sep="\n")
    print(f"{len(in_child)} ran only in a child process:", *in_child,
          sep="\n")
    return status or int(bool(unreached or private))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
