"""List each raise statement in src/kbranch that the test suite never runs,
or runs only under a private entry point.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/raise_coverage.py -q

The tests run in this process under sys.settrace, which records the lines
of src/kbranch that run; each ast.Raise none of whose lines ran is printed
as file:line.  So is each raise that ran, but only where the outermost
src/kbranch frame of every hit is a private function (a leading
underscore, not a dunder such as __new__): no caller of the package's API
reaches it.  A test that runs kbranch in a subprocess is not followed, so
a raise only such a test reaches is listed as never run.

KEPT names the raises kept as internal invariants although only a private
entry point reaches them, by file and enclosing function; they are printed
apart.  It holds Kostant's formula's negative multiplicity in
ktypes._kostant, which sound group data never reach and a test reaches by
planting a defect.

The exit status is pytest's if the tests fail, else 1 if a raise outside
KEPT was listed, else 0.  The file is not named test_*, so pytest does not
collect it.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kbranch"
KEPT = {("ktypes.py", "_kostant")}


def raise_lines() -> dict[str, list[range]]:
    """Per source file, the line span of each raise statement."""
    return {str(path): sorted((range(n.lineno, n.end_lineno + 1)
                               for n in ast.walk(ast.parse(path.read_text()))
                               if isinstance(n, ast.Raise)),
                              key=lambda span: span.start)
            for path in sorted(SRC.glob("*.py"))}


def main(args: list[str]) -> int:
    spans = raise_lines()
    wanted = {f: {n for span in s for n in span} for f, s in spans.items()}
    # per raise line that ran: [its function, whether a hit came through a
    # public entry point]
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
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    unreached, private, kept = [], [], []
    for f, ss in spans.items():
        for s in ss:
            ran = [hits[f][n] for n in s if n in hits[f]]
            where = f"{Path(f).relative_to(SRC.parent.parent)}:{s.start}"
            if not ran:
                unreached.append(where)
            elif not any(public for _, public in ran):
                (kept if (Path(f).name, ran[0][0]) in KEPT
                 else private).append(where)
    print(f"{len(unreached)} of {sum(map(len, spans.values()))} raise "
          "statements never ran:", *unreached, sep="\n")
    print(f"{len(private)} ran only under a private entry point:", *private,
          sep="\n")
    print(f"{len(kept)} kept internal invariants:", *kept, sep="\n")
    return status or int(bool(unreached or private))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
