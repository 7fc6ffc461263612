"""List each raise statement in src/kbranch that the test suite never runs.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/raise_coverage.py -q

The tests run in this process under sys.settrace, which records the lines
of src/kbranch that run; each ast.Raise none of whose lines ran is printed
as file:line.  A test that runs kbranch in a subprocess is not followed, so
a raise only such a test reaches is listed too.  The exit status is
pytest's if the tests fail, else 1 if a raise was listed, else 0.  The file
is not named test_*, so pytest does not collect it.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kbranch"


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
    ran: dict[str, set[int]] = {f: set() for f in spans}

    def local(frame, event, _):
        path = frame.f_code.co_filename
        if event == "line" and frame.f_lineno in wanted[path]:
            ran[path].add(frame.f_lineno)
        return local

    def tracer(frame, event, _):  # trace the frames of src/kbranch alone
        return local if frame.f_code.co_filename in wanted else None

    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    unreached = [f"{Path(f).relative_to(SRC.parent.parent)}:{s.start}"
                 for f, ss in spans.items() for s in ss
                 if ran[f].isdisjoint(s)]
    print(f"{len(unreached)} of {sum(map(len, spans.values()))} raise "
          "statements never ran:", *unreached, sep="\n")
    return status or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
