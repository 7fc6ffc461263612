"""Rebuild every pinned table digest with each evaluator, and report.

Each tests/data/table_*.sha256.json pins the sha256 of `kbranch table`'s
CSV stdout for a list of parameter documents.  This script rebuilds that
stdout three ways: with table_of (Blattner's formula, or partition counts
over the box where it does not apply, with its spot check) and with both
box oracles, box_table(g, p, window, "partition") and box_table(g, p,
window, "series").  For every document it prints each evaluator's digest
(its first 12 hex digits, "=" where it equals the pinned one), the time it
took, and the first rows where a box table differs from table_of's.  A box
above the script's cap on candidate K-types is named, not built.  Every
timed cell starts cold: the chamber, Kostant class and K-type box caches
are cleared before it, and table_of's cell validates its parameters, as
the box oracles do, so no column pays for work another column reuses.

pytest does not collect this file (its name is not test_*).  Run it from
the repository root:

    PYTHONPATH=src python tests/digest_report.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

from kbranch import branching, cli, ktypes
from kbranch.presets import resolve_params

DATA = Path(__file__).parent / "data"
# su21's box at window 64, the largest a digest file needs
branching.MAX_BOX = 129 ** 3
EVALUATORS = {
    "table_of": lambda g, p, w: branching.table_of(
        branching.validate_params(g, p), w),
    "partition": lambda g, p, w: branching.box_table(g, p, w, "partition"),
    "series": lambda g, p, w: branching.box_table(g, p, w, "series"),
}
# what a cell may build and another reuse
CACHES = (branching._chamber, ktypes._class_keys, ktypes.ktype_box)


def _group(pinned: dict, path: Path):
    """The group a digest file's argv names, else tests/data/<name>.json."""
    argv = pinned["argv"]
    if "--group" in argv:
        return cli._load_group(argv[argv.index("--group") + 1])
    return cli._load_group(str(DATA / (path.name.split("_")[1] + ".json")))


def _first_differences(rows: dict, want: dict, count: int = 3) -> list:
    """The first K-types, in lexical order, where two tables differ, as
    (K-type, this table's multiplicity, the other's)."""
    keys = sorted(k for k in rows.keys() | want.keys()
                  if rows.get(k) != want.get(k))
    return [(k, rows.get(k, 0), want.get(k, 0)) for k in keys[:count]]


def report(path: Path) -> dict:
    """Print one digest file's report; return {evaluator: (documents equal
    to the pinned digest, documents not built, seconds)}."""
    pinned = json.loads(path.read_text())
    g = _group(pinned, path)
    window = int(pinned["argv"][pinned["argv"].index("--window") + 1])
    print(f"== {path.name}: {g.name} at window {window}, "
          f"{len(pinned['sha256'])} documents")
    totals = {name: [0, 0, 0.0] for name in EVALUATORS}
    for params, want in pinned["sha256"].items():
        doc = json.loads(params)
        p = resolve_params(g, doc)
        cells, tables = [], {}
        for name, evaluate in EVALUATORS.items():
            for cache in CACHES:
                cache.cache_clear()
            t0 = time.perf_counter()
            try:
                table = evaluate(g, p, window)
            except branching.TableSizeError:
                totals[name][1] += 1
                cells.append(f"{name} not built")
                continue
            seconds = time.perf_counter() - t0
            out = cli._format_csv(cli._table_payload(g.name, doc, table))
            digest = hashlib.sha256(out.encode()).hexdigest()
            totals[name][0] += digest == want
            totals[name][2] += seconds
            tables[name] = table.entries
            mark = "=" if digest == want else "!"
            cells.append(f"{name} {digest[:12]}{mark} {seconds:.3f}s")
        print(f"  {params} ({pinned['rows'][params]} rows): "
              + ", ".join(cells))
        for name, entries in tables.items():
            if name != "table_of" and "table_of" in tables:
                diff = _first_differences(entries, tables["table_of"])
                if diff:
                    print(f"    {name} differs from table_of first at "
                          + "; ".join(f"{k}: {a} vs {b}" for k, a, b in diff))
    for name, (equal, skipped, seconds) in totals.items():
        print(f"  {name}: {equal} of {len(pinned['sha256'])} equal the "
              f"pinned digest, {skipped} not built, {seconds:.2f}s")
    return totals


def main() -> int:
    mismatched = 0
    for path in sorted(DATA.glob("table_*.sha256.json")):
        totals = report(path)
        mismatched += sum(len(json.loads(path.read_text())["sha256"])
                          - equal - skipped
                          for equal, skipped, _ in totals.values())
    print(f"{mismatched} rebuilt tables differ from their pinned digest")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
