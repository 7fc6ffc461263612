"""Command-line surface: branching tables, verification suites, data checks.

Exit codes: 0 success, 1 failed verification, 2 invalid parameters,
3 I/O failure, 4 schema or structural-invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .branching import KTypeTable, TableSizeError, table_of, validate_params
from .groups import GroupDataError, builtin_group, load_group_data
from .presets import ParamSchemaError, resolve_params

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_IO = 3
EXIT_SCHEMA = 4

# the keys of verify.SUITES, sorted; verify itself loads only in cmd_verify
SUITE_NAMES = ("dirac", "ring", "sl2", "su21")


def _load_group(spec: str):
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        return load_group_data(path)
    return builtin_group(spec)


def _table_payload(group: str, params_doc: dict, table: KTypeTable) -> dict:
    return {
        "group": group,
        "params": params_doc,
        "window": table.window,
        "sign": table.sign,
        "mode": "partition",
        "table": [{"ktype": list(k), "multiplicity": m}
                  for k, m in table.rows()],
    }


def _format_csv(payload: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["ktype_highest_weight", "multiplicity", "group", "window",
                "sign", "mode", "params"])
    meta = [payload["group"], payload["window"], payload["sign"],
            payload["mode"], json.dumps(payload["params"], sort_keys=True,
                                        separators=(",", ":"))]
    for row in payload["table"]:
        w.writerow([" ".join(str(c) for c in row["ktype"]),
                    row["multiplicity"], *meta])
    return buf.getvalue()


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_table(args) -> int:
    try:
        g = _load_group(args.group)
    except GroupDataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        doc = json.loads(args.params)
    except (ValueError, RecursionError) as e:  # nesting, integer digits
        print(f"error: params document is not JSON: {e}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    try:
        params = resolve_params(g, doc)
    except ParamSchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_PARAMS

    verdict = validate_params(g, params)
    if verdict.verdict != "nonzero":  # the one printer of a verdict
        print(f"verdict: {verdict}", file=sys.stderr)
        return EXIT_INVALID_PARAMS

    try:  # branching caps the window and every scan of the table
        table = table_of(verdict, args.window)
    except TableSizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except ArithmeticError as e:  # a check of the table failed
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    payload = _table_payload(g.name, doc, table)
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _format_csv(payload)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # verify dirac's flags, forwarded by name where set: suite_dirac holds
    # the defaults of the others
    flags = ("grid_L", "grid_h", "svd_tol")
    kwargs = {f: getattr(args, f) for f in flags
              if getattr(args, f) is not None}
    if kwargs and args.suite != "dirac":  # refuse a flag the suite ignores
        print(f"error: --{next(iter(kwargs)).replace('_', '-')} applies to "
              f"verify dirac only, not to verify {args.suite}",
              file=sys.stderr)
        return EXIT_INVALID_PARAMS
    # the oscillator, like verify, loads only when `kbranch verify` runs
    from .oscillator import GridError
    from .verify import run_suite
    try:  # suite_dirac checks its grid before any work
        report = run_suite(args.suite, **kwargs)
    except GridError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    _write_out(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def cmd_validate(args) -> int:
    g = load_group_data(Path(args.path))
    for inv in g.checklist:
        print(f"ok: {inv}")
    print(f"valid: {g.name}")
    return EXIT_OK


def _window(text: str) -> int:
    """A window in ASCII digits; branching refuses one above its cap."""
    try:  # ASCII digits only: int() also reads '1_0', ' 3 ', '+3' and '٣'
        n = int(text) if text.isascii() and text.isdigit() else -1
    except ValueError:  # more digits than int() converts
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return n


def _positive(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    # float() also reads '1_0', ' 1 ' and non-ASCII digits and spaces
    if not (math.isfinite(x) and x > 0 and text.isascii()
            and "_" not in text and text == text.strip()):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return x


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kbranch",
        description="Branching tables for standard representations, with "
                    "verification suites")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="compute a K-type multiplicity table")
    t.add_argument("--group", required=True,
                   help="builtin group name or group-data file path")
    t.add_argument("--params", required=True,
                   help="JSON parameter document (friendly or raw)")
    t.add_argument("--window", type=_window, default=10,
                   help="max-coordinate norm of enumerated K-types")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out", help="output path (default stdout)")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    # verify dirac only; unset, verify.suite_dirac's defaults apply
    v.add_argument("--grid-L", type=_positive)
    v.add_argument("--grid-h", type=_positive)
    v.add_argument("--svd-tol", type=_positive)
    v.add_argument("--out", help="output path (default stdout)")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("validate", help="validate a group-data file")
    c.add_argument("path")
    c.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GroupDataError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
