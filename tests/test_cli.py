"""Command-line surface: exit codes, formats, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kbranch
from kbranch import branching, cli, groups, verify
from kbranch.branching import MAX_WINDOW, TableSizeError
from kbranch.cli import main
from kbranch.oscillator import MAX_GRID_POINTS
from kbranch.groups import _BUILTIN_DIR, data_dir, load_group_data
from kbranch.presets import resolve_params
from test_branching import _plant
from test_groups import CIRCLE_SL2XU1_DOC, GROUP_FILES

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    i = header.index("ktype_highest_weight")
    j = header.index("multiplicity")
    return [(r[i], int(r[j])) for r in body]


def test_table_discrete_csv(capsys):
    code, out, _ = run(capsys, "table", "--group", "sl2r-compact",
                       "--params", '{"series":"discrete","n":3,"sign":"+"}',
                       "--window", "9", "--format", "csv")
    assert code == 0
    assert parse_csv(out) == [("4", 1), ("6", 1), ("8", 1)]


def test_table_split_minus(capsys):
    code, out, _ = run(capsys, "table", "--group", "sl2r-split",
                       "--params", '{"chi":"minus"}', "--window", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["ktype"] for r in doc["table"]] == [[-3], [-1], [1], [3]]
    assert doc["sign"] == 1


def test_zero_verdict_exits_2(capsys):
    code, _, err = run(capsys, "table", "--group", "su21", "--params",
                       '{"lambda":[2,2,-1],'
                       '"rmplus":[[1,-1,0],[1,0,-1],[0,1,-1]]}',
                       "--window", "3")
    assert code == 2
    assert "zero" in err


@pytest.mark.parametrize("group, params, window, err", [
    ("su21", '{"lambda":[2,2,-1],"rmplus":[[1,-1,0],[1,0,-1],[0,1,-1]]}', "3",
     "verdict: zero: parameter orthogonal to simple compact root (1, -1, 0)"),
    ("su21", '{"lambda":[3,1,-1],"rmplus":[[-1,1,0],[1,0,-1],[0,1,-1]]}', "3",
     "verdict: invalid: parameter is not dominant for the root (-1, 1, 0)"),
    # the verdict is read before the window's cap
    (str(DATA / "sl2xt3.json"), '{"lambda":[-1],"rmplus":[[2]]}', "17",
     "verdict: invalid: parameter is not dominant for the root (2,)"),
    (str(DATA / "sl2xt3.json"), '{"lambda":[1],"rmplus":[[2]]}', "17",
     "error: sl2xt3: window 17 would scan 42875 fibre points per cone point; "
     "at most 35937 are allowed")],
    ids=["zero", "invalid", "invalid-above-cap", "above-cap"])
def test_table_refusals_byte_for_byte(capsys, group, params, window, err):
    code, out, got = run(capsys, "table", "--group", group, "--params", params,
                         "--window", window)
    assert (code, out, got) == (2, "", err + "\n")


def test_bad_params_document_exits_2(capsys):
    code, _, err = run(capsys, "table", "--group", "sl2r-compact",
                       "--params", '{"series":"unknown"}')
    assert code == 2


# the cases below whose whole stderr is pinned
_MALFORMED_ERR = {("su21", '{"lambda":[3,1,-1],"lambda_denom":3}'): (
    "error: bad raw parameter document: 'lambda_denom' must be 1 or 2, "
    "got 3\n")}


@pytest.mark.parametrize("group, params", [
    ("su21", '{"lambda":[3.7,1,-1]}'),
    ("su21", '{"lambda":"abc"}'),
    ("sl2r-compact", '{"series":"discrete","n":"x"}'),
    ("sl2r-compact", '{"series":"discrete","n":3,"sign":"banana"}'),
    ("su21", '{"lambda":[1,2]}'),
    ("sl2r-split", '{"chi":[]}'),
    ("sl2r-split", '{"chi":{}}'),
    ("su21", '{"lambda":[3,1,-1],"bogus":5}'),
    # a field no form reads
    ("su21", '{"lambda":[3,1,-1],"denom":2}'),
    ("sl2r-compact", '{"series":"limit","n":3,"sign":"+"}'),
    ("sl2r-split", '{"chi":"plus","rmplus":[[1]]}'),
    ("su21", '{"lambda":[3,1,-1],"rmplus":null}'),
    # a group with no friendly form reads a document as raw parameters
    (str(DATA / "sp4r.json"), '{"chi":0}'),
    # a singular lambda must name its positive system, and every lambda
    # has the Levi rank
    ("su21", '{"lambda":[2,1,1]}'),
    (str(DATA / "sp4r.json"), '{"lambda":[1,-1]}'),
    (str(DATA / "sp4r.json"), '{"lambda":[2,1,0]}'),
    # refused under the document's own field name
    ("su21", '{"lambda":[3,1,-1],"lambda_denom":3}'),
])
def test_malformed_params_document_exits_2(capsys, group, params):
    code, out, err = run(capsys, "table", "--group", group,
                         "--params", params, "--window", "2")
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert err == _MALFORMED_ERR.get((group, params), err)


def test_unknown_params_field_is_named(capsys):
    code, out, err = run(capsys, "table", "--group", "su21", "--params",
                         '{"lambda":[3,1,-1],"denom":2}')
    assert (code, out) == (2, "")
    assert "'denom'" in err


def test_a_group_reads_the_lambda_form_whatever_its_name():
    # su21-noncompact's name, su21, once chose a form of its own for its
    # lambda documents: the raw form is every group's, read the same under
    # any name (the lattice tags alone carry the name)
    doc = json.loads((DATA / "su21-noncompact.json").read_text())
    params = [resolve_params(load_group_data(json.dumps(doc | {"name": n})),
                             {"lambda": [3, 1, -1]}) for n in ("su21", "u21")]
    assert len({(p.lam.coords, p.lam.denom, p.rmplus, p.chi, p.nu.coords)
                for p in params}) == 1
    assert params[0].rmplus == ((1, -1, 0), (1, 0, -1), (0, 1, -1))


@pytest.mark.parametrize("pinned", ["table_sp4r_w32", "table_so43_w6",
                                    "table_su22_w8", "table_su31_w8"])
def test_a_regular_lambda_needs_no_rmplus(pinned):
    # each pinned document writes out the positive system its regular
    # lambda makes dominant, in the order of the Levi positives
    g = load_group_data(DATA / f"{pinned.split('_')[1]}.json")
    docs = list(map(json.loads, json.loads(
        (DATA / f"{pinned}.sha256.json").read_text())["sha256"]))
    bare = [{k: v for k, v in doc.items() if k != "rmplus"} for doc in docs]
    for doc, without in zip(docs, bare):
        assert resolve_params(g, without) == resolve_params(g, doc)
    # and the table of the positive system written out in another order
    doc = docs[-1] | {"rmplus": sorted(docs[-1]["rmplus"])}
    assert doc["rmplus"] != docs[-1]["rmplus"]
    assert (branching.ktype_table(g, resolve_params(g, doc), 4)
            == branching.ktype_table(g, resolve_params(g, bare[-1]), 4))


def test_negative_window_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--group", "sl2r-compact", "--params",
              '{"series":"discrete","n":1,"sign":"+"}', "--window", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--window" in out.err


def exits_2_with_empty_stdout(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "error" in out.err


def test_window_above_cap_exits_2(capsys):
    # branching's refusal, printed after the group and the parameters pass
    code, out, err = run(capsys, "table", "--group", "su21", "--params",
                         '{"lambda":[3,1,-1]}', "--window",
                         str(MAX_WINDOW + 1))
    assert (code, out, err) == (2, "", f"error: window {MAX_WINDOW + 1} is "
                                f"above the cap of {MAX_WINDOW}\n")


def test_window_above_cap_is_checked_after_the_group(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, out, err = run(capsys, "table", "--group", str(bad), "--params",
                         '{"lambda":[3,1,-1]}', "--window",
                         str(MAX_WINDOW + 1))
    assert (code, out, err) == (4, "", "error: schema: top level must be an "
                                "object\n")


def test_box_above_cap_exits_2_without_scanning(capsys, monkeypatch):
    # su21 with every Levi root noncompact falls back to the box scan
    argv = ["table", "--group", str(DATA / "su21-noncompact.json"),
            "--params", '{"lambda":[3,1,-1]}']

    def refuse(*args):
        raise AssertionError("scanned the K-type box")

    with monkeypatch.context() as m:
        m.setattr(branching, "ktype_box", refuse)
        exits_2_with_empty_stdout(capsys, *argv, "--window", "17")
    code, out, _ = run(capsys, *argv, "--window", "4")
    assert code == 0
    assert len(parse_csv(out)) == 3


def test_fibre_box_above_cap_exits_2_before_table_work(capsys, monkeypatch):
    # K a rank-4 torus over the compact Cartan of SL(2,R): inside Blattner's
    # formula, with three free coordinates in each fibre of the restriction
    argv = ["table", "--group", str(DATA / "sl2xt3.json"), "--params",
            '{"lambda":[1],"rmplus":[[2]]}']

    def refuse(*args):
        raise AssertionError("walked a fibre")

    with monkeypatch.context() as m:
        m.setattr(branching, "_walk", refuse)
        exits_2_with_empty_stdout(capsys, *argv, "--window", "17")
    code, out, _ = run(capsys, *argv, "--window", "2")
    assert code == 0
    # the lowest K-type (2, x, y, z), for each (x, y, z) in [-2, 2]^3
    assert parse_csv(out) == [(f"2 {x} {y} {z}", 1) for x in range(-2, 3)
                              for y in range(-2, 3) for z in range(-2, 3)]


@pytest.mark.parametrize("name, params, table", [
    ("sl2xt3", '{"lambda":[1],"rmplus":[[2]]}', branching.ktype_table),
    ("su21-noncompact", '{"lambda":[3,1,-1]}',
     lambda g, p, w: branching.box_table(g, p, w, "partition"))],
    ids=["ktype_table", "box_table"])
def test_library_refuses_a_scan_as_the_cli_does(capsys, monkeypatch, name,
                                                params, table):
    # the one refusal, made where the scan is planned: the CLI prints it
    path = str(DATA / f"{name}.json")
    code, out, err = run(capsys, "table", "--group", path, "--params", params,
                         "--window", "17")
    g = load_group_data(path)

    def refuse(*args):
        raise AssertionError("did table work")

    monkeypatch.setattr(branching, "_walk", refuse)
    monkeypatch.setattr(branching, "ktype_box", refuse)
    with pytest.raises(TableSizeError) as e:
        table(g, resolve_params(g, json.loads(params)), 17)
    assert (code, out, err) == (2, "", f"error: {e.value}\n")


def test_walk_above_line_cap_exits_2(capsys, monkeypatch):
    # su21 [3, 1, -1] walks 92 lines of Blattner's formula at window 64
    monkeypatch.setattr(branching, "MAX_WALK_LINES", 50)
    code, out, err = run(capsys, "table", "--group", "su21", "--params",
                         '{"lambda":[3,1,-1]}', "--window", "64")
    assert (code, out, err) == (2, "", "error: su21: window 64 would walk "
                                "more than 50 lines of Blattner's formula\n")


def _prefix_digests(out, windows):
    """A table's CSV stdout as (its row count, the sha256 of its rows whose
    K-type has max-coordinate norm <= w, for each w of windows)."""
    rows = out.splitlines(keepends=True)[1:]  # the header is no row
    norms = [max(abs(int(x)) for x in row.split(",", 1)[0].split())
             for row in rows]
    return len(rows), [hashlib.sha256("".join(
        [row for row, n in zip(rows, norms) if n <= w]).encode()).hexdigest()
        for w in windows]


def _digest_mismatch(pinned, params, out):
    """None if out hashes to the pinned sha256 of params, else a message
    naming the first prefix window whose rows changed and both row counts."""
    if hashlib.sha256(out.encode()).hexdigest() == pinned["sha256"][params]:
        return None
    windows = pinned["prefix_windows"]
    rows, prefixes = _prefix_digests(out, windows)
    changed = [w for w, old, new in zip(
        windows, pinned["prefix_sha256"][params], prefixes) if old != new]
    where = (f"rows differ from window {changed[0]} on" if changed
             else "no prefix window's rows differ")
    return (f"{params}: {where} ({pinned['rows'][params]} rows pinned, "
            f"{rows} now)")


def _match_digests(capsys, pinned_file, *group):
    pinned = json.loads((DATA / pinned_file).read_text())
    for params in pinned["sha256"]:
        code, out, err = run(capsys, *pinned["argv"], *group,
                             "--params", params)
        assert (code, err) == (0, "")
        assert _digest_mismatch(pinned, params, out) is None


def test_window_64_tables_match_their_digests(capsys):
    # sha256 of the stdout of each parameter document's table at window 64,
    # where the per-row cost of Blattner's formula shows
    _match_digests(capsys, "table_su21_w64.sha256.json")


def test_window_32_sp4r_tables_match_their_digests(capsys):
    # the eight Sp(4,R) chambers of the tests at window 32: their three
    # noncompact positives are dependent, so the counts reach multiplicities
    # up to 15 at heights the property windows and the window-10 golden miss
    _match_digests(capsys, "table_sp4r_w32.sha256.json",
                   "--group", str(DATA / "sp4r.json"))


@pytest.mark.parametrize("name", ["su22", "su31"])
def test_window_8_a3_tables_match_their_digests(capsys, name):
    # the 24 chambers lambda = w rho of SU(2,2) and SU(3,1), whose 4 and 6
    # W_K terms each read the fibres through their own signed permutation
    _match_digests(capsys, f"table_{name}_w8.sha256.json",
                   "--group", str(DATA / f"{name}.json"))


def test_window_6_so43_tables_match_their_digests(capsys):
    # the 48 chambers lambda = w rho of SO(4,3), 4,144 rows: 6 noncompact
    # positives over a rank-3 cone, so most K-types are reached by many
    # count vectors of each W_K term
    _match_digests(capsys, "table_so43_w6.sha256.json",
                   "--group", str(DATA / "so43.json"))


def test_a_digest_failure_names_the_first_window_that_changed(capsys,
                                                              monkeypatch):
    # a planted defect that no check of table_of catches: each walk reads
    # mu through w in place of w^T (test_branching's w), planted at load.
    # 6 of SU(3,1)'s 24 chambers at window 8 then exit 0 with wrong rows;
    # lambda = rho gets 13 rows for 6, the first change inside window 6
    monkeypatch.setattr(cli, "_load_group", lambda spec: _plant(
        monkeypatch, "w", load_group_data(spec)))
    pinned = json.loads((DATA / "table_su31_w8.sha256.json").read_text())
    params = next(iter(pinned["sha256"]))  # lambda = rho
    assert json.loads(params)["lambda"] == [3, 1, -1, -3]
    code, out, err = run(capsys, *pinned["argv"], "--group",
                         str(DATA / "su31.json"), "--params", params)
    assert (code, err) == (0, "")
    assert _digest_mismatch(pinned, params, out) == (
        f"{params}: rows differ from window 6 on (6 rows pinned, 13 now)")


def test_a_failed_table_check_exits_1_with_one_line(capsys, monkeypatch,
                                                     tmp_path):
    # each line of Blattner's walk starts one past its first point: su21
    # [3, 1, -1] at window 64 then fails a check of table_of, which the
    # CLI prints as one error line, writing no table
    walk = branching._walk
    monkeypatch.setattr(branching, "_walk", lambda state, levels: (
        (line, lo + 1, hi) for line, lo, hi in walk(state, levels)))
    out_file = tmp_path / "table.csv"
    code, out, err = run(capsys, "table", "--group", "su21", "--params",
                         '{"lambda":[3,1,-1]}', "--window", "64",
                         "--out", str(out_file))
    assert (code, out) == (1, "") and not out_file.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_grid_above_cap_exits_2(capsys):
    # 2L/h + 1 = MAX_GRID_POINTS + 1 points: refused before any matrix
    step = 2 * 8.0 / MAX_GRID_POINTS
    exits_2_with_empty_stdout(capsys, "verify", "dirac", "--grid-L", "8",
                              "--grid-h", repr(step))


@pytest.mark.parametrize("flag, value", [
    ("--grid-h", "0"), ("--grid-h", "-0.05"), ("--grid-h", "nan"),
    ("--grid-L", "inf"), ("--svd-tol", "0"), ("--grid-h", "0.03"),
    ("--grid-h", "abc")])
def test_bad_grid_exits_2(capsys, flag, value):
    exits_2_with_empty_stdout(capsys, "verify", "dirac", flag, value)


def usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith("usage: kbranch ")
    assert f"error: argument {flag}: expected " in out.err


@pytest.mark.parametrize("value", [
    "1_0", " ٣ ", "٣", "３", " 3", "3 ", "3\n", "+3", "-0", "3.0", ""])
def test_window_takes_ascii_digits_only(capsys, value):
    usage_error(capsys, ["table", "--group", "sl2r-compact", "--params",
                         '{"series":"discrete","n":1,"sign":"+"}',
                         "--window", value], "--window")


def test_window_longer_than_int_reads_is_a_usage_error(capsys):
    usage_error(capsys, ["table", "--group", "sl2r-compact", "--params",
                         '{"series":"discrete","n":1,"sign":"+"}',
                         "--window", "9" * 5000], "--window")


@pytest.mark.parametrize("flag, value", [
    ("--grid-h", "0_0.1"), ("--grid-L", "1_0"), ("--grid-h", " 0.1"),
    ("--grid-h", "0.1 "), ("--svd-tol", "1e-6\t"), ("--grid-L", "٨"),
    ("--grid-h", "٠.١"), ("--grid-L", "8　")])
def test_positive_refuses_underscores_spaces_and_non_ascii(capsys, flag,
                                                           value):
    usage_error(capsys, ["verify", "dirac", flag, value], flag)


def test_valid_numeric_spellings_keep_their_bytes(capsys):
    argv = ["table", "--group", "su21", "--params", '{"lambda":[3,1,-1]}']
    tables = {run(capsys, *argv, "--window", w) for w in ("4", "04", "004")}
    assert len(tables) == 1 and tables.pop()[0] == 0
    parse = cli.build_parser().parse_args
    for value in ("0.05", "5e-2", "5E-2", ".05", "+0.05", "0.050"):
        args = parse(["verify", "dirac", "--grid-h", value])
        assert args.grid_h == 0.05


@pytest.mark.parametrize("suite", ["sl2", "su21", "ring"])
@pytest.mark.parametrize("flag, value", [
    ("--grid-L", "8"), ("--grid-h", "0.03"), ("--svd-tol", "1e-6")])
def test_grid_flags_on_a_suite_without_a_grid_exit_2(capsys, suite, flag,
                                                     value):
    code, out, err = run(capsys, "verify", suite, flag, value)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and flag in err


def test_missing_group_exits_3(capsys):
    code, _, err = run(capsys, "table", "--group", "/nonexistent/g.json",
                       "--params", "{}")
    assert code == 3


def test_unknown_group_name_exits_3(capsys):
    code, out, err = run(capsys, "table", "--group", "no-such-group",
                         "--params", "{}")
    assert (code, out) == (3, "")
    assert err == (f"error: no builtin group 'no-such-group' in {data_dir()} "
                   "(available: ['sl2r-compact', 'sl2r-split', 'su21'])\n")


def test_a_missing_builtin_is_worded_once(tmp_path, monkeypatch, capsys):
    # groups.builtin_group words the refusal, whichever command names the
    # group: an unknown --group, and a suite's group missing from the data
    monkeypatch.setenv("KTYPE_DATA_DIR", str(tmp_path))
    missing = (f"error: no builtin group {{!r}} in {tmp_path} "
               "(available: [])\n")
    assert run(capsys, "table", "--group", "no-such-group", "--params",
               "{}") == (3, "", missing.format("no-such-group"))
    assert run(capsys, "verify", "sl2") == (3, "",
                                            missing.format("sl2r-split"))


def test_params_document_that_is_no_object_exits_2(capsys):
    code, out, err = run(capsys, "table", "--group", "su21", "--params", "[1]")
    assert (code, out) == (2, "")
    assert err == "error: parameter document must be a JSON object\n"


def test_validate_out_of_range_exponent_exits_4(tmp_path, capsys):
    # the table's exponents are read as written: one owner, ZCharTable,
    # refuses what lies outside 0..order-1
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    doc["zmprime"]["generators"][0]["char_table_row"] = [4, -3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (4, "")
    assert err == "invalid: zmprime table: character exponent out of range\n"


def test_validate_refuses_a_restriction_that_is_not_onto(tmp_path, capsys):
    bad = tmp_path / "circle.json"
    bad.write_text(json.dumps(CIRCLE_SL2XU1_DOC))
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (4, "")
    assert err == ("invalid: dims consistency: tM_in_t has rank 1 < 2: T_M "
                   "is not a torus in T\n")


def test_verify_with_no_group_files_exits_3_without_a_traceback(tmp_path):
    # the suite's builtin groups are missing: an I/O failure, not a failed
    # verification, so exit 3 and one error line
    src = str(Path(kbranch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "KTYPE_DATA_DIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-m", "kbranch.cli", "verify",
                           "sl2"], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: no builtin group ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_schema_error_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    doc["dims"]["s_M"] = 3
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 4
    assert "sign factor parity" in err


# json.loads raises RecursionError on deep nesting and a bare ValueError on
# an integer literal past the 4,300-digit conversion limit
UNREADABLE_JSON = {"nested": "[" * 1000 + "]" * 1000,
                   "long integer": '{"lambda":[' + "9" * 5000 + ",1,-1]}"}


@pytest.mark.parametrize("text", UNREADABLE_JSON.values(),
                         ids=UNREADABLE_JSON.keys())
def test_unreadable_params_exit_2(capsys, text):
    code, out, err = run(capsys, "table", "--group", "su21", "--params", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: params document is not JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, prefix", [
    (("validate",), "invalid: "),
    (("table", "--params", "{}", "--group"), "error: ")],
    ids=["validate", "table"])
@pytest.mark.parametrize("text", UNREADABLE_JSON.values(),
                         ids=UNREADABLE_JSON.keys())
def test_unreadable_group_file_exits_4(tmp_path, capsys, argv, prefix, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, *argv, str(bad))
    assert (code, out) == (4, "")
    assert err.startswith(f"{prefix}schema: not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# 11 characters that Fraction takes about 11 s to read, refused at once;
# tests/test_groups.py refuses each other form outside the grammar
@pytest.mark.parametrize("argv, prefix", [
    (("validate",), "invalid: "),
    (("table", "--params", "{}", "--group"), "error: ")],
    ids=["validate", "table"])
def test_v_exponent_exits_4_at_once(tmp_path, capsys, argv, prefix):
    v = "1e10000000"
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    doc["zmprime"]["generators"][0]["v"] = [v]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, str(bad))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == (f"{prefix}zmprime table: expected an integer or a fraction "
                   f"string with a nonzero denominator, got {v!r}\n")


def test_validate_shipped_files(capsys):
    for name in ("sl2r-compact", "sl2r-split", "su21"):
        code, out, _ = run(capsys, "validate",
                           str(_BUILTIN_DIR / f"{name}.json"))
        assert code == 0
        assert f"valid: {name}" in out
        assert "ok: schema" in out


# the loader's checks, in the order kbranch validate reports them
VALIDATE_OK = (
    "schema", "k negation closure", "k positive partition",
    "k simple decomposition", "k Weyl closure", "m negation closure",
    "m positive partition", "m simple decomposition", "m Weyl closure",
    "compact partition parity", "restricted pointed cone", "zmprime table",
    "zmprime integrality", "sign factor parity", "dims consistency",
    "compact partition", "restriction integrality", "zmprime compatibility")


@pytest.mark.parametrize("path", GROUP_FILES, ids=lambda path: path.stem)
def test_validate_reports_every_check_in_order(capsys, path):
    code, out, err = run(capsys, "validate", str(path))
    name = json.loads(path.read_text())["name"]
    assert (code, err) == (0, "")
    assert out == "".join(f"ok: {c}\n" for c in VALIDATE_OK) + (
        f"valid: {name}\n")


def test_validate_nonclosed_roots_names_weyl_closure(tmp_path, capsys):
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    doc["m"] = {"rank": 2,
                "roots": [[1, -1], [-1, 1], [1, 0], [-1, 0]],
                "positives": [[1, -1], [1, 0]],
                "compact_flags": [False, False, False, False]}
    doc["tM_in_t"] = [[1], [0]]
    doc["dims"] = {"s_M": 4, "a": 0}
    doc["zmprime"] = {"order": 1, "generators": []}
    bad = tmp_path / "open.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (4, "")
    assert err == ("invalid: m Weyl closure: reflection in (1, -1) does not "
                   "permute the roots\n")


def _zero_denominator(doc):
    doc["zmprime"]["generators"][0]["v"] = ["1/0"]


def _unpointed_k_positives(doc):
    # a B2 root system whose positives hold (1,1) and (-1,1) but whose
    # simples (1,0), (0,-1) give them mixed signs: no pointed cone
    doc["k"] = {"rank": 2,
                "roots": [[1, 0], [-1, 0], [0, 1], [0, -1],
                          [1, 1], [-1, -1], [1, -1], [-1, 1]],
                "positives": [[1, 0], [0, -1], [1, 1], [-1, 1]],
                "simples": [[1, 0], [0, -1]]}
    doc["tM_in_t"] = [[1, 0]]


def _undecodable(doc):
    return b"\xff\xfe{}"  # not UTF-8


def _setting(kind, *paths_and_values):
    """A mutation setting doc[path...] to a value, for each path and value
    in turn; named after the kind of value and the first path for the test
    id."""
    def mutate(doc):
        for *path, key, value in paths_and_values:
            node = doc
            for p in path:
                node = node[p]
            node[key] = value
    first_path = paths_and_values[0][:-1]
    mutate.__name__ = f"_{kind}_" + "_".join(map(str, first_path))
    return mutate


def _boolean(*path_and_value):
    """A mutation setting doc[path...] to a value holding JSON booleans,
    which are not integers."""
    return _setting("boolean", path_and_value)


def _dim_a(kind, value):
    """A mutation setting restricted.dim_a and dims.a to value."""
    return _setting(kind, ("restricted", "dim_a", value), ("dims", "a", value))


_EMPTY = {"roots": [], "positives": []}
_NO_V = ("expected an integer or a fraction string with a nonzero "
         "denominator, got ")

# each a mutation of sl2r-compact, the check that refuses it and its detail
_MALFORMED = [
    (_zero_denominator, "zmprime table", _NO_V + "'1/0'"),
    (_unpointed_k_positives, "k simple decomposition",
     "positive (1, 1) is not a nonnegative integer combination of the "
     "simples"),
    (_undecodable, "schema", "not UTF-8 text: 'utf-8' codec can't decode "
     "byte 0xff in position 0: invalid start byte"),
    (_boolean("k", "rank", True), "schema", "field 'rank' must be int"),
    (_boolean("m", "rank", True), "schema", "field 'rank' must be int"),
    (_boolean("tM_in_t", [[True]]), "schema",
     "tM_in_t must be a 1x1 integer matrix"),
    (_boolean("dims", "a", False), "schema", "field 'a' must be int"),
    (_boolean("dims", "s_M", True), "schema", "field 's_M' must be int"),
    (_boolean("restricted", "dim_a", False), "schema",
     "field 'dim_a' must be int"),
    (_boolean("zmprime", "order", True), "schema",
     "field 'order' must be int"),
    (_boolean("m", "positives", [[True]]), "schema",
     "expected integer arrays of length 1, got [True]"),
    (_boolean("zmprime", "generators", 0, "char_table_row", [False, True]),
     "zmprime table", "char_table_row must list 2 integer exponents"),
    (_boolean("zmprime", "generators", 0, "v", [True]), "zmprime table",
     _NO_V + "True"),
    (_setting("negative", ("k", {"rank": -1, "simples": [], **_EMPTY})),
     "schema", "rank -1 is outside 0..8"),
    (_setting("negative", ("m", {"rank": -1, "compact_flags": [], **_EMPTY})),
     "schema", "rank -1 is outside 0..8"),
    (_dim_a("negative", -1), "schema", "dim_a -1 is outside 0..8"),
    (_dim_a("huge", 3_000_000), "size cap", "dim_a 3000000 is outside 0..8"),
]


@pytest.mark.parametrize("mutate, invariant, detail", _MALFORMED, ids=[
    f"{mutate.__name__}-{invariant}" for mutate, invariant, _ in _MALFORMED])
def test_validate_malformed_group_file_exits_4(tmp_path, capsys, mutate,
                                               invariant, detail):
    """mutate edits the document in place, or returns the file's bytes."""
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    raw = mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_bytes(json.dumps(doc).encode() if raw is None else raw)
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out, err) == (4, "", f"invalid: {invariant}: {detail}\n")
    code, out, err = run(capsys, "table", "--group", str(bad), "--params",
                         '{"series":"discrete","n":3,"sign":"+"}')
    assert (code, out, err) == (4, "", f"error: {invariant}: {detail}\n")


def test_cli_table_and_validate_leave_numpy_and_verify_unloaded():
    # the verification stack and the oscillator load only when `kbranch
    # verify` runs, nothing loads dataclasses or the inspect module it
    # imports, and the table path's arithmetic is integer: no fractions, nor
    # the decimal module that fractions imports
    script = ("import sys\n"
              "UNLOADED = ('kbranch.verify', 'kbranch.sl2_oracles',"
              " 'kbranch.oscillator', 'numpy', 'dataclasses', 'inspect',"
              " 'fractions', 'decimal')\n"
              "def unloaded(when):\n"
              "    for name in UNLOADED:\n"
              "        assert name not in sys.modules, (when, name)\n"
              "from kbranch.cli import main\n"
              "unloaded('import')\n"
              "assert main(['table', '--group', 'su21', '--params',"
              " '{\"lambda\": [3, 1, -1]}', '--window', '16']) == 0\n"
              "unloaded('table')\n"
              f"assert main(['validate', {str(_BUILTIN_DIR / 'su21.json')!r}])"
              " == 0\n"
              "unloaded('validate')\n")
    src = str(Path(kbranch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ktype_highest_weight,")
    assert done.stdout.endswith("valid: su21\n")


def test_suite_names_are_the_verify_suites(capsys):
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert ("invalid choice: 'nosuch' (choose from 'dirac', 'ring', 'sl2', "
            "'su21')") in out.err


def test_validate_rank_above_cap_exits_4(tmp_path, capsys):
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    doc["k"]["rank"] = 1000
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (4, "")
    assert "invalid: size cap" in err


def test_a_positive_listed_twice_exits_4(tmp_path, capsys):
    # it doubled its share of 2rho_K, and the table died in _chamber
    doc = json.loads((_BUILTIN_DIR / "su21.json").read_text())
    doc["k"]["positives"] = [[1, -1, 0], [1, -1, 0]]
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps(doc))
    line = "k positive partition: duplicate positives\n"
    assert run(capsys, "validate", str(bad)) == (4, "", "invalid: " + line)
    assert run(capsys, "table", "--group", str(bad), "--params",
               '{"lambda":[3,1,-1]}') == (4, "", "error: " + line)


def test_a_long_root_list_is_refused_before_its_simple_roots(
        tmp_path, capsys, monkeypatch):
    # simple_roots pairs every two positives: 2,000 copies of one root took
    # over a second before the positive partition refused them
    def refuse(positives):
        raise AssertionError("reached simple_roots")

    monkeypatch.setattr(groups, "simple_roots", refuse)
    doc = json.loads((_BUILTIN_DIR / "su21.json").read_text())
    doc["m"]["positives"] = [[1, -1, 0]] * 2000
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(bad)) == (
        4, "", "invalid: size cap: positives lists 2000 roots, above 240\n")


@pytest.mark.parametrize("argv, forwarded", [
    ((), {}), (("--svd-tol", "1"), {"svd_tol": 1.0}),
    (("--grid-h", "0.025", "--grid-L", "12"),
     {"grid_L": 12.0, "grid_h": 0.025})])
def test_verify_dirac_forwards_only_the_flags_set(capsys, monkeypatch, argv,
                                                  forwarded):
    # verify holds the defaults of verify dirac: the CLI adds none of its own
    calls = []

    def recorded(name, **kwargs):
        calls.append((name, kwargs))
        return {"suite": name, "pass": True, "checks": []}

    monkeypatch.setattr(verify, "run_suite", recorded)
    code, _, err = run(capsys, "verify", "dirac", *argv)
    assert (code, err, calls) == (0, "", [("dirac", forwarded)])


def test_verify_dirac_inconclusive_kernel_fails_cleanly(capsys):
    # svd_tol 1 puts singular values of the 1-D kernel inside the band
    code, out, err = run(capsys, "verify", "dirac", "--svd-tol", "1")
    assert code == 1
    doc = json.loads(out)
    assert not doc["pass"]
    actual = {c["name"]: c["actual"] for c in doc["checks"]}
    assert actual["oscillator kernel dims"] == "inconclusive"
    assert actual["cylinder even matches principal oracle"] == "inconclusive"
    assert "Traceback" not in err


@pytest.mark.parametrize("golden, code, argv", [
    ("verify_dirac_default.json", 0, ()),
    ("verify_dirac_svd_tol_1.json", 1, ("--svd-tol", "1")),
    ("verify_dirac_svd_tol_1e-13.json", 1, ("--svd-tol", "1e-13")),
    ("verify_dirac_svd_tol_100.json", 1, ("--svd-tol", "100")),
    ("verify_dirac_grid_12_0.025.json", 0,
     ("--grid-L", "12", "--grid-h", "0.025")),
    ("verify_ring.json", 0, ()),
    ("verify_sl2.json", 0, ()),
    ("verify_su21.json", 0, ()),
    ("table_su21_w16.csv", 0,
     ("table", "--group", "su21", "--params", '{"lambda":[3,1,-1]}',
      "--window", "16", "--format", "csv")),
    ("table_sp4r_w10.json", 0,
     ("table", "--group", str(DATA / "sp4r.json"), "--params",
      '{"lambda":[2,-1],"rmplus":[[1,-1],[2,0],[1,1],[0,-2]]}',
      "--window", "10", "--format", "json")),
    ("table_su21-noncompact_w4.csv", 0,
     ("table", "--group", str(DATA / "su21-noncompact.json"), "--params",
      '{"lambda":[3,1,-1]}', "--window", "4", "--format", "csv"))])
def test_verify_dirac_stdout_matches_golden_bytes(capsys, monkeypatch,
                                                 suite_run, golden, code,
                                                 argv):
    # each verify file is named verify_<suite>[_<flags>].json, and its argv
    # holds the flags; the dirac reports were written by whole-matrix SVDs,
    # an independent 1-D solver.  A suite with no flags prints the report of
    # the session's one run of it.  Each table file holds the stdout of its
    # whole argv: Blattner's formula on su21 and on an Sp(4,R) chamber, and
    # the box fallback of a group outside it
    want = (DATA / golden).read_bytes()
    if golden.startswith("verify_"):
        if not argv:
            monkeypatch.setattr(verify, "run_suite",
                                lambda name: suite_run(name).report)
        argv = ("verify", Path(golden).stem.split("_")[1], *argv)
    assert run(capsys, *argv) == (code, want.decode(), "")


def test_verify_ring_passes(capsys, monkeypatch, suite_run):
    monkeypatch.setattr(verify, "run_suite",
                        lambda name: suite_run(name).report)
    code, out, _ = run(capsys, "verify", "ring")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["suite"] == "ring"
    assert all(c["passed"] for c in doc["checks"])


def test_csv_json_contain_identical_tables(capsys):
    args = ("table", "--group", "sl2r-compact", "--params",
            '{"series":"limit","sign":"-"}', "--window", "8")
    _, out_csv, _ = run(capsys, *args, "--format", "csv")
    _, out_json, _ = run(capsys, *args, "--format", "json")
    from_csv = [(tuple(int(c) for c in k.split()), m)
                for k, m in parse_csv(out_csv)]
    doc = json.loads(out_json)
    from_json = [(tuple(r["ktype"]), r["multiplicity"])
                 for r in doc["table"]]
    assert from_csv == from_json


def test_determinism_byte_identical(capsys):
    args = ("table", "--group", "su21", "--params",
            '{"lambda":[3,1,-1]}', "--window", "5", "--format", "json")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b


def test_table_validates_and_grades_once(capsys, monkeypatch):
    validations, lattices = [], []
    real_validate = branching.validate_params

    def counted(g, p):
        validations.append(p)
        return real_validate(g, p)

    class Counted(branching.HMLattice):
        @classmethod
        def graded(cls, *args, **kwargs):
            lattices.append(args)
            return super().graded(*args, **kwargs)

    monkeypatch.setattr(branching, "validate_params", counted)
    monkeypatch.setattr("kbranch.cli.validate_params", counted)
    monkeypatch.setattr(branching, "HMLattice", Counted)
    branching._chamber.cache_clear()  # the lattice is the chamber record's
    code, out, _ = run(capsys, "table", "--group", "su21", "--params",
                       '{"lambda":[3,1,-1]}', "--window", "16")
    branching._chamber.cache_clear()  # no Counted lattice outlives the test
    assert code == 0 and out
    assert (len(validations), len(lattices)) == (1, 1)


def test_output_file_and_data_dir_override(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "table", "--group", "sl2r-compact", "--params",
                     '{"series":"discrete","n":1,"sign":"+"}',
                     "--window", "4", "--out", str(out))
    assert code == 0
    assert parse_csv(out.read_text()) == [("2", 1), ("4", 1)]

    # env var redirects builtin lookup
    alt = tmp_path / "data"
    alt.mkdir()
    (alt / "mygroup.json").write_text(
        (_BUILTIN_DIR / "sl2r-compact.json").read_text())
    monkeypatch.setenv("KTYPE_DATA_DIR", str(alt))
    code, out_text, _ = run(capsys, "table", "--group", "mygroup", "--params",
                            '{"series":"discrete","n":1,"sign":"+"}',
                            "--window", "4")
    assert code == 0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["plus", "minus", "discrete", "limit", "+", "-", ""]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
_SMALL = st.integers(-6, 6)
_RAW = {"lambda": st.lists(_SMALL, max_size=4),
        "lambda_denom": st.integers(-1, 2),
        "rmplus": st.lists(st.lists(st.integers(-1, 1), min_size=1,
                                    max_size=3), max_size=3),
        "chi": st.integers(-1, 2),
        "nu": st.lists(_SMALL, max_size=2)}
# a friendly or raw document of each shipped group
_DOCS = {
    "sl2r-compact": st.fixed_dictionaries(
        {"series": st.sampled_from(["discrete", "limit"])},
        optional={"n": _SMALL, "sign": st.sampled_from(["+", "-"])}),
    "sl2r-split": st.fixed_dictionaries(
        {"chi": st.sampled_from(["plus", "minus"])}, optional={"nu": _SMALL}),
    "su21": st.fixed_dictionaries(
        {"lambda": st.lists(_SMALL, min_size=3, max_size=3)},
        optional={"rmplus": _RAW["rmplus"], "chi": _RAW["chi"]}),
    "raw": st.fixed_dictionaries({}, optional=_RAW),
    # a group with no friendly form, its lambda's positive system derived
    # where the document has no rmplus
    str(DATA / "sp4r.json"): st.fixed_dictionaries(
        {"lambda": st.lists(_SMALL, min_size=2, max_size=2)},
        optional={k: _RAW[k] for k in ("lambda_denom", "chi", "nu")}),
}


@st.composite
def _table_argv(draw):
    """A table command whose document is a plausible one with up to two
    fields replaced by any JSON value."""
    group = draw(st.sampled_from(["sl2r-compact", "sl2r-split", "su21",
                                  str(DATA / "sp4r.json")]))
    doc = draw(_DOCS[draw(st.sampled_from([group, "raw"]))])
    for key in draw(st.lists(st.sampled_from(
            ["series", "n", "sign", "chi", "nu", *_RAW, "other"]),
            max_size=2, unique=True)):
        doc[key] = draw(_JSON)
    return ["table", "--group", group, "--params", json.dumps(doc),
            "--window", str(draw(st.integers(0, 8)))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_table_argv())
def test_fuzzed_params_documents_exit_0_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)
