"""Command-line surface: exit codes, formats, determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kbranch
from kbranch import branching
from kbranch.cli import MAX_WINDOW, main
from kbranch.oscillator import MAX_GRID_POINTS
from kbranch.groups import _BUILTIN_DIR


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


def test_bad_params_document_exits_2(capsys):
    code, _, err = run(capsys, "table", "--group", "sl2r-compact",
                       "--params", '{"series":"unknown"}')
    assert code == 2


@pytest.mark.parametrize("group, params", [
    ("su21", '{"lambda":[3.7,1,-1]}'),
    ("su21", '{"lambda":"abc"}'),
    ("sl2r-compact", '{"series":"discrete","n":"x"}'),
    ("sl2r-compact", '{"series":"discrete","n":3,"sign":"banana"}'),
    ("su21", '{"lambda":[1,2]}'),
    ("sl2r-split", '{"chi":[]}'),
    ("sl2r-split", '{"chi":{}}'),
    ("su21", '{"lambda":[3,1,-1],"bogus":5}'),
    ("su21", '{"lambda":[3,1,-1],"lambda_denom":2}'),
    ("sl2r-compact", '{"series":"limit","n":3,"sign":"+"}'),
    ("sl2r-split", '{"chi":"plus","rmplus":[[1]]}'),
])
def test_malformed_params_document_exits_2(capsys, group, params):
    code, out, err = run(capsys, "table", "--group", group,
                         "--params", params, "--window", "2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_unknown_params_field_is_named(capsys):
    code, out, err = run(capsys, "table", "--group", "su21", "--params",
                         '{"lambda":[3,1,-1],"lambda_denom":2}')
    assert (code, out) == (2, "")
    assert "'lambda_denom'" in err


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
    exits_2_with_empty_stdout(
        capsys, "table", "--group", "su21", "--params", '{"lambda":[3,1,-1]}',
        "--window", str(MAX_WINDOW + 1))


def test_box_above_cap_exits_2_without_scanning(capsys, tmp_path,
                                                monkeypatch):
    # su21 with every Levi root noncompact falls back to the box scan
    doc = json.loads((_BUILTIN_DIR / "su21.json").read_text())
    doc["m"]["compact_flags"] = [False] * 6
    doc["dims"]["s_M"] = 6
    path = tmp_path / "su21-noncompact.json"
    path.write_text(json.dumps(doc))
    argv = ["table", "--group", str(path), "--params", '{"lambda":[3,1,-1]}']

    def refuse(*args):
        raise AssertionError("scanned the K-type box")

    with monkeypatch.context() as m:
        m.setattr(branching, "enumerate_ktypes", refuse)
        exits_2_with_empty_stdout(capsys, *argv, "--window", "17")
    code, out, _ = run(capsys, *argv, "--window", "4")
    assert code == 0
    assert len(parse_csv(out)) == 3


def test_grid_above_cap_exits_2(capsys):
    # 2L/h + 1 = MAX_GRID_POINTS + 1 points: refused before any matrix
    step = 2 * 8.0 / MAX_GRID_POINTS
    exits_2_with_empty_stdout(capsys, "verify", "dirac", "--grid-L", "8",
                              "--grid-h", repr(step))


@pytest.mark.parametrize("flag, value", [
    ("--grid-h", "0"), ("--grid-h", "-0.05"), ("--grid-h", "nan"),
    ("--grid-L", "inf"), ("--svd-tol", "0"), ("--grid-h", "0.03")])
def test_bad_grid_exits_2(capsys, flag, value):
    exits_2_with_empty_stdout(capsys, "verify", "dirac", flag, value)


def test_missing_group_exits_3(capsys):
    code, _, err = run(capsys, "table", "--group", "/nonexistent/g.json",
                       "--params", "{}")
    assert code == 3


def test_schema_error_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    doc["dims"]["s_M"] = 3
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 4
    assert "sign factor parity" in err


def test_validate_shipped_files(capsys):
    for name in ("sl2r-compact", "sl2r-split", "su21"):
        code, out, _ = run(capsys, "validate",
                           str(_BUILTIN_DIR / f"{name}.json"))
        assert code == 0
        assert f"valid: {name}" in out
        assert "ok: schema" in out


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
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 4
    assert "Weyl closure" in err


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


def _boolean(*path_and_value):
    """A mutation setting doc[path...] to a value holding JSON booleans,
    which are not integers; named after the path for the test id."""
    *path, key, value = path_and_value

    def mutate(doc):
        for p in path:
            doc = doc[p]
        doc[key] = value
    mutate.__name__ = "_boolean_" + "_".join(map(str, (*path, key)))
    return mutate


@pytest.mark.parametrize("mutate, invariant", [
    (_zero_denominator, "zmprime table"),
    (_unpointed_k_positives, "simple decomposition"),
    (_undecodable, "schema"),
    (_boolean("k", "rank", True), "schema"),
    (_boolean("m", "rank", True), "schema"),
    (_boolean("tM_in_t", [[True]]), "schema"),
    (_boolean("dims", "a", False), "schema"),
    (_boolean("dims", "s_M", True), "schema"),
    (_boolean("restricted", "dim_a", False), "schema"),
    (_boolean("zmprime", "order", True), "schema"),
    (_boolean("m", "positives", [[True]]), "schema"),
    (_boolean("zmprime", "generators", 0, "char_table_row", [False, True]),
     "zmprime table"),
    (_boolean("zmprime", "generators", 0, "v", [True]), "zmprime table"),
])
def test_validate_malformed_group_file_exits_4(tmp_path, capsys, mutate,
                                               invariant):
    """mutate edits the document in place, or returns the file's bytes."""
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    raw = mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_bytes(json.dumps(doc).encode() if raw is None else raw)
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 4
    assert out == ""
    assert f"invalid: {invariant}" in err
    code, out, err = run(capsys, "table", "--group", str(bad), "--params",
                         '{"series":"discrete","n":3,"sign":"+"}')
    assert (code, out) == (4, "")
    assert f"error: {invariant}" in err


def test_cli_and_table_leave_numpy_unloaded():
    script = ("import sys\n"
              "from kbranch.cli import main\n"
              "assert 'numpy' not in sys.modules\n"
              "assert main(['table', '--group', 'su21', '--params',"
              " '{\"lambda\": [3, 1, -1]}', '--window', '16']) == 0\n"
              "assert 'numpy' not in sys.modules, 'table loaded numpy'\n")
    src = str(Path(kbranch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ktype_highest_weight,")


def test_validate_rank_above_cap_exits_4(tmp_path, capsys):
    doc = json.loads((_BUILTIN_DIR / "sl2r-compact.json").read_text())
    doc["k"]["rank"] = 1000
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (4, "")
    assert "invalid: size cap" in err


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


def test_verify_ring_passes(capsys):
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
}


@st.composite
def _table_argv(draw):
    """A table command whose document is a plausible one with up to two
    fields replaced by any JSON value."""
    group = draw(st.sampled_from(["sl2r-compact", "sl2r-split", "su21"]))
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
