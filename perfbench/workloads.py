"""Seeded request sets of the two workloads, how each request is served,
and how its output is checked.

Request generation uses only the seed and the standard library, so the
program under test receives nothing but the generated inputs.  Serving and
checking import kbranch lazily, inside the round worker.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

GROUPS = ("sl2r-compact", "sl2r-split", "su21")

# su21 in the rank-3 torus coordinates of src/kbranch/data/su21.json
SU21_POSITIVES = ((1, -1, 0), (1, 0, -1), (0, 1, -1))
SU21_TIE = (1, 0, -1)  # regular vector breaking ties for singular parameters
LAMBDA_RANGE = 4

# nominal seconds one round of each workload takes on a 2-CPU x86 box; a run
# is a whole number of rounds derived from --seconds, so that every commit
# measured with the same --seconds does the same work
ROUND_S = {"su21-tables": 9.0, "oracle-mix": 4.5}

WORKLOADS = tuple(ROUND_S)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _positive_system(lam):
    """The su21 Levi positive system on which lam is dominant, ties broken by
    SU21_TIE (a lexicographic order, so always a positive system)."""
    out = []
    for r in SU21_POSITIVES:
        d = _dot(lam, r)
        if d > 0 or (d == 0 and _dot(SU21_TIE, r) > 0):
            out.append(list(r))
        else:
            out.append([-c for c in r])
    return out


def su21_doc(rng, singular: bool) -> dict:
    """A nonzero su21 parameter document.

    Regular parameters use the friendly {"lambda"} form; singular ones
    (orthogonal to a noncompact root) carry an explicit rmplus.  Parameters
    orthogonal to the compact root are never drawn, so no verdict is zero.
    """
    while True:
        a, b, c = (rng.randint(-LAMBDA_RANGE, LAMBDA_RANGE) for _ in range(3))
        if a == b or ((a == c or b == c) != singular):
            continue
        lam = [a, b, c]
        if not singular:
            return {"lambda": lam}
        return {"lambda": lam, "rmplus": _positive_system(lam)}


def _sl2_request(rng, group: str, window: int) -> dict:
    """An SL(2,R) table request, with the series its closed-form oracle
    takes."""
    if group == "sl2r-split":
        chi = rng.choice(["plus", "minus"])
        doc = {"chi": chi, "nu": rng.randint(-5, 5)}
        series = ["principal_spherical" if chi == "plus"
                  else "principal_nonspherical", 0]
    elif rng.random() < 0.66:
        n, sign = rng.randint(1, 5), rng.choice("+-")
        doc = {"series": "discrete", "n": n, "sign": sign}
        series = ["discrete_plus" if sign == "+" else "discrete_minus", n]
    else:
        sign = rng.choice("+-")
        doc = {"series": "limit", "sign": sign}
        series = ["limit_plus" if sign == "+" else "limit_minus", 0]
    return {"kind": "sl2_table", "group": group, "doc": doc,
            "window": window, "sl2": series}


# Each round follows a fixed sequence of request kinds; the seed picks the
# parameters and scales.  So seeds change the inputs but not the amount of
# work per kind, nor where in the round the cold-cache cost and the growth
# of the engine's memo land.  The sequences put the median request and the
# tail percentile inside a class of requests with many samples, not on the
# edge between two classes, where the seed and the host move them most.
PATTERNS = {
    # su21 tables by window; the candidate box grows like (2w+1)^3.  The
    # window-8 table comes first and pays the cold restriction cache of the
    # round, so the others are warm tables.  One window-8 and one window-4
    # table around ten at window 6: the median request is a window-6 table
    # and, with fewer than ten rounds, so is the tail percentile.
    "su21-tables": ((8, 4) + (6,) * 10, (2, 3) * 6),
    # T series table, Q series query, L SL(2,R) table, O oscillator_1d,
    # Y cylinder, N 2-D.  Queries and SL(2,R) tables are the cheapest (ten),
    # kernels next (sixteen), then series tables and the 2-D requests
    # (ten): the median falls among the kernels and, with six or more
    # rounds, the tail among the 2-D requests.
    "oracle-mix": ("TQOYTLOYQNTQOYTQOYTQOYQNTQOYTLOYTQOY", "TQOYNQTOLYQ"),
}

# series tables of oracle-mix: the same parameters in every round of a
# run, regular and singular in turn, so that their costly oracle, the
# partition table, runs once per run and not once per round
SERIES_POOL = 8


def _su21_ktypes(window: int) -> list[list[int]]:
    """Dominant su21 K-type highest weights (a >= b) in the window."""
    r = range(-window, window + 1)
    return [[a, b, c] for a in r for b in r for c in r if a >= b]


def _oracle_request(rng, pool: list[dict], kind: str, i: int,
                    tiny: bool) -> dict:
    if kind == "T":
        return {"kind": "series_table", "doc": pool[i % len(pool)],
                "window": 4 if tiny else 6}
    if kind == "Q":
        return {"kind": "series_query", "doc": su21_doc(rng, i % 3 == 2),
                "ktype": rng.choice(_su21_ktypes(6))}
    if kind == "L":
        return _sl2_request(rng, GROUPS[i % 2], rng.randint(20, 60))
    if kind == "O":
        return {"kind": "osc1d", "scale": rng.choice([1.0, 2.0, 4.0])}
    if kind == "Y":
        return {"kind": "cylinder", "parity": ("even", "odd")[i % 2],
                "scale": rng.choice([1.0, 2.0, 4.0])}
    return {"kind": "nd2", "scale": rng.choice([1.0, 2.0])}


def make_requests(workload: str, seed: int, round_index: int,
                  tiny: bool = False) -> list[dict]:
    """The request set of one round of a run; the same seed and round give
    the same requests.  Each round draws new parameters, so that a run
    averages over more of them, except the series tables of oracle-mix,
    which come from one pool per run."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    pattern = PATTERNS[workload][1 if tiny else 0]
    # i counts the earlier requests of the same kind
    kinds = [(k, pattern[:j].count(k)) for j, k in enumerate(pattern)]
    if workload == "oracle-mix":
        pool_rng = random.Random(f"{workload}/{seed}/series")
        pool = [su21_doc(pool_rng, singular=(j % 2 == 1))
                for j in range(SERIES_POOL)]
        return [_oracle_request(rng, pool, k, i, tiny) for k, i in kinds]
    # every other window-6 table has a singular parameter
    return [{"kind": "su21_table",
             "doc": su21_doc(rng, singular=(w == 6 and i % 2 == 1)),
             "window": w} for w, i in kinds]


def warmup_request(workload: str) -> dict:
    """The untimed request paid in set-up: the cheapest of the workload."""
    if workload == "su21-tables":
        return {"kind": "su21_table", "doc": {"lambda": [3, 1, -1]}, "window": 2}
    return {"kind": "osc1d", "scale": 1.0}


# ---------------------------------------------------------------- serving


class Server:
    """Serves the requests of one round in this interpreter.

    Holds the loaded groups and the restriction dict shared by the series
    tables, as suite_su21 shares it.
    """

    def __init__(self):
        from kbranch.groups import builtin_group
        self.groups = {name: builtin_group(name) for name in GROUPS}
        self.restrictions: dict = {}

    def serve(self, req: dict):
        from kbranch import branching, oscillator
        from kbranch.presets import resolve_params
        kind = req["kind"]
        if kind == "su21_table":
            g = self.groups["su21"]
            return branching.ktype_table(g, resolve_params(g, req["doc"]),
                                         req["window"])
        if kind == "sl2_table":
            g = self.groups[req["group"]]
            return branching.ktype_table(g, resolve_params(g, req["doc"]),
                                         req["window"])
        if kind == "series_table":
            g = self.groups["su21"]
            return branching.ktype_table_series(
                g, resolve_params(g, req["doc"]), req["window"],
                self.restrictions)
        if kind == "series_query":
            from kbranch.ktypes import KType
            g = self.groups["su21"]
            kt = KType(g.t_weight(req["ktype"]))
            return branching.ktype_multiplicity(
                g, resolve_params(g, req["doc"]), kt, "series")
        grid = oscillator.GridSpec(8.0, 0.05)
        if kind == "osc1d":
            return oscillator.oscillator_1d(grid, 1e-6,
                                            potential_scale=req["scale"])
        if kind == "cylinder":
            return oscillator.cylinder_sl2(req["parity"], 20, grid, 1e-6,
                                           potential_scale=req["scale"])
        if kind == "nd2":
            return oscillator.oscillator_nd(2, oscillator.GridSpec(6.0, 0.1),
                                            1e-5, potential_scale=req["scale"])
        raise ValueError(f"unknown request kind {kind!r}")


# --------------------------------------------------------------- checking


def _table_key(t) -> list:
    return [sorted(t.entries.items()), t.window, t.sign]


def _report_key(rep) -> list:
    # floats at 6 digits: ARPACK starts from a random vector, so the last
    # digits of the 2-D Gaussian error move from call to call
    return [rep.kernel_dim_even, rep.kernel_dim_odd,
            f"{rep.gaussian_l2_error:.6g}",
            [f"{s:.6g}" for s in rep.even_singular_values[1:]]]


# kinds whose output is exact: once one round's output has passed its
# oracle, the same request in a later round of the run must give the same
# fingerprint, and its oracle is not run again
EXACT = ("su21_table", "sl2_table", "series_table", "series_query")


def request_key(req: dict) -> str:
    return json.dumps(req, sort_keys=True)


def digest(req: dict, out) -> str:
    """Stable fingerprint of a request's output, compared between the
    untraced and the traced serving of the same round, and between rounds
    for the EXACT kinds."""
    kind = req["kind"]
    if kind in ("su21_table", "sl2_table", "series_table", "cylinder"):
        key = _table_key(out)
    elif kind == "series_query":
        key = out
    else:
        key = _report_key(out)
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()[:16]


def check(server: Server, req: dict, out) -> str | None:
    """None when the output is right, else what is wrong.  Runs outside the
    timed region; every oracle here is independent of the timed path."""
    from kbranch import branching
    from kbranch.presets import resolve_params
    kind = req["kind"]
    su21 = server.groups["su21"]

    if kind == "su21_table":
        exp = branching.ktype_table_series(
            su21, resolve_params(su21, req["doc"]), req["window"])
        return None if out == exp else "partition table differs from series"
    if kind == "sl2_table":
        from kbranch.sl2_oracles import SL2Series, sl2_branching
        exp = sl2_branching(SL2Series(*req["sl2"]), req["window"])
        return None if out == exp else "table differs from sl2_branching"
    if kind == "series_table":
        exp = branching.ktype_table(
            su21, resolve_params(su21, req["doc"]), req["window"])
        return None if out == exp else "series table differs from partition"
    if kind == "series_query":
        from kbranch.ktypes import KType
        exp = branching.ktype_multiplicity(
            su21, resolve_params(su21, req["doc"]),
            KType(su21.t_weight(req["ktype"])), "partition")
        return None if out == exp else f"series {out} vs partition {exp}"
    if kind == "cylinder":
        from kbranch.sl2_oracles import SL2Series, oracle_match
        series = SL2Series("principal_spherical" if req["parity"] == "even"
                           else "principal_nonspherical")
        return None if oracle_match(out, series).ok else "cylinder off oracle"
    # oscillator reports: the bounds of suite_dirac
    bound = 5e-3 if kind == "nd2" else 1e-3
    if (out.kernel_dim_even, out.kernel_dim_odd) != (1, 0):
        return f"kernel dims {(out.kernel_dim_even, out.kernel_dim_odd)}"
    if not out.gaussian_l2_error < bound:
        return f"gaussian error {out.gaussian_l2_error:.3e} >= {bound}"
    if kind == "osc1d" and not out.even_singular_values[1] > 0.5:
        return "spectral gap <= 0.5"
    return None


def child_env(root: str) -> dict:
    """Environment of every child: kbranch from ./src, and one BLAS and
    OpenMP thread, as the load is one closed-loop client: on a shared host
    of a few cores, more threads measure the scheduler."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = "1"
    # a fixed string-hash salt: the iteration order of the engine's sets and
    # dicts, and with it the partition memo's hit pattern, otherwise changes
    # from process to process
    env["PYTHONHASHSEED"] = "0"
    return env
