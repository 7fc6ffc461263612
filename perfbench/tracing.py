"""Spans around the public functions of each kbranch module, installed
from outside the program.

A wrapper replaces the function under every name it is looked up by in
the kbranch modules (for example kbranch.branching.kostant_partition as
well as kbranch.characters.kostant_partition), records a span with its
name, start, end and parent in flat arrays, and counts what the call did.
Spans stay in memory; `Tracer.raw()` reduces them at the end of a round
to per-name calls, outermost inclusive time and self time, where self time
is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from time import perf_counter

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.active: list[int] = []  # open spans per name
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # no open span of the same name around it
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.import_s: list[float] = []

    def open(self, name: str) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        idx = len(self.name)
        self.name.append(i)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self.active[i] == 0)
        self.active[i] += 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.active[self.name[idx]] -= 1

    def inside(self, name: str) -> bool:
        i = self.ids.get(name)
        return i is not None and self.active[i] > 0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def gauge(self, key: str, value: float) -> None:
        self.gauges[key] = max(self.gauges.get(key, value), value)

    def raw(self) -> dict:
        """Summary of the round: spans[name] = [calls, inclusive s, self s]."""
        n = len(self.name)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        spans = {name: [0, 0.0, 0.0] for name in self.names}
        for k in range(n):
            dur = self.end[k] - self.start[k]
            s = spans[self.names[self.name[k]]]
            s[0] += 1
            if self.outer[k]:
                s[1] += dur
            s[2] += dur - child[k]
        return {"spans": spans, "counts": dict(self.counts),
                "gauges": dict(self.gauges), "import_s": list(self.import_s)}


def _mode(args, kwargs):
    return args[4] if len(args) > 4 else kwargs.get("mode", "partition")


def _wrap(tracer: Tracer, name: str, fn, after=None, suffix=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(f"{name}.{suffix(args, kwargs)}" if suffix else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.count(f"{name}.raised")
            raise
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return traced


def _after_enumerate(t, args, kwargs, result):
    t.count("candidates", len(result))
    if t.inside("branching.ktype_table"):
        t.count("table_candidates", len(result))


def _after_table(t, args, kwargs, result):
    t.count("rows", len(result.entries))


def _after_kostant(t, args, kwargs, result):
    if result == 0:
        t.count("kostant_zero")


def _after_char_mul(t, args, kwargs, result):
    t.count("char_mul_pairs", len(args[0]) * len(args[1]))


def _after_osc1d(t, args, kwargs, result):
    # the dense SVD of the 2-D request only; 1-D and cylinder calls use
    # another grid
    if t.inside("oscillator.oscillator_nd"):
        grid = args[0] if args else kwargs["grid"]
        t.gauge("dense_svd_n", grid.npoints)


# (module, function, hook after a successful call, span-name suffix)
BOUNDARIES = (
    ("kbranch.groups", "load_group_data", None, None),
    ("kbranch.presets", "resolve_params", None, None),
    ("kbranch.ktypes", "enumerate_ktypes", _after_enumerate, None),
    ("kbranch.ktypes", "weight_multiplicities", None, None),
    ("kbranch.ktypes", "restrict_to_hm", None, None),
    ("kbranch.branching", "validate_params", None, None),
    ("kbranch.branching", "ktype_table", _after_table, None),
    ("kbranch.branching", "ktype_table_series", None, None),
    ("kbranch.branching", "ktype_multiplicity", None, _mode),
    ("kbranch.branching", "hm_virtual_character", None, None),
    ("kbranch.characters", "kostant_partition", _after_kostant, None),
    ("kbranch.characters", "char_mul", _after_char_mul, None),
    ("kbranch.oscillator", "oscillator_1d", _after_osc1d, None),
    ("kbranch.oscillator", "oscillator_nd", None, None),
    ("kbranch.oscillator", "cylinder_sl2", None, None),
)


def import_cli(tracer: Tracer | None) -> None:
    """Import kbranch.cli; a tracer records how long the fresh import took
    and whether numpy came with it."""
    t0 = perf_counter()
    importlib.import_module("kbranch.cli")
    if tracer is not None:
        tracer.import_s.append(perf_counter() - t0)
        tracer.gauge("numpy_loaded", float("numpy" in sys.modules))


def install(tracer: Tracer) -> None:
    """Wrap every boundary wherever a kbranch module holds a reference to
    it.  Boundaries the program no longer has are skipped; their layer
    metrics then read 0."""
    modules = [m for k, m in sys.modules.items()
               if k == "kbranch" or k.startswith("kbranch.")]
    for mod_name, attr, after, suffix in BOUNDARIES:
        fn = getattr(sys.modules.get(mod_name), attr, None)
        if fn is None:
            continue
        name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
        wrapped = _wrap(tracer, name, fn, after, suffix)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapped)


def end_of_round(tracer: Tracer) -> dict:
    """Raw summary of the round, with the memo size read at its end."""
    chars = sys.modules.get("kbranch.characters")
    tracer.gauge("kp_memo_entries", len(getattr(chars, "_KP_MEMO", ())))
    return tracer.raw()


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics of one round, named as in BENCHMARK.json."""
    spans, counts, gauges = raw["spans"], raw["counts"], raw["gauges"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[1] * 1e3

    def self_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[2] * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    restrict, freud = calls("ktypes.restrict_to_hm"), calls(
        "ktypes.weight_multiplicities")
    kostant = calls("characters.kostant_partition")
    imports = raw["import_s"]
    return {
        "cli.import_ms": statistics.median(imports) * 1e3 if imports else 0.0,
        "cli.numpy_loaded": gauges.get("numpy_loaded", 0.0),
        "groups.load_ms": incl_ms("groups.load_group_data"),
        "groups.load_calls": calls("groups.load_group_data"),
        "presets.resolve_ms": incl_ms("presets.resolve_params"),
        "ktypes.enumerate_ms": incl_ms("ktypes.enumerate_ktypes"),
        "ktypes.candidates": counts.get("candidates", 0),
        "ktypes.freudenthal_ms": incl_ms("ktypes.weight_multiplicities"),
        "ktypes.freudenthal_calls": freud,
        "ktypes.restrict_calls": restrict,
        "ktypes.restrict_hit_ratio": ratio(restrict - freud, restrict),
        "branching.validate_ms": incl_ms("branching.validate_params"),
        "branching.validate_calls": calls("branching.validate_params"),
        "branching.multiplicity_self_ms": self_ms(
            "branching.ktype_multiplicity.partition"),
        "branching.rows": counts.get("rows", 0),
        "branching.rows_per_candidate": ratio(counts.get("rows", 0),
                                              counts.get("table_candidates", 0)),
        "branching.series_ms": incl_ms("branching.hm_virtual_character"),
        "branching.series_builds": calls("branching.hm_virtual_character"),
        "branching.cutoff_retries": counts.get(
            "branching.hm_virtual_character.raised", 0),
        "characters.kostant_ms": incl_ms("characters.kostant_partition"),
        "characters.kostant_calls": kostant,
        "characters.kostant_zero_ratio": ratio(counts.get("kostant_zero", 0),
                                               kostant),
        "characters.kp_memo_entries": gauges.get("kp_memo_entries", 0),
        "characters.char_mul_ms": incl_ms("characters.char_mul"),
        "characters.char_mul_pairs": counts.get("char_mul_pairs", 0),
        "oscillator.osc1d_ms": incl_ms("oscillator.oscillator_1d"),
        "oscillator.cylinder_ms": incl_ms("oscillator.cylinder_sl2"),
        "oscillator.nd2_self_ms": self_ms("oscillator.oscillator_nd"),
        "oscillator.dense_svd_n": gauges.get("dense_svd_n", 0),
    }
