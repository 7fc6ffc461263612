"""The kbranch benchmark.

    python3 perfbench/run.py --workload {su21-tables,oracle-mix,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a kbranch checkout.  A run is a whole number of
rounds, max(3, round(S / nominal round time)); each round is a fresh
interpreter (perfbench/worker.py) that serves a request set drawn from the
seed and the round number in a closed loop with one client, so caches
never carry over between rounds, runs or workloads.  Every output is
checked after the timed region: against an independent oracle, or, for a
request of an exact kind that an earlier round of the run already
verified, against the fingerprint of that verified output.

--trace 0 reports the end-to-end metrics: wall_s as the sum over the
positions of the request set of their median latency over rounds,
latency_p50_ms and latency_tail_ms over the requests of all rounds, and
medians of peak_rss_mb over rounds and of setup_s over the rounds and
extra interpreters that only set up (SETUP_SAMPLES in all).  Times are
taken to a reference host speed with the host-speed probe that runs
between requests (worker.HostProbe, at_reference_speed); the report also
holds them unscaled.
--trace 1 serves each round's inputs untraced and then traced, checks that
both give identical outputs, and reports the per-layer metrics of the
traced rounds (medians) and trace.overhead_ratio.

The next-to-last line of stdout is the full report (environment, every
metric with its unit, error_rate, the tail percentile and its sample
count, the unscaled times and the scale of each round, span summary); the
last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# set-up times per untraced run, from the rounds and from interpreters that
# only set up
SETUP_SAMPLES = 10

# A run reports its times at the host speed at which the probe of
# worker.py takes this long (see worker.HostProbe)
PROBE_REF_S = 0.0035
# probes on each side of a request that set its scale
PROBE_WINDOW = 2


def units() -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def rounds_for(workload: str, seconds: float) -> int:
    return max(3, round(seconds / workloads.ROUND_S[workload]))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with at least
    10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        raise ValueError(f"{n} latency samples; the tail needs at least 11")
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_round(root: str, spec: dict) -> dict:
    env = workloads.child_env(root)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           json.dumps(spec)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"round worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_info(root: str) -> dict:
    """The git commit when the checkout is a repository, and a digest of
    the program's source either way."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "kbranch")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    try:
        # the ceiling keeps git from taking a repository above the checkout
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(root)})
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def at_reference_speed(r: dict) -> tuple[list[float] | None, float]:
    """An interpreter's request latencies (None when it only set up) and
    set-up time, at the reference host speed.  probe_s[0] ran right after
    the set-up and probe_s[j + 1] right after request j.  A request is
    scaled by PROBE_REF_S / (median of the probes within PROBE_WINDOW of
    it), so a spell of a few seconds at another speed is scaled as it
    happened; the set-up by the first 2 * PROBE_WINDOW probes."""
    p = r["probe_s"]

    def k(lo: int, hi: int) -> float:
        return PROBE_REF_S / statistics.median(p[max(0, lo):hi])

    lat = r.get("latencies_s")
    if lat is not None:
        lat = [x * k(j + 1 - PROBE_WINDOW, j + 1 + PROBE_WINDOW)
               for j, x in enumerate(lat)]
    return lat, r["setup_s"] * k(0, 2 * PROBE_WINDOW)


def end_to_end(samples: list[tuple[list[float] | None, float]],
               peak_rss_mb: float) -> tuple[dict, float, int]:
    """End-to-end metrics from (request latencies, set-up time) per
    interpreter, None for the latencies of one that only set up; with the
    tail's percentile and sample count."""
    rounds = [lat for lat, _ in samples if lat is not None]
    lat = [x for r in rounds for x in r]
    tail_s, pct, n = tail(lat)
    return {
        # the request set's time, as the sum over its positions of the
        # median over rounds: robust to a slow spell in one round
        "wall_s": sum(map(statistics.median, zip(*rounds))),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(s for _, s in samples),
    }, pct, n


def measure(workload: str, seed: int, seconds: float, trace: bool,
            root: str = ".", tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (report, result line)."""
    root = os.path.abspath(root)
    n_rounds = 1 if tiny else rounds_for(workload, seconds)
    # a traced run serves each round's inputs twice, untraced then traced
    pairs = 1 if tiny else max(2, n_rounds // 2)
    plan = ([(i, traced) for i in range(pairs)
             for traced in (False, True)] if trace
            else [(i, False) for i in range(n_rounds)])
    # set-up-only interpreters, spread over the first rounds, so that an
    # untraced run has at least SETUP_SAMPLES set-up times
    extra = 0 if (trace or tiny) else max(0, SETUP_SAMPLES - n_rounds)
    started = time.perf_counter()
    rounds, setups = [], []
    verified: dict[str, str] = {}
    for i, traced in plan:
        requests = workloads.make_requests(workload, seed, i, tiny)
        keys = [workloads.request_key(r) for r in requests]
        spec = {"workload": workload, "seed": seed, "round": i,
                "traced": traced, "tiny": tiny,
                "verified": {k: verified[k] for k in keys if k in verified}}
        for _ in range(min(extra, -(-SETUP_SAMPLES // n_rounds) - 1)):
            extra -= 1
            setups.append(run_round(root, {**spec, "setup_only": True}))
        r = run_round(root, spec)
        rounds.append(r)
        for req, k, d in zip(requests, keys, r["digests"]):
            if d is not None and req["kind"] in workloads.EXACT:
                verified.setdefault(k, d)
    elapsed = time.perf_counter() - started

    errors, attempted, failed = [], 0, 0
    untraced_digests = {}
    for (i, traced), r in zip(plan, rounds):
        attempted += len(r["digests"])
        errors += r["errors"]
        if traced:
            bad = [j for j, d in enumerate(r["digests"])
                   if d is None or d != untraced_digests[i][j]]
            if bad:
                errors.append(f"round {i}: traced outputs {bad} differ from "
                              "the untraced ones")
        else:
            untraced_digests[i] = r["digests"]
            bad = [j for j, d in enumerate(r["digests"]) if d is None]
        failed += len(bad)

    plain = [r for (_, t), r in zip(plan, rounds) if not t]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "rounds": len(rounds), "traced_rounds": sum(t for _, t in plan),
        "elapsed_s": elapsed,
        "env": {**rounds[0]["env"], **source_info(root), "seed": seed},
        "attempted": attempted, "failed": failed,
        "errors": errors[:20],
        "host_scale": [PROBE_REF_S / statistics.median(r["probe_s"])
                       for r in rounds + setups],
        "probe_ref_s": PROBE_REF_S,
    }
    unit = units()
    metrics = {}
    if not trace:
        peak_rss_mb = statistics.median(r["peak_rss_mb"] for r in plain)
        values, pct, n = end_to_end(
            [at_reference_speed(r) for r in plain + setups], peak_rss_mb)
        metrics = {k: {"value": v, "unit": unit[k]}
                   for k, v in values.items()}
        report["latency_tail"] = {"percentile": pct, "samples": n}
        report["metrics"] = {**metrics, "error_rate": {
            "value": failed / attempted, "unit": "ratio"}}
        report["unscaled"] = end_to_end(
            [(r.get("latencies_s"), r["setup_s"]) for r in plain + setups],
            peak_rss_mb)[0]
    else:
        traced = [r for (_, t), r in zip(plan, rounds) if t]
        for name in traced[0]["layers"]:
            v = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": v, "unit": unit[name]}

        def wall(rs):
            return statistics.median(sum(at_reference_speed(r)[0])
                                     for r in rs)
        metrics["trace.overhead_ratio"] = {
            "value": wall(traced) / wall(plain),
            "unit": unit["trace.overhead_ratio"]}
        report["metrics"] = metrics
        report["spans"] = traced[-1]["spans"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kbranch", "cli.py")):
        print("error: run from the root of a kbranch checkout "
              "(src/kbranch/cli.py not found)", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else [args.workload])
    for name in names:
        try:
            report, result = measure(name, args.seed, args.seconds,
                                     bool(args.trace), root)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print(json.dumps(report, sort_keys=True))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
