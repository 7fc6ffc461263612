"""One round of one workload, in a fresh interpreter.

    python perfbench/worker.py '{"workload": ..., "seed": ..., "round": ...,
                                 "traced": ..., "tiny": ...,
                                 "setup_only": ..., "verified": {...}}'

Set-up (importing kbranch.cli, loading the groups, one untimed warm-up
request) is timed on its own, and a set-up-only spec stops there.  Then
the round's requests are served one after another by a single client,
each timed with perf_counter, with a run of the host-speed probe before
the first and after each one.  Peak memory is read right after the last request.  After the timed region every
output is checked against its oracle, or, when an earlier round of the run
verified the same request of an exact kind, against that output's
fingerprint ("verified", request key -> fingerprint).  The fingerprints go
back to run.py, which compares traced with untraced rounds.  The result is one
JSON line on stdout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import tracing
import workloads

ROOT = os.getcwd()


def _env_block(workload: str, n_requests: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "requests_per_round": {workload: n_requests},
    }


class HostProbe:
    """The host-speed probe: a fixed 120x120 dense SVD.

    On a shared host the speed of a core drifts by a third or more over
    seconds to minutes, with the load of other tenants, and pure-Python
    and LAPACK work slow down together.  The probe runs between requests, on
    the core and at the times the requests run, and run.py scales the
    times of nearby requests by PROBE_REF_S / (median probe time).  The SVD
    works on 115 kB of its own data and makes no Python objects to speak
    of, so what the program did before it barely moves it.
    """

    def __init__(self):
        import numpy
        self._svd = numpy.linalg.svd
        self._m = numpy.random.default_rng(0).standard_normal((120, 120))
        self.samples: list[float] = []

    def __call__(self) -> None:
        # the first SVD brings its data back into the caches; the second
        # is timed
        self._svd(self._m)
        t = time.perf_counter()
        self._svd(self._m)
        self.samples.append(time.perf_counter() - t)


# probes after the set-up of an interpreter that only sets up: as many as
# run.at_reference_speed scales a set-up time by
SETUP_PROBES = 4


def run_round(spec: dict) -> dict:
    workload, traced = spec["workload"], spec["traced"]
    requests = workloads.make_requests(workload, spec["seed"], spec["round"],
                                       spec["tiny"])
    tracer = tracing.Tracer() if traced else None

    t0 = time.perf_counter()
    tracing.import_cli(tracer)
    if not os.path.abspath(sys.modules["kbranch"].__file__).startswith(
            os.path.join(ROOT, "src", "")):
        raise SystemExit("kbranch was not imported from ./src")
    if tracer is not None:
        tracing.install(tracer)
    server = workloads.Server()
    server.serve(workloads.warmup_request(workload))
    setup_s = time.perf_counter() - t0
    probe = HostProbe()
    if spec.get("setup_only"):
        for _ in range(SETUP_PROBES):
            probe()
        return {"setup_s": setup_s, "probe_s": probe.samples}

    outputs, latencies, errors = [], [], []
    probe()
    for req in requests:
        t = time.perf_counter()
        try:
            out = server.serve(req)
        except Exception as e:  # a raising request is a counted failure
            out = None
            errors.append(f"{req['kind']}: {type(e).__name__}: {e}")
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
        probe()
    wall_s = sum(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = tracing.end_of_round(tracer) if tracer is not None else None

    digests = []
    verified = spec.get("verified", {})
    for req, out in zip(requests, outputs):
        if out is None:
            digests.append(None)
            continue
        d = workloads.digest(req, out)
        known = verified.get(workloads.request_key(req))
        if known is None:
            problem = workloads.check(server, req, out)
        elif d != known:
            problem = "output differs from the one verified earlier in the run"
        else:
            problem = None
        if problem:
            errors.append(f"{req['kind']}: {problem}: {json.dumps(req)}")
            digests.append(None)
        else:
            digests.append(d)

    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "probe_s": probe.samples,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "errors": errors,
        "layers": tracing.layer_metrics(raw) if raw is not None else None,
        "spans": raw["spans"] if raw is not None else None,
        "env": _env_block(workload, len(requests)),
    }


if __name__ == "__main__":
    print(json.dumps(run_round(json.loads(sys.argv[1]))))
