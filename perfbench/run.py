"""hatloop benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload factorize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a checkout: the benchmark imports hatloop from
that checkout's ``src`` and exits with status 2 when there is none.

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``factorize``
(scalar and 2x2 Birkhoff factorization), ``orbits`` (q-difference solver
and sl2 triangular reduction) and ``exact`` (identities over
Q[Gamma^+-1]).  Each is a closed loop with one caller and no threads,
run in a fresh worker process; BLAS is pinned to one thread.

With ``--trace 0`` the command prints the end-to-end metrics:

* ``ops_per_s``      checked ops per second of timed library time;
* ``latency_p50_ms``, ``latency_p90_ms``  per-op latency (a run has at
  least 100 ops, so ten or more samples lie beyond p90);
* ``setup_s``        median over ``SETUP_SAMPLES`` fresh interpreters of
  the time from process start to the first op being ready (import of
  hatloop, numpy and sympy plus the first input);
* ``peak_rss_mb``    peak resident set of the workload process.

Every time behind these is divided by the machine's slowness measured
next to it (``calib.py``), so the figures read as time on a machine of
fixed speed and a busy neighbour does not show up as a regression.

It also prints ``failed_frac``, ``diverged_frac`` and the sample count.
``failed`` counts ops that raised an undocumented error or whose result
the check rejected; any such op makes ``correct`` false and the exit
status 1.  ``diverged`` counts q-difference solves that ended in the
solver's documented ``ConvergenceError``/``SmallDivisor`` (a
``SmallDivisor`` only when the check confirms the linear part is
near-singular); they are not counted in ``ops_per_s``, and more of them
than ``diverged_cap`` allows count as failed ops.

With ``--trace 1`` it runs the separate traced run (``spans.py``) and
prints the per-layer metrics, the import times of hatloop, numpy and
sympy from ``python -X importtime``, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same
numbers, the environment and per-kind latencies are written to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DEFAULT_SEEDS = {"factorize": 20260826, "orbits": 17, "exact": 7}
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0
END_TO_END = [("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


class BenchError(Exception):
    pass


def layer_unit(name):
    """Unit of the per-layer metric ``name``."""
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def start_worker(args, extra, deadline):
    """Start a worker; returns (process, seconds until it printed ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError("worker failed during set-up")
        remaining(deadline)
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_samples(args, deadline):
    """Set-up times of fresh workers, each divided by the slowness
    measured just before it started."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        slow = calib.slowness()
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        try:
            proc.communicate(timeout=remaining(deadline))
        finally:
            stop(proc)
        samples.append(setup / slow)
    return samples


def import_times(deadline):
    """Median cumulative import time of hatloop, numpy and sympy, each in
    a fresh interpreter under ``-X importtime``."""
    runs = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hatloop"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError("import hatloop failed")
        got = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("hatloop", "numpy", "sympy"):
                got[parts[2]] = int(parts[1]) / 1e6
        runs.append(got)
    return {f"import.{m}_s": statistics.median(r.get(m, 0.0) for r in runs)
            for m in ("hatloop", "numpy", "sympy")}


def diverged_cap(attempted):
    """Most documented solver failures a run of ``attempted`` ops may
    have before they count as failed ops.  Orbits runs of the seed
    solver see 1-7 in 400-700 ops (under 1.6%); the cap is more than
    three times that, while a kernel that made every q-difference solve
    fail would fail a third of the ops."""
    return 2 + attempted // 20


def count_failed(outcomes, attempted):
    """Wrong and erroring ops, plus every diverged op once there are more
    of those than ``diverged_cap`` allows."""
    failed = outcomes["wrong"] + outcomes["error"]
    if outcomes["diverged"] > diverged_cap(attempted):
        failed += outcomes["diverged"]
    return failed


def quantile(data, q):
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def per_kind(raw):
    out = {}
    for kind in sorted(set(raw["kinds"])):
        lat = [t for t, k in zip(raw["latencies"], raw["kinds"]) if k == kind]
        out[kind] = {"ops": len(lat), "median_ms": 1e3 * statistics.median(lat),
                     "max_ms": 1e3 * max(lat)}
    return out


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        proc, _ = start_worker(
            args, ["--spans", str(OUT / f"{name}-spans.npz")], deadline)
        raw = finish(proc, deadline)
        metrics = dict(raw["per_layer"])
        metrics.update(import_times(deadline))
        units = {m: layer_unit(m) for m in metrics}
    else:
        setups = setup_samples(args, deadline)
        slow = calib.slowness()
        proc, setup = start_worker(args, [], deadline)
        raw = finish(proc, deadline)
        setups.append(setup / slow)
        lat = raw["scaled"]
        metrics = {"ops_per_s": raw["outcomes"]["ok"] / sum(lat),
                   "latency_p50_ms": 1e3 * statistics.median(lat),
                   "latency_p90_ms": 1e3 * quantile(lat, 90),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": raw["peak_rss_mb"]}
        units = dict(END_TO_END)
    attempted = len(raw["latencies"])
    failed = count_failed(raw["outcomes"], attempted)
    diverged = raw["outcomes"]["diverged"]
    if diverged > diverged_cap(attempted):
        print(f"{diverged} documented solver failures in {attempted} ops, "
              f"above the cap of {diverged_cap(attempted)}",
              file=sys.stderr)
    correct = failed == 0
    for key, value in metrics.items():
        print(f"{args.workload:10s} {key:40s} {value:.6g} {units[key]}")
    print(f"{args.workload:10s} {'failed_frac':40s} {failed / attempted:.6g}")
    print(f"{args.workload:10s} {'diverged_frac':40s} "
          f"{diverged / attempted:.6g}")
    print(f"{args.workload:10s} {'samples':40s} {attempted}")
    for failure in raw["failures"]:
        print(f"FAILED op {failure['op']} ({failure['kind']}): "
              f"{failure['why']}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "outcomes": raw["outcomes"], "failures": raw["failures"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "per_kind": per_kind(raw),
        "latencies_s": raw["latencies"], "scaled_s": raw.get("scaled"),
        "kinds": raw["kinds"],
        "environment": dict(
            python=platform.python_version(), numpy=version("numpy"),
            sympy=version("sympy"), nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            machine=platform.machine(), commit=commit()),
    }
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="tiny run of each workload plus checker tests")
    args = ap.parse_args(argv)
    if not (SRC / "hatloop" / "__init__.py").is_file():
        print(f"perfbench: no hatloop sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return subprocess.run(
            [sys.executable, str(HERE / "selfcheck.py")], env=child_env(),
            cwd=ROOT, timeout=DEADLINE_S).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
