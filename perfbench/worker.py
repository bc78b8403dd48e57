"""Workload process: imports hatloop, runs one closed loop, prints JSON.

Started by ``run.py`` with the checkout's ``src`` and this directory on
``PYTHONPATH``.  It prints ``ready`` once hatloop is imported and the
first op's input is drawn (the end of set-up), then, unless
``--setup-only``, runs the loop and prints one JSON line of raw results.

The loop has one caller and no threads: op ``k + 1`` starts after op
``k`` and its check are done.  Only the library call is timed, plus the
check where the check is the work (``exact``).  The loop stops once the
timed seconds reach ``--seconds``, at least ``MIN_OPS`` ops ran (so a
run always has ten samples beyond its p90) and the workload's cycle of
op kinds is complete (so every run has the same mix).

Every ``CAL_EVERY_S`` of timed work the loop times ``calib.reference()``;
each op's time is also reported divided by the mean slowness measured
just before and just after the stretch of ops it belongs to.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import calib
import workloads

MIN_OPS = 100
WALL_CAP_S = 140.0
CAL_EVERY_S = 0.2


def run_op(op, tracer=None):
    """Run one op; returns (seconds timed, outcome, reason).

    Outcomes: ``ok``; ``diverged`` (an error the op documents as a valid
    answer, confirmed by ``op.confirm``); ``wrong`` (the check rejected
    the result or the error); ``error`` (any other exception, recorded
    rather than raised so the run reports it).
    """
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    documented = None
    try:
        result = op.call()
        why = op.check(result) if op.timed_check else None
        dt = time.perf_counter() - t0
    except op.allowed as exc:
        dt, documented = time.perf_counter() - t0, exc
    except Exception as exc:  # the run reports every failure and goes on
        return time.perf_counter() - t0, "error", repr(exc)[:200]
    finally:
        if tracer:
            tracer.uninstall()
    if documented is not None:
        why = op.confirm(documented) if op.confirm else ""
        return dt, ("wrong" if why else "diverged"), \
            why or type(documented).__name__
    if why is None:
        why = op.check(result)
    return dt, ("wrong" if why else "ok"), why


class Tally:
    def __init__(self):
        self.latencies = []
        self.scaled = []
        self.kinds = []
        self.outcomes = {"ok": 0, "diverged": 0, "wrong": 0, "error": 0}
        self.failures = []

    def add(self, k, op, dt, outcome, why):
        self.latencies.append(dt)
        self.kinds.append(op.kind)
        self.outcomes[outcome] += 1
        if outcome in ("wrong", "error") and len(self.failures) < 20:
            self.failures.append({"op": k, "kind": op.kind, "why": why})

    def rescale(self, slowness):
        """Divide the latencies not yet scaled by ``slowness``."""
        self.scaled += [t / slowness
                        for t in self.latencies[len(self.scaled):]]

    def result(self):
        return {"latencies": self.latencies, "scaled": self.scaled,
                "kinds": self.kinds, "outcomes": self.outcomes,
                "failures": self.failures}


def run_plain(workload, seed, seconds, first=None, min_ops=MIN_OPS):
    tally = Tally()
    busy, k, wall0 = 0.0, 0, time.perf_counter()
    slow, since_cal = calib.slowness(), 0.0
    cycle = len(workloads.WORKLOADS[workload])
    while ((busy < seconds or k < min_ops or k % cycle)
           and time.perf_counter() - wall0 < WALL_CAP_S):
        op = first if k == 0 and first else workloads.draw(workload, seed, k)
        dt, outcome, why = run_op(op)
        tally.add(k, op, dt, outcome, why)
        busy += dt
        since_cal += dt
        k += 1
        if since_cal >= CAL_EVERY_S:
            now = calib.slowness()
            tally.rescale((slow + now) / 2)
            slow, since_cal = now, 0.0
    tally.rescale((slow + calib.slowness()) / 2)
    return tally.result()


def run_traced(workload, seed, seconds, min_ops=2):
    """Each op runs twice on equal inputs, once untraced and once traced,
    alternating which goes first so warm caches favour neither; the
    traced copies give the per-layer metrics and the ratio of the two
    totals gives the tracing overhead."""
    import spans  # only traced runs pay for loading the tracer
    tracer = spans.Tracer()
    tally = Tally()
    plain = traced = 0.0
    k, wall0 = 0, time.perf_counter()
    while ((plain + traced < seconds or k < min_ops)
           and time.perf_counter() - wall0 < WALL_CAP_S):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            op = workloads.draw(workload, seed, k)
            dt, outcome, why = run_op(op, tracer if with_trace else None)
            if with_trace:
                traced += dt
                tally.add(k, op, dt, outcome, why)
            else:
                plain += dt
        k += 1
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    out = tally.result()
    out["per_layer"] = metrics
    out["tracer"] = tracer
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args(argv)

    first = workloads.draw(args.workload, args.seed, 0)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = run_traced(args.workload, args.seed, args.seconds)
        tracer = out.pop("tracer")
        if args.spans:
            tracer.save(args.spans)
    else:
        out = run_plain(args.workload, args.seed, args.seconds, first)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
