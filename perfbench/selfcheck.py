"""Self-check of the benchmark itself; run it as ``run.py --self-check``.

* a tiny plain run and a tiny traced run (one cycle of ops each) of
  every workload complete with no failed op, and the traced run records
  calls of every span the workload is meant to run (``RUNS``);
* tracing restores every function it wrapped;
* each checker accepts a real result and rejects the same result with
  one coefficient perturbed (numeric) or flipped (exact); the germ-ring
  check rejects a ``LaurentGerm.mul`` that returns zero or drops a term;
* a ``SmallDivisor`` on a well-conditioned system counts as wrong, and a
  run in which every q-difference solve diverges counts as failed;
* ``BENCHMARK.json`` names the workloads, metrics and units the code
  reports.
"""

from __future__ import annotations

import json
import sys

import hatloop.birkhoff as birkhoff
import hatloop.germs as germs
import hatloop.leaves as leaves
from hatloop.birkhoff import Factorization, LoopMatrix
from hatloop.errors import ConvergenceError, SmallDivisor
from hatloop.extgroup import ExtendedElement
from hatloop.germs import LaurentGerm
from hatloop.leaves import Sl2Reduction
from hatloop.poisson import PoissonPoly, TensorPoly

import run
import spans
import worker
import workloads

SEED = 1
PROBLEMS = []

# Per-layer counts that one cycle of each workload must make non-zero:
# the spans ``spans.py``'s table maps to the workload.  A wrapper that
# missed an alias would leave its count at 0.
RUNS = {
    "factorize": [
        "germs.germ_exp.calls", "germs.germ_exp.order",
        "germs.mul.complex.calls", "germs.mul.complex.terms",
        "germs.coeff_at.calls", "birkhoff.birkhoff_scalar.calls",
        "birkhoff.birkhoff_matrix2.calls", "birkhoff.LoopMatrix.mul.calls",
        "birkhoff.winding_number.nsamples", "birkhoff.log_coeffs.nsamples",
        "birkhoff.reciprocal_coeffs.nsamples"],
    "orbits": [
        "germs.rescale.calls", "germs.mul.complex.terms",
        "leaves.qdiff_solve.calls", "leaves.sl2_triangular_reduce.calls",
        "leaves.twisted_conjugate.calls", "birkhoff.log_coeffs.calls",
        "birkhoff.reciprocal_coeffs.calls"],
    "exact": [
        "germs.mul.exact.calls", "germs.mul.exact.terms",
        "scalars.QGamma.mul.calls", "extgroup.hat_mul.calls",
        "extgroup.hat_inv.calls", "poisson.bracket_gl1.calls",
        "poisson.bracket_sl2.calls", "poisson.coproduct.calls",
        "poisson.tensor_bracket.calls", "poisson.antipode.calls",
        "poisson.frobenius.calls", "qheis.q_heisenberg_commutator.calls",
        "qheis.semiclassical_limit.calls"],
}


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def nudge(g, n, by=1e-6):
    d = dict(g.items())
    d[n] = d.get(n, 0) + by
    return LaurentGerm.from_dict(d, g.domain, g.radius)


def flip(x):
    """Change one exact coefficient of an exact result."""
    if isinstance(x, tuple):
        return (flip(x[0]),) + x[1:]
    if isinstance(x, (PoissonPoly, TensorPoly)):
        out = type(x)()
        out.terms = dict(x.terms)
        key = next(iter(out.terms), ((), ()) if isinstance(x, TensorPoly)
                   else ())
        out.terms[key] = out.terms.get(key, 0) + 1
        return out
    if isinstance(x, ExtendedElement):
        return ExtendedElement(x.n, flip(x.f), x.lam, x.gamma, x.const)
    if isinstance(x, LaurentGerm):
        n = x.n_min if not x.is_zero() else 0
        d = dict(x.items())
        d[n] = x.coeff_at(n) + 1
        return LaurentGerm.from_dict(d, x.domain)
    raise TypeError(f"cannot flip {type(x).__name__}")


def first_solved(workload, kind):
    """First op of ``kind`` under SEED that returns a result."""
    for k in range(64):
        op = workloads.draw(workload, SEED, k)
        if op.kind != kind:
            continue
        try:
            return op, op.call()
        except op.allowed:
            continue
    raise AssertionError(f"no {kind} op solved")


def check_checkers():
    op, (fp, n, fm) = first_solved("factorize", "scalar4")
    expect(op.check((fp, n, fm)) == "", "scalar check accepts a result")
    expect(op.check((fp, n, nudge(fm, -1))) != "",
           "scalar check rejects a perturbed f_minus coefficient")
    expect(op.check((fp, n + 1, fm)) != "",
           "scalar check rejects a wrong winding number")

    op, fact = first_solved("factorize", "matrix2")
    expect(op.check(fact) == "", "matrix check accepts a result")
    M = fact.f_minus
    bad = LoopMatrix([[M[0, 0], M[0, 1]], [nudge(M[1, 0], -1), M[1, 1]]])
    expect(op.check(Factorization(fact.f_plus, fact.indices, bad)) != "",
           "matrix check rejects a perturbed F_minus coefficient")

    op, g = first_solved("orbits", "qdiff")
    expect(op.check(g) == "", "q-difference check accepts a solution")
    expect(op.check(nudge(g, 3)) != "",
           "q-difference check rejects a perturbed solution")

    op, red = first_solved("orbits", "sl2")
    expect(op.check(red) == "", "sl2 check accepts a reduction")
    bad = Sl2Reduction(red.alpha, red.lam, red.diag_exponent,
                       nudge(red.lower, -2), red.theta)
    expect(op.check(bad) != "", "sl2 check rejects a perturbed corner")
    bad = Sl2Reduction(red.alpha * (1 + 1e-6), red.lam, red.diag_exponent,
                       red.lower, red.theta)
    expect(op.check(bad) != "", "sl2 check rejects a perturbed alpha")

    for k in range(len(workloads.EXACT_MIX)):
        op = workloads.draw("exact", SEED, k)
        lhs, rhs = op.call()
        expect(op.check((lhs, rhs)) == "" and
               op.check((flip(lhs), rhs)) != "",
               f"exact check on {op.kind} accepts the identity and "
               "rejects a flipped coefficient")

    op = next(o for o in (workloads.draw("exact", SEED, k)
                          for k in range(len(workloads.EXACT_MIX)))
              if o.kind == "germ_ring")
    real = germs.LaurentGerm.mul

    def zero(f, g, w=None):
        return germs.LaurentGerm.zero(f.domain)

    def drop_top(f, g, w=None):
        p = real(f, g, w)
        return germs.LaurentGerm(p.n_min, p.coeffs[:-1], p.domain)

    for what, fake in (("returns zero", zero),
                       ("drops its top term", drop_top)):
        germs.LaurentGerm.mul = fake
        try:
            result = op.call()
        finally:
            germs.LaurentGerm.mul = real
        expect(op.check(result) != "",
               f"germ-ring check rejects a mul that {what}")

    op, _ = first_solved("orbits", "qdiff")
    expect(op.confirm(ConvergenceError("x")) == ""
           and op.confirm(SmallDivisor("x")) != "",
           "q-difference check rejects a SmallDivisor on a "
           "well-conditioned system")


def check_divergence_cap():
    real = leaves.qdiff_solve
    for exc in (SmallDivisor, ConvergenceError):
        def fake(*args, **kw):
            raise exc("fails at once")
        leaves.qdiff_solve = fake
        try:
            raw = worker.run_plain("orbits", SEED, 0.0, min_ops=60)
        finally:
            leaves.qdiff_solve = real
        expect(run.count_failed(raw["outcomes"], len(raw["latencies"])) > 0,
               f"a run whose q-difference solves all raise {exc.__name__} "
               "counts failed ops")


def check_runs():
    originals = (germs.germ_exp, germs.LaurentGerm.mul, birkhoff.log_coeffs)
    for workload, cycle in workloads.WORKLOADS.items():
        raw = worker.run_plain(workload, SEED, 0.0, min_ops=1)
        bad = raw["outcomes"]["wrong"] + raw["outcomes"]["error"]
        expect(bad == 0 and len(raw["latencies"]) == len(cycle),
               f"tiny {workload} run: one cycle of ops, none failed")
        raw = worker.run_traced(workload, SEED, 0.0, min_ops=len(cycle))
        expect(raw["outcomes"]["wrong"] + raw["outcomes"]["error"] == 0,
               f"traced {workload} run: no failed op")
        missed = [m for m in RUNS[workload] if not raw["per_layer"][m] > 0]
        expect(not missed, f"traced {workload} run counts every span it "
               f"runs{' (missed: ' + ', '.join(missed) + ')' if missed else ''}")
    expect((germs.germ_exp, germs.LaurentGerm.mul, birkhoff.log_coeffs)
           == originals and birkhoff.germ_exp is germs.germ_exp,
           "tracing restores the wrapped functions")


def check_manifest():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]}
           == set(workloads.WORKLOADS), "BENCHMARK.json workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == run.END_TO_END, "BENCHMARK.json end-to-end metrics")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(n, run.layer_unit(n)) for n in spans.metric_names()],
           "BENCHMARK.json per-layer metrics")


def main():
    check_manifest()
    check_checkers()
    check_divergence_cap()
    check_runs()
    print(f"self-check: {len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
