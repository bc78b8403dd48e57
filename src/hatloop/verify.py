"""Named invariant suites.

Each suite runs a deterministic battery of checks (seeded RNG where
randomness is involved) and reports per-check pass/fail counts.  The
command line front end exposes them through ``hatloop verify`` and the
acceptance tests reuse them directly.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

import numpy as np

from .birkhoff import (LoopMatrix, _circle_samples, birkhoff_matrix2,
                       birkhoff_scalar, winding_number)
from .errors import ConvergenceError, SmallDivisor
from .extgroup import (DoubleElement, ExtendedElement, HatAlgebraElement,
                       bilinear_form, double_form, hat_inv, hat_mul,
                       lie_bracket, manin_split, in_twisted_diagonal,
                       in_diagonal, poisson_at, twisted_commutator)
from .germs import (EXACT, LaurentGerm, germ_exp, germ_mul, window)
from .leaves import (elliptic_class, eprime_equal, gl1_diagonalize,
                     qdiff_solve, sl2_diag_equivalent)
from .poisson import (PoissonPoly, TensorPoly, antipode, bracket,
                      bracket_gl1, bracket_sl2, coproduct, counit,
                      frobenius, phi_inv_coeff, tensor_bracket)
from .qheis import (QHeisenbergElement, commutator, fr_h, fr_lambda,
                    q_heisenberg_commutator, semiclassical_limit)
from .scalars import ExpScalar, QGamma


class Check:
    __slots__ = ("label", "passed", "failed", "detail")

    def __init__(self, label, passed, failed, detail=""):
        self.label = label
        self.passed = passed
        self.failed = failed
        self.detail = detail

    @property
    def ok(self):
        return self.failed == 0

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{status} {self.label}: {self.passed}/"
                f"{self.passed + self.failed}{extra}")


def _gen(name, idx=0, power=1, coeff=1):
    return PoissonPoly.gen(name, idx, power, coeff)


# ---------------------------------------------------------------------------
# bracket table


def suite_bracket_table():
    checks = []
    good = bad = 0
    for m in range(1, 7):
        lhs = bracket_gl1(_gen("h", m), _gen("h", -m))
        rhs = _gen("G", power=2 * m) - _gen("G", power=-2 * m)
        good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
        lhs = bracket_gl1(_gen("h", m), _gen("L"))
        rhs = (_gen("L") * _gen("h", m)).scale(m)
        good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
        lhs = bracket_gl1(_gen("h", m), _gen("h", m + 1))
        good, bad = (good + 1, bad) if lhs.is_zero() else (good, bad + 1)
    checks.append(Check("gl1 h/L table", good, bad))

    good = bad = 0
    probes = [_gen("h", 3), _gen("L"), _gen("k"),
              _gen("L") * _gen("h", -2)]
    for p in probes:
        if bracket_gl1(_gen("G"), p).is_zero():
            good += 1
        else:
            bad += 1
    for p in [_gen("h", -3), _gen("h", 2), _gen("G"), _gen("L")]:
        if bracket_gl1(_gen("k"), p).is_zero():
            good += 1
        else:
            bad += 1
    checks.append(Check("centrality of G and k", good, bad))

    good = bad = 0
    for m in range(0, 5):
        for mp in range(0, 5):
            lhs = bracket_sl2(_gen("xm", -m), _gen("xm", -mp))
            rhs = PoissonPoly.zero()
            for r in range(0, mp + 1):
                rhs = rhs + (_gen("xm", -r)
                             * _gen("xm", -(m + mp - r))).scale(2)
            for r in range(0, m + 1):
                rhs = rhs - (_gen("xm", -r)
                             * _gen("xm", -(m + mp - r))).scale(2)
            good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
    checks.append(Check("sl2 {xm,xm}", good, bad))

    good = bad = 0
    for m in range(0, 5):
        for mp in range(1, 5):
            lhs = bracket_sl2(_gen("xm", -m), _gen("h", -mp))
            rhs = (_gen("G", power=mp)
                   * _gen("xm", -(m + mp))).scale(-4)
            good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
    checks.append(Check("sl2 {xm,h}", good, bad))

    good = bad = 0
    for m in range(0, 5):
        for mp in range(1, 5):
            lhs = bracket_sl2(_gen("xm", -m), _gen("xp", -mp))
            rhs = (_gen("G", power=m - mp)
                   * phi_inv_coeff(m + mp)).scale(-2)
            good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
    checks.append(Check("sl2 {xm,xp}", good, bad))

    good = bad = 0
    for m in range(0, 5):
        lhs = bracket_sl2(_gen("k"), _gen("xm", -m))
        rhs = (_gen("k") * _gen("xm", -m)).scale(2)
        good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
    checks.append(Check("sl2 {k,xm}", good, bad))
    return checks


# ---------------------------------------------------------------------------
# Jacobi


def _jacobi(a, b, c, algebra):
    return (bracket(a, bracket(b, c, algebra), algebra)
            + bracket(b, bracket(c, a, algebra), algebra)
            + bracket(c, bracket(a, b, algebra), algebra))


def suite_jacobi():
    checks = []
    gens = ([_gen("h", m) for m in range(-6, 7) if m]
            + [_gen("L"), _gen("G"), _gen("k")])
    good = bad = 0
    for a in gens:
        for b in gens:
            for c in gens:
                if _jacobi(a, b, c, "gl1").is_zero():
                    good += 1
                else:
                    bad += 1
    checks.append(Check("gl1 Jacobi |index| <= 6", good, bad))

    gens = ([_gen("k"), _gen("G")]
            + [_gen("h", -m) for m in range(1, 5)]
            + [_gen("xm", -m) for m in range(0, 5)])
    good = bad = 0
    for a in gens:
        for b in gens:
            for c in gens:
                if _jacobi(a, b, c, "sl2").is_zero():
                    good += 1
                else:
                    bad += 1
    checks.append(Check("sl2 Jacobi indices <= 4", good, bad))
    return checks


# ---------------------------------------------------------------------------
# Hopf-Poisson compatibility


def suite_hopf():
    checks = []
    gens = ([_gen("h", m) for m in range(-4, 5) if m]
            + [_gen("L"), _gen("G"), _gen("k")])
    good = bad = 0
    for a in gens:
        for b in gens:
            lhs = coproduct(bracket_gl1(a, b), "gl1")
            rhs = tensor_bracket(coproduct(a, "gl1"),
                                 coproduct(b, "gl1"), "gl1")
            good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
    checks.append(Check("gl1 Delta{a,b} = {Delta a, Delta b}", good, bad))

    good = bad = 0
    for m in range(0, 4):
        a, b = _gen("k"), _gen("xm", -m)
        lhs = coproduct(bracket_sl2(a, b), "sl2", order=6)
        rhs = tensor_bracket(coproduct(a, "sl2", order=6),
                             coproduct(b, "sl2", order=6), "sl2")
        good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
        lhs = coproduct(bracket_sl2(b, a), "sl2", order=6)
        rhs = tensor_bracket(coproduct(b, "sl2", order=6),
                             coproduct(a, "sl2", order=6), "sl2")
        good, bad = (good + 1, bad) if lhs == rhs else (good, bad + 1)
    checks.append(Check("sl2 Delta{k,xm} compatibility", good, bad))

    def mu_s_id(tp, algebra, order):
        out = PoissonPoly.zero()
        for left, right, coeff in tp.sides():
            out = out + (antipode(left, algebra, order) * right).scale(
                coeff)
        return out

    good = bad = 0
    for p in gens:
        v = mu_s_id(coproduct(p, "gl1"), "gl1", 8)
        target = counit(p)
        good, bad = (good + 1, bad) if v == target else (good, bad + 1)
    for m in range(0, 4):
        v = mu_s_id(coproduct(_gen("xm", -m), "sl2", 6), "sl2", 6)
        good, bad = (good + 1, bad) if v == counit(
            _gen("xm", -m)) else (good, bad + 1)
    for m in range(1, 4):
        for name in ("h", "xp"):
            p = _gen(name, -m)
            v = mu_s_id(coproduct(p, "sl2", 6), "sl2", 6)
            good, bad = (good + 1, bad) if v == counit(p) else (good,
                                                                bad + 1)
    checks.append(Check("antipode axiom m(S x id)Delta = eta eps",
                        good, bad))
    return checks


# ---------------------------------------------------------------------------
# semiclassical oracle


def suite_semiclassical():
    checks = []
    good = bad = 0
    for ell in (3, 5):
        for m in range(-3, 4):
            if m == 0:
                continue
            for mp in range(-3, 4):
                if mp == 0:
                    continue
                lim = semiclassical_limit(
                    q_heisenberg_commutator(m, mp, ell), ell)
                target = frobenius(
                    bracket_gl1(_gen("h", m), _gen("h", mp)), ell)
                good, bad = (good + 1, bad) if lim == target else (
                    good, bad + 1)
            lim = semiclassical_limit(
                commutator(fr_h(m, ell), fr_lambda(ell)), ell)
            target = frobenius(
                bracket_gl1(_gen("h", m), _gen("L")), ell)
            good, bad = (good + 1, bad) if lim == target else (good,
                                                               bad + 1)
    checks.append(Check("q-Heisenberg commutator vs Fr(bracket)",
                        good, bad))
    return checks


# ---------------------------------------------------------------------------
# Frobenius morphism


def suite_frobenius():
    checks = []
    gens = ([_gen("h", m) for m in range(-4, 5) if m]
            + [_gen("L"), _gen("G"), _gen("k")])
    good = bad = 0
    for ell in (3, 5):
        scale = Fraction(ell * ell)
        for a in gens:
            for b in gens:
                lhs = frobenius(bracket_gl1(a, b), ell).scale(scale)
                rhs = bracket_gl1(frobenius(a, ell), frobenius(b, ell))
                good, bad = (good + 1, bad) if lhs == rhs else (good,
                                                                bad + 1)
    checks.append(Check("ell^2 Fr{a,b} = {Fr a, Fr b}", good, bad))
    return checks


# ---------------------------------------------------------------------------
# factorization round trip


def _rand_scalar_loop(rng, band):
    c0 = complex(rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5))
    coeffs = {0: c0}
    for n in range(-band, band + 1):
        if n == 0:
            continue
        mag = 0.5 / (abs(n) + 1)
        coeffs[n] = complex(rng.uniform(-mag, mag),
                            rng.uniform(-mag, mag))
    shift = rng.randint(-3, 3)
    return LaurentGerm.from_dict(
        {n + shift: c for n, c in coeffs.items()}), shift


def _rand_matrix_loop(rng, band, cmax):
    while True:
        entries = [[LaurentGerm.from_dict(
            {n: complex(rng.randint(-cmax, cmax),
                        rng.randint(-cmax, cmax)) / (1 + abs(n))
             for n in range(-band, band + 1)})
            for _ in range(2)] for _ in range(2)]
        for i in range(2):
            entries[i][i] = entries[i][i] + LaurentGerm.monomial(
                0, 4.0 + abs(entries[i][i].coeff_at(0)))
        F = LoopMatrix(entries)
        det = F.det(None)
        if np.min(np.abs(_circle_samples(det, 256))) <= 0.5:
            continue
        # keep the determinant bounded away from zero on a fat annulus,
        # not just on the circle itself
        poly = [0j] * (det.n_max - det.n_min + 1)
        for n, c in det.items():
            poly[n - det.n_min] = c
        moduli = np.abs(np.roots(poly[::-1]))
        if np.all(np.abs(moduli - 1.0) >= 0.12):
            return F


def suite_factorization(tol=1e-9):
    checks = []
    rng = random.Random(20260826)
    good = bad = 0
    for _ in range(200):
        f, _shift = _rand_scalar_loop(rng, 8)
        f_plus, n, f_minus = birkhoff_scalar(f)
        ok = n == winding_number(f)
        rec = f_plus.mul(LaurentGerm.monomial(n, 1.0), None).mul(
            f_minus, None)
        err = max((abs(c) for _, c in (rec - f).items()), default=0.0)
        if ok and err <= tol:
            good += 1
        else:
            bad += 1
    checks.append(Check("scalar round trip, band 8", good, bad))

    good = bad = 0
    for _ in range(50):
        F = _rand_matrix_loop(rng, 4, 4)
        fac = birkhoff_matrix2(F)
        rec = fac.reconstruct()
        err = max(max((abs(c) for _, c in (rec[i, j] - F[i, j]).items()),
                      default=0.0) for i in range(2) for j in range(2))
        ok = (err <= tol
              and sum(fac.indices) == winding_number(F.det(None)))
        if ok:
            good += 1
        else:
            bad += 1
    checks.append(Check("matrix round trip, band 4", good, bad))
    return checks


# ---------------------------------------------------------------------------
# group axioms


def _rand_exact_element(rng):
    f = LaurentGerm.from_dict(
        {n: QGamma.from_rational(Fraction(rng.randint(-4, 4),
                                          rng.randint(1, 4)))
         for n in range(-3, 4)
         if n and rng.random() < 0.6},
        EXACT)
    lam = ExpScalar(QGamma.monomial(rng.randint(-2, 2),
                                    Fraction(rng.randint(1, 5))),
                    QGamma.from_rational(Fraction(rng.randint(-3, 3),
                                                  rng.randint(1, 3))))
    gamma = QGamma.monomial(rng.randint(-1, 1),
                            Fraction(rng.randint(1, 4)))
    return ExtendedElement(rng.randint(-2, 2), f, lam, gamma)


def suite_group():
    checks = []
    rng = random.Random(7)
    w = window(-6, 6)
    good = bad = 0
    for _ in range(500):
        a = _rand_exact_element(rng)
        b = _rand_exact_element(rng)
        c = _rand_exact_element(rng)
        assoc = hat_mul(hat_mul(a, b, w), c, w) == hat_mul(
            a, hat_mul(b, c, w), w)
        e = ExtendedElement.identity(EXACT)
        unital = (hat_mul(a, e, w) == a and hat_mul(e, a, w) == a)
        inv = (hat_mul(a, hat_inv(a), w) == e
               and hat_mul(hat_inv(a), a, w) == e)
        if assoc and unital and inv:
            good += 1
        else:
            bad += 1
    checks.append(Check("hat_mul associativity/identity/inverse",
                        good, bad))

    good = bad = 0
    for _ in range(100):
        a = _rand_exact_element(rng)
        b = _rand_exact_element(rng)
        try:
            x = twisted_commutator(a, b, w, check=True)
            ok = x.n == 0 and x.f.is_zero()
        except Exception:
            ok = False
        if ok:
            good += 1
        else:
            bad += 1
    checks.append(Check("twisted commutator identity", good, bad))
    return checks


# ---------------------------------------------------------------------------
# Manin triple


def _rand_exact_algebra(rng, lo=-2, hi=2):
    f = LaurentGerm.from_dict(
        {n: QGamma.from_rational(Fraction(rng.randint(-4, 4),
                                          rng.randint(1, 4)))
         for n in range(lo, hi + 1) if rng.random() < 0.7},
        EXACT)
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    d = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return HatAlgebraElement(f, QGamma.from_rational(c),
                             QGamma.from_rational(d))


def suite_manin():
    checks = []
    rng = random.Random(13)
    w = window(-5, 5)
    good = bad = 0
    for _ in range(200):
        x = _rand_exact_algebra(rng)
        y = _rand_exact_algebra(rng)
        z = _rand_exact_algebra(rng)
        sym = bilinear_form(x, y) == bilinear_form(y, x)
        invar = bilinear_form(lie_bracket(x, y, w), z) == bilinear_form(
            x, lie_bracket(y, z, w))
        if sym and invar:
            good += 1
        else:
            bad += 1
    checks.append(Check("bilinear form symmetry/invariance", good, bad))

    good = bad = 0
    for _ in range(200):
        x = DoubleElement(_rand_exact_algebra(rng),
                          _rand_exact_algebra(rng))
        h, k = manin_split(x)
        ok = (h + k == x and in_twisted_diagonal(h)
              and in_diagonal(k))
        # isotropy of both halves
        hp, _ = manin_split(DoubleElement(_rand_exact_algebra(rng),
                                          _rand_exact_algebra(rng)))
        _, kp = manin_split(DoubleElement(_rand_exact_algebra(rng),
                                          _rand_exact_algebra(rng)))
        iso = (_is_zero_scalar(double_form(h, hp))
               and _is_zero_scalar(double_form(k, kp)))
        if ok and iso:
            good += 1
        else:
            bad += 1
    checks.append(Check("manin_split membership + isotropy", good, bad))
    return checks


def _is_zero_scalar(s):
    if isinstance(s, (int, float, complex)):
        return s == 0
    return s.is_zero()


# ---------------------------------------------------------------------------
# leaves: twisted-conjugacy invariance


def suite_leaves(tol=1e-8):
    checks = []
    rng = random.Random(31)
    gamma = 2.0
    good = bad = 0
    for _ in range(100):
        f = LaurentGerm.from_dict(
            {n: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
             for n in range(-4, 5)})
        a = ExtendedElement(0, f,
                            complex(rng.uniform(0.5, 2.0),
                                    rng.uniform(-0.4, 0.4)), gamma)
        inv1, _ = gl1_diagonalize(a)
        g = ExtendedElement(
            0,
            LaurentGerm.from_dict(
                {n: complex(rng.uniform(-0.4, 0.4),
                            rng.uniform(-0.4, 0.4))
                 for n in range(-3, 4)}),
            complex(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3)),
            1.0)
        w = window(-24, 24)
        conj = hat_mul(hat_mul(g, a, w), hat_inv(g), w)
        inv2, _ = gl1_diagonalize(conj)
        if inv1.close_to(inv2, tol):
            good += 1
        else:
            bad += 1
    checks.append(Check("gl1 orbit invariant under conjugation",
                        good, bad))

    good = bad = 0
    theta = 16.0
    for _ in range(100):
        alpha = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        k = rng.randint(-2, 2)
        moved = alpha * theta ** k
        ok = (sl2_diag_equivalent(alpha, lam, moved, lam, theta)
              and sl2_diag_equivalent(alpha, lam, 1.0 / alpha, lam,
                                      theta)
              and sl2_diag_equivalent(alpha, lam, moved ** -1, lam,
                                      theta))
        # a generic unrelated representative must not be equivalent
        other = alpha * complex(1.37, 0.21)
        ok = ok and not sl2_diag_equivalent(alpha, lam, other, lam,
                                            theta)
        if ok:
            good += 1
        else:
            bad += 1
    checks.append(Check("sl2 diagonal class invariance", good, bad))
    return checks


# ---------------------------------------------------------------------------
# q-difference residual


def suite_qdiff(tol=1e-8):
    checks = []
    rng = random.Random(17)
    theta = 16.0
    w = window(-10, 10)

    def rand_germ(scale, band=2):
        return LaurentGerm.from_dict(
            {n: complex(rng.uniform(-scale, scale),
                        rng.uniform(-scale, scale))
             for n in range(-band, band + 1)})

    converged = diverged = wrong = 0
    for _ in range(50):
        a11 = LaurentGerm.monomial(
            0, complex(rng.uniform(1.0, 2.0))) + rand_germ(0.2)
        a22 = LaurentGerm.monomial(
            0, complex(rng.uniform(-2.0, -1.0))) + rand_germ(0.2)
        A = LoopMatrix([[a11, rand_germ(0.1)],
                        [rand_germ(0.1), a22]])
        try:
            qdiff_solve(A, theta, max_iter=50, tol=tol, w=w)
            converged += 1
        except (ConvergenceError, SmallDivisor):
            diverged += 1
        except Exception:
            wrong += 1
    failed = wrong + (0 if converged >= 45 else 45 - converged)
    checks.append(Check("q-difference residual <= 1e-8",
                        converged, failed,
                        detail=f"{diverged} documented divergences"))
    return checks


# ---------------------------------------------------------------------------
# cross-module oracle


def suite_poisson_at(tol=1e-8):
    checks = []
    rng = random.Random(5)
    good = bad = 0
    keys = ([("h", m) for m in range(-4, 5) if m]
            + [("L", 0), ("G", 0), ("k", 0)])
    for _ in range(50):
        gamma = complex(rng.uniform(0.7, 1.7), rng.uniform(-0.4, 0.4))
        if abs(abs(gamma) - 1) < 0.05:
            gamma += 0.25
        lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        c0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fp = {n: complex(rng.uniform(-0.6, 0.6),
                         rng.uniform(-0.6, 0.6)) for n in range(1, 5)}
        fm = {n: complex(rng.uniform(-0.6, 0.6),
                         rng.uniform(-0.6, 0.6)) for n in range(-4, 0)}
        dl = dict(fp)
        dl[0] = c0
        dr = dict(fm)
        dr[0] = -c0
        left = ExtendedElement(0, LaurentGerm.from_dict(dl), lam, gamma)
        right = ExtendedElement(0, LaurentGerm.from_dict(dr),
                                1.0 / lam, 1.0 / gamma)
        point = {("G", 0): gamma, ("L", 0): lam,
                 ("k", 0): cmath.exp(c0)}
        for n, c in list(fp.items()) + list(fm.items()):
            point[("h", n)] = c
        worst = 0.0
        for _ in range(4):
            k1, k2 = rng.choice(keys), rng.choice(keys)
            sym = bracket_gl1(_gen(k1[0], k1[1]),
                              _gen(k2[0], k2[1])).evaluate(point)
            num = poisson_at(left, right, {k1: 1.0}, {k2: 1.0})
            worst = max(worst, abs(sym - num))
        if worst <= tol:
            good += 1
        else:
            bad += 1
    checks.append(Check("poisson_at vs bracket_gl1 at H-points",
                        good, bad))
    return checks


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "bracket-table": suite_bracket_table,
    "jacobi": suite_jacobi,
    "hopf": suite_hopf,
    "semiclassical": suite_semiclassical,
    "frobenius": suite_frobenius,
    "factorization": suite_factorization,
    "group": suite_group,
    "manin": suite_manin,
    "leaves": suite_leaves,
    "qdiff": suite_qdiff,
    "poisson-at": suite_poisson_at,
}


def run_suite(name):
    """Run one named suite (or ``all``); returns the list of checks."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from "
            f"{', '.join(sorted(SUITES))} or 'all'")
    return SUITES[name]()
