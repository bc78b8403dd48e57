"""Seeded inputs, library calls and independent checks for each workload.

An *op* is one library call plus its check.  Op ``k`` of a run draws its
input from ``numpy.random.default_rng([seed, k])`` alone, so any op can be
replayed without replaying the ones before it, and the kind of op ``k`` is
fixed by a cycle that does not depend on the seed.  The generators below
share no code with ``hatloop.verify``, so editing a test battery cannot
change the benchmark's inputs.

Library entry points are looked up through their module at call time
(``birkhoff.birkhoff_scalar``), which lets the tracer rebind them.

Checks of numeric results use numpy only: loops are evaluated at
equispaced points of the unit circle by an inverse FFT and products are
formed pointwise or with ``np.convolve``, never with ``germs.mul``.  A
check returns an empty string when the result is right and a short reason
otherwise.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

import hatloop.birkhoff as birkhoff
import hatloop.extgroup as extgroup
import hatloop.leaves as leaves
import hatloop.poisson as poisson
import hatloop.qheis as qheis
from hatloop.errors import ConvergenceError, SmallDivisor
from hatloop.extgroup import ExtendedElement
from hatloop.germs import EXACT, LaurentGerm, window
from hatloop.leaves import EPS_DIVISOR
from hatloop.poisson import PoissonPoly
from hatloop.scalars import ExpScalar, QGamma

FACTOR_TOL = 1e-9   # coefficientwise round-trip error of a factorization
SOLVER_TOL = 1e-8   # tol passed to the q-difference and sl2 solvers
THETA = 16.0        # q-difference twist
QDIFF_WINDOW = window(-10, 10)
GROUP_WINDOW = window(-6, 6)


class Op:
    """One drawn op: ``call()`` runs the library, ``check(result)`` judges
    it.  ``timed_check`` is true where the check is the work (``exact``);
    ``allowed`` lists the typed errors that are a documented answer, and
    ``confirm(exc)`` judges such an error the way ``check`` judges a
    result."""

    __slots__ = ("kind", "call", "check", "timed_check", "allowed",
                 "confirm")

    def __init__(self, kind, call, check, timed_check=False, allowed=(),
                 confirm=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.timed_check = timed_check
        self.allowed = allowed
        self.confirm = confirm


# ---------------------------------------------------------------------------
# numpy evaluation of Laurent polynomials on the unit circle


def _terms(g):
    pairs = list(g.items())
    exps = np.array([n for n, _ in pairs], dtype=np.int64)
    vals = np.array([complex(c) for _, c in pairs], dtype=complex)
    return exps, vals


def _span(*germs):
    lo, hi = 0, 0
    for g in germs:
        exps, _ = _terms(g)
        if exps.size:
            lo, hi = min(lo, int(exps.min())), max(hi, int(exps.max()))
    return lo, hi


def _npoints(lo, hi):
    """Power of two above the exponent span, so no coefficient aliases."""
    m = 16
    while m <= 2 * (hi - lo + 1):
        m *= 2
    return m


def _values(exps, vals, m):
    """Values of ``sum vals * z**exps`` at ``z = exp(2 pi i j / m)``."""
    spec = np.zeros(m, dtype=complex)
    np.add.at(spec, exps % m, vals)
    return m * np.fft.ifft(spec)


def _circle(g, m, shift=0):
    """Values of ``z**shift * g(z)`` at ``z = exp(2 pi i j / m)``."""
    exps, vals = _terms(g)
    return _values(exps + shift, vals, m)


def _max_coeff(values):
    """Largest Laurent coefficient of a function known at m circle points
    (exact when its exponent span is below m)."""
    return float(np.max(np.abs(np.fft.fft(values) / values.size)))


def _roots_winding(exps, vals):
    """Winding number of a Laurent polynomial around 0 on |z| = 1:
    lowest exponent plus the zeros of the shifted numerator in |z| < 1."""
    lo, hi = int(exps.min()), int(exps.max())
    poly = np.zeros(hi - lo + 1, dtype=complex)
    poly[exps - lo] = vals
    roots = np.roots(poly[::-1])
    return lo + int(np.sum(np.abs(roots) < 1.0)), roots


def _coeff(exps, vals, n):
    hit = vals[exps == n]
    return complex(hit.sum()) if hit.size else 0j


# ---------------------------------------------------------------------------
# coefficient-array arithmetic for the orbit checks
#
# A series is a pair (lo, array) holding the coefficients of z**lo upwards.


def _arr(g):
    exps, vals = _terms(g)
    if not exps.size:
        return 0, np.zeros(1, dtype=complex)
    lo = int(exps.min())
    out = np.zeros(int(exps.max()) - lo + 1, dtype=complex)
    out[exps - lo] = vals
    return lo, out


def _conv(a, b):
    return a[0] + b[0], np.convolve(a[1], b[1])


def _rescaled(a, gamma):
    lo, v = a
    return lo, v * complex(gamma) ** np.arange(lo, lo + v.size)


def _window(a, lo, hi):
    """Coefficients of z**lo .. z**hi of the series ``a`` (zero-filled)."""
    out = np.zeros(hi - lo + 1, dtype=complex)
    alo, v = a
    s, e = max(lo, alo), min(hi, alo + v.size - 1)
    if s <= e:
        out[s - lo:e - lo + 1] = v[s - alo:e - alo + 1]
    return out


def _exp_series(a, lo, hi, m=1024):
    """Coefficients z**lo..z**hi of exp of the Laurent polynomial ``a``,
    by sampling; the sampled function is entire on C*, so m points leave
    an aliasing error far below double precision."""
    alo, v = a
    vals = _values(np.arange(alo, alo + v.size), v, m)
    coeffs = np.fft.fft(np.exp(vals)) / m
    return lo, coeffs[np.arange(lo, hi + 1) % m]


# ---------------------------------------------------------------------------
# factorize: seeded loops


def _complex(rng, scale):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def scalar_loop(rng, band, shift):
    """Scalar loop ``z**shift (c0 + sum c_n z**n)`` whose unshifted
    numerator keeps its zeros at least 0.15 away from |z| = 1."""
    while True:
        coeffs = {0: complex(rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5))}
        for n in range(-band, band + 1):
            if n:
                coeffs[n] = _complex(rng, 0.5 / (abs(n) + 1))
        exps = np.array(list(coeffs), dtype=np.int64)
        _, roots = _roots_winding(exps, np.array(list(coeffs.values())))
        if np.all(np.abs(np.abs(roots) - 1.0) >= 0.15):
            break
    return LaurentGerm.from_dict({n + shift: c for n, c in coeffs.items()})


def winding_shift(seed, band, ordinal):
    """Shift of the ``ordinal``-th band-``band`` loop of a run.

    The shift widens the factorization window (6 * (band + |shift|) +
    12) and so sets an op's cost; each run of seven consecutive loops of
    one band takes every shift in [-3, 3] once, in a seeded order, so
    runs under different seeds do the same amount of work."""
    block = np.random.default_rng([seed, band, ordinal // 7])
    return int(block.permutation(7)[ordinal % 7]) - 3


def matrix_loop(rng, band, cmax=4):
    """2x2 loop with Gaussian-integer coefficients and a dominant
    diagonal; det stays above 0.5 on the circle and has no zero within
    0.25 of |z| = 1.  (Zeros closer to the circle make the minus factor
    decay slowly, and the solver's depth doubling then makes a few ops
    5x slower than the rest, which no 30-second run samples steadily.)"""
    while True:
        entries = []
        for i in range(2):
            row = []
            for j in range(2):
                d = {n: complex(int(rng.integers(-cmax, cmax + 1)),
                                int(rng.integers(-cmax, cmax + 1)))
                     / (1 + abs(n)) for n in range(-band, band + 1)}
                if i == j:
                    d[0] += 4.0 + abs(d[0])
                row.append(LaurentGerm.from_dict(d))
            entries.append(row)
        F = birkhoff.LoopMatrix(entries)
        exps, vals = _det_terms(F)
        m = _npoints(int(exps.min()), int(exps.max()))
        if np.min(np.abs(_values(exps, vals, m))) <= 0.5:
            continue
        _, roots = _roots_winding(exps, vals)
        if np.all(np.abs(np.abs(roots) - 1.0) >= 0.25):
            return F


def _det_terms(F):
    det = _conv(_arr(F[0, 0]), _arr(F[1, 1]))
    off = _conv(_arr(F[0, 1]), _arr(F[1, 0]))
    lo = min(det[0], off[0])
    hi = max(det[0] + det[1].size, off[0] + off[1].size) - 1
    vals = _window(det, lo, hi) - _window(off, lo, hi)
    exps = np.arange(lo, hi + 1)
    keep = vals != 0
    return exps[keep], vals[keep]


def check_scalar(f, result):
    f_plus, n, f_minus = result
    exps, vals = _terms(f)
    wind, _ = _roots_winding(exps, vals)
    if n != wind:
        return f"winding {n} != {wind}"
    if f_plus.is_zero() or min(_terms(f_plus)[0]) < 0:
        return "f_plus has negative exponents"
    mexps, mvals = _terms(f_minus)
    if mexps.size and mexps.max() > 0:
        return "f_minus has positive exponents"
    if abs(_coeff(mexps, mvals, 0) - 1.0) > 1e-12:
        return "f_minus(inf) != 1"
    lo, hi = _span(f, f_minus)
    hi = max(hi, _span(f_plus)[1]) + abs(n)
    lo -= abs(n)
    m = _npoints(lo, hi)
    resid = _circle(f_plus, m, n) * _circle(f_minus, m) - _circle(f, m)
    err = _max_coeff(resid)
    if not err <= FACTOR_TOL:
        return f"round-trip error {err:.3e}"
    return ""


def check_matrix(F, fact):
    n1, n2 = fact.indices
    wind, _ = _roots_winding(*_det_terms(F))
    if n1 + n2 != wind:
        return f"index sum {n1 + n2} != det winding {wind}"
    P, M = fact.f_plus, fact.f_minus
    for i in range(2):
        for j in range(2):
            pe, _ = _terms(P[i, j])
            if pe.size and pe.min() < 0:
                return "F_plus has negative exponents"
            me, _ = _terms(M[i, j])
            if me.size and me.max() > 0:
                return "F_minus has positive exponents"
    at_inf = [[_coeff(*_terms(M[i, j]), 0) for j in range(2)]
              for i in range(2)]
    unit = [at_inf[0][0] - 1.0, at_inf[1][1] - 1.0, at_inf[0][1]]
    if n1 == n2:
        unit.append(at_inf[1][0])
    if max(abs(v) for v in unit) > FACTOR_TOL:
        return "F_minus(inf) is not unit lower triangular"
    germs = [X[i, j] for X in (F, P, M) for i in range(2) for j in range(2)]
    lo, hi = _span(*germs)
    lo -= abs(n1) + abs(n2)
    hi += abs(n1) + abs(n2)
    m = _npoints(2 * lo, 2 * hi)
    p = [[_circle(P[i, j], m, (n1, n2)[j]) for j in range(2)]
         for i in range(2)]
    q = [[_circle(M[i, j], m) for j in range(2)] for i in range(2)]
    err = max(_max_coeff(p[i][0] * q[0][j] + p[i][1] * q[1][j]
                         - _circle(F[i, j], m))
              for i in range(2) for j in range(2))
    if not err <= FACTOR_TOL:
        return f"round-trip error {err:.3e}"
    return ""


def _scalar_op(band):
    def make(rng, seed, ordinal):
        f = scalar_loop(rng, band, winding_shift(seed, band, ordinal))
        return Op(f"scalar{band}", lambda: birkhoff.birkhoff_scalar(f),
                  lambda r: check_scalar(f, r))
    return make


def _matrix_op(band):
    def make(rng, seed, ordinal):
        F = matrix_loop(rng, band)
        return Op(f"matrix{band}", lambda: birkhoff.birkhoff_matrix2(F),
                  lambda r: check_matrix(F, r))
    return make


# 12 scalar : 4 matrix per cycle of 16.  Band 16 is one op in 16: it
# takes a fifth of the measured time, and p90 falls among the band-4
# matrix ops just below it.
_S4, _S8, _S16 = _scalar_op(4), _scalar_op(8), _scalar_op(16)
_M2, _M4 = _matrix_op(2), _matrix_op(4)
FACTORIZE = [_S4, _S8, _M2, _S8, _S4, _S8, _M4, _S8,
             _S4, _S16, _S8, _M2, _S4, _S8, _M4, _S8]


# ---------------------------------------------------------------------------
# orbits: q-difference systems and sl2 triangular reduction


def _rand_germ(rng, scale, band=2):
    return LaurentGerm.from_dict(
        {n: _complex(rng, scale) for n in range(-band, band + 1)})


def qdiff_system(rng):
    """Diagonally dominant band-2 system: A11(0) in [1, 2], A22(0) in
    [-2, -1], diagonal perturbations up to 0.1 and off-diagonal entries
    up to 0.05 per real and imaginary part."""
    a11 = _rand_germ(rng, 0.1) + LaurentGerm.monomial(
        0, rng.uniform(1.0, 2.0))
    a22 = _rand_germ(rng, 0.1) + LaurentGerm.monomial(
        0, rng.uniform(-2.0, -1.0))
    return birkhoff.LoopMatrix([[a11, _rand_germ(rng, 0.05)],
                                [_rand_germ(rng, 0.05), a22]])


def check_qdiff(A, g):
    """Windowed defect of -A21 g(Tz) g - A11 g(G2 z) + A22 g + A12,
    recomputed with np.convolve, against the solver tolerance plus a
    rounding allowance scaled by the size of the summed terms."""
    lo, hi = QDIFF_WINDOW
    ge, _ = _terms(g)
    if ge.size and (ge.min() < lo or ge.max() > hi):
        return "solution leaves the window"
    a11, a12, a21, a22 = (_arr(A[i, j]) for i, j in
                          ((0, 0), (0, 1), (1, 0), (1, 1)))
    ga = _arr(g)
    terms = [(-1, [a21, _rescaled(ga, THETA), ga]),
             (-1, [a11, _rescaled(ga, cmath.sqrt(THETA))]),
             (1, [a22, ga]), (1, [a12])]

    def product(factors, f=lambda v: v):
        out = (0, np.ones(1, dtype=complex))
        for flo, v in factors:
            out = _conv(out, (flo, f(v)))
        return _window(out, lo, hi)

    defect = sum(sign * product(fs) for sign, fs in terms)
    scale = float(np.max(sum(product(fs, np.abs).real for _, fs in terms)))
    err = float(np.max(np.abs(defect)))
    if not err <= SOLVER_TOL + 1e-12 * scale:
        return f"q-difference defect {err:.3e}"
    return ""


def check_small_divisor(A, exc):
    """Confirm a ``SmallDivisor`` from ``qdiff_solve``: the linear part
    ``-A11 g(Gamma^2 z) + A22 g(z)`` on the window, built here as a numpy
    matrix, must be near-singular (condition number within a factor 10
    of the solver's 1 / EPS_DIVISOR)."""
    if not isinstance(exc, SmallDivisor):
        return ""
    lo, hi = QDIFF_WINDOW
    modes = np.arange(lo, hi + 1)
    a11 = _window(_arr(A[0, 0]), lo - hi, hi - lo)
    a22 = _window(_arr(A[1, 1]), lo - hi, hi - lo)
    k = modes[:, None] - modes[None, :] - (lo - hi)
    gamma2 = cmath.sqrt(THETA) ** modes.astype(float)
    mat = -a11[k] * gamma2[None, :] + a22[k]
    cond = float(np.linalg.cond(mat))
    if cond < 0.1 / EPS_DIVISOR:
        return f"SmallDivisor on a linear part of condition {cond:.3e}"
    return ""


def triangular_loop(rng):
    """Lower-triangular det-1 loop: A11 = alpha exp(u) with u of band 2
    and A22 = 1/A11, both kept on z**-12..z**12 whatever the size of
    their outer coefficients (the solver's window follows the support),
    and A21 of band 2; |Gamma| in [1.5, 2.5]."""
    k = 12
    u = np.array([_complex(rng, 0.15) for _ in range(5)])
    u[2] = 0
    alpha = cmath.rect(rng.uniform(1.1, 3.5), rng.uniform(-np.pi, np.pi))

    def germ(v):
        return LaurentGerm.from_dict(
            {n: complex(c) for n, c in zip(range(-k, k + 1), v)})

    a11 = alpha * _exp_series((-2, u), -k, k)[1]
    a22 = _exp_series((-2, -u), -k, k)[1] / alpha
    A = birkhoff.LoopMatrix([[germ(a11), LaurentGerm.zero()],
                             [_rand_germ(rng, 0.3), germ(a22)]])
    lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
    gamma = rng.uniform(1.5, 2.5)
    return A, lam, gamma


def check_sl2(A, lam, gamma, red):
    """Recompute the invariant alpha from log A11 (sampled with numpy),
    the flattening exponent g_n = u_n / (1 - Theta**n), and the corner
    relation c_n (alpha Theta**n - 1/alpha) = -B_n where
    B = exp(-g(Theta z)) A21 exp(-g(z)) is formed by sampling and
    np.convolve."""
    theta = complex(gamma) ** 4
    if red.lam != lam or abs(red.theta - theta) > 1e-12 * abs(theta):
        return "lambda or Theta not carried through"
    m = 1024
    vals = _circle(A[0, 0], m)
    logs = np.log(np.abs(vals)) + 1j * np.unwrap(np.angle(vals))
    u = np.fft.fft(logs) / m
    alpha = cmath.exp(u[0])
    if abs(red.alpha - alpha) > 1e-9 * abs(alpha):
        return f"alpha {red.alpha} != {alpha}"
    umax = float(np.max(np.abs(u)))
    ge, gv = _terms(red.diag_exponent)
    modes = set(int(n) for n in ge)
    modes |= {n for n in range(-m // 4, m // 4)
              if n and abs(u[n % m]) > 1e-9 * (1 + umax)}
    for n in sorted(modes):
        gn = _coeff(ge, gv, n)
        if abs(gn * (1 - theta ** n) - u[n % m]) > 1e-9 * (1 + umax):
            return f"flattening exponent wrong at z^{n}"
    g = _arr(red.diag_exponent)
    ce, cv = _terms(red.lower)
    lo = min([-m // 4] + [int(n) for n in ce])
    hi = max([m // 4] + [int(n) for n in ce])
    e_theta = _exp_series((g[0], -_rescaled(g, theta)[1]), lo, hi)
    e_plain = _exp_series((g[0], -g[1]), lo, hi)
    b = _conv(_conv(e_theta, _arr(A[1, 0])), e_plain)
    scale = max(1.0, max(float(np.max(np.abs(_arr(A[i, j])[1])))
                         for i in range(2) for j in range(2)))
    modes = set(int(n) for n in ce)
    blo, bv = b
    modes |= {blo + i for i in np.nonzero(np.abs(bv) > SOLVER_TOL * scale)[0]}
    for n in sorted(modes):
        bn = complex(_window(b, n, n)[0])
        cn = _coeff(ce, cv, n)
        if abs(cn * (alpha * theta ** n - 1 / alpha) + bn) > \
                SOLVER_TOL * scale:
            return f"corner entry wrong at z^{n}"
    return ""


def _qdiff_op(rng, seed, ordinal):
    A = qdiff_system(rng)
    return Op("qdiff",
              lambda: leaves.qdiff_solve(A, THETA, max_iter=50,
                                         tol=SOLVER_TOL, w=QDIFF_WINDOW),
              lambda g: check_qdiff(A, g),
              allowed=(ConvergenceError, SmallDivisor),
              confirm=lambda exc: check_small_divisor(A, exc))


def _sl2_op(rng, seed, ordinal):
    A, lam, gamma = triangular_loop(rng)
    return Op("sl2",
              lambda: leaves.sl2_triangular_reduce(A, lam, gamma,
                                                   tol=SOLVER_TOL),
              lambda red: check_sl2(A, lam, gamma, red))


# One q-difference solve to two sl2 reductions: the solver's cost depends
# on its Newton iteration count and has a long tail, so this ratio puts
# p90 where the qdiff tail overlaps the narrow sl2 band instead of in the
# sparse far tail of qdiff alone.
ORBITS = [_qdiff_op, _sl2_op, _sl2_op]


# ---------------------------------------------------------------------------
# exact: identities over Q[Gamma^+-1]


def _gen(name, idx=0, power=1, coeff=1):
    return PoissonPoly.gen(name, idx, power, coeff)


def _gl1_product(rng):
    """Product of one to three gl1 generators h[m] (0 < |m| <= 4), L,
    G and k, the invertible ones with powers in [-2, 2]."""
    out = PoissonPoly.one()
    for _ in range(int(rng.integers(1, 4))):
        pick = int(rng.integers(0, 4))
        if pick == 0:
            m = int(rng.integers(1, 5)) * int(rng.choice([-1, 1]))
            out = out * _gen("h", m)
        else:
            power = int(rng.choice([-2, -1, 1, 2]))
            out = out * _gen(("L", "G", "k")[pick - 1], power=power)
    return out


def _phi_inv(n):
    """Coefficient of z**n in k^-1 exp(-sum_{r>0} h[-r] z**r), by the
    power-series exponential e_n = -(1/n) sum_r r h[-r] e_{n-r}."""
    e = [PoissonPoly.one()]
    for j in range(1, n + 1):
        acc = PoissonPoly.zero()
        for r in range(1, j + 1):
            acc = acc + (_gen("h", -r) * e[j - r]).scale(Fraction(-r, j))
        e.append(acc)
    return _gen("k", power=-1) * e[n]


def _table_gl1(rng):
    m = int(rng.integers(1, 9))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        a, b = _gen("h", m), _gen("h", -m)
        rhs = _gen("G", power=2 * m) - _gen("G", power=-2 * m)
    elif kind == 1:
        a, b = _gen("h", m), _gen("L")
        rhs = (_gen("L") * _gen("h", m)).scale(m)
    elif kind == 2:
        mp = int(rng.integers(-8, 9))
        mp = mp if mp not in (0, -m) else m + 1
        a, b = _gen("h", m), _gen("h", mp)
        rhs = PoissonPoly.zero()
    else:
        a, b = _gen(str(rng.choice(["G", "k"]))), _gl1_product(rng)
        rhs = PoissonPoly.zero()
    return lambda: (poisson.bracket_gl1(a, b), rhs)


def _table_sl2(rng):
    m, mp = int(rng.integers(0, 5)), int(rng.integers(1, 5))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        a, b = _gen("xm", -m), _gen("xm", -mp)
        rhs = PoissonPoly.zero()
        for r in range(mp + 1):
            rhs = rhs + (_gen("xm", -r) * _gen("xm", -(m + mp - r))).scale(2)
        for r in range(m + 1):
            rhs = rhs - (_gen("xm", -r) * _gen("xm", -(m + mp - r))).scale(2)
    elif kind == 1:
        a, b = _gen("xm", -m), _gen("h", -mp)
        rhs = (_gen("G", power=mp) * _gen("xm", -(m + mp))).scale(-4)
    elif kind == 2:
        a, b = _gen("xm", -m), _gen("xp", -mp)
        rhs = (_gen("G", power=m - mp) * _phi_inv(m + mp)).scale(-2)
    else:
        a, b = _gen("k"), _gen("xm", -m)
        rhs = (_gen("k") * _gen("xm", -m)).scale(2)
    return lambda: (poisson.bracket_sl2(a, b), rhs)


def _hopf(rng):
    a, b = _gl1_product(rng), _gl1_product(rng)

    def run():
        lhs = poisson.coproduct(poisson.bracket_gl1(a, b), "gl1")
        rhs = poisson.tensor_bracket(poisson.coproduct(a, "gl1"),
                                     poisson.coproduct(b, "gl1"), "gl1")
        return lhs, rhs
    return run


def _antipode(rng):
    p = _gl1_product(rng)

    def run():
        out = PoissonPoly.zero()
        for left, right, c in poisson.coproduct(p, "gl1").sides():
            out = out + (poisson.antipode(left, "gl1") * right).scale(c)
        return out, poisson.counit(p)
    return run


def _frobenius(rng):
    a, b = _gl1_product(rng), _gl1_product(rng)
    ell = int(rng.choice([3, 5]))

    def run():
        lhs = poisson.frobenius(poisson.bracket_gl1(a, b), ell)
        return (lhs.scale(ell * ell),
                poisson.bracket_gl1(poisson.frobenius(a, ell),
                                    poisson.frobenius(b, ell)))
    return run


def _semiclassical(rng):
    m = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
    ell = int(rng.choice([3, 5]))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        def run():
            x = qheis.commutator(qheis.fr_h(m, ell), qheis.fr_lambda(ell))
            return (qheis.semiclassical_limit(x, ell),
                    poisson.frobenius(poisson.bracket_gl1(
                        _gen("h", m), _gen("L")), ell))
        return run
    mp = -m if kind < 3 else int(rng.integers(1, 4))

    def run():
        x = qheis.q_heisenberg_commutator(m, mp, ell)
        return (qheis.semiclassical_limit(x, ell),
                poisson.frobenius(poisson.bracket_gl1(
                    _gen("h", m), _gen("h", mp)), ell))
    return run


def _qg(rng, lo, hi):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, 5)))


def exact_element(rng):
    """Extended element over Q[Gamma^+-1]: exponent with rational
    coefficients on z**-3..z**3 (each present with probability 0.6),
    lambda = c G^e exp(r), gamma a monomial and winding in [-2, 2]."""
    f = LaurentGerm.from_dict(
        {n: QGamma.from_rational(_qg(rng, -4, 4))
         for n in range(-3, 4) if n and rng.random() < 0.6}, EXACT)
    lam = ExpScalar(QGamma.monomial(int(rng.integers(-2, 3)),
                                    int(rng.integers(1, 6))),
                    QGamma.from_rational(_qg(rng, -3, 3)))
    gamma = QGamma.monomial(int(rng.integers(-1, 2)),
                            int(rng.integers(1, 5)))
    return ExtendedElement(int(rng.integers(-2, 3)), f, lam, gamma)


def _group(rng):
    a, b, c = exact_element(rng), exact_element(rng), exact_element(rng)
    w = GROUP_WINDOW

    def run():
        e = ExtendedElement.identity(EXACT)
        left = extgroup.hat_mul(extgroup.hat_mul(a, b, w), c, w)
        right = extgroup.hat_mul(a, extgroup.hat_mul(b, c, w), w)
        inv = extgroup.hat_inv(a)
        return ((left, extgroup.hat_mul(a, inv, w),
                 extgroup.hat_mul(inv, a, w)), (right, e, e))
    return run


def exact_germ(rng):
    """Germ over Q[Gamma^+-1] on z**-4..z**4, each coefficient
    c G^e (c rational, |e| <= 2) present with probability 0.7."""
    return LaurentGerm.from_dict(
        {n: QGamma.monomial(int(rng.integers(-2, 3)), _qg(rng, -4, 4))
         for n in range(-4, 5) if rng.random() < 0.7}, EXACT)


def naive_product(f, g):
    """Cauchy product of two exact germs by a double loop over their
    terms with QGamma arithmetic, without ``LaurentGerm.mul``."""
    out = {}
    for n, c in f.items():
        for m, d in g.items():
            out[n + m] = out.get(n + m, QGamma.zero()) + c * d
    return LaurentGerm.from_dict(out, EXACT)


def _germ_ring(rng):
    """Associativity, commutativity and distributivity of ``germs.mul``,
    and one product against ``naive_product`` so that a ``mul`` that is
    wrong in a consistent way (zero, truncated) fails too."""
    f, g, h = exact_germ(rng), exact_germ(rng), exact_germ(rng)

    def run():
        fg = f.mul(g)
        return ((fg.mul(h), fg, f.mul(g + h), fg),
                (f.mul(g.mul(h)), g.mul(f), fg + f.mul(h),
                 naive_product(f, g)))
    return run


def _exact_op(kind, build):
    def make(rng, seed, ordinal):
        run = build(rng)
        return Op(kind, run, check_exact, timed_check=True)
    return make


def check_exact(result):
    lhs, rhs = result
    return "" if lhs == rhs else "exact identity fails"


# Five sub-millisecond kinds, six of a few milliseconds (group, germ
# ring) and three qheis ops, the slowest, per cycle of 14: p50 falls
# inside the middle band and p90 inside the qheis band, away from the
# edges where a quantile would jump between kinds.
_TG = _exact_op("table_gl1", _table_gl1)
_TS = _exact_op("table_sl2", _table_sl2)
_HO = _exact_op("hopf", _hopf)
_AN = _exact_op("antipode", _antipode)
_FR = _exact_op("frobenius", _frobenius)
_SC = _exact_op("semiclassical", _semiclassical)
_GR = _exact_op("group", _group)
_RI = _exact_op("germ_ring", _germ_ring)
EXACT_MIX = [_TG, _GR, _SC, _HO, _RI, _GR, _FR, _SC, _TS, _RI, _GR, _AN,
             _RI, _SC]


WORKLOADS = {"factorize": FACTORIZE, "orbits": ORBITS, "exact": EXACT_MIX}


def draw(workload, seed, k):
    """Op ``k`` of ``workload`` under ``seed``."""
    cycle = WORKLOADS[workload]
    make = cycle[k % len(cycle)]
    # how many ops of the same kind came before op k
    ordinal = ((k // len(cycle)) * cycle.count(make)
               + cycle[:k % len(cycle)].count(make))
    return make(np.random.default_rng([seed, k]), seed, ordinal)
