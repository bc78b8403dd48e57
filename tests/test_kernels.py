"""Array kernels against plain reference implementations.

Each reference below is written out term by term, independent of the
package's kernels: power series by repeated dict products, Cauchy
products by a double loop, circle values by direct evaluation, the
partial-index Toeplitz matrix and the minus-factor system entry by
entry, the q-difference Jacobian column by column, the unary germ
operations coefficient by coefficient, and twisted conjugation, the sl2
reduction and the q-difference defect by products of germs.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hatloop.birkhoff import (LoopMatrix, _circle_samples,
                              _minus_factor_system, _qr_solve,
                              _toeplitz_system,
                              log_coeffs, reciprocal_coeffs, winding_number)
from hatloop.germs import (LaurentGerm, germ_exp, germ_log, rescale,
                           split_pm, truncate_ge, truncate_gt, truncate_le,
                           truncate_lt, truncate_window, window)
from hatloop.leaves import (qdiff_defect, qdiff_jacobian,
                            sl2_triangular_reduce, twisted_conjugate)
from hatloop.scalars import COMPLEX, EXACT, QGamma


def _series_mul(a, b, order):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j <= order:
                out[i + j] = out.get(i + j, 0) + x * y
    return out


def _naive_exp(u, order, one, inv):
    """sum_k u^k / k! of a series ``u`` (dict, exponents >= 1)."""
    out, term = {0: one}, {0: one}
    for k in range(1, order + 1):
        term = {n: c * inv(k) for n, c in _series_mul(term, u, order).items()}
        for n, c in term.items():
            out[n] = out.get(n, 0) + c
    return out


def _naive_log1p(x, order, inv):
    """sum_k (-1)^(k+1) x^k / k of a series ``x`` (dict, exponents >= 1)."""
    out, power = {}, {0: 1}
    for k in range(1, order + 1):
        power = _series_mul(power, x, order)
        for n, c in power.items():
            out[n] = out.get(n, 0) + c * ((1 if k % 2 else -1) * inv(k))
    return out


def _germ(series, direction, domain):
    return LaurentGerm.from_dict(
        {direction * n: c for n, c in series.items()}, domain)


def _random_series(rng, domain, band):
    if domain == COMPLEX:
        return {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / k
                for k in range(1, band + 1)}
    return {k: QGamma({rng.randint(-1, 1): Fraction(rng.randint(-3, 3),
                                                     rng.randint(1, 3))})
            for k in range(1, band + 1)}


def _close(a, b, domain):
    if domain == EXACT:
        return a == b
    return a.allclose(b, 1e-12)


# windows that cut the series (order 3 < band 5) and that do not
@pytest.mark.parametrize("domain", [COMPLEX, EXACT])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("order", [0, 3, 9])
def test_exp_log_match_power_series(domain, direction, order):
    rng = random.Random(order * 10 + direction)
    inv = (lambda k: Fraction(1, k)) if domain == EXACT else \
        (lambda k: 1.0 / k)
    one = QGamma.one() if domain == EXACT else 1.0
    w = window(-order, 2) if direction < 0 else window(-2, order)
    u = _random_series(rng, domain, 5)
    ref = _naive_exp(u, order, one, inv)
    assert _close(germ_exp(_germ(u, direction, domain), w),
                  _germ(ref, direction, domain), domain)
    ref = _naive_log1p(u, order, inv)
    u[0] = one
    assert _close(germ_log(_germ(u, direction, domain), w),
                  _germ(ref, direction, domain), domain)


@pytest.mark.parametrize("direction", [1, -1])
def test_complex_exp_log_fold_the_constant(direction):
    c0 = 0.4 - 0.7j
    u = {1: 0.5, 3: -0.25j}
    w = window(-6, 6)
    ref = _naive_exp(u, 6, 1.0, lambda k: 1.0 / k)
    got = germ_exp(_germ({**u, 0: c0}, direction, COMPLEX), w)
    assert got.allclose(_germ(ref, direction, COMPLEX).scale(np.exp(c0)),
                        1e-12)
    ref = _naive_log1p(u, 6, lambda k: 1.0 / k)
    ref[0] = np.log(c0)
    f = _germ({**u, 0: 1.0}, direction, COMPLEX).scale(c0)
    assert germ_log(f, w).allclose(_germ(ref, direction, COMPLEX), 1e-12)


def _naive_product(f, g, w):
    out = {}
    for n, c in f.items():
        for m, d in g.items():
            if w is None or w.contains(n + m):
                out[n + m] = out.get(n + m, 0) + c * d
    return LaurentGerm.from_dict(out)


def _complex_germ(rng, lo, hi):
    return LaurentGerm.from_dict(
        {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
         for n in range(lo, hi + 1)})


def test_complex_mul_matches_double_loop():
    rng = random.Random(5)
    zero = LaurentGerm.zero()
    z3 = LaurentGerm.monomial(3, 2 - 1j)
    cases = [
        (_complex_germ(rng, -4, 6), _complex_germ(rng, -2, 3), None),
        (_complex_germ(rng, -4, 6), _complex_germ(rng, -2, 3),
         window(-3, 2)),
        (_complex_germ(rng, 2, 6), _complex_germ(rng, 1, 3),
         window(-3, 1)),  # the window misses the product's support
        (_complex_germ(rng, -5, -1), z3, window(-4, 4)),
        (z3, LaurentGerm.monomial(-3, 0.5j), window(0, 0)),
        (z3, LaurentGerm.monomial(-2, 1.0), window(-1, 0)),
        (zero, _complex_germ(rng, -1, 1), None),
        (_complex_germ(rng, -1, 1), zero, window(-2, 2)),
    ]
    for f, g, w in cases:
        assert f.mul(g, w).allclose(_naive_product(f, g, w), 1e-14)
    assert z3.mul(LaurentGerm.monomial(-3, 0.5j), window(0, 0)) \
        == LaurentGerm.monomial(0, 0.5 + 1j)
    assert _complex_germ(rng, 2, 6).mul(
        _complex_germ(rng, 1, 3), window(-3, 1)).is_zero()


def test_circle_samples_match_direct_evaluation():
    rng = random.Random(11)
    f = _complex_germ(rng, -40, 70)  # exponents well beyond nsamples
    for nsamples in (16, 64, 256):
        j = np.arange(nsamples)
        direct = np.zeros(nsamples, dtype=complex)
        for n, c in f.items():
            direct += c * np.exp(2j * np.pi * j * n / nsamples)
        assert np.allclose(_circle_samples(f, nsamples), direct,
                           atol=1e-11)
    assert not _circle_samples(LaurentGerm.zero(), 8).any()


def _reference_system(F, indices, i, depth):
    """Entry-by-entry build of the minus-factor least-squares system."""
    n1, n2 = indices
    extra = 1 if (i == 0 and n1 > n2) else 0
    lo_band = min(g.n_min for row in F.entries for g in row
                  if not g.is_zero())
    rows, rhs = [], []
    for r in range(2):
        for e in range(lo_band - depth, indices[i]):
            row = np.zeros(2 * depth + extra, dtype=complex)
            for j in range(2):
                for k in range(-depth, 0):
                    row[j * depth + k + depth] = F[r, j].coeff_at(e - k)
            if extra:
                row[2 * depth] = F[r, 1].coeff_at(e)
            rows.append(row)
            rhs.append(-F[r, i].coeff_at(e))
    return np.array(rows), np.array(rhs)


def _reference_toeplitz(F, k, depth):
    """Entry-by-entry build of the partial-index Toeplitz matrix: row
    (r, e) and column (j, m) hold the coefficient of z^(e - m) in F_rj."""
    lo_band = min(g.n_min for row in F.entries for g in row
                  if not g.is_zero())
    rows = []
    for r in range(2):
        for e in range(lo_band - depth, k):
            row = np.zeros(2 * (depth + 1), dtype=complex)
            for j in range(2):
                for m in range(-depth, 1):
                    row[j * (depth + 1) + m + depth] = F[r, j].coeff_at(e - m)
            rows.append(row)
    return np.array(rows).reshape(-1, 2 * (depth + 1))


@pytest.mark.parametrize("k", [-8, -3, 0, 1, 4])
def test_toeplitz_system_matches_entrywise_build(k):
    rng = random.Random(11 + k)
    F = LoopMatrix([[_complex_germ(rng, -3, 2), _complex_germ(rng, -1, 4)],
                    [_complex_germ(rng, 0, 3), _complex_germ(rng, -2, 2)]])
    for depth in (1, 4, 9):
        T = _toeplitz_system(F, k, depth)
        T_ref = _reference_toeplitz(F, k, depth)
        assert T.shape == T_ref.shape
        assert np.array_equal(T, T_ref)


@pytest.mark.parametrize("indices", [(0, 0), (2, -1), (1, 1), (3, -3)])
def test_minus_factor_system_matches_entrywise_build(indices):
    rng = random.Random(sum(indices) + 7 * indices[0])
    F = LoopMatrix([[_complex_germ(rng, -3, 2), _complex_germ(rng, -1, 4)],
                    [_complex_germ(rng, 0, 3), _complex_germ(rng, -2, 2)]])
    for depth in (1, 4, 9):
        for i in range(2):
            A, b = _minus_factor_system(F, indices, i, depth)
            A_ref, b_ref = _reference_system(F, indices, i, depth)
            assert A.shape == A_ref.shape
            assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)


@pytest.mark.parametrize("indices", [(0, 0), (1, 1), (2, -1), (1, -1)])
def test_augmented_qr_solve_matches_qr_then_solve(indices):
    # R of [A, B] holds R_A and Q_A^H B; balanced indices share A, so
    # both columns go through one QR
    rng = random.Random(31 + 5 * indices[0])
    F = LoopMatrix([[_complex_germ(rng, -3, 2) + LaurentGerm.monomial(0, 4),
                     _complex_germ(rng, -1, 4)],
                    [_complex_germ(rng, 0, 3),
                     _complex_germ(rng, -2, 2) + LaurentGerm.monomial(0, 4)]])
    depth = 12
    groups = [(0, 1)] if indices[0] == indices[1] else [(0,), (1,)]
    for cols in groups:
        systems = [_minus_factor_system(F, indices, i, depth) for i in cols]
        A = systems[0][0]
        B = np.column_stack([b for _, b in systems])
        sols = _qr_solve(A, B)
        for c, (A_i, b) in enumerate(systems):
            assert np.array_equal(A_i, A)
            q, r = np.linalg.qr(A_i)
            ref = np.linalg.solve(r, q.conj().T @ b)
            assert np.max(np.abs(sols[:, c] - ref)) <= 1e-12


def test_winding_number_of_high_band_loop():
    # 512 fixed samples used to alias z^300 and report -44
    assert winding_number(LaurentGerm.from_dict({0: 1.0, 300: 2.0})) == 300


def test_log_coeffs_do_not_alias_at_band_100():
    # log(1 + 0.5 t + 0.3 / t) with t = z^100: only multiples of 100 occur.
    # 1024 fixed samples used to return the z^-600 value at z^424 as well.
    f = LaurentGerm.from_dict({-100: 0.3, 0: 1.0, 100: 0.5})
    w = window(-612, 612)
    logs = log_coeffs(f, w)
    ref = log_coeffs(LaurentGerm.from_dict({-1: 0.3, 0: 1.0, 1: 0.5}),
                     window(-6, 6))
    assert abs(logs.coeff_at(-600) - ref.coeff_at(-6)) < 1e-12
    assert abs(ref.coeff_at(-6)) > 1e-4
    assert abs(logs.coeff_at(424)) < 1e-12
    inv = reciprocal_coeffs(f, w)
    assert abs(inv.coeff_at(424)) < 1e-12


# ---------------------------------------------------------------------------
# q-difference Jacobian


def _column_jacobian(A, g, theta, w, gamma2):
    """Column n: the windowed image of the monomial z^n under the
    linearized q-difference operator at g."""
    a11, a21, a22 = A[0, 0], A[1, 0], A[1, 1]
    gt = rescale(g, theta)
    mat = np.zeros((w.hi - w.lo + 1,) * 2, dtype=complex)
    for j, n in enumerate(range(w.lo, w.hi + 1)):
        e = LaurentGerm.monomial(n, 1.0)
        col = (-a21.mul(rescale(e, theta).mul(g, w) + gt.mul(e, w), w)
               - a11.mul(rescale(e, gamma2), w) + a22.mul(e, w))
        mat[:, j] = col.to_array(w.lo, w.hi)
    return mat


def _qdiff_matrix(rng, band):
    return LoopMatrix(
        [[_complex_germ(rng, -band, band) + LaurentGerm.monomial(0, 1.5),
          _complex_germ(rng, -band, band)],
         [_complex_germ(rng, -band, band),
          _complex_germ(rng, -band, band) - LaurentGerm.monomial(0, 1.5)]])


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("case", ["zero", "random", "asymmetric", "wide"])
def test_qdiff_jacobian_matches_column_build(case):
    rng = random.Random(len(case))
    theta, gamma2 = 2.5 + 0.5j, cmath.sqrt(2.5 + 0.5j)
    w = window(-6, 6)
    A = _qdiff_matrix(rng, 2)
    g = _complex_germ(rng, -6, 6).scale(0.1)
    if case == "zero":
        g = LaurentGerm.zero()
    elif case == "asymmetric":
        w = window(-3, 7)
        g = _complex_germ(rng, -3, 7).scale(0.1)
    elif case == "wide":  # entries of A reach beyond the window
        w = window(-4, 4)
        A = _qdiff_matrix(rng, 11)
        g = _complex_germ(rng, -6, 6).scale(0.1)  # so does g
    ref = _column_jacobian(A, g, theta, w, gamma2)
    assert _rel_err(qdiff_jacobian(A, g, theta, w, gamma2), ref) < 1e-13
    linear = qdiff_jacobian(A, LaurentGerm.zero(), theta, w, gamma2)
    assert _rel_err(qdiff_jacobian(A, g, theta, w, linear=linear),
                    ref) < 1e-13


def test_qdiff_jacobian_matches_defect_differences():
    # g and delta sit well inside the window, so no product the defect
    # forms is clipped and J(g) is its exact derivative.  The defect is
    # quadratic, so the central difference is exact up to rounding.
    rng = random.Random(3)
    theta = 16.0
    w = window(-10, 10)
    A = _qdiff_matrix(rng, 2)
    g = _complex_germ(rng, -2, 2).scale(0.1)
    delta = _complex_germ(rng, -2, 2)
    h = 1e-3
    diff = (qdiff_defect(A, g + delta.scale(h), theta, w)
            - qdiff_defect(A, g - delta.scale(h), theta, w))
    jd = qdiff_jacobian(A, g, theta, w) @ delta.to_array(w.lo, w.hi)
    assert _rel_err(jd, diff.to_array(w.lo, w.hi) / (2 * h)) < 1e-9


# ---------------------------------------------------------------------------
# unary germ operations


def _by_terms(f, fn, radius=None):
    """Germ with coefficient ``fn(n, c)`` for every term ``c z^n`` of f
    that ``fn`` keeps (returns not None)."""
    out = {}
    for n, c in f.items():
        v = fn(n, c)
        if v is not None:
            out[n] = v
    return LaurentGerm.from_dict(
        out, f.domain, f.radius if radius is None else radius)


def _unary_germs():
    rng = random.Random(21)
    f = _complex_germ(rng, -5, 4)
    return [f, LaurentGerm.zero(radius=0.5),
            LaurentGerm.monomial(-3, 2 - 1j, radius=2.0),
            f + LaurentGerm.monomial(0, -f.coeff_at(0))]  # interior zero


def _same(got, ref, tol=0.0):
    """Equal germs and radii; complex coefficients within ``tol``
    relative when it is given."""
    assert got.radius == ref.radius
    assert all(type(c) is type(d) for c, d in zip(got.coeffs, ref.coeffs))
    if not tol:
        assert got == ref
        return
    assert got.domain == ref.domain
    assert (got.n_min, len(got.coeffs)) == (ref.n_min, len(ref.coeffs))
    assert all(abs(c - d) <= tol * abs(d)
               for c, d in zip(got.coeffs, ref.coeffs))


@pytest.mark.parametrize("gamma", [2.0, -0.5, 1.5 - 0.75j, 1j])
def test_complex_rescale_matches_termwise(gamma):
    for f in _unary_germs():
        ref = _by_terms(f, lambda n, c: gamma ** n * c,
                        f.radius / abs(gamma))
        _same(rescale(f, gamma), ref, 1e-15)


@pytest.mark.parametrize("scalar", [3, -0.25, 0.5 + 2j, 0])
def test_complex_scale_and_neg_match_termwise(scalar):
    for f in _unary_germs():
        _same(f.scale(scalar), _by_terms(f, lambda n, c: scalar * c))
        _same(-f, _by_terms(f, lambda n, c: -c))


CLIPS = [(-2, 3), (0, 0), (-9, 9), (5, 8), (-8, -6), (1, 1)]


def _check_clips(f, tol=0.0):
    for lo, hi in CLIPS:
        def keep(a, b):
            return lambda n, c: c if a <= n <= b else None
        if lo <= 0 <= hi:
            _same(truncate_window(f, window(lo, hi)), _by_terms(
                f, keep(lo, hi)))
        _same(truncate_ge(f, lo), _by_terms(f, keep(lo, math.inf)))
        _same(truncate_gt(f, lo), _by_terms(f, keep(lo + 1, math.inf)))
        _same(truncate_le(f, hi), _by_terms(f, keep(-math.inf, hi)))
        _same(truncate_lt(f, hi), _by_terms(f, keep(-math.inf, hi - 1)))
    plus, minus = split_pm(f)
    _same(plus, _by_terms(f, lambda n, c: c if n >= 0 else None))
    _same(minus, _by_terms(f, lambda n, c: c if n < 0 else None))


def test_complex_clips_match_termwise():
    for f in _unary_germs():
        _check_clips(f)
    # clips that leave nothing keep the domain and the radius
    f = LaurentGerm.from_dict({2: 1.0, 3: -1j}, radius=0.7)
    for empty in (truncate_window(f, window(-1, 1)), truncate_ge(f, 4),
                  truncate_le(f, 1), split_pm(f)[1]):
        assert empty.is_zero() and empty.radius == 0.7


def test_exact_unary_ops_unchanged():
    f = LaurentGerm(-3, [QGamma({1: Fraction(1, 2)}), QGamma.zero(),
                         QGamma({-2: Fraction(3)}), QGamma.one(),
                         QGamma({0: Fraction(-5, 7), 2: Fraction(1)})],
                    EXACT)
    gamma = QGamma({1: Fraction(2)})
    _same(rescale(f, gamma), _by_terms(f, lambda n, c: gamma ** n * c))
    _same(f.scale(Fraction(-2, 3)),
          _by_terms(f, lambda n, c: c * Fraction(-2, 3)))
    _same(-f, _by_terms(f, lambda n, c: -c))
    _check_clips(f)
    _check_clips(LaurentGerm.zero(EXACT))
    assert rescale(LaurentGerm.zero(EXACT), gamma) == LaurentGerm.zero(EXACT)


# ---------------------------------------------------------------------------
# twisted conjugation, sl2 reduction and q-difference defect on arrays


def _germ_twisted_conjugate(g, a, theta, w):
    """``g(Theta z) a g^{-1}`` by LoopMatrix products of germs: the inner
    product unclipped, ``g^{-1} = adj(g) / det(g)`` and the result
    clipped to ``w``."""
    g_shift = LoopMatrix([[rescale(g[i, j], theta) for j in range(2)]
                          for i in range(2)])
    det_inv = reciprocal_coeffs(g.det(None), w)
    adj = LoopMatrix([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    g_inv = LoopMatrix([[adj[i, j].mul(det_inv, w) for j in range(2)]
                        for i in range(2)])
    return g_shift.mul(a, None).mul(g_inv, w)


def _germ_qdiff_defect(A, g, theta, w, gamma2):
    return truncate_window(
        -A[1, 0].mul(rescale(g, theta), None).mul(g, w)
        - A[0, 0].mul(rescale(g, gamma2), w) + A[1, 1].mul(g, w) + A[0, 1],
        w)


def _two_sided_exp(f, w):
    plus, minus = split_pm(f)
    return germ_exp(plus, w).mul(germ_exp(minus, w), w)


def _germ_sl2_reduce(A, gamma, w):
    """alpha, the flattening exponent g and the corner c of a triangular
    loop, by germ arithmetic: ``g_n = u_n / (1 - Theta^n)`` (u = log A11)
    and ``c_n = -b_n / (alpha Theta^n - 1/alpha)`` with b the lower corner
    of ``twisted_conjugate(diag(e^g, e^-g), A)`` built from germs."""
    theta = complex(gamma) ** 4
    u = log_coeffs(A[0, 0], w)
    alpha = cmath.exp(u.coeff_at(0))
    g = LaurentGerm.from_dict({n: c / (1.0 - theta ** n)
                               for n, c in u.items() if n})
    zero = LaurentGerm.zero()
    d = LoopMatrix([[_two_sided_exp(g, w), zero],
                    [zero, _two_sided_exp(-g, w)]])
    b = _germ_twisted_conjugate(d, A, theta, w)[1, 0]
    c = LaurentGerm.from_dict({n: -v / (alpha * theta ** n - 1.0 / alpha)
                               for n, v in b.items()})
    return alpha, g, c


def _germ_rel_err(got, ref):
    lo = min(got.n_min, ref.n_min)
    hi = max(got.n_max, ref.n_max)
    return _rel_err(got.to_array(lo, hi), ref.to_array(lo, hi))


@pytest.mark.parametrize("seed", range(4))
def test_twisted_conjugate_matches_germ_products(seed):
    # non-unit det(g); entries of g and a reach beyond the window
    rng = random.Random(40 + seed)
    w = window(-4, 5)
    theta = [16.0, 2.5 + 0.5j, 0.3, -3.0j][seed]
    g00 = _complex_germ(rng, -6, 6).scale(0.05) + LaurentGerm.monomial(0, 2)
    g11 = (_complex_germ(rng, -5, 5).scale(0.05)
           + LaurentGerm.monomial(0, 1.5 - 0.5j))
    g = LoopMatrix([[g00, _complex_germ(rng, -3, 7).scale(0.1)],
                    [_complex_germ(rng, -7, 2).scale(0.1), g11]])
    a = LoopMatrix([[_complex_germ(rng, -6, 8) for _ in range(2)]
                    for _ in range(2)])
    got = twisted_conjugate(g, a, theta, w)
    ref = _germ_twisted_conjugate(g, a, theta, w)
    scale = max(max(np.abs(ref[i, j].coeffs), default=0.0)
                for i in range(2) for j in range(2))
    for i in range(2):
        for j in range(2):
            assert got[i, j].n_min >= w.lo and got[i, j].n_max <= w.hi
            diff = (got[i, j] - ref[i, j]).coeffs
            assert max(np.abs(diff), default=0.0) < 1e-12 * scale


@pytest.mark.parametrize("case", ["inside", "wide", "asymmetric", "zero"])
def test_qdiff_defect_matches_germ_formula(case):
    rng = random.Random(len(case) + 50)
    theta, gamma2 = 2.5 + 0.5j, cmath.sqrt(2.5 + 0.5j)
    w = window(-6, 6)
    A = _qdiff_matrix(rng, 2)
    g = _complex_germ(rng, -4, 4).scale(0.1)
    if case == "wide":  # entries of A and g reach beyond the window
        A = _qdiff_matrix(rng, 9)
        g = _complex_germ(rng, -8, 9).scale(0.1)
    elif case == "asymmetric":
        w = window(-2, 9)
        g = _complex_germ(rng, 1, 7).scale(0.1)
    elif case == "zero":
        g = LaurentGerm.zero()
    got = qdiff_defect(A, g, theta, w, gamma2)
    ref = _germ_qdiff_defect(A, g, theta, w, gamma2)
    assert got.n_min >= w.lo and got.n_max <= w.hi
    assert _germ_rel_err(got, ref) < 1e-13


def _triangular_loop(rng):
    """A11 = alpha exp(u), A22 = exp(-u) / alpha, both cut to z^-12..z^12,
    and A21 of band 2, with |Gamma| in [1.5, 2.5]."""
    w = window(-12, 12)
    u = LaurentGerm.from_dict(
        {n: complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
         for n in (-2, -1, 1, 2)})
    alpha = cmath.rect(rng.uniform(1.1, 3.5), rng.uniform(-math.pi, math.pi))
    A = LoopMatrix([[_two_sided_exp(u, w).scale(alpha), LaurentGerm.zero()],
                    [_complex_germ(rng, -2, 2).scale(0.3),
                     _two_sided_exp(-u, w).scale(1.0 / alpha)]])
    return A, alpha, rng.uniform(1.5, 2.5)


def test_sl2_reduce_matches_germ_reduction():
    rng = random.Random(60)
    done = 0
    while done < 40:
        A, alpha, gamma = _triangular_loop(rng)
        theta = gamma ** 4
        w = window(-28, 28)
        divisors = alpha * theta ** np.arange(w.lo, w.hi + 1) - 1 / alpha
        if np.min(np.abs(divisors)) < 0.05:  # near +-Gamma^{2Z}
            continue
        red = sl2_triangular_reduce(A, 0.9, gamma, w=w)
        ref_alpha, ref_g, ref_c = _germ_sl2_reduce(A, gamma, w)
        assert abs(red.alpha - ref_alpha) < 1e-12 * abs(ref_alpha)
        assert _germ_rel_err(red.diag_exponent, ref_g) < 1e-12
        assert _germ_rel_err(red.lower, ref_c) < 1e-12
        done += 1
