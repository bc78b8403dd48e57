"""Array kernels against plain reference implementations.

Each reference below is written out term by term, independent of the
package's kernels: power series by repeated dict products, Cauchy
products by a double loop, circle values by direct evaluation and the
minus-factor system entry by entry.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from hatloop.birkhoff import (LoopMatrix, _circle_samples,
                              _minus_factor_system, log_coeffs,
                              reciprocal_coeffs, winding_number)
from hatloop.germs import LaurentGerm, germ_exp, germ_log, window
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
