"""Exact p(q)/(q - q^-1)^k coefficients and the cyclotomic reduction of
``semiclassical_limit``, against sympy as the reference."""

from fractions import Fraction

import pytest
import sympy

from hatloop.errors import NotInCenter
from hatloop.poisson import PoissonPoly
from hatloop.qheis import (QCoeff, QHeisenbergElement, QLaurent, commutator,
                           fr_h, fr_lambda, semiclassical_limit)

q = sympy.Symbol("q")
D = QLaurent({1: 1, -1: -1})  # q - q^-1


def _reduce_at_root(expr, ell):
    """Exact value of ``expr`` at a primitive ell-th root of unity, by
    sympy rational-function and cyclotomic arithmetic."""
    expr = sympy.cancel(sympy.together(expr))
    num, den = sympy.fraction(expr)
    num = sympy.Poly(sympy.expand(num), q, domain="QQ")
    den = sympy.Poly(sympy.expand(den), q, domain="QQ")
    phi = sympy.Poly(sympy.cyclotomic_poly(ell, q), q, domain="QQ")
    while den.rem(phi).is_zero:
        if not num.rem(phi).is_zero:
            raise NotInCenter("pole at the root of unity")
        num = num.quo(phi)
        den = den.quo(phi)
    s, _, g = sympy.gcdex(den.rem(phi).as_expr(), phi.as_expr(), q)
    val = (num.rem(phi) * sympy.Poly(s / g, q, domain="QQ")).rem(phi)
    if val.degree() > 0:
        raise NotInCenter("value is not constant at the root of unity")
    c = sympy.Rational(val.as_expr())
    return Fraction(c.p, c.q)


def _reference_limit(x, ell):
    """Semiclassical limit of ``x`` as a PoissonPoly, term by term in
    sympy; None when some term raises NotInCenter."""
    scale = ell * (q ** ell - q ** -ell)
    out = {}
    try:
        for (hp, lam, gam), coeff in x.terms.items():
            hdeg = sum(p for _, p in hp)
            value = _reduce_at_root(
                sympy.sympify(coeff) / (scale * (q - 1 / q) ** hdeg), ell)
            if value:
                mono = [(("h", i), p) for i, p in hp]
                mono += [(("L", 0), lam)] if lam else []
                mono += [(("G", 0), gam)] if gam else []
                out[tuple(mono)] = value
    except NotInCenter:
        return None
    return PoissonPoly(out)


def _cases(ell):
    yield commutator(fr_h(1, ell), fr_h(-1, ell))
    yield commutator(fr_h(-2, ell), fr_h(2, ell))
    yield commutator(fr_h(1, ell), fr_h(2, ell))
    yield commutator(fr_h(2, ell), fr_lambda(ell))
    yield commutator(fr_h(-1, ell), fr_lambda(ell))
    yield fr_h(1, ell)                                # not central: a pole
    yield fr_h(1, ell) * fr_h(-1, ell)                # pole on the h^2 term
    # ell q (q^ell - q^-ell): no pole, but the value q is not rational
    yield QHeisenbergElement(
        {((), 0, 0): QLaurent({ell + 1: ell, 1 - ell: -ell})})
    if ell <= 5:  # squared h's are slow in the sympy reference
        yield commutator(fr_h(1, ell) * fr_h(1, ell),
                         fr_h(-1, ell) * fr_lambda(ell))


@pytest.mark.parametrize("ell", [3, 5, 7, 9])
def test_semiclassical_matches_sympy_reduction(ell):
    for x in _cases(ell):
        want = _reference_limit(x, ell)
        if want is None:
            with pytest.raises(NotInCenter):
                semiclassical_limit(x, ell)
        else:
            assert semiclassical_limit(x, ell) == want


A = QCoeff(QLaurent({2: Fraction(1, 3), 0: -1, -1: 2}), 1)
B = QCoeff(QLaurent({1: 4, -3: Fraction(-5, 2)}), 3)
C = QCoeff(QLaurent({0: 7}))


@pytest.mark.parametrize("x, y", [(A, B), (B, C), (C, A), (A, A)])
def test_arithmetic_matches_sympy(x, y):
    sx, sy = sympy.sympify(x), sympy.sympify(y)
    assert sympy.simplify(sympy.sympify(x + y) - (sx + sy)) == 0
    assert sympy.simplify(sympy.sympify(x - y) - (sx - sy)) == 0
    assert sympy.simplify(sympy.sympify(x * y) - sx * sy) == 0
    assert (x == y) == (sympy.simplify(sx - sy) == 0)


def test_equality_across_denominator_powers():
    # the same value written over (q - q^-1)^1 and (q - q^-1)^3
    assert QCoeff(A.p * D * D, 3) == A
    assert QCoeff(A.p * D, 3) != A


def test_zero_after_cancellation():
    z = QCoeff(D * D, 2) - 1
    assert z.is_zero() and z.k == 0 and z == 0
    assert (A * B - B * A).is_zero()
    assert (A + B - A - B).is_zero()
    assert not (A - 1).is_zero()


def test_int_comparisons():
    assert QCoeff(D, 1) == 1 and 1 == QCoeff(D, 1)
    assert QCoeff(0) == 0 and QCoeff(QLaurent.zero(), 4) == 0
    assert QCoeff(D, 1) != 0 and C == 7 and C != 1


def test_negative_k_folds_into_numerator():
    x = QCoeff(QLaurent({0: 2}), -2)
    assert x.k == 0 and x.p == D * D * 2
    assert sympy.simplify(sympy.sympify(x) - 2 * (q - 1 / q) ** 2) == 0
