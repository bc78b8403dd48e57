"""Elliptic classes, twisted orbits, SL2 reduction, q-difference solver."""

import cmath
import random

import pytest

from hatloop.birkhoff import LoopMatrix
from hatloop.errors import DomainMismatch, NonGeneric
from hatloop.extgroup import ExtendedElement, hat_inv, hat_mul
from hatloop.germs import (LaurentGerm, germ_exp, rescale, split_pm,
                           window)
from hatloop.leaves import (
    EllipticPoint, elliptic_class, elliptic_equal, eprime_equal,
    gl1_diagonalize, gl1_leaf_point, qdiff_solve, sl2_diag_equivalent,
    sl2_triangular_reduce, twisted_conjugate,
)

THETA = 16.0


def test_elliptic_canonical_rep():
    p = EllipticPoint(300.0, THETA)
    assert 1 <= abs(p.rep) < THETA
    assert elliptic_equal(p, EllipticPoint(300.0 / THETA ** 3, THETA))
    assert not elliptic_equal(p, EllipticPoint(2.1 * p.rep, THETA))


def test_eprime_identifies_inverses():
    p = elliptic_class(2 + 1j, THETA)
    assert eprime_equal(p, p.inverse())
    assert not elliptic_equal(p, p.inverse())


def test_sl2_diag_equivalent():
    a = 1.3 - 0.4j
    assert sl2_diag_equivalent(a, 2.0, a * THETA ** 2, 2.0, THETA)
    assert sl2_diag_equivalent(a, 2.0, 1 / a, 2.0, THETA)
    assert not sl2_diag_equivalent(a, 2.0, a, 2.5, THETA)
    assert not sl2_diag_equivalent(a, 2.0, a * 1.7, 2.0, THETA)


def test_gl1_diagonalize_invariant():
    rng = random.Random(4)
    f = LaurentGerm.from_dict(
        {n: complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
         for n in range(-3, 4)})
    a = ExtendedElement(0, f, 1.2 + 0.1j, 2.0)
    inv, conj = gl1_diagonalize(a)
    assert abs(inv.gamma - 2.0) < 1e-12
    assert cmath.isclose(inv.alpha_class.rep ** 0,  1)  # class well formed
    # conjugating by a winding-zero element leaves the invariant alone
    g = ExtendedElement(0, LaurentGerm.from_dict({-1: 0.2, 2: 0.1j}),
                        0.7, 1.0)
    w = window(-24, 24)
    moved = hat_mul(hat_mul(g, a, w), hat_inv(g), w)
    inv2, _ = gl1_diagonalize(moved)
    assert inv.close_to(inv2, 1e-8)


def test_gl1_diagonalize_rejects_winding():
    a = ExtendedElement(1, LaurentGerm.zero(), 1.0, 2.0)
    with pytest.raises(DomainMismatch):
        gl1_diagonalize(a)


def test_gl1_leaf_point_membership():
    f = LaurentGerm.from_dict({-2: 0.3, -1: 0.1j, 1: -0.2, 2: 0.05})
    left, right = gl1_leaf_point(f, 1.5, 0.8 + 0.2j, 2.0, check=True)
    assert abs(right.gamma - 2.0) < 1e-12
    assert abs(left.gamma - 0.5) < 1e-12


def test_twisted_conjugate_scalar():
    g = LaurentGerm.from_dict({0: 1.0, 1: 0.3})
    a = LaurentGerm.from_dict({0: 2.0, -1: 0.5})
    w = window(-8, 8)
    out = twisted_conjugate(g, a, THETA, w)
    # action by a constant loop is trivial
    const = LaurentGerm.monomial(0, 3.7)
    out2 = twisted_conjugate(const, a, THETA, w)
    assert out2.allclose(a, 1e-12)
    # cocycle: (g h) . a = g . (h . a); wide window, interior compared
    # (the outermost modes carry truncation error from the 1/g tail)
    h = LaurentGerm.from_dict({0: 1.0, -1: 0.2})
    wide = window(-20, 20)
    lhs = twisted_conjugate(g.mul(h, wide), a, THETA, wide)
    rhs = twisted_conjugate(g, twisted_conjugate(h, a, THETA, wide),
                            THETA, wide)
    assert all(abs(lhs.coeff_at(n) - rhs.coeff_at(n)) < 1e-10
               for n in range(-8, 9))
    assert not out.allclose(a, 1e-10)


def _triangular_sample():
    zero = LaurentGerm.zero()
    u = LaurentGerm.from_dict({-1: 0.15, 1: -0.1, 2: 0.07j})
    plus, minus = split_pm(u)
    w = window(-12, 12)
    a11 = germ_exp(plus, w).mul(germ_exp(minus, w), w).scale(1.4)
    from hatloop.birkhoff import reciprocal_coeffs
    a22 = reciprocal_coeffs(a11, w)
    b = LaurentGerm.from_dict({-1: 0.3, 0: 0.2, 1: -0.25})
    return LoopMatrix([[a11, zero], [b, a22]])


def test_sl2_reduce_replay():
    A = _triangular_sample()
    red = sl2_triangular_reduce(A, 0.9, 2.0)
    assert abs(red.alpha - 1.4) < 1e-8
    w = window(-12, 12)
    back = red.replay(w)
    err = max(max((abs(v) for _, v in (back[i, j] - A[i, j]).items()),
                  default=0.0) for i in range(2) for j in range(2))
    assert err < 1e-8


def test_sl2_reduce_det_tolerance_scales_with_entries():
    # A11 = 3 (1 + r z) and A22 its inverse cut after z^7: det = 1 -
    # (-r)^8 z^8, a defect of 2.1e-8 on entries of size 3, within the
    # relative tolerance; a defect of 3e-6 is not.
    r = 0.11
    a11 = LaurentGerm.from_dict({0: 3.0, 1: 3.0 * r})
    a22 = LaurentGerm.from_dict({n: (-r) ** n / 3.0 for n in range(8)})
    b = LaurentGerm.from_dict({-1: 0.3, 0: 0.2, 1: -0.25})
    A = LoopMatrix([[a11, LaurentGerm.zero()], [b, a22]])
    red = sl2_triangular_reduce(A, 0.9, 2.0)
    assert abs(red.alpha - 3.0) < 1e-8
    off = LoopMatrix([[a11, LaurentGerm.zero()],
                      [b, a22 + LaurentGerm.monomial(3, 1e-6)]])
    with pytest.raises(DomainMismatch, match="determinant"):
        sl2_triangular_reduce(off, 0.9, 2.0)


def test_sl2_reduce_accepts_det_defect_near_resonance():
    # alpha = 4.008 sits next to Gamma^2 = 4: the corner divisor at z^-1
    # is alpha / 16 - 1 / alpha = 1.0e-3, so |c| reaches 300.  A22 is
    # 1 / A11 cut after z^8, a det defect of 0.12^9 = 5.2e-9 that the
    # determinant check accepts; it leaves b22 off 1/alpha by about that
    # much, and b22 - 1/alpha times c put 3.9e-7 into the lower corner
    # of the conjugated loop, which used to be rejected as a residual.
    r, alpha = 0.12, 4.008
    a11 = LaurentGerm.from_dict({0: alpha, 1: alpha * r})
    a22 = LaurentGerm.from_dict({n: (-r) ** n / alpha for n in range(9)})
    b = LaurentGerm.from_dict({-1: 0.3, 0: 0.2, 1: -0.25})
    A = LoopMatrix([[a11, LaurentGerm.zero()], [b, a22]])
    red = sl2_triangular_reduce(A, 0.9, 2.0)
    assert abs(red.alpha - alpha) < 1e-12
    assert max(abs(c) for c in red.lower.coeffs) > 250
    # the corner solves c_n (alpha Theta^n - 1/alpha) = -b21_n with
    # b21 = e^-g(Theta z) A21 e^-g(z)
    w = window(-6, 20)
    plus, minus = split_pm(-red.diag_exponent)
    e_inv = germ_exp(plus, w).mul(germ_exp(minus, w), w)
    b21 = rescale(e_inv, THETA).mul(b, None).mul(e_inv, w)
    assert all(abs(red.lower.coeff_at(n) * (alpha * THETA ** n - 1 / alpha)
                   + b21.coeff_at(n)) < 1e-12
               for n in range(w.lo, w.hi + 1))


def test_sl2_reduce_rejects_resonant_alpha():
    A = _triangular_sample()
    # alpha = Gamma^2 = 4 makes the corner divisor vanish
    resonant = LoopMatrix([[A[0, 0].scale(4.0 / 1.4), A[0, 1]],
                           [A[1, 0], A[1, 1].scale(1.4 / 4.0)]])
    with pytest.raises(NonGeneric):
        sl2_triangular_reduce(resonant, 0.9, 2.0)


def test_qdiff_solve():
    a11 = LaurentGerm.from_dict({0: 1.5, 1: 0.1, -1: -0.05})
    a22 = LaurentGerm.from_dict({0: -1.2, 2: 0.08})
    off = LaurentGerm.from_dict({0: 0.05, 1: 0.02})
    A = LoopMatrix([[a11, off], [off, a22]])
    w = window(-10, 10)
    g = qdiff_solve(A, THETA, w=w)
    # residual of  a21 g(Tz) g(z) + a11 g(G^2 z) - a22 g(z) - a12
    gamma2 = cmath.sqrt(THETA)
    res = (A[1, 0].mul(rescale(g, THETA), w).mul(g, w)
           + A[0, 0].mul(rescale(g, gamma2), w)
           - A[1, 1].mul(g, w) - A[0, 1])
    assert max(abs(c) for _, c in res.items()) <= 1e-8
