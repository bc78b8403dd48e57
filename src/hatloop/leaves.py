"""Twisted conjugation, normal forms and symplectic-leaf data.

Everything here lives over the complex domain with |Gamma| != 1: the
elliptic quotient E = C^*/(z ~ Theta z) with Theta = Gamma^4 only makes
sense away from the unit modulus case, and all the divisors
(Gamma^n - Gamma^-n) appearing in the normal-form constructions are
guarded by a small-divisor tolerance rather than regularized.

The matrix solvers work on coefficient arrays and build germs only at
the public boundary.  A 2x2 loop is one ``(2, 2, n)`` complex array
``v`` with ``v[i, j, k]`` the coefficient of ``z^(lo + k)`` in entry
``(i, j)``; a product is ``np.convolve`` of the entries, and clipping to
a window ``w`` slices (or zero-pads) the last axis to ``w.lo..w.hi``.
Matrix :func:`twisted_conjugate`, the flattening and corner steps of
:func:`sl2_triangular_reduce` and the defect of the q-difference
equation all follow the germ products they replace: inner products are
not clipped, results are.  :func:`sl2_triangular_reduce` checks its
result as a backward error: the conjugated loop must be diag(alpha,
1/alpha) up to the corner term that the input's determinant defect
contributes through c (see its docstring).

The q-difference solver runs Newton on the window coefficients of ``g``.
Its Jacobian is assembled from Toeplitz blocks rather than column by
column: with ``T(h)[i, j] = h_{m_i - m_j}`` over the window modes ``m``
and ``D_c = diag(c^m)``,

    J(g) = -T(A21) (T(g) D_Theta + T(g(Theta z))) - T(A11) D_{Gamma^2}
           + T(A22),

which is the matrix of ``delta -> -A21 [delta(Theta z) g + g(Theta z)
delta]_w - A11 delta(Gamma^2 z) + A22 delta`` with every product clipped
to the window ``w``.  The last two terms (the linear part) are built
once per solve.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .birkhoff import LoopMatrix, log_coeffs, reciprocal_coeffs, \
    winding_number
from .errors import (ConvergenceError, DomainMismatch, NonGeneric,
                     SmallDivisor)
from .extgroup import ExtendedElement, h_pair_is_member, hat_inv, hat_mul
from .germs import COMPLEX, LaurentGerm, germ_exp, rescale, split_pm, window

EPS_DIVISOR = 1e-10


def _exp_scalar(f, w):
    """exp of a (possibly two-sided) scalar germ, windowed.

    Scalar germs commute, so exp(f) = exp(f_+) exp(f_-) with the
    one-sided pieces handled by germ_exp.
    """
    plus, minus = split_pm(f)
    out = germ_exp(plus, w)
    if not minus.is_zero():
        out = out.mul(germ_exp(minus, w), w)
    return out


def _check_theta(theta):
    theta = complex(theta)
    if abs(abs(theta) - 1) < 1e-12 or theta == 0:
        raise DomainMismatch("|Theta| must differ from 1")
    return theta


class EllipticPoint:
    """Point of E = C^*/(z ~ Theta z), stored by its canonical
    representative in the fundamental annulus 1 <= |rep| < |Theta|."""

    __slots__ = ("rep", "theta")

    def __init__(self, rep, theta):
        theta = _check_theta(theta)
        rep = complex(rep)
        if rep == 0:
            raise DomainMismatch("elliptic point must be nonzero")
        t = theta if abs(theta) > 1 else 1.0 / theta
        k = -math.floor(math.log(abs(rep)) / math.log(abs(t)) + 1e-13)
        rep = rep * t ** k
        # float drift can leave rep marginally outside the annulus
        while abs(rep) >= abs(t) * (1 - 1e-13):
            rep /= t
        while abs(rep) < 1 - 1e-13:
            rep *= t
        self.rep = rep
        self.theta = theta

    def inverse(self):
        return EllipticPoint(1.0 / self.rep, self.theta)

    def __repr__(self):
        return f"EllipticPoint({self.rep!r}, theta={self.theta!r})"

    def to_json(self):
        return {"alpha_rep": [self.rep.real, self.rep.imag],
                "theta": [self.theta.real, self.theta.imag]}


def elliptic_class(alpha, theta):
    return EllipticPoint(alpha, theta)


def elliptic_equal(p, q, tol=1e-8):
    if abs(p.theta - q.theta) > tol * max(1.0, abs(p.theta)):
        return False
    t = p.theta if abs(p.theta) > 1 else 1.0 / p.theta
    # canonical reps sitting on opposite edges of the annulus both count
    return any(abs(p.rep * t ** k - q.rep) <= tol * max(1.0, abs(q.rep))
               for k in (-1, 0, 1))


def eprime_equal(p, q, tol=1e-8):
    """Equality in E' = E/(z ~ z^{-1})."""
    return elliptic_equal(p, q, tol) or elliptic_equal(p.inverse(), q, tol)


class TwistedOrbitInvariantGL1:
    """Complete invariant (E-class of alpha, lambda', Gamma) of a
    twisted GL1 orbit."""

    __slots__ = ("alpha_class", "lam", "gamma")

    def __init__(self, alpha_class, lam, gamma):
        lam = complex(lam)
        if lam == 0:
            raise DomainMismatch("lambda must be nonzero")
        self.alpha_class = alpha_class
        self.lam = lam
        self.gamma = complex(gamma)

    def close_to(self, other, tol=1e-8):
        return (elliptic_equal(self.alpha_class, other.alpha_class, tol)
                and abs(self.lam - other.lam) <= tol * max(1, abs(self.lam))
                and abs(self.gamma - other.gamma) <= tol)

    def to_json(self):
        out = self.alpha_class.to_json()
        out["lambda"] = [self.lam.real, self.lam.imag]
        out["gamma"] = [self.gamma.real, self.gamma.imag]
        return out

    def __repr__(self):
        return (f"TwistedOrbitInvariantGL1({self.alpha_class!r}, "
                f"lam={self.lam!r}, gamma={self.gamma!r})")


def gl1_diagonalize(a, rho=None, eps=EPS_DIVISOR, tol=1e-8):
    """Conjugate ``a = (e^f, lambda, Gamma)`` to ``(alpha, lambda', Gamma)``.

    The conjugator ``(e^g, 1, rho)`` has ``g_n = a_n rho^n /
    (Gamma^n - Gamma^-n)``; the constant mode survives as the invariant
    ``alpha = e^{f_0}`` up to the lattice Theta = Gamma^4 (absorbed by
    the elliptic class), and ``lambda'`` is read off the conjugation.
    """
    if a.domain != COMPLEX:
        raise DomainMismatch("gl1_diagonalize is numeric")
    if a.n != 0:
        raise DomainMismatch("loop must have winding 0")
    a = a.fold_const()
    gamma = a.gamma
    if abs(abs(gamma) - 1) < 1e-12:
        raise DomainMismatch("|Gamma| = 1 is not supported")
    if rho is None:
        rho = gamma
    rho = complex(rho)
    g = {}
    for n, c in a.f.items():
        if n == 0:
            continue
        den = gamma ** n - gamma ** (-n)
        if abs(den) <= eps:
            raise SmallDivisor(f"Gamma^{n} - Gamma^{-n} below tolerance")
        g[n] = c * rho ** n / den
    u = ExtendedElement(0, LaurentGerm.from_dict(g, COMPLEX, a.f.radius),
                        1.0, rho)
    res = hat_mul(hat_mul(u, a), hat_inv(u)).fold_const()
    residue = max((abs(c) for n, c in res.f.items() if n != 0),
                  default=0.0)
    if residue > tol:
        raise NonGeneric(f"conjugation left modes of size {residue}")
    alpha = cmath.exp(res.f.coeff_at(0))
    inv = TwistedOrbitInvariantGL1(
        elliptic_class(alpha, gamma ** 4), res.lam, gamma)
    return inv, u.f


def gl1_leaf_point(f, alpha, lam, gamma, check=True):
    """Point of the symplectic leaf through ``(alpha, lam)`` at fixed
    Gamma, parameterized by a germ ``f = f_minus - f_plus`` with zero
    constant term.

    The two components are ``(alpha^-1 e^{f_plus}, lam^-1 e^{-S},
    Gamma^-1)`` and ``(alpha e^{f_minus}, lam e^{S}, Gamma)`` with
    ``S = sum_{n != 0} n f_n f_{-n} / (2 (1 - Gamma^{-4n})^2)``.  The
    base point keeps the leaf's Gamma: its stated third coordinate is
    read as not acting on the loop variable.
    """
    if f.domain != COMPLEX:
        raise DomainMismatch("gl1_leaf_point is numeric")
    gamma = complex(gamma)
    if abs(abs(gamma) - 1) < 1e-12:
        raise DomainMismatch("|Gamma| = 1 is not supported")
    if abs(f.coeff_at(0)) > 1e-13:
        raise DomainMismatch("f must have zero constant term")
    f_minus = LaurentGerm.from_dict(
        {n: c for n, c in f.items() if n < 0}, COMPLEX, f.radius)
    f_plus = LaurentGerm.from_dict(
        {n: -c for n, c in f.items() if n > 0}, COMPLEX, f.radius)
    s = 0j
    for n, c in f.items():
        s += n * c * f.coeff_at(-n) / (2 * (1 - gamma ** (-4 * n)) ** 2)
    alpha = complex(alpha)
    lam = complex(lam)
    left = ExtendedElement(0, f_plus, cmath.exp(-s) / lam, 1.0 / gamma,
                           const=1.0 / alpha)
    right = ExtendedElement(0, f_minus, cmath.exp(s) * lam, gamma,
                            const=alpha)
    if check and not h_pair_is_member(left, right, tol=1e-8):
        raise DomainMismatch("constructed point fails H membership")
    return left, right


def sl2_diag_equivalent(alpha, lam, alpha_p, lam_p, theta, tol=1e-8):
    """Diagonal classes (alpha, lam) and (alpha', lam') coincide iff the
    lambdas agree and alpha lies in alpha' Theta^Z or its inverse."""
    if abs(complex(lam) - complex(lam_p)) > tol * max(1, abs(complex(lam))):
        return False
    return eprime_equal(elliptic_class(alpha, theta),
                        elliptic_class(alpha_p, theta), tol)


# ---------------------------------------------------------------------------
# Twisted conjugation


def _auto_window(*germs):
    lo, hi = -4, 4
    for g in germs:
        if not g.is_zero():
            lo = min(lo, 2 * g.n_min - 4)
            hi = max(hi, 2 * g.n_max + 4)
    return window(lo, hi)


def _mat_array(M, w=None):
    """``(lo, v)``: the coefficients of a LoopMatrix as one ``(2, 2, n)``
    array, ``v[i, j, k]`` at exponent ``lo + k``, over ``w`` when given
    and else over the support of its entries."""
    lo, hi = (w.lo, w.hi) if w is not None else M.band()
    return lo, np.array([[M[i, j].to_array(lo, hi) for j in range(2)]
                         for i in range(2)])


def _on_window(v, lo, w):
    """Coefficients at ``w.lo..w.hi`` (last axis) of an array ``v`` whose
    first entry sits at exponent ``lo``; zero outside its support."""
    out = np.zeros(v.shape[:-1] + (w.hi - w.lo + 1,), dtype=complex)
    a, b = max(lo, w.lo), min(lo + v.shape[-1] - 1, w.hi)
    if a <= b:
        out[..., a - w.lo:b - w.lo + 1] = v[..., a - lo:b - lo + 1]
    return out


def _mat_mul(x, y):
    """Unclipped product of two ``(lo, (2, 2, n) array)`` loop matrices."""
    (xlo, xv), (ylo, yv) = x, y
    return xlo + ylo, np.array(
        [[np.convolve(xv[i, 0], yv[0, j]) + np.convolve(xv[i, 1], yv[1, j])
          for j in range(2)] for i in range(2)])


def _loop_matrix(v, lo, radius):
    return LoopMatrix([[LaurentGerm.from_array(lo, v[i, j], radius)
                        for j in range(2)] for i in range(2)])


def twisted_conjugate(g, a, theta, w=None):
    """The action ``g . a = g(Theta z) a(z) g(z)^{-1}``.

    ``g`` and ``a`` are either both scalar loops (LaurentGerm) or both
    LoopMatrix; the result is truncated to ``w`` (an automatic window
    wide enough for the inputs when omitted).  Matrices run on
    coefficient arrays: ``g^{-1} = adj(g) / det(g)`` with ``1 / det(g)``
    from :func:`reciprocal_coeffs` on ``w`` and each entry of the
    inverse clipped to ``w``; ``g(Theta z) a(z)`` is not clipped, the
    result is.
    """
    theta = complex(theta)
    if isinstance(g, LaurentGerm):
        if w is None:
            w = _auto_window(g, a)
        num = rescale(g, theta).mul(a, None)
        return num.mul(reciprocal_coeffs(g, w), w)
    if w is None:
        w = _auto_window(*(g[i, j] for i in range(2) for j in range(2)),
                         *(a[i, j] for i in range(2) for j in range(2)))
    glo, gv = _mat_array(g)
    det = LaurentGerm.from_array(2 * glo, np.convolve(gv[0, 0], gv[1, 1])
                                 - np.convolve(gv[0, 1], gv[1, 0]), g.radius)
    det_inv = reciprocal_coeffs(det, w).to_array(w.lo, w.hi)
    adj = np.array([[gv[1, 1], -gv[0, 1]], [-gv[1, 0], gv[0, 0]]])
    g_inv = _on_window(
        np.array([[np.convolve(x, det_inv) for x in row] for row in adj]),
        glo + w.lo, w)
    shift = gv * theta ** np.arange(glo, glo + gv.shape[-1])
    lo, out = _mat_mul(_mat_mul((glo, shift), _mat_array(a)), (w.lo, g_inv))
    return _loop_matrix(_on_window(out, lo, w), w.lo, min(
        1.0, a.radius, g.radius / max(1.0, abs(theta))))


# ---------------------------------------------------------------------------
# SL2 triangular reduction


class Sl2Reduction:
    """Diagonal normal form of a lower-triangular loop together with
    the conjugator chain, so the input can be reconstructed."""

    __slots__ = ("alpha", "lam", "diag_exponent", "lower", "theta")

    def __init__(self, alpha, lam, diag_exponent, lower, theta):
        self.alpha = complex(alpha)
        self.lam = complex(lam)
        self.diag_exponent = diag_exponent
        self.lower = lower
        self.theta = complex(theta)

    def invariant(self):
        return elliptic_class(self.alpha, self.theta), self.lam

    def diagonal(self):
        return LoopMatrix(
            [[LaurentGerm.monomial(0, self.alpha), LaurentGerm.zero()],
             [LaurentGerm.zero(),
              LaurentGerm.monomial(0, 1.0 / self.alpha)]])

    def replay(self, w=None):
        """Undo the conjugator chain on the diagonal normal form,
        reconstructing the reduced input."""
        if w is None:
            w = _auto_window(self.diag_exponent, self.lower)
        zero = LaurentGerm.zero()
        one = LaurentGerm.one()
        d_inv = LoopMatrix([[_exp_scalar(-self.diag_exponent, w), zero],
                            [zero, _exp_scalar(self.diag_exponent, w)]])
        low_inv = LoopMatrix([[one, zero], [-self.lower, one]])
        step = twisted_conjugate(low_inv, self.diagonal(), self.theta, w)
        return twisted_conjugate(d_inv, step, self.theta, w)


def sl2_triangular_reduce(A, lam, gamma, w=None, eps=EPS_DIVISOR,
                          tol=1e-8):
    """Reduce a lower-triangular unit-determinant loop to diag(a, 1/a)
    under Theta-twisted conjugation, Theta = Gamma^4.

    A diagonal conjugation d = diag(e, e^{-1}), ``e = exp(g)`` with
    ``g_n = u_n / (1 - Theta^n)`` (u the log of A11), flattens A11 to
    its constant invariant alpha: on window coefficient arrays,

        b11 = e(Theta z) A11 e^{-1},   b21 = e^{-1}(Theta z) A21 e^{-1},
        b22 = e^{-1}(Theta z) A22 e,

    each inner product unclipped and the result clipped to ``w``.  A
    unipotent lower conjugation with ``c_n = -b21_n / (alpha Theta^n -
    alpha^{-1})`` then removes the corner entry.  alpha in +-Gamma^{2Z}
    makes those divisors vanish and is rejected as non-generic.

    The determinant must be 1 within ``tol * max(1, A.max_abs())`` on
    the window, and the result is checked at that scale as a backward
    error: ``final = twisted_conjugate(low, b)`` must have the diagonal
    diag(alpha, 1/alpha) and zero upper corner, and its lower corner
    must satisfy the equation c solved, ``final21 + c (b22 - 1/alpha)
    = 0``.  The term ``c (b22 - 1/alpha)`` is the input's determinant
    defect (b22 misses 1/alpha by it) times c; near +-Gamma^{2Z} the
    divisors make c large, and requiring ``final21 = 0`` outright would
    reject loops whose defect the determinant check accepted.
    """
    gamma = complex(gamma)
    if abs(abs(gamma) - 1) < 1e-12:
        raise DomainMismatch("|Gamma| = 1 is not supported")
    theta = gamma ** 4
    if not A[0, 1].is_zero():
        raise DomainMismatch("matrix must be lower triangular")
    a11 = A[0, 0]
    if w is None:
        w = _auto_window(a11, A[1, 0], A[1, 1])
    if winding_number(a11) != 0:
        raise NonGeneric("A11 must have winding number zero")
    alo, av = _mat_array(A)
    scale = tol * max(1.0, float(np.max(np.abs(av))))
    det_diff = A.det(w).to_array(w.lo, w.hi)
    det_diff[-w.lo] -= 1.0
    if np.max(np.abs(det_diff)) > scale:
        raise DomainMismatch("determinant must be 1")
    modes = np.arange(w.lo, w.hi + 1)
    u = log_coeffs(a11, w).to_array(w.lo, w.hi)
    alpha = cmath.exp(u[-w.lo])
    u[-w.lo] = 0.0
    den = np.where(u != 0, 1.0 - theta ** modes, 1.0)
    small = np.abs(den) <= eps
    if small.any():
        raise SmallDivisor(
            f"1 - Theta^{modes[small.argmax()]} below tolerance")
    g = LaurentGerm.from_array(w.lo, u / den, a11.radius)
    e = _exp_scalar(g, w).to_array(w.lo, w.hi)
    e_inv = _exp_scalar(-g, w).to_array(w.lo, w.hi)
    powers = theta ** modes

    def flatten(left, entry, right):
        prod = np.convolve(np.convolve(left * powers, entry), right)
        return _on_window(prod, 2 * w.lo + alo, w)

    b11 = flatten(e, av[0, 0], e_inv)
    b21 = flatten(e_inv, av[1, 0], e_inv)
    b22 = flatten(e_inv, av[1, 1], e)
    den = np.where(b21 != 0, alpha * powers - 1.0 / alpha, 1.0)
    if (np.abs(den) <= eps).any():
        raise NonGeneric("alpha is a power of Gamma^2 within tolerance")
    c = -b21 / den
    red = Sl2Reduction(alpha, lam, g, LaurentGerm.from_array(
        w.lo, c, a11.radius), theta)
    zero = np.zeros_like(c)
    one = zero.copy()
    one[-w.lo] = 1.0
    final = twisted_conjugate(
        _loop_matrix(np.array([[one, zero], [c, one]]), w.lo, a11.radius),
        _loop_matrix(np.array([[b11, zero], [b21, b22]]), w.lo, a11.radius),
        theta, w)
    defect = _mat_array(final, w)[1] - np.array(
        [[alpha * one, zero], [zero, one / alpha]])
    defect[1, 0] += _on_window(np.convolve(c, b22 - one / alpha),
                               2 * w.lo, w)
    resid = float(np.max(np.abs(defect)))
    if resid > scale:
        raise NonGeneric(f"reduction residual {resid} above tolerance")
    return red


# ---------------------------------------------------------------------------
# q-difference solver


def _toeplitz(h, w):
    """Window-by-window Toeplitz matrix ``T[i, j] = h_{m_i - m_j}`` of a
    germ over the modes ``m = w.lo..w.hi``."""
    size = w.hi - w.lo + 1
    idx = np.arange(size)
    return h.to_array(1 - size, size - 1)[idx[:, None] - idx[None, :]
                                          + size - 1]


def _gamma2(theta, gamma2):
    return cmath.sqrt(theta) if gamma2 is None else complex(gamma2)


def _defect_on(A, theta, gamma2, w, glo, size):
    """The q-difference defect as a function of the coefficient array of
    ``g`` at exponents ``glo..glo + size - 1``, returning its window
    array on ``w``: one ``np.convolve`` expression per term, the inner
    product ``A21 g(Theta z)`` unclipped."""
    alo, av = _mat_array(A)
    modes = np.arange(glo, glo + size)
    p_theta, p_gamma2 = theta ** modes, gamma2 ** modes
    a12 = _on_window(av[0, 1], alo, w)

    def defect(g):
        quad = np.convolve(np.convolve(av[1, 0], g * p_theta), g)
        lin = np.convolve(av[1, 1], g) - np.convolve(av[0, 0], g * p_gamma2)
        return (a12 + _on_window(lin, alo + glo, w)
                - _on_window(quad, alo + 2 * glo, w))
    return defect


def qdiff_defect(A, g, theta, w=None, gamma2=None):
    """Defect ``-A21 g(Theta z) g(z) - A11 g(Gamma^2 z) + A22 g(z) + A12``
    of ``g``, clipped to ``w`` (the automatic window of ``A`` when
    omitted); ``gamma2`` defaults to the principal square root of
    Theta."""
    theta = complex(theta)
    gamma2 = _gamma2(theta, gamma2)
    if w is None:
        w = _auto_window(A[0, 0], A[0, 1], A[1, 0], A[1, 1])
    lo, hi = (g.n_min, g.n_max) if g.coeffs else (0, 0)
    r = _defect_on(A, theta, gamma2, w, lo, hi - lo + 1)(g.to_array(lo, hi))
    return LaurentGerm.from_array(w.lo, r, min(
        A.radius, g.radius / max(1.0, abs(theta), abs(gamma2))))


def qdiff_jacobian(A, g, theta, w, gamma2=None, linear=None):
    """Newton matrix of :func:`qdiff_defect` at ``g`` on the window modes:
    ``-T(A21) (T(g) D_Theta + T(g(Theta z))) + linear`` with the linear
    part ``linear = -T(A11) D_{Gamma^2} + T(A22)`` (built here when not
    passed in); see the module docstring."""
    theta = complex(theta)
    modes = np.arange(w.lo, w.hi + 1)
    if linear is None:
        gamma2 = _gamma2(theta, gamma2)
        linear = (-_toeplitz(A[0, 0], w) * gamma2 ** modes
                  + _toeplitz(A[1, 1], w))
    if g.is_zero():
        return linear
    inner = (_toeplitz(g, w) * theta ** modes
             + _toeplitz(rescale(g, theta), w))
    return linear - _toeplitz(A[1, 0], w) @ inner


def qdiff_solve(A, theta, max_iter=50, tol=1e-8, w=None, gamma2=None,
                eps=EPS_DIVISOR):
    """Solve -A21 g(Theta z) g(z) - A11 g(Gamma^2 z) + A22 g(z) + A12 = 0.

    ``gamma2`` is Gamma^2 (the principal square root of Theta when
    omitted).  Newton iteration on the windowed coefficients of ``g``,
    starting from ``g = 0``: each step solves the Jacobian

        J(g) = -T(A21) (T(g) D_Theta + T(g(Theta z))) - T(A11) D_{Gamma^2}
               + T(A22)

    (``T(h)`` the window Toeplitz matrix of ``h``, ``D_c = diag(c^m)``
    over the window modes ``m``; the linear part, J(0), is built once),
    then halves the step until the largest residual coefficient of
    :func:`qdiff_defect` decreases (backtracking line search), repeating
    until it drops below ``tol``.  Raises :class:`SmallDivisor` when the
    linear part is near-singular and :class:`ConvergenceError` when no
    step decreases the residual or ``max_iter`` steps do not reach
    ``tol``.
    """
    theta = _check_theta(theta)
    gamma2 = _gamma2(theta, gamma2)
    if w is None:
        w = _auto_window(A[0, 0], A[0, 1], A[1, 0], A[1, 1])

    base = qdiff_jacobian(A, LaurentGerm.zero(), theta, w, gamma2)
    if np.linalg.cond(base) > 1.0 / max(eps, 1e-14):
        raise SmallDivisor("linear part of the q-difference "
                           "equation is near-singular")

    # Newton with backtracking on the window array of g: a plain
    # fixed-point sweep amplifies window-edge noise by Theta^n and
    # diverges for generic data.
    defect = _defect_on(A, theta, gamma2, w, w.lo, w.hi - w.lo + 1)
    radius = min(1.0, A[0, 0].radius)
    g = np.zeros(w.hi - w.lo + 1, dtype=complex)
    r = defect(g)
    res = np.max(np.abs(r))
    for _ in range(max_iter):
        if res <= tol:
            break
        mat = qdiff_jacobian(A, LaurentGerm.from_array(w.lo, g, radius),
                             theta, w, linear=base)
        try:
            delta = np.linalg.solve(mat, -r)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        step = 1.0
        for _ in range(24):
            g_try = g + step * delta
            r_try = defect(g_try)
            res_try = np.max(np.abs(r_try))
            if res_try < res or res_try <= tol:
                g, r, res = g_try, r_try, res_try
                break
            step *= 0.5
        else:
            break
    if res <= tol:
        return LaurentGerm.from_array(w.lo, g, radius)
    raise ConvergenceError(
        f"no solution with residual <= {tol} in {max_iter} iterations "
        f"(last residual {res:.3e})")
