"""The centrally and conformally extended GL(1) loop group and algebra.

Group elements are triples ``(z**n * const * exp(f), lam, gamma)``; the
product twists each loop exponent by the other factor's ``gamma`` and
feeds a residue pairing of the two exponents into the central ``lam``
coordinate.  Over the exact domain the loop constant and the central
coordinate are kept formal (``const`` a monomial unit, ``lam`` an
:class:`ExpScalar`), so the group axioms hold exactly over rationals.

The infinitesimal layer provides the extended Lie bracket, the standard
invariant pairing, the Manin-type splitting of the double, and a numeric
evaluator for the induced Poisson bracket on the twisted-diagonal
subgroup.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .errors import DomainMismatch, MembershipError
from .germs import (COMPLEX, EXACT, LaurentGerm, derivative, json_field,
                    product_coeff, rescale, truncate_ge, truncate_le)
from .scalars import ExpScalar, QGamma, coerce, scalar_inv


def _coerce_lambda(lam, domain):
    if domain == COMPLEX:
        lam = complex(lam)
        if lam == 0:
            raise DomainMismatch("lambda must be nonzero")
        return lam
    if isinstance(lam, ExpScalar):
        return lam
    return ExpScalar(coerce(lam, EXACT))


def _coerce_unit(value, domain, name):
    if domain == COMPLEX:
        value = complex(value)
        if value == 0:
            raise DomainMismatch(f"{name} must be nonzero")
        return value
    value = coerce(value, EXACT)
    if value.is_zero() or not value.is_monomial():
        raise DomainMismatch(f"exact {name} must be an invertible monomial")
    return value


def _exp_factor(res, domain):
    if domain == COMPLEX:
        return cmath.exp(res)
    return ExpScalar.exp(res)


class ExtendedElement:
    """Element ``(z**n * const * exp(f), lam, gamma)``.

    ``const`` is an internal multiplicative unit on the loop part; the
    group law produces pure gamma-power constants which have no rational
    logarithm, so they cannot be folded into ``f`` over the exact domain.
    Over the complex domain ``const`` may always be folded into the
    constant term of ``f`` (see :meth:`fold_const`).
    """

    __slots__ = ("n", "f", "lam", "gamma", "const")

    def __init__(self, n, f, lam, gamma, const=1):
        self.n = int(n)
        self.f = f
        self.lam = _coerce_lambda(lam, f.domain)
        self.gamma = _coerce_unit(gamma, f.domain, "gamma")
        self.const = _coerce_unit(const, f.domain, "const")

    @property
    def domain(self):
        return self.f.domain

    @classmethod
    def identity(cls, domain=COMPLEX):
        return cls(0, LaurentGerm.zero(domain), 1, 1)

    def fold_const(self):
        """Fold ``const`` into the constant term of ``f`` (complex only)."""
        if self.domain != COMPLEX or self.const == 1:
            return self
        extra = LaurentGerm.monomial(0, cmath.log(self.const))
        return ExtendedElement(self.n, self.f + extra, self.lam,
                               self.gamma, 1)

    def __eq__(self, other):
        if not isinstance(other, ExtendedElement):
            return NotImplemented
        return (self.n == other.n and self.f == other.f
                and self.lam == other.lam and self.gamma == other.gamma
                and self.const == other.const)

    def allclose(self, other, tol=1e-9):
        if self.domain != COMPLEX or other.domain != COMPLEX:
            return self == other
        a, b = self.fold_const(), other.fold_const()
        return (a.n == b.n and a.f.allclose(b.f, tol)
                and abs(a.lam - b.lam) <= tol
                and abs(a.gamma - b.gamma) <= tol)

    def __repr__(self):
        return (f"ExtendedElement(n={self.n}, f={self.f!r}, "
                f"lam={self.lam!r}, gamma={self.gamma!r}, "
                f"const={self.const!r})")

    # -- serialization -----------------------------------------------------
    def to_json(self):
        if self.domain == COMPLEX:
            e = self.fold_const()
            return {"n": e.n, "f": e.f.to_json(),
                    "lambda": [e.lam.real, e.lam.imag],
                    "gamma": [e.gamma.real, e.gamma.imag]}
        obj = {"n": self.n, "f": self.f.to_json(),
               "lambda": {"unit": self.lam.unit.format(),
                          "log": self.lam.log.format()},
               "gamma": self.gamma.format()}
        if not self.const.is_one():
            obj["const"] = self.const.format()
        return obj

    @classmethod
    def from_json(cls, obj):
        f = LaurentGerm.from_json(json_field(obj, "f", "element"))
        n = int(obj.get("n", 0))
        lam = obj.get("lambda", 1)
        gamma = obj.get("gamma", 1)
        if f.domain == COMPLEX:
            if isinstance(lam, (list, tuple)):
                lam = complex(lam[0], lam[1])
            if isinstance(gamma, (list, tuple)):
                gamma = complex(gamma[0], gamma[1])
            return cls(n, f, lam, gamma)
        if isinstance(lam, dict):
            unit = json_field(lam, "unit", "lambda")
            lam = ExpScalar(QGamma.parse(unit),
                            QGamma.parse(lam.get("log", "0")))
        else:
            lam = ExpScalar(QGamma.parse(str(lam)))
        gamma = QGamma.parse(str(gamma))
        const = QGamma.parse(str(obj.get("const", "1")))
        return cls(n, f, lam, gamma, const)


def cocycle_residue(fa, gb):
    """Residue pairing ``(d/dz fa * gb)_{-1}`` without truncation."""
    return product_coeff(derivative(fa), gb, -1)


def hat_mul(A, B, w=None):
    """Group product of two extended elements.

    The loop exponents are twisted (``fa(z/gamma_B) + fb(z*gamma_A)``),
    the winding indices add, the gammas multiply, and the central
    coordinate picks up ``exp`` of the residue pairing of the twisted
    exponents.  ``w`` optionally truncates the resulting exponent.
    """
    if A.domain != B.domain:
        raise DomainMismatch("mixed domains in hat_mul")
    fa = rescale(A.f, scalar_inv(B.gamma, A.domain))
    fb = rescale(B.f, A.gamma)
    f = fa + fb
    if w is not None:
        from .germs import truncate_window
        f = truncate_window(f, w)
    res = cocycle_residue(fa, fb)
    lam = A.lam * B.lam * _exp_factor(res, A.domain)
    const = (A.const * B.const * B.gamma ** (-A.n) * A.gamma ** B.n)
    return ExtendedElement(A.n + B.n, f, lam, A.gamma * B.gamma, const)


def hat_inv(A):
    """Group inverse ``(z**-n exp(-f), lam**-1, gamma**-1)``."""
    lam = scalar_inv(A.lam, A.domain) if A.domain == COMPLEX else A.lam.inv()
    return ExtendedElement(-A.n, -A.f, lam,
                           scalar_inv(A.gamma, A.domain),
                           scalar_inv(A.const, A.domain))


def twisted_commutator(A, B, w=None, check=True, tol=1e-9):
    """Central element ``x`` with ``A B = x * B~ * A~``.

    ``B~`` and ``A~`` are the gamma-rescaled partners of ``B`` and ``A``;
    the returned ``x`` has trivial loop and gamma parts and central
    coordinate ``exp(2 (f' g(z * gammaA * gammaB))_{-1})``.
    """
    if A.domain != B.domain:
        raise DomainMismatch("mixed domains in twisted_commutator")
    dom = A.domain
    res = product_coeff(derivative(A.f),
                        rescale(B.f, A.gamma * B.gamma), -1)
    two_res = res + res
    x = ExtendedElement(0, LaurentGerm.zero(dom),
                        _exp_factor(two_res, dom), 1)
    if check:
        b_t = ExtendedElement(B.n, rescale(B.f, A.gamma * A.gamma),
                              B.lam, B.gamma,
                              B.const * A.gamma ** (2 * B.n))
        a_t = ExtendedElement(A.n, rescale(A.f, scalar_inv(
            B.gamma * B.gamma, dom)), A.lam, A.gamma,
            A.const * B.gamma ** (-2 * A.n))
        lhs = hat_mul(A, B, w)
        rhs = hat_mul(hat_mul(x, b_t, w), a_t, w)
        good = lhs == rhs if dom == EXACT else lhs.allclose(rhs, tol)
        if not good:
            raise MembershipError("twisted commutation relation failed")
    return x


# ---------------------------------------------------------------------------
# Lie algebra layer


class HatAlgebraElement:
    """Element ``f + c_coeff * c + d_coeff * d`` of the extended algebra."""

    __slots__ = ("f", "c", "d")

    def __init__(self, f, c=0, d=0):
        self.f = f
        self.c = coerce(c, f.domain)
        self.d = coerce(d, f.domain)

    @property
    def domain(self):
        return self.f.domain

    def __add__(self, other):
        return HatAlgebraElement(self.f + other.f, self.c + other.c,
                                 self.d + other.d)

    def __neg__(self):
        return HatAlgebraElement(-self.f, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = coerce(s, self.domain)
        return HatAlgebraElement(self.f.scale(s), s * self.c, s * self.d)

    def __eq__(self, other):
        if not isinstance(other, HatAlgebraElement):
            return NotImplemented
        return self.f == other.f and self.c == other.c and self.d == other.d

    def allclose(self, other, tol=1e-9):
        return (self.f.allclose(other.f, tol)
                and abs(self.c - other.c) <= tol
                and abs(self.d - other.d) <= tol)

    def __repr__(self):
        return f"HatAlgebraElement({self.f!r}, c={self.c!r}, d={self.d!r})"

    @classmethod
    def zero(cls, domain=COMPLEX):
        return cls(LaurentGerm.zero(domain))


def _zdz(f):
    """The derivation z * d/dz applied to a germ."""
    return LaurentGerm.from_dict({n: n * c for n, c in f.items()},
                                 f.domain, f.radius)


def lie_bracket(a, b, w=None):
    """Extended bracket: Res(g df) c  - d_b z f' + d_a z g'."""
    germ = _zdz(b.f).scale(a.d) - _zdz(a.f).scale(b.d)
    if w is not None:
        from .germs import truncate_window
        germ = truncate_window(germ, w)
    c = product_coeff(b.f, derivative(a.f), -1)
    return HatAlgebraElement(germ, c, 0)


def bilinear_form(a, b):
    """Invariant symmetric pairing: loop part paired by
    ``sum_n f_n g_{-n}`` plus the c/d cross terms."""
    total = a.f._zero_scalar()
    for n, cf in a.f.items():
        total = total + cf * b.f.coeff_at(-n)
    return total + a.c * b.d + a.d * b.c


class DoubleElement:
    """Element of the double: a pair of extended algebra elements."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __add__(self, other):
        return DoubleElement(self.left + other.left, self.right + other.right)

    def __sub__(self, other):
        return DoubleElement(self.left - other.left, self.right - other.right)

    def scale(self, s):
        return DoubleElement(self.left.scale(s), self.right.scale(s))

    def __eq__(self, other):
        if not isinstance(other, DoubleElement):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __repr__(self):
        return f"DoubleElement({self.left!r}, {self.right!r})"


def double_form(x, y):
    """Split pairing on the double: (left, left) - (right, right)."""
    return bilinear_form(x.left, y.left) - bilinear_form(x.right, y.right)


def _half(domain):
    return 0.5 if domain == COMPLEX else Fraction(1, 2)


def manin_split(x):
    """Split a double element into its twisted-diagonal and diagonal parts.

    Returns ``(h_part, k_part)`` with ``x = h_part + k_part``,
    ``h_part`` in the twisted-diagonal Lagrangian (plus exponents left,
    minus exponents right, opposite central/scaling coefficients,
    opposite boundary constants) and ``k_part`` diagonal.
    """
    a, b = x.left, x.right
    dom = a.domain
    half = _half(dom)
    a_plus = truncate_ge(a.f, 1)
    a_minus = truncate_le(a.f, -1)
    b_plus = truncate_ge(b.f, 1)
    b_minus = truncate_le(b.f, -1)
    a0 = a.f.coeff_at(0)
    b0 = b.f.coeff_at(0)
    mid = LaurentGerm.monomial(0, (a0 + b0) * half, dom) \
        if not _is_zero(a0 + b0) else LaurentGerm.zero(dom)
    c_germ = a_minus + b_plus + mid
    c_elt = HatAlgebraElement(c_germ, (a.c + b.c) * half,
                              (a.d + b.d) * half)
    diff = LaurentGerm.monomial(0, (a0 - b0) * half, dom) \
        if not _is_zero(a0 - b0) else LaurentGerm.zero(dom)
    d_elt = HatAlgebraElement(a_plus - b_plus + diff,
                              (a.c - b.c) * half, (a.d - b.d) * half)
    e_elt = HatAlgebraElement(b_minus - a_minus - diff,
                              (b.c - a.c) * half, (b.d - a.d) * half)
    return DoubleElement(d_elt, e_elt), DoubleElement(c_elt, c_elt)


def _is_zero(s):
    from .scalars import scalar_is_zero
    return scalar_is_zero(s)


def in_twisted_diagonal(x, tol=0.0):
    """Membership in the Lagrangian half: plus exponents on the left,
    minus on the right, opposite c/d coefficients and opposite boundary
    constants."""
    a, b = x.left, x.right

    def near(u, v):
        if a.domain == COMPLEX and tol:
            return abs(u - v) <= tol
        return u == v

    zero = a.f._zero_scalar()
    if any(n < 0 for n in a.f.support()):
        return False
    if any(n > 0 for n in b.f.support()):
        return False
    return (near(a.c + b.c, zero) and near(a.d + b.d, zero)
            and near(a.f.coeff_at(0) + b.f.coeff_at(0), zero))


def in_diagonal(x, tol=0.0):
    if tol and x.left.domain == COMPLEX:
        return x.left.allclose(x.right, tol)
    return x.left == x.right


# ---------------------------------------------------------------------------
# Poisson bracket evaluation on the twisted-diagonal subgroup


def h_pair_is_member(left, right, tol=1e-9):
    """Check the defining relations of a point of the subgroup H:
    zero winding, reciprocal lambda and gamma, one-sided loop exponents
    and reciprocal boundary constants."""
    if left.domain != COMPLEX:
        raise DomainMismatch("H membership check is numeric")
    lf = left.fold_const()
    rf = right.fold_const()
    if lf.n != 0 or rf.n != 0:
        return False
    if abs(lf.lam * rf.lam - 1) > tol:
        return False
    if abs(lf.gamma * rf.gamma - 1) > tol:
        return False
    if any(n < 0 for n in lf.f.support()):
        return False
    if any(n > 0 for n in rf.f.support()):
        return False
    boundary = cmath.exp(lf.f.coeff_at(0)) * cmath.exp(rf.f.coeff_at(0))
    return abs(boundary - 1) <= tol


def ad_extended(slot_f, slot_gamma, x):
    """Adjoint action of ``(exp(slot_f), *, slot_gamma)`` on the extended
    algebra, differentiated from the group law.

    Germ part: ``g(z gamma^2) - 2 mu (z f')(z gamma)``; the central
    coefficient picks up the residue corrections of the group cocycle.
    """
    g, lam_c, mu = x.f, x.c, x.d
    g2 = rescale(g, slot_gamma * slot_gamma)
    s = _zdz(slot_f)
    germ = g2 - rescale(s, slot_gamma).scale(mu + mu)
    t1 = product_coeff(derivative(slot_f), rescale(g, slot_gamma), -1)
    t2 = product_coeff(derivative(g2), rescale(slot_f, slot_gamma), -1)
    phi_p = derivative(rescale(slot_f, slot_gamma))
    r = product_coeff(phi_p, phi_p, -2)
    c = lam_c + t1 - t2 - (mu + mu) * r
    return HatAlgebraElement(germ, c, mu)


def _ad_pair(left_f, left_gamma, right_f, right_gamma, x):
    return DoubleElement(ad_extended(left_f, left_gamma, x.left),
                      ad_extended(right_f, right_gamma, x.right))


_H_COORDS = ("h", "L", "G", "k")


def _cotangent_image(key, coeff, gamma, lam, kval, coords):
    """Left-translated image of a basic covector at an H-point,
    represented in the diagonal Lagrangian via the invariant pairing."""
    kind = key[0] if isinstance(key, tuple) else key
    zero = LaurentGerm.zero()
    if kind == "h":
        m = key[1]
        if m == 0:
            raise DomainMismatch("h index must be nonzero")
        sign = 1.0 if m > 0 else -1.0
        germ = LaurentGerm.monomial(-m, sign * gamma ** abs(m))
        am = coords.get(m, 0j)
        cc = -abs(m) * am * 0.5
        elt = HatAlgebraElement(germ, cc, 0)
    elif kind == "G":
        elt = HatAlgebraElement(zero, 0.5 * gamma, 0)
    elif kind == "L":
        elt = HatAlgebraElement(zero, 0, 0.5 * lam)
    elif kind == "k":
        elt = HatAlgebraElement(LaurentGerm.monomial(0, 0.5 * kval), 0, 0)
    else:
        raise DomainMismatch(f"unknown coordinate {key!r}")
    return DoubleElement(elt, elt).scale(coeff)


def poisson_at(left, right, df1, df2, tol=1e-9):
    """Numeric Poisson bracket of two differentials at an H-point.

    ``df1``/``df2`` map coordinate keys -- ``("h", m)``, ``("L", 0)``,
    ``("G", 0)``, ``("k", 0)`` -- to complex coefficients.  The bracket
    conjugates the projection onto the Lagrangian half by the adjoint
    action of the point and pairs the result through the split form.
    """
    if not h_pair_is_member(left, right, tol=max(tol, 1e-9)):
        raise MembershipError("point is not in the subgroup H")
    lf = left.fold_const()
    rf = right.fold_const()
    gamma = lf.gamma
    lam = lf.lam
    kval = cmath.exp(lf.f.coeff_at(0))
    coords = {}
    for n, c in lf.f.items():
        if n > 0:
            coords[n] = c
    for n, c in rf.f.items():
        if n < 0:
            coords[n] = c

    def image(df):
        acc = None
        for key, coeff in df.items():
            term = _cotangent_image(key, complex(coeff), gamma, lam,
                                    kval, coords)
            acc = term if acc is None else acc + term
        if acc is None:
            zero = HatAlgebraElement.zero()
            acc = DoubleElement(zero, zero)
        return acc

    x = image(df1)
    y = image(df2)
    inv_gamma = 1.0 / gamma
    x = _ad_pair(lf.f, gamma, rf.f, inv_gamma, x)
    h_part, _ = manin_split(DoubleElement(x.left, x.right))
    x = _ad_pair(-lf.f, inv_gamma, -rf.f, gamma, h_part)
    return double_form(x, y)
