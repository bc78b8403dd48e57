"""q-deformed Heisenberg algebra and its semiclassical limit.

The algebra is generated by h_m (m != 0), an invertible Lambda and a
central invertible Gamma over exact rational functions of q, subject to

    [h_m, h_{-m}] = (1/m) [m]_q (Gamma^{2m} - Gamma^{-2m}) / (q - q^{-1}),
    h_m Lambda = q^{2m} Lambda h_m,

all other generator pairs commuting.  Elements are kept in PBW normal
order (h's sorted by index, so negative indices stand left of positive
ones, Lambda and Gamma powers rightmost).

Coefficients are pairs ``(p, k)`` meaning ``p(q) / (q - q^{-1})^k``, with
``p`` a Laurent polynomial over the rationals (:class:`QCoeff`).  Every
coefficient the algebra builds has this shape: the Frobenius factor
``ell (q - q^{-1})``, the Lambda-crossing monomials ``q^{-2 l w}`` and the
Weyl-pair constants ``(q^a - q^{-a}) / (a (q - q^{-1})^2)``.  The shape is
closed under ``+``, ``-`` and ``*`` by lifting both operands to the larger
``k``, so no gcd is ever taken.

``semiclassical_limit`` divides a commutator of Frobenius images by the
level-``ell`` deformation parameter ``ell (q^ell - q^-ell)``, absorbs one
``(q - q^{-1})`` into each surviving h coordinate (matching the
classical normalization of the Poisson module), and evaluates at a
primitive ell-th root of unity.  Clearing powers of q, a term reads
``q^e P(q) / (ell (q^2 - 1)^K (q^{2 ell} - 1))``.  As ell is odd, the
cyclotomic polynomial Phi_ell divides ``q^{2 ell} - 1`` exactly once and
does not divide ``q^2 - 1``.  So the term has a pole unless Phi_ell
divides P; otherwise both sides are divided by Phi_ell and the value is
computed in Q[q]/Phi_ell, inverting the denominator by the extended
Euclidean algorithm.  A pole or a non-constant value raises NotInCenter.
All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .errors import NotInCenter
from .poisson import PoissonPoly
from .scalars import LaurentPoly


class QLaurent(LaurentPoly):
    """Laurent polynomials in the formal symbol ``q`` over the rationals."""

    SYMBOL = "q"


_Q_MINUS_QINV = QLaurent({1: 1, -1: -1})


class QCoeff:
    """Exact coefficient ``p(q) / (q - q^{-1})^k``, ``p`` a :class:`QLaurent`.

    ``k`` is kept >= 0: a negative ``k`` is folded into ``p``.  The pair
    is not reduced (``p`` may be divisible by ``q - q^{-1}``), so ``==``
    compares numerators lifted to a common ``k``.
    """

    __slots__ = ("p", "k")

    def __init__(self, p, k=0):
        if not isinstance(p, QLaurent):
            p = QLaurent.from_rational(p)
        if k < 0:
            p = p * _Q_MINUS_QINV ** -k
            k = 0
        self.p = p
        self.k = k if p.coeffs else 0

    @classmethod
    def coerce(cls, value):
        """``value`` as a QCoeff, or None for an unsupported type."""
        if isinstance(value, QCoeff):
            return value
        if isinstance(value, (int, Fraction, QLaurent)):
            return cls(value)
        return None

    def _lift(self, k):
        """Numerator over ``(q - q^{-1})^k``, ``k >= self.k``."""
        if k == self.k:
            return self.p
        return self.p * _Q_MINUS_QINV ** (k - self.k)

    def is_zero(self):
        return not self.p.coeffs

    def __add__(self, other):
        o = QCoeff.coerce(other)
        if o is None:
            return NotImplemented
        k = max(self.k, o.k)
        return QCoeff(self._lift(k) + o._lift(k), k)

    __radd__ = __add__

    def __neg__(self):
        return QCoeff(-self.p, self.k)

    def __sub__(self, other):
        o = QCoeff.coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = QCoeff.coerce(other)
        if o is None:
            return NotImplemented
        return QCoeff(self.p * o.p, self.k + o.k)

    __rmul__ = __mul__

    def __pow__(self, n):
        return QCoeff(self.p ** n, self.k * n)

    def __eq__(self, other):
        o = QCoeff.coerce(other)
        if o is None:
            return NotImplemented
        k = max(self.k, o.k)
        return self._lift(k) == o._lift(k)

    def _sympy_(self):
        import sympy

        q = sympy.Symbol("q")
        num = sum((sympy.Rational(c.numerator, c.denominator) * q ** n
                   for n, c in self.p.coeffs.items()), sympy.Integer(0))
        return num / (q - 1 / q) ** self.k

    def format(self):
        if not self.k:
            return self.p.format()
        return f"({self.p.format()})/(q - q^-1)^{self.k}"

    def __repr__(self):
        return f"QCoeff({self.format()!r})"


def _check_ell(ell):
    ell = int(ell)
    if ell < 3 or ell % 2 == 0:
        raise ValueError("ell must be an odd integer >= 3")
    return ell


def _h_weight(hpart):
    return sum(idx * p for idx, p in hpart)


def _h_degree(hpart):
    return sum(p for _, p in hpart)


class QHeisenbergElement:
    """Normal-ordered sum of PBW monomials with :class:`QCoeff` coefficients.

    A monomial key is ``(hpart, lam, gamma)`` where ``hpart`` is a
    sorted tuple of (index, power) pairs.  Coefficients may be given as
    ints, Fractions, QLaurent or QCoeff values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, coeff in terms.items():
                c = QCoeff.coerce(coeff)
                if c is None:
                    raise TypeError(f"unsupported coefficient {coeff!r}")
                key = (tuple(sorted((i, p) for i, p in key[0] if p)),
                       int(key[1]), int(key[2]))
                data[key] = data[key] + c if key in data else c
        self.terms = {k: c for k, c in data.items() if not c.is_zero()}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({((), 0, 0): 1})

    @classmethod
    def h(cls, m, coeff=1):
        if m == 0:
            raise ValueError("h index must be nonzero")
        return cls({(((m, 1),), 0, 0): coeff})

    @classmethod
    def lam(cls, power=1):
        return cls({((), power, 0): 1})

    @classmethod
    def gamma(cls, power=1):
        return cls({((), 0, power): 1})

    def __add__(self, other):
        data = dict(self.terms)
        for k, c in other.terms.items():
            data[k] = data[k] + c if k in data else c
        return QHeisenbergElement(data)

    def __neg__(self):
        return QHeisenbergElement({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = QCoeff.coerce(s)
        if s is None:
            raise TypeError("unsupported scale factor")
        return QHeisenbergElement(
            {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c12 = c1 * c2
                for key, coeff in _mul_monomials(k1, k2):
                    term = c12 * coeff
                    out[key] = out[key] + term if key in out else term
        return QHeisenbergElement(out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QHeisenbergElement):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        bits = []
        for (hp, lam, gam), c in sorted(self.terms.items(),
                                        key=lambda kv: repr(kv[0])):
            sym = "".join(f"h[{i}]^{p}" if p > 1 else f"h[{i}]"
                          for i, p in hp)
            if lam:
                sym += f"L^{lam}"
            if gam:
                sym += f"G^{gam}"
            bits.append(f"({c.format()})*{sym or '1'}")
        return " + ".join(bits) or "0"


def _central_pair_coeff(a):
    """[h_a, h_{-a}] = coeff * (Gamma^{2a} - Gamma^{-2a}), a > 0."""
    return QCoeff(QLaurent({a: Fraction(1, a), -a: Fraction(-1, a)}), 2)


def _central_power(a, j):
    """C_a^j expanded into (coefficient, Gamma exponent) pairs."""
    c = _central_pair_coeff(a) ** j
    out = []
    for i in range(j + 1):
        out.append((c * comb(j, i) * (-1) ** (j - i), 2 * a * (2 * i - j)))
    return out


def _mul_monomials(k1, k2):
    """Product of two PBW monomials as a list of (key, coeff) pairs."""
    h1, l1, g1 = k1
    h2, l2, g2 = k2
    # Lambda^{l1} crossing the h's of the right factor.
    base = QCoeff(QLaurent.monomial(-2 * l1 * _h_weight(h2)))
    d1 = dict(h1)
    d2 = dict(h2)
    # Only (h_a, h_{-a}) with a > 0 on the left and -a on the right
    # fail to commute; expand each such pair by the Weyl-pair identity
    # h_a^p h_{-a}^r = sum_j j! C(p,j) C(r,j) C_a^j h_{-a}^{r-j} h_a^{p-j}.
    clash = sorted(a for a in d1 if a > 0 and -a in d2)
    expansions = []
    for a in clash:
        p, r = d1[a], d2[-a]
        options = []
        for j in range(min(p, r) + 1):
            w = factorial(j) * comb(p, j) * comb(r, j)
            for cc, gexp in _central_power(a, j):
                options.append((a, j, w * cc, gexp))
        expansions.append(options)
    out = []
    for combo in itertools.product(*expansions):
        coeff = base
        gshift = 0
        hout = {}
        for idx in set(d1) | set(d2):
            hout[idx] = d1.get(idx, 0) + d2.get(idx, 0)
        for a, j, cc, gexp in combo:
            coeff = coeff * cc
            gshift += gexp
            hout[a] -= j
            hout[-a] -= j
        key = (tuple(sorted((i, p) for i, p in hout.items() if p)),
               l1 + l2, g1 + g2 + gshift)
        out.append((key, coeff))
    return out


def commutator(x, y):
    return x * y - y * x


def fr_h(m, ell):
    """Frobenius image of the level-one h_m: ell (q - q^{-1}) h_{m ell}."""
    ell = _check_ell(ell)
    return QHeisenbergElement.h(m * ell, _Q_MINUS_QINV * ell)


def fr_lambda(ell):
    return QHeisenbergElement.lam(_check_ell(ell))


def fr_gamma(ell):
    return QHeisenbergElement.gamma(_check_ell(ell))


def q_heisenberg_commutator(m, mp, ell=3):
    """Commutator of the Frobenius images of h_m and h_{m'}."""
    if m == 0 or mp == 0:
        raise ValueError("h index must be nonzero")
    return commutator(fr_h(m, ell), fr_h(mp, ell))


# ---------------------------------------------------------------------------
# dense polynomials over the rationals: coefficient lists of ints and
# Fractions, lowest degree first, with no trailing zeros (the zero
# polynomial is []).  Division by a monic integer polynomial such as
# Phi_n keeps integer coefficients integer.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _psub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _pdivmod(a, b):
    """Quotient and remainder of ``a`` by a nonzero ``b``."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        c = rem[i + db] if lead == 1 else Fraction(rem[i + db]) / lead
        quo[i] = c
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return _trim(quo), _trim(rem[:db])


def _pinvmod(a, m):
    """Inverse of ``a`` modulo an irreducible ``m`` by the extended
    Euclidean algorithm; ``a`` is reduced modulo ``m`` and nonzero, so
    the last nonzero remainder ``r0`` is a constant."""
    r0, r1 = list(m), list(a)
    s0, s1 = [], [1]
    while r1:
        quo, rem = _pdivmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(s0, _pmul(quo, s1))
    return _pdivmod([Fraction(c) / r0[0] for c in s0], m)[1]


@lru_cache(maxsize=64)
def _cyclotomic(n):
    """Phi_n: ``q^n - 1`` divided by Phi_d for each proper divisor d of n."""
    phi = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = _pdivmod(phi, _cyclotomic(d))[0]
    return tuple(phi)


@lru_cache(maxsize=256)
def _inverse_denominator(ell, K):
    """Inverse modulo Phi_ell of ``ell (q^2 - 1)^K (q^{2 ell} - 1) / Phi_ell``,
    the denominator of a term once Phi_ell is divided out."""
    phi = _cyclotomic(ell)
    den = _pdivmod([-ell] + [0] * (2 * ell - 1) + [ell], phi)[0]
    for _ in range(K):
        den = _pdivmod(_pmul(den, [-1, 0, 1]), phi)[1]
    return tuple(_pinvmod(_pdivmod(den, phi)[1], phi))


def _value_at_root(coeff, hdeg, ell):
    """Exact value of ``coeff / (ell (q^ell - q^{-ell}) (q - q^{-1})^hdeg)``
    at a primitive ell-th root of unity."""
    phi = _cyclotomic(ell)
    terms = coeff.p.coeffs
    lo = min(terms)
    # P = scale * q^-lo * p has integer coefficients
    scale = lcm(*(c.denominator for c in terms.values()))
    P = [0] * (max(terms) - lo + 1)
    for n, c in terms.items():
        P[n - lo] = c.numerator * (scale // c.denominator)
    K = coeff.k + hdeg
    quo, rem = _pdivmod(P, phi)
    if rem:
        raise NotInCenter("pole at the root of unity")
    # the term is q^(lo + K + ell) P / (scale ell (q^2 - 1)^K (q^(2 ell) - 1)),
    # and q^ell = 1 modulo Phi_ell
    num = _pdivmod([0] * ((lo + K) % ell) + quo, phi)[1]
    val = _pdivmod(_pmul(num, _inverse_denominator(ell, K)), phi)[1]
    if len(val) > 1:
        raise NotInCenter("value is not constant at the root of unity")
    return Fraction(val[0], scale) if val else Fraction(0)


def semiclassical_limit(x, ell):
    """Classical limit of a commutator at a primitive ell-th root.

    Divides by ``ell (q^ell - q^{-ell})`` and by one ``(q - q^{-1})``
    per h power (the classical h coordinate is the ``(q - q^{-1}) h``
    normalization), specializes q exactly, and maps h_m, Lambda, Gamma
    to the corresponding PoissonPoly symbols.
    """
    ell = _check_ell(ell)
    out = PoissonPoly.zero()
    for (hp, lam, gam), coeff in x.terms.items():
        value = _value_at_root(coeff, _h_degree(hp), ell)
        if value == 0:
            continue
        mono = []
        for idx, p in hp:
            mono.append((("h", idx), p))
        if lam:
            mono.append((("L", 0), lam))
        if gam:
            mono.append((("G", 0), gam))
        out = out + PoissonPoly({tuple(mono): value})
    return out
