"""Truncated two-sided Laurent series ("germs") and their arithmetic.

A germ is a finite coefficient slice ``sum_{n} c_n z^n`` held in canonical
trimmed form, tagged with a scalar domain (``"complex"`` or ``"exact"``)
and an informational radius.  All window-sensitive operations take an
explicit :class:`TruncationWindow`.

The hot kernels work on coefficient arrays.  A complex product is one
``np.convolve`` of the two coefficient tuples, sliced to the window;
exact (Q[Gamma^+-1]) products keep a sparse double loop.  ``germ_exp`` and
``germ_log`` run the Newton recurrences ``n e_n = sum_k k u_k e_{n-k}``
and ``n l_n = n u_n - sum_{k<n} k l_k u_{n-k}`` once, in O(order^2)
(Brent & Kung, J. ACM 1978): one ``np.dot`` per coefficient over the
complex domain, the same loop over ``QGamma`` over the exact one.
Complex unary operations (``rescale``, ``scale``, negation, ``split_pm``
and the ``truncate_*`` clips) are array operations on the coefficients,
rebuilt through ``LaurentGerm.from_array``; clips slice the coefficient
tuple in both domains.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainMismatch, OneSidedError, ParseError
from .scalars import COMPLEX, EXACT, QGamma, coerce, scalar_is_zero


class TruncationWindow(NamedTuple):
    """Inclusive exponent window ``lo <= n <= hi`` with ``lo <= 0 <= hi``."""

    lo: int
    hi: int

    def validate(self):
        if not (self.lo <= 0 <= self.hi):
            raise ValueError(f"window must straddle 0, got {self!r}")
        return self

    def contains(self, n):
        return self.lo <= n <= self.hi


def window(lo, hi):
    return TruncationWindow(int(lo), int(hi)).validate()


class LaurentGerm:
    """Canonical truncated Laurent series.

    ``coeffs[k]`` is the coefficient of ``z**(n_min + k)``; leading and
    trailing exact zeros are trimmed, and the zero germ has empty coeffs.
    """

    __slots__ = ("n_min", "coeffs", "radius", "domain")

    def __init__(self, n_min, coeffs, domain=COMPLEX, radius=1.0):
        coeffs = [coerce(c, domain) for c in coeffs]
        lo = 0
        while lo < len(coeffs) and scalar_is_zero(coeffs[lo]):
            lo += 1
        hi = len(coeffs)
        while hi > lo and scalar_is_zero(coeffs[hi - 1]):
            hi -= 1
        object.__setattr__(self, "n_min", int(n_min) + lo if hi > lo else 0)
        object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, domain=COMPLEX, radius=1.0):
        return cls(0, (), domain, radius)

    @classmethod
    def one(cls, domain=COMPLEX, radius=1.0):
        return cls.monomial(0, 1, domain, radius)

    @classmethod
    def monomial(cls, n, c=1, domain=COMPLEX, radius=1.0):
        return cls(n, (c,), domain, radius)

    @classmethod
    def from_array(cls, n_min, values, radius=1.0):
        """Complex germ whose coefficient of ``z**(n_min + k)`` is
        ``values[k]``; trims zero ends without a per-coefficient coerce."""
        values = np.asarray(values, dtype=complex)
        nz = values.nonzero()[0]
        germ = object.__new__(cls)
        if nz.size:
            lo, hi = int(nz[0]), int(nz[-1]) + 1
            object.__setattr__(germ, "n_min", int(n_min) + lo)
            object.__setattr__(germ, "coeffs", tuple(values[lo:hi].tolist()))
        else:
            object.__setattr__(germ, "n_min", 0)
            object.__setattr__(germ, "coeffs", ())
        object.__setattr__(germ, "radius", float(radius))
        object.__setattr__(germ, "domain", COMPLEX)
        return germ

    @classmethod
    def from_dict(cls, d, domain=COMPLEX, radius=1.0):
        if not d:
            return cls.zero(domain, radius)
        lo = min(d)
        hi = max(d)
        row = [d.get(n, 0) for n in range(lo, hi + 1)]
        return cls(lo, row, domain, radius)

    # -- queries ----------------------------------------------------------
    @property
    def n_max(self):
        return self.n_min + len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff_at(self, n):
        k = n - self.n_min
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero_scalar()

    def to_array(self, lo, hi):
        """Complex coefficients at exponents ``lo..hi`` as an ndarray,
        zero outside the support."""
        out = np.zeros(max(hi - lo + 1, 0), dtype=complex)
        a, b = max(self.n_min, lo), min(self.n_max, hi)
        if a <= b:
            out[a - lo:b - lo + 1] = self.coeffs[a - self.n_min:
                                                 b - self.n_min + 1]
        return out

    def _zero_scalar(self):
        return 0j if self.domain == COMPLEX else QGamma.zero()

    def items(self):
        for k, c in enumerate(self.coeffs):
            if not scalar_is_zero(c):
                yield self.n_min + k, c

    def support(self):
        return [n for n, _ in self.items()]

    def __eq__(self, other):
        if not isinstance(other, LaurentGerm):
            return NotImplemented
        return (self.domain == other.domain and self.n_min == other.n_min
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.domain, self.n_min, self.coeffs))

    def __repr__(self):
        body = ", ".join(f"{n}: {c!r}" for n, c in self.items())
        return f"LaurentGerm({{{body}}}, domain={self.domain!r})"

    def allclose(self, other, tol=1e-9):
        """Coefficientwise comparison for complex-domain germs."""
        lo = min(self.n_min, other.n_min) if (self.coeffs or other.coeffs) \
            else 0
        hi = max(self.n_max, other.n_max) if (self.coeffs or other.coeffs) \
            else 0
        return all(abs(self.coeff_at(n) - other.coeff_at(n)) <= tol
                   for n in range(lo, hi + 1))

    def _check_domain(self, other):
        if self.domain != other.domain:
            raise DomainMismatch(
                f"mixed scalar domains {self.domain!r} / {other.domain!r}")

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        self._check_domain(other)
        radius = min(self.radius, other.radius)
        if self.domain == COMPLEX:
            terms = [g for g in (self, other) if g.coeffs]
            if not terms:
                return LaurentGerm.zero(COMPLEX, radius)
            lo = min(g.n_min for g in terms)
            hi = max(g.n_max for g in terms)
            return LaurentGerm.from_array(
                lo, self.to_array(lo, hi) + other.to_array(lo, hi), radius)
        out = dict(self.items())
        for n, c in other.items():
            out[n] = out.get(n, 0) + c
        return LaurentGerm.from_dict(out, self.domain, radius)

    def __neg__(self):
        if self.domain == COMPLEX:
            return LaurentGerm.from_array(
                self.n_min, -np.asarray(self.coeffs, dtype=complex),
                self.radius)
        return LaurentGerm(self.n_min, [-c for c in self.coeffs],
                           self.domain, self.radius)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = coerce(scalar, self.domain)
        if self.domain == COMPLEX:
            return LaurentGerm.from_array(
                self.n_min, scalar * np.asarray(self.coeffs, dtype=complex),
                self.radius)
        return LaurentGerm(self.n_min, [scalar * c for c in self.coeffs],
                           self.domain, self.radius)

    def mul(self, other, w=None):
        """Cauchy product, clipped to window ``w`` when given.

        Complex germs convolve their coefficient arrays; exact germs run
        a sparse double loop over their nonzero terms.
        """
        self._check_domain(other)
        radius = min(self.radius, other.radius)
        if self.domain == COMPLEX:
            if not (self.coeffs and other.coeffs):
                return LaurentGerm.zero(COMPLEX, radius)
            n_min = self.n_min + other.n_min
            lo, hi = n_min, self.n_max + other.n_max
            if w is not None:
                lo, hi = max(lo, w.lo), min(hi, w.hi)
                if lo > hi:
                    return LaurentGerm.zero(COMPLEX, radius)
            prod = np.convolve(self.coeffs, other.coeffs)
            return LaurentGerm.from_array(
                lo, prod[lo - n_min:hi - n_min + 1], radius)
        out = {}
        for n, c in self.items():
            for m, d in other.items():
                k = n + m
                if w is not None and not w.contains(k):
                    continue
                out[k] = out.get(k, 0) + c * d
        return LaurentGerm.from_dict(out, self.domain, radius)

    def evaluate(self, z):
        if self.domain != COMPLEX:
            raise DomainMismatch("evaluate needs the complex domain")
        return sum((c * z ** n for n, c in self.items()), 0j)

    # -- serialization ------------------------------------------------------
    def to_json(self):
        if self.domain == COMPLEX:
            return {"n_min": self.n_min,
                    "coeffs": [[c.real, c.imag] for c in self.coeffs],
                    "radius": self.radius}
        return {"n_min": self.n_min,
                "coeffs": [c.format() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        coeffs = json_field(obj, "coeffs", "germ")
        if not isinstance(coeffs, list):
            raise ParseError("germ field 'coeffs' must be a list")
        try:
            n_min = int(obj.get("n_min", 0))
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"germ field 'n_min' must be an integer, "
                             f"got {obj['n_min']!r}") from None
        try:
            radius = float(obj.get("radius", 1.0))
        except (TypeError, ValueError):
            radius = math.nan
        if not math.isfinite(radius):
            raise ParseError(f"germ field 'radius' must be a finite "
                             f"number, got {obj['radius']!r}")
        if all(isinstance(c, str) for c in coeffs) and coeffs:
            vals = [QGamma.parse(c) for c in coeffs]
            return cls(n_min, vals, EXACT, radius)
        vals = [json_complex(c, f"germ field 'coeffs[{k}]'")
                for k, c in enumerate(coeffs)]
        return cls(n_min, vals, COMPLEX, radius)


def json_complex(value, what):
    """A finite complex number from JSON ``[re, im]`` or a plain number,
    or a :class:`ParseError` that names ``what``."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 \
        else [value, 0.0]
    if not all(isinstance(x, (int, float)) for x in parts):
        raise ParseError(f"{what}: expected a number or [re, im], got "
                         f"{value!r}")
    z = complex(parts[0], parts[1])
    if not cmath.isfinite(z):
        raise ParseError(f"{what}: non-finite value {value!r}")
    return z


def json_field(obj, key, what):
    """``obj[key]`` of a parsed JSON object, or a :class:`ParseError`
    that names the missing field."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected a JSON object, got "
                         f"{type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{what}: missing field {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# module-level operations


def germ_add(f, g):
    return f + g


def germ_mul(f, g, w):
    return f.mul(g, w)


def split_pm(f):
    """Split into (plus part: exponents >= 0, minus part: exponents < 0)."""
    return truncate_ge(f, 0), truncate_lt(f, 0)


def rescale(f, gamma):
    """z -> gamma * z on the argument: coefficient n picks up gamma**n."""
    gamma = _rescale_factor(gamma, f.domain)
    if f.domain == COMPLEX:
        powers = gamma ** np.arange(f.n_min, f.n_min + len(f.coeffs))
        return LaurentGerm.from_array(
            f.n_min, powers * np.asarray(f.coeffs, dtype=complex),
            f.radius / abs(gamma))
    out = {n: (gamma ** n) * c for n, c in f.items()}
    return LaurentGerm.from_dict(out, f.domain, f.radius)


def _rescale_factor(gamma, domain):
    if domain == COMPLEX:
        g = complex(gamma)
        if g == 0:
            raise DomainMismatch("rescale factor must be nonzero")
        return g
    g = coerce(gamma, EXACT)
    if g.is_zero() or not g.is_monomial():
        raise DomainMismatch(
            "exact rescale factor must be an invertible monomial")
    return g


def derivative(f):
    out = {n - 1: n * c for n, c in f.items() if n != 0}
    return LaurentGerm.from_dict(out, f.domain, f.radius)


def residue(f):
    """Coefficient at z**-1."""
    return f.coeff_at(-1)


def coeff_at(f, n):
    return f.coeff_at(n)


def product_coeff(f, g, n):
    """Coefficient of z**n in f*g, computed without window truncation."""
    f._check_domain(g)
    total = f._zero_scalar()
    for k, c in f.items():
        d = g.coeff_at(n - k)
        total = total + c * d
    return total


def _clip(f, lo, hi):
    """The terms of ``f`` with exponents in ``lo..hi``: a slice of its
    coefficients."""
    lo, hi = max(lo, f.n_min), min(hi, f.n_max)
    if lo > hi:
        return LaurentGerm.zero(f.domain, f.radius)
    part = f.coeffs[lo - f.n_min:hi - f.n_min + 1]
    if f.domain == COMPLEX:
        return LaurentGerm.from_array(lo, part, f.radius)
    return LaurentGerm(lo, part, f.domain, f.radius)


def truncate_ge(f, n):
    return _clip(f, n, f.n_max)


def truncate_le(f, n):
    return _clip(f, f.n_min, n)


def truncate_gt(f, n):
    return truncate_ge(f, n + 1)


def truncate_lt(f, n):
    return truncate_le(f, n - 1)


def _one_sided_direction(f):
    """+1 for exponents >= 0, -1 for <= 0 (0 germ counts as +1)."""
    if f.is_zero():
        return 1
    if f.n_min >= 0:
        return 1
    if f.n_max <= 0:
        return -1
    raise OneSidedError(
        "operation needs a one-sided germ, got exponents "
        f"[{f.n_min}, {f.n_max}]")


def _series(f, direction, order):
    """Coefficients ``u_0..u_order`` of a one-sided germ as a power series
    in ``t = z**direction``, zero-padded: an ndarray over the complex
    domain, a list of ``QGamma`` over the exact one."""
    coeffs = f.coeffs if direction > 0 else f.coeffs[::-1]
    start = f.n_min if direction > 0 else -f.n_max
    if f.domain == COMPLEX:
        u = np.zeros(order + 1, dtype=complex)
        head = coeffs[:max(order + 1 - start, 0)]
        u[start:start + len(head)] = head
        return u
    zero = f._zero_scalar()
    return ([zero] * start + list(coeffs) + [zero] * (order + 1))[:order + 1]


def _band(u):
    """Index of the last nonzero entry of a coefficient sequence."""
    if isinstance(u, np.ndarray):
        nz = np.flatnonzero(u)
        return int(nz[-1]) if nz.size else 0
    return max((k for k, c in enumerate(u) if not scalar_is_zero(c)),
               default=0)


def _from_series(e, direction, domain, radius):
    """Germ with coefficient ``e[n]`` at ``z**(direction * n)``."""
    lo = 0 if direction > 0 else 1 - len(e)
    e = e if direction > 0 else e[::-1]
    if domain == COMPLEX:
        return LaurentGerm.from_array(lo, e, radius)
    return LaurentGerm(lo, e, domain, radius)


def germ_exp(f, w):
    """exp of a one-sided germ, truncated to ``w``.

    Over the exact domain the constant term must vanish (its exponential
    would leave the ring); over complex it is folded in numerically.
    Coefficients come from ``n e_n = sum_k k u_k e_{n-k}``.
    """
    direction = _one_sided_direction(f)
    c0 = f.coeff_at(0)
    if not scalar_is_zero(c0) and f.domain == EXACT:
        raise DomainMismatch("exact exp needs a vanishing constant term")
    order = w.hi if direction > 0 else -w.lo
    u = _series(f, direction, order)
    if f.domain == EXACT:
        return _from_series(bell_coeffs(u[1:_band(u) + 1], 1, order),
                            direction, EXACT, f.radius)
    band = _band(u)
    ku = (np.arange(band + 1) * u[:band + 1])[:0:-1]  # k u_k, k = band..1
    e = np.zeros(order + 1, dtype=complex)
    e[0] = cmath.exp(c0)
    for n in range(1, order + 1):
        m = min(n, band)
        e[n] = np.dot(ku[band - m:], e[n - m:n]) / n
    return _from_series(e, direction, COMPLEX, f.radius)


def germ_log(f, w):
    """log of a one-sided germ with invertible constant term.

    Over the exact domain the constant term must be exactly 1.
    Coefficients come from ``n l_n = n v_n - sum_{k<n} k l_k v_{n-k}``
    with ``v = f / f_0``.
    """
    direction = _one_sided_direction(f)
    c0 = f.coeff_at(0)
    if scalar_is_zero(c0):
        raise DomainMismatch("log needs a nonzero constant term")
    if f.domain == EXACT and not (isinstance(c0, QGamma) and c0.is_one()):
        raise DomainMismatch("exact log needs constant term 1")
    order = w.hi if direction > 0 else -w.lo
    v = _series(f, direction, order)
    if f.domain == EXACT:
        band = _band(v)
        kl = [QGamma.zero()] * (order + 1)  # k l_k
        for n in range(1, order + 1):
            acc = v[n] * n
            for j in range(1, min(n - 1, band) + 1):
                if not v[j].is_zero():
                    acc = acc - v[j] * kl[n - j]
            kl[n] = acc
        ell = [QGamma.zero()] + [c * Fraction(1, n)
                                 for n, c in enumerate(kl) if n]
        return _from_series(ell, direction, EXACT, f.radius)
    v = v / c0
    band = _band(v)
    vr = v[band:0:-1]  # v_k, k = band..1
    kl = np.zeros(order + 1, dtype=complex)
    for n in range(1, order + 1):
        m = min(n - 1, band)
        kl[n] = n * v[n] - np.dot(vr[band - m:], kl[n - m:n])
    ell = kl / np.maximum(np.arange(order + 1), 1)
    ell[0] = cmath.log(c0)
    return _from_series(ell, direction, COMPLEX, f.radius)


def truncate_window(f, w):
    return _clip(f, w.lo, w.hi)


def bell_coeffs(h, sign, order):
    """Coefficients ``e_0..e_order`` of ``exp(sign * sum_r h[r-1] z^r)``.

    Generic over any commutative coefficient ring that supports ``+``,
    ``*`` and multiplication by ``Fraction`` (complex numbers, rationals,
    polynomial rings, ...).  Uses the Newton-type recurrence
    ``n e_n = sign * sum_{r<=n} r h_r e_{n-r}``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if order < 0:
        raise ValueError("order must be >= 0")
    e = [1]
    for n in range(1, order + 1):
        acc = None
        for r in range(1, n + 1):
            if r > len(h):
                break
            prod = h[r - 1] * e[n - r]
            try:
                piece = prod * Fraction(sign * r, n)
            except TypeError:
                piece = prod * (sign * r / n)
            acc = piece if acc is None else acc + piece
        if acc is None:
            acc = 0 * e[0]
        e.append(acc)
    return e
