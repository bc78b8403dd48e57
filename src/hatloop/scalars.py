"""Scalar rings used by the germ layer.

Two scalar domains are supported throughout the package:

* ``"complex"`` -- plain Python complex numbers, for analytic/numeric work;
* ``"exact"``   -- Laurent polynomials in a formal central symbol ``G``
  with rational coefficients, for symbolic/exact work.

The exact domain also needs multiplicative scalars of the shape
``u * exp(s)`` with ``u`` a unit and ``s`` rational-in-G (central
cocycle factors exponentiate residues); those are modelled by
:class:`ExpScalar`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainMismatch, ParseError

EXACT = "exact"
COMPLEX = "complex"


class LaurentPoly:
    """Sparse Laurent polynomial in one formal symbol over ``Fraction``.

    Instances are immutable; ``coeffs`` maps exponent -> nonzero Fraction.
    """

    SYMBOL = "G"

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for n, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(n)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rational(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: Fraction(coeff)})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: Fraction(1)})

    # -- queries -------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == {0: Fraction(1)}

    def is_monomial(self):
        return len(self.coeffs) == 1

    def as_rational(self):
        """Return self as a Fraction if it is G-free, else None."""
        if not self.coeffs:
            return Fraction(0)
        if list(self.coeffs) == [0]:
            return self.coeffs[0]
        return None

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return type(self).from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for n, c in o.coeffs.items():
            out[n] = out.get(n, Fraction(0)) + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for n, c in self.coeffs.items():
            for m, d in o.coeffs.items():
                k = n + m
                out[k] = out.get(k, Fraction(0)) + c * d
        return type(self)(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return type(self)({n: c / q for n, c in self.coeffs.items()})
        if isinstance(other, LaurentPoly):
            return self * other.inv()
        return NotImplemented

    def inv(self):
        if len(self.coeffs) != 1:
            raise DomainMismatch(
                "only monomials are invertible in the exact scalar ring")
        (n, c), = self.coeffs.items()
        return type(self)({-n: 1 / c})

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inv() ** (-k)
        out = type(self).one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((type(self).SYMBOL, tuple(sorted(self.coeffs.items()))))

    # -- evaluation / io -------------------------------------------------
    def evaluate(self, value):
        """Numeric value with the formal symbol set to ``value``."""
        return sum((complex(c) * value ** n for n, c in self.coeffs.items()),
                   0j)

    def __repr__(self):
        return f"{type(self).__name__}({self.format()!r})"

    def format(self):
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs, reverse=True):
            c = self.coeffs[n]
            if n == 0:
                parts.append(str(c))
            else:
                mono = self.SYMBOL if n == 1 else f"{self.SYMBOL}^{n}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    _TERM = re.compile(r"^([+-])?(\d+(?:/\d+)?)?"
                       r"(?:\*?([A-Za-z])(?:\^(-?\d+))?)?$")

    @classmethod
    def parse(cls, text):
        """Parse strings like ``"3/2*G^2 - G^-1 + 1"``."""
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty scalar")
        terms, i, n = [], 0, len(s)
        while i < n:
            j = i + 1
            while j < n and not (s[j] in "+-" and s[j - 1] != "^"):
                j += 1
            terms.append(s[i:j])
            i = j + 1 if j < n and s[j] == "+" else j
        out = {}
        for raw in terms:
            m = cls._TERM.match(raw)
            if not m or (m.group(2) is None and m.group(3) is None):
                raise ParseError(f"bad scalar term {raw!r}")
            sign, coeff_s, sym, exp_s = m.groups()
            coeff = Fraction(coeff_s) if coeff_s is not None else Fraction(1)
            if sign == "-":
                coeff = -coeff
            if sym is None:
                exp = 0
            else:
                if sym != cls.SYMBOL:
                    raise ParseError(f"unknown symbol {sym!r}")
                exp = int(exp_s) if exp_s is not None else 1
            out[exp] = out.get(exp, Fraction(0)) + coeff
        return cls(out)


class QGamma(LaurentPoly):
    """Laurent polynomials in the formal symbol ``G`` over the rationals."""

    SYMBOL = "G"


class ExpScalar:
    """Exact multiplicative scalar ``unit * exp(log)``.

    ``unit`` and ``log`` are :class:`QGamma` values; ``unit`` must be a
    unit of the ring (a monomial).  The exponential factor is kept formal
    so products and inverses stay exact.
    """

    __slots__ = ("unit", "log")

    def __init__(self, unit, log=None):
        if isinstance(unit, (int, Fraction)):
            unit = QGamma.from_rational(unit)
        if log is None:
            log = QGamma.zero()
        elif isinstance(log, (int, Fraction)):
            log = QGamma.from_rational(log)
        if unit.is_zero():
            raise DomainMismatch("ExpScalar unit must be nonzero")
        self_unit_ok = unit.is_monomial()
        if not self_unit_ok:
            raise DomainMismatch("ExpScalar unit must be a monomial")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "log", log)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    @classmethod
    def one(cls):
        return cls(QGamma.one())

    @classmethod
    def exp(cls, log):
        return cls(QGamma.one(), log)

    def __mul__(self, other):
        if isinstance(other, ExpScalar):
            return ExpScalar(self.unit * other.unit, self.log + other.log)
        if isinstance(other, (int, Fraction, QGamma)):
            return ExpScalar(self.unit * other, self.log)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self):
        return ExpScalar(self.unit.inv(), -self.log)

    def __pow__(self, k):
        k = int(k)
        out = ExpScalar.one()
        inv = None
        if k < 0:
            inv = self.inv()
        for _ in range(abs(k)):
            out = out * (inv if k < 0 else self)
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QGamma)):
            other = ExpScalar(other)
        if not isinstance(other, ExpScalar):
            return NotImplemented
        return self.unit == other.unit and self.log == other.log

    def __hash__(self):
        return hash((self.unit, self.log))

    def __repr__(self):
        if self.log.is_zero():
            return f"ExpScalar({self.unit.format()})"
        return f"ExpScalar({self.unit.format()} * exp({self.log.format()}))"


# ---------------------------------------------------------------------------
# domain-dispatch helpers

def coerce(value, domain):
    """Coerce ``value`` into the coefficient ring of ``domain``."""
    if domain == COMPLEX:
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise DomainMismatch(f"cannot use {value!r} as complex scalar")
    if domain == EXACT:
        if isinstance(value, QGamma):
            return value
        if isinstance(value, (int, Fraction)):
            return QGamma.from_rational(value)
        raise DomainMismatch(f"cannot use {value!r} as exact scalar")
    raise DomainMismatch(f"unknown scalar domain {domain!r}")


def scalar_inv(value, domain):
    if domain == COMPLEX:
        return 1.0 / value
    if isinstance(value, ExpScalar):
        return value.inv()
    return coerce(value, EXACT).inv()


def scalar_is_zero(value):
    if isinstance(value, complex):
        return value == 0
    if isinstance(value, LaurentPoly):
        return value.is_zero()
    return value == 0
