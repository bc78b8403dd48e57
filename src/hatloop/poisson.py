"""Symbolic Poisson-Hopf structure on the Drinfeld generator symbols.

Polynomials live in the ring generated by ``L`` (Lambda), ``G`` (Gamma),
``k`` (all three invertible), ``h[r]`` (r != 0) and ``xp[m]``/``xm[m]``,
with exact rational coefficients.  The Poisson bracket is defined on
generator pairs by explicit tables for the gl1 and sl2 cases and
extended as a biderivation; the Hopf operations come from the grouplike
laws on the invertible coordinates, a Gamma-twisted primitive law on the
``h`` coordinates, and generating-series formulas (expanded to a
caller-supplied order) for the sl2 ``x`` coordinates.

Generator keys are pairs ``(name, index)`` with ``name`` one of
``"L", "G", "k", "h", "xp", "xm"``; the index is 0 for the invertible
coordinates.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, TableIncomplete, UnsupportedGenerator
from .germs import bell_coeffs

NAMES = ("L", "G", "k", "h", "xp", "xm")
_RANK = {name: i for i, name in enumerate(NAMES)}
INVERTIBLE = ("L", "G", "k")
GL1_NAMES = ("L", "G", "k", "h")


def _check_key(key):
    name, idx = key
    if name not in NAMES:
        raise UnsupportedGenerator(f"unknown generator {name!r}")
    if name in INVERTIBLE and idx != 0:
        raise UnsupportedGenerator(f"{name} carries no index")
    if name == "h" and idx == 0:
        raise UnsupportedGenerator("h index must be nonzero")
    return key


def _mon_canon(pairs):
    """Canonical monomial: sorted tuple of ((name, idx), exp), no zeros."""
    acc = {}
    for key, exp in pairs:
        if exp == 0:
            continue
        _check_key(key)
        acc[key] = acc.get(key, 0) + exp
    for (name, idx), exp in acc.items():
        if exp < 0 and name not in INVERTIBLE:
            raise UnsupportedGenerator(
                f"negative power on non-invertible {name}[{idx}]")
    return tuple(sorted(((k, e) for k, e in acc.items() if e != 0),
                        key=lambda it: (_RANK[it[0][0]], it[0][1])))


def _mon_mul(m1, m2):
    return _mon_canon(list(m1) + list(m2))


def _mon_div(mon, key):
    """Decrease the exponent of ``key`` by one (used by Leibniz)."""
    return _mon_canon(list(mon) + [(key, -1)])


class PoissonPoly:
    """Sparse polynomial: map from canonical monomial to Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mon, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    mon = _mon_canon(mon)
                    data[mon] = data.get(mon, 0) + coeff
        self.terms = {m: c for m, c in data.items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, value):
        return cls({(): Fraction(value)})

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def gen(cls, name, idx=0, power=1, coeff=1):
        return cls({(((name, idx), power),): Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PoissonPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, PoissonPoly):
            other = PoissonPoly.const(other)
        data = dict(self.terms)
        for m, c in other.terms.items():
            v = data.get(m, 0) + c
            if v == 0:
                data.pop(m, None)
            else:
                data[m] = v
        out = PoissonPoly()
        out.terms = data
        return out

    __radd__ = __add__

    def __neg__(self):
        out = PoissonPoly()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, PoissonPoly):
            other = PoissonPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return PoissonPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, PoissonPoly):
            return self.scale(other)
        data = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mon_mul(m1, m2)
                v = data.get(m, 0) + c1 * c2
                if v == 0:
                    data.pop(m, None)
                else:
                    data[m] = v
        out = PoissonPoly()
        out.terms = {m: c for m, c in data.items() if c != 0}
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        s = Fraction(s)
        out = PoissonPoly()
        if s != 0:
            out.terms = {m: c * s for m, c in self.terms.items()}
        return out

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            mono = self.as_monomial()
            base = PoissonPoly({tuple((k, -e) for k, e in mono[0]):
                                1 / mono[1]})
            return base ** (-n)
        out = PoissonPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def as_monomial(self):
        """The (monomial, coefficient) pair of a single-term polynomial."""
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        (mon, coeff), = self.terms.items()
        return mon, coeff

    def evaluate(self, point):
        """Numeric value at ``point``: a map from generator key to a
        complex number (missing invertible coordinates default to 1,
        others to 0)."""
        total = 0j
        for mon, coeff in self.terms.items():
            val = complex(coeff)
            for key, exp in mon:
                base = point.get(key)
                if base is None:
                    base = 1.0 if key[0] in INVERTIBLE else 0.0
                val *= complex(base) ** exp
            total += val
        return total

    # -- text format --------------------------------------------------------
    def format(self):
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms,
                          key=lambda m: (len(m),
                                         [(_RANK[k[0]], k[1], -e)
                                          for k, e in m])):
            coeff = self.terms[mon]
            factors = []
            if abs(coeff) != 1 or not mon:
                factors.append(str(abs(coeff)))
            for (name, idx), exp in mon:
                sym = name if name in INVERTIBLE else f"{name}[{idx}]"
                factors.append(sym if exp == 1 else f"{sym}^{exp}")
            parts.append((coeff < 0, " * ".join(factors)))
        head_neg, head = parts[0]
        pieces = [("-" if head_neg else "") + head]
        for neg, body in parts[1:]:
            pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    _FACTOR = re.compile(
        r"^(?:(-?\d+(?:/\d+)?)|(L|G|k|h|xp|xm)"
        r"(?:\[(-?\d+)\])?(?:\^(-?\d+))?)$")

    @staticmethod
    def _signed_terms(text):
        """Split into (sign, term) pairs; '-' after '^' or '[' is part
        of a number, elsewhere it separates (or negates) a term."""
        terms = []
        sign, buf = 1, []
        prev = ""
        for ch in text:
            if ch in "+-" and prev not in "^[/*" and prev != "":
                if not "".join(buf).strip():
                    raise ParseError("empty term")
                terms.append((sign, "".join(buf).strip()))
                sign, buf = (1 if ch == "+" else -1), []
                prev = ""
                continue
            if ch == "-" and prev == "":
                sign = -sign
                continue
            buf.append(ch)
            if not ch.isspace():
                prev = ch
        if not "".join(buf).strip():
            raise ParseError("empty term")
        terms.append((sign, "".join(buf).strip()))
        return terms

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if not text:
            raise ParseError("empty polynomial")
        if text == "0":
            return cls.zero()
        out = cls.zero()
        for sign, raw_term in cls._signed_terms(text):
            coeff = Fraction(sign)
            pairs = []
            for raw in raw_term.split("*"):
                raw = raw.strip()
                m = cls._FACTOR.match(raw)
                if not m:
                    raise ParseError(f"bad factor {raw!r}")
                num, name, idx_s, exp_s = m.groups()
                if num is not None:
                    coeff *= Fraction(num)
                    continue
                if name in INVERTIBLE:
                    if idx_s is not None:
                        raise ParseError(f"{name} carries no index")
                    idx = 0
                else:
                    if idx_s is None:
                        raise ParseError(f"{name} requires an index")
                    idx = int(idx_s)
                exp = int(exp_s) if exp_s is not None else 1
                pairs.append(((name, idx), exp))
            out = out + PoissonPoly({_mon_canon(pairs): coeff})
        return out

    def __repr__(self):
        return f"PoissonPoly.parse({self.format()!r})"


class TensorPoly:
    """Element of the tensor square: map from monomial pairs to Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (m1, m2), coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    key = (_mon_canon(m1), _mon_canon(m2))
                    data[key] = data.get(key, 0) + coeff
        self.terms = {k: c for k, c in data.items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({((), ()): 1})

    @classmethod
    def tensor(cls, p, q):
        out = cls()
        data = {}
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                data[(m1, m2)] = data.get((m1, m2), 0) + c1 * c2
        out.terms = {k: c for k, c in data.items() if c != 0}
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        data = dict(self.terms)
        for k, c in other.terms.items():
            v = data.get(k, 0) + c
            if v == 0:
                data.pop(k, None)
            else:
                data[k] = v
        out = TensorPoly()
        out.terms = data
        return out

    def __neg__(self):
        out = TensorPoly()
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TensorPoly):
            return self.scale(other)
        data = {}
        for (a1, a2), c1 in self.terms.items():
            for (b1, b2), c2 in other.terms.items():
                key = (_mon_mul(a1, b1), _mon_mul(a2, b2))
                v = data.get(key, 0) + c1 * c2
                if v == 0:
                    data.pop(key, None)
                else:
                    data[key] = v
        out = TensorPoly()
        out.terms = {k: c for k, c in data.items() if c != 0}
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        s = Fraction(s)
        out = TensorPoly()
        if s != 0:
            out.terms = {k: c * s for k, c in self.terms.items()}
        return out

    def sides(self):
        """Decompose into a list of (left PoissonPoly monomial factor,
        right PoissonPoly monomial factor, coefficient) triples."""
        for (m1, m2), c in self.terms.items():
            left = PoissonPoly({m1: 1})
            right = PoissonPoly({m2: 1})
            yield left, right, c

    def __repr__(self):
        parts = []
        for (m1, m2), c in sorted(self.terms.items(), key=repr):
            parts.append(f"{c}*({PoissonPoly({m1: 1}).format()})"
                         f"x({PoissonPoly({m2: 1}).format()})")
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# Bracket tables


def _gl1_h_h(m, mp):
    if m + mp != 0:
        return PoissonPoly.zero()
    return (PoissonPoly.gen("G", 0, 2 * m)
            - PoissonPoly.gen("G", 0, -2 * m))


def _gl1_h_L(m):
    # {h_m, Lambda} = m Lambda h_m
    return PoissonPoly({((("L", 0), 1), (("h", m), 1)): m})


def _gen_bracket_gl1(s, t):
    sn, si = s
    tn, ti = t
    if sn not in GL1_NAMES or tn not in GL1_NAMES:
        raise UnsupportedGenerator(
            f"{sn} is not a gl1 generator" if sn not in GL1_NAMES
            else f"{tn} is not a gl1 generator")
    if sn in ("G", "k") or tn in ("G", "k"):
        return None
    if sn == "h" and tn == "h":
        return _gl1_h_h(si, ti)
    if sn == "h" and tn == "L":
        return _gl1_h_L(si)
    if sn == "L" and tn == "h":
        return -_gl1_h_L(ti)
    return None  # {L, L}


def _sl2_xm_xm(m, mp):
    # 2 (sum_{0<=r<=m'} - sum_{0<=r<=m}) x^-_{-r} x^-_{-(m+m'-r)}
    out = PoissonPoly.zero()
    for r in range(0, mp + 1):
        out = out + PoissonPoly.gen("xm", -r) * PoissonPoly.gen(
            "xm", -(m + mp - r))
    for r in range(0, m + 1):
        out = out - PoissonPoly.gen("xm", -r) * PoissonPoly.gen(
            "xm", -(m + mp - r))
    return out.scale(2)


def _gen_bracket_sl2(s, t):
    sn, si = s
    tn, ti = t
    if sn == "G" or tn == "G":
        return None
    pair = (sn, tn)
    if pair == ("h", "h"):
        return _gl1_h_h(si, ti)
    if pair == ("h", "L"):
        return _gl1_h_L(si)
    if pair == ("L", "h"):
        return -_gl1_h_L(ti)
    if pair == ("k", "k") or pair in (("k", "h"), ("h", "k")):
        return None
    if pair == ("L", "L"):
        return None
    if pair == ("k", "xm"):
        return PoissonPoly({((("k", 0), 1), (("xm", si + ti), 1)): 2})
    if pair == ("xm", "k"):
        return PoissonPoly({((("k", 0), 1), (("xm", si), 1)): -2})
    if pair == ("k", "xp"):
        return PoissonPoly({((("k", 0), 1), (("xp", ti), 1)): -2})
    if pair == ("xp", "k"):
        return PoissonPoly({((("k", 0), 1), (("xp", si), 1)): 2})
    if pair == ("xm", "xm"):
        if si > 0 or ti > 0:
            raise TableIncomplete(
                "{x-, x-} is tabulated for non-positive indices only")
        return _sl2_xm_xm(-si, -ti)
    if pair in (("xm", "h"), ("h", "xm")):
        sign = 1 if pair == ("xm", "h") else -1
        mi, hi = (si, ti) if sign == 1 else (ti, si)
        if mi > 0 or hi >= 0:
            raise TableIncomplete(
                "{x-, h} is tabulated for x index <= 0, h index < 0")
        m, mp = -mi, -hi
        out = PoissonPoly({((("G", 0), mp), (("xm", -(m + mp)), 1)): -4})
        return out.scale(sign)
    if pair in (("xm", "xp"), ("xp", "xm")):
        sign = 1 if pair == ("xm", "xp") else -1
        mi, pi = (si, ti) if sign == 1 else (ti, si)
        if mi > 0 or pi >= 0:
            raise TableIncomplete(
                "{x-, x+} is tabulated for x- index <= 0, x+ index < 0")
        m, mp = -mi, -pi
        out = PoissonPoly.gen("G", 0, m - mp, coeff=-2) * phi_inv_coeff(
            m + mp)
        return out.scale(sign)
    raise TableIncomplete(f"no tabulated bracket for ({sn}, {tn})")


def _bracket(p, q, table):
    out = PoissonPoly.zero()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            for s, e1 in m1:
                for t, e2 in m2:
                    gb = table(s, t)
                    if gb is None or gb.is_zero():
                        continue
                    rest = _mon_mul(_mon_div(m1, s), _mon_div(m2, t))
                    out = out + (PoissonPoly({rest: c1 * c2 * e1 * e2})
                                 * gb)
    return out


def bracket_gl1(p, q):
    """Poisson bracket on the gl1 coordinate ring (L, G, k, h[r])."""
    return _bracket(p, q, _gen_bracket_gl1)


def bracket_sl2(p, q):
    """Poisson bracket on the sl2 coordinate ring; generator pairs not
    covered by the tabulated formulas raise TableIncomplete."""
    return _bracket(p, q, _gen_bracket_sl2)


def bracket(p, q, algebra="gl1"):
    if algebra == "gl1":
        return bracket_gl1(p, q)
    if algebra == "sl2":
        return bracket_sl2(p, q)
    raise ValueError(f"unknown algebra {algebra!r}")


def tensor_bracket(P, Q, algebra="gl1"):
    """Bracket on the tensor square:
    {f1 (x) f2, g1 (x) g2} = f1 g1 (x) {f2, g2} + {f1, g1} (x) f2 g2."""
    out = TensorPoly.zero()
    for f1, f2, c1 in P.sides():
        for g1, g2, c2 in Q.sides():
            scale = c1 * c2
            br = bracket(f2, g2, algebra)
            if not br.is_zero():
                out = out + TensorPoly.tensor(f1 * g1, br).scale(scale)
            br = bracket(f1, g1, algebra)
            if not br.is_zero():
                out = out + TensorPoly.tensor(br, f2 * g2).scale(scale)
    return out


# ---------------------------------------------------------------------------
# phi series


def phi_inv_coeff(n):
    """Coefficient of z^n in (phi+)^{-1} = k^{-1} exp(-sum_{m>0} h_{-m} z^m),
    as a polynomial in k^{-1} and the h_{-m}."""
    if n < 0:
        raise ValueError("phi_inv_coeff needs n >= 0")
    hs = [PoissonPoly.gen("h", -r) for r in range(1, n + 1)]
    coeffs = bell_coeffs(hs, -1, n)
    return PoissonPoly.gen("k", 0, -1) * (
        coeffs[n] if n else PoissonPoly.one())


def phi_coeff(n):
    """Coefficient of z^n in phi+ = k exp(sum_{m>0} h_{-m} z^m)."""
    if n < 0:
        raise ValueError("phi_coeff needs n >= 0")
    hs = [PoissonPoly.gen("h", -r) for r in range(1, n + 1)]
    coeffs = bell_coeffs(hs, 1, n)
    return PoissonPoly.gen("k", 0, 1) * (
        coeffs[n] if n else PoissonPoly.one())


# ---------------------------------------------------------------------------
# Series helpers (generic over PoissonPoly / TensorPoly)


def _series_mul(a, b, order, zero):
    out = [zero for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if i > order:
            break
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _series_inv(d, order, one, zero):
    """Inverse of a series with constant term 1 (geometric expansion)."""
    inv = [one] + [zero for _ in range(order)]
    for n in range(1, order + 1):
        acc = zero
        for r in range(1, n + 1):
            if r < len(d):
                acc = acc + d[r] * inv[n - r]
        inv[n] = -acc
    return inv


def _series_log1p(u, order, zero):
    """log(1 + u) for a series u with zero constant term."""
    log = [zero for _ in range(order + 1)]
    for n in range(1, order + 1):
        un = u[n] if n < len(u) else zero
        acc = un
        for r in range(1, n):
            if n - r < len(u):
                acc = acc - (u[n - r] * log[r]).scale(Fraction(r, n))
        log[n] = acc
    return log


# ---------------------------------------------------------------------------
# Coproduct / antipode / counit


def _grouplike_delta(name, exp):
    g = PoissonPoly.gen(name, 0, exp)
    return TensorPoly.tensor(g, g)


def _tz(p, q):
    return TensorPoly.tensor(p, q)


def _one():
    return PoissonPoly.one()


def _delta_h_gl1(m):
    am = abs(m)
    return (_tz(PoissonPoly.gen("h", m), PoissonPoly.gen("G", 0, -am))
            + _tz(PoissonPoly.gen("G", 0, am), PoissonPoly.gen("h", m)))


def _delta_h_sl2(m, order):
    """m > 0; coproduct of h_{-m} via the logarithmic series."""
    if order < m:
        raise ValueError(f"order {order} too small for h[{-m}]")
    u = [TensorPoly.zero() for _ in range(order + 1)]
    for c in range(1, order + 1):
        for a in range(1, c + 1):
            b = c - a
            u[c] = u[c] + _tz(
                PoissonPoly.gen("G", 0, c) * PoissonPoly.gen("xp", -a),
                PoissonPoly.gen("G", 0, -c) * PoissonPoly.gen("xm", -b))
    log = _series_log1p(u, order, TensorPoly.zero())
    return _delta_h_gl1(-m) + log[m].scale(2)


def _delta_xm(m, order):
    """m >= 0; coproduct of x^-_{-m}."""
    if order < m:
        raise ValueError(f"order {order} too small for xm[{-m}]")
    num = [TensorPoly.zero() for _ in range(order + 1)]
    den = [TensorPoly.one()] + [TensorPoly.zero() for _ in range(order)]
    for c in range(0, order + 1):
        for a in range(0, c + 1):
            b = c - a
            num[c] = num[c] + _tz(
                phi_inv_coeff(a) * PoissonPoly.gen("G", 0, a + 2 * b),
                PoissonPoly.gen("xm", -b))
            if a >= 1:
                den[c] = den[c] + _tz(
                    PoissonPoly.gen("G", 0, 2 * c)
                    * PoissonPoly.gen("xp", -a),
                    PoissonPoly.gen("xm", -b))
    frac = _series_mul(num, _series_inv(den, order, TensorPoly.one(),
                                        TensorPoly.zero()),
                       order, TensorPoly.zero())
    return _tz(PoissonPoly.gen("xm", -m), _one()) + frac[m]


def _delta_xp(m, order):
    """m > 0; coproduct of x^+_{-m}."""
    if order < m:
        raise ValueError(f"order {order} too small for xp[{-m}]")
    num = [TensorPoly.zero() for _ in range(order + 1)]
    den = [TensorPoly.one()] + [TensorPoly.zero() for _ in range(order)]
    for c in range(1, order + 1):
        for a in range(1, c + 1):
            b = c - a
            num[c] = num[c] + _tz(
                PoissonPoly.gen("xp", -a),
                PoissonPoly.gen("G", 0, -2 * a - b) * phi_inv_coeff(b))
            den[c] = den[c] + _tz(
                PoissonPoly.gen("xp", -a),
                PoissonPoly.gen("G", 0, -2 * c)
                * PoissonPoly.gen("xm", -b))
    frac = _series_mul(num, _series_inv(den, order, TensorPoly.one(),
                                        TensorPoly.zero()),
                       order, TensorPoly.zero())
    return _tz(_one(), PoissonPoly.gen("xp", -m)) + frac[m]


def _delta_gen(key, algebra, order):
    name, idx = key
    if name in INVERTIBLE:
        return _grouplike_delta(name, 1)
    if algebra == "gl1":
        if name != "h":
            raise UnsupportedGenerator(f"{name} is not a gl1 generator")
        return _delta_h_gl1(idx)
    if name == "h":
        if idx >= 0:
            raise UnsupportedGenerator(
                "sl2 coproduct implemented on the negative-index branch")
        return _delta_h_sl2(-idx, order)
    if name == "xm":
        if idx > 0:
            raise UnsupportedGenerator(
                "sl2 coproduct implemented on the negative-index branch")
        return _delta_xm(-idx, order)
    if name == "xp":
        if idx == 0:
            # Delta(x+_0) = 1 (x) x+_0 + x+_0 (x) k
            return (_tz(_one(), PoissonPoly.gen("xp", 0))
                    + _tz(PoissonPoly.gen("xp", 0),
                          PoissonPoly.gen("k", 0)))
        if idx > 0:
            raise UnsupportedGenerator(
                "sl2 coproduct implemented on the negative-index branch")
        return _delta_xp(-idx, order)
    raise UnsupportedGenerator(f"unknown generator {name!r}")


def coproduct(p, algebra="gl1", order=8):
    """Coproduct, extended multiplicatively from the generator laws;
    sl2 series expressions are expanded up to z-degree ``order``."""
    out = TensorPoly.zero()
    for mon, coeff in p.terms.items():
        term = TensorPoly.one()
        for key, exp in mon:
            if key[0] in INVERTIBLE:
                term = term * _grouplike_delta(key[0], exp)
                continue
            d = _delta_gen(key, algebra, order)
            for _ in range(exp):
                term = term * d
        out = out + term.scale(coeff)
    return out


def _antipode_h_sl2(m, order):
    """m > 0; S(h_{-m}) = -h_{-m} + 2 [log(1 + v)]_m with
    v = x^{+,+}(z Gamma) x^{+,-}(z Gamma^{-1}) phi^+(z)."""
    if order < m:
        raise ValueError(f"order {order} too small for h[{-m}]")
    xpp = [PoissonPoly.zero()] + [
        PoissonPoly.gen("G", 0, a) * PoissonPoly.gen("xp", -a)
        for a in range(1, order + 1)]
    xpm = [PoissonPoly.gen("G", 0, -b) * PoissonPoly.gen("xm", -b)
           for b in range(0, order + 1)]
    phi = [phi_coeff(c) for c in range(0, order + 1)]
    v = _series_mul(_series_mul(xpp, xpm, order, PoissonPoly.zero()),
                    phi, order, PoissonPoly.zero())
    log = _series_log1p(v, order, PoissonPoly.zero())
    return -PoissonPoly.gen("h", -m) + log[m].scale(2)


def _antipode_xm_sl2(m, order):
    """m >= 0; S on x^-_{-m} from the quotient series."""
    if order < m:
        raise ValueError(f"order {order} too small for xm[{-m}]")
    zero = PoissonPoly.zero()
    phi_g = [phi_coeff(a) * PoissonPoly.gen("G", 0, -a)
             for a in range(0, order + 1)]
    xm_g2 = [PoissonPoly.gen("G", 0, -2 * b) * PoissonPoly.gen("xm", -b)
             for b in range(0, order + 1)]
    num = _series_mul(phi_g, xm_g2, order, zero)
    xpp = [zero] + [PoissonPoly.gen("xp", -a)
                    for a in range(1, order + 1)]
    den = _series_mul(_series_mul(xpp, xm_g2, order, zero), phi_g,
                      order, zero)
    den[0] = den[0] + PoissonPoly.one()
    frac = _series_mul(num, _series_inv(den, order, PoissonPoly.one(),
                                        zero), order, zero)
    return -frac[m]


def _antipode_xp_sl2(m, order):
    """m > 0; S on x^+_{-m} from the quotient series."""
    if order < m:
        raise ValueError(f"order {order} too small for xp[{-m}]")
    zero = PoissonPoly.zero()
    phi_g = [phi_coeff(a) * PoissonPoly.gen("G", 0, a)
             for a in range(0, order + 1)]
    xp_g2 = [zero] + [PoissonPoly.gen("G", 0, 2 * a)
                      * PoissonPoly.gen("xp", -a)
                      for a in range(1, order + 1)]
    num = _series_mul(phi_g, xp_g2, order, zero)
    xm_plain = [PoissonPoly.gen("xm", -b) for b in range(0, order + 1)]
    den = _series_mul(_series_mul(xp_g2, xm_plain, order, zero), phi_g,
                      order, zero)
    den[0] = den[0] + PoissonPoly.one()
    frac = _series_mul(num, _series_inv(den, order, PoissonPoly.one(),
                                        zero), order, zero)
    return -frac[m]


def _antipode_gen(key, algebra, order):
    name, idx = key
    if name in INVERTIBLE:
        return PoissonPoly.gen(name, 0, -1)
    if algebra == "gl1":
        if name != "h":
            raise UnsupportedGenerator(f"{name} is not a gl1 generator")
        return -PoissonPoly.gen("h", idx)
    if name == "h":
        if idx >= 0:
            raise UnsupportedGenerator(
                "sl2 antipode implemented on the negative-index branch")
        return _antipode_h_sl2(-idx, order)
    if name == "xm":
        if idx > 0:
            raise UnsupportedGenerator(
                "sl2 antipode implemented on the negative-index branch")
        return _antipode_xm_sl2(-idx, order)
    if name == "xp":
        if idx == 0:
            # S(x+_0) = -k^{-1} x+_0
            return PoissonPoly.gen("k", 0, -1) \
                * PoissonPoly.gen("xp", 0, coeff=-1)
        if idx > 0:
            raise UnsupportedGenerator(
                "sl2 antipode implemented on the negative-index branch")
        return _antipode_xp_sl2(-idx, order)
    raise UnsupportedGenerator(f"unknown generator {name!r}")


def antipode(p, algebra="gl1", order=8):
    """Antipode, extended as an algebra homomorphism (the ring is
    commutative)."""
    out = PoissonPoly.zero()
    for mon, coeff in p.terms.items():
        term = PoissonPoly.const(coeff)
        for key, exp in mon:
            if key[0] in INVERTIBLE:
                term = term * PoissonPoly.gen(key[0], 0, -exp)
                continue
            term = term * _antipode_gen(key, algebra, order) ** exp
        out = out + term
    return out


def counit(p):
    """Counit: invertible coordinates map to 1, the rest to 0."""
    total = Fraction(0)
    for mon, coeff in p.terms.items():
        if all(key[0] in INVERTIBLE for key, _ in mon):
            total += coeff
    return PoissonPoly.const(total)


def frobenius(p, ell):
    """Frobenius substitution: h_m -> ell * h_{m ell}, invertible
    coordinates and the x coordinates to their ell-th powers."""
    ell = int(ell)
    if ell < 3 or ell % 2 == 0:
        raise ValueError("ell must be an odd integer >= 3")
    out = PoissonPoly.zero()
    for mon, coeff in p.terms.items():
        term = PoissonPoly.const(coeff)
        for (name, idx), exp in mon:
            if name == "h":
                term = term * PoissonPoly.gen(
                    "h", idx * ell, coeff=ell) ** exp
            elif name in ("xp", "xm"):
                term = term * PoissonPoly.gen(name, idx) ** (exp * ell)
            else:
                term = term * PoissonPoly.gen(name, 0, exp * ell)
        out = out + term
    return out
