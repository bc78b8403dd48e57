"""Command line front end.

Subcommands: factorize, group, bracket, hopf, frobenius, normalize,
qdiff, verify.  Exit codes: 0 success, 1 verification failure, 2 parse
error, 3 domain error.  All numeric output is printed with 17
significant digits and byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .birkhoff import LoopMatrix, birkhoff_matrix2, birkhoff_scalar
from .errors import HatloopError, ParseError
from .extgroup import ExtendedElement, hat_inv, hat_mul, \
    twisted_commutator
from .germs import LaurentGerm, json_complex, json_field, window
from .leaves import (gl1_diagonalize, qdiff_defect, qdiff_solve,
                     sl2_triangular_reduce)
from .poisson import (PoissonPoly, antipode, bracket, coproduct,
                      frobenius)
from .verify import run_suite


def _fmt_num(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def _dump(obj, indent=0):
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, bool)) for v in obj)
        if flat:
            return "[" + ", ".join(_fmt_num(v) for v in obj) + "]"
        items = [pad + "  " + _dump(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    return _fmt_num(obj)


def _emit(doc, path):
    text = doc if isinstance(doc, str) else _dump(doc)
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        return window(int(lo), int(hi))
    except (ValueError, AttributeError):
        raise ParseError(f"bad window {text!r}, expected LO:HI") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_factorize(args):
    obj = _load_json(args.input)
    if isinstance(obj, dict) and "entries" in obj:
        F = LoopMatrix.from_json(obj)
        w = _parse_window(args.window) if args.window else None
        fact = birkhoff_matrix2(F, w=w, tol=args.tol)
        doc = {"f_plus": fact.f_plus.to_json(),
               "indices": list(fact.indices),
               "f_minus": fact.f_minus.to_json()}
    else:
        f = LaurentGerm.from_json(obj)
        w = _parse_window(args.window) if args.window else None
        f_plus, n, f_minus = birkhoff_scalar(f, w=w, tol=args.tol)
        doc = {"f_plus": f_plus.to_json(), "index": n,
               "f_minus": f_minus.to_json()}
    _emit(doc, args.output)
    return 0


def _cmd_group(args):
    w = _parse_window(args.window) if args.window else None
    elems = [ExtendedElement.from_json(_load_json(p)) for p in args.input]
    op = args.op
    if op == "inv":
        if len(elems) != 1:
            raise ParseError("inv takes exactly one element")
        out = hat_inv(elems[0])
    elif op == "mul":
        if len(elems) < 2:
            raise ParseError("mul takes at least two elements")
        out = elems[0]
        for e in elems[1:]:
            out = hat_mul(out, e, w)
    elif op == "commutator":
        if len(elems) != 2:
            raise ParseError("commutator takes exactly two elements")
        out = twisted_commutator(elems[0], elems[1], w, tol=args.tol)
    else:
        raise ParseError(f"unknown group op {op!r}")
    _emit(out.to_json(), args.output)
    return 0


def _cmd_bracket(args):
    p = PoissonPoly.parse(args.expr1)
    q = PoissonPoly.parse(args.expr2)
    _emit(bracket(p, q, args.algebra).format(), args.output)
    return 0


def _tensor_text(tp):
    sides = sorted(
        ((PoissonPoly({m1: Fraction(1)}).format(),
          PoissonPoly({m2: Fraction(1)}).format(), coeff)
         for (m1, m2), coeff in tp.terms.items()),
        key=lambda t: (t[0], t[1]))
    if not sides:
        return "0"
    parts = []
    for left, right, coeff in sides:
        body = f"{left} (x) {right}"
        if coeff == 1:
            parts.append(("+", body))
        elif coeff == -1:
            parts.append(("-", body))
        elif coeff < 0:
            parts.append(("-", f"{-coeff} * {body}"))
        else:
            parts.append(("+", f"{coeff} * {body}"))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _cmd_hopf(args):
    p = PoissonPoly.parse(args.expr)
    delta = coproduct(p, args.algebra, order=args.order)
    s = antipode(p, args.algebra, order=args.order)
    _emit({"coproduct": _tensor_text(delta), "antipode": s.format()},
          args.output)
    return 0


def _cmd_frobenius(args):
    p = PoissonPoly.parse(args.expr)
    _emit(frobenius(p, args.ell).format(), args.output)
    return 0


def _cmd_normalize(args):
    obj = _load_json(args.input)
    if args.algebra == "sl2":
        A = LoopMatrix.from_json(json_field(obj, "matrix", args.input))
        lam = json_complex(obj.get("lambda", 1.0), "lambda")
        gamma = json_complex(json_field(obj, "gamma", args.input), "gamma")
        w = _parse_window(args.window) if args.window else None
        red = sl2_triangular_reduce(A, lam, gamma, w=w, tol=args.tol)
        cls, lam_out = red.invariant()
        doc = cls.to_json()
        doc["alpha"] = [red.alpha.real, red.alpha.imag]
        doc["lambda"] = [lam_out.real, lam_out.imag]
    else:
        a = ExtendedElement.from_json(obj)
        inv, _conj = gl1_diagonalize(a, tol=args.tol)
        doc = inv.to_json()
    _emit(doc, args.output)
    return 0


def _cmd_qdiff(args):
    obj = _load_json(args.input)
    A = LoopMatrix.from_json(json_field(obj, "matrix", args.input))
    theta = json_complex(json_field(obj, "theta", args.input), "theta")
    w = _parse_window(args.window) if args.window else None
    g = qdiff_solve(A, theta, max_iter=args.max_iter, tol=args.tol, w=w)
    resid = max(map(abs, qdiff_defect(A, g, theta, w).coeffs), default=0.0)
    _emit({"g": g.to_json(), "residual": resid}, args.output)
    return 0


def _cmd_verify(args):
    checks = run_suite(args.suite)
    lines = [c.line() for c in checks]
    failed = sum(1 for c in checks if not c.ok)
    lines.append(f"suites: {len(checks) - failed} passed, "
                 f"{failed} failed")
    _emit("\n".join(lines), args.output)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    ap = argparse.ArgumentParser(prog="hatloop")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tol=1e-9):
        p.add_argument("--window", help="exponent window LO:HI")
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("-o", "--output", help="write result to PATH")

    p = sub.add_parser("factorize", help="Birkhoff factorization")
    p.add_argument("input", help="germ or matrix loop JSON file")
    common(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("group", help="extended group arithmetic")
    p.add_argument("op", choices=("mul", "inv", "commutator"))
    p.add_argument("input", nargs="+", help="element JSON files")
    common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("bracket", help="Poisson bracket of two "
                                       "polynomials")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--algebra", choices=("gl1", "sl2"), default="gl1")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("hopf", help="coproduct and antipode")
    p.add_argument("expr")
    p.add_argument("--algebra", choices=("gl1", "sl2"), default="gl1")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("frobenius", help="Frobenius map")
    p.add_argument("expr")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("normalize", help="twisted-conjugacy normal form")
    p.add_argument("input")
    p.add_argument("--algebra", choices=("gl1", "sl2"), default="gl1")
    common(p, tol=1e-8)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("qdiff", help="solve the q-difference equation")
    p.add_argument("input")
    p.add_argument("--max-iter", type=int, default=50)
    common(p, tol=1e-8)
    p.set_defaults(func=_cmd_qdiff)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HatloopError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
