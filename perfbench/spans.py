"""Spans and counters around hatloop's public functions, for traced runs.

``Tracer`` wraps the functions and methods listed in ``SPANS`` and
``COUNTS`` from outside the package: ``install()`` rebinds every alias of
each target in every loaded ``hatloop`` module (``germs.germ_exp`` and
``birkhoff.germ_exp`` alike) and ``uninstall()`` restores the originals,
so untraced ops run the unmodified code.  Spans are kept in memory as
flat arrays (name, parent, start, end) and turned into metrics, or
written out, when the run ends.  A span's self time is its duration minus
the durations of its direct children; spans nest strictly because each
workload has a single caller and no threads.

Functions called millions of times (``LaurentGerm.coeff_at``,
``QGamma.__mul__``) get count-only wrappers.

Which layer metric should move which end-to-end metric, on which
workload (a change to a layer should leave the other workloads alone):

=========================================  ====================  =========
layer metric                               end-to-end metric     workload
=========================================  ====================  =========
germs.germ_exp.{calls,self_s,order}        ops_per_s, p90        factorize
germs.mul.complex.{calls,self_s,terms}     ops_per_s             factorize,
                                                                 orbits
germs.mul.exact.*, scalars.QGamma.mul      ops_per_s             exact
germs.coeff_at, birkhoff_matrix2,          p90, ops_per_s        factorize
LoopMatrix.mul
birkhoff.{winding_number,log_coeffs,       ops_per_s             factorize,
reciprocal_coeffs}.{self_s,nsamples}                             orbits
birkhoff.birkhoff_scalar.*                 p50                   factorize
germs.rescale, leaves.*                    ops_per_s             orbits
extgroup.*, poisson.*                      ops_per_s, p50        exact
qheis.*                                    p90                   exact
import.{hatloop,numpy,sympy}_s             setup_s               all
=========================================  ====================  =========
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

from hatloop.errors import HatloopError


def _germ_terms(args, kw):
    f, g = args[0], args[1] if len(args) > 1 else kw["other"]
    return len(f.coeffs) * len(g.coeffs)


def _exp_order(args, kw):
    f = args[0]
    w = args[1] if len(args) > 1 else kw["w"]
    return w.hi if f.is_zero() or f.n_min >= 0 else -w.lo


def _nsamples(fn):
    sig = inspect.signature(fn)

    def extra(args, kw):
        bound = sig.bind(*args, **kw)
        bound.apply_defaults()
        return bound.arguments["nsamples"]
    return extra


def _mul_name(args):
    return f"germs.mul.{args[0].domain}"


# (module, attribute path, span name or name function, extra counter name,
#  extra counter function, report total_s)
SPANS = [
    ("germs", "germ_exp", "germs.germ_exp", "order", _exp_order, False),
    ("germs", "rescale", "germs.rescale", None, None, False),
    ("germs", "LaurentGerm.mul", _mul_name, "terms", _germ_terms, False),
    ("birkhoff", "birkhoff_scalar", "birkhoff.birkhoff_scalar", None, None,
     True),
    ("birkhoff", "birkhoff_matrix2", "birkhoff.birkhoff_matrix2", None,
     None, True),
    ("birkhoff", "LoopMatrix.mul", "birkhoff.LoopMatrix.mul", None, None,
     False),
    ("birkhoff", "winding_number", "birkhoff.winding_number", "nsamples",
     "nsamples", False),
    ("birkhoff", "log_coeffs", "birkhoff.log_coeffs", "nsamples",
     "nsamples", False),
    ("birkhoff", "reciprocal_coeffs", "birkhoff.reciprocal_coeffs",
     "nsamples", "nsamples", False),
    ("leaves", "qdiff_solve", "leaves.qdiff_solve", None, None, True),
    ("leaves", "sl2_triangular_reduce", "leaves.sl2_triangular_reduce",
     None, None, True),
    ("leaves", "twisted_conjugate", "leaves.twisted_conjugate", None, None,
     True),
    ("extgroup", "hat_mul", "extgroup.hat_mul", None, None, False),
    ("extgroup", "hat_inv", "extgroup.hat_inv", None, None, False),
    ("poisson", "bracket_gl1", "poisson.bracket_gl1", None, None, False),
    ("poisson", "bracket_sl2", "poisson.bracket_sl2", None, None, False),
    ("poisson", "coproduct", "poisson.coproduct", None, None, False),
    ("poisson", "tensor_bracket", "poisson.tensor_bracket", None, None,
     False),
    ("poisson", "antipode", "poisson.antipode", None, None, False),
    ("poisson", "frobenius", "poisson.frobenius", None, None, False),
    ("qheis", "q_heisenberg_commutator", "qheis.q_heisenberg_commutator",
     None, None, False),
    ("qheis", "semiclassical_limit", "qheis.semiclassical_limit", None,
     None, False),
]
COUNTS = [
    ("germs", "LaurentGerm.coeff_at", "germs.coeff_at"),
    ("scalars", "QGamma.__mul__", "scalars.QGamma.mul"),
    ("scalars", "QGamma.__rmul__", "scalars.QGamma.mul"),
]
# Solver calls that ended in a typed error (documented divergences).
FAILURE_COUNTS = {"leaves.qdiff_solve": "leaves.qdiff_solve.failed"}
LAYERS = ("germs", "birkhoff", "leaves", "extgroup", "poisson", "qheis")
IMPORTS = ("hatloop", "numpy", "sympy")


def _span_names(name):
    return [f"germs.mul.{d}" for d in ("complex", "exact")] \
        if callable(name) else [name]


def metric_names():
    """Every per-layer metric a traced run reports, in report order."""
    out = []
    for _, _, name, extra, _, total in SPANS:
        for span in _span_names(name):
            out += [f"{span}.calls", f"{span}.self_s"]
            if total:
                out.append(f"{span}.total_s")
            if extra:
                out.append(f"{span}.{extra}")
    out += [f"{name}.calls" for name in dict.fromkeys(c[2] for c in COUNTS)]
    out += list(FAILURE_COUNTS.values())
    out += [f"layer.{layer}.self_s" for layer in LAYERS]
    out += [f"import.{mod}_s" for mod in IMPORTS]
    out += ["trace.overhead_frac", "trace.spans"]
    return out


def _resolve(module, path):
    owner = sys.modules[f"hatloop.{module}"]
    *cls, attr = path.split(".")
    for part in cls:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._patches = []
        for module, path, name, extra, extra_fn, _ in SPANS:
            if extra_fn == "nsamples":
                extra_fn = _nsamples(getattr(*_resolve(module, path)))
            self._patch(module, path, self._span(
                getattr(*_resolve(module, path)), name, extra, extra_fn,
                FAILURE_COUNTS.get(name)))
        for module, path, name in COUNTS:
            self._patch(module, path,
                        self._counter(getattr(*_resolve(module, path)),
                                      f"{name}.calls"))

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _span(self, fn, name, extra, extra_fn, failure_key):
        clock = time.perf_counter
        stack = self._stack
        span_name, parent = self.span_name, self.parent
        start, end = self.start, self.end
        fixed = None if callable(name) else self._id(name)

        def wrapper(*args, **kw):
            nid = fixed if fixed is not None else self._id(name(args))
            if extra_fn is not None:
                self._bump(f"{self.names[nid]}.{extra}", extra_fn(args, kw))
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kw)
            except HatloopError:
                if failure_key:
                    self._bump(failure_key)
                raise
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kw):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kw)
        return wrapper

    def _patch(self, module, path, wrapper):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original, wrapper,
                                  attr in vars(owner)))
            return
        # a module-level function: rebind it wherever it was imported
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hatloop"
                                   or name.startswith("hatloop.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, alias, original, wrapper,
                                          True))

    def install(self):
        for owner, attr, _, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _, own in self._patches:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------------
    def _arrays(self):
        return (np.array(self.span_name, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.end) - np.array(self.start))

    def metrics(self):
        """Per-layer metrics of every span and counter recorded so far,
        without ``import.*`` and ``trace.overhead_frac``."""
        names, parents, dur = self._arrays()
        n = len(dur)
        inner = parents >= 0
        covered = np.bincount(parents[inner], weights=dur[inner],
                              minlength=n)
        self_t = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        out = {}
        for name in metric_names():
            base, _, field = name.rpartition(".")
            if name in self.counts:
                out[name] = self.counts[name]
            elif base in self._ids and field in ("calls", "self_s",
                                                 "total_s"):
                i = self._ids[base]
                out[name] = {"calls": int(calls[i]),
                             "self_s": float(self_s[i]),
                             "total_s": float(total_s[i])}[field]
            elif name.startswith("layer."):
                layer = name.split(".")[1]
                out[name] = float(sum(
                    self_s[i] for span, i in self._ids.items()
                    if span.split(".")[0] == layer))
            elif not name.startswith(("import.", "trace.")):
                out[name] = 0
        out["trace.spans"] = n
        return out

    def save(self, path):
        """Write every span (name, parent, start, end) to ``path`` (.npz)."""
        names, parents, _ = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), span_name=names,
            parent=parents, start=np.array(self.start),
            end=np.array(self.end))
