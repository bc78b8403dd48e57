"""Winding numbers and Birkhoff factorization of loops.

Scalar loops are factorized through the logarithm: sample the loop on the
unit circle, remove the winding monomial, take a continuous branch of the
log, recover its Laurent coefficients by FFT and split them into the
plus/minus parts; the factors are returned only if their product gives
back the coefficients of the loop.

2x2 matrix loops ``F = F_plus diag(z^n1, z^n2) F_minus`` read their
partial indices from the rank of one finite Toeplitz matrix (Gohberg &
Krein, Uspekhi Mat. Nauk 13(2), 1958; Adukov, St. Petersburg Math. J.
4(1), 1993): the columns g with exponents -depth..0 for which ``F g`` has
no term below ``z^k`` form, up to a tail that vanishes as depth grows, a
space of dimension ``sum_j max(n_j - k + 1, 0)``.  At ``k = floor(n/2) +
1`` (n the winding of det F) that is ``n1 - floor(n/2)``.  The minus
factor for that pair is then the least-squares solution of columns of
the same matrix, by one Householder QR per column of G, or one QR with
two right-hand sides when n1 == n2.

The depth comes from the zeros of det F: with rho the largest |zero|
inside the circle or 1/|zero| outside it, F_minus and its inverse decay
like rho**n, so a truncation at depth d leaves about rho**d (Trefethen &
Weideman, SIAM Rev. 2014).  The solve runs at the depth where that is
1e-3 tol and the kernel is read at the shorter depth where it is 1e-2
KERNEL_RTOL; if the round trip fails, the depth doubles, up to a fixed
cap, for at most five steps.

Circle sampling is one inverse FFT of the coefficients folded modulo the
sample count.  The sample count is at least the smallest power of two
>= 2 (window span + band) of the input, so the sampled window never
aliases onto itself (Trefethen & Weideman, SIAM Rev. 2014).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (FactorizationFailed, ParseError, SingularLoop)
from .germs import (LaurentGerm, germ_exp, json_field, split_pm, truncate_ge,
                    window)

# A circle sample below EPS_ZERO times the largest one counts as a zero.
EPS_ZERO = 1e-12
N_SAMPLES = 512
# Singular values below KERNEL_RTOL times the largest count as kernel in
# the partial-index Toeplitz system.  On 72 constructed loops with indices
# up to (20, -20) the kernel values were <= 9e-7 and the next one up
# >= 2e-2; on the benchmark's matrix loops the smallest is >= 4.8e-2.
KERNEL_RTOL = 1e-4


def _circle_samples(f, nsamples):
    """Values of ``f`` at the ``nsamples``-th roots of unity
    ``exp(2 pi i j / nsamples)``, by one inverse FFT of its coefficients
    folded modulo ``nsamples``."""
    folded = np.zeros(nsamples, dtype=complex)
    if f.coeffs:
        np.add.at(folded, np.arange(f.n_min, f.n_max + 1) % nsamples,
                  f.coeffs)
    return np.fft.ifft(folded, norm="forward")


def _nsamples(nsamples, f, span=0):
    """``nsamples``, raised to the smallest power of two >= 2 (span +
    band of ``f``) so that a window of ``span + 1`` exponents does not
    alias."""
    band = max(abs(f.n_min), abs(f.n_max)) if f.coeffs else 0
    return max(nsamples, 1 << max(2 * (span + band) - 1, 0).bit_length())


def _nonsingular_samples(f, nsamples, eps_zero):
    """Circle samples of ``f``; raises :class:`SingularLoop` when the
    smallest is below ``eps_zero`` times the largest, so that the test
    does not depend on the scale of ``f``."""
    vals = _circle_samples(f, nsamples)
    mags = np.abs(vals)
    if not mags.min() > eps_zero * mags.max():
        raise SingularLoop("loop vanishes on the sampling circle")
    return vals


def _spectrum_window(spectrum, w, radius):
    idx = np.arange(w.lo, w.hi + 1) % len(spectrum)
    return LaurentGerm.from_array(w.lo, spectrum[idx], radius)


def winding_number(f, nsamples=N_SAMPLES, eps_zero=EPS_ZERO):
    """Winding of ``f`` around 0 along the unit circle.

    Uses argument unwrapping over at least ``nsamples`` equispaced points
    (more when the band of ``f`` needs them) and raises
    :class:`SingularLoop` when the loop gets within ``eps_zero`` times
    its largest sample of the origin.
    """
    if f.is_zero():
        raise SingularLoop("zero loop")
    vals = _nonsingular_samples(f, _nsamples(nsamples, f), eps_zero)
    ang = np.angle(vals)
    steps = np.diff(np.concatenate([ang, ang[:1]]))
    steps = (steps + math.pi) % (2 * math.pi) - math.pi
    return int(round(float(steps.sum()) / (2 * math.pi)))


def log_coeffs(f, w, nsamples=2 * N_SAMPLES, eps_zero=EPS_ZERO):
    """Laurent coefficients (within ``w``) of a continuous log of ``f``.

    Requires winding number zero and a loop bounded away from 0.
    """
    m = _nsamples(nsamples, f, w.hi - w.lo)
    vals = _nonsingular_samples(f, m, eps_zero)
    logs = np.log(np.abs(vals)) + 1j * np.unwrap(np.angle(vals))
    return _spectrum_window(np.fft.fft(logs) / m, w, f.radius)


def reciprocal_coeffs(f, w, nsamples=2 * N_SAMPLES, eps_zero=EPS_ZERO):
    """Laurent coefficients (within ``w``) of 1/f for a winding-0 loop."""
    m = _nsamples(nsamples, f, w.hi - w.lo)
    vals = _nonsingular_samples(f, m, eps_zero)
    return _spectrum_window(np.fft.fft(1.0 / vals) / m, w, f.radius)


def birkhoff_scalar(f, w=None, nsamples=2 * N_SAMPLES, tol=1e-9):
    """Factor ``f = f_plus * z**n * f_minus``.

    ``n`` is the winding number, ``f_plus`` has exponents >= 0 (constant
    included), ``f_minus`` has the shape ``1 + (strictly negative part)``
    so that ``f_minus(inf) = 1``.  Raises :class:`FactorizationFailed`
    when the coefficients of ``f_plus z**n f_minus - f`` exceed ``tol``
    times the largest coefficient of ``f`` (a zero of ``f`` so near the
    circle that its log aliases at this resolution or outlives ``w``).
    """
    if w is None:
        band = max(abs(f.n_min), abs(f.n_max), 1)
        w = window(-6 * band - 12, 6 * band + 12)
    n = winding_number(f, max(nsamples, N_SAMPLES))
    g = f.mul(LaurentGerm.monomial(-n, 1.0), None)
    logs = log_coeffs(g, w, nsamples)
    gp, gm = split_pm(logs)
    f_plus = _chop(germ_exp(gp, w))
    f_minus = _chop(germ_exp(gm, w))
    prod = np.convolve(f_plus.coeffs, f_minus.coeffs)
    start = f_plus.n_min + n + f_minus.n_min
    lo = min(start, f.n_min)
    resid = f.to_array(lo, max(start + len(prod) - 1, f.n_max))
    resid[start - lo:start - lo + len(prod)] -= prod
    err = float(np.max(np.abs(resid)))
    if not err <= tol * max(map(abs, f.coeffs)):
        raise FactorizationFailed(
            f"winding {n}: round-trip residual {err:.3g} above tol {tol:g} "
            f"times max|f|")
    return f_plus, n, f_minus


def _chop(f, rel=1e-13):
    """Drop coefficients below ``rel`` times the largest one (sampling
    noise from the FFT-based steps)."""
    if f.is_zero():
        return f
    vals = np.asarray(f.coeffs, dtype=complex)
    mags = np.abs(vals)
    return LaurentGerm.from_array(
        f.n_min, np.where(mags > rel * mags.max(), vals, 0), f.radius)


class LoopMatrix:
    """2x2 matrix of complex-domain germs."""

    __slots__ = ("entries", "radius")

    def __init__(self, entries, radius=None):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ParseError("LoopMatrix must be 2x2")
        self.entries = rows
        if radius is None:
            radius = min(g.radius for row in rows for g in row)
        self.radius = radius

    @classmethod
    def identity(cls):
        one = LaurentGerm.one()
        zero = LaurentGerm.zero()
        return cls(((one, zero), (zero, one)))

    def __getitem__(self, idx):
        return self.entries[idx[0]][idx[1]]

    def mul(self, other, w=None):
        out = [[None, None], [None, None]]
        for i in range(2):
            for j in range(2):
                acc = LaurentGerm.zero()
                for k in range(2):
                    acc = acc + self.entries[i][k].mul(other.entries[k][j], w)
                out[i][j] = acc
        return LoopMatrix(out)

    def det(self, w=None):
        a, b = self.entries[0]
        c, d = self.entries[1]
        return a.mul(d, w) - b.mul(c, w)

    def allclose(self, other, tol=1e-9):
        return all(self.entries[i][j].allclose(other.entries[i][j], tol)
                   for i in range(2) for j in range(2))

    def max_abs(self):
        vals = [abs(c) for row in self.entries for g in row
                for _, c in g.items()]
        return max(vals) if vals else 0.0

    def band(self):
        los = [g.n_min for row in self.entries for g in row if not g.is_zero()]
        his = [g.n_max for row in self.entries for g in row if not g.is_zero()]
        if not los:
            return (0, 0)
        return min(los), max(his)

    def to_json(self):
        return {"size": 2,
                "entries": [[g.to_json() for g in row]
                            for row in self.entries]}

    @classmethod
    def from_json(cls, obj):
        rows = json_field(obj, "entries", "matrix")
        if obj.get("size") != 2:
            raise ParseError("only 2x2 loop matrices are supported")
        try:
            return cls([[LaurentGerm.from_json(g) for g in row]
                        for row in rows])
        except TypeError as exc:
            raise ParseError(f"bad matrix object: {exc}") from None


class Factorization:
    """Result of a matrix Birkhoff factorization."""

    __slots__ = ("f_plus", "indices", "f_minus")

    def __init__(self, f_plus, indices, f_minus):
        self.f_plus = f_plus
        self.indices = tuple(indices)
        self.f_minus = f_minus

    def middle(self):
        n1, n2 = self.indices
        m = LoopMatrix.identity()
        return LoopMatrix(((LaurentGerm.monomial(n1, 1.0), m[0, 1]),
                           (m[1, 0], LaurentGerm.monomial(n2, 1.0))))

    def reconstruct(self, w=None):
        return self.f_plus.mul(self.middle(), w).mul(self.f_minus, w)


def in_identity_component(F, nsamples=N_SAMPLES):
    """True when det(F) has winding number 0 on the circle."""
    return winding_number(F.det(None), nsamples) == 0


def _toeplitz_system(F, k, depth):
    """Toeplitz matrix of ``g -> (F g)`` below ``z^k``.

    Columns are the coefficients of g_0 then g_1 at z^-depth..z^0.  Row
    (r, e), for ``e_lo = band_lo - depth <= e < k``, holds the
    coefficient of z^e in (F g)_r: block (r, j) is ``F_rj[(e - e_lo) -
    m]``, the reversed sliding windows of length ``depth + 1`` over a
    dense coefficient array of F_rj starting at ``e_lo``, copied once.
    """
    e_lo = F.band()[0] - depth
    ne = max(k - e_lo, 0)
    coeffs = np.array([[F[r, j].to_array(e_lo, e_lo + ne + depth)
                        for j in range(2)] for r in range(2)])
    windows = sliding_window_view(coeffs, depth + 1, axis=2)[:, :, :ne, ::-1]
    return windows.transpose(0, 2, 1, 3).reshape(2 * ne, 2 * (depth + 1))


def _minus_factor_system(F, indices, i, depth):
    """Least-squares system ``(A, b)`` for column ``i`` of G.

    The unknowns are the coefficients of G_0i and G_1i at z^-depth..z^-1,
    then (column 0 when n1 > n2) the constant of G_10.  Row (r, e) asks
    the coefficient of z^e in (F G)[r, i] to vanish, for ``e < n_i``: the
    columns of ``_toeplitz_system`` at ``k = n_i`` for those unknowns,
    and minus the (j = i, z^0) column, since G_ii has constant 1.
    """
    T = _toeplitz_system(F, indices[i], depth)
    cols = list(range(depth)) + list(range(depth + 1, 2 * depth + 1))
    if i == 0 and indices[0] > indices[1]:
        cols.append(2 * depth + 1)
    return T[:, cols], -T[:, i * (depth + 1) + depth]


def _qr_solve(A, B):
    """Least-squares solution of ``A X = B`` (A of full column rank) from
    one Householder QR of ``[A, B]``: the leading block of R is R_A and
    the block beside it is ``Q_A^H B``, so Q is never formed."""
    n = A.shape[1]
    r = np.linalg.qr(np.hstack([A, B]), mode="r")
    return np.linalg.solve(r[:n, :n], r[:n, n:])


def _solve_minus_factor(F, n1, n2, depth):
    """Least squares solve for G = F_minus**-1 (minus type).

    Requires all negative Fourier coefficients of (F G)[:, i] * z**-n_i
    to vanish.  G is normalized to G(inf) = I when n1 == n2; for
    n1 > n2 the (2,1) entry keeps a free constant (the normalization
    at infinity is then unit lower triangular, the general form the
    sorted indices allow).  When n1 == n2 both columns share one matrix
    A and are solved by one QR with two right-hand sides.
    """
    entries = [[None, None], [None, None]]
    for cols in ([(0, 1)] if n1 == n2 else [(0,), (1,)]):
        systems = [_minus_factor_system(F, (n1, n2), i, depth) for i in cols]
        A = systems[0][0]
        B = np.column_stack([b for _, b in systems])
        try:
            sols = _qr_solve(A, B)
        except np.linalg.LinAlgError:
            sols, *_ = np.linalg.lstsq(A, B, rcond=None)
        for i, sol in zip(cols, sols.T):
            for j in range(2):
                const = 1.0 if j == i else 0.0
                if j == 1 and i == 0 and n1 > n2:
                    const = sol[2 * depth]
                entries[j][i] = LaurentGerm.from_array(
                    -depth, np.append(sol[j * depth:(j + 1) * depth], const))
    return LoopMatrix(entries)


def _decay_rate(f):
    """Rate rho at which the plus and minus parts split from ``f``
    decay: the largest |zero| of ``f`` inside the unit circle or the
    inverse of the smallest |zero| outside it, whichever is larger; 0
    for a monomial."""
    r = np.abs(np.roots(np.asarray(f.coeffs)[::-1]))
    return float(max(np.max(r[r < 1], initial=0.0),
                     1.0 / np.min(r[r >= 1], initial=np.inf)))


def _depth(rho, eps, floor, cap):
    """Smallest depth d with ``rho**d <= eps``, clipped to [floor, cap]."""
    if rho <= 0.0:
        return floor
    if rho >= 1.0:
        return cap
    return min(max(math.ceil(math.log(eps) / math.log(rho)), floor), cap)


def birkhoff_matrix2(F, w=None, nsamples=2 * N_SAMPLES, tol=1e-9):
    """Birkhoff factorization ``F = F_plus * diag(z^n1, z^n2) * F_minus``.

    ``F`` must be a 2x2 Laurent-polynomial loop with determinant bounded
    away from zero on the unit circle.  With ``n = n1 + n2`` the winding
    of det F, the larger index ``n1`` is ``floor(n/2)`` plus the kernel
    dimension of the Toeplitz map ``g -> (F g)`` below ``z^(floor(n/2)
    + 1)`` on columns g with exponents ``-depth..0`` (Gohberg-Krein;
    Adukov).

    The depth comes from rho, the decay rate of F_minus and its inverse
    set by the zeros of det F (see :func:`_decay_rate`): the solve runs
    at the smallest depth with ``rho**depth <= 1e-3 tol`` and reads the
    indices at the shorter depth where ``rho**depth <= 1e-2
    KERNEL_RTOL``, both at least ``-w.lo`` (8 when ``w`` is not given)
    and at most ``cap = 16 (-w.lo)`` (``w`` the default window when not
    given).  The pair is validated by the reconstruction residual, held
    to ``tol`` times ``max|F|``, and by the invertibility of ``F_plus``
    at 0.  When that fails the depth doubles, reading the indices at the
    full depth, up to ``cap``: at most five steps.  Raises
    :class:`FactorizationFailed` naming the last pair and residual when
    no step passes.
    """
    det = F.det(None)
    n_total = winding_number(det, max(nsamples, N_SAMPLES))
    scale = max(F.max_abs(), 1e-300)
    lo_band, hi_band = F.band()
    floor = 8 if w is None else -w.lo
    if w is None:
        bw = max(abs(lo_band), abs(hi_band), 1)
        w = window(-8 * bw - 16, 8 * bw + 16)
    cap = (-w.lo) << 4
    rho = _decay_rate(det)
    depth = _depth(rho, 1e-3 * tol, floor, cap)
    read = _depth(rho, 1e-2 * KERNEL_RTOL, floor, depth)

    def attempt(n1, n2, depth):
        G = _solve_minus_factor(F, n1, n2, depth)
        FG = F.mul(G, None)
        F_plus = LoopMatrix([[_chop(truncate_ge(FG[r, i].mul(
            LaurentGerm.monomial(-(n1, n2)[i], 1.0), None), 0))
            for i in range(2)] for r in range(2)])
        det0 = (F_plus[0, 0].coeff_at(0) * F_plus[1, 1].coeff_at(0)
                - F_plus[0, 1].coeff_at(0) * F_plus[1, 0].coeff_at(0))
        if abs(det0) <= 1e-10 * scale * scale:
            return None, math.inf
        # invert G through its adjugate; det(G) is minus type with
        # value 1 at infinity, so the reciprocal is sampled stably.
        wd = window(-depth, 0)
        det_g = G.det(None)
        det_inv = reciprocal_coeffs(det_g, wd,
                                    nsamples=max(4 * N_SAMPLES, 4 * depth))
        adj = LoopMatrix([[G[1, 1], G[0, 1].scale(-1.0)],
                          [G[1, 0].scale(-1.0), G[0, 0]]])
        F_minus = LoopMatrix([[_chop(adj[i, j].mul(det_inv, wd))
                               for j in range(2)] for i in range(2)])
        fact = Factorization(F_plus, (n1, n2), F_minus)
        recon = fact.reconstruct(None)
        lo, hi = recon.band()
        lo, hi = min(lo, lo_band), max(hi, hi_band)
        err = float(np.max(np.abs([recon[i, j].to_array(lo, hi)
                                   - F[i, j].to_array(lo, hi)
                                   for i in range(2) for j in range(2)])))
        return fact, err

    for step in range(5):
        # n1 is floor(n/2) plus the kernel dimension at k = floor(n/2) + 1
        T = _toeplitz_system(F, n_total // 2 + 1, read)
        sv = np.linalg.svd(T, compute_uv=False)
        n1 = n_total // 2 + T.shape[1] - int(np.count_nonzero(
            sv >= KERNEL_RTOL * sv[0]))
        n2 = n_total - n1
        fact, err = attempt(n1, n2, depth)
        if fact is not None and err <= tol * scale:
            return fact
        if depth == cap:
            break
        # a misread pair or a slower decay than rho predicts: read the
        # kernel at the full depth from here on; the fifth step is the cap
        depth = read = cap if step == 3 else min(2 * depth, cap)
    raise FactorizationFailed(
        f"partial indices ({n1}, {n2}): round-trip residual {err:.3g} "
        f"above tol {tol:g} times max|F| at depth {depth}")
