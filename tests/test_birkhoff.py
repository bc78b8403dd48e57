"""Winding numbers and scalar / 2x2 factorization round trips."""

import random

import pytest

import hatloop.birkhoff as birkhoff
from hatloop.birkhoff import (
    LoopMatrix, birkhoff_matrix2, birkhoff_scalar, in_identity_component,
    log_coeffs, reciprocal_coeffs, winding_number,
)
from hatloop.errors import FactorizationFailed, SingularLoop
from hatloop.germs import LaurentGerm, germ_exp, window

W = window(-8, 8)


def g(d):
    return LaurentGerm.from_dict(d)


def test_winding_monomials():
    for n in (-3, -1, 0, 2, 5):
        assert winding_number(LaurentGerm.monomial(n)) == n


def test_winding_shifted_zeros():
    # zero outside the unit circle does not wind, zero inside does
    assert winding_number(g({0: -2, 1: 1})) == 0
    assert winding_number(g({0: -0.5, 1: 1})) == 1


def test_winding_singular():
    with pytest.raises(SingularLoop):
        winding_number(g({0: -1, 1: 1}))  # vanishes at z = 1


def test_reciprocal():
    inv = reciprocal_coeffs(g({-1: 0.5, 0: 1}), window(-6, 0))
    # geometric series in z^{-1}
    for k in range(5):
        assert abs(inv.coeff_at(-k) - (-0.5) ** k) < 1e-12


def test_log_exp_roundtrip():
    u = g({1: 0.3, 2: -0.1j})
    f = germ_exp(u, W)
    assert log_coeffs(f, W).allclose(u, 1e-12)


def test_scalar_factorization_basic():
    f = g({-1: 0.2, 0: 1.5, 1: 0.3, 3: 0.05})
    f_plus, n, f_minus = birkhoff_scalar(f, W)
    assert n == winding_number(f)
    assert abs(f_minus.coeff_at(0) - 1) < 1e-12  # normalized at infinity
    assert f_plus.n_min >= 0 and f_minus.n_max <= 0
    recon = f_plus.mul(LaurentGerm.monomial(n), W).mul(f_minus, W)
    assert recon.allclose(f, 1e-10)


def test_scalar_factorization_with_winding():
    f = g({1: 2.0, 2: 0.4, 3: -0.1})  # = z * (2 + ...)
    _, n, _ = birkhoff_scalar(f, W)
    assert n == 1


@pytest.mark.parametrize("r", [0.99, 0.995, 0.999])
def test_scalar_near_circle_zero_round_trips_or_raises(r):
    # f = (1 - r z)(1 - 0.2/z): log f decays like r^n, so a fixed sample
    # count aliases the plus part into the minus part
    f = g({-1: -0.2, 0: 1 + 0.2 * r, 1: -r})
    tol = 1e-9
    try:
        f_plus, n, f_minus = birkhoff_scalar(f, tol=tol)
    except FactorizationFailed:
        return
    recon = f_plus.mul(LaurentGerm.monomial(n), None).mul(f_minus, None)
    err = max(abs(c) for _, c in (recon - f).items())
    assert err <= tol * max(abs(c) for _, c in f.items())


def test_matrix_identity_and_det():
    eye = LoopMatrix.identity()
    assert in_identity_component(eye)
    assert eye.det().allclose(LaurentGerm.one(), 1e-14)
    T = LoopMatrix([[LaurentGerm.monomial(1), LaurentGerm.zero()],
                    [LaurentGerm.zero(), LaurentGerm.monomial(-1)]])
    assert winding_number(T.det()) == 0
    assert not in_identity_component(
        LoopMatrix([[LaurentGerm.monomial(1), LaurentGerm.zero()],
                    [LaurentGerm.zero(), LaurentGerm.one()]]))


def test_matrix_diagonal_twist():
    F = LoopMatrix([[LaurentGerm.monomial(2), LaurentGerm.zero()],
                    [LaurentGerm.zero(), LaurentGerm.monomial(-1)]])
    fact = birkhoff_matrix2(F, W)
    assert fact.indices == (2, -1)
    assert sum(fact.indices) == winding_number(F.det())


def _random_matrix(rng):
    entries = []
    for i in range(2):
        row = []
        for j in range(2):
            d = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 / (1 + abs(n)) * 0.4 for n in range(-3, 4)}
            if i == j:
                d[0] = d.get(0, 0) + 3.0
            row.append(g(d))
        entries.append(row)
    return LoopMatrix(entries)


def test_matrix_factorization_roundtrip():
    rng = random.Random(99)
    for _ in range(3):
        F = _random_matrix(rng)
        fact = birkhoff_matrix2(F, window(-10, 10))
        n1, n2 = fact.indices
        assert n1 >= n2
        assert n1 + n2 == winding_number(F.det())
        recon = fact.reconstruct(window(-10, 10))
        err = max(abs(recon.entries[i][j].coeff_at(n)
                      - F.entries[i][j].coeff_at(n))
                  for i in range(2) for j in range(2)
                  for n in range(-10, 11))
        assert err <= 1e-9


def _perturbation(rng, exponents):
    return g({n: complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
              for n in exponents})


def _split_loop(a, b, seed):
    """``P diag(z^a, z^b) M`` with P = I + (exponents 0..2) and M = I +
    (diagonal exponents -2..0, off-diagonal -2..-1).  Every coefficient
    is at most 0.05 in real and imaginary part, so |det - 1| < 0.6 for
    det P on the closed unit disc and det M outside it: the partial
    indices are exactly (a, b)."""
    rng = random.Random(seed)
    one = LaurentGerm.one()
    P = LoopMatrix([[one + _perturbation(rng, range(3)) if i == j
                     else _perturbation(rng, range(3)) for j in range(2)]
                    for i in range(2)])
    M = LoopMatrix([[one + _perturbation(rng, range(-2, 1)) if i == j
                     else _perturbation(rng, range(-2, 0)) for j in range(2)]
                    for i in range(2)])
    D = LoopMatrix([[LaurentGerm.monomial(a), LaurentGerm.zero()],
                    [LaurentGerm.zero(), LaurentGerm.monomial(b)]])
    return P.mul(D).mul(M)


def _near_circle_loop(a, coupled):
    """``P diag(z^a, z^-a) M`` with a zero of det M at 0.9 or 0.877, so
    that F_minus^-1 decays slowly: the kernel vector's tail at the
    starting depth is far above KERNEL_RTOL."""
    if not coupled:
        P = LoopMatrix.identity()
        M = LoopMatrix([[g({0: 1, -1: -0.9}), g({})], [g({}), g({0: 1})]])
    else:
        P = LoopMatrix([[g({0: 1}), g({1: 0.3})],
                        [g({1: 0.2}), g({0: 1, 2: 0.06})]])
        M = LoopMatrix([[g({0: 1, -1: -0.9}), g({-1: 0.4})],
                        [g({-1: -0.05}), g({0: 1})]])
    D = LoopMatrix([[LaurentGerm.monomial(a), LaurentGerm.zero()],
                    [LaurentGerm.zero(), LaurentGerm.monomial(-a)]])
    return P.mul(D).mul(M)


_SPLIT_CASES = [pytest.param(_split_loop(a, b, seed=100 * a - b), (a, b),
                             None, id=f"{a},{b}")
                for a, b in [(0, 0), (1, 0), (2, 0), (4, -2), (5, -5),
                             (8, -8), (9, -8), (12, 0), (20, -20)]]
_SPLIT_CASES += [pytest.param(_near_circle_loop(a, coupled), (a, -a), w,
                              id=f"near-{a},{-a}-{kind}-{wid}")
                 for a, coupled, kind in [(1, False, "diag"),
                                          (1, True, "coupled"),
                                          (2, True, "coupled")]
                 for w, wid in [(None, "auto"), (window(-12, 12), "w12")]]
_SPLIT_CASES += [pytest.param(_split_loop(3, -2, seed=5), (3, -2),
                              window(-2, 2), id="3,-2-w2")]


@pytest.mark.parametrize("F,indices,w", _SPLIT_CASES)
def test_matrix_split_indices(F, indices, w):
    fact = birkhoff_matrix2(F, w)
    assert fact.indices == indices
    recon = fact.reconstruct()
    lo, hi = F.band()
    lo, hi = min(lo, recon.band()[0]), max(hi, recon.band()[1])
    err = max(abs(recon[i, j].coeff_at(n) - F[i, j].coeff_at(n))
              for i in range(2) for j in range(2) for n in range(lo, hi + 1))
    assert err <= 1e-9
    # F_minus(inf) is unit lower triangular
    at_inf = [[fact.f_minus[i, j].coeff_at(0) for j in range(2)]
              for i in range(2)]
    assert abs(at_inf[0][0] - 1) < 1e-12 and abs(at_inf[1][1] - 1) < 1e-12
    assert abs(at_inf[0][1]) < 1e-12
    assert all(fact.f_minus[i, j].n_max <= 0
               for i in range(2) for j in range(2))


def test_matrix_unreachable_tol_names_the_pair():
    F = _split_loop(2, -1, seed=3)
    with pytest.raises(FactorizationFailed, match=r"\(2, -1\)"):
        birkhoff_matrix2(F, W, tol=1e-300)


def _scaled(F, s):
    return LoopMatrix([[F[i, j].scale(s) for j in range(2)] for i in range(2)])


@pytest.mark.parametrize("s", [1e-8, 1e8])
def test_matrix_factorization_is_scale_free(s):
    # the singularity test and the round trip are relative to max|F|:
    # an absolute EPS_ZERO and tol used to reject both scales
    rng = random.Random(17)
    for F in [_random_matrix(rng), _split_loop(3, -2, seed=5)]:
        Fs = _scaled(F, s)
        fact = birkhoff_matrix2(Fs)
        assert fact.indices == birkhoff_matrix2(F).indices
        recon = fact.reconstruct()
        err = max(abs(c) for i in range(2) for j in range(2)
                  for _, c in (recon[i, j] - Fs[i, j]).items())
        assert err <= 1e-9 * Fs.max_abs()


def test_scalar_factorization_is_scale_free():
    f = g({-2: 0.1, -1: 0.2, 0: 1.5, 1: 0.3, 3: 0.05, 4: -0.2j})
    _, n_ref, _ = birkhoff_scalar(f)
    f_plus, n, f_minus = birkhoff_scalar(f.scale(1e-14))
    assert n == n_ref
    recon = f_plus.mul(LaurentGerm.monomial(n), None).mul(f_minus, None)
    assert recon.allclose(f.scale(1e-14), 1e-9 * 1e-14)


def test_singular_matrix_loop_still_raises():
    F = LoopMatrix([[g({0: -1, 1: 1}), g({})], [g({}), g({0: 2.0})]])
    with pytest.raises(SingularLoop):
        birkhoff_matrix2(F)
    with pytest.raises(SingularLoop):
        birkhoff_matrix2(_scaled(F, 1e-8))


def _unimodular_loop():
    """Lower, upper and lower unitriangular factors: det F is 1 up to
    rounding, so rho is about 1e-17 and the first depth is short enough
    for the ladder to double."""
    one = LaurentGerm.one()

    def lower(q):
        return LoopMatrix([[one, g({})], [g(q), one]])

    upper = LoopMatrix([[one, g({1: 0.3, 2: 0.1})], [g({}), one]])
    return lower({-1: 0.2}).mul(upper).mul(lower({-1: 0.7, -2: 0.3}))


@pytest.mark.parametrize("F,w", [
    (_near_circle_loop(1, False), None),
    (_split_loop(2, -1, seed=3), W),
    (_unimodular_loop(), window(-4, 4)),
], ids=["near-circle-auto", "split-w8", "unimodular-w4"])
def test_matrix_depth_ladder_is_bounded(F, w, monkeypatch):
    # at an unreachable tol the depth ladder stops at 16 (-w.lo) (w the
    # default window when none is given) after at most five steps
    depths, steps = [], []
    toeplitz, solve = birkhoff._toeplitz_system, birkhoff._solve_minus_factor
    monkeypatch.setattr(birkhoff, "_toeplitz_system", lambda F, k, depth: (
        depths.append(depth), toeplitz(F, k, depth))[1])
    monkeypatch.setattr(birkhoff, "_solve_minus_factor", lambda *a: (
        steps.append(a[-1]), solve(*a))[1])
    if w is None:
        bw = max(map(abs, F.band()))
        cap = (8 * bw + 16) << 4
    else:
        cap = (-w.lo) << 4
    with pytest.raises(FactorizationFailed):
        birkhoff_matrix2(F, w, tol=1e-300)
    assert max(depths) <= cap and steps[-1] == cap
    assert 1 <= len(steps) <= 5


def test_matrix_one_solve_per_well_separated_loop(monkeypatch):
    # det F has no zero near the circle, so the depth from rho passes on
    # the first step
    calls = []
    solve = birkhoff._solve_minus_factor
    monkeypatch.setattr(birkhoff, "_solve_minus_factor", lambda *a: (
        calls.append(a), solve(*a))[1])
    rng = random.Random(2024)
    for n in range(1, 21):
        birkhoff_matrix2(_random_matrix(rng))
        assert len(calls) == n


@pytest.mark.parametrize("coeffs,rho", [
    ({0: 1, -1: -0.5}, 0.5),   # zero at 0.5
    ({0: 1, 1: -0.4}, 0.4),    # zero at 2.5
    ({3: 2.0}, 0.0),           # monomial: no zeros
    # (z - a)(z - b) / z: the larger of a and 1 / b
    ({-1: 1.25, 0: -3.0, 1: 1.0}, 0.5),  # zeros at 0.5 and 2.5
    ({-1: 0.5, 0: -2.7, 1: 1.0}, 0.4),   # zeros at 0.2 and 2.5
])
def test_decay_rate(coeffs, rho):
    assert abs(birkhoff._decay_rate(g(coeffs)) - rho) < 1e-12
