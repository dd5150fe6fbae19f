"""Capacities, contents and equilibrium certificates.

2x2 oracles by hand: for ``[[1, 1/2], [1/2, 1]]`` the balanced measure
``(2/3, 2/3)`` has potential one everywhere, so the mass capacity, the
covering content and the quadratic capacity all equal 4/3.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from potbench import (
    DomainError,
    Kernel,
    Measure,
    Space,
    cap0,
    capacity_null_check,
    content,
    energy,
    potential,
    wiener_cap1,
)
from potbench import capacity, principles
from potbench.capacity import SLACK_TOL, _enumerate_supports, _slack_certificate
from potbench.gallery import SampledKernelSpec, build_sampled
from potbench.simplex import LpProblem, solve_lp
from conftest import metric_power_kernel, rand_gram_kernel, rand_kernel


HALF = Kernel(Space.of_size(2), [[1.0, 0.5], [0.5, 1.0]])


def test_cap0_oracle():
    res = cap0(HALF, [0, 1])
    assert res.value == pytest.approx(4.0 / 3.0, abs=1e-10)
    # G (2/3, 2/3) = 1 with nonnegative weights: certified, no LP solved
    assert res.method == "slackness" and res.dual_value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert res.extremal.weights == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-10)
    assert cap0(HALF, [0]).value == pytest.approx(1.0, abs=1e-12)


def test_cap0_identity_and_ones():
    for n in (1, 3, 5):
        eye = Kernel(Space.of_size(n), np.eye(n))
        assert cap0(eye, range(n)).value == pytest.approx(float(n), abs=1e-10)
        ones = Kernel(Space.of_size(n), np.ones((n, n)))
        assert cap0(ones, range(n)).value == pytest.approx(1.0, abs=1e-10)


def test_content_oracle():
    res = content(HALF, [0, 1])
    assert res.value == pytest.approx(4.0 / 3.0, abs=1e-10)
    # covering potential really covers
    pot = potential(HALF, res.extremal)
    assert (pot >= 1.0 - 1e-9).all()


def test_cap0_content_asymmetric_duality():
    k = Kernel(Space.of_size(2), [[1.0, 2.0], [0.25, 1.0]])
    a = cap0(k, [0, 1]).value
    b = content(k, [0, 1]).value
    assert a == pytest.approx(1.0, abs=1e-10)
    assert b == pytest.approx(1.0, abs=1e-10)


def test_cap0_subset_monotone():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = rand_kernel(rng, 6, zero_frac=0.1)
        small = cap0(k, [0, 1]).value
        big = cap0(k, [0, 1, 2, 3]).value
        assert small <= big + 1e-9


def test_cap0_forces_mass_off_infinite_rows():
    g = np.array([[np.inf, 1.0], [1.0, 1.0]])
    res = cap0(Kernel(Space.of_size(2), g), [0, 1])
    # any mass at 0 makes its own adjoint potential infinite
    assert res.extremal.weights[0] == 0.0
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_cap0_zero_row_unbounded():
    g = np.array([[0.0, 0.0], [1.0, 1.0]])
    res = cap0(Kernel(Space.of_size(2), g), [0, 1])
    assert res.value == np.inf and res.extremal is None
    assert not res.attained


def test_cap0_all_rows_infinite():
    g = np.array([[np.inf, 1.0], [1.0, np.inf]])
    res = cap0(Kernel(Space.of_size(2), g), [0, 1])
    assert res.value == 0.0 and res.dual_value == 0.0
    assert res.extremal.is_zero and res.attained


def test_content_unreachable_point():
    g = np.array([[0.0, 0.0], [0.0, 1.0]])
    res = content(Kernel(Space.of_size(2), g), [0])
    assert res.value == np.inf
    assert not res.attained


@pytest.mark.parametrize("seed", range(15))
def test_cap0_against_scipy(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 7))
    k = rand_kernel(rng, n, zero_frac=0.2)
    K = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    ours = cap0(k, K).value
    # oracle: maximize sum mu over mu >= 0 supported on K, G^T mu <= 1
    A = k.entries.T[:, K]
    res = linprog(-np.ones(len(K)), A_ub=A, b_ub=np.ones(n), bounds=[(0, None)] * len(K), method="highs")
    if res.status == 3:
        assert ours == np.inf
    else:
        assert res.status == 0
        assert ours == pytest.approx(-res.fun, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("seed", range(15))
def test_content_against_scipy(seed):
    # an oracle independent of cap0's solve; with 40 % zeros, 2 of the 15
    # covering LPs are infeasible
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 7))
    k = rand_kernel(rng, n, zero_frac=0.4)
    K = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    ours = content(k, K).value
    # oracle: minimize lam(space) over lam >= 0 with G lam >= 1 on K
    res = linprog(np.ones(n), A_ub=-k.entries[K], b_ub=-np.ones(len(K)),
                  bounds=[(0, None)] * n, method="highs")
    if res.status == 2:
        assert ours == np.inf
    else:
        assert res.status == 0
        assert ours == pytest.approx(res.fun, rel=1e-8, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7),
       st.sampled_from(["metric", "symmetric", "asymmetric"]))
def test_content_is_cap0s_dual(seed, n, kind):
    # content is read from cap0's solve: on every subset its value is cap0's
    # dual value and its dual value cap0's value, bit for bit
    kernel = _kernel_of_kind(np.random.default_rng(seed), n, kind)
    for m in range(1, 2**n):
        K = [j for j in range(n) if m >> j & 1]
        res, cres = cap0(kernel, K), content(kernel, K)
        assert cres.value == res.dual_value and cres.dual_value == res.value
        assert np.isinf(cres.value) == np.isinf(res.value)
        assert cres.method == res.method


def test_content_with_entries_near_the_largest_float():
    # the certificate declines; the LP has no phase-1 row to overflow
    k = Kernel(Space.of_size(3), [[1.0, 0.5, 1e308], [0.5, 1.0, 1e308], [1.0, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = content(k, [0, 1])
    assert (res.value, res.method) == (1e-308, "lp")


def _lp_cap0(G, F):
    """cap0 on the finite rows ``F`` by its LP alone, as before the certificate."""
    n = G.shape[0]
    sol = solve_lp(LpProblem(np.ones(F.size), G[F].T, np.ones(n)))
    return float("inf") if sol.status == "unbounded" else max(sol.value, 0.0)


def _kernel_of_kind(rng, n, kind):
    if kind == "metric":
        return metric_power_kernel(rng, n, power=float(rng.choice([0.7, 1.0, 2.0, 3.0])))
    return rand_kernel(rng, n, zero_frac=float(rng.choice([0.0, 0.2, 0.4])),
                       inf_frac=float(rng.choice([0.0, 0.05, 0.15])),
                       symmetric=kind == "symmetric")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7),
       st.sampled_from(["metric", "symmetric", "asymmetric"]))
def test_slack_certificate_agrees_with_the_lp(seed, n, kind):
    # on every subset: an accepted certificate is a feasible primal-dual pair
    # whose value is the LP's; a declined one leaves cap0 and content to the LP
    rng = np.random.default_rng(seed)
    kernel = _kernel_of_kind(rng, n, kind)
    G = kernel.entries
    for m in range(1, 2**n):
        K = np.flatnonzero([m >> j & 1 for j in range(n)])
        F = K[np.isfinite(G[K]).all(axis=1)]
        lp = _lp_cap0(G, F)
        res, cres = cap0(kernel, K), content(kernel, K)
        cert = _slack_certificate(G, F) if F.size else None
        if cert is None:
            assert res.method == "lp" and res.value == lp
            continue
        mu, lam = cert
        assert (mu >= 0).all() and (mu @ G[F] <= 1.0 + SLACK_TOL).all()
        assert (lam >= 0).all() and (G[np.ix_(F, F)] @ lam >= 1.0 - SLACK_TOL).all()
        assert [res.method, cres.method] == ["slackness", "slackness"]
        for value in (res.value, res.dual_value, cres.value, cres.dual_value):
            assert value == pytest.approx(lp, rel=1e-12)
        assert res.value == mu.sum() and cres.value == lam.sum()


def test_certified_cap0_is_free_of_scale():
    # cap0(t G) = cap0(G) / t; the LP alone read +inf at t = 1.4e-16 on
    # kernels where the answer is about 0.2, and is wrong on most of these
    rng = np.random.default_rng(28)
    certified = 0
    for _ in range(60):
        n = int(rng.integers(3, 8))
        kernel = metric_power_kernel(rng, n, power=float(rng.choice([0.7, 1.0, 2.0])))
        K = np.flatnonzero(rng.uniform(size=n) < 0.6)
        t = 10.0 ** rng.uniform(-150, 150)
        if K.size == 0 or _slack_certificate(kernel.entries, K) is None:
            continue
        certified += 1
        scaled = Kernel(kernel.space, t * kernel.entries)
        for capacity in (cap0, content):
            base, res = capacity(kernel, K), capacity(scaled, K)
            assert res.method == base.method == "slackness"
            assert res.value * t == pytest.approx(base.value, rel=1e-12)
    assert certified >= 40


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.booleans(), st.integers(-300, 300))
@example(0, 4, False, -30)
@example(0, 4, False, 25)
def test_capacities_are_free_of_power_of_two_scale(seed, n, symmetric, k):
    # cap0, content and cap1 are of degree -1 in G, and a power of two scales
    # exactly: at 2^k G each reads 2^-k times its value at G, bit for bit, by
    # the same method.  The LP fallback solves on its matrix over a power of
    # two; on the bare matrix the simplex's absolute tolerance read another
    # attained flag at 2^-30 G, and 1.5378 for 1.5090 at 2^25 G (the examples)
    rng = np.random.default_rng(seed)
    kernel = rand_kernel(rng, n, zero_frac=0.2, inf_frac=float(rng.choice([0.0, 0.05, 0.15])),
                         symmetric=symmetric)
    scaled = Kernel(kernel.space, np.ldexp(kernel.entries, k))
    for m in rng.choice(np.arange(1, 2**n), size=min(8, 2**n - 1), replace=False):
        K = np.flatnonzero([m >> j & 1 for j in range(n)])
        for capacity in (cap0, content, wiener_cap1)[:3 if symmetric else 2]:
            base, res = capacity(kernel, K), capacity(scaled, K)
            assert (res.method, res.attained) == (base.method, base.attained)
            assert math.ldexp(res.value, k) == base.value


def test_slack_certificate_declines_an_overflowing_potential():
    # mu = 1e200 on {0} solves G_FF' mu = 1, but its potential at 1 overflows:
    # declined without a warning, and the LP finds cap0 = 1e-200
    k = Kernel(Space.of_size(2), [[1e-200, 1e200], [1e200, 1e-200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = [cap0(k, [0]), content(k, [0])]
    assert [(r.value, r.method) for r in results] == [(1e-200, "lp")] * 2


def test_certified_potential_matrices_take_slackness_on_every_subset():
    # a symmetric kernel that passes principles._potential_certificate
    # satisfies the complete maximum principle on every block G_KK, so G_KK z
    # = 1 has a solution z >= 0 whose potential is <= 1 everywhere.  Its exact
    # zeros compute as about -1e-17 here, which the certificate clips: before,
    # it declined 807-859 of the 1,023 subsets of each kernel.  The values
    # match the LP's
    for seed in range(3):
        G = build_sampled(SampledKernelSpec("interval_green", 10, seed=seed)).entries
        assert principles._potential_certificate(G) is not None
        for m in range(1, 2**10):
            K = np.flatnonzero([m >> j & 1 for j in range(10)])
            value, *_, method = capacity._cap0(G, K)
            assert method == "slackness"
            if seed == 0:
                assert value == pytest.approx(_lp_cap0(G, K), rel=1e-12)


def test_wiener_oracle():
    res = wiener_cap1(HALF, [0, 1])
    assert res.value == pytest.approx(4.0 / 3.0, abs=1e-8)
    lam = res.extremal
    assert energy(HALF, lam) == pytest.approx(res.value, abs=1e-8)
    assert lam.total == pytest.approx(res.value, abs=1e-8)
    certs = res.certificates
    assert certs.max_potential_on_support <= 1.0 + 1e-8
    assert certs.below_one_capacity <= 1e-8
    assert certs.off_equality_mass <= 1e-8


def test_wiener_identity():
    eye = Kernel(Space.of_size(3), np.eye(3))
    assert wiener_cap1(eye, [0, 1, 2]).value == pytest.approx(3.0, abs=1e-8)


def test_wiener_singletons():
    k = Kernel(Space.of_size(2), [[4.0, 1.0], [1.0, 0.25]])
    a = wiener_cap1(k, [0])
    assert a.value == 0.25 and a.method == "reciprocal"
    b = wiener_cap1(k, [1])
    assert b.value == 4.0


def test_wiener_infinite_diagonal_excluded():
    g = np.array([[np.inf, 1.0], [1.0, 2.0]])
    res = wiener_cap1(Kernel(Space.of_size(2), g), [0])
    assert res.value == 0.0
    assert res.method == "excluded"
    # with a usable partner the infinite point drops out instead
    both = wiener_cap1(Kernel(Space.of_size(2), g), [0, 1])
    assert both.value == pytest.approx(0.5, abs=1e-8)


def test_wiener_zero_diagonal_unbounded():
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = wiener_cap1(Kernel(Space.of_size(2), g), [0, 1])
    assert res.value == np.inf
    assert res.method == "unbounded-diagonal"
    assert not res.attained


def _symmetric_uniform(rng, n, inf_frac=0.0):
    g = np.triu(rng.uniform(0.1, 3.0, size=(n, n)))
    if inf_frac:
        g[np.triu(rng.uniform(size=(n, n)) < inf_frac, 1)] = np.inf
    return Kernel(Space.of_size(n), g + np.triu(g, 1).T)


def test_wiener_heuristic_path_infinite_entries():
    # above ENUM_LIMIT and +inf off-diagonal entries: the heuristic path; its
    # energy takes 0 * inf = 0, and no singleton beats it
    for seed, n in [(1, 13), (2, 13), (3, 15), (4, 15)]:
        k = _symmetric_uniform(np.random.default_rng(seed), n, inf_frac=0.05)
        res = wiener_cap1(k, list(range(n)))
        assert res.method == "heuristic" and not res.attained
        assert res.value >= (1.0 / np.diag(k.entries)).max()
        assert energy(k, res.extremal) == pytest.approx(
            2.0 * res.extremal.total - res.value, rel=1e-12)
        if n == 13:
            assert res.value == pytest.approx(_enumerate_supports(k.entries)[1], rel=1e-12)


@pytest.mark.parametrize("seed", [9, 11, 23, 30, 38, 56])
def test_wiener_heuristic_path_matches_enumeration(seed):
    # 13 points, one past ENUM_LIMIT, on a non-PSD kernel: the grown
    # equilibria reach the enumerated optimum
    k = _symmetric_uniform(np.random.default_rng(seed), 13)
    res = wiener_cap1(k, list(range(13)))
    assert res.method == "heuristic"
    assert res.value == pytest.approx(_enumerate_supports(k.entries)[1], rel=1e-12)


def _wiener_family(kind, rng, n):
    """Symmetric kernels, non-PSD but for rare draws: uniform entries with 20 %
    zeros off the diagonal, ``uniform(0, 1)^4`` entries, uniform entries with
    5 % ``+inf`` off the diagonal, 40 % zeros, or 20 % zeros and 5 % ``+inf``."""
    g = rng.uniform(0.0, 1.0, (n, n)) ** 4 if kind == 1 else rng.uniform(0.1, 3.0, (n, n))
    off = ~np.eye(n, dtype=bool)
    if kind in (0, 3, 4):
        g[off & (rng.uniform(size=(n, n)) < (0.4 if kind == 3 else 0.2))] = 0.0
    if kind in (2, 4):
        g[off & (rng.uniform(size=(n, n)) < 0.05)] = np.inf
    g = np.triu(g)
    return Kernel(Space.of_size(n), g + np.triu(g, 1).T)


@pytest.mark.parametrize("kind, seed", [(0, 25), (1, 49), (3, 83)])
def test_wiener_growth_reaches_the_optimum(kind, seed):
    # 13 points, non-PSD: the best active-set KKT point over every start read
    # 0.81, 0.96 and 0.60 of the optimum here; the growth reaches it
    k = _wiener_family(kind, np.random.default_rng([kind, seed]), 13)
    res = wiener_cap1(k, range(13))
    assert res.method == "heuristic" and not res.attained
    assert res.value == _enumerate_supports(k.entries)[1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(13, 16), st.integers(0, 2**32 - 1))
def test_wiener_heuristic_is_a_certified_lower_bound(kind, n, seed):
    # the grown equilibria are feasible points: never above the enumerated
    # optimum, never below the best singleton, and worth their own objective
    k = _wiener_family(kind, np.random.default_rng(seed), n)
    res = wiener_cap1(k, range(n))
    assume(res.method == "heuristic")
    best = _enumerate_supports(k.entries)[1]
    assert res.value <= best + 4 * np.spacing(best)
    assert res.value >= (1.0 / np.diag(k.entries)).max()
    lam = res.extremal
    assert 2.0 * lam.total - energy(k, lam) == pytest.approx(res.value, rel=1e-12)


@pytest.mark.parametrize("e", [-40, 40])
def test_wiener_psd_test_is_free_of_scale(e):
    # 2^e G takes the path of G and reads cap1(G) / 2^e, bit for bit: a
    # non-PSD kernel stays with the enumeration (its least eigenvalue, -1.85
    # 2^e, passed an absolute -1e-10 at e = -40, and the active set read 2.87
    # for 5.32), rank-one kernels with the active set (the 13-point one
    # failed the absolute test at e = 40)
    f = np.random.default_rng(0).uniform(0.5, 2.0, 13)
    g = np.triu(np.random.default_rng(3).uniform(0.1, 3.0, (6, 6)))
    for G in (g + np.triu(g, 1).T, np.outer(f[:6], f[:6]), np.outer(f, f)):
        space = Space.of_size(len(G))
        base = wiener_cap1(Kernel(space, G), space.points)
        res = wiener_cap1(Kernel(space, 2.0**e * G), space.points)
        assert (res.method, res.attained) == (base.method, base.attained)
        assert res.value * 2.0**e == base.value
    assert base.method == "qp"


def test_psd_test_with_a_zero_diagonal():
    # a zero diagonal entry is PSD only with a zero row and column, at any
    # scale: a point at no interaction leaves the test to the others, and a
    # point that interacts fails it (its 2 x 2 minor is negative)
    loose = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    tied = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    for e in (-40, 0, 40):
        assert capacity._exact_qp(2.0**e * loose)
        assert not capacity._exact_qp(2.0**e * tied)
    assert capacity._exact_qp(np.zeros((2, 2)))


def test_wiener_rank_one_kernel():
    # G = f f' is PSD and singular: adding a second point leaves an
    # inconsistent system, whose null direction moves all mass to the point
    # of least f, so cap1 = 1 / min f^2
    f = np.random.default_rng(0).uniform(0.5, 2.0, 6)
    res = wiener_cap1(Kernel(Space.of_size(6), np.outer(f, f)), range(6))
    assert res.method == "qp" and res.attained
    assert res.value == pytest.approx(1.0 / f.min() ** 2, rel=1e-12)
    assert res.extremal.support.tolist() == [int(np.argmin(f))]


def test_wiener_badly_scaled_gram_kernels():
    # diagonal scales from 1e-8 to 1e8 on low-rank Gram kernels: supports
    # whose unscaled systems look singular, where they are not
    for seed in (9016, 9024, 9046, 9058):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        C = rng.uniform(0.0, 1.0, (n, int(rng.integers(1, n + 1))))
        D = 10.0 ** rng.uniform(-4.0, 4.0, n)
        G = D[:, None] * (C @ C.T) * D[None, :]
        k = Kernel(Space.of_size(n), (G + G.T) / 2.0)
        res = wiener_cap1(k, range(n))
        assert res.method == "qp" and res.attained
        assert res.value == pytest.approx(_enumerate_supports(k.entries)[1], rel=1e-9)


def test_wiener_rays_on_psd_blocks_always_meet_a_boundary(monkeypatch):
    # low-rank Gram kernels, a third of C zero: singular supports send the
    # active set along rays (t = inf), and on a PSD block with entries >= 0
    # each ray meets a boundary, so every step is finite
    rays, boundary = [], capacity._to_boundary

    def traced(x, d, t):
        out = boundary(x, d, t)
        if np.isinf(t):
            rays.append(out)
        return out

    monkeypatch.setattr(capacity, "_to_boundary", traced)
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        C = rng.uniform(0.0, 1.0, (n, int(rng.integers(1, n))))
        C[rng.uniform(size=C.shape) < 1.0 / 3.0] = 0.0
        G = C @ C.T
        G = (G + G.T) / 2.0
        if (np.diag(G) == 0).any():
            continue
        res = wiener_cap1(Kernel(Space.of_size(n), G), range(n))
        assert res.method == "qp"
        assert res.value == pytest.approx(_enumerate_supports(G)[1], rel=1e-12)
    assert rays
    for t, y in rays:
        assert np.isfinite(t) and np.isfinite(y).all()


def test_wiener_requires_symmetry():
    k = Kernel(Space.of_size(2), [[1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(DomainError):
        wiener_cap1(k, [0, 1])


def test_empty_subset_rejected():
    with pytest.raises(DomainError):
        cap0(HALF, [])


@pytest.mark.parametrize("seed", range(10))
def test_wiener_enumeration_matches_qp(seed):
    rng = np.random.default_rng(300 + seed)
    n = 5
    k = rand_gram_kernel(rng, n)
    got = wiener_cap1(k, range(n))
    # independent support-enumeration oracle: on the optimal face the
    # potential is one, so solve G_T z = 1 for every support T and score
    # 2 z(T) - E(z)
    G = k.entries
    best = 0.0
    for mask in range(1, 1 << n):
        T = [i for i in range(n) if mask >> i & 1]
        sub = G[np.ix_(T, T)]
        try:
            z = np.linalg.solve(sub, np.ones(len(T)))
        except np.linalg.LinAlgError:
            continue
        if (z < -1e-9).any():
            continue
        z = np.clip(z, 0.0, None)
        val = 2.0 * z.sum() - float(z @ sub @ z)
        best = max(best, val)
    assert got.value == pytest.approx(best, rel=1e-8, abs=1e-8)


def _family_maximum(G):
    # max z(T) over every consistent stationary family {G_TT z = 1, z >= 0},
    # singular blocks included; on such a family 2 z(T) - E(z) equals z(T)
    n = G.shape[0]
    best = 0.0
    for mask in range(1, 1 << n):
        T = [i for i in range(n) if mask >> i & 1]
        res = linprog(-np.ones(len(T)), A_eq=G[np.ix_(T, T)], b_eq=np.ones(len(T)),
                      bounds=(0, None), method="highs")
        if res.status == 0:
            best = max(best, -res.fun)
    return best


def test_enumeration_on_singular_blocks():
    # non-PSD kernels with exactly singular blocks, from a repeated row and
    # column or from small integers: the enumeration, which solves on
    # nonsingular supports only, reaches the maximum over every family
    cases = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        if seed % 2:
            g = np.triu(rng.integers(0, 4, (n, n))).astype(float)
            g = g + np.triu(g, 1).T
            np.fill_diagonal(g, np.maximum(np.diag(g), 1.0))
        else:
            idx = np.r_[np.arange(n - 1), rng.integers(n - 1)]
            g = _symmetric_uniform(rng, n - 1).entries[np.ix_(idx, idx)]
        if np.linalg.eigvalsh(g)[0] >= -1e-10:
            continue
        cases += 1
        res = wiener_cap1(Kernel(Space.of_size(n), g), range(n))
        assert res.method == "enumeration"
        assert res.value == pytest.approx(_family_maximum(g), rel=1e-12)
    assert cases >= 10


def test_wiener_psd_one_eigendecomposition(monkeypatch):
    # the PSD test is the one spectrum a PSD call needs; the active set
    # takes no step size
    shapes = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = wiener_cap1(rand_gram_kernel(np.random.default_rng(7), 5), range(5))
    monkeypatch.undo()
    assert got.method == "qp"
    assert shapes == [(5, 5)]


def test_capacity_null_check():
    # a point with infinite diagonal is negligible, and any measure charging
    # it must have infinite adjoint potential there
    g = np.array([[np.inf, 1.0], [1.0, 1.0]])
    k = Kernel(Space.of_size(2), g)
    rep = capacity_null_check(k, [0], Measure(Space.of_size(2), [1.0, 0.0]))
    assert rep.verdict == "pass"
    assert rep.capacity == 0.0
    rep2 = capacity_null_check(k, [1], Measure(Space.of_size(2), [0.0, 1.0]))
    assert rep2.verdict == "not_applicable"
    with pytest.raises(DomainError):
        capacity_null_check(k, [0], Measure(Space.of_size(2), [0.0, 1.0]))


def test_riesz_kernel_is_polar():
    spec = SampledKernelSpec(kind="riesz", n_points=5, alpha=1.0, n_dim=2, seed=3)
    k = build_sampled(spec)
    assert cap0(k, range(5)).value == 0.0
