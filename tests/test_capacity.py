"""Capacities, contents and equilibrium certificates.

2x2 oracles by hand: for ``[[1, 1/2], [1/2, 1]]`` the balanced measure
``(2/3, 2/3)`` has potential one everywhere, so the mass capacity, the
covering content and the quadratic capacity all equal 4/3.
"""

import numpy as np
import pytest
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
from potbench.gallery import SampledKernelSpec, build_sampled
from conftest import rand_gram_kernel, rand_kernel


HALF = Kernel(Space.of_size(2), [[1.0, 0.5], [0.5, 1.0]])


def test_cap0_oracle():
    res = cap0(HALF, [0, 1])
    assert res.value == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert res.method == "lp"
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


def test_wiener_heuristic_path_infinite_entries():
    # 13 points (above ENUM_LIMIT) and +inf off-diagonal entries: the
    # heuristic path; its energy takes 0 * inf = 0, and no singleton beats it
    rng = np.random.default_rng(1)
    g = np.triu(rng.uniform(0.1, 3.0, size=(13, 13)))
    g[np.triu(rng.uniform(size=(13, 13)) < 0.05, 1)] = np.inf
    k = Kernel(Space.of_size(13), g + np.triu(g, 1).T)
    res = wiener_cap1(k, list(range(13)))
    assert res.method == "heuristic" and not res.attained
    assert res.value >= (1.0 / np.diag(g)).max()
    assert energy(k, res.extremal) == pytest.approx(
        2.0 * res.extremal.total - res.value, rel=1e-12)


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


def test_wiener_psd_one_eigendecomposition(monkeypatch):
    # the PSD test's spectrum also sets the ascent's step size
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
