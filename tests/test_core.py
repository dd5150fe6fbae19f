"""Measure/kernel calculus and norms.

Oracle values in this file are derived by hand from the definitions
(rearrangement integrals written out term by term, 2x2 potentials
multiplied out by hand) before being frozen into assertions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potbench import (
    DomainError,
    Kernel,
    Measure,
    Space,
    SpaceMismatchError,
    adjoint_potential,
    check_nondegenerate,
    check_quasisymmetric,
    energy,
    integrate,
    lorentz_norm,
    lp_norm,
    potential,
    weak_lorentz_norm,
)
from potbench.core import _bits, _distinct, _inverse_distance, _ratio_max, _weighted_terms


def test_space_basics():
    s = Space(("a", "b", "c"))
    assert s.size == 3
    assert s.index("b") == 1
    assert list(s.indices(("c", "a"))) == [2, 0]
    assert list(s.indices(np.array([True, False, True]))) == [0, 2]
    sub = s.subspace([2, 0])
    assert sub.points == ("c", "a")


def test_space_of_size():
    assert Space.of_size(4).points == (0, 1, 2, 3)


def test_measure_constructors_and_queries():
    s = Space.of_size(3)
    m = Measure(s, [0.0, 2.0, 1.0])
    assert m.total == 3.0
    assert list(m.support) == [1, 2]
    assert not m.is_zero
    assert Measure.delta(s, 2).weights[2] == 1.0
    assert m.mass([1]) == 2.0
    assert m.mass(np.array([True, True, False])) == 2.0
    r = m.restrict(np.array([False, True, False]))
    assert r.weights.tolist() == [0.0, 2.0, 0.0]
    assert m.scaled(2.0).total == 6.0


def test_measure_rejects_bad_weights():
    s = Space.of_size(2)
    with pytest.raises(DomainError):
        Measure(s, [-1.0, 0.0])
    with pytest.raises(DomainError):
        Measure(s, [np.nan, 0.0])
    with pytest.raises(DomainError):
        Measure(s, [np.inf, 0.0])


def test_kernel_validation():
    s = Space.of_size(2)
    with pytest.raises(DomainError):
        Kernel(s, [[1.0, -1.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        Kernel(s, [[np.nan, 0.0], [0.0, 1.0]])
    k = Kernel(s, [[np.inf, 1.0], [2.0, 0.0]])
    assert k.size == 2
    assert not k.is_symmetric
    sub = k.restrict([0])
    assert sub.entries.shape == (1, 1)


def test_kernel_entries_read_only():
    k = Kernel(Space.of_size(2), [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        k.entries[0, 0] = 5.0


# potential of [[1,2],[3,4]] against (1,1) multiplied out by hand
def test_potential_oracle():
    s = Space.of_size(2)
    k = Kernel(s, [[1.0, 2.0], [3.0, 4.0]])
    nu = Measure(s, [1.0, 1.0])
    assert potential(k, nu).tolist() == [3.0, 7.0]
    assert adjoint_potential(k, nu).tolist() == [4.0, 6.0]
    assert energy(k, nu) == 10.0


def test_potential_zero_times_infinity():
    s = Space.of_size(2)
    k = Kernel(s, [[np.inf, 1.0], [1.0, 1.0]])
    nu = Measure(s, [0.0, 1.0])
    assert potential(k, nu).tolist() == [1.0, 1.0]
    full = potential(k, Measure(s, [1.0, 0.0]))
    assert full[0] == np.inf and full[1] == 1.0


def test_potential_space_mismatch():
    k = Kernel(Space.of_size(2), np.eye(2))
    with pytest.raises(SpaceMismatchError):
        potential(k, Measure(Space.of_size(3), np.ones(3)))


def test_integrate_oracle():
    s = Space.of_size(2)
    sigma = Measure(s, [1.0, 2.0])
    assert integrate([2.0, 3.0], sigma) == 8.0
    assert integrate([np.inf, 1.0], Measure(s, [0.0, 2.0])) == 2.0
    assert integrate([np.inf, 1.0], sigma) == np.inf


# For f = (2, 1) with unit weights the rearrangement integral of the
# (2, 1)-Lorentz functional is 2*2*(1 - 0) + 1*2*(sqrt(2) - 1) = 2 + 2 sqrt 2.
def test_norm_oracles():
    s = Space.of_size(2)
    sigma = Measure(s, [1.0, 1.0])
    f = [2.0, 1.0]
    assert lp_norm(f, sigma, 2) == pytest.approx(math.sqrt(5.0))
    assert weak_lorentz_norm(f, sigma, 2) == pytest.approx(2.0)
    assert lorentz_norm(f, sigma, 2, 1) == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))


def test_weak_norm_infinite_values():
    s = Space.of_size(2)
    sigma = Measure(s, [1.0, 1.0])
    assert weak_lorentz_norm([np.inf, 0.0], sigma, 2) == np.inf
    # infinite value carried by a null set does not register
    assert weak_lorentz_norm([np.inf, 1.0], Measure(s, [0.0, 1.0]), 2) == 1.0


def test_norm_rejects_bad_input():
    sigma = Measure(Space.of_size(2), [1.0, 1.0])
    with pytest.raises(DomainError):
        lp_norm([-1.0, 0.0], sigma, 2)
    with pytest.raises(DomainError):
        lp_norm([1.0, 0.0], sigma, 0.0)


def test_quasisymmetry_oracle():
    s = Space.of_size(2)
    assert check_quasisymmetric(Kernel(s, [[1.0, 2.0], [6.0, 1.0]])) == pytest.approx(3.0)
    assert check_quasisymmetric(Kernel(s, [[1.0, 1.0], [1.0, 1.0]])) == 1.0
    # one-sided zero and one-sided infinity both break comparability
    assert check_quasisymmetric(Kernel(s, [[1.0, 0.0], [1.0, 1.0]])) == np.inf
    assert check_quasisymmetric(Kernel(s, [[1.0, np.inf], [1.0, 1.0]])) == np.inf
    # two-sided zero or infinity stays comparable
    both = Kernel(s, [[np.inf, 0.0], [0.0, np.inf]])
    assert check_quasisymmetric(both) == 1.0


def test_extended_real_rules():
    inf = np.inf
    # the infinite factor may sit on either side of 0 * inf
    assert _weighted_terms(np.array([0.0, inf]), np.array([inf, 0.0])).tolist() == [0.0, 0.0]
    ratios = _ratio_max(np.array([0.0, inf, 1.0, 1.0]), np.array([0.0, inf, 0.0, 2.0]))
    assert ratios.tolist() == [0.0, 0.0, inf, 0.5]
    assert _inverse_distance(np.array([0.0, inf, 2.0])).tolist() == [inf, 0.0, 0.5]


def test_nondegeneracy_detection():
    s = Space.of_size(2)
    sigma = Measure(s, [1.0, 1.0])
    ok = check_nondegenerate(Kernel(s, [[0.0, 1.0], [1.0, 0.0]]), sigma)
    assert ok.nondegenerate and ok.witness == ()
    bad = check_nondegenerate(Kernel(s, [[0.0, 1.0], [0.0, 1.0]]), sigma)
    assert not bad.nondegenerate and bad.witness == (0,)
    # the dead column is rescued if its point carries no mass elsewhere
    rescued = check_nondegenerate(
        Kernel(s, [[0.0, 1.0], [0.0, 1.0]]), Measure(s, [0.0, 1.0])
    )
    assert rescued.nondegenerate
    empty = check_nondegenerate(Kernel(s, [[0.0, 0.0], [0.0, 0.0]]), Measure(s, [0.0, 0.0]))
    assert empty.nondegenerate and empty.witness == ()


def test_norms_of_zero_measure():
    zero = Measure(Space.of_size(2), [0.0, 0.0])
    assert lorentz_norm([1.0, 3.0], zero, 2.0, 1.0) == 0.0
    assert lp_norm([1.0, 3.0], zero, 2.0) == 0.0
    assert weak_lorentz_norm([1.0, 3.0], zero, 1.0) == 0.0


finite_f = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6)
weights = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6)


@given(finite_f, weights, st.floats(1.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_lorentz_ss_equals_lp(f, w, s):
    n = min(len(f), len(w))
    sigma = Measure(Space.of_size(n), w[:n])
    a = lorentz_norm(f[:n], sigma, s, s)
    b = lp_norm(f[:n], sigma, s)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@given(finite_f, weights, st.floats(0.5, 4.0), st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_norm_homogeneity(f, w, s, t):
    n = min(len(f), len(w))
    sigma = Measure(Space.of_size(n), w[:n])
    g = [t * v for v in f[:n]]
    for norm_of in (lambda h: lp_norm(h, sigma, s),
                    lambda h: weak_lorentz_norm(h, sigma, s),
                    lambda h: lorentz_norm(h, sigma, s, min(s, 1.0))):
        base = norm_of(f[:n])
        assert norm_of(g) == pytest.approx(t * base, rel=1e-10, abs=1e-12)


@given(finite_f, weights, st.floats(1.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_weak_below_lorentz(f, w, s):
    # with the plain normalisation the weak functional is dominated by
    # every (s, q) functional with q <= s
    n = min(len(f), len(w))
    sigma = Measure(Space.of_size(n), w[:n])
    q = max(s / 2.0, 0.5)
    weak = weak_lorentz_norm(f[:n], sigma, s)
    strong = lorentz_norm(f[:n], sigma, s, q)
    assert weak <= strong * (1.0 + 1e-12) + 1e-12


@given(weights, st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_energy_quadratic_scaling(w, t):
    n = len(w)
    rngk = np.random.default_rng(7)
    k = Kernel(Space.of_size(n), rngk.uniform(0.0, 2.0, (n, n)))
    lam = Measure(Space.of_size(n), w)
    assert energy(k, lam.scaled(t)) == pytest.approx(t * t * energy(k, lam), rel=1e-9, abs=1e-9)


def test_subset_code_bits_past_64_points():
    # bit j of the code marks point j, with no int64 limit on the code
    for k, m in [(0, 0), (5, 0b10110), (64, 1 << 63), (70, (1 << 69) | 5)]:
        assert _bits(m, k).tolist() == [bool(m >> j & 1) for j in range(k)]


def test_distinct_matches_np_unique():
    rng = np.random.default_rng(37)
    for n in range(12):
        v = rng.integers(0, 4, n).astype(float)
        v[rng.uniform(size=n) < 0.2] = np.inf
        v[rng.uniform(size=n) < 0.1] = -0.0
        assert _distinct(v).tobytes() == np.unique(v).tobytes()
