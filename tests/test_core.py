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
    NormSpec,
    Space,
    SpaceMismatchError,
    adjoint_potential,
    check_nondegenerate,
    check_quasisymmetric,
    energy,
    integrate,
    norm,
    potential,
    symmetrize,
)
from potbench.core import _nonempty_subsets


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
    assert Measure.uniform(s).total == pytest.approx(3.0)
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
    assert k.adjoint().entries[0, 1] == 2.0
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
    assert norm(f, sigma, NormSpec.lp(2)) == pytest.approx(math.sqrt(5.0))
    assert norm(f, sigma, NormSpec.weak_lorentz(2)) == pytest.approx(2.0)
    assert norm(f, sigma, NormSpec.lorentz(2, 1)) == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))


def test_weak_norm_infinite_values():
    s = Space.of_size(2)
    sigma = Measure(s, [1.0, 1.0])
    assert norm([np.inf, 0.0], sigma, NormSpec.weak_lorentz(2)) == np.inf
    # infinite value carried by a null set does not register
    assert norm([np.inf, 1.0], Measure(s, [0.0, 1.0]), NormSpec.weak_lorentz(2)) == 1.0


def test_norm_rejects_bad_input():
    sigma = Measure(Space.of_size(2), [1.0, 1.0])
    with pytest.raises(DomainError):
        norm([-1.0, 0.0], sigma, NormSpec.lp(2))
    with pytest.raises(DomainError):
        NormSpec("huh", (2.0,))
    with pytest.raises(DomainError):
        NormSpec.lp(0.0)


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


def test_symmetrize():
    k = Kernel(Space.of_size(2), [[1.0, 2.0], [6.0, 1.0]])
    sym = symmetrize(k)
    assert sym.is_symmetric
    assert sym.entries[0, 1] == 8.0


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


finite_f = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6)
weights = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6)


@given(finite_f, weights, st.floats(1.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_lorentz_ss_equals_lp(f, w, s):
    n = min(len(f), len(w))
    sigma = Measure(Space.of_size(n), w[:n])
    a = norm(f[:n], sigma, NormSpec.lorentz(s, s))
    b = norm(f[:n], sigma, NormSpec.lp(s))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@given(finite_f, weights, st.floats(0.5, 4.0), st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_norm_homogeneity(f, w, s, t):
    n = min(len(f), len(w))
    sigma = Measure(Space.of_size(n), w[:n])
    g = [t * v for v in f[:n]]
    for spec in (NormSpec.lp(s), NormSpec.weak_lorentz(s), NormSpec.lorentz(s, min(s, 1.0))):
        base = norm(f[:n], sigma, spec)
        assert norm(g, sigma, spec) == pytest.approx(t * base, rel=1e-10, abs=1e-12)


@given(finite_f, weights, st.floats(1.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_weak_below_lorentz(f, w, s):
    # with the plain normalisation the weak functional is dominated by
    # every (s, q) functional with q <= s
    n = min(len(f), len(w))
    sigma = Measure(Space.of_size(n), w[:n])
    q = max(s / 2.0, 0.5)
    weak = norm(f[:n], sigma, NormSpec.weak_lorentz(s))
    strong = norm(f[:n], sigma, NormSpec.lorentz(s, q))
    assert weak <= strong * (1.0 + 1e-12) + 1e-12


@given(weights, st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_energy_quadratic_scaling(w, t):
    n = len(w)
    rngk = np.random.default_rng(7)
    k = Kernel(Space.of_size(n), rngk.uniform(0.0, 2.0, (n, n)))
    lam = Measure(Space.of_size(n), w)
    assert energy(k, lam.scaled(t)) == pytest.approx(t * t * energy(k, lam), rel=1e-9, abs=1e-9)


def test_nonempty_subsets_order():
    # row m - 1 holds the bits of m; the WMP pair order and the tie-break
    # of the weak and testing subset searches follow it
    rows = _nonempty_subsets(3).astype(int).tolist()
    assert rows == [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1],
                    [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    assert _nonempty_subsets(0).shape == (0, 0)
