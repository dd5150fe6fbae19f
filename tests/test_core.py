"""Measure/kernel calculus and norms.

Oracle values in this file are derived by hand from the definitions
(rearrangement integrals written out term by term, 2x2 potentials
multiplied out by hand) before being frozen into assertions.
"""

import decimal
import math
import sys
import warnings

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
from potbench.core import (
    _bits,
    _distinct,
    _inverse_distance,
    _pow,
    _power_integral,
    _ratio_max,
    _weighted_terms,
)


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
    # 1e200 / 1e-200 and 1 / 1e-310 pass the float range: +inf, as x / 0 reads
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _ratio_max(np.array([1e200]), np.array([1e-200])).tolist() == [inf]
        assert _inverse_distance(np.array([1e-310])).tolist() == [inf]
        assert check_quasisymmetric(Kernel(Space.of_size(2), [[1.0, 1e200], [1e-200, 1.0]])) == inf


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


def test_space_and_measure_reject_malformed_input():
    s = Space.of_size(3)
    with pytest.raises(DomainError, match="^space points must be distinct$"):
        Space(("a", "b", "a"))
    with pytest.raises(DomainError, match="^space must contain at least one point$"):
        Space(())
    with pytest.raises(DomainError, match="^point 'z' is not in the space$"):
        s.index("z")
    with pytest.raises(SpaceMismatchError, match="^boolean mask has wrong length$"):
        s.indices(np.array([True, False]))
    with pytest.raises(DomainError, match="^subset contains repeated points$"):
        s.indices([0, 2, 0])
    with pytest.raises(SpaceMismatchError, match=r"^measure weights must have shape \(3,\), got \(2,\)$"):
        Measure(s, [1.0, 2.0])
    sigma = Measure(s, [1.0, 2.0, 3.0])
    for t in (-1.0, np.inf):
        with pytest.raises(DomainError, match="^scale factor must be finite and nonnegative$"):
            sigma.scaled(t)
    with pytest.raises(SpaceMismatchError, match="^integrand and measure have different lengths$"):
        integrate([1.0, 1.0], sigma)


def test_restrict_takes_an_index_array_or_a_mask():
    sigma = Measure(Space.of_size(4), [1.0, 2.0, 3.0, 4.0])
    by_index = sigma.restrict(np.array([3, 1]))
    assert by_index.weights.tolist() == [0.0, 2.0, 0.0, 4.0]
    assert sigma.restrict([3, 1]).weights.tolist() == by_index.weights.tolist()
    mask = np.array([False, True, False, True])
    assert sigma.restrict(mask).weights.tolist() == by_index.weights.tolist()


def test_norms_past_the_float_range_read_inf():
    # the last power (sum)^(1/p) of each norm goes through core._pow, so
    # (1e300)^20 reads +inf, with no RuntimeWarning
    sigma = Measure(Space.of_size(1), [1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lp_norm([1.0], sigma, 0.05) == math.inf
        assert weak_lorentz_norm([1.0], sigma, 0.05) == math.inf
        assert lorentz_norm([1.0], sigma, 1.0, 0.05) == math.inf


def weak_norm_reference(f, w, s):
    """``max v w(f >= v)^(1/s)`` over the distinct positive finite values ``v``."""
    best = 0.0
    for v in sorted({x for x in f if 0 < x < math.inf}):
        m = sum(wx for fx, wx in zip(f, w) if fx >= v)
        if m > 0:
            best = max(best, v * m ** (1.0 / s))
    return best


def ulp_distance(a, b):
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


tied_f = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0]) | st.floats(0.0, 50.0),
                  min_size=1, max_size=40)


@given(tied_f, st.lists(st.floats(0.0, 10.0) | st.just(0.0), min_size=40, max_size=40),
       st.floats(0.2, 4.0), st.lists(st.integers(0, 39), max_size=3))
@settings(max_examples=200, deadline=None)
def test_weak_norm_matches_its_definition(f, w, s, infinite):
    # one scan of f* reads the masses summed along it, so the reference's sums
    # in index order may differ in the last bits; +inf on a zero weight is no term
    n = len(f)
    f, w = list(f), w[:n]
    for i in infinite:
        if i < n:
            f[i], w[i] = math.inf, 0.0
    value = weak_lorentz_norm(f, Measure(Space.of_size(n), w), s)
    assert ulp_distance(value, weak_norm_reference(f, w, s)) <= 16


def test_weak_norm_masks_zero_values_before_the_power():
    # sigma(f >= 1)^20 = (1e300)^20 reads +inf and f = 0 adds no 0 * inf term
    sigma = Measure(Space.of_size(2), [1e300, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert weak_lorentz_norm([1.0, 0.0], sigma, 0.05) == math.inf
        assert weak_lorentz_norm([0.0, 0.0], sigma, 0.05) == 0.0


def power_integral_reference(f, w, p):
    """``sum w f^p`` and its ``1/p`` power to 60 digits, rounded to floats (``+inf`` past
    the float range); ``0 * inf`` is no term."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = decimal.Decimal(p)
        total = sum(decimal.Decimal(wx) * decimal.Decimal(fx) ** p
                    for fx, wx in zip(f, w) if wx > 0)
        return float(total), float(total ** (1 / p))


magnitudes = st.sampled_from([0.0, 1.0]) | st.builds(
    lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 307))


@given(st.lists(st.tuples(magnitudes, magnitudes), min_size=1, max_size=8),
       st.floats(0.05, 30.0), st.lists(st.integers(0, 7), max_size=2))
@settings(max_examples=300, deadline=None)
def test_power_integral_against_a_decimal_reference(pairs, p, infinite):
    # numpy's direct sum where it fits a float, bit for bit; past it, the logs:
    # each reading within 1e-12 of a 60-digit decimal reference, and +inf only
    # past the float range (away from its edge, where rounding decides)
    f, w = (np.array(col) for col in zip(*pairs))
    for i in infinite:
        if i < f.size:
            f[i], w[i] = math.inf, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        readings = _power_integral(f, w, p)
    with np.errstate(over="ignore"):
        direct = float(_weighted_terms(f ** p, w).sum())
    if direct < math.inf:
        assert readings == (direct, _pow(direct, 1.0 / p))
        return
    for reading, exact in zip(readings, power_integral_reference(f, w, p)):
        if abs(exact - sys.float_info.max) > 1e-12 * sys.float_info.max:
            assert reading == exact == math.inf or abs(reading - exact) <= 1e-12 * exact


def test_lp_norm_reads_a_power_past_the_float_range_from_logs():
    # (1e200)^2 overflows, yet 1e400 * 1e-300 + 1 = 1e100 fits: the norm is 1e50
    sigma = Measure(Space.of_size(2), [1e-300, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lp_norm([1e200, 1.0], sigma, 2.0) == pytest.approx(1e50, rel=1e-12)


def test_lorentz_norm_reads_a_power_past_the_float_range_from_logs():
    # (1e200)^2 overflows, yet ((1e200)^2 * 1 + 1 * (2 - 1) + 1 * (3 - 2))^(1/2) / sqrt(2)
    # fits: f* = (1e200, 1, 1) on unit masses at s = 1, q = 2 weighs each v^2 by 1/2
    sigma = Measure(Space.of_size(3), [1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = lorentz_norm([1e200, 1.0, 1.0], sigma, 1.0, 2.0)
    assert value == pytest.approx(math.sqrt(0.5) * 1e200, rel=1e-12)


def test_lorentz_norm_with_masses_past_the_float_range():
    # the cumulative masses, or their power q/s, pass the float range while the
    # norm fits: the masses are read over a power of two, and the norm scales as
    # sigma^{1/s}, so sigma = 1e308 reads 1e4 times sigma = 1e300 at s = 2
    f, space = [3e-300, 2e-300, 1e-300], Space.of_size(3)
    big, small = Measure(space, [1e308] * 3), Measure(space, [1e300] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lorentz_norm(f, big, 1.0, 1.0) == pytest.approx(lp_norm(f, big, 1.0), rel=1e-12)
        assert lp_norm(f, big, 1.0) == pytest.approx(6e8, rel=1e-12)
        assert lorentz_norm(f, big, 2.0, 1.0) == pytest.approx(
            1e4 * lorentz_norm(f, small, 2.0, 1.0), rel=1e-12)
        assert lorentz_norm(f, big, 2.0, 1.0) == pytest.approx(8.2925e-146, rel=1e-4)
        value = lorentz_norm([3e-100, 2e-100, 1e-100], Measure(space, [1e200, 1e200, 0.0]), 0.5, 2.0)
        assert value == pytest.approx(math.sqrt(17.25) * 1e300, rel=1e-12)
        assert lorentz_norm([3.0, 2.0, 1.0], big, 1.0, 1.0) == math.inf
        assert lorentz_norm([0.0, 0.0, 0.0], big, 1.0, 1.0) == 0.0


def lorentz_reference(f, w, s, q):
    """``((s/q) sum v^q (U^{q/s} - L^{q/s}))^{1/q}`` over the constancy intervals
    ``[L, U]`` of ``f*`` to 60 digits, rounded to a float (``+inf`` past the float range)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s, q = decimal.Decimal(s), decimal.Decimal(q)
        total, upper = decimal.Decimal(0), decimal.Decimal(0)
        for v, m in sorted(((v, m) for v, m in zip(f, w) if m > 0), key=lambda vm: -vm[0]):
            lower, upper = upper, upper + decimal.Decimal(m)
            total += decimal.Decimal(v) ** q * (upper ** (q / s) - lower ** (q / s))
        return float((s / q * total) ** (1 / q))


lorentz_values = st.sampled_from([0.0, 1.0]) | st.builds(lambda e: 10.0 ** e, st.floats(-60, 300))
lorentz_masses = st.just(0.0) | st.builds(lambda e: 10.0 ** e, st.floats(-3, 3))


@given(st.lists(lorentz_values, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), lorentz_masses), min_size=1, max_size=12),
       st.floats(0.2, 4.0), st.floats(0.2, 4.0))
@settings(max_examples=300, deadline=None)
def test_lorentz_norm_against_a_decimal_reference(pool, picks, s, q):
    # values drawn from a small pool, so ties come often; -60 keeps v^q above the
    # underflow band: within 1e-12 of the reference, and +inf only past the float
    # range (away from its edge, where rounding decides)
    f = [pool[i % len(pool)] for i, _ in picks]
    w = [m for _, m in picks]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = lorentz_norm(f, Measure(Space.of_size(len(f)), w), s, q)
    exact = lorentz_reference(f, w, s, q)
    if abs(exact - sys.float_info.max) > 1e-12 * sys.float_info.max:
        assert value == exact == math.inf or abs(value - exact) <= 1e-12 * exact


def lorentz_direct(f, w, s, q):
    """The Lorentz norm as one sum of ``v^q (s/q) (U^{q/s} - L^{q/s})``, in floats."""
    f, w = np.asarray(f, dtype=float), np.asarray(w, dtype=float)
    keep = w > 0
    order = np.argsort(-f[keep], kind="stable")
    vals, upper = f[keep][order], np.cumsum(w[keep][order])
    lower = np.concatenate(([0.0], upper[:-1]))
    contrib = vals ** q * (s / q) * (upper ** (q / s) - lower ** (q / s))
    return contrib.sum() ** (1.0 / q)


@given(tied_f, st.lists(st.floats(0.0, 10.0) | st.just(0.0), min_size=40, max_size=40),
       st.floats(0.2, 4.0), st.floats(0.2, 4.0))
@settings(max_examples=200, deadline=None)
def test_lorentz_norm_matches_the_direct_sum(f, w, s, q):
    # on moderate draws the norm through the power integral rounds as the
    # direct sum of its terms does, but for the association of each product
    w = w[:len(f)]
    value = lorentz_norm(f, Measure(Space.of_size(len(f)), w), s, q)
    assert ulp_distance(value, lorentz_direct(f, w, s, q)) <= 16
