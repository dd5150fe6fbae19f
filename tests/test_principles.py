"""Maximum principles, quasi-symmetry and quasimetric structure.

The 2x2 oracles are worked out by hand.  For ``[[1, t], [t, 1]]`` with
``t > 1``: put unit mass at point 0; its potential is 1 at 0 and ``t``
at 1, so the one-sided maximum-principle constant is exactly ``t``.  For
the complete comparison the best reply measure sits at point 1, giving
``max t mu : mu <= nu_0 + t nu_1 + c, t nu_0 + nu_1 + c = 1`` whose value
is ``t^2``.
"""

import dataclasses
import functools
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from potbench import (
    CompleteMpReport,
    Kernel,
    SampledKernelSpec,
    Space,
    WmpReport,
    build_sampled,
    complete_mp_constant,
    modifier,
    modify_kernel,
    quasimetric_constant,
    wmp_constant,
)
from potbench import capacity, principles
from potbench.capacity import _enumerate_supports, _equilibrium, _stacked_solves
from potbench.core import _bits
from potbench.principles import _place
from potbench.simplex import LpProblem, solve_lp
from conftest import metric_power_kernel, rand_gram_kernel, rand_kernel


def two_by_two(t):
    return Kernel(Space.of_size(2), [[1.0, t], [t, 1.0]])


def _walk_only():
    """Patches the potential certificate away, so both constants walk or grow
    as on a kernel it declines."""
    return mock.patch.object(principles, "_potential_certificate", lambda G: None)


def test_wmp_oracle_2x2():
    rep = wmp_constant(two_by_two(2.0))
    assert rep.constant == pytest.approx(2.0, abs=1e-9)
    assert rep.holds
    assert rep.mode == "exact"
    assert rep.pairs_checked > 0

    # diagonal domination keeps the constant at its floor
    assert wmp_constant(two_by_two(0.5)).constant == 1.0
    assert wmp_constant(Kernel(Space.of_size(2), np.eye(2))).constant == 1.0


def test_wmp_zero_diagonal_blows_up():
    rep = wmp_constant(Kernel(Space.of_size(2), [[0.0, 1.0], [1.0, 0.0]]))
    assert rep.constant == np.inf
    assert not rep.holds


def test_wmp_sampled_mode_is_deterministic():
    rng = np.random.default_rng(3)
    k = Kernel(Space.of_size(9), rng.uniform(0.5, 2.0, (9, 9)))
    a = wmp_constant(k, budget=64)
    b = wmp_constant(k, budget=64)
    assert a.mode == "sampled"
    assert a.constant == b.constant
    # sampling can only miss violating pairs, never invent them
    full = wmp_constant(k)
    assert full.mode == "exact"
    assert a.constant <= full.constant + 1e-12


def test_complete_mp_oracle_2x2():
    rep = complete_mp_constant(two_by_two(2.0))
    assert rep.constant == pytest.approx(4.0, abs=1e-9)
    assert rep.holds
    assert complete_mp_constant(two_by_two(0.5)).constant == pytest.approx(1.0, abs=1e-9)


def test_complete_mp_infinite_witnesses():
    # both pairs ({2}, 0) are infinite.  Without +inf entries the LP is
    # unbounded: mu = delta_2 against nu = delta_1 (G nu = G mu on S, zero at
    # 0) is the ray, with c = 0.  A +inf in G[0, 2] skips the LP: the point
    # mass delta_2 is the witness, with nu = 0 and c = 1.
    inf = np.inf
    for G, nu, c in (([[1, 0, 1], [0, 1, 1], [1, 1, 1]], [0, 1, 0], 0.0),
                     ([[1, .5, inf], [.5, 1, 1], [2, 1, 1]], [0, 0, 0], 1.0)):
        rep = complete_mp_constant(Kernel(Space.of_size(3), G))
        assert rep.constant == np.inf and not rep.holds
        assert rep.mode == "exact" and rep.pairs_checked == 6
        S, x, mu_w, nu_w, c_w = rep.witness
        assert (S, x) == ((2,), 0)
        assert mu_w.weights.tolist() == [0.0, 0.0, 1.0]
        assert nu_w.weights.tolist() == nu
        assert c_w == c


def _no_lp(monkeypatch):
    """Make every LP of the package raise: ``cap0``'s ``solve_lp`` is the one
    pivot loop, and the principles import nothing from ``simplex``."""
    def no_lp(problem):
        raise AssertionError("a maximum-principle constant solved an LP")

    assert not {"solve_lp", "solve_lps", "simplex"} & set(vars(principles))
    monkeypatch.setattr("potbench.simplex.solve_lp", no_lp)
    monkeypatch.setattr(capacity, "solve_lp", no_lp)


def test_no_column_supports_cost_no_lp(monkeypatch):
    # the Riesz diagonal is +inf, so no column is finite on its own support:
    # every pair is worth 0 and is counted, and no LP runs
    kernel = build_sampled(SampledKernelSpec("riesz", 6, alpha=1.5, n_dim=2))
    _no_lp(monkeypatch)
    for constant in (wmp_constant, complete_mp_constant):
        rep = constant(kernel)
        assert rep.mode == "exact"
        assert rep.constant == 1.0 and rep.witness is None
        assert rep.pairs_checked == 6 * (2 ** 5 - 1) == 186


def _exact_supports(n):
    """Every ``S`` but the whole space, as the bits of ``m = 1, 2, ...``, with
    the points outside it: the exact stream of pairs ``(S, x)``."""
    for m in range(1, (1 << n) - 1):
        bits = _bits(m, n)
        yield np.flatnonzero(bits), np.flatnonzero(~bits)


def test_exact_pair_order():
    # supports in the order of their bit masks, outside points ascending;
    # _place counts a pair's place in that stream, the +inf pairs_checked
    pairs = [(S.tolist(), x) for S, outside in _exact_supports(3) for x in outside.tolist()]
    assert pairs == [
        ([0], 1), ([0], 2), ([1], 0), ([1], 2), ([0, 1], 2),
        ([2], 0), ([2], 1), ([0, 2], 1), ([1, 2], 0),
    ]
    for n in range(1, 8):
        places = [_place(n, S, x) for S, outside in _exact_supports(n) for x in outside.tolist()]
        assert places == list(range(1, n * (2 ** (n - 1) - 1) + 1))


def test_sampled_stream_pinned():
    # two copies of one 4-point block: zeros between them and +inf on the
    # diagonal at points 0 and 4.  One more +inf entry stops both searches at
    # ({1}, 6), and the closed form counts as the exact walk does
    block = np.array([[np.inf, 1.5, 1.0, 2.0], [1.5, 2.5, 1.375, 0.625],
                      [1.0, 1.375, 3.0, 1.625], [2.0, 0.625, 1.625, 2.25]])
    G = np.zeros((8, 8))
    G[:4, :4] = G[4:, 4:] = block
    stopped = G.copy()
    stopped[6, 1] = np.inf
    # the WMP grows from the singletons: 56 singleton pairs, 252 of the 42
    # candidates of two points and 160 of larger ones.  Its maximum ties
    # between the copies, and the first mask wins, as in the exact walk
    rep = wmp_constant(Kernel(Space.of_size(8), G), budget=100)
    assert rep.mode == "sampled"
    assert rep.constant == 1.182089552238806
    assert rep.witness[:2] == ((1, 3), 0) == wmp_constant(Kernel(Space.of_size(8), G)).witness[:2]
    assert rep.pairs_checked == 468
    # complete MP grows the same candidates, valued with every right-hand
    # side, and reads the exact constant 1219/670 at the exact walk's
    # witness: mu on {1, 3} against nu at point 2.  The seeded pair LPs it
    # replaced read 1219/670 one ulp above, at ({1, ..., 7}, 0)
    rep = complete_mp_constant(Kernel(Space.of_size(8), G), budget=100)
    exact = complete_mp_constant(Kernel(Space.of_size(8), G))
    assert rep.mode == "sampled" and exact.mode == "exact"
    assert rep.constant == exact.constant == 1.819402985074627
    assert rep.witness[:2] == exact.witness[:2] == ((1, 3), 0)
    assert rep.witness[3].weights.tolist() == [0, 0, 1, 0, 0, 0, 0, 0] and rep.witness[4] == 0
    assert rep.pairs_checked == 468
    for constant in (wmp_constant, complete_mp_constant):
        rep = constant(Kernel(Space.of_size(8), stopped), budget=100)
        assert rep.mode == "sampled"
        assert rep.constant == np.inf
        assert rep.witness[:2] == ((1,), 6)
        assert rep.pairs_checked == 13  # 7 pairs of {0}, then {1} against 0, 2, ..., 6


def test_exact_pair_count_and_first_tie():
    # the walk below the certificate, which this kernel passes
    n = 6
    k = metric_power_kernel(np.random.default_rng(2), n)
    for constant in (wmp_constant, complete_mp_constant):
        with _walk_only():
            rep = constant(k)
        assert rep.mode == "exact"
        # every S other than the empty set and the whole space, every x outside S
        assert rep.pairs_checked == n * (2 ** (n - 1) - 1)
        # both pairs of [[1, t], [t, 1]] reach the constant; the first one wins
        tie = constant(two_by_two(2.0))
        assert tie.witness[:2] == ((0,), 1)


def _fuzzed_kernel(rng, i, n=None):
    """Kernel ``i`` of five kinds, n = 2-6 unless given: symmetric,
    non-symmetric, 25 % zero entries, 15 % +inf entries, and +inf entries
    only in columns with an infinite diagonal (so the constant can be
    finite)."""
    n, kind = n or 2 + i % 5, i // 5 % 5
    if kind < 4:
        return rand_kernel(rng, n, zero_frac=0.25 * (kind == 2), inf_frac=0.15 * (kind == 3),
                           symmetric=kind == 0)
    G = rand_kernel(rng, n, zero_frac=0.25).entries.copy()
    cols = rng.uniform(size=n) < 0.4
    G[:, cols] = np.where(rng.uniform(size=(n, n)) < 0.25, np.inf, G)[:, cols]
    G[cols, cols] = np.inf
    return Kernel(Space.of_size(n), G)


def _pair_scan(G, supports, build):
    """The pair-by-pair scan with ``solve_lp``: ``(value, (S, x, cols,
    vector), pairs, waiting)`` at the first pair that beats the floor 1 and
    every pair before it, stopping at ``+inf``; ``waiting`` counts the pair
    LPs before it by shape."""
    best, top, checked, waiting = 1.0, None, 0, Counter()
    for S, outside in supports:
        fin = np.isfinite(G[S]).all(axis=0)
        cols = S[fin[S]]
        for x in outside.tolist():
            checked += 1
            if not cols.size:
                continue
            inf = np.isinf(G[x, cols])
            if inf.any():
                value, vector = np.inf, np.eye(cols.size)[np.argmax(inf)]
            else:
                problem = build(G, S, x, fin & np.isfinite(G[x]), cols, G[np.ix_(S, cols)])
                waiting[problem.lhs.shape] += 1
                sol = solve_lp(problem)
                unbounded = sol.status == "unbounded"
                value, vector = (np.inf, sol.ray) if unbounded else (sol.value, sol.x)
            if value > best:
                best, top = value, (S, x, cols, vector)
                if np.isinf(best):
                    return best, top, checked, waiting
    return best, top, checked, waiting


def _complete_problem(G, S, x, nu, cols, block):
    """The complete constant's pair LP: max G mu (x) over ``(mu, nu, c)``, mu
    on ``cols`` and nu on the columns ``nu``, with G mu <= G nu + c on S and
    G nu (x) + c <= 1.

    The normalization ``= 1`` of the principle may be relaxed to ``<= 1``:
    the rows on S are homogeneous, so a feasible point with ``s = G nu (x) +
    c < 1`` and a positive objective scales by ``1 / s`` into a better one,
    and ``s = 0`` with a positive objective is a ray, unbounded in both
    forms.  ``(0, 0, 1)`` is feasible in both, so they have the same value
    and the same ``+inf`` pairs, a winning vertex has ``s = 1``, and the LP
    is a packing LP that starts from its slack basis."""
    k, r, m = cols.size, int(np.count_nonzero(nu)), len(S)
    lhs = np.zeros((m + 1, k + r + 1))
    lhs[:m, :k] = block
    lhs[:m, k:k + r] = -G[np.ix_(S, nu)]
    lhs[:m, k + r] = -1.0
    lhs[m, k:k + r] = G[x, nu]
    lhs[m, k + r] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    objective = np.zeros(k + r + 1)
    objective[:k] = G[x, cols]
    return LpProblem(objective, lhs, rhs)


def _wmp_problem(G, S, x, nu, cols, block):
    """The weak constant's pair LP: max G nu (x) over nu >= 0 on ``cols`` with
    G nu <= 1 on S."""
    return LpProblem(G[x, cols], block, np.ones(len(S)))


def _pair_lp_wmp(G):
    """The exhaustive pair-LP stream: ``(constant, (S, x, weights), pairs)``
    at the first pair that beats the floor 1 and every pair before it,
    stopping at ``+inf``."""
    n = G.shape[0]
    best, top, checked, _ = _pair_scan(G, _exact_supports(n), _wmp_problem)
    if top is not None:
        S, x, cols, w = top
        weights = np.zeros(n)
        weights[cols] = np.clip(w, 0.0, None)
        top = (tuple(S.tolist()), x, weights)
    return best, top, checked


def test_exact_wmp_matches_pair_lps():
    # the equilibria of supports against the pair LPs they replace: finite
    # constants within 4 ulp, +inf ones with the same witness and count
    rng = np.random.default_rng(17)
    infinite = witnessed = 0
    for i in range(240):
        k = _fuzzed_kernel(rng, i)
        G, n = k.entries, k.size
        value, top, pairs = _pair_lp_wmp(G)
        with _walk_only():
            rep = wmp_constant(k)
        assert rep.mode == "exact"
        if np.isinf(value):
            infinite += 1
            assert rep.constant == np.inf and not rep.holds
            assert rep.witness[:2] == top[:2]
            assert rep.witness[2].weights.tolist() == top[2].tolist()
            assert rep.pairs_checked == pairs
            continue
        assert abs(rep.constant - value) <= 4 * np.spacing(value)
        assert rep.pairs_checked == pairs == n * (2 ** (n - 1) - 1)
        if rep.witness is not None:  # near-ties may pick another support
            witnessed += 1
            S, x, nu = rep.witness
            pot = G[:, nu.support] @ nu.weights[nu.support]
            assert (pot[list(S)] <= 1.0 + 1e-12).all()
            assert pot[x] == pytest.approx(rep.constant, rel=1e-12)
    assert infinite >= 40 and witnessed >= 100


def _engine_kernel(rng, i):
    """Kernel ``i`` of four kinds, n = 3-9: symmetric, 10 % zero entries,
    5 % zero and 5 % +inf entries, and +inf entries only in columns with an
    infinite diagonal."""
    n, kind = 3 + i % 7, i // 7 % 4
    k = rand_kernel(rng, n, zero_frac=(0.0, 0.1, 0.05, 0.1)[kind],
                    inf_frac=0.05 * (kind == 2), symmetric=kind == 0)
    if kind < 3:
        return k
    G = k.entries.copy()
    cols = rng.uniform(size=n) < 0.4
    G[:, cols] = np.where(rng.uniform(size=(n, n)) < 0.1, np.inf, G)[:, cols]
    G[cols, cols] = np.inf
    return Kernel(k.space, G)


def _random_supports(rng, n, count):
    """``count`` seeded supports ``S``, neither empty nor the whole space,
    each with the points outside it."""
    while count:
        bits = rng.uniform(size=n) < 0.5
        if bits.any() and not bits.all():
            count -= 1
            yield np.flatnonzero(bits), np.flatnonzero(~bits)


def test_packing_complete_lp_matches_the_equality_form():
    # the oracle _complete_problem's normalization G nu (x) + c <= 1 against
    # the principle's = 1 through scipy (A_eq), pair by pair on seeded supports:
    # the same value, the same unbounded pairs, and s = 1 at a positive
    # optimum, since the rows on S are homogeneous (docstring of
    # _complete_problem)
    rng = np.random.default_rng(43)
    lps = unbounded = 0
    for i in range(0, 28, 2):  # every kind and size of _engine_kernel
        k = _engine_kernel(rng, i)
        G, n = k.entries, k.size
        for S, outside in _random_supports(rng, n, 4 * n):
            fin = np.isfinite(G[S]).all(axis=0)
            cols = S[fin[S]]
            for x in outside.tolist():
                if not cols.size or np.isinf(G[x, cols]).any():
                    continue  # no LP: worth 0, or +inf by its objective
                p = _complete_problem(G, S, x, fin & np.isfinite(G[x]), cols,
                                      G[np.ix_(S, cols)])
                m = len(S)
                ref = linprog(-p.objective, A_ub=p.lhs[:m], b_ub=p.rhs[:m], A_eq=p.lhs[m:],
                              b_eq=p.rhs[m:], bounds=[(0, None)] * p.objective.size,
                              method="highs")
                sol = solve_lp(p)
                lps += 1
                assert (sol.status == "unbounded") == (ref.status == 3)
                if sol.status == "unbounded":
                    unbounded += 1
                    continue
                assert ref.status == 0
                assert sol.value == pytest.approx(-ref.fun, rel=1e-9, abs=1e-12)
                if sol.value > 0:  # to rounding: 7.0e-13 at worst here
                    assert p.lhs[m] @ sol.x == pytest.approx(1.0, abs=1e-12)
    assert lps >= 800 and unbounded >= 100


@pytest.mark.parametrize("t", [1e-150, 1e-20, 1e20, 1e150])
def test_exact_wmp_is_scale_free(t):
    # h(t G) = h(G) for both constants, by the exact walk and by the growth
    # of budget 1: the solutions for the right-hand side 1 scale as 1/t, and
    # those for the columns of G do not move.  The Wiener enumeration scales
    # as 1/t
    rng = np.random.default_rng(29)
    for i in range(100):
        k = _fuzzed_kernel(rng, 10 + i)
        for constant in (wmp_constant, complete_mp_constant):
            for budget in (principles.DEFAULT_BUDGET, 1):
                rep = constant(k, budget=budget)
                scaled = constant(Kernel(k.space, t * k.entries), budget=budget)
                assert scaled.pairs_checked == rep.pairs_checked
                if np.isinf(rep.constant):
                    assert scaled.constant == np.inf
                else:
                    assert abs(scaled.constant - rep.constant) <= 4 * np.spacing(rep.constant)
        w, v = _enumerate_supports(k.entries)
        ws, vs = _enumerate_supports(t * k.entries)
        assert t * vs == pytest.approx(v, rel=2e-15, abs=0.0)
        assert t * ws == pytest.approx(w, rel=0.0, abs=1e-14 * w.max())


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_grown_wmp_is_a_certified_lower_bound(n, seed, kind):
    # the growth of budget 1 values equilibria, each a measure with potential
    # 1 on its support: never above the exact walk, and the same +inf pairs
    k = _fuzzed_kernel(np.random.default_rng(seed), 5 * kind, n)
    with _walk_only():
        grown, exact = wmp_constant(k, 1), wmp_constant(k)
    assert (grown.mode, exact.mode) == ("sampled", "exact")
    if np.isinf(exact.constant):
        assert grown.constant == np.inf and not grown.holds
        assert grown.witness[:2] == exact.witness[:2]
        assert grown.witness[2].weights.tolist() == exact.witness[2].weights.tolist()
        assert grown.pairs_checked == exact.pairs_checked
        return
    assert grown.constant <= exact.constant + 4 * np.spacing(exact.constant)
    if grown.witness is not None:
        S, x, nu = grown.witness
        pot = k.entries[:, nu.support] @ nu.weights[nu.support]
        assert (pot[list(S)] <= 1.0 + 1e-12).all()
        assert pot[x] == pytest.approx(grown.constant, rel=1e-12)


def _assert_complete_witness(G, rep):
    """A finite witness ``(T, x, mu, nu, c)`` is feasible, ``G mu <= G nu + c``
    on ``T`` and ``G nu (x) + c = 1``, and attains the constant at ``x``."""
    T, x, mu, nu, c = rep.witness
    rows = [*T, x]
    G_mu = G[np.ix_(rows, mu.support)] @ mu.weights[mu.support]
    G_nu = G[np.ix_(rows, nu.support)] @ nu.weights[nu.support] + c
    assert (G_mu[:-1] <= G_nu[:-1] * (1.0 + 1e-9) + 1e-12).all()
    assert G_nu[-1] == pytest.approx(1.0, rel=1e-12)
    assert G_mu[-1] == pytest.approx(rep.constant, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_complete_mp_matches_pair_lps(n, seed, kind):
    # the right-hand sides 1 and the columns of G on every support against
    # the pair LPs they replace: finite constants within 1e-9, +inf ones at
    # the same first pair and count; the growth of budget 1 is a lower bound.
    # Kind 5 mixes zero and +inf entries in columns with a finite diagonal.
    # Both run below the certificate, which some small kernels pass
    rng = np.random.default_rng(seed)
    k = (_fuzzed_kernel(rng, 5 * kind, n) if kind < 5
         else rand_kernel(rng, n, zero_frac=0.25, inf_frac=0.15))
    G = k.entries
    value, top, pairs, _ = _pair_scan(G, _exact_supports(n), _complete_problem)
    with _walk_only():
        rep, grown = complete_mp_constant(k), complete_mp_constant(k, 1)
    assert rep.mode == "exact"
    if np.isinf(value):
        assert rep.constant == np.inf and not rep.holds
        assert rep.witness[:2] == (tuple(top[0].tolist()), top[1])
        assert rep.pairs_checked == pairs
        return
    assert rep.constant == pytest.approx(value, rel=1e-9)
    assert rep.pairs_checked == pairs == n * (2 ** (n - 1) - 1)
    assert grown.mode == "sampled"
    assert grown.constant <= rep.constant + 4 * np.spacing(rep.constant)
    for r in (rep, grown):
        if r.witness is not None:
            _assert_complete_witness(G, r)


def test_complete_mp_singleton_ray_before_the_closed_form():
    # G(2, 0) = +inf makes ({0}, 2) a closed-form +inf pair, but ({0}, 1)
    # comes first: w = G(., 2) solves to z = 1 on {0}, and G(1, 0) z = 1 >
    # 0 = w(1).  That ray is a closed form too, with mu = G(0, 2) / G(0, 0)
    # at 0 against nu = delta_2 and c = 0
    G = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [np.inf, 1.0, 1.0]])
    value, top, pairs, _ = _pair_scan(G, _exact_supports(3), _complete_problem)
    assert np.isinf(value) and (top[0].tolist(), top[1], pairs) == ([0], 1, 1)
    for budget in (principles.DEFAULT_BUDGET, 1):
        rep = complete_mp_constant(Kernel(Space.of_size(3), G), budget=budget)
        assert rep.constant == np.inf and rep.pairs_checked == 1
        S, x, mu, nu, c = rep.witness
        assert (S, x) == ((0,), 1)
        assert (mu.weights.tolist(), nu.weights.tolist(), c) == ([1, 0, 0], [0, 0, 1], 0.0)


def test_late_hot_column_is_counted_in_closed_form():
    # row 39 is 0 under positive entries elsewhere: ({39}, 0) is the first
    # +inf pair of both constants, and its count, 2^39 supports in, takes
    # no walk
    n, j = 40, 39
    G = np.random.default_rng(4).uniform(0.5, 2.0, (n, n))
    G[j] = 0.0
    k = Kernel(Space.of_size(n), G)
    for constant in (wmp_constant, complete_mp_constant):
        rep = constant(k)
        assert rep.mode == "sampled" and rep.constant == np.inf
        assert rep.witness[:2] == ((j,), 0)
        assert rep.pairs_checked == n * ((1 << j) - 1) - j * (1 << j) // 2 + 1


def test_complete_mp_rounding_reads_no_ray():
    # column 3 is a multiple of column 0, and rows 1 and 4 are zero on both
    # and on column 2.  On T = {1, 3} the right-hand side G(., 0) solves to
    # z = (0, 0.2587...) exactly, and the stacked solve leaves 3.4e-17 at
    # point 1, which point 4 sees (G(4, 1) > 0) where w(4) = 0.  The relative
    # screen reads that as rounding: the constant is the pair LPs' finite one
    rng = np.random.default_rng(0)
    G = rng.uniform(0.2, 2.0, (5, 5))
    a = rng.uniform(0.3, 3.0)
    G[np.ix_([1, 4], [0, 2, 3])] = 0.0
    G[:, 3] = a * G[:, 0]
    G[4, 3], G[3, 3] = 0.0, rng.uniform(0.2, 2.0)
    T = np.array([[1, 3]])
    _, Z = _stacked_solves(G, T, G[:, [0, 2]][T])
    assert (0.0 < Z[0, 0]).all() and (Z[0, 0] < 1e-16).all()  # the spurious weights at point 1
    value, top, pairs, _ = _pair_scan(G, _exact_supports(5), _complete_problem)
    rep = complete_mp_constant(Kernel(Space.of_size(5), G))
    assert np.isfinite(value) and rep.holds
    assert rep.constant == pytest.approx(value, rel=1e-12)
    _assert_complete_witness(G, rep)


def test_growth_values_a_repeated_support_once():
    # {a, b} grown by c and {a, c} grown by b form one candidate: a step
    # values each distinct support once, and still counts its pairs twice
    k = metric_power_kernel(np.random.default_rng(8), 9)
    G, valued, pairs = k.entries, [], []

    def value(T):  # wmp_constant's
        valued.append(T)
        keep, Z = capacity._stacked_equilibria(G, T)
        V = np.matmul(G[:, T[keep]].transpose(1, 0, 2), Z[..., None])[..., 0]
        np.put_along_axis(V, T[keep], -np.inf, axis=1)
        return keep, Z, V

    list(principles._grown(G, value, pairs, capacity.BATCH))
    assert all(len(np.unique(T, axis=0)) == len(T) for T in valued)
    candidates = [p // (9 - T.shape[1]) for p, T in zip(pairs, valued)]
    assert sum(len(T) for T in valued) < sum(candidates)


def test_wmp_solves_no_lp(monkeypatch):
    # both constants in both modes value stacked solves only
    _no_lp(monkeypatch)
    rng = np.random.default_rng(31)
    kernels = [metric_power_kernel(rng, 7), rand_kernel(rng, 8), rand_kernel(rng, 6, inf_frac=0.1),
               *(_fuzzed_kernel(rng, i) for i in range(25))]
    for k in kernels:
        for constant in (wmp_constant, complete_mp_constant):
            for budget in (principles.DEFAULT_BUDGET, 1):
                rep = constant(k, budget=budget)
                assert rep.mode == ("exact" if budget > 1 else "sampled")
    with pytest.raises(AssertionError, match="LP"):
        capacity.solve_lp(LpProblem([1.0], [[1.0]], [1.0]))


def test_grown_wmp_on_the_desk_kernel():
    # 1/(d + 0.3) on a random shortest-path metric of 20 points, too large
    # for the exact walk at the default budget.  The growth reads the exact
    # constant; the seeded pair LPs it replaced read 1.0686750768417461
    rng = np.random.default_rng(20)
    base = rng.uniform(0.2, 1.0, size=(20, 20))
    d = (base + base.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for j in range(20):
        d = np.minimum(d, d[:, [j]] + d[[j], :])
    rep = wmp_constant(Kernel(Space.of_size(20), 1.0 / (d + 0.3)))
    assert rep.mode == "sampled"
    assert rep.constant == 1.0697681529158465


def _support_walk(G):
    """The walk one support at a time, in bit-mask order, that the batched
    walk replaced: ``(h, (T, x, z) or None, weights, value)``, the
    WMP constant and witness and the Wiener enumeration's best equilibrium."""
    n = G.shape[0]
    best, top, value, weights = 1.0, None, 0.0, np.zeros(n)
    for m in range(1, 1 << n):
        T = np.flatnonzero(_bits(m, n))
        AT = G[np.ix_(T, T)]
        z = _equilibrium(AT) if np.isfinite(AT).all() else None
        if z is None or not (z >= -1e-10 * np.abs(z).max()).all():
            continue
        z = np.clip(z, 0.0, None)
        v = G[:, T] @ z
        v[T] = -np.inf
        x = int(np.argmax(v))
        if v[x] > best:
            best, top = float(v[x]), (T, x, z)
        val = float(2.0 * z.sum() - z @ AT @ z)
        if val > value:
            value, weights = val, np.zeros(n)
            weights[T] = z
    return best, top, weights, value


def _walk_kernel(n, seed, zeros, duplicate, inf_point):
    """Uniform entries, and no pair worth +inf: optionally 25 % zero entries
    off the diagonal, point ``n - 1`` a copy of point 0 (so supports holding
    both are exactly singular), and one point with a +inf diagonal whose
    column is otherwise 0."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.1, 3.0, (n, n))
    if zeros:
        G[(rng.uniform(size=(n, n)) < 0.25) & ~np.eye(n, dtype=bool)] = 0.0
    if duplicate:
        G[:, -1] = G[:, 0]
        G[-1] = G[0]
    if inf_point:
        j = int(rng.integers(n))
        G[:, j] = 0.0
        G[j, j] = np.inf
    return Kernel(Space.of_size(n), G)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_batched_walk_matches_support_walk(n, seed, zeros, duplicate, inf_point):
    # bit-equal constant, witness and count, and the same Wiener enumeration
    k = _walk_kernel(n, seed, zeros, duplicate, inf_point)
    best, top, weights, value = _support_walk(k.entries)
    with _walk_only():
        rep = wmp_constant(k)
    assert rep.mode == "exact"
    assert rep.constant == best
    assert rep.pairs_checked == n * (2 ** (n - 1) - 1)
    if top is None:
        assert rep.witness is None
    else:
        T, x, z = top
        assert rep.witness[:2] == (tuple(T.tolist()), x)
        assert rep.witness[2].weights[T].tolist() == z.tolist()
    w, v = _enumerate_supports(k.entries)
    assert v == value
    assert w.tolist() == weights.tolist()


def _complete_fields(rep):
    """A complete-MP report as plain values, its measures as weight lists."""
    witness = rep.witness and (*rep.witness[:2], *(m.weights.tolist() for m in rep.witness[2:4]),
                               rep.witness[4])
    return rep.constant, rep.mode, rep.pairs_checked, witness


def test_batches_keep_the_first_maximum(monkeypatch):
    # the swaps (0 1)(2 4) leave the kernel unchanged, so {0, 4} and {1, 2}
    # reach h with one value; {0, 4} comes first among the combinations, so
    # across batches, and in the growth, the smaller mask, {1, 2}, must win
    swap = [1, 0, 4, 3, 2, 5, 6]
    G = np.random.default_rng(42).uniform(0.1, 3.0, (7, 7))
    k = Kernel(Space.of_size(7), (G + G[np.ix_(swap, swap)]) / 2.0)
    whole, grown = wmp_constant(k), wmp_constant(k, budget=1)
    assert whole.witness[:2] == ((1, 2), 0)
    # the growth forms {0, 4} from {0} before {1, 2} within one step
    assert grown.witness[:2] == ((1, 2), 0)
    z = _equilibrium(k.entries[np.ix_([0, 4], [0, 4])])
    assert (k.entries[:, [0, 4]] @ z)[1] == whole.constant
    # the walk's batches and the growth's chunks hold BATCH // width supports,
    # 1 at the least; complete MP's width is n + 1, the others' 1
    enumerated = [_enumerate_supports(k.entries, grow) for grow in (False, True)]
    complete = [_complete_fields(complete_mp_constant(k, budget=b))
                for b in (principles.DEFAULT_BUDGET, 1)]
    for size in (1, 3, 17):
        monkeypatch.setattr(capacity, "BATCH", size)
        for ref, rep in ((whole, wmp_constant(k)), (grown, wmp_constant(k, budget=1))):
            assert (rep.constant, rep.witness[:2]) == (ref.constant, ref.witness[:2])
            assert rep.witness[2].weights.tolist() == ref.witness[2].weights.tolist()
            assert rep.pairs_checked == ref.pairs_checked
        for grow, (w0, v0) in zip((False, True), enumerated):
            w, v = _enumerate_supports(k.entries, grow)
            assert v == v0 and w.tolist() == w0.tolist()
        for b, ref in zip((principles.DEFAULT_BUDGET, 1), complete):
            assert _complete_fields(complete_mp_constant(k, budget=b)) == ref


@pytest.mark.parametrize("size", (1, 3, 17, capacity.BATCH))
def test_walk_batches_each_subset_once_in_bit_mask_order(size):
    # every nonempty subset of the first k points once, as a row of rising
    # points; each batch holds one subset size and at most size rows, and the
    # batches run by rising size, then rising bit mask
    for k in range(13):
        walk = capacity._walk(k, lambda T: (np.ones(len(T), bool),), size)
        batches = [T.tolist() for (T,) in walk]
        rows = [row for T in batches for row in T]
        assert all(len({len(row) for row in T}) == 1 and len(T) <= size for T in batches)
        assert all(row == sorted(set(row)) and set(row) <= set(range(k)) for row in rows)
        order = [(len(row), sum(1 << t for t in row)) for row in rows]
        assert order == sorted(set(order)) and len(order) == 2**k - 1


def test_singular_batches_fall_back_to_single_solves(monkeypatch):
    # with no slogdet screen the stacked solve raises on the exactly singular
    # supports of a duplicated point, and each support is solved alone, its
    # residuals checked column by column as in the stacked solve: the
    # equilibria and complete MP in both modes are bit-equal.  Complete MP
    # takes the copy without zeros, which has no closed-form ray to stop it
    G = _walk_kernel(7, 5, zeros=True, duplicate=True, inf_point=False).entries
    k = _walk_kernel(7, 5, zeros=False, duplicate=True, inf_point=False)
    budgets = (principles.DEFAULT_BUDGET, 1)
    walk = functools.partial(capacity._walk, 7, functools.partial(capacity._stacked_equilibria, G))
    screened = [(T.tolist(), Z.tolist()) for T, Z in walk(capacity.BATCH)]
    complete = [_complete_fields(complete_mp_constant(k, budget=b)) for b in budgets]
    single, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "slogdet", lambda AT: (np.ones(len(AT)), np.zeros(len(AT))))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: single.append(a.ndim == 2) or solve(a, b))
    assert [(T.tolist(), Z.tolist()) for T, Z in walk(capacity.BATCH)] == screened
    assert any(single)
    for b, ref in zip(budgets, complete):
        single.clear()
        assert _complete_fields(complete_mp_constant(k, budget=b)) == ref
        assert any(single)


def test_complete_dominates_onesided():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = Kernel(Space.of_size(4), rng.uniform(0.3, 2.0, (4, 4)))
        h1 = wmp_constant(k).constant
        h2 = complete_mp_constant(k).constant
        # the complete comparison quantifies over more adversaries
        assert h2 >= h1 - 1e-9


def _interval_green(rng, n):
    """``min(x, y) (1 - max(x, y))`` on ``n`` sorted points of (0, 1): its
    inverse is tridiagonal, a row dominant M-matrix."""
    x = np.sort(rng.uniform(0.0, 1.0, n))
    return np.minimum.outer(x, x) * (1.0 - np.maximum.outer(x, x))


def _dominant_inverse(rng, n, rows=True):
    """The inverse of a Z-matrix with negative off-diagonal entries whose
    diagonal exceeds each row's (or, with ``rows`` false, each column's)
    off-diagonal sum by a little: a positive matrix."""
    off = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    return np.linalg.inv(np.diag(off.sum(axis=1 if rows else 0) + rng.uniform(0.01, 0.2, n)) - off)


def _ultrametric(rng, n):
    """A strictly ultrametric matrix: the points split in two at rising
    levels, ``U(x, y)`` is the level where ``x`` and ``y`` part, and each
    diagonal entry lies above every level of its row (the inverse of a
    strictly diagonally dominant Stieltjes matrix, Martinez, Michon and San
    Martin 1994)."""
    U = np.empty((n, n))

    def split(points, level):
        if len(points) == 1:
            U[points[0], points[0]] = level + rng.uniform(0.1, 1.0)
            return
        cut = int(rng.integers(1, len(points)))
        a, b = points[:cut], points[cut:]
        U[np.ix_(a, b)] = level
        U[np.ix_(b, a)] = level
        for part in (a, b):
            split(part, level + rng.uniform(0.1, 1.0))

    split(rng.permutation(n), rng.uniform(0.1, 1.0))
    return U


POTENTIAL_FAMILIES = (_interval_green, _dominant_inverse, _ultrametric)


def _walks(G):
    """Both constants by the exact walk below the certificate."""
    k = Kernel(Space.of_size(G.shape[0]), G)
    with _walk_only():
        return [constant(k).constant for constant in (wmp_constant, complete_mp_constant)]


@pytest.mark.parametrize("family", POTENTIAL_FAMILIES)
def test_potential_matrices_are_certified(family):
    # every seeded kernel with n = 3-10 passes, both constants read 1 with
    # no walk and no witness, and the walks below the certificate, which read
    # 1 up to rounding, stay at most the certified upper ends
    for n in range(3, 11):
        G = family(np.random.default_rng([n, 7]), n)
        d = principles._potential_certificate(G)
        assert d is not None and 0.0 < d <= principles.POTENTIAL_TOL
        k = Kernel(Space.of_size(n), G)
        reports = wmp_constant(k), complete_mp_constant(k)
        for rep, walked, power in zip(reports, _walks(G), (1, 2)):
            assert (rep.constant, rep.holds, rep.witness, rep.mode, rep.pairs_checked) == (
                1.0, True, None, "exact", 0)
            assert rep.upper == ((1.0 + d) / (1.0 - d)) ** power
            assert rep.upper - 1.0 <= 1e-8
            assert 1.0 <= walked <= rep.upper


def test_potential_certificate_declines_after_the_snap():
    # J + 1e-15 I snaps to an M-matrix, but its residual bound reaches 1/2;
    # an inverse whose last row sums past the float range declines at that
    # sum, with no overflow warning
    for n in (2, 3, 6):
        assert principles._potential_certificate(np.ones((n, n)) + 1e-15 * np.eye(n)) is None
    G = np.linalg.inv([[1.0, -0.1, -0.1], [-0.1, 1.0, -0.1], [-1e308, -1e308, 1e308]])
    assert np.isfinite(G).all() and (G > 0).all()
    assert principles._potential_certificate(G) is None


@pytest.mark.parametrize("constant", (wmp_constant, complete_mp_constant))
def test_an_inverse_past_the_float_range_reads_its_walk(constant):
    # a positive kernel whose inverse's last row sums past the float range:
    # the certificate declines without an overflow warning (the suite runs
    # with -W error::RuntimeWarning) and the exact walk reads the constant
    G = np.linalg.inv([[1.0, -0.1, -0.1], [-0.1, 1.0, -0.1], [-1e308, -1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = constant(Kernel(Space.of_size(3), G))
    assert (rep.constant, rep.mode) == (2.0, "exact")


def test_complete_report_is_a_wmp_report():
    # one field list for both reports: the complete one declares none of its own
    assert issubclass(CompleteMpReport, WmpReport)
    assert dataclasses.fields(CompleteMpReport) == dataclasses.fields(WmpReport)


@pytest.mark.parametrize("constant", (wmp_constant, complete_mp_constant))
def test_factor_reads_upper_where_it_is_finite(constant):
    # the certificate's bound on a potential matrix, the constant itself after
    # an exact walk, and the sampled constant after a growth, whose upper is +inf
    k = Kernel(Space.of_size(5), _interval_green(np.random.default_rng([5, 7]), 5))
    certified = constant(k)
    with _walk_only():
        walk, grown = constant(k), constant(k, budget=1)
    assert certified.constant == 1.0 < certified.upper == certified.factor
    assert walk.mode == "exact" and walk.factor == walk.constant == walk.upper
    assert grown.mode == "sampled" and grown.upper == np.inf
    assert grown.factor == grown.constant and np.isfinite(grown.constant)


def test_column_dominant_inverses_are_declined():
    # their transposes are potential matrices, they are not: some row of the
    # inverse sums below 0, and the walk reads a constant above 1
    for n in range(3, 11):
        G = _dominant_inverse(np.random.default_rng([n, 7]), n, rows=False)
        assert principles._potential_certificate(G) is None
        assert principles._potential_certificate(G.T) is not None
        h, complete = _walks(G)
        assert 1.1 < h <= complete
        rep = wmp_constant(Kernel(Space.of_size(n), G))
        assert (rep.constant, rep.upper) == (h, h) and rep.pairs_checked > 0


def test_large_potential_matrices_are_exact():
    # past the walk's reach at the default budget, both constants of 32
    # points are exact, by the certificate alone; another kernel keeps the
    # growth, sampled, with no upper end
    for G in (_interval_green(np.random.default_rng(1), 32), _ultrametric(np.random.default_rng(1), 32)):
        k = Kernel(Space.of_size(32), G)
        for rep in (wmp_constant(k), complete_mp_constant(k)):
            assert (rep.constant, rep.mode, rep.pairs_checked) == (1.0, "exact", 0)
            assert 1.0 < rep.upper <= 1.0 + 1e-8
    rep = wmp_constant(metric_power_kernel(np.random.default_rng(3), 20))
    assert rep.mode == "sampled" and rep.upper == np.inf


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(1, 16))
def test_certified_upper_bounds_the_walks(n, seed, kind, digits):
    # fuzzed kernels: zero and +inf entries (kind 0) or a potential matrix
    # with one entry set to 0 or +inf (kind 1) are declined; potential
    # matrices under a relative noise of 10^-digits (kind 2), row dominant
    # inverses (kind 3) and random symmetric kernels (kind 4) may pass, and
    # wherever one does, both walks read at most its upper ends
    rng = np.random.default_rng(seed)
    family = POTENTIAL_FAMILIES[seed % 3]
    if kind == 0:
        G = rand_kernel(rng, n, zero_frac=0.25, inf_frac=0.15).entries
    elif kind == 1:
        G = family(rng, n)
        G[rng.integers(n), rng.integers(n)] = (0.0, np.inf)[seed % 2]
    elif kind == 2:
        G = family(rng, n) * np.exp(10.0 ** -digits * rng.standard_normal((n, n)))
    elif kind == 3:
        G = _dominant_inverse(rng, n)
    else:
        G = rand_kernel(rng, n, zero_frac=0.0, symmetric=True).entries
    d = principles._potential_certificate(G)
    if not (np.isfinite(G).all() and (G > 0).all()):
        assert d is None
    elif d is not None:
        upper = (1.0 + d) / (1.0 - d)
        h, complete = _walks(G)
        assert h <= upper and complete <= upper ** 2


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.integers(-300, 300))
def test_potential_certificate_is_free_of_scale(n, seed, k):
    # the decision and d are bit-equal at G 2^k, entries kept normal, on
    # potential matrices, on their noisy copies near the snap's reach, and on
    # column dominant inverses, which it declines
    rng = np.random.default_rng(seed)
    for G in (*(family(rng, n) for family in POTENTIAL_FAMILIES),
              _interval_green(rng, n) * np.exp(1e-9 * rng.standard_normal((n, n))),
              _dominant_inverse(rng, n, rows=False)):
        assert principles._potential_certificate(G * 2.0**k) == principles._potential_certificate(G)


def test_quasimetric_oracles():
    s2 = Space.of_size(2)
    rep = quasimetric_constant(Kernel(s2, [[np.inf, 1.0], [1.0, np.inf]]))
    assert rep.kappa == 1.0 and rep.is_quasimetric

    # reciprocal of a genuine metric with a stretched pair
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    with np.errstate(divide="ignore"):
        g = np.where(d > 0, 1.0 / d, np.inf)
    rep3 = quasimetric_constant(Kernel(Space.of_size(3), g))
    assert rep3.kappa == pytest.approx(1.5, abs=1e-12)

    # vanishing self-distance makes the degenerate triple (x, x, y) tight
    ones = np.full((3, 3), 1.0)
    np.fill_diagonal(ones, np.inf)
    eq = quasimetric_constant(Kernel(Space.of_size(3), ones))
    assert eq.kappa == 1.0
    assert eq.ptolemy_ok
    assert eq.ptolemy_bound == pytest.approx(4.0)

    # a positive self-distance halves the (x, x, x) ratio instead
    flat = quasimetric_constant(Kernel(Space.of_size(2), np.full((2, 2), 1.0)))
    assert flat.kappa == 0.5


def test_quasimetric_collinear_powers():
    # three collinear points, inverse distance: a metric, constant one;
    # squaring the distance stretches the middle triple to 4 / (1 + 1)
    pts = np.array([0.0, 1.0, 2.0])
    dist = np.abs(pts[:, None] - pts[None, :])
    with np.errstate(divide="ignore"):
        inv = np.where(dist > 0, 1.0 / dist, np.inf)
        inv2 = np.where(dist > 0, 1.0 / dist**2, np.inf)
    assert quasimetric_constant(Kernel(Space.of_size(3), inv)).kappa == 1.0
    assert quasimetric_constant(Kernel(Space.of_size(3), inv2)).kappa == 2.0


def test_quasimetric_rejects_asymmetric_and_zero():
    rep = quasimetric_constant(Kernel(Space.of_size(2), [[1.0, 2.0], [0.5, 1.0]]))
    assert not rep.is_quasimetric

    # a zero kernel entry is an infinite distance; with a finite detour
    # on the right side the constant blows up
    g = np.array([[np.inf, 0.0, 1.0], [0.0, np.inf, 1.0], [1.0, 1.0, np.inf]])
    rep2 = quasimetric_constant(Kernel(Space.of_size(3), g))
    assert rep2.kappa == np.inf
    assert not rep2.is_quasimetric


def test_quasimetric_on_an_infinite_kernel():
    # G = +inf everywhere puts every point at distance 0: the constant reads
    # its floor 1/2, and no quasimetric is reported
    rep = quasimetric_constant(Kernel(Space.of_size(3), np.full((3, 3), np.inf)))
    assert (rep.kappa, rep.is_quasimetric, rep.witness) == (0.5, False, None)


def test_quasimetric_on_metric_power_kernels():
    # 1/(d + c)^p over a shortest-path metric: p = 1 keeps kappa at 1,
    # larger p dilates triangles by at most 2^(p-1)
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0):
        k = metric_power_kernel(rng, 6, power=p, offset=0.3)
        rep = quasimetric_constant(k)
        assert rep.is_quasimetric
        assert rep.kappa <= 2.0 ** (p - 1.0) + 1e-9
        wmp = wmp_constant(k)
        assert wmp.holds
        assert wmp.constant <= 2.0 * rep.kappa + 1e-9


def test_modifier_and_modified_kernel():
    s = Space.of_size(3)
    k = Kernel(s, [[0.5, 0.25, 0.0], [0.25, 0.5, 1.0], [0.0, 1.0, 2.0]])
    g = modifier(k, 0)
    assert g.tolist() == [0.5, 0.25, 0.0]
    mod = modify_kernel(k, g)
    # the zero column drops its point from the retained set
    assert list(mod.retained) == [0, 1]
    expect = np.array([[2.0, 2.0], [2.0, 8.0]])
    assert np.allclose(mod.kernel.entries, expect)


def test_modified_kernel_keeps_wmp_of_complete_kernels():
    # dividing out a bounded modifier preserves the complete constant as a
    # one-sided bound for the new kernel
    rng = np.random.default_rng(4)
    for _ in range(5):
        k = rand_gram_kernel(rng, 5)
        ents = k.entries + 0.05  # keep it strictly positive
        k = Kernel(k.space, ents)
        h = complete_mp_constant(k).constant
        if not np.isfinite(h):
            continue
        g = modifier(k, 0)
        mod = modify_kernel(k, g)
        got = wmp_constant(mod.kernel).constant
        assert got <= h * (1.0 + 1e-9)
