"""Sublinear equation pipeline, strong/weak constants, energy and duality.

Frozen oracles, all derived by hand before implementation:

* one point, ``G = [[1]]``, ``sigma = 1``, ``q = 1/2``, contraction built
  with ``kappa = 1`` and slack ``0.1``: the damped iteration has fixed
  point ``phi = 1`` (from ``t^2 - t/1.1 - 1/11 = 0`` at ``t = sqrt(phi)``),
  the rescale constant is ``(1.1)^2 = 1.21``, hence the supersolution is
  ``1.21^2 = 1.4641`` and the descent limit is the exact solution ``1``;
* swap kernel ``[[0, 1], [1, 0]]`` with unit masses, ``q = 1/2``: the
  strong constant is ``2`` (maximize ``sqrt(1-a) + sqrt(a)``), the
  solution is ``(1, 1)``, and its norm ``4`` meets the solution-size bound
  ``kappa^{1/(1-q)} = 4`` with equality;
* constant kernel ``G = 1`` on three unit-mass points, ``q = 1/2``: the
  potential of any probability measure is one, so the strong constant is
  ``sigma(total)^{1/q} = 9``, and ``u = 9`` solves the equation with norm
  ``81``, again meeting the bound exactly.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from potbench import (
    DomainError,
    Kernel,
    Measure,
    Space,
    SpaceMismatchError,
    SublinearProblem,
    energy_criteria,
    energy_sweep,
    energy_value,
    gagliardo_supersolution,
    integrate,
    lp_norm,
    lp_operator_norm,
    maurey_candidate,
    maurey_verify,
    monotone_solution,
    potential,
    solve_equation,
    strong_type_constant,
    testing_condition_11 as check_testing_condition,
    theorem_report,
    weak_lorentz_norm,
    weak_quotient_bound,
    weak_type_constant,
    wmp_constant,
)
from potbench import SampledKernelSpec, build_sampled
from potbench import cap0, capacity, core, principles, quasimetric_constant, sublinear, wiener_cap1
from potbench.core import _bits, _inverse_distance, _weighted_terms
from potbench.gallery import shortest_path_metric
from potbench.principles import DEFAULT_BUDGET, modify_kernel
from potbench.sublinear import (
    CONV_TOL,
    GOLDEN_THRESHOLD,
    RELAX,
    SolveResult,
    _apply,
    _require_sublinear,
    _SubsetSearch,
)
from conftest import metric_power_kernel, rand_gram_kernel, rand_kernel, rand_sigma


def point_problem(q=0.5):
    s = Space.of_size(1)
    return SublinearProblem(Kernel(s, [[1.0]]), Measure(s, [1.0]), q)


def swap_problem(q=0.5):
    s = Space.of_size(2)
    return SublinearProblem(Kernel(s, [[0.0, 1.0], [1.0, 0.0]]), Measure(s, [1.0, 1.0]), q)


def constant_problem(q=0.5):
    s = Space.of_size(3)
    return SublinearProblem(Kernel(s, np.ones((3, 3))), Measure(s, np.ones(3)), q)


HALF = Kernel(Space.of_size(2), [[1.0, 0.5], [0.5, 1.0]])


def test_problem_validation():
    s = Space.of_size(2)
    with pytest.raises(DomainError):
        SublinearProblem(HALF, Measure(s, [1.0, 1.0]), 0.0)
    with pytest.raises(DomainError):
        SublinearProblem(HALF, Measure(s, [1.0, 1.0]), -0.5)
    p = SublinearProblem(HALF, Measure(s, [1.0, 1.0]), 0.5)
    scaled = p.scaled(2.0)
    assert scaled.sigma.total == 4.0


def test_gagliardo_scalar_oracle():
    res = gagliardo_supersolution(point_problem(), kappa=1.0)
    assert res.status == "supersolution"
    assert res.u[0] == pytest.approx(1.4641, rel=1e-9)
    # the supersolution property itself
    assert res.u[0] >= 1.4641 ** 0.5 - 1e-12


def test_gagliardo_invalid_kappa_exceeds_the_mass_bound():
    # below the strong constant 2 the relaxed map's fixed point has mass above 1
    # (its plain iterates outgrow it at step 3); Newton settles there in 4 steps
    prob = swap_problem()
    kappa = 0.5 * strong_type_constant(prob, with_upper=False).extras["certified_upper"]
    res = gagliardo_supersolution(prob, kappa)
    assert (res.status, res.iterations) == ("diverged", 4)
    assert res.residual == res.lq_norm == np.inf
    assert np.isfinite(res.u).all()  # the mass check stopped it, not an overflow


def test_gagliardo_needs_sublinear_exponent():
    with pytest.raises(DomainError):
        gagliardo_supersolution(point_problem(q=1.0), kappa=1.0)


def test_monotone_descent_scalar():
    prob = point_problem()
    start = gagliardo_supersolution(prob, kappa=1.0).u
    res = monotone_solution(prob, start)
    assert res.status == "solution"
    assert res.u[0] == pytest.approx(1.0, rel=1e-9)
    assert res.residual <= 1e-9


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_monotone_limit_matches_the_one_point_closed_form(q):
    # G = [[g]], sigma = (s): u = g s u^q, so u = (g s)^{1/(1-q)}; the Newton
    # finish is quadratic, so it lands within a few ulp in a few steps
    sp = Space.of_size(1)
    for g, s in ((1.0, 1.0), (2.5, 0.3), (1e-3, 7.0), (1e5, 1e-4), (0.2, 40.0)):
        prob = SublinearProblem(Kernel(sp, [[g]]), Measure(sp, [s]), q)
        kappa = strong_type_constant(prob, with_upper=False).extras["certified_upper"]
        sol = monotone_solution(prob, gagliardo_supersolution(prob, kappa).u)
        assert sol.status == "solution" and sol.iterations <= 10
        assert sol.u[0] == pytest.approx((g * s) ** (1.0 / (1.0 - q)), rel=1e-13, abs=0.0)


def test_gagliardo_stop_rule_is_relative_on_heavy_measures():
    # on G = [[1]], sigma = (t), q = 1/2 the iterates phi scale like 1/t; an
    # absolute floor in the stop rule once stopped after one step at t = 1e12,
    # and the failed re-check then read as diverged and VIOLATED
    sp = Space.of_size(1)
    for t in 10.0 ** np.arange(4, 15):
        prob = SublinearProblem(Kernel(sp, [[1.0]]), Measure(sp, [t]), 0.5)
        kappa = strong_type_constant(prob, with_upper=False).extras["certified_upper"]
        assert gagliardo_supersolution(prob, kappa).status == "supersolution"
        assert solve_equation(prob)[0].u[0] == pytest.approx(t**2, rel=1e-12)
        assert "VIOLATED" not in [row.verdict for row in theorem_report(prob).rows]


def test_monotone_rejects_subsolution_start():
    prob = point_problem()
    with pytest.raises(DomainError):
        monotone_solution(prob, np.array([0.5]))  # 0.5 < sqrt(0.5)


def test_swap_kernel_end_to_end():
    prob = swap_problem()
    est = strong_type_constant(prob, seed=0)
    assert est.lower == pytest.approx(2.0, rel=1e-9)
    assert est.extras["certified_upper"] == pytest.approx(2.0, rel=1e-6)
    sol, _ = solve_equation(prob)
    assert sol.status == "solution"
    assert sol.u == pytest.approx([1.0, 1.0], rel=1e-9)
    assert sol.lq_norm == pytest.approx(4.0, rel=1e-8)
    # the solution-size bound is met with equality here
    assert sol.lq_norm <= est.extras["certified_upper"] ** 2 * (1.0 + 1e-8)


def test_constant_kernel_oracle():
    prob = constant_problem()
    est = strong_type_constant(prob, seed=0)
    assert est.lower == pytest.approx(9.0, rel=1e-9)
    sol, _ = solve_equation(prob)
    assert sol.status == "solution"
    assert sol.u == pytest.approx([9.0, 9.0, 9.0], rel=1e-9)
    assert sol.lq_norm == pytest.approx(81.0, rel=1e-8)


def test_strong_constant_above_one_exact_columns():
    # for q >= 1 the constant is the largest column norm, by hand
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, [[1.0, 2.0], [3.0, 4.0]]), Measure(s, [1.0, 1.0]), 2.0)
    est = strong_type_constant(prob)
    assert est.method == "column-norms"
    assert est.lower == est.upper == pytest.approx(np.sqrt(20.0), rel=1e-12)


def test_strong_constant_infinite_entry():
    s = Space.of_size(2)
    k = Kernel(s, [[np.inf, 1.0], [1.0, 1.0]])
    prob = SublinearProblem(k, Measure(s, [1.0, 1.0]), 0.5)
    est = strong_type_constant(prob)
    assert est.lower == np.inf
    assert est.method == "infinite-entry"


def test_strong_constant_scaling_law():
    # sigma -> t sigma multiplies the constant by t^{1/q}
    base = strong_type_constant(swap_problem(), seed=0).lower
    scaled = strong_type_constant(swap_problem().scaled(4.0), seed=0).lower
    assert scaled == pytest.approx(4.0 ** 2 * base, rel=1e-8)


def test_strong_stop_rule_is_free_of_scale():
    # G -> 2^k G multiplies F by 2^{kq} and the constant by 2^k: a stop rule
    # relative to F keeps the mode and lower / 2^k at every k (an absolute
    # floor on F moved 34 of these 153 runs, up to 4 % low, still exact)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        k = metric_power_kernel(rng, 6)
        sigma = Measure(k.space, rng.uniform(0.2, 1.5, 6))
        for q in (0.1, 0.5, 0.9):
            base = strong_type_constant(SublinearProblem(k, sigma, q), with_upper=False)
            for e in range(-200, 201, 25):
                scaled = Kernel(k.space, 2.0**e * k.entries)
                est = strong_type_constant(SublinearProblem(scaled, sigma, q), with_upper=False)
                assert est.extras["mode"] == base.extras["mode"]
                assert est.lower / 2.0**e == pytest.approx(base.lower, rel=1e-12, abs=0.0)


def test_a_strong_constant_that_overflows_raises_a_domain_error():
    # F^(1/q) at sigma * t does not fit a float; the bare OverflowError of the
    # power is a DomainError that names the scale
    rng = np.random.default_rng(5)
    k = metric_power_kernel(rng, 5)
    w = rand_sigma(rng, k.space).weights
    for t, q in ((1e200, 0.01), (1e200, 0.5), (1e100, 0.01)):
        with pytest.raises(DomainError, match="F\\^\\(1/q\\).* does not fit a float"):
            strong_type_constant(SublinearProblem(k, Measure(k.space, w * t), q))
    # where only the certificate overflows, certified_upper reads +inf and the
    # mode heuristic: bisect t between a constant that fits and one that does not
    q = 0.01
    lo, hi, found = 250.0, 260.0, None
    for _ in range(80):
        t = (lo + hi) / 2.0
        try:
            est = strong_type_constant(SublinearProblem(k, Measure(k.space, w * t), q),
                                       with_upper=False)
        except DomainError:
            hi = t
            continue
        lo = t
        assert np.isfinite(est.lower)
        if not np.isfinite(est.extras["certified_upper"]):
            found = est
            break
        assert est.extras["mode"] == "exact"
    assert found is not None and found.extras["mode"] == "heuristic"


@pytest.mark.parametrize("budget", [3, 400])
def test_a_capacity_ratio_that_overflows_raises_a_domain_error(budget):
    # sigma(K)^(1/q) and the node bound's sigma(O)^(1/q - 1) at q = 0.01 and
    # weights 1e3 do not fit a float: the search's bare OverflowError of the
    # power is a DomainError that names the scale, whether the search is cut
    # (budget 3) or exhaustive (budget 400)
    k = metric_power_kernel(np.random.default_rng(1), 6)
    problem = SublinearProblem(k, Measure(k.space, np.full(6, 1e3)), 0.01)
    with pytest.raises(DomainError, match="sigma\\(K\\)\\^.* does not fit a float"):
        weak_type_constant(problem, budget=budget)


def test_bounds_take_the_certified_upper_end_of_h():
    # the potential certificate accepts G within d of a potential matrix, not
    # on one: here the inverse's last row sums to -1e-9 of its absolute sum,
    # which the certificate's snap lifts, so wmp_constant reads 1 while the
    # walk reads h = 1 + 2.7e-9.  Every upper bound that h multiplies takes
    # the report's upper, which covers the walk: 8 h^4 read as 8 would be low
    # by 1.1e-8, more than theorem_report's relative slack
    M = np.array([[12.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0 - 4e-9]])
    G = np.linalg.inv(M)
    k = Kernel(Space.of_size(3), (G + G.T) / 2.0)
    problem = SublinearProblem(k, Measure(k.space, [1.0, 0.5, 2.0]), 0.5)
    wmp = wmp_constant(k)
    with mock.patch.object(principles, "_potential_certificate", lambda G: None):
        walk = wmp_constant(k)
        walked = theorem_report(problem), strong_type_constant(problem).upper
    assert (wmp.constant, wmp.mode, walk.mode) == (1.0, "exact", "exact")
    assert 1.0 + 1e-9 < walk.constant == walk.upper <= wmp.upper <= 1.0 + 3e-8
    assert wmp.factor == wmp.upper and walk.factor == walk.constant
    report = theorem_report(problem)
    assert report.hypotheses["wmp_constant"] == 1.0
    factor = report.row("weak11_testing_chain").details["factor"]
    assert factor == 8.0 * wmp.upper**4 > 8.0 * (1.0 + sublinear.REPORT_RTOL)
    assert factor >= walked[0].row("weak11_testing_chain").details["factor"]
    for certified, by_walk in ((report.constants["norm_route_upper"],
                                walked[0].constants["norm_route_upper"]),
                               (strong_type_constant(problem).upper, walked[1])):
        assert np.isfinite(by_walk) and certified >= by_walk
    qb = sublinear.weak_quotient_bound(k, problem.sigma, problem.sigma, wmp.factor)
    assert qb.bound == wmp.upper * problem.sigma.total


def test_solution_scaling_law():
    # u scales like t^{1/(1-q)} when sigma scales by t
    prob = swap_problem()
    t = 3.0
    u1 = solve_equation(prob)[0].u
    u2 = solve_equation(prob.scaled(t))[0].u
    assert u2 == pytest.approx(t ** 2 * u1, rel=1e-8)


def test_degenerate_detection():
    s = Space.of_size(2)
    k = Kernel(s, [[1.0, 0.0], [0.0, 0.0]])
    prob = SublinearProblem(k, Measure(s, [1.0, 1.0]), 0.5)
    sol, _ = solve_equation(prob)
    assert sol.status == "degenerate"
    assert 1 in sol.witness


def test_weak_constant_exact_subsets():
    prob = SublinearProblem(HALF, Measure(Space.of_size(2), [1.0, 1.0]), 0.5)
    est = weak_type_constant(prob)
    # subsets: {0} gives 1^2/1, the pair gives 2^2/(4/3) = 3
    assert est.lower == pytest.approx(3.0, rel=1e-9)
    assert est.upper == pytest.approx(3.0, rel=1e-9)
    assert est.method == "capacity-subsets"
    # brute confirmation at the balanced measure
    pot = potential(HALF, Measure(Space.of_size(2), [0.5, 0.5]))
    wk = weak_lorentz_norm(pot, prob.sigma, 0.5)
    assert wk == pytest.approx(3.0, rel=1e-12)


def test_weak_constant_above_one_point_masses():
    prob = SublinearProblem(HALF, Measure(Space.of_size(2), [1.0, 1.0]), 2.0)
    est = weak_type_constant(prob)
    # a column (1, 1/2) has weak 2-norm max(1, sqrt(2)/2) = 1, but the mixture
    # (1/2, 1/2) has potential (3/4, 3/4) and weak 2-norm 3/4 * sqrt(2);
    # subsets: {0} gives 1^(1/2)/1, the pair gives 2^(1/2)/(4/3) = 3 sqrt(2)/4
    expected = 3.0 * np.sqrt(2.0) / 4.0
    assert est.lower == pytest.approx(expected, rel=1e-12)
    assert est.upper == pytest.approx(expected, rel=1e-12)
    pot = potential(HALF, Measure(Space.of_size(2), [0.5, 0.5]))
    wk = weak_lorentz_norm(pot, prob.sigma, 2.0)
    assert wk == pytest.approx(expected, rel=1e-12)
    assert est.extras["level_set_constant"] >= est.lower - 1e-12


def test_weak_quotient_oracle():
    s = Space.of_size(2)
    omega = Measure(s, [1.0, 1.0])
    nu = Measure.delta(s, 0)
    rep = weak_quotient_bound(HALF, omega, nu, h=wmp_constant(HALF).constant)
    assert rep.value == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep.wmp_constant == pytest.approx(1.0)
    assert rep.value <= rep.bound + 1e-12


def test_energy_criteria_small_exponent():
    prob = swap_problem()
    u = solve_equation(prob)[0].u
    rep = energy_criteria(prob, u=u)
    assert rep.small_exponent_check is not None
    chk = rep.small_exponent_check
    # both sides equal 2 for the swap kernel
    assert chk["lhs"] == pytest.approx(2.0, rel=1e-12)
    assert chk["rhs"] == pytest.approx(2.0, rel=1e-9)
    assert chk["holds"]
    assert rep.norms["lp_small"] == pytest.approx(2.0, rel=1e-12)


def test_energy_criteria_large_exponent():
    prob = swap_problem(q=0.7)
    u = solve_equation(prob)[0].u
    rep = energy_criteria(prob, u=u)
    assert rep.small_exponent_check is None
    assert rep.finite_measure_check is not None
    assert rep.finite_measure_check["holds"]


def test_energy_sweep_shape():
    rows = energy_sweep(swap_problem(), [0.5, 1.0, 2.0])
    assert len(rows) == 3
    assert rows[1]["energy"] == pytest.approx(2.0)
    with pytest.raises(DomainError):
        energy_sweep(swap_problem(), [0.0])


def test_maurey_roundtrip_at_optimum():
    prob = swap_problem()
    est = strong_type_constant(prob, seed=0)
    F = maurey_candidate(prob, est.witness)
    assert F is not None
    # mass of the dual function equals kappa^{q/(1-q)} = 2 at the optimum
    assert integrate(F, prob.sigma) == pytest.approx(2.0, rel=1e-6)
    assert maurey_verify(prob, F) == pytest.approx(1.0, rel=1e-6)


def test_maurey_verify_guards():
    prob = swap_problem()
    with pytest.raises(DomainError):
        maurey_verify(prob, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        maurey_verify(prob, np.array([-1.0, 1.0]))


def test_a_dual_candidate_needs_a_finite_positive_potential_and_verification():
    # no candidate where sigma vanishes, where the witness's potential is
    # infinite or zero on supp sigma, or where the verification supremum is
    # infinite (G(0, 1) = inf reaches an uncharged point)
    s = Space.of_size(2)
    inf_kernel = Kernel(s, [[1.0, np.inf], [1.0, 1.0]])
    cases = [(Kernel(s, [[1.0, 0.5], [0.5, 1.0]]), [0.0, 0.0], 0),
             (inf_kernel, [1.0, 0.0], 1),
             (Kernel(s, [[1.0, 0.0], [0.0, 1.0]]), [1.0, 0.0], 1),
             (inf_kernel, [1.0, 0.0], 0)]
    for kernel, weights, y in cases:
        prob = SublinearProblem(kernel, Measure(s, weights), 0.5)
        assert maurey_candidate(prob, Measure.delta(s, y)) is None
    assert maurey_verify(SublinearProblem(inf_kernel, Measure(s, [1.0, 0.0]), 0.5),
                         np.ones(2)) == np.inf


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_a_dual_candidate_that_underflows_is_unavailable(q):
    # the rescaled F underflows to 0 on supp sigma while the strong constant is
    # positive (1e-133 at q = 0.9): no candidate, and the row reads NOT-APPLICABLE
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, [[1e200, 1e200], [1e200, 0.0]]),
                            Measure(s, [1e-300, 1e-300]), q)
    est = strong_type_constant(prob, with_upper=False)
    assert est.lower > 0 and maurey_candidate(prob, est.witness) is None
    assert theorem_report(prob).row("energy_necessity").details == {
        "reason": "dual candidate unavailable"}


def test_testing_condition_oracle():
    sigma = Measure(Space.of_size(2), [1.0, 1.0])
    est = check_testing_condition(HALF, sigma)
    assert est.lower == pytest.approx(1.5, rel=1e-12)
    assert est.upper == est.lower
    assert est.extras["ball_constant"] <= est.lower + 1e-12


def test_zero_sigma_subsets_are_exact_and_draw_nothing(monkeypatch):
    k = metric_power_kernel(np.random.default_rng(4), 20)
    sigma = Measure(k.space, np.zeros(20))

    def no_rng(*args, **kwargs):
        raise AssertionError("an empty support needs no random draws")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    est = check_testing_condition(k, sigma)
    assert [est.lower, est.upper] == [0.0, 0.0]
    assert est.extras["mode"] == "exact"
    for q in (0.5, 2.0):
        weak = weak_type_constant(SublinearProblem(k, sigma, q))
        assert [weak.lower, weak.upper, weak.extras["mode"]] == [0.0, 0.0, "exact"]


def test_testing_condition_builds_no_four_point_arrays():
    # the four-point (Ptolemy) check of quasimetric_constant holds several
    # n^4 float arrays, 1.3 MB each at n = 20; the testing condition reads
    # only the triangle constant
    rng = np.random.default_rng(0)
    k = metric_power_kernel(rng, 20)
    sigma = rand_sigma(rng, k.space)
    tracemalloc.start()
    try:
        est = check_testing_condition(k, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.extras["kappa"] == quasimetric_constant(k).kappa
    assert peak < 3e6


def test_testing_condition_closes_at_n20():
    # a scenario-(a)-style kernel: the largest potential of sigma restricted
    # to the undecided hull bounds the branches, so budget 400 suffices
    rng = np.random.default_rng(0)
    k = metric_power_kernel(rng, 20)
    est = check_testing_condition(k, rand_sigma(rng, k.space), budget=400)
    assert est.extras["mode"] == "exact"
    assert est.upper == est.lower


def test_lp_operator_norm_oracle():
    s = Space.of_size(2)
    k = Kernel(s, [[1.0, 2.0], [3.0, 4.0]])
    sigma = Measure(s, [1.0, 1.0])
    got = lp_operator_norm(k, sigma, 2.0)
    want = np.sqrt(15.0 + np.sqrt(221.0))
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_lp_operator_norm_weighted_against_svd(seed):
    rng = np.random.default_rng(400 + seed)
    n = 5
    k = Kernel(Space.of_size(n), rng.uniform(0.0, 2.0, (n, n)))
    sigma = rand_sigma(rng, k.space)
    got = lp_operator_norm(k, sigma, 2.0)
    root = np.sqrt(sigma.weights)
    want = np.linalg.svd(root[:, None] * k.entries * root[None, :], compute_uv=False)[0]
    assert got == pytest.approx(want, rel=1e-8)


def test_lp_operator_norm_zero_kernel():
    s = Space.of_size(2)
    assert lp_operator_norm(Kernel(s, np.zeros((2, 2))), Measure(s, [1.0, 1.0]), 2.0) == 0.0


def test_lp_operator_norm_infinite():
    s = Space.of_size(2)
    k = Kernel(s, [[np.inf, 1.0], [1.0, 1.0]])
    assert lp_operator_norm(k, Measure(s, [1.0, 1.0]), 2.0) == np.inf


def test_lp_operator_norm_is_free_of_power_of_two_scale():
    # G 2^k or sigma 2^k multiplies the norm by 2^k, bit for bit: the iteration
    # runs on A / 2^e and stops relative to the norm alone (an absolute floor 1
    # stopped it early on small kernels, up to 21 % low at |k| <= 200)
    for i in range(15):
        prob = _verdict_table_input(i)
        space, G, w = prob.kernel.space, prob.kernel.entries, prob.sigma.weights
        base = lp_operator_norm(prob.kernel, prob.sigma, 2.0)
        for k in (-1000, -900, -500, -300, -200, -100, -40, 40, 200, 300, 500, 900):
            assert math.ldexp(lp_operator_norm(Kernel(space, np.ldexp(G, k)), prob.sigma, 2.0),
                              -k) == base
            assert math.ldexp(lp_operator_norm(prob.kernel, Measure(space, np.ldexp(w, k)), 2.0),
                              -k) == base


def test_theorem_report_swap_kernel():
    rep = theorem_report(swap_problem(), seed=0)
    claims = {row.claim for row in rep.rows}
    assert "strong_to_supersolution" in claims
    assert "solution_norm_bound" in claims
    for row in rep.rows:
        assert row.verdict in ("CONFIRMED", "VIOLATED", "NOT-APPLICABLE")
    # the swap kernel violates the one-sided maximum principle (zero
    # diagonal), so nothing should be VIOLATED but WMP-gated rows step aside
    assert not [r for r in rep.rows if r.verdict == "VIOLATED"]
    assert rep.verdict("solution_norm_bound") == "CONFIRMED"
    assert rep.hypotheses["wmp_holds"] is False
    assert rep.constants["strong_lower"] == pytest.approx(2.0, rel=1e-9)


_NO_SUP = "no supersolution available"
_NO_SOL = "no solution with a finite constant"
_NO_QS = "needs a finite constant and quasi-symmetry"
_NO_WMP_SYM = "needs the weak maximum principle and a symmetric kernel"
_NO_LORENTZ = "needs WMP, a symmetric kernel, non-degeneracy and a finite norm"
_NO_CAP = "needs q <= 1, a symmetric kernel and WMP"
_NO_CHAIN = "needs a symmetric WMP kernel"
_NO_LIMIT = "needs a quasi-symmetric kernel and a pipeline limit"


# one reason per row in report order; None marks a CONFIRMED row
@pytest.mark.parametrize("entries, weights, reasons", [
    ([[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]], [0.0, 0.0, 0.0],
     ["sigma vanishes", _NO_SUP, _NO_SUP, _NO_SOL, "potential vanishes on sigma",
      None, None, None, "sigma vanishes", _NO_LIMIT]),
    ([[np.inf, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]], [1.0, 1.0, 1.0],
     ["strong-type constant is infinite", _NO_SUP, _NO_SUP, _NO_SOL, _NO_QS, _NO_LORENTZ,
      None, None, "modified constant is infinite", _NO_LIMIT]),
    ([[1.0, 0.0, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]], [1.0, 1.0, 1.0],
     [None, "needs a quasi-symmetric kernel", _NO_WMP_SYM, None, _NO_QS, _NO_LORENTZ, _NO_CAP,
      _NO_CHAIN,
      None, _NO_LIMIT]),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0, 1.0],
     [None, "kernel is degenerate", _NO_WMP_SYM, _NO_SOL, None, _NO_LORENTZ, _NO_CAP,
      _NO_CHAIN, "modifier vanishes on sigma-mass", None]),
], ids=["zero_sigma", "infinite_diagonal", "not_quasi_symmetric", "degenerate"])
def test_theorem_report_not_applicable_rows(entries, weights, reasons):
    s = Space.of_size(3)
    rep = theorem_report(SublinearProblem(Kernel(s, entries), Measure(s, weights), 0.5))
    assert [row.claim for row in rep.rows] == [
        "strong_to_supersolution", "supersolution_to_solution", "supersolution_to_strong",
        "solution_norm_bound", "energy_necessity", "lorentz_sufficiency",
        "weak_capacity_route", "weak11_testing_chain", "local_solution_route",
        "degenerate_dichotomy"]
    for row, reason in zip(rep.rows, reasons):
        expect = "CONFIRMED" if reason is None else "NOT-APPLICABLE"
        assert (row.verdict, row.details.get("reason")) == (expect, reason), row.claim


@pytest.mark.parametrize("entries, weights, upper", [
    # not quasi-symmetric (one zero against a positive transpose), WMP holds;
    # the norm route, taken without its hypothesis, gave 3.607 and 12.239,
    # below the exact lower ends 4.041 and 13.997
    ([[1.6491858468105748e-4, 0.7209993130768659], [0.0, 0.46758314526038175]],
     [1.1440189415269433, 0.2917917034701423], np.inf),
    ([[0.8355390835882426, 0.0], [0.6197025224592525, 0.09224603664344565]],
     [0.3716294173137838, 1.4708856051485464], np.inf),
    ([[1.0, 0.5], [0.5, 1.0]], [1.0, 1.0], 73.24218750000912),  # symmetric control
    # quasi-symmetric (a = 10), WMP exact with h = 1: the route, which omits a,
    # gave 0.305 against the lower end 1.0 of the point mass at 0
    ([[1.0, 0.1], [1.0, 0.1]], [0.0, 1.0], np.inf),
])
def test_strong_upper_needs_the_norm_route_hypotheses(entries, weights, upper):
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, entries), Measure(s, weights), 0.2)
    est = strong_type_constant(prob)
    assert est.upper >= est.lower
    assert est.upper == pytest.approx(upper, rel=1e-9)
    assert ("norm_route_lq" in est.extras) == np.isfinite(upper)
    row = theorem_report(prob).row("supersolution_to_strong")
    if np.isfinite(upper):
        # both routes take the enclosing supersolution e^delta u of the log solve
        assert row.verdict == "CONFIRMED"
        assert row.details["upper"] == est.upper
    else:
        assert (row.verdict, row.details["reason"]) == ("NOT-APPLICABLE", _NO_WMP_SYM)


def test_theorem_report_metric_kernel_all_confirmed():
    rng = np.random.default_rng(11)
    k = metric_power_kernel(rng, 5, power=1.0, offset=0.4)
    prob = SublinearProblem(k, rand_sigma(rng, k.space), 0.5)
    rep = theorem_report(prob, seed=3)
    bad = [r.claim for r in rep.rows if r.verdict == "VIOLATED"]
    assert bad == []
    assert rep.verdict("supersolution_to_strong") == "CONFIRMED"
    assert rep.verdict("energy_necessity") == "CONFIRMED"
    assert rep.verdict("local_solution_route") == "CONFIRMED"
    assert rep.hypotheses["wmp_holds"] and rep.hypotheses["quasi_symmetric"]


def test_quasimetric_hypotheses_match_quasimetric_constant():
    rng = np.random.default_rng(12)
    k = metric_power_kernel(rng, 6, power=2.0)
    sigma = rand_sigma(rng, k.space)
    qm = quasimetric_constant(k)
    assert qm.is_quasimetric and qm.ptolemy_ok is not None
    rep = theorem_report(SublinearProblem(k, sigma, 0.5))
    assert rep.hypotheses["quasimetric_kappa"] == qm.kappa
    assert rep.hypotheses["is_quasimetric"] is True
    assert check_testing_condition(k, sigma).extras["kappa"] == qm.kappa

    entries = k.entries.copy()
    entries[0, 1] *= 2.0
    skew = Kernel(k.space, entries)
    assert quasimetric_constant(skew).is_quasimetric is False
    rep = theorem_report(SublinearProblem(skew, sigma, 0.5))
    assert rep.hypotheses["quasimetric_kappa"] is None
    assert rep.hypotheses["is_quasimetric"] is False
    assert "kappa" not in check_testing_condition(skew, sigma).extras


def test_lq_norm_with_infinite_values():
    # point 2 carries no sigma-mass and sees +inf at point 0; with the
    # diagonal entry G(0, 0) = +inf the iterate blows up on the support too
    s = Space.of_size(3)
    sigma = Measure(s, [1.0, 0.5, 0.0])
    off = SublinearProblem(Kernel(s, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0],
                                      [np.inf, 1.0, 1.0]]), sigma, 0.5)
    sup = gagliardo_supersolution(off, 2.0)
    sol = monotone_solution(off, sup.u)
    on = SublinearProblem(Kernel(s, [[np.inf, 0.5, 0.0], [0.5, 1.0, 0.0],
                                     [np.inf, 1.0, 1.0]]), sigma, 0.5)
    div = gagliardo_supersolution(on, 2.0)
    assert [sup.status, sol.status, div.status] == ["supersolution", "solution", "diverged"]
    for res in (sup, sol):  # the norm is taken in logs: lp_norm's float route may differ by an ulp
        assert np.isinf(res.u[2]) and np.isfinite(res.u[:2]).all()
        assert 0.0 < res.lq_norm < np.inf
        assert abs(res.lq_norm - lp_norm(res.u, sigma, 0.5)) <= math.ulp(res.lq_norm)
    assert np.isinf(div.u[0]) and np.isinf(div.u[2])
    assert div.lq_norm == lp_norm(div.u, sigma, 0.5) == np.inf


def test_golden_threshold_value():
    assert GOLDEN_THRESHOLD == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)


@given(st.floats(0.1, 0.9), st.floats(0.2, 4.0))
@settings(max_examples=30, deadline=None)
def test_scalar_solution_closed_form(q, mass):
    # u = G(u^q sigma) on one point with G = 1 solves to mass^{1/(1-q)}
    s = Space.of_size(1)
    prob = SublinearProblem(Kernel(s, [[1.0]]), Measure(s, [mass]), q)
    sol, _ = solve_equation(prob)
    assert sol.status == "solution"
    assert sol.u[0] == pytest.approx(mass ** (1.0 / (1.0 - q)), rel=1e-7)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_strong_lower_is_genuine(seed):
    # any reported witness must reproduce at least the reported lower bound
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    k = Kernel(Space.of_size(n), rng.uniform(0.0, 2.0, (n, n)))
    prob = SublinearProblem(k, rand_sigma(rng, k.space), 0.5)
    est = strong_type_constant(prob, seed=1)
    if not np.isfinite(est.lower) or est.witness is None:
        return
    pot = potential(k, est.witness)
    val = lp_norm(pot, prob.sigma, prob.q) / est.witness.total
    assert val >= est.lower * (1.0 - 1e-9)
    if np.isfinite(est.extras.get("certified_upper", np.inf)):
        assert est.lower <= est.extras["certified_upper"] * (1.0 + 1e-9)



def _scipy_instances():
    """Eight metric-power problems, n = 3-8 and q = 0.3, 0.5, 0.7."""
    rng = np.random.default_rng(70)
    for i in range(8):
        n = 3 + i % 6
        q = (0.3, 0.5, 0.7)[i % 3]
        kernel = metric_power_kernel(rng, n, power=(0.7, 1.0, 1.5, 2.0, 3.0)[i % 5],
                                     offset=float(rng.uniform(0.1, 0.6)))
        yield SublinearProblem(kernel, rand_sigma(rng, kernel.space), q)


def _slsqp_strong(prob):
    """The strong constant from SLSQP on the simplex, an independent optimizer."""
    A, s, q, n = prob.kernel.entries, prob.sigma.weights, prob.q, prob.kernel.size
    res = minimize(lambda nu: -(s @ (A @ nu) ** q), np.full(n, 1.0 / n),
                   jac=lambda nu: -q * ((s * (A @ nu) ** (q - 1.0)) @ A),
                   method="SLSQP", bounds=[(0.0, 1.0)] * n,
                   constraints=[{"type": "eq", "fun": lambda nu: nu.sum() - 1.0}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    assert res.success, res.message
    nu = np.clip(res.x, 0.0, None)
    return float(s @ (A @ (nu / nu.sum())) ** q) ** (1.0 / q)


def _zero_pattern_problem():
    """A 4-point kernel whose best column, 0, misses rows 1 and 2."""
    s = Space.of_size(4)
    G = [[3.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.2, 0.0], [0.0, 0.2, 1.0, 0.0], [0.5, 0.0, 0.0, 1.0]]
    return SublinearProblem(Kernel(s, G), Measure(s, [1.0, 0.7, 1.2, 0.4]), 0.5)


def test_strong_bracket_against_scipy():
    # an independent optimizer, SLSQP on the simplex, must land inside the
    # certified bracket [lower, certified_upper] of the ascent; the last
    # problem's best vertex leaves rows without potential, so the ascent first
    # spreads weight onto the columns that reach them
    zero = _zero_pattern_problem()
    A, s = zero.kernel.entries, zero.sigma.weights
    assert (A[:, np.argmax((A**zero.q).T @ s)] == 0.0).any()
    for i, prob in enumerate([*_scipy_instances(), zero]):
        est = strong_type_constant(prob, with_upper=False)
        ref = _slsqp_strong(prob)
        assert est.extras["mode"] == "exact", i
        assert est.lower * (1.0 - 1e-9) <= ref, f"instance {i}: {ref} below {est.lower}"
        assert ref <= est.extras["certified_upper"] * (1.0 + 1e-9), \
            f"instance {i}: {ref} above {est.extras['certified_upper']}"


def _counted_gradients(monkeypatch):
    """The arguments of every ``_value_and_gradient`` call, as they happen."""
    calls = []
    original = sublinear._value_and_gradient

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sublinear, "_value_and_gradient", counted)
    return calls


def test_strong_constant_sampled_when_the_cap_cuts_the_ascent(monkeypatch):
    # instance 3 (n = 6, q = 0.3) takes several steps from its best vertex; a
    # cap that cuts the ascent leaves a sampled but valid bracket, one
    # gradient per step after the start's
    prob = list(_scipy_instances())[3]
    calls = _counted_gradients(monkeypatch)
    full = strong_type_constant(prob, with_upper=False)
    assert full.extras["mode"] == "exact"
    steps = len(calls) - 1
    assert steps >= 5
    ref = _slsqp_strong(prob)
    for cap in (1, steps - 1):
        monkeypatch.setattr(sublinear, "ASCENT_CAP", cap)
        calls.clear()
        est = strong_type_constant(prob, with_upper=False)
        assert est.extras["mode"] == "sampled", cap
        assert len(calls) == cap + 1
        assert est.lower * (1.0 - 1e-9) <= ref <= est.extras["certified_upper"] * (1.0 + 1e-9)
        assert est.extras["certified_upper"] > full.extras["certified_upper"]
    monkeypatch.setattr(sublinear, "ASCENT_CAP", steps)
    assert strong_type_constant(prob, with_upper=False).extras["mode"] == "exact"


def _reference_ascent(A, s, q):
    """The purely multiplicative ascent ``nu <- nu * grad F / (q F)`` from the
    barycenter, an independent oracle for :func:`sublinear._maximize_concave`."""
    nu = np.full(A.shape[1], 1.0 / A.shape[1])
    F, g = sublinear._value_and_gradient(A, s, q, nu)
    for steps in range(sublinear.ASCENT_CAP + 1):
        cert = sublinear._certificate(F, g, q, A.shape[0])
        if steps == sublinear.ASCENT_CAP or not np.isfinite(cert) or sublinear._closed(F, cert):
            break
        w = nu * g
        nu = w / w.sum()
        F, g = sublinear._value_and_gradient(A, s, q, nu)
    return F, cert, steps


def _ascent_mode(F, cert):
    return "heuristic" if not np.isfinite(cert) else "exact" if sublinear._closed(F, cert) else "sampled"


def _best_vertex(A, s, q):
    return int(np.argmax((A**q).T @ s))


def test_face_finish_against_the_multiplicative_ascent(monkeypatch):
    # metric powers and random kernels with 25 % zero entries: the Newton and
    # Frank-Wolfe steps from the best vertex keep the mode, lose at most the
    # reference's gap, certify above the reference's value and take far fewer
    # steps; on zero-entry kernels some best vertex leaves a row without
    # potential, and the ascent first spreads its weight
    lost = []
    value_and_gradient = sublinear._value_and_gradient

    def watched(A, s, q, nu):
        F, g = value_and_gradient(A, s, q, nu)
        lost.append(not np.isfinite(g).all())
        return F, g

    rng = np.random.default_rng(2025)
    seen = steps_ref = steps = 0
    for i in range(200):
        n, q = 1 + i % 9, (0.1, 0.3, 0.5, 0.7, 0.9)[i % 5]
        if i % 2:
            kernel = rand_kernel(rng, n, zero_frac=0.25)
        else:
            kernel = metric_power_kernel(rng, n, power=float(rng.uniform(0.5, 3.0)),
                                         offset=float(rng.uniform(0.1, 0.6)))
        rows = kernel.entries.any(axis=1)  # as strong_type_constant drops them
        A, s = kernel.entries[rows], rand_sigma(rng, kernel.space).weights[rows]
        if not rows.any():
            continue
        F_ref, cert_ref, k = _reference_ascent(A, s, q)
        steps_ref += k
        monkeypatch.setattr(sublinear, "_value_and_gradient", watched)
        lost.clear()
        F, nu, cert = sublinear._maximize_concave(A, s, q, _best_vertex(A, s, q))
        monkeypatch.setattr(sublinear, "_value_and_gradient", value_and_gradient)
        seen += any(lost) and i % 2 == 1
        steps += len(lost) - 1
        assert _ascent_mode(F, cert) == _ascent_mode(F_ref, cert_ref), i
        assert F >= F_ref - max(cert_ref - F_ref, 0.0), i
        # both certificates are rounded: a closed one may sit an ulp below F_ref
        assert cert >= F_ref * (1.0 - 4 * np.finfo(float).eps), i
        assert nu.min() >= 0.0 and nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert seen
    assert 20 * steps < steps_ref  # 918 against 213,348


def _fuzz_problem(kind, n, seed, k):
    """One of four kernel kinds times ``2^k``, its zero rows dropped, with 20 %
    zero weights: ``(A, s)`` as strong_type_constant reduces it."""
    rng = np.random.default_rng(seed)
    if kind == 0:
        G = rand_kernel(rng, n, zero_frac=0.3).entries
    elif kind == 1:
        G = rand_kernel(rng, n, zero_frac=0.0, symmetric=True).entries
    elif kind == 2:
        G = metric_power_kernel(rng, n, power=float(rng.uniform(0.5, 3.0)),
                                offset=float(rng.uniform(0.1, 0.6))).entries
    else:
        G = rand_gram_kernel(rng, n, rank=int(rng.integers(1, n + 1))).entries
    w = rng.uniform(0.2, 1.5, n)
    w[rng.uniform(size=n) < 0.2] = 0.0
    A = G[w > 0] * 2.0**k
    rows = A.any(axis=1)
    return A[rows], w[w > 0][rows]


@given(st.integers(0, 3), st.integers(2, 15), st.integers(0, 2**32 - 1),
       st.integers(-200, 200), st.floats(0.02, 0.98))
@settings(max_examples=100, deadline=None)
def test_strong_ascent_against_the_multiplicative_ascent(kind, n, seed, k, q):
    # non-symmetric kernels with 30 % zeros, symmetric random kernels, metric
    # powers and low-rank Gram kernels, scaled by 2^k: the mode is exact
    # wherever the reference's is, and F within 1e-12 of the reference's
    A, s = _fuzz_problem(kind, n, seed, k)
    if not s.size:
        return
    F_ref, cert_ref, _ = _reference_ascent(A, s, q)
    F, nu, cert = sublinear._maximize_concave(A, s, q, _best_vertex(A, s, q))
    if _ascent_mode(F_ref, cert_ref) == "exact":
        assert _ascent_mode(F, cert) == "exact"
        assert F == pytest.approx(F_ref, rel=1e-12)
    assert F >= F_ref * (1.0 - 1e-12)
    assert nu.min() >= 0.0 and nu.sum() == pytest.approx(1.0, abs=1e-12)


def test_certificate_is_above_a_longdouble_evaluation():
    # round_trip's inputs 0-39 and fuzzed problems: at the ascent's result the
    # float certificate sits at or above the same certificate evaluated in
    # long double, where the power P^(q-1) and the sums of F and the gradient
    # round less
    ld = np.longdouble
    problems = []
    for i in range(40):
        prob = _round_trip_input(i)
        supp = prob.sigma.support
        A = prob.kernel.entries[supp]
        problems.append((A, prob.sigma.weights[supp], prob.q))
    rng = np.random.default_rng(36)
    for i in range(400):
        q = float(rng.uniform(0.02, 0.98))
        A, s = _fuzz_problem(i % 4, int(rng.integers(2, 16)), int(rng.integers(2**32)),
                             int(rng.integers(-200, 201)))
        if s.size:
            problems.append((A, s, q))
    for A, s, q in problems:
        _, nu, cert = sublinear._maximize_concave(A, s, q, _best_vertex(A, s, q))
        P = A.astype(ld) @ nu.astype(ld)
        F = s.astype(ld) @ P ** ld(q)
        g = ld(q) * ((s.astype(ld) * P ** (ld(q) - 1)) @ A.astype(ld))
        assert isinstance(cert, float)
        assert cert >= (1 - ld(q)) * F + g.max()


def test_strong_constant_on_a_flat_potential_kernel_closes_in_a_few_steps(monkeypatch):
    # interval Green n = 32, seed 1: the optimum sits on a 2-point face, with
    # 11 columns within 10 % of the largest gradient.  A multiplicative ascent
    # finished by Newton steps on that gradient face stopped at ASCENT_CAP
    # after 100,002 gradients and read sampled; from the best vertex the
    # Newton steps close in 2
    kernel = build_sampled(SampledKernelSpec(kind="interval_green", n_points=32, seed=1))
    sigma = Measure(kernel.space, np.random.default_rng(32).uniform(0.2, 1.5, 32))
    calls = _counted_gradients(monkeypatch)
    est = strong_type_constant(SublinearProblem(kernel, sigma, 0.5), with_upper=False)
    assert est.extras["mode"] == "exact"
    assert np.count_nonzero(est.witness.weights) == 2
    assert len(calls) <= 5


def test_strong_constant_certifies_best_vertex_first(monkeypatch):
    # 9-point interval Green kernels: at seed 0 the optimum is one atom, whose
    # own Frank-Wolfe gap closes, so the gradient is taken once and no ascent
    # runs; at seed 3 the optimum has two atoms and the ascent still runs (a
    # purely multiplicative ascent also left five weights of 1e-54 and below)
    calls = _counted_gradients(monkeypatch)
    for seed, atoms in ((0, 1), (3, 2)):
        kernel = build_sampled(SampledKernelSpec(kind="interval_green", n_points=9, seed=seed))
        sigma = Measure(kernel.space, np.random.default_rng(seed).uniform(0.2, 1.5, 9))
        calls.clear()
        est = strong_type_constant(SublinearProblem(kernel, sigma, 0.5), with_upper=False)
        assert est.extras["mode"] == "exact"
        assert np.count_nonzero(est.witness.weights) == atoms
        assert (len(calls) == 1) == (atoms == 1), len(calls)


def test_energy_value_infinite():
    s = Space.of_size(2)
    k = Kernel(s, [[np.inf, 1.0], [1.0, 1.0]])
    prob = SublinearProblem(k, Measure(s, [1.0, 1.0]), 0.5)
    assert energy_value(prob, 1.0) == np.inf


def _cap1_route(kernel, sigma, q, budget=DEFAULT_BUDGET):
    """The cap1 route of theorem_report's weak rows, from its own search:
    ``(value, best set or None, mode, upper)``."""
    search = _SubsetSearch(kernel, sigma, budget)
    value, best, mode, upper = search.capacity_ratio(q, cap1=True)
    best_set = None if best is None else tuple(np.flatnonzero(search.mask(best)).tolist())
    return value, best_set, mode, upper


def _weak_routes_standalone(problem, budget):
    """The constants of theorem_report's two weak rows, each from its own call."""
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    problem11 = SublinearProblem(kernel, sigma, 1.0)
    return {
        "weak_cap0": weak_type_constant(problem, budget=budget).lower,
        "weak_cap1": _cap1_route(kernel, sigma, q, budget)[0],
        "weak_1_1": weak_type_constant(problem11, budget=budget).lower,
        "testing": check_testing_condition(kernel, sigma, budget=budget).lower,
        "from_cap1": _cap1_route(kernel, sigma, 1.0, budget)[0],
    }


def _assert_matches_standalone(rep, alone):
    chain = rep.row("weak11_testing_chain").details
    assert rep.constants["weak_cap0"] == alone["weak_cap0"]
    assert rep.constants["weak_cap1"] == alone["weak_cap1"]
    for key in ("weak_1_1", "testing", "from_cap1"):
        assert chain[key] == alone[key], key


def _metric_problem_8():
    rng = np.random.default_rng(5)
    k = metric_power_kernel(rng, 8, power=1.0, offset=0.3)
    return SublinearProblem(k, rand_sigma(rng, k.space), 0.5)


def test_theorem_report_one_capacity_per_subset(monkeypatch):
    prob = _metric_problem_8()
    calls = {"_cap0": [], "_wiener_cap1": []}
    for name in calls:
        original = getattr(sublinear, name)

        def counted(kernel, points, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(np.asarray(points).tobytes())
            return _original(kernel, points, *args, **kwargs)

        monkeypatch.setattr(sublinear, name, counted)
    rep = theorem_report(prob, seed=0)
    monkeypatch.undo()

    assert rep.hypotheses["wmp_holds"]
    assert rep.verdict("weak_capacity_route") != "NOT-APPLICABLE"
    for name, keys in calls.items():
        # no subset twice, and the search prunes some of the 255
        assert len(keys) == len(set(keys)) < 2**8 - 1, name
    _assert_matches_standalone(rep, _weak_routes_standalone(prob, DEFAULT_BUDGET))


# ---------------------------------------------------------------------------
# the subset search against a brute-force loop over every subset
# ---------------------------------------------------------------------------


def _brute_max(kernel, sigma, ratio):
    """Largest positive ``ratio(mask)`` over the nonempty subsets of the
    support, in the order of their bit masks ``m = 1, 2, ...`` (bit ``j`` marks
    the ``j``-th support point), and the first set reaching it; stops at
    ``+inf``."""
    supp = sigma.support
    best, best_set = 0.0, None
    for m in range(1, 1 << supp.size):
        mask = np.zeros(kernel.size, dtype=bool)
        mask[[p for j, p in enumerate(supp) if m >> j & 1]] = True
        value = ratio(mask)
        if value > best:
            best, best_set = float(value), tuple(np.flatnonzero(mask).tolist())
            if np.isinf(best):
                break
    return best, best_set


def _capacity_brute(kernel, sigma, q, capacity):
    def ratio(mask):
        c = capacity(mask)
        return sigma.mass(mask) ** (1.0 / q) / c if c > 0 else float("inf")
    return _brute_max(kernel, sigma, ratio)


def _testing_brute(kernel, sigma):
    def ratio(mask):
        restricted = sigma.restrict(mask)
        return integrate(potential(kernel, restricted), restricted) / sigma.mass(mask)
    return _brute_max(kernel, sigma, ratio)


def _sweep_instances():
    """Symmetric kernels, n <= 7, with zeros, +inf entries, zero sigma weights
    and duplicated columns or blocks (with equal weights, so that ratios tie)."""
    rng = np.random.default_rng(61)
    for i in range(44):
        n = 3 + i % 5
        if i % 4 == 0:
            entries = metric_power_kernel(rng, n, power=(1.0, 2.0)[i % 8 // 4]).entries.copy()
        else:
            entries = rand_kernel(rng, n, zero_frac=(0.0, 0.2, 0.4)[i % 3],
                                  inf_frac=(0.0, 0.05, 0.15)[i % 4 - 1],
                                  symmetric=True).entries.copy()
        weights = rng.uniform(0.2, 1.5, n)
        if i % 3 == 1:
            weights[rng.integers(n)] = 0.0
        if i % 2 == 0:  # point 1 duplicates point 0
            entries[1, :], entries[:, 1] = entries[0, :], entries[:, 0]
            entries[1, 1] = entries[0, 0]
            weights[1] = weights[0]
        kernel = Kernel(Space.of_size(n), entries)
        yield kernel, Measure(kernel.space, weights)
    for b in (2, 3, 2, 3):  # two copies of one block, so that whole sets tie
        block = rand_kernel(rng, b, zero_frac=0.0, symmetric=True).entries
        kernel = Kernel(Space.of_size(2 * b), np.kron(np.eye(2), block))
        yield kernel, Measure(kernel.space, np.tile(rng.uniform(0.2, 1.5, b), 2))


def _cap0_of(kernel):
    return lambda mask: cap0(kernel, mask).value


def _cap1_of(kernel):
    return lambda mask: wiener_cap1(kernel, mask).value


def test_cap1_monotone_is_the_exact_path_of_wiener_cap1():
    # one predicate picks wiener_cap1's exact path and the search's pruning
    rng = np.random.default_rng(9)
    cases = [(rand_gram_kernel(rng, 14), "qp", True),
             (rand_kernel(rng, 12, zero_frac=0.0, symmetric=True), "enumeration", True),
             (rand_kernel(rng, 14, zero_frac=0.0, symmetric=True), "heuristic", False)]
    for kernel, method, monotone in cases:
        sigma = Measure(kernel.space, np.ones(kernel.size))
        res = wiener_cap1(kernel, range(kernel.size))
        search = _SubsetSearch(kernel, sigma, DEFAULT_BUDGET)
        assert res.method == method
        assert search.cap1_monotone == monotone == (res.method != "heuristic")


def _workload_input(i, n, power, seed=0):
    """The kernel and measure of a benchmark workload's input ``i`` at ``seed``
    (``perfbench/workloads.py``)."""
    base, jit = np.random.default_rng([7, i, 0]), np.random.default_rng([seed, i, 1])
    offset = base.uniform(0.1, 0.6)
    space = Space.of_size(n)
    kernel = Kernel(space, 1.0 / (shortest_path_metric(base, n) + offset) ** power)
    return kernel, Measure(space, base.uniform(0.2, 1.5, n) * jit.uniform(0.98, 1.02, n))


def _verdict_table_input_0():
    """The verdict_table benchmark's input 0 at seed 0: n = 10, power 0.7."""
    return _workload_input(0, 10, 0.7)


def _round_trip_input(i):
    """The round_trip benchmark's input ``i`` at seed 0: n = 3-8, the power and
    q cycling."""
    kernel, sigma = _workload_input(i, 3 + i % 6, (0.7, 1.0, 1.5, 2.0, 3.0)[i % 5])
    return SublinearProblem(kernel, sigma, (0.3, 0.5, 0.7)[i % 3])


def test_warm_cap1_is_bit_equal_to_cold_with_fewer_solves(monkeypatch):
    # the search starts each subset's active set from its parent's weights
    solves, real = [0], capacity._equilibrium

    def counted(AT):
        solves[0] += 1
        return real(AT)

    monkeypatch.setattr(capacity, "_equilibrium", counted)
    rng = np.random.default_rng(28)
    cases = [(k, rand_sigma(rng, k.space)) for k in (rand_gram_kernel(rng, n) for n in (8, 10, 12))]
    for kernel, sigma in cases + [_verdict_table_input_0()]:
        search = _SubsetSearch(kernel, sigma, DEFAULT_BUDGET)
        solves[0] = 0
        for q in (0.5, 1.0):
            search.capacity_ratio(q, cap1=True)
        warm, solves[0] = solves[0], 0
        for m, (value, _) in search._caps[1].items():
            assert sublinear._wiener_cap1(kernel, search.subset(m)[0])[0] == value
        assert len(search._caps[1]) > 2 * kernel.size and warm < solves[0]


def test_one_psd_test_per_search_and_the_load_bound_cut_the_work(monkeypatch):
    # theorem_report's searches on verdict_table's input 0 at q = 0.5 ran _cap0
    # 50 times, _wiener_cap1 51 times and capacity._exact_qp 41 times before the
    # node bound sigma(O)^{1/q-1} M(O) and the one PSD test per search
    calls = {"_cap0": 0, "_wiener_cap1": 0, "_exact_qp": 0}
    for module, name in ((sublinear, "_cap0"), (sublinear, "_wiener_cap1"),
                         (capacity, "_exact_qp"), (sublinear, "_exact_qp")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    kernel, sigma = _verdict_table_input_0()
    rep = theorem_report(SublinearProblem(kernel, sigma, 0.5), seed=0)
    assert rep.verdict("weak_capacity_route") == "CONFIRMED"
    assert calls == {"_cap0": 29, "_wiener_cap1": 29, "_exact_qp": 1}


def test_a_search_values_each_subset_once_per_call(monkeypatch):
    # within one max_ratio call num, den and cap each run at most once per
    # subset, and the testing ratio takes each subset's potential once for
    # both its energy and its top potential
    calls, real = [], _SubsetSearch.max_ratio

    def counted_max_ratio(self, num, den, prune=True, cap=None):
        seen = {"num": [], "den": [], "cap": []}
        calls.append(seen)

        def counted(name, f):
            def g(m):
                seen[name].append(m)
                return f(m)
            return g

        return real(self, counted("num", num), counted("den", den), prune,
                    cap and counted("cap", cap))

    monkeypatch.setattr(_SubsetSearch, "max_ratio", counted_max_ratio)
    kernel, sigma = _verdict_table_input_0()
    theorem_report(SublinearProblem(kernel, sigma, 0.5), seed=0)
    assert len(calls) == 5
    for seen in calls:
        for subsets in seen.values():
            assert len(subsets) == len(set(subsets))
    assert sum(len(seen["den"]) for seen in calls) > 100

    search, potentials = _SubsetSearch(kernel, sigma, DEFAULT_BUDGET), []
    for module in (sublinear, core):  # core's for core._energy

        def counted_potential(G, w, _real=module._potential):
            potentials.append(w)
            return _real(G, w)

        monkeypatch.setattr(module, "_potential", counted_potential)
    search.testing_ratio()
    assert len(potentials) == len(set(calls[-1]["num"] + calls[-1]["cap"])) > kernel.size


def test_wiener_cap1_checks_kkt_for_attained(monkeypatch):
    # wiener_cap1 reads attained from the KKT check of the weights that the
    # core returns: every subset of verdict_table input 0's kernel with two
    # points or more takes the exact active set and passes, and an active set
    # that returns its start, the zero measure, fails
    kernel, _ = _verdict_table_input_0()
    n = kernel.size
    subsets = [[x for x in range(n) if m >> x & 1] for m in range(1, 2**n)]
    for K in subsets:
        res = wiener_cap1(kernel, K)
        assert (res.method, res.attained) == ("qp" if len(K) > 1 else "reciprocal", True), K
    monkeypatch.setattr(capacity, "_active_set",
                        lambda A, lam=None: np.zeros(len(A)) if lam is None else lam)
    for K in subsets[::37]:
        res = wiener_cap1(kernel, K)
        expected = ("qp", False) if len(K) > 1 else ("reciprocal", True)
        assert (res.method, res.attained) == expected, K


def test_a_block_that_fails_the_psd_test_tests_each_subset(monkeypatch):
    # a Gram block with a seventh point whose tiny diagonal breaks PSD: the
    # subsets without it still take the exact active set, those with it the
    # enumeration, as the public wiener_cap1 does on each
    rng = np.random.default_rng(34)
    G = np.zeros((7, 7))
    G[:6, :6] = rand_gram_kernel(rng, 6).entries
    G[6, :6] = G[:6, 6] = 1.0
    G[6, 6] = 0.05
    kernel = Kernel(Space.of_size(7), G)
    sigma = rand_sigma(rng, kernel.space)
    found, real = {}, sublinear._wiener_cap1

    def recorded(kernel, points, *args):
        res = real(kernel, points, *args)
        found[tuple(points.tolist())] = res
        return res

    monkeypatch.setattr(sublinear, "_wiener_cap1", recorded)
    search = _SubsetSearch(kernel, sigma, DEFAULT_BUDGET)
    for q in (0.5, 1.0):
        search.capacity_ratio(q, cap1=True)
    assert not search.psd and search.cap1_monotone
    methods = set()
    for points, (value, _, method) in found.items():
        public = wiener_cap1(kernel, list(points))
        assert (public.value, public.method) == (value, method), points
        methods.add(method)
    assert {"qp", "enumeration"} <= methods


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
       st.booleans(), st.floats(0.05, 1.0))
def test_load_bound_caps_the_capacity_ratios_of_its_subsets(n, seed, zeros, infs,
                                                           symmetric, q):
    # the second node bound of a pruning search with q <= 1: for K in O,
    # sigma(K)^{1/q} / cap(K) <= sigma(O)^{1/q-1} M(O), for cap0 and, on a
    # symmetric kernel where cap1_monotone holds, cap1
    rng = np.random.default_rng(seed)
    kernel = rand_kernel(rng, n, zero_frac=0.25 if zeros else 0.0,
                         inf_frac=0.15 if infs else 0.0, symmetric=symmetric)
    w = rng.uniform(0.2, 1.5, n)
    w[rng.uniform(size=n) < 0.2] = 0.0
    w[seed % n] = 1.0
    search = _SubsetSearch(kernel, Measure(kernel.space, w), DEFAULT_BUDGET)
    caps = []

    def captured(self, num, den, prune=True, cap=None):
        caps.append((den, cap))

    with mock.patch.object(_SubsetSearch, "max_ratio", captured):
        search.capacity_ratio(q)
        if symmetric:
            search.capacity_ratio(q, cap1=True)
    assert all(cap is not None for _, cap in caps) and search.cap1_monotone
    supp = search.supp

    def whole(code):  # a code over the positions of supp sigma as its mask over the space
        return sum(1 << int(x) for x in supp[_bits(code, supp.size)])

    for _ in range(12):
        outer = int(rng.integers(1, 2**supp.size))
        inner = outer & int(rng.integers(0, 2**supp.size)) or outer
        inner, outer = whole(inner), whole(outer)
        for den, cap in caps:
            d = den(inner)
            ratio = search.subset(inner)[2] ** (1.0 / q) / d if d > 0 else np.inf
            assert ratio <= cap(outer) * (1.0 + sublinear.PRUNE_RTOL), (inner, outer)


def test_subset_search_matches_brute_force():
    finite = 0
    for kernel, sigma in _sweep_instances():
        for q in (0.5, 1.0, 2.0):
            est = weak_type_constant(SublinearProblem(kernel, sigma, q))
            value, best_set = _capacity_brute(kernel, sigma, q, _cap0_of(kernel))
            assert [est.lower, est.upper, est.extras["mode"]] == [value, value, "exact"]
            if np.isfinite(value):
                finite += 1
                assert est.extras.get("best_set") == best_set
        for q in (0.5, 1.0):
            found, found_set, mode, upper = _cap1_route(kernel, sigma, q)
            value, best_set = _capacity_brute(kernel, sigma, q, _cap1_of(kernel))
            assert [found, upper, mode] == [value, value, "exact"]
            if np.isfinite(value):
                assert found_set == best_set
        est = check_testing_condition(kernel, sigma)
        value, best_set = _testing_brute(kernel, sigma)
        assert [est.lower, est.upper, est.extras["mode"]] == [value, value, "exact"]
        if np.isfinite(value):
            assert est.extras.get("best_set") == best_set
    assert finite >= 60  # most maxima are finite, so best_set is checked


def test_theorem_report_sampled_subsets_match_standalone():
    # a budget that cuts the search brackets the brute-force maximum: the
    # singletons and two more sets of 15 or more
    cut = 0
    for kernel, sigma in _sweep_instances():
        k = sigma.support.size
        if k < 4:
            continue
        budget = k + 2
        for q in (0.5, 2.0):
            est = weak_type_constant(SublinearProblem(kernel, sigma, q), budget=budget)
            value, _ = _capacity_brute(kernel, sigma, q, _cap0_of(kernel))
            if np.isfinite(value):
                cut += 1
                assert est.extras["mode"] == "sampled"
                assert est.lower <= value <= est.upper < np.inf
        est = check_testing_condition(kernel, sigma, budget=budget)
        value, _ = _testing_brute(kernel, sigma)
        if np.isfinite(value):
            assert est.extras["mode"] == "sampled"
            assert est.lower <= value <= est.upper < np.inf
    assert cut >= 30

    prob = _metric_problem_8()
    rep = theorem_report(prob, budget=100, seed=2)
    assert rep.hypotheses["wmp_holds"]
    _assert_matches_standalone(rep, _weak_routes_standalone(prob, 100))


def test_budget_below_one_rejected_before_any_lp(monkeypatch):
    # the budget counts subsets or pairs valued, so it is at least 1
    def no_lp(problem):
        raise AssertionError("an LP ran before the budget was checked")

    monkeypatch.setattr("potbench.capacity.solve_lp", no_lp)  # the package's one LP solver
    prob = _metric_problem_8()
    entry_points = (lambda b: wmp_constant(prob.kernel, budget=b),
                    lambda b: principles.complete_mp_constant(prob.kernel, budget=b),
                    lambda b: weak_type_constant(prob, budget=b),
                    lambda b: check_testing_condition(prob.kernel, prob.sigma, budget=b),
                    lambda b: theorem_report(prob, budget=b))
    for budget in (0, -3):
        for call in entry_points:  # one message, from principles._mode
            with pytest.raises(DomainError, match=f"^budget must be at least 1, got {budget}$"):
                call(budget)


# ---------------------------------------------------------------------------
# the array-level potential of the inner loops
# ---------------------------------------------------------------------------


def test_inner_loops_build_no_measure_per_step(monkeypatch):
    # the fixed-point steps and the subsets valued call the array kernel, so
    # the Measures built do not grow with the iterations or the subsets
    rng = np.random.default_rng(6)
    k = metric_power_kernel(rng, 10)
    prob = SublinearProblem(k, rand_sigma(rng, k.space), 0.5)
    kappa = strong_type_constant(prob, with_upper=False).extras["certified_upper"]
    masks, mask = set(), _SubsetSearch.mask
    monkeypatch.setattr(_SubsetSearch, "mask", lambda self, m: masks.add(m) or mask(self, m))
    built, init = [], Measure.__post_init__
    monkeypatch.setattr(Measure, "__post_init__", lambda self: built.append(1) or init(self))
    sup = gagliardo_supersolution(prob, kappa)
    sol = monotone_solution(prob, sup.u)
    assert (sup.status, sol.status) == ("supersolution", "solution")
    est = check_testing_condition(k, prob.sigma)
    assert len(masks) >= 50
    assert "ball_constant" in est.extras
    assert len(built) == 1  # the testing condition's witness, sigma on the best set
    valued, cap0_value = set(), _SubsetSearch.cap0_value
    monkeypatch.setattr(_SubsetSearch, "cap0_value",
                        lambda self, m: valued.add(m) or cap0_value(self, m))
    built.clear()
    for q in (0.5, 1.0, 2.0):
        assert weak_type_constant(SublinearProblem(k, prob.sigma, q)).extras["mode"] == "exact"
    assert len(valued) >= 150
    assert len(built) == 3  # the witnesses, content's extremal measure on each best set


def test_weights_that_overflow_still_raise():
    # u = (c phi)^(1/q), about 1e909, overflows at q = 0.01 while log u fits
    s = Space.of_size(1)
    prob = SublinearProblem(Kernel(s, [[1.0]]), Measure(s, [1e-10]), 0.01)
    with pytest.raises(DomainError, match="does not fit a float"):
        gagliardo_supersolution(prob, 1e10)
    # the start's weights overflow where the kernel column vanishes, so its
    # potential alone would pass the supersolution check
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, [[0.0, 0.0], [0.0, 1.0]]), Measure(s, [1e300, 1.0]), 0.5)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="contains infinite"):
        monotone_solution(prob, [1e300, 1.0])


def test_a_scale_that_overflows_raises_a_domain_error():
    # c = ((1 + RELAX) kappa^q)^(1/(1-q)) = (1.1e120)^5, so u does not fit a float
    s = Space.of_size(1)
    prob = SublinearProblem(Kernel(s, [[1e150]]), Measure(s, [1.0]), 0.8)
    with pytest.raises(DomainError, match="does not fit a float"):
        gagliardo_supersolution(prob, 1e150)
    with pytest.raises(DomainError, match="does not fit a float"):
        solve_equation(prob)


def _testing_reference(kernel, sigma):
    """Value, upper end and ball constant of the testing condition, each
    integral from ``Measure.restrict``, ``potential`` and ``integrate``."""
    search = _SubsetSearch(kernel, sigma, DEFAULT_BUDGET)

    def restricted(mask):
        nu = sigma.restrict(mask)
        return integrate(potential(kernel, nu), nu)

    def top_potential(m):
        mask = search.mask(m)
        return float(potential(kernel, sigma.restrict(mask))[mask].max())

    value, _, _, upper = search.max_ratio(lambda m: restricted(search.mask(m)),
                                          lambda m: sigma.mass(search.mask(m)),
                                          cap=top_potential)
    d, ball = _inverse_distance(kernel.entries), 0.0
    for x in range(kernel.size):
        for r in np.unique(d[x]):
            if sigma.mass(d[x] < r) > 0:
                ball = max(ball, float(restricted(d[x] < r) / sigma.mass(d[x] < r)))
    return value, upper, ball


def test_array_path_matches_the_measure_path_on_fuzzed_kernels(monkeypatch):
    rng = np.random.default_rng(19)
    cases = []
    for t in range(66):
        n = 2 + t % 7
        k = rand_kernel(rng, n, zero_frac=0.25, inf_frac=0.1, symmetric=t % 2 == 0)
        keep = rng.uniform(size=n) > 0.15
        keep[t % n] = True
        if t >= 60:  # a zero row and column on supp sigma
            G = k.entries.copy()
            G[t % n], G[:, t % n] = 0.0, 0.0
            k = Kernel(k.space, G)
        prob = SublinearProblem(k, Measure(k.space, rng.uniform(0.2, 1.5, n) * keep),
                                (0.3, 0.5, 0.7)[t % 3])
        strong = strong_type_constant(prob, with_upper=False)
        kappa = strong.extras["certified_upper"]
        kappa = kappa if np.isfinite(kappa) else strong.lower * (1.0 + 1e-6)
        cases.append((prob, kappa if np.isfinite(kappa) else 1.0))

    def solved(prob, kappa):
        sup = gagliardo_supersolution(prob, kappa)
        if sup.status != "supersolution":
            return [sup.u.tobytes()]
        return [sup.u.tobytes(), monotone_solution(prob, sup.u).u.tobytes()]

    def weak(prob):
        ests = [weak_type_constant(SublinearProblem(prob.kernel, prob.sigma, q))
                for q in (0.5, 1.0, 2.0)]
        return [(np.array([e.lower, e.upper, e.extras.get("cap0_value", -1.0)]).tobytes(),
                 e.extras["mode"]) for e in ests]

    found = [(check_testing_condition(p.kernel, p.sigma), solved(p, kappa), weak(p))
             for p, kappa in cases]
    monkeypatch.setattr(sublinear, "_apply", lambda kernel, v, sigma: potential(
        kernel, Measure(kernel.space, _weighted_terms(v, sigma.weights))))

    def public_cap0(self, m):
        if m not in self._caps[0]:
            self._caps[0][m] = cap0(self.kernel, self.mask(m)).value
        return self._caps[0][m]

    monkeypatch.setattr(_SubsetSearch, "cap0_value", public_cap0)
    balls = solutions = zero_rows = inf_rows = 0
    for (prob, kappa), (est, us, weaks) in zip(cases, found):
        assert weaks == weak(prob)
        rows = prob.kernel.entries[prob.sigma.support]
        zero_rows += (rows == 0).all(axis=1).any()  # cap0 is +inf: an unbounded LP
        inf_rows += np.isinf(rows).any()  # points that cap0's LP drops
        value, upper, ball = _testing_reference(prob.kernel, prob.sigma)
        assert np.array([est.lower, est.upper]).tobytes() == np.array([value, upper]).tobytes()
        if "ball_constant" in est.extras:
            balls += 1
            assert np.float64(est.extras["ball_constant"]).tobytes() == np.float64(ball).tobytes()
        assert us == solved(prob, kappa)
        solutions += len(us) == 2
    assert balls >= 3 and solutions >= 10 and zero_rows >= 6 and inf_rows >= 20


ORACLE_CAP = 100_000  # iterations of the plain-loop oracles below


def _stepwise_supersolution(problem, kappa):
    """The relaxed iteration's plain loop with every step through the checked
    ``_apply``, with its relative stop rule and its ``DomainError`` for a
    scale that overflows: the oracle of ``gagliardo_supersolution``."""
    _require_sublinear(problem.q)
    if not (kappa >= 0 and np.isfinite(kappa)):
        raise DomainError("kappa must be a finite nonnegative constant")
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    mass = sigma.total
    if mass == 0:
        raise DomainError("sigma must have positive total mass")
    n = kernel.size
    supp = sigma.support

    try:
        scale = ((1.0 + RELAX) * kappa**q) ** (1.0 / (1.0 - q))
    except OverflowError:
        raise DomainError("the solution's scale ((1 + RELAX) kappa^q)^(1/(1-q)) "
                          "does not fit a float") from None
    if kappa == 0.0:
        return SolveResult(np.zeros(n), "supersolution", 0.0, 0, 0.0)

    psi = RELAX / ((1.0 + RELAX) * mass)
    gain = 1.0 / ((1.0 + RELAX) * kappa**q)
    phi = np.full(n, psi)
    status = "diverged"
    iterations = 0
    for iterations in range(1, ORACLE_CAP + 1):
        pot = _apply(kernel, phi, sigma)
        nxt = psi + gain * pot**q
        if not np.isfinite(nxt[supp]).all():
            return SolveResult(nxt, "diverged", float("inf"), iterations, float("inf"))
        if (nxt < phi).any():
            raise RuntimeError("relaxed iteration lost monotonicity")
        l1 = float(nxt[supp] @ sigma.weights[supp])
        if l1 > 1.0 + 1e-8:
            return SolveResult(nxt, "diverged", float("inf"), iterations, float("inf"))
        delta = np.abs(nxt[supp] - phi[supp])
        phi = nxt
        if np.all(delta <= CONV_TOL * np.maximum(phi[supp], 1e-300)):
            status = "supersolution"
            break

    u = (scale * phi) ** (1.0 / q)
    rhs = _apply(kernel, u**q, sigma)
    # where both sides are +inf the supersolution inequality holds
    gap = np.subtract(u, rhs, out=np.zeros(n), where=~(np.isinf(u) & np.isinf(rhs)))
    bad = (gap < -1e-9 * np.maximum(1.0, np.abs(u))) & np.isfinite(u)
    if status == "supersolution" and bad.any():
        status = "diverged"
    residual = float(np.abs(gap[supp]).max()) if supp.size else 0.0
    return SolveResult(u, status, residual, iterations, lp_norm(u, sigma, q))


def _stepwise_monotone(problem, start):
    """The monotone descent's plain loop with every step through the checked
    ``_apply``: the oracle of ``monotone_solution``."""
    _require_sublinear(problem.q)
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    supp = sigma.support
    u0 = np.asarray(start, dtype=float)
    if u0.shape != (kernel.size,):
        raise DomainError("start vector has the wrong length")
    if np.isnan(u0).any() or (u0 < 0).any():
        raise DomainError("start must be a nonnegative vector")
    if not np.isfinite(u0[supp]).all():
        raise DomainError("start must be finite on the support of sigma")

    rhs = _apply(kernel, u0**q, sigma)
    slack = rhs[supp] - u0[supp]
    if (slack > 1e-12 * np.maximum(1.0, u0[supp])).any():
        raise DomainError("start is not a supersolution on the support of sigma")

    u = rhs
    iterations = 1
    status = "diverged"
    for iterations in range(2, ORACLE_CAP + 2):
        nxt = _apply(kernel, u**q, sigma)
        if not np.isfinite(nxt[supp]).all():
            return SolveResult(nxt, "diverged", float("inf"), iterations, float("inf"))
        if (nxt > u * (1.0 + 1e-12) + 1e-300).any():
            raise RuntimeError("monotone iteration increased")
        nxt = np.minimum(nxt, u)
        delta = np.abs(u[supp] - nxt[supp])
        done = np.all(delta <= CONV_TOL * np.maximum(u[supp], 1e-300))
        u = nxt
        if done:
            status = "converged"
            break

    final = _apply(kernel, u**q, sigma)
    residual = float(np.abs(u[supp] - final[supp]).max()) if supp.size else 0.0
    zeros = supp[u[supp] == 0.0]
    if status == "converged":
        status = "degenerate" if zeros.size else "solution"
    witness = tuple(kernel.space.points[i] for i in zeros)
    return SolveResult(u, status, residual, iterations, lp_norm(u, sigma, q),
                       witness)


def _outcome(solve, *args):
    """``(key, result)``: every output of ``solve(*args)`` as exact bytes and
    reprs, or the type and message of what it raised, RuntimeWarning included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            r = solve(*args)
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return (type(exc), str(exc)), None
    return (r.u.tobytes(), r.status, r.iterations, repr(r.residual), repr(r.lq_norm),
            r.witness), r


def _fuzzed_problem(n, seed, zeros, infs, partial, exponent, q, slack):
    """Optional 25 % zero and 15 % +inf entries, a scale of 10^exponent, some
    zero weights, and kappa from 1/100 to 10 times a valid strong constant of
    the kernel's finite part (a small one makes the supersolution diverge)."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.1, 3.0, (n, n))
    mask = rng.uniform(size=(n, n))
    if zeros:
        G[mask < 0.25] = 0.0
    if infs:
        G[mask > 0.85] = np.inf
    G *= 10.0**exponent
    w = rng.uniform(0.2, 1.5, n)
    if partial:
        w[rng.uniform(size=n) < 0.3] = 0.0
    prob = SublinearProblem(Kernel(Space.of_size(n), G), Measure(Space.of_size(n), w), q)
    with np.errstate(all="ignore"):
        top = np.where(np.isfinite(G), G, 0.0).max(axis=1)
        kappa = float((w @ top**q) ** (1.0 / q) * 10.0**slack)
    return prob, (kappa if np.isfinite(kappa) else 1.0)


FUZZ = (st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
        st.booleans(), st.floats(-200.0, 200.0), st.floats(0.05, 0.95), st.floats(-2.0, 1.0))


def _assert_agree(found, ref):
    """``_outcome`` pairs: the same exception, RuntimeWarning included, or the
    same status with ``u`` and ``lq_norm`` within 1e-9 relative wherever both are
    finite and at least 1e-300 (below that, subnormal rounding decides them).
    A ``diverged`` result compares its status and ``lq_norm`` only: its ``u`` is
    an iterate, of the plain loop or of the solver."""
    (key, res), (ref_key, want) = found, ref
    if res is None or want is None:
        assert key == ref_key
        return
    assert res.status == want.status
    pairs = [(np.array([res.lq_norm]), np.array([want.lq_norm]))]
    if want.status != "diverged":
        pairs.append((res.u, want.u))
    for a, b in pairs:
        assert (np.isfinite(a) == np.isfinite(b)).all()
        big = np.isfinite(b) & (np.minimum(np.abs(a), np.abs(b)) >= 1e-300)
        np.testing.assert_allclose(a[big], b[big], rtol=1e-9, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(*FUZZ)
@example(2, 2527363463, True, True, False, -193.64410806560448, 0.6240371105056759, -1.034279359727695)
@example(2, 1486910209, True, False, False, -176.812451130728, 0.9250690452056116, -1.2911144505009333)
@example(1, 0, False, False, False, -163.0, 0.5, -1.0)
@example(1, 1886966261, True, False, False, -12.136, 0.943, -1.952)
@example(1, 0, False, False, False, 154.0, 0.5, 1.0)
@example(3, 3091987258, False, True, True, -113.91273313481057, 0.7745493498305087, 0.8910126185349125)
@example(7, 1186410981, True, False, False, 112.0, 0.6331945144932148, -0.1315825349917632)
def test_newton_loops_agree_with_the_checked_loops(n, seed, zeros, infs, partial, exponent, q, slack):
    # the log-space solves against the plain loops of the oracles.  The first two
    # examples reach a potential (the first) or an iterate (the second) that
    # vanishes on supp sigma, so the solver meets a zero Jacobian row and must
    # not warn; the third has a solution below the least subnormal; the fourth
    # starts the monotone solve 1.2e218 times above the solution; in the fifth
    # u = (c phi)^(1/q) overflows, and the oracle's float power with it.  The
    # oracle's float u underflows to 0 in the sixth, so its check meets 0 * inf,
    # and its L^q norm overflows in the seventh: log u fits in both.  Where
    # the monotone oracle reads degenerate only because its iterates underflowed,
    # log u is finite at each of its zeros and the solve reads solution
    prob, kappa = _fuzzed_problem(n, seed, zeros, infs, partial, exponent, q, slack)
    ref = _outcome(_stepwise_supersolution, prob, kappa)
    found = _outcome(gagliardo_supersolution, prob, kappa)
    too_big = (DomainError, "the supersolution u does not fit a float (its log does)")
    scale = "the solution's scale ((1 + RELAX) kappa^q)^(1/(1-q)) does not fit a float"
    if ref[0] == (RuntimeWarning, "overflow encountered in power"):  # the oracle's u overflowed
        assert found[0] == too_big
    elif ref[0] == (DomainError, scale):  # checked before the oracle's loop, which may diverge
        assert found[0] == too_big or found[1].status == "diverged"
    elif ref[0][0] is RuntimeWarning:  # its u underflowed or its norm overflowed
        res = found[1]
        assert res.status == "supersolution" and np.isfinite(res.log_u[prob.sigma.support]).all()
        assert (res.u == 0.0).any() or res.lq_norm == np.inf
    else:
        _assert_agree(found, ref)
    start = ref[1].u if ref[1] is not None else np.ones(n)
    found, want = _outcome(monotone_solution, prob, start), _outcome(_stepwise_monotone, prob, start)
    res, oracle, supp = found[1], want[1], prob.sigma.support
    if res is not None and oracle is not None and oracle.status == "degenerate" \
            and np.isfinite(res.log_u[supp][oracle.u[supp] == 0.0]).all():
        assert res.status == "solution"
        event("the oracle's degenerate status came from underflow")
        return
    _assert_agree(found, want)


def _verdict_table_input(i, seed=0):
    """The verdict_table benchmark's input ``i`` at ``seed``: n = 10."""
    kernel, sigma = _workload_input(i, 10, (0.7, 1.0, 1.5, 2.0, 3.0)[(i // 3) % 5], seed)
    return SublinearProblem(kernel, sigma, (0.3, 0.5, 0.7)[i % 3])


def _supersolution_in_float(prob, u):
    """``u >= G(u^q sigma)`` on ``supp sigma``, each side in float."""
    supp = prob.sigma.support
    return bool((u[supp] >= _apply(prob.kernel, u**prob.q, prob.sigma)[supp]).all())


def test_solve_equation_agrees_with_the_fixed_point_loops():
    # Newton in log u against the relaxed and monotone loops from the certified
    # constant: status, witness and u, and e^delta u a supersolution in float
    rng = np.random.default_rng(37)
    problems = [_round_trip_input(i) for i in range(40)] + [_verdict_table_input(i)
                                                           for i in range(15)]
    for t in range(40):
        n = 2 + t % 7
        G = rand_kernel(rng, n, zero_frac=0.25).entries.copy()
        if t % 4 == 0:  # a zero row on supp sigma: degenerate
            G[t % n] = 0.0
        w = rng.uniform(0.2, 1.5, n) * (rng.uniform(size=n) > 0.2)
        w[(t + 1) % n] = 1.0
        problems.append(SublinearProblem(Kernel(Space.of_size(n), G),
                                         Measure(Space.of_size(n), w), (0.3, 0.5, 0.9)[t % 3]))
    degenerate = 0
    for prob in problems:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_equation(prob)[0]
        kappa = strong_type_constant(prob, with_upper=False).extras["certified_upper"]
        sol = monotone_solution(prob, gagliardo_supersolution(prob, kappa).u)
        assert (res.status, res.witness) == (sol.status, sol.witness)
        degenerate += res.status == "degenerate"
        assert (res.u == 0.0).tolist() == (sol.u == 0.0).tolist()
        pos = res.u > 0.0
        np.testing.assert_allclose(res.u[pos], sol.u[pos], rtol=1e-13, atol=0.0)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(np.exp(res.log_u), res.u, rtol=0.0, atol=0.0)
        assert res.iterations <= 6 and res.residual <= 1e-14 and 0.0 < res.delta <= 1e-12
        assert _supersolution_in_float(prob, np.exp(res.delta) * res.u)
    assert degenerate >= 10


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(), st.floats(-200.0, 200.0),
       st.floats(0.01, 0.99))
@example(3, 3, False, 0.99, 0.99)
@example(2, 1947983222, False, 0.75, 0.99)
def test_log_solve_is_free_of_scale(n, seed, partial, exponent, q):
    # sigma * t moves log u* by log t / (1-q) and nothing else, from 1e-200 to
    # 1e200: each solve's log u lies within its own delta of its log u*, sigma * t
    # rounds each weight by half an ulp, which moves log u* by eps / (1-q), and
    # shift and the difference round by an ulp or two of the logs in play
    rng = np.random.default_rng(seed)
    G = rand_kernel(rng, n, zero_frac=0.25).entries
    w = rng.uniform(0.2, 1.5, n)
    if partial:
        w[rng.uniform(size=n) < 0.3] = 0.0
    w[seed % n] = 1.0
    prob = SublinearProblem(Kernel(Space.of_size(n), G), Measure(Space.of_size(n), w), q)
    t = 10.0**exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        base, scaled = sublinear._log_solve(prob), sublinear._log_solve(prob.scaled(t))
    assert (scaled.status, scaled.witness) == (base.status, base.witness)
    assert base.status in ("solution", "degenerate")
    shift = math.log(t) / (1.0 - q)
    finite = np.isfinite(base.log_u)
    assert (np.isfinite(scaled.log_u) == finite).all()
    assert (scaled.log_u[~finite] == base.log_u[~finite]).all()
    eps = np.finfo(float).eps
    off = np.abs(scaled.log_u[finite] - shift - base.log_u[finite])
    enclosure = base.delta + scaled.delta + eps / (1.0 - q) \
        + 4.0 * eps * (abs(shift) + np.abs(scaled.log_u[finite]))
    assert (off <= enclosure).all(), (off.max(), base.delta + scaled.delta)


def test_the_zero_set_comes_from_the_zero_pattern():
    # 0 <-> 1 is a cycle and 2 -> 0 reaches it; 3 -> 4 -> nothing does not, and
    # 5 carries no sigma; at sigma * 1e-300 every u underflows, the status stays
    G = np.zeros((6, 6))
    G[0, 1] = G[1, 0] = G[2, 0] = G[3, 4] = 2.0
    G[5] = 1.0
    s = Space.of_size(6)
    w = np.array([1.0, 0.5, 0.7, 1.2, 0.3, 0.0])
    for t in (1.0, 1e-300):
        prob = SublinearProblem(Kernel(s, G), Measure(s, w * t), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_equation(prob)[0]
        assert (res.status, res.witness) == ("degenerate", (3, 4))
        assert (res.u[[3, 4]] == 0.0).all() and np.isfinite(res.log_u[[0, 1, 2, 5]]).all()
        assert (res.u[[0, 1, 2, 5]] > 0.0).all() == (t == 1.0)


def test_the_monotone_solve_keeps_the_zeros_of_its_start():
    # G = I: (1, 0) is a supersolution, indeed a solution, and the descent from
    # it stays there; the equation's positive solution is (1, 1)
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, np.eye(2)), Measure(s, [1.0, 1.0]), 0.5)
    res = monotone_solution(prob, [1.0, 0.0])
    assert (res.status, res.u.tolist(), res.witness) == ("degenerate", [1.0, 0.0], (1,))
    assert "_solution" not in prob.__dict__  # it peeled from its own mask, not the memo
    np.testing.assert_allclose(solve_equation(prob)[0].u, [1.0, 1.0], rtol=1e-15)
    again = monotone_solution(prob, [1.0, 0.0])  # the memo is there now, and not read
    assert (again.status, again.u.tolist()) == ("degenerate", [1.0, 0.0])


def test_the_monotone_solve_from_a_positive_start_is_the_equation_s():
    # from a positive supersolution the descent's limit is u*, bit for bit the
    # solve_equation's, and at most the start
    for i in range(0, 40, 3):
        prob = _round_trip_input(i)
        kappa = strong_type_constant(prob, with_upper=False).extras["certified_upper"]
        for start in (gagliardo_supersolution(prob, kappa).u, solve_equation(prob)[0].u):
            res = monotone_solution(prob, start)
            assert res.status == "solution" and (start > 0).all()
            assert res.u.tobytes() == solve_equation(prob)[0].u.tobytes()
            assert (res.u <= start * (1.0 + 1e-12)).all()


def test_the_local_route_survives_a_modifier_below_1e_162():
    # modify_kernel divides twice by sqrt(m(x) m(y)): np.outer(m, m) underflowed
    # to 0 below m = 1e-162 and a zero entry read 0/0 = nan.  At t = 1e-200 the
    # modified constant, about 4e-400, underflows to 0, and the route still
    # solves in logs; at 1e-300 the modified sigma, g^(1+q) sigma, is 0
    s = Space.of_size(2)
    for t, verdict in ((1e-100, "CONFIRMED"), (1e-200, "CONFIRMED"), (1e-300, "NOT-APPLICABLE")):
        kernel = Kernel(s, [[t, t], [t, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mod = modify_kernel(kernel, [t, t]).kernel.entries
            row = theorem_report(SublinearProblem(kernel, Measure(s, [1.0, 1.0]), 0.5)
                                 ).row("local_solution_route")
        assert mod[1, 1] == 0.0 and np.isfinite(mod).all()
        assert row.verdict == verdict
    assert row.details["reason"] == "modified sigma underflows the float range"


def test_a_solution_below_the_float_range_is_confirmed():
    # u* is about 1e-400: the relaxed supersolution's u underflows to 0 while its
    # log fits, and the report reads the log solve, not a descent from u = 0
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, [[1e-200, 1e-200], [1e-200, 0.0]]),
                            Measure(s, [1.0, 1.0]), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = theorem_report(prob)
        sup = gagliardo_supersolution(prob, rep.constants["strong_certified"])
    assert rep.verdict("supersolution_to_solution") == "CONFIRMED"
    assert rep.verdict("degenerate_dichotomy") == "CONFIRMED"
    assert sup.status == "supersolution" and (sup.u == 0.0).all()
    assert np.isfinite(sup.log_u).all()


def test_a_constant_below_the_float_range_keeps_a_positive_upper_end():
    # the local route's modified problem for G = [[t, t], [t, 0]] at t = 1e-200:
    # F = 2e-200, so the constant is 4e-400.  lower underflows to 0, the certified
    # upper end reads the least positive float, and the bracket stays exact
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, [[1e200, 1e200], [1e200, 0.0]]),
                            Measure(s, [1e-300, 1e-300]), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = strong_type_constant(prob)
    assert est.extras["objective"] == pytest.approx(2e-200, rel=1e-15)
    assert (est.lower, est.extras["certified_upper"]) == (0.0, math.ulp(0.0))
    assert est.extras["mode"] == "exact"
    assert est.upper == np.inf  # the WMP fails: no norm route


def test_a_degenerate_norm_route_keeps_the_loops_supersolution():
    # where u vanishes on supp sigma the upper end still comes from the relaxed
    # supersolution, to the bit, in logs; its L^q norm is 6.86903116222534790...
    # to 50 digits (the relaxed map iterated in mpmath from the same kappa)
    s = Space.of_size(3)
    prob = SublinearProblem(Kernel(s, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                            Measure(s, [1.0, 0.7, 0.4]), 0.5)
    assert solve_equation(prob)[0].status == "degenerate"
    est = strong_type_constant(prob)
    assert est.upper == 10.483534642266678
    assert est.extras["norm_route_lq"] == 6.869031162225348
    assert abs(est.extras["norm_route_lq"] - 6.86903116222534790) <= 2 * math.ulp(6.869)


def _isolated_point_problem(n, q, s):
    """A metric-power kernel whose point ``s % n``, charged by sigma, has a zero
    row and column: the plain solve is degenerate."""
    rng = np.random.default_rng([n, s, 45])
    G = metric_power_kernel(rng, n, float(rng.choice((0.7, 1.0, 2.0))),
                            float(rng.uniform(0.1, 0.6))).entries.copy()
    G[s % n, :] = G[:, s % n] = 0.0
    return SublinearProblem(Kernel(Space.of_size(n), G), rand_sigma(rng, Space.of_size(n)), q)


@pytest.mark.parametrize("seed", (0, 3))
def test_theorem_report_reads_the_strong_constants_norm_route(seed):
    # _norm_route alone chooses the supersolution it reads, the memoized plain
    # solve or, where that is degenerate, the relaxed one that its caller hands
    # over; theorem_report's bound and strong_type_constant's agree to the bit
    problems = [_verdict_table_input(i, seed) for i in range(15)]
    isolated = [_isolated_point_problem(n, q, s + 5 * seed)
                for n in range(4, 8) for q in (0.3, 0.5, 0.7) for s in range(5)]
    for prob in problems + isolated:
        bound = theorem_report(prob).constants["norm_route_upper"]
        assert np.isfinite(bound) and bound == strong_type_constant(prob).upper
    assert {prob._solution.status for prob in isolated} == {"degenerate"}
    assert "degenerate" not in {prob._solution.status for prob in problems}


def test_the_norm_route_solves_the_relaxed_supersolution_only_where_it_is_read(monkeypatch):
    # theorem_report hands _norm_route the relaxed supersolution it built, so a
    # degenerate report solves it once; strong_type_constant solves it lazily,
    # only where the plain solve is degenerate
    calls = []
    relaxed = sublinear.gagliardo_supersolution

    def counted(*args):
        calls.append(args[1])
        return relaxed(*args)
    monkeypatch.setattr(sublinear, "gagliardo_supersolution", counted)
    isolated = [_isolated_point_problem(n, q, s)
                for n in range(4, 8) for q in (0.3, 0.5, 0.7) for s in range(5)]
    for prob in isolated:
        calls.clear()
        assert np.isfinite(theorem_report(prob).constants["norm_route_upper"])
        assert prob._solution.status == "degenerate" and len(calls) == 1
        kappa = calls[0]
        calls.clear()
        assert np.isfinite(strong_type_constant(prob).upper) and calls == [kappa]
    for prob in (_verdict_table_input(i, 0) for i in range(15)):
        calls.clear()
        assert np.isfinite(strong_type_constant(prob).upper) and calls == []


def test_the_norm_route_and_the_solve_fit_at_sigma_times_1e100():
    # u ~ 1e201 fits a float, its L^q norm ~ 1e400 does not: the bound is taken
    # in logs, the norm reads +inf, and no overflow warning is raised
    rng = np.random.default_rng(5)
    k = metric_power_kernel(rng, 5)
    w = rand_sigma(rng, k.space).weights
    base = SublinearProblem(k, Measure(k.space, w), 0.5)
    prob = base.scaled(1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = strong_type_constant(prob)
        res = solve_equation(prob)[0]
    assert np.isfinite(est.upper) and est.upper >= est.lower
    assert est.upper / 1e200 == pytest.approx(strong_type_constant(base).upper, rel=1e-11)
    assert res.status == "solution" and np.isfinite(res.u).all() and res.lq_norm == np.inf
    np.testing.assert_allclose(res.log_u - math.log(1e100) * 2.0, solve_equation(base)[0].log_u,
                               rtol=0.0, atol=1e-12 * (1.0 + math.log(1e100)))


def test_log_solve_ends_unsettled_at_the_newton_cap(monkeypatch):
    # two Newton steps do not settle round_trip's input 5: the solve returns the
    # enclosing supersolution e^delta u, with delta doubled to enclose u* from
    # below too
    prob = _round_trip_input(5)
    full = sublinear._log_solve(prob)
    monkeypatch.setattr(sublinear, "NEWTON_STEPS", 2)
    cut = sublinear._log_solve(prob)
    assert (cut.status, cut.iterations) == ("supersolution", 2)
    assert _supersolution_in_float(prob, cut.u)
    assert (cut.log_u - cut.delta <= full.log_u).all() and (full.log_u <= cut.log_u).all()


@pytest.mark.parametrize("i", [0, 1])
def test_the_solution_norm_bound_is_compared_in_logs(i):
    # at G 2^200, sigma 2^200 the bound kappa^(1/(1-q)) overflows at q = 0.3 and
    # 0.5; the row compares logs and reads +inf for the bound in its details
    prob = _verdict_table_input(i)
    space = prob.kernel.space
    big = SublinearProblem(Kernel(space, np.ldexp(prob.kernel.entries, 200)),
                           Measure(space, np.ldexp(prob.sigma.weights, 200)), prob.q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep, base = theorem_report(big), theorem_report(prob)
    row = rep.row("solution_norm_bound")
    assert row.verdict == "CONFIRMED" and row.details["bound"] == np.inf
    # every other verdict stands, the cap0 LP fallback's too: it is free of scale
    assert [r.verdict for r in rep.rows] == [r.verdict for r in base.rows]


def test_every_fixed_point_solve_settles_within_eight_newton_steps(monkeypatch):
    # the floored map _log_solve solves, with or without a floor, is a convex
    # log-sum-exp with an M-matrix I - f', so Newton settles from its start in a
    # few steps.  These kernels have no zero entry, so every settled solve,
    # floored or not, reads solution
    runs, real = [], sublinear._log_solve

    def logged(*args, **kwargs):
        sol = real(*args, **kwargs)
        runs.append((sol.status, sol.iterations))
        return sol

    monkeypatch.setattr(sublinear, "_log_solve", logged)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i in range(40):  # the round_trip op's calls
            prob = _round_trip_input(i)
            est = strong_type_constant(prob)
            monotone_solution(prob, gagliardo_supersolution(prob, est.extras["certified_upper"]).u)
        for i in range(15):  # the verdict_table op's
            theorem_report(_verdict_table_input(i))
    # one floored and one plain solve per round_trip problem, and theorem_report's
    # floored, plain and local-route solves per verdict_table problem
    assert len(runs) == 125
    assert all(status == "solution" and steps <= 8 for status, steps in runs)


def test_the_round_trip_solves_each_problem_once_plain_and_once_floored(monkeypatch):
    # strong_type_constant's norm route and monotone_solution read one memoized
    # plain solve; the relaxed supersolution's floored solve is its own
    runs, real = [], sublinear._log_solve

    def logged(problem, *args, **kwargs):
        runs.append((problem, "log_b" in kwargs))
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(sublinear, "_log_solve", logged)
    for i in range(40):
        prob = _round_trip_input(i)
        est = strong_type_constant(prob)
        monotone_solution(prob, gagliardo_supersolution(prob, est.extras["certified_upper"]).u)
        assert all(solved is prob for solved, _ in runs)
        assert sorted(floored for _, floored in runs) == [False, True]
        runs.clear()


def test_the_memoized_solve_is_a_fresh_problem_s_bit_for_bit():
    # the descent from the (positive) relaxed supersolution reads the memo that
    # strong_type_constant filled; a fresh problem on the same kernel and sigma
    # solves from scratch, to the same bits
    fields = ("u", "log_u", "delta", "residual", "lq_norm", "status", "witness")
    for prob in [_round_trip_input(i) for i in range(40)] + \
            [_verdict_table_input(i) for i in range(15)]:
        kappa = strong_type_constant(prob).extras["certified_upper"]
        sol = monotone_solution(prob, gagliardo_supersolution(prob, kappa).u)
        fresh = sublinear._log_solve(SublinearProblem(prob.kernel, prob.sigma, prob.q))
        for name in fields:
            a, b = getattr(sol, name), getattr(fresh, name)
            assert (a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b, name
        assert sol.iterations == 1 + fresh.iterations


def test_the_memoized_solve_is_read_only():
    # solve_equation and monotone_solution hand out the problem's one plain solve
    prob = _round_trip_input(5)
    sol = solve_equation(prob)[0]
    mono = monotone_solution(prob, sol.u)
    assert mono.u is sol.u is prob._solution.u
    for arr in (sol.u, sol.log_u):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_the_testing_ratio_is_free_of_power_of_two_scale():
    # at sigma 2^-900 the terms sigma sigma G, about 2^-1800, underflow; the ratio
    # is of degree 1 in sigma and is taken on sigma over its largest power of two
    for i in range(15):
        prob = _verdict_table_input(i)
        space = prob.kernel.space
        small = SublinearProblem(prob.kernel, Measure(space, np.ldexp(prob.sigma.weights, -900)),
                                 prob.q)
        base = check_testing_condition(prob.kernel, prob.sigma)
        est = check_testing_condition(prob.kernel, small.sigma)
        for key in ("lower", "upper"):
            assert math.ldexp(getattr(est, key), 900) == getattr(base, key)
        assert math.ldexp(est.extras["ball_constant"], 900) == base.extras["ball_constant"]
        if prob.q == 0.3:  # u = (c phi)^(1/q) does not fit a float there (ROADMAP item 19)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chain = theorem_report(small).row("weak11_testing_chain")
        want = theorem_report(prob).row("weak11_testing_chain")
        assert chain.verdict == want.verdict == "CONFIRMED"
        assert math.ldexp(chain.details["testing"], 900) == want.details["testing"]


def test_the_monotone_norm_is_the_solves_norm_in_logs():
    # at sigma * 1e100 the solution u ~ 1e201 fits a float and its L^q norm
    # ~ 1e400 does not: the norm reads +inf, and no overflow warning is raised
    rng = np.random.default_rng(5)
    k = metric_power_kernel(rng, 5)
    prob = SublinearProblem(k, rand_sigma(rng, k.space), 0.5).scaled(1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kappa = strong_type_constant(prob, with_upper=False).extras["certified_upper"]
        sol = monotone_solution(prob, gagliardo_supersolution(prob, kappa).u)
    assert sol.status == "solution" and np.isfinite(sol.u).all() and sol.lq_norm == np.inf
    assert sol.lq_norm == solve_equation(prob)[0].lq_norm


@pytest.mark.parametrize("i", [1, 2])
def test_a_subnormal_mass_keeps_the_relaxed_supersolution(i):
    # at sigma 2^-1060 the mass is subnormal and psi = RELAX / ((1+RELAX) mass)
    # overflows; the floor b = (c psi)^(1/q) of the relaxed solve is taken in logs
    prob = _verdict_table_input(i)
    small = SublinearProblem(prob.kernel, Measure(prob.kernel.space,
                                                  np.ldexp(prob.sigma.weights, -1060)), prob.q)
    assert 0.0 < small.sigma.total < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = theorem_report(small)
        sup = gagliardo_supersolution(small, rep.constants["strong_certified"])
    assert sup.status == "supersolution" and sup.delta is None
    assert np.isfinite(sup.log_u[small.sigma.support]).all()
    assert rep.verdict("strong_to_supersolution") == "CONFIRMED"


@pytest.mark.parametrize("a, b", [(-900, 0), (-500, 500), (500, -500), (-200, -200), (200, 200)])
def test_the_weak_capacity_route_is_free_of_power_of_two_scale(a, b):
    # the cap0 LP fallback solves on its matrix over a power of two: on the bare
    # matrix the simplex's absolute tolerance flipped the row to VIOLATED on
    # inputs 0, 1 and 3 at these scalings.  A run out of the float range raises
    # its documented DomainError (ROADMAP items 6 and 19) and has no row
    ran = 0
    for i in range(4):
        prob = _verdict_table_input(i)
        space = prob.kernel.space
        scaled = SublinearProblem(Kernel(space, np.ldexp(prob.kernel.entries, a)),
                                  Measure(space, np.ldexp(prob.sigma.weights, b)), prob.q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rep = theorem_report(scaled)
            except DomainError as exc:
                assert "does not fit a float" in str(exc)
                continue
        ran += 1
        assert rep.verdict("weak_capacity_route") == "CONFIRMED"
    assert ran >= 2


@pytest.mark.parametrize("b, reason", [(-900, None), (-1060, "dual candidate unavailable")])
def test_energy_necessity_gates_on_the_objective(b, reason):
    # at sigma 2^-900 the strong constant F^(1/q) underflows to 0 while F is about
    # 2^-900: the row reads CONFIRMED, not "potential vanishes on sigma".  At
    # sigma 2^-1060 the dual candidate's F^(1-1/q) sigma overflows, so it is None
    prob = _verdict_table_input(1)
    small = SublinearProblem(prob.kernel, Measure(prob.kernel.space,
                                                  np.ldexp(prob.sigma.weights, b)), prob.q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = theorem_report(small)
        strong = strong_type_constant(small, with_upper=False)
        candidate = maurey_candidate(small, strong.witness)
    assert strong.lower == 0.0 < strong.extras["objective"]
    row = rep.row("energy_necessity")
    assert row.details.get("reason") == reason
    if reason is None:
        assert row.verdict == "CONFIRMED" and candidate is not None
    else:
        assert candidate is None


@pytest.mark.parametrize("i", [0, 1, 2])
def test_the_local_route_names_an_underflowing_modified_sigma(i):
    # at G 2^-900 the modifier g = min(1, G(., pole)) is about 1e-271, so the
    # modified sigma g^(1+q) sigma underflows to 0; its constant is 0, not infinite
    prob = _verdict_table_input(i)
    small = SublinearProblem(Kernel(prob.kernel.space, np.ldexp(prob.kernel.entries, -900)),
                             prob.sigma, prob.q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = theorem_report(small).row("local_solution_route")
    assert (row.verdict, row.details["reason"]) == (
        "NOT-APPLICABLE", "modified sigma underflows the float range")


def test_solve_equation_rejects_a_sigma_of_zero_mass():
    prob = SublinearProblem(Kernel(Space.of_size(2), [[1.0, 0.5], [0.5, 1.0]]),
                            Measure(Space.of_size(2), [0.0, 0.0]), 0.5)
    with pytest.raises(DomainError, match="positive total mass"):
        solve_equation(prob)


def test_solve_equation_diverges_where_the_constant_is_infinite():
    prob = SublinearProblem(Kernel(Space.of_size(1), [[np.inf]]),
                            Measure(Space.of_size(1), [1.0]), 0.5)
    sol, est = solve_equation(prob)
    assert sol.status == "diverged" and est.lower == np.inf
    assert sol.u.tolist() == sol.log_u.tolist() == [np.inf]
    assert sol.delta == np.inf


def test_strong_constant_vanishes_where_every_row_on_sigma_is_zero():
    # G[supp sigma] = 0: every potential vanishes on supp sigma, and F = 0 exactly
    prob = SublinearProblem(Kernel(Space.of_size(2), [[0.0, 0.0], [1.0, 0.0]]),
                            Measure(Space.of_size(2), [1.0, 0.0]), 0.5)
    est = strong_type_constant(prob)
    assert [est.lower, est.upper] == [0.0, 0.0]
    assert est.extras["mode"] == "exact"


def test_an_infinite_certificate_leaves_no_relaxed_supersolution(monkeypatch):
    # the norm route's relaxed supersolution takes certified_upper only: where
    # that is infinite there is none, so a degenerate plain solve reads +inf
    calls, relaxed, ascent = [], sublinear.gagliardo_supersolution, sublinear._maximize_concave
    monkeypatch.setattr(sublinear, "gagliardo_supersolution",
                        lambda *args: calls.append(args) or relaxed(*args))
    monkeypatch.setattr(sublinear, "_maximize_concave",
                        lambda *args: ascent(*args)[:2] + (float("inf"),))
    for prob in (_isolated_point_problem(n, q, s) for n in (4, 6) for q in (0.3, 0.7)
                 for s in range(3)):
        est = strong_type_constant(prob)
        assert prob._solution.status == "degenerate"
        assert (est.extras["mode"], est.extras["certified_upper"]) == ("heuristic", np.inf)
        assert np.isfinite(est.lower) and est.upper == np.inf and "norm_route_lq" not in est.extras
    assert calls == []


def test_the_search_keys_every_memo_by_its_mask_over_the_space():
    # sigma charges no point below 3, so a code over the positions of supp
    # sigma and the mask over the space differ on every subset
    rng = np.random.default_rng(50)
    kernel = metric_power_kernel(rng, 9)
    w = rng.uniform(0.2, 1.5, 9)
    w[[0, 1, 2, 5]] = 0.0
    sigma = Measure(kernel.space, w)
    search = _SubsetSearch(kernel, sigma, DEFAULT_BUDGET)
    for q in (0.5, 1.0):
        search.capacity_ratio(q)
        search.capacity_ratio(q, cap1=True)
    search.testing_ratio()
    memos = (search._sets, search._loads, search._caps[0], search._caps[1])
    assert all(len(memo) >= 5 for memo in memos) and len(search._sets) > 10
    supp = set(sigma.support.tolist())
    for memo in memos:
        for m in memo:
            idx = np.flatnonzero(_bits(m, kernel.size))
            assert idx.tolist() == search.subset(m)[0].tolist() and set(idx.tolist()) <= supp, m


def test_the_local_route_reads_violated_where_the_modified_solve_is_unsettled(monkeypatch):
    monkeypatch.setattr(sublinear, "NEWTON_STEPS", 1)  # one Newton step settles none of these
    for i in range(3):
        row = theorem_report(_round_trip_input(i)).row("local_solution_route")
        assert (row.verdict, row.details) == ("VIOLATED", {"modified_status": "supersolution"})


def test_an_objective_that_underflows_reads_a_zero_upper_end():
    # F = sigma (G nu)^q is about 1e-450: the bracket is [0, 0], found before the norm route
    s = Space.of_size(2)
    prob = SublinearProblem(Kernel(s, [[1e-300, 0.0], [0.0, 1e-300]]),
                            Measure(s, [1e-300, 1e-300]), 0.5)
    est = strong_type_constant(prob)
    assert (est.lower, est.upper, est.extras["objective"], est.extras["mode"]) == (0.0, 0.0, 0.0,
                                                                                  "exact")
    assert "wmp_constant" not in est.extras


def test_the_solvers_and_the_dual_reject_malformed_input():
    s = Space.of_size(2)
    kernel, sigma = Kernel(s, [[1.0, 0.5], [0.5, 1.0]]), Measure(s, [1.0, 1.0])
    prob = SublinearProblem(kernel, sigma, 0.5)
    with pytest.raises(SpaceMismatchError, match="^kernel and sigma live on different spaces$"):
        SublinearProblem(kernel, Measure(Space.of_size(3), [1.0, 1.0, 1.0]), 0.5)
    for kappa in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="^kappa must be a finite nonnegative constant$"):
            gagliardo_supersolution(prob, kappa)
    with pytest.raises(DomainError, match="^start vector has the wrong length$"):
        monotone_solution(prob, [1.0, 1.0, 1.0])
    for start in ([1.0, -1.0], [np.nan, 1.0]):
        with pytest.raises(DomainError, match="^start must be a nonnegative vector$"):
            monotone_solution(prob, start)
    with pytest.raises(DomainError, match="^F has the wrong length$"):
        maurey_verify(prob, [1.0])
    with pytest.raises(DomainError, match=r"^F\^\(1-1/q\) sigma is not a finite measure$"):
        maurey_verify(SublinearProblem(kernel, sigma, 2.0), [np.inf, 1.0])
    for p in (1.0, np.inf, 0.5):
        with pytest.raises(DomainError, match=r"^p must lie in \(1, inf\)$"):
            lp_operator_norm(kernel, sigma, p)


def test_a_report_row_names_only_its_claims():
    rep = theorem_report(_round_trip_input(1))
    assert rep.row("local_solution_route").claim == "local_solution_route"
    with pytest.raises(KeyError, match="no_such_claim"):
        rep.row("no_such_claim")
    with pytest.raises(KeyError, match="no_such_claim"):
        rep.verdict("no_such_claim")


def test_lp_operator_norm_is_free_of_zero_weights():
    # 0 ** e is 0 for both exponents in (0, 1): a zero weight drops its row
    # and column, as on the measure's support alone
    rng = np.random.default_rng(11)
    kernel = metric_power_kernel(rng, 6)
    w = rand_sigma(rng, kernel.space).weights.copy()
    w[[1, 4]] = 0.0
    keep = np.flatnonzero(w)
    sub = Kernel(Space.of_size(keep.size), kernel.entries[np.ix_(keep, keep)])
    for p in (1.5, 2.0, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            full = lp_operator_norm(kernel, Measure(kernel.space, w), p)
        assert full == pytest.approx(lp_operator_norm(sub, Measure(sub.space, w[keep]), p),
                                     rel=1e-9)


def test_every_inequality_of_the_report_goes_through_at_most(monkeypatch):
    # nine comparisons: one each in four rows, two in the capacity route and
    # three in the chain, all CONFIRMED on these inputs
    calls, at_most = [0], sublinear._at_most

    def counted(*args, **kwargs):
        calls[0] += 1
        return at_most(*args, **kwargs)

    monkeypatch.setattr(sublinear, "_at_most", counted)
    for i in range(3):
        calls[0] = 0
        rep = theorem_report(_verdict_table_input(i), seed=0)
        assert calls[0] == 9, i
        assert {row.verdict for row in rep.rows} == {"CONFIRMED"}


@pytest.mark.parametrize("i", [0, 1, 2])
def test_a_failed_comparison_flips_exactly_the_inequality_rows(monkeypatch, i):
    prob = _verdict_table_input(i)
    base = theorem_report(prob, seed=0)
    monkeypatch.setattr(sublinear, "_at_most", lambda *args, **kwargs: False)
    flipped = theorem_report(prob, seed=0)
    changed = [new.claim for old, new in zip(base.rows, flipped.rows, strict=True)
               if (old.verdict, old.details) != (new.verdict, new.details)]
    assert changed == [row.claim for row in flipped.rows if row.verdict == "VIOLATED"] == [
        "supersolution_to_strong", "solution_norm_bound", "energy_necessity",
        "lorentz_sufficiency", "weak_capacity_route", "weak11_testing_chain"]


# three instances outside a row's hypotheses, each once read VIOLATED
_OFF_SUPPORT_INF = ([[1.0, 1.0], [np.inf, 1.0]], [1.0, 0.0], 0.5)
_QUASI_SYMMETRIC = ([[1.0, 0.1], [1.0, 0.1]], [0.0, 1.0], 0.5)
_ONE_SIDED_ZEROS = ([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0], 0.5)


def _report(entries, weights, q):
    s = Space.of_size(len(weights))
    prob = SublinearProblem(Kernel(s, entries), Measure(s, weights), q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return theorem_report(prob), strong_type_constant(prob)


# the off-support inf: at point 1, u_loc and G(u_loc^q sigma) are both +inf;
# quasi-symmetric: a = 10 and the WMP exact with h = 1, yet the bounds omit a;
# one-sided zeros: every column lives, but point 0's row is zero, so the solve is degenerate
@pytest.mark.parametrize("case, claim, verdict, key, value", [
    (_OFF_SUPPORT_INF, "local_solution_route", "CONFIRMED", "residual", 0.0),
    (_QUASI_SYMMETRIC, "supersolution_to_strong", "NOT-APPLICABLE", "reason", _NO_WMP_SYM),
    (_QUASI_SYMMETRIC, "lorentz_sufficiency", "NOT-APPLICABLE", "reason", _NO_LORENTZ),
    (_ONE_SIDED_ZEROS, "supersolution_to_solution", "NOT-APPLICABLE", "reason",
     "needs a quasi-symmetric kernel"),
])
def test_rows_outside_their_hypotheses(case, claim, verdict, key, value):
    row = _report(*case)[0].row(claim)
    assert (row.verdict, row.details[key]) == (verdict, value)


def _fuzz_case(n, q, seed):
    """A kernel of one of five kinds, lognormal(0, 2) entries: symmetric, symmetric
    with symmetric zeros, non-symmetric, non-symmetric with zeros, or with 15 % +inf
    entries; sigma lognormal with about 15 % zeros."""
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(5))
    G = rng.lognormal(0.0, 2.0, (n, n))
    if kind < 2:
        G = np.triu(G) + np.triu(G, 1).T
    if kind in (1, 3):
        zeros = rng.random((n, n)) < 0.3
        G[zeros | zeros.T if kind == 1 else zeros] = 0.0
    if kind == 4:
        G[rng.random((n, n)) < 0.15] = np.inf
    sigma = rng.lognormal(0.0, 2.0, n) * (rng.random(n) >= 0.15)
    return G.tolist(), sigma.tolist(), q


@settings(max_examples=300, deadline=None)
@given(st.builds(_fuzz_case, st.integers(1, 5), st.floats(0.05, 0.95),
                 st.integers(0, 2**32 - 1)))
@example(_OFF_SUPPORT_INF)
@example(_QUASI_SYMMETRIC)
@example(_ONE_SIDED_ZEROS)
def test_no_row_reads_violated_on_small_kernels(case):
    rep, est = _report(*case)
    assert [row.claim for row in rep.rows if row.verdict == "VIOLATED"] == []
    assert est.upper >= est.lower
