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

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from potbench import (
    DomainError,
    Kernel,
    Measure,
    NormSpec,
    Space,
    SublinearProblem,
    energy_criteria,
    energy_sweep,
    energy_value,
    gagliardo_supersolution,
    integrate,
    lp_operator_norm,
    maurey_candidate,
    maurey_verify,
    monotone_solution,
    norm,
    potential,
    solve_equation,
    strong_type_constant,
    testing_condition_11 as check_testing_condition,
    theorem_report,
    weak_quotient_bound,
    weak_type_constant,
)
from potbench import cap0, quasimetric_constant, sublinear, wiener_cap1
from potbench.core import _nonempty_subsets
from potbench.principles import DEFAULT_BUDGET
from potbench.sublinear import GOLDEN_THRESHOLD, _SubsetSearch
from conftest import metric_power_kernel, rand_kernel, rand_sigma


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
    res = gagliardo_supersolution(point_problem(), kappa=1.0, relax=0.1)
    assert res.status == "supersolution"
    assert res.u[0] == pytest.approx(1.4641, rel=1e-9)
    # the supersolution property itself
    assert res.u[0] >= 1.4641 ** 0.5 - 1e-12


def test_gagliardo_needs_sublinear_exponent():
    with pytest.raises(DomainError):
        gagliardo_supersolution(point_problem(q=1.0), kappa=1.0)
    with pytest.raises(DomainError):
        gagliardo_supersolution(point_problem(), kappa=1.0, relax=0.0)


def test_monotone_descent_scalar():
    prob = point_problem()
    start = gagliardo_supersolution(prob, kappa=1.0).u
    res = monotone_solution(prob, start)
    assert res.status == "solution"
    assert res.u[0] == pytest.approx(1.0, rel=1e-9)
    assert res.residual <= 1e-9


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
    wk = norm(pot, prob.sigma, NormSpec.weak_lorentz(0.5))
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
    wk = norm(pot, prob.sigma, NormSpec.weak_lorentz(2.0))
    assert wk == pytest.approx(expected, rel=1e-12)
    assert est.extras["level_set_constant"] >= est.lower - 1e-12


def test_weak_quotient_oracle():
    s = Space.of_size(2)
    omega = Measure(s, [1.0, 1.0])
    nu = Measure.delta(s, 0)
    rep = weak_quotient_bound(HALF, omega, nu)
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


def test_lp_operator_norm_infinite():
    s = Space.of_size(2)
    k = Kernel(s, [[np.inf, 1.0], [1.0, 1.0]])
    assert lp_operator_norm(k, Measure(s, [1.0, 1.0]), 2.0) == np.inf


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
    for res in (sup, sol):
        assert np.isinf(res.u[2]) and np.isfinite(res.u[:2]).all()
        assert 0.0 < res.lq_norm == norm(res.u, sigma, NormSpec.lp(0.5)) < np.inf
    assert np.isinf(div.u[0]) and np.isinf(div.u[2])
    assert div.lq_norm == norm(div.u, sigma, NormSpec.lp(0.5)) == np.inf


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
    val = norm(pot, prob.sigma, NormSpec.lp(prob.q)) / est.witness.total
    assert val >= est.lower * (1.0 - 1e-9)
    if np.isfinite(est.extras.get("certified_upper", np.inf)):
        assert est.lower <= est.extras["certified_upper"] * (1.0 + 1e-9)



def test_strong_bracket_against_scipy():
    # an independent optimizer, SLSQP on the simplex, must land inside the
    # certified bracket [lower, certified_upper] of the multiplicative ascent
    rng = np.random.default_rng(70)
    for i in range(8):
        n = 3 + i % 6
        q = (0.3, 0.5, 0.7)[i % 3]
        kernel = metric_power_kernel(rng, n, power=(0.7, 1.0, 1.5, 2.0, 3.0)[i % 5],
                                     offset=float(rng.uniform(0.1, 0.6)))
        sigma = rand_sigma(rng, kernel.space)
        est = strong_type_constant(SublinearProblem(kernel, sigma, q), with_upper=False)
        A, s = kernel.entries, sigma.weights
        res = minimize(lambda nu: -(s @ (A @ nu) ** q), np.full(n, 1.0 / n),
                       jac=lambda nu: -q * ((s * (A @ nu) ** (q - 1.0)) @ A),
                       method="SLSQP", bounds=[(0.0, 1.0)] * n,
                       constraints=[{"type": "eq", "fun": lambda nu: nu.sum() - 1.0}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        assert res.success, f"instance {i}: {res.message}"
        nu = np.clip(res.x, 0.0, None)
        ref = float(s @ (A @ (nu / nu.sum())) ** q) ** (1.0 / q)
        assert est.lower * (1.0 - 1e-9) <= ref, f"instance {i}: {ref} below {est.lower}"
        assert ref <= est.extras["certified_upper"] * (1.0 + 1e-9), \
            f"instance {i}: {ref} above {est.extras['certified_upper']}"

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
    calls = {"cap0": [], "wiener_cap1": []}
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
    support, in ``_nonempty_subsets`` order, and the first set reaching it;
    stops at ``+inf``."""
    supp = sigma.support
    best, best_set = 0.0, None
    for row in _nonempty_subsets(supp.size):
        mask = np.zeros(kernel.size, dtype=bool)
        mask[supp[row]] = True
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
    return lambda mask: wiener_cap1(kernel, mask, _exceptional=False).value


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
