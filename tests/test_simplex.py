"""Dense packing-LP simplex, cross-checked against scipy.optimize.linprog.

scipy is a test-side oracle only; the package itself never imports it.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from potbench.simplex import LpProblem, LpSolution, SimplexStallError, solve_lp


def _scipy_solve(problem):
    """Same problem through HiGHS (which minimizes, so flip the objective).
    Its presolve calls some unbounded packing LPs infeasible (seed 22 of
    the scipy test), although ``x = 0`` is feasible, so it is off."""
    return linprog(-problem.objective, A_ub=problem.lhs, b_ub=problem.rhs,
                   bounds=[(0, None)] * problem.objective.size, method="highs",
                   options={"presolve": False})


def _packing_lp(rng, n_max=7, m_max=7):
    """A seeded packing LP: mixed-sign ``A``, ``b >= 0`` with some zeros."""
    n = int(rng.integers(1, n_max))
    m = int(rng.integers(1, m_max))
    b = rng.uniform(0.1, 2.0, size=m)
    b[rng.uniform(size=m) < 0.25] = 0.0
    return LpProblem(rng.normal(size=n), rng.normal(size=(m, n)), b)


# maximize x + y subject to x + 2y <= 4, 3x + y <= 6: corner (8/5, 6/5)
def test_hand_lp():
    p = LpProblem([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(14.0 / 5.0, abs=1e-12)
    assert sol.x == pytest.approx([8.0 / 5.0, 6.0 / 5.0], abs=1e-12)
    # dual prices from the two binding rows: solve [[1,3],[2,1]] y = (1,1)
    assert sol.duals == pytest.approx([2.0 / 5.0, 1.0 / 5.0], abs=1e-12)


def test_unbounded_with_ray():
    p = LpProblem([1.0, 0.0], [[-1.0, 1.0]], [1.0])
    sol = solve_lp(p)
    assert sol.status == "unbounded"
    ray = sol.ray
    assert ray is not None and ray[0] > 0
    # the ray stays feasible and improves the objective
    assert float(np.array([-1.0, 1.0]) @ ray) <= 1e-12
    assert float(np.array([1.0, 0.0]) @ ray) > 0


def test_degenerate_cycling_guard():
    # classic degenerate vertex; Bland's rule must terminate
    p = LpProblem(
        [10.0, -57.0, -9.0, -24.0],
        [
            [0.5, -5.5, -2.5, 9.0],
            [0.5, -1.5, -0.5, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ],
        [0.0, 0.0, 1.0],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_random_against_scipy(seed):
    p = _packing_lp(np.random.default_rng(seed))
    ref = _scipy_solve(p)
    ours = solve_lp(p)
    if ours.status == "optimal":
        assert ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
        # our primal point must be feasible for scipy's model too
        assert (p.lhs @ ours.x - p.rhs <= 1e-8).all()
    else:
        assert ours.status == "unbounded" and ref.status == 3


@pytest.mark.parametrize("seed", range(10))
def test_duality_certificate(seed):
    # weak duality by hand: y >= 0 and A^T y >= c imply the dual bound
    # b @ y; at an optimum the bound is tight
    rng = np.random.default_rng(100 + seed)
    n, m = 4, 5
    c = rng.normal(size=n)
    A = rng.uniform(0.2, 1.5, size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    p = LpProblem(c, A, b)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    y = sol.duals
    assert (y >= -1e-9).all()
    assert (A.T @ y - c >= -1e-9).all()
    assert float(b @ y) == pytest.approx(sol.value, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("status", ["optimal", "unbounded"])
def test_certificates_on_every_sense(status):
    # duals and rays of seeded packing LPs with mixed-sign rows and zeros
    # in b, the one sense the solver takes
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        p = _packing_lp(rng)
        sol = solve_lp(p)
        if sol.status != status:
            continue
        checked += 1
        A, b, c = p.lhs, p.rhs, p.objective
        if status == "unbounded":
            ray = sol.ray
            assert (ray >= 0).all() and float(c @ ray) > 0
            assert (A @ ray <= 1e-9).all()
            continue
        y = sol.duals
        assert (y >= -1e-9).all()
        assert (A.T @ y - c >= -1e-9).all()
        assert float(b @ y) == pytest.approx(sol.value, rel=1e-9, abs=1e-9)


def test_rejects_bad_problems():
    with pytest.raises(ValueError):
        LpProblem([1.0], [[np.inf]], [1.0])
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], [[1.0, 2.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        LpProblem([1.0], [[1.0]], [-1.0])


def test_solution_shape():
    sol = solve_lp(LpProblem([1.0], [[1.0]], [2.0]))
    assert isinstance(sol, LpSolution)
    assert sol.iterations >= 1


def test_a_pivot_cap_raises_a_stall(monkeypatch):
    # the hand LP needs two pivots: a cap of one stops it with the error, never an answer
    monkeypatch.setattr("potbench.simplex.MAX_PIVOTS", 1)
    with pytest.raises(SimplexStallError, match="^simplex exceeded 1 pivots$"):
        solve_lp(LpProblem([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0]))
