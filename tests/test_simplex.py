"""Dense simplex solver, cross-checked against scipy.optimize.linprog.

scipy is a test-side oracle only; the package itself never imports it.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from potbench import simplex
from potbench.simplex import LpProblem, LpSolution, solve_lp, solve_lps


def _both(problem):
    """The problem through both entry points: ``solve_lp`` and a batch of one
    through ``solve_lps``."""
    return solve_lp(problem), solve_lps([problem])[0]


def _scipy_solve(problem):
    """Same problem through HiGHS (which minimizes, so flip the objective)."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, b, sense in zip(problem.lhs, problem.rhs, problem.senses):
        if sense == "<=":
            A_ub.append(row)
            b_ub.append(b)
        elif sense == ">=":
            A_ub.append(-row)
            b_ub.append(-b)
        else:
            A_eq.append(row)
            b_eq.append(b)
    res = linprog(
        -problem.objective,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * problem.objective.size,
        method="highs",
    )
    return res


# maximize x + y subject to x + 2y <= 4, 3x + y <= 6: corner (8/5, 6/5)
def test_hand_lp():
    p = LpProblem([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0], ("<=", "<="))
    for sol in _both(p):
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(14.0 / 5.0, abs=1e-12)
        assert sol.x == pytest.approx([8.0 / 5.0, 6.0 / 5.0], abs=1e-12)
        # dual prices from the two binding rows: solve [[1,3],[2,1]] y = (1,1)
        assert sol.duals == pytest.approx([2.0 / 5.0, 1.0 / 5.0], abs=1e-12)


def test_equality_and_ge_rows():
    p = LpProblem(
        [0.0, -1.0],
        [[1.0, 1.0], [1.0, 0.0]],
        [2.0, 0.5],
        ("==", ">="),
    )
    for sol in _both(p):
        assert sol.status == "optimal"
        # maximize -y with x + y = 2 and x >= 0.5 pushes y to 0
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.x[1] == pytest.approx(0.0, abs=1e-12)

    # maximize -x + 2y with -y == 0, 2x + y >= 1, -x - 2y <= 1: phase 1 ends
    # with the artificial of -y == 0 basic at level zero, and a real pivot
    # drives it out before phase 2
    A = np.array([[0.0, -1.0], [2.0, 1.0], [-1.0, -2.0]])
    b, c = np.array([0.0, 1.0, 1.0]), np.array([-1.0, 2.0])
    for sol in _both(LpProblem(c, A, b, ("==", ">=", "<="))):
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-0.5, abs=1e-12)
        assert sol.x == pytest.approx([0.5, 0.0], abs=1e-12)
        assert float(b @ sol.duals) == pytest.approx(sol.value, abs=1e-12)
        assert (A.T @ sol.duals >= c - 1e-12).all()


def test_unbounded_with_ray():
    p = LpProblem([1.0, 0.0], [[-1.0, 1.0]], [1.0], ("<=",))
    for sol in _both(p):
        assert sol.status == "unbounded"
        ray = sol.ray
        assert ray is not None and ray[0] > 0
        # the ray stays feasible and improves the objective
        assert float(np.array([-1.0, 1.0]) @ ray) <= 1e-12
        assert float(np.array([1.0, 0.0]) @ ray) > 0


def test_infeasible():
    # x <= 1 and x >= 2
    p = LpProblem([1.0], [[1.0], [1.0]], [1.0, 2.0], ("<=", ">="))
    for sol in _both(p):
        assert sol.status == "infeasible"


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
        ("<=", "<=", "<="),
    )
    for sol in _both(p):
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.1, 2.0, size=m)
    senses = tuple(rng.choice(["<=", ">=", "=="]) for _ in range(m))
    p = LpProblem(c, A, b, senses)
    ref = _scipy_solve(p)
    for ours in _both(p):
        if ours.status == "optimal":
            assert ref.status == 0
            assert ours.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
            # our primal point must be feasible for scipy's model too
            slack = p.lhs @ ours.x - p.rhs
            for g, sense in zip(slack, p.senses):
                if sense == "<=":
                    assert g <= 1e-8
                elif sense == ">=":
                    assert g >= -1e-8
                else:
                    assert abs(g) <= 1e-8
        elif ours.status == "unbounded":
            assert ref.status == 3
        else:
            assert ref.status == 2


@pytest.mark.parametrize("seed", range(10))
def test_duality_certificate(seed):
    # weak duality by hand: for <=-form rows, y >= 0 and A^T y >= c imply
    # the dual bound b @ y; at an optimum the bound is tight
    rng = np.random.default_rng(100 + seed)
    n, m = 4, 5
    c = rng.normal(size=n)
    A = rng.uniform(0.2, 1.5, size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    p = LpProblem(c, A, b, ("<=",) * m)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    y = sol.duals
    assert (y >= -1e-9).all()
    assert (A.T @ y - c >= -1e-9).all()
    assert float(b @ y) == pytest.approx(sol.value, rel=1e-9, abs=1e-9)


def _mixed_lp(rng):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    b = rng.uniform(0.0, 2.0, size=m)
    senses = tuple(rng.choice(["<=", ">=", "=="], size=m))
    return LpProblem(rng.normal(size=n), rng.normal(size=(m, n)), b, senses)


@pytest.mark.parametrize("status", ["optimal", "unbounded", "infeasible"])
def test_certificates_on_every_sense(status):
    # duals, rays and Farkas vectors of seeded LPs mixing all three senses;
    # the sign of a row's multiplier is fixed by its sense
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        p = _mixed_lp(rng)
        if solve_lp(p).status != status:
            continue
        checked += 1
        A, b, c = p.lhs, p.rhs, p.objective
        le = np.array([s == "<=" for s in p.senses])
        ge = np.array([s == ">=" for s in p.senses])
        for sol in _both(p):
            assert sol.status == status
            if status == "unbounded":
                ray, Ar = sol.ray, A @ sol.ray
                assert (ray >= 0).all() and float(c @ ray) > 0
                assert (Ar[le] <= 1e-9).all() and (Ar[ge] >= -1e-9).all()
                assert np.abs(Ar[~le & ~ge]).max(initial=0.0) <= 1e-9
                continue
            y = sol.duals if status == "optimal" else sol.ray
            assert (y[le] >= -1e-9).all() and (y[ge] <= 1e-9).all()
            if status == "optimal":
                assert (A.T @ y - c >= -1e-9).all()
                assert float(b @ y) == pytest.approx(sol.value, rel=1e-9, abs=1e-9)
            else:  # Farkas: y A >= 0 with y b < 0, so no x >= 0 solves the rows
                assert (A.T @ y >= -1e-9).all()
                assert float(b @ y) < 0


def _bit_equal(a, b):
    """Every field of two solutions, arrays byte for byte."""
    if (a.status, a.iterations, a.value) != (b.status, b.iterations, b.value):
        return False
    for u, v in ((a.x, b.x), (a.duals, b.duals), (a.ray, b.ray)):
        if (u is None) != (v is None) or (u is not None and (
                u.shape != v.shape or u.tobytes() != v.tobytes())):
            return False
    return True


def test_mixed_batch_is_bit_equal(monkeypatch):
    # LPs of one shape and one senses tuple that end optimal, unbounded and
    # infeasible after different pivot counts, solved in one lockstep call;
    # the first one is the second LP of test_equality_and_ge_rows, whose
    # artificial stays basic after phase 1 and is driven out
    senses = ("==", ">=", "<=")
    problems = [LpProblem([-1.0, 2.0], [[0.0, -1.0], [2.0, 1.0], [-1.0, -2.0]],
                          [0.0, 1.0, 1.0], senses)]
    rng = np.random.default_rng(11)
    problems += [LpProblem(rng.normal(size=2), rng.normal(size=(3, 2)), rng.uniform(0, 2, 3),
                           senses) for _ in range(40)]
    driven = []
    drive_out = simplex._drive_out
    monkeypatch.setattr(simplex, "_drive_out",
                        lambda *args: driven.append(drive_out(*args)) or driven[-1])
    batch = solve_lps(problems)
    monkeypatch.undo()
    assert driven[0] == 1  # the first LP is feasible, so it is driven out first
    singles = [solve_lp(p) for p in problems]
    assert all(_bit_equal(a, b) for a, b in zip(batch, singles))
    assert {s.status for s in singles} == {"optimal", "unbounded", "infeasible"}
    assert len({s.iterations for s in singles}) >= 4


def test_solve_lps_rejects_mixed_shapes():
    p = LpProblem([1.0], [[1.0]], [1.0], ("<=",))
    assert solve_lps([]) == []
    with pytest.raises(ValueError):
        solve_lps([p, LpProblem([1.0], [[1.0]], [1.0], (">=",))])
    with pytest.raises(ValueError):
        solve_lps([p, LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], ("<=",))])


def test_rejects_bad_problems():
    with pytest.raises(ValueError):
        LpProblem([1.0], [[np.inf]], [1.0], ("<=",))
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], [[1.0, 2.0]], [1.0], ("<=", "<="))
    with pytest.raises(ValueError):
        LpProblem([1.0], [[1.0]], [1.0], ("<",))
    with pytest.raises(ValueError):
        LpProblem([1.0], [[1.0]], [-1.0], ("<=",))


def test_solution_shape():
    sol = solve_lp(LpProblem([1.0], [[1.0]], [2.0], ("<=",)))
    assert isinstance(sol, LpSolution)
    assert sol.iterations >= 1
