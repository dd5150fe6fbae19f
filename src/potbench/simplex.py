"""Dense one-phase simplex for packing LPs, with Bland's rule and duality
certificates.

Problems are small (tens of variables), and callers need exact verdicts
-- ``optimal`` with matching dual values, or ``unbounded`` with an improving
ray -- rather than a best-effort float.  A stalled solve raises
:class:`SimplexStallError`; it never returns a silently wrong answer.

Form accepted: maximize ``c @ x`` subject to ``A x <= b`` and ``x >= 0``,
with ``b >= 0``.  ``x = 0`` is then feasible, so the slack basis starts the
one phase and no problem is infeasible.  The package's one LP is ``cap0``'s
(whose dual is ``content``'s), solved only where its complementary-slackness
certificate declines; the maximum-principle constants solve none.  All
coefficients must be finite; callers pre-reduce infinite kernel entries (an
``+inf`` coefficient in a row forces its variable to zero) before building a
problem.

Column layout: the originals, then the slack of each row in row order.  Row
``i`` starts basic in ``identity[i]``, its slack, the column that holds
``+e_i``.  Those columns of the final tableau hold ``B^{-1}``, so the optimal
duals and (through ``basis``) the primal point and the ray are each one
indexing expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "SimplexStallError", "solve_lp"]

TOL = 1e-9
MAX_PIVOTS = 100_000


class SimplexStallError(RuntimeError):
    """The pivot loop hit its iteration cap without reaching a verdict."""


@dataclass(frozen=True)
class LpProblem:
    """maximize ``objective @ x`` s.t. ``lhs x <= rhs``, ``x >= 0``."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if A.shape != (b.size, c.size):
            raise ValueError(f"shape mismatch: lhs {A.shape}, rhs {b.shape}, objective {c.shape}")
        for arr, name in ((c, "objective"), (A, "lhs"), (b, "rhs")):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite (pre-reduce infinities first)")
        if (b < 0).any():
            raise ValueError("rhs must be nonnegative")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", A)
        object.__setattr__(self, "rhs", b)


@dataclass
class LpSolution:
    status: str  # "optimal" | "unbounded"
    value: float | None
    x: np.ndarray | None
    duals: np.ndarray | None
    ray: np.ndarray | None  # unbounded: improving ray
    iterations: int


def _tableau(A, b, c):
    """Starting tableau of ``max c x`` s.t. ``A x <= b``: ``(T, basis,
    identity)``, the slack basis with the objective row ``-c``."""
    m, n = A.shape
    identity = np.arange(n, n + m)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[np.arange(m), identity] = 1.0
    T[-1, :n] = -c
    return T, identity.copy(), identity


def _readout(T, basis, identity, c, entering, iterations):
    """The solution of a final tableau: the ray of column ``entering`` when
    it is not None, and otherwise the optimum with its duals."""
    m, n = basis.size, c.size
    if entering is not None:
        ray_full = np.zeros(T.shape[1] - 1)
        ray_full[entering] = 1.0
        ray_full[basis] = -T[:m, entering]
        ray = ray_full[:n]
        ray[np.abs(ray) < TOL] = 0.0
        return LpSolution("unbounded", None, None, None, ray, iterations)
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:m, -1]
    primal = x[:n]
    primal[primal < 0] = 0.0
    c_full = np.zeros(x.size)
    c_full[:n] = c
    duals = c_full[basis] @ T[:m, identity]  # a copy: a strided slice rounds otherwise
    return LpSolution("optimal", float(c @ primal), primal, duals, None, iterations)


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    # re-zero the pivot column explicitly to stop drift
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run(T, basis):
    """Pivot until the objective row has no improving column.

    Returns ``(iterations, entering column or None)``: None at an optimum,
    or the column that has no leaving row when the LP is unbounded.
    """
    it, m = 0, basis.size
    while True:
        if it >= MAX_PIVOTS:
            raise SimplexStallError(f"simplex exceeded {MAX_PIVOTS} pivots")
        # Bland: smallest-index improving column
        improving = np.flatnonzero(T[-1, :-1] < -TOL)
        if improving.size == 0:
            return it, None
        col = int(improving[0])
        colvals = T[:m, col]
        rows = np.flatnonzero(colvals > TOL)
        if rows.size == 0:
            return it, col
        ratios = T[rows, -1] / colvals[rows]
        best = ratios.min()
        tied = rows[np.flatnonzero(ratios <= best + TOL * max(1.0, abs(best)))]
        # Bland tie-break: leave on the smallest basis index
        row = int(tied[np.argmin(basis[tied])])
        _pivot(T, basis, row, col)
        it += 1


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the packing LP from the slack basis by Bland's rule.

    Returns ``optimal`` with ``x``, the value and the duals, or ``unbounded``
    with an improving ray; raises :class:`SimplexStallError` after
    ``MAX_PIVOTS`` pivots.  ``iterations`` counts the pivots.
    """
    c = problem.objective
    T, basis, identity = _tableau(problem.lhs, problem.rhs, c)
    iterations, entering = _run(T, basis)
    return _readout(T, basis, identity, c, entering, iterations)
