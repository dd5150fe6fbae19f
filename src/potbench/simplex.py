"""Dense two-phase simplex with Bland's rule and duality certificates.

Problems are small (tens of variables) but numerous, and downstream callers
need exact verdicts -- ``optimal`` with matching dual values, ``infeasible``
or ``unbounded`` with a certificate ray -- rather than a best-effort float.
A stalled solve raises :class:`SimplexStallError`; it never returns a silently
wrong answer.

Form accepted: maximize ``c @ x`` subject to ``A x (<=|==|>=) b`` and
``x >= 0``, with ``b >= 0``.  All coefficients must be finite; callers
pre-reduce infinite kernel entries (an ``+inf`` coefficient in a ``<=`` row
forces its variable to zero) before building a problem.

Column layout: the originals, then the slack (``<=``) or surplus (``>=``) of
each such row, then the artificial of each ``>=`` or ``==`` row, all in row
order.  Row ``i`` starts basic in ``identity[i]``, the column that holds
``+e_i``: its slack for ``<=``, its artificial otherwise.  Those columns of
the final tableau hold ``B^{-1}``, so the optimal duals, the Farkas vector of
an infeasible problem and (through ``basis``) the primal point and the ray
are each one indexing expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "SimplexStallError", "solve_lp"]

_LE, _EQ, _GE = "<=", "==", ">="
TOL = 1e-9
MAX_PIVOTS = 100_000


class SimplexStallError(RuntimeError):
    """The pivot loop hit its iteration cap without reaching a verdict."""


@dataclass(frozen=True)
class LpProblem:
    """maximize ``objective @ x`` s.t. ``lhs x (senses) rhs``, ``x >= 0``."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    senses: tuple

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
        if len(self.senses) != b.size:
            raise ValueError("one sense per constraint row required")
        for s in self.senses:
            if s not in (_LE, _EQ, _GE):
                raise ValueError(f"unknown sense {s!r}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", A)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "senses", tuple(self.senses))


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    x: np.ndarray | None
    duals: np.ndarray | None
    ray: np.ndarray | None  # unbounded: improving ray; infeasible: Farkas vector
    iterations: int


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    # re-zero the pivot column explicitly to stop drift
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_phase(T, basis, allowed, m, start_iter):
    """Pivot until the objective row has no improving column.

    Returns ``(status, iterations, entering column or None)``: status
    ``"optimal"`` with None, or ``"unbounded"`` with the column that has no
    leaving row.
    """
    it = start_iter
    while True:
        if it >= MAX_PIVOTS:
            raise SimplexStallError(f"simplex exceeded {MAX_PIVOTS} pivots")
        zrow = T[-1, :-1]
        # Bland: smallest-index improving column among allowed ones
        improving = np.flatnonzero(allowed & (zrow < -TOL))
        if improving.size == 0:
            return "optimal", it, None
        col = int(improving[0])
        colvals = T[:m, col]
        rows = np.flatnonzero(colvals > TOL)
        if rows.size == 0:
            return "unbounded", it, col
        ratios = T[rows, -1] / colvals[rows]
        best = ratios.min()
        tied = rows[np.flatnonzero(ratios <= best + TOL * max(1.0, abs(best)))]
        # Bland tie-break: leave on the smallest basis index
        row = int(tied[np.argmin(basis[tied])])
        _pivot(T, basis, row, col)
        it += 1


def solve_lp(problem: LpProblem) -> LpSolution:
    c, A, b, senses = problem.objective, problem.lhs, problem.rhs, problem.senses
    m, n = A.shape
    slack_rows = [i for i, s in enumerate(senses) if s != _EQ]
    art_rows = [i for i, s in enumerate(senses) if s != _LE]
    n_real = n + len(slack_rows)
    ncols = n_real + len(art_rows)
    slack_cols = np.arange(n, n_real)
    identity = np.empty(m, dtype=int)
    identity[slack_rows] = slack_cols
    identity[art_rows] = np.arange(n_real, ncols)
    is_artificial = np.arange(ncols) >= n_real

    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[slack_rows, slack_cols] = -1.0  # the surplus sign; a <= row's slack is its +e_i
    T[np.arange(m), identity] = 1.0
    basis = identity.copy()

    iterations = 0
    if art_rows:
        # phase 1: maximize -sum(artificials)
        c1 = np.where(is_artificial, -1.0, 0.0)
        T[-1, :-1] = -c1
        for i in art_rows:
            T[-1] -= T[i]  # z_j - c_j needs c_B B^-1 A; artificial cost -1
        status, iterations, _ = _run_phase(T, basis, np.ones(ncols, dtype=bool), m, iterations)
        if status != "optimal":  # cannot happen: phase-1 objective is bounded
            raise SimplexStallError("phase 1 reported unbounded")
        if T[-1, -1] < -TOL * max(1.0, abs(b).max()):
            # infeasible; Farkas certificate from the phase-1 duals
            farkas = c1[basis] @ T[:m, identity]
            return LpSolution("infeasible", None, None, None, farkas, iterations)
        # drive basic artificials out where a real pivot exists
        for i in range(m):
            if is_artificial[basis[i]]:
                real = np.flatnonzero(~is_artificial & (np.abs(T[i, :-1]) > TOL))
                if real.size:
                    _pivot(T, basis, i, int(real[0]))
                    iterations += 1

    # phase 2 objective row: z_j - c_j with artificial columns banned
    c_full = np.zeros(ncols)
    c_full[:n] = c
    cb = c_full[basis]
    T[-1, :-1] = cb @ T[:m, :-1] - c_full
    T[-1, -1] = cb @ T[:m, -1]
    status, iterations, entering = _run_phase(T, basis, ~is_artificial, m, iterations)

    if status == "unbounded":
        ray_full = np.zeros(ncols)
        ray_full[entering] = 1.0
        ray_full[basis] = -T[:m, entering]
        ray = ray_full[:n]
        ray[np.abs(ray) < TOL] = 0.0
        return LpSolution("unbounded", None, None, None, ray, iterations)

    x = np.zeros(ncols)
    x[basis] = T[:m, -1]
    primal = x[:n]
    primal[primal < 0] = 0.0
    duals = c_full[basis] @ T[:m, identity]
    return LpSolution("optimal", float(c @ primal), primal, duals, None, iterations)
