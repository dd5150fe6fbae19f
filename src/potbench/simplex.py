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

:func:`solve_lps` solves many problems of one shape and one senses tuple at
once.  Their tableaux stack into one ``(B, m+1, w)`` array, and Bland's rule
runs in lockstep over the problems still active.  Every pivot is the same
elementwise arithmetic as :func:`solve_lp`'s, and the once-per-problem
reductions (the phase-2 objective row, the duals, the value) run per problem
in the same 1-D form, so each problem gets ``solve_lp``'s solution bit for
bit.  The tableau builder and the certificate readout are shared; only the
phase loop and the pivot exist in both forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "SimplexStallError", "solve_lp", "solve_lps"]

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


def _tableau(A, b, senses):
    """Starting tableaux of ``A x (senses) b``, batched over the leading axes
    of ``A`` and ``b``: ``(T, basis, identity, is_artificial)``.  With
    artificial rows, ``T``'s last row holds the phase-1 objective, maximize
    ``-sum(artificials)``."""
    m, n = A.shape[-2:]
    slack_rows = [i for i, s in enumerate(senses) if s != _EQ]
    art_rows = [i for i, s in enumerate(senses) if s != _LE]
    n_real = n + len(slack_rows)
    ncols = n_real + len(art_rows)
    slack_cols = np.arange(n, n_real)
    identity = np.empty(m, dtype=int)
    identity[slack_rows] = slack_cols
    identity[art_rows] = np.arange(n_real, ncols)
    is_artificial = np.arange(ncols) >= n_real

    T = np.zeros(A.shape[:-2] + (m + 1, ncols + 1))
    T[..., :m, :n] = A
    T[..., :m, -1] = b
    T[..., slack_rows, slack_cols] = -1.0  # the surplus sign; a <= row's slack is its +e_i
    T[..., np.arange(m), identity] = 1.0
    if art_rows:
        T[..., -1, :-1] = -np.where(is_artificial, -1.0, 0.0)
        for i in art_rows:
            T[..., -1, :] -= T[..., i, :]  # z_j - c_j needs c_B B^-1 A; artificial cost -1
    basis = np.broadcast_to(identity, A.shape[:-2] + (m,)).copy()
    return T, basis, identity, is_artificial


def _infeasible(T, b):
    """Phase 1 ended short of zero: no feasible point."""
    return T[..., -1, -1] < -TOL * np.maximum(1.0, np.abs(b).max(axis=-1))


def _drive_out(T, basis, is_artificial) -> int:
    """Pivot basic artificials out where a real pivot exists; returns the pivots."""
    pivots = 0
    for i in np.flatnonzero(is_artificial[basis]).tolist():
        real = np.flatnonzero(~is_artificial & (np.abs(T[i, :-1]) > TOL))
        if real.size:
            _pivot(T, basis, i, int(real[0]))
            pivots += 1
    return pivots


def _phase2_row(T, basis, c):
    """Phase 2 objective row ``z_j - c_j``; returns the full cost vector."""
    m, n = basis.size, c.size
    c_full = np.zeros(T.shape[1] - 1)
    c_full[:n] = c
    cb = c_full[basis]
    T[-1, :-1] = cb @ T[:m, :-1] - c_full
    T[-1, -1] = cb @ T[:m, -1]
    return c_full


def _readout(T, basis, identity, is_artificial, c, c_full, entering, iterations):
    """The solution of a final tableau: a Farkas vector when ``c_full`` is
    None (phase 1 failed), the ray of column ``entering`` when it is not
    None, and otherwise the optimum with its duals."""
    m, n = basis.size, c.size
    if c_full is None:
        farkas = np.where(is_artificial, -1.0, 0.0)[basis] @ T[:m, identity]
        return LpSolution("infeasible", None, None, None, farkas, iterations)
    if entering is not None:
        ray_full = np.zeros(c_full.size)
        ray_full[entering] = 1.0
        ray_full[basis] = -T[:m, entering]
        ray = ray_full[:n]
        ray[np.abs(ray) < TOL] = 0.0
        return LpSolution("unbounded", None, None, None, ray, iterations)
    x = np.zeros(c_full.size)
    x[basis] = T[:m, -1]
    primal = x[:n]
    primal[primal < 0] = 0.0
    duals = c_full[basis] @ T[:m, identity]
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
    # A single LP keeps this scalar loop: a batch of one through solve_lps'
    # lockstep loop takes about twice as long on cap0-sized LPs (n = 20), and
    # cap0 and content solve their LPs one at a time.
    c, b = problem.objective, problem.rhs
    T, basis, identity, is_artificial = _tableau(problem.lhs, b, problem.senses)
    m = b.size
    iterations = 0
    if is_artificial.any():
        status, iterations, _ = _run_phase(T, basis, np.ones(is_artificial.size, dtype=bool),
                                           m, iterations)
        if status != "optimal":  # cannot happen: phase-1 objective is bounded
            raise SimplexStallError("phase 1 reported unbounded")
        if _infeasible(T, b):
            return _readout(T, basis, identity, is_artificial, c, None, None, iterations)
        iterations += _drive_out(T, basis, is_artificial)
    c_full = _phase2_row(T, basis, c)
    _, iterations, entering = _run_phase(T, basis, ~is_artificial, m, iterations)
    return _readout(T, basis, identity, is_artificial, c, c_full, entering, iterations)


def _pivot_lps(T, basis, row, col):
    """:func:`_pivot` on ``T[k]`` at ``(row[k], col[k])`` for every ``k``,
    with the same elementwise arithmetic."""
    k = np.arange(row.size)
    T[k, row] /= T[k, row, col][:, None]
    factors = T[k, :, col]
    factors[k, row] = 0.0
    T -= factors[:, :, None] * T[k, row][:, None, :]
    T[k, :, col] = 0.0
    T[k, row, col] = 1.0
    basis[k, row] = col


def _run_phases(T, basis, allowed, m, iterations, live):
    """:func:`_run_phase` in lockstep on the tableaux ``T[live]``: every step
    takes each one's Bland pivot and drops those that are done.  Counts
    ``iterations`` per LP and returns each LP's entering column with no
    leaving row, or -1 where it ended optimal."""
    entering = np.full(T.shape[0], -1)
    W, Wb = (T, basis) if live.size == T.shape[0] else (T[live], basis[live])
    while live.size:
        if (iterations[live] >= MAX_PIVOTS).any():
            raise SimplexStallError(f"simplex exceeded {MAX_PIVOTS} pivots")
        improving = allowed & (W[:, -1, :-1] < -TOL)
        col = improving.argmax(axis=1)
        colvals = W[np.arange(live.size), :m, col]
        rows = colvals > TOL
        ratios = np.divide(W[:, :m, -1], colvals, out=np.full(colvals.shape, np.inf),
                           where=rows)
        best = ratios.min(axis=1)
        tied = rows & (ratios <= (best + TOL * np.maximum(1.0, np.abs(best)))[:, None])
        row = np.where(tied, Wb, T.shape[2]).argmin(axis=1)
        optimal = ~improving.any(axis=1)
        unbounded = ~optimal & ~rows.any(axis=1)
        done = optimal | unbounded
        if done.any():
            entering[live[unbounded]] = col[unbounded]
            T[live[done]], basis[live[done]] = W[done], Wb[done]
            go = ~done
            live, W, Wb, row, col = live[go], W[go], Wb[go], row[go], col[go]
        _pivot_lps(W, Wb, row, col)
        iterations[live] += 1
    return entering


def solve_lps(problems) -> list:
    """:func:`solve_lp` on problems of one shape and one senses tuple, all at
    once: one ``(B, m+1, w)`` tableau runs Bland's rule in lockstep over the
    LPs still active, so each LP gets the solution ``solve_lp`` returns for
    it, bit for bit."""
    if not problems:
        return []
    first = problems[0]
    if any(p.lhs.shape != first.lhs.shape or p.senses != first.senses for p in problems):
        raise ValueError("solve_lps needs problems of one shape and one senses tuple")
    b = np.stack([p.rhs for p in problems])
    T, basis, identity, is_artificial = _tableau(np.stack([p.lhs for p in problems]), b,
                                                 first.senses)
    m = b.shape[1]
    iterations = np.zeros(len(problems), dtype=int)
    feasible = np.ones(len(problems), dtype=bool)
    if is_artificial.any():
        everything = np.ones(is_artificial.size, dtype=bool)
        if (_run_phases(T, basis, everything, m, iterations, np.arange(len(problems))) >= 0).any():
            raise SimplexStallError("phase 1 reported unbounded")  # cannot happen
        feasible = ~_infeasible(T, b)
        for k in np.flatnonzero(feasible).tolist():
            iterations[k] += _drive_out(T[k], basis[k], is_artificial)
    c_full = [_phase2_row(T[k], basis[k], p.objective) if feasible[k] else None
              for k, p in enumerate(problems)]
    entering = _run_phases(T, basis, ~is_artificial, m, iterations, np.flatnonzero(feasible))
    return [_readout(T[k], basis[k], identity, is_artificial, p.objective, c_full[k],
                     None if entering[k] < 0 else int(entering[k]), int(iterations[k]))
            for k, p in enumerate(problems)]
