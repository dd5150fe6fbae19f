"""Dense one-phase simplex for packing LPs, with Bland's rule and duality
certificates.

Problems are small (tens of variables) but numerous, and downstream callers
need exact verdicts -- ``optimal`` with matching dual values, or ``unbounded``
with an improving ray -- rather than a best-effort float.  A stalled solve
raises :class:`SimplexStallError`; it never returns a silently wrong answer.

Form accepted: maximize ``c @ x`` subject to ``A x <= b`` and ``x >= 0``,
with ``b >= 0``.  ``x = 0`` is then feasible, so the slack basis starts the
one phase and no problem is infeasible.  Every LP of the package has this
form: ``cap0``'s (whose dual is ``content``'s) and the complete constant's
pair LPs, whose normalization ``G nu (x) + c <= 1`` is tight at every
winning vertex.  All coefficients must be finite; callers
pre-reduce infinite kernel entries (an ``+inf`` coefficient in a row forces
its variable to zero) before building a problem.

Column layout: the originals, then the slack of each row in row order.  Row
``i`` starts basic in ``identity[i]``, its slack, the column that holds
``+e_i``.  Those columns of the final tableau hold ``B^{-1}``, so the optimal
duals and (through ``basis``) the primal point and the ray are each one
indexing expression.

:func:`solve_lps` solves many problems of one shape at once.  Their tableaux
stack into one ``(B, m+1, w)`` array, and Bland's rule runs in lockstep over
the problems still active.  Every pivot is the same elementwise arithmetic
as :func:`solve_lp`'s, and the readout (the duals, the value) runs per
problem in the same 1-D form, so each problem gets ``solve_lp``'s solution
bit for bit.  Both entry points stay: ``cap0`` solves its LPs one at a
time, and a batch of one through the lockstep loop costs 2.1 to 2.4 times
:func:`solve_lp` on ``cap0``-sized LPs (n = 10: 318 against 768 us; n = 20:
939 against 1,966 us; one Xeon core, numpy 2.4).  The tableau builder and
the readout are shared; only the pivot loop and the pivot exist in both
forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "SimplexStallError", "solve_lp", "solve_lps"]

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
    """Starting tableaux of ``max c x`` s.t. ``A x <= b``, batched over the
    leading axes of ``A``, ``b`` and ``c``: ``(T, basis, identity)``, the
    slack basis with the objective row ``-c``."""
    m, n = A.shape[-2:]
    identity = np.arange(n, n + m)
    T = np.zeros(A.shape[:-2] + (m + 1, n + m + 1))
    T[..., :m, :n] = A
    T[..., :m, -1] = b
    T[..., np.arange(m), identity] = 1.0
    T[..., -1, :n] = -c
    basis = np.broadcast_to(identity, A.shape[:-2] + (m,)).copy()
    return T, basis, identity


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
    # A single LP keeps this scalar loop: a batch of one through solve_lps'
    # lockstep loop takes 2.1 to 2.4 times as long on cap0-sized LPs, and
    # cap0 solves its LPs one at a time.
    c = problem.objective
    T, basis, identity = _tableau(problem.lhs, problem.rhs, c)
    iterations, entering = _run(T, basis)
    return _readout(T, basis, identity, c, entering, iterations)


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


def _run_lps(T, basis):
    """:func:`_run` in lockstep on the tableaux ``T``: every step takes each
    active one's Bland pivot and drops those that are done.  Returns each
    LP's pivot count and its entering column with no leaving row, or -1
    where it ended optimal."""
    m = basis.shape[1]
    iterations = np.zeros(T.shape[0], dtype=int)
    entering = np.full(T.shape[0], -1)
    live, W, Wb = np.arange(T.shape[0]), T, basis
    while live.size:
        if (iterations[live] >= MAX_PIVOTS).any():
            raise SimplexStallError(f"simplex exceeded {MAX_PIVOTS} pivots")
        improving = W[:, -1, :-1] < -TOL
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
    return iterations, entering


def solve_lps(problems) -> list:
    """:func:`solve_lp` on problems of one shape, all at once: one
    ``(B, m+1, w)`` tableau runs Bland's rule in lockstep over the LPs still
    active, so each LP gets the solution ``solve_lp`` returns for it, bit for
    bit."""
    if not problems:
        return []
    if any(p.lhs.shape != problems[0].lhs.shape for p in problems):
        raise ValueError("solve_lps needs problems of one shape")
    T, basis, identity = _tableau(np.stack([p.lhs for p in problems]),
                                  np.stack([p.rhs for p in problems]),
                                  np.stack([p.objective for p in problems]))
    iterations, entering = _run_lps(T, basis)
    return [_readout(T[k], basis[k], identity, p.objective,
                     None if entering[k] < 0 else int(entering[k]), int(iterations[k]))
            for k, p in enumerate(problems)]
