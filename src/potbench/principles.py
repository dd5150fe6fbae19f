"""Maximum-principle constants and quasimetric structure of a kernel.

The weak constant is the smallest ``h`` such that any potential of a measure
supported on a set ``S`` that stays ``<= 1`` on ``S`` stays ``<= h``
everywhere.  The complete constant allows an additive constant on the
majorant side.  Both are maxima over pairs ``(S, x)``, ``x`` outside ``S``:
over every ``S`` when ``n * 2**n`` fits the budget, otherwise over some.

The weak constant solves no LP: an optimal vertex of its pair LP ``LP(S, x)``
has a support ``T`` inside ``S``, ``LP(T, x) >= LP(S, x)`` as fewer rows only
raise it, and a full-support vertex has the basis ``G_TT``, so ``G_TT z = 1``.
So ``h`` is the larger of 1 and the best ``G[x, T] z`` over the equilibria
``z >= 0`` of finite, nonsingular supports, or ``+inf`` exactly when some
``j`` with a finite ``G(j, j)`` has ``x != j`` with ``G(x, j) > 0`` and
``G(j, j) = 0`` or ``G(x, j) = +inf``, which both modes check first.  Exact
mode walks every support (``capacity._equilibria``) and sampled mode grows
supports greedily from every singleton (``_grown``), one stacked solve per
batch or step.  An equilibrium is a measure with potential 1 on its support,
so any supports give a lower bound, free of the kernel's scale.  The winner
is the first maximum in ``(mask, x)`` order, as in a walk one support at a
time.

The complete constant is one packing LP per pair, over a seeded stream in
sampled mode, solved in buckets by ``_max_over_pairs``, which lets no ``+inf``
reach the LP solver.  A ``+inf`` coefficient in a row over ``S`` forces its
variable to zero, and a support with no column finite on it is worth 0
against every ``x`` and costs no LP.  A ``+inf`` objective coefficient makes
the pair infinite, witnessed by the point mass at the first one; an unbounded
LP is ``+inf`` with its ray.  The first ``+inf`` pair ends the stream and sets
``pairs_checked``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .capacity import _equilibria, _first_best, _stacked_equilibria
from .core import (
    DomainError,
    Kernel,
    Measure,
    _bits,
    _inverse_distance,
    _ratio_max,
    _weighted_terms,
)
from .simplex import LpProblem, solve_lps

__all__ = [
    "DEFAULT_BUDGET",
    "WmpReport",
    "CompleteMpReport",
    "QuasimetricReport",
    "ModifiedKernel",
    "wmp_constant",
    "complete_mp_constant",
    "quasimetric_constant",
    "modifier",
    "modify_kernel",
]

DEFAULT_BUDGET = 14 * 2**14
# pair LPs of one shape per solve_lps call: larger buckets hold more
# tableaux at once (peak memory), smaller ones pay more per-call overhead
BUCKET = 64
PTOLEMY_LIMIT = 30


def _sampled_cap(n: int, budget: int) -> int:
    """Candidates valued by a sampled search on ``n`` points: ``min(budget, 10 n^2)``."""
    if budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")
    return min(budget, 10 * n * n)


@dataclass(frozen=True)
class WmpReport:
    # pairs_checked: the pairs (T, x) valued, or the exact walk's up to its first +inf one
    constant: float
    holds: bool
    witness: tuple | None  # (support points, evaluation point, Measure)
    mode: str  # "exact" | "sampled"
    pairs_checked: int


@dataclass(frozen=True)
class CompleteMpReport:
    constant: float
    holds: bool
    witness: tuple | None  # (support points, evaluation point, mu, nu, c)
    mode: str
    pairs_checked: int


def _exact_supports(n: int):
    """Every ``S`` but the whole space, as the bits of ``m = 1, 2, ...``."""
    for m in range(1, (1 << n) - 1):
        bits = _bits(m, n)
        yield np.flatnonzero(bits), np.flatnonzero(~bits)


def _sampled_supports(n: int, budget: int, seed: int):
    """Seeded support stream: mandatory cheap supports first, then a random
    prefix whose composition does not depend on the budget."""
    target = _sampled_cap(n, budget)
    points = np.arange(n)
    for y in range(n):
        yield points[y:y + 1], np.delete(points, y)
    for x in range(n):
        yield np.delete(points, x), points[x:x + 1]
    rng = np.random.default_rng(seed)
    seen = set()
    draws = 0
    while len(seen) < target and draws < 20 * target:
        draws += 1
        bits = rng.integers(0, 2, size=n)
        if bits.all() or not bits.any():
            continue
        x = int(rng.choice(np.flatnonzero(~bits.astype(bool))))
        key = (bits.tobytes(), x)
        if key in seen:
            continue
        seen.add(key)
        yield np.flatnonzero(bits), points[x:x + 1]


def _mode(n: int, budget: int) -> str:
    """``exact`` when ``n * 2**n`` fits the budget, else ``sampled``."""
    _sampled_cap(n, budget)  # raises below 1
    return "exact" if n * (1 << n) <= budget else "sampled"


def _supports(n: int, budget: int, seed: int):
    """The mode and its support stream: every ``S`` when ``n * 2**n`` fits the
    budget, else the seeded sample."""
    if _mode(n, budget) == "exact":
        return "exact", _exact_supports(n)
    return "sampled", _sampled_supports(n, budget, seed)


def _rank(entry):
    """Sort key of ``(value, place, top)``: the largest value, then the earliest place."""
    return -entry[0], entry[1]


def _solve_pairs(G: np.ndarray, pairs) -> list:
    """``(value, place, (S, x, cols, vector))`` of the queued pairs
    ``(place, S, x, cols, nu)``, whose LPs have one shape, from one
    :func:`solve_lps` call."""
    problems = [_complete_problem(G, S, x, nu, cols, G[np.ix_(S, cols)])
                for _, S, x, cols, nu in pairs]
    found = []
    for (place, S, x, cols, _), sol in zip(pairs, solve_lps(problems)):
        if sol.status == "unbounded":
            value, vector = float("inf"), sol.ray
        else:
            value, vector = float(sol.value), sol.x
        found.append((value, place, (S, x, cols, vector)))
    return found


def _max_over_pairs(kernel: Kernel, supports):
    """First pair ``(S, x)`` of the stream whose complete-MP value beats the
    floor 1 and every pair before it, stopping at ``+inf``.

    Pair LPs wait in buckets of one LP shape (``|S|``, ``|cols|``, ``|nu|``)
    and a full bucket goes to :func:`solve_lps`; what is left is solved at
    the end of the stream, or before the first known ``+inf`` pair.  A pair's
    place in the stream is its running count, so the winner, the largest
    value at its earliest place, is the one a pair-by-pair scan keeps.
    Returns the best value, the winning ``(S, x, cols, vector)`` (the LP's
    optimum or ray, or the point mass of a ``+inf`` objective) or None, and
    the number of pairs checked."""
    G = kernel.entries
    finite = np.isfinite(G)
    best, buckets, checked = (1.0, 0, None), {}, 0
    for S, outside in supports:
        fin = finite[S].all(axis=0)
        cols = S[fin[S]]
        if not cols.size:  # no measure on S: the value is 0 at every x
            checked += outside.size
            continue
        for x in outside.tolist():
            checked += 1
            inf = np.isinf(G[x, cols])
            if inf.any():
                found = [(float("inf"), checked, (S, x, cols, np.eye(cols.size)[np.argmax(inf)]))]
            else:
                nu = fin & finite[x]
                key = (S.size, cols.size, int(np.count_nonzero(nu)))
                bucket = buckets.setdefault(key, [])
                bucket.append((checked, S, x, cols, nu))
                if len(bucket) < BUCKET:
                    continue
                found = _solve_pairs(G, buckets.pop(key))
            best = min([best, *found], key=_rank)
            if np.isinf(best[0]):
                break
        if np.isinf(best[0]):
            break
    for pairs in buckets.values():
        if np.isinf(best[0]):  # only earlier pairs can still win
            pairs = [pair for pair in pairs if pair[0] < best[1]]
        best = min([best, *_solve_pairs(G, pairs)], key=_rank)
    if np.isinf(best[0]):
        checked = best[1]
    return best[0], best[2], checked


def _measure_on(kernel: Kernel, cols, w) -> Measure:
    weights = np.zeros(kernel.size)
    weights[cols] = np.clip(w, 0.0, None)
    return Measure(kernel.space, weights)


def _grown(G: np.ndarray, value, pairs: list):
    """``(T, Z, value(T, Z))`` of each step of the greedy growth, in rising bit
    mask.  The supports start as the singletons.  A step solves each support
    plus each point outside it (at most ``n (n - 1)`` candidates, one stacked
    solve), and a support takes the first point of highest value if that
    beats its own.  ``pairs`` gets the pairs ``(T, x)`` of the candidates."""
    n = G.shape[0]
    C, own = np.arange(n)[:, None], np.full(n, -np.inf)  # candidates, their supports' values
    while len(C) and C.shape[1] < n:
        pairs.append(len(C) * (n - C.shape[1]))
        keep, Z = _stacked_equilibria(G, C)
        T, V = C[keep], value(C[keep], Z)
        if keep.any():
            order = np.lexsort(T.T)
            yield T[order], Z[order], V[order]
        top = np.full(len(C), -np.inf)
        top[keep] = V.max(axis=1)
        best = top.reshape(len(own), -1)  # a support's candidates, in rising point
        pick = (np.arange(len(own)) * best.shape[1] + best.argmax(axis=1))[best.max(axis=1) > own]
        T, first = np.unique(C[pick], axis=0, return_index=True)  # supports that meet go on as one
        own = top[pick[first]]
        rows, points = np.nonzero(~np.eye(n, dtype=bool)[T].any(axis=1))  # the points outside
        C = np.sort(np.column_stack([T[rows], points]), axis=1)


def wmp_constant(kernel: Kernel, budget: int = DEFAULT_BUDGET) -> WmpReport:
    """Smallest ``h`` with: ``G nu <= 1`` on ``supp nu`` implies ``G nu <= h``."""
    n, G, d = kernel.size, kernel.entries, np.diag(kernel.entries)
    mode = _mode(n, budget)
    hot = np.isfinite(d) & ~np.eye(n, dtype=bool) & (np.isinf(G) | ((d == 0) & (G > 0)))
    if hot.any():  # the first +inf pair ({j}, x) follows every support below j
        j, x = (int(i[0]) for i in np.nonzero(hot.T))
        best, T, z = float("inf"), [j], np.ones(1)
        checked = n * ((1 << j) - 1) - j * (1 << j) // 2 + x + (x < j)
    else:
        def value(T, Z):  # the potentials G[:, t] z, -inf on t
            V = np.matmul(G[:, T].transpose(1, 0, 2), Z[..., None])[..., 0]
            np.put_along_axis(V, T, -np.inf, axis=1)
            return V

        pairs = []
        batches = (((T, Z, value(T, Z)) for T, Z in _equilibria(G)) if mode == "exact"
                   else _grown(G, value, pairs))
        best, T, z, x = _first_best(batches, 1.0)
        checked = n * ((1 << (n - 1)) - 1) if mode == "exact" else sum(pairs)
    witness = None
    if T is not None:
        points = kernel.space.points
        witness = (tuple(points[i] for i in T), points[x], _measure_on(kernel, T, z))
    return WmpReport(best, bool(np.isfinite(best)), witness, mode, checked)


def _complete_problem(G: np.ndarray, S, x: int, nu, cols, block) -> LpProblem:
    """max G mu (x) over ``(mu, nu, c)``, mu on ``cols`` and nu on the columns
    ``nu``, with G mu <= G nu + c on S and G nu (x) + c <= 1.

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


def complete_mp_constant(kernel: Kernel, budget: int = DEFAULT_BUDGET,
                         seed: int = 0) -> CompleteMpReport:
    """Smallest ``h`` for the principle with an additive constant.

    For ``mu`` on ``S`` and any ``nu, c >= 0``: if ``G mu <= G nu + c`` on
    ``S`` then ``G mu <= h (G nu + c)`` everywhere.  Columns whose potential
    over ``S`` is infinite are excluded from ``mu`` (its potential must be
    finite where it carries mass) and from ``nu`` (kept conservative so the
    reported constant stays a valid lower bound).
    """
    mode, supports = _supports(kernel.size, budget, seed)
    best, top, checked = _max_over_pairs(kernel, supports)
    witness = None
    if top is not None:
        S, x, cols, v = top
        G = kernel.entries
        nu = np.isfinite(G[np.append(S, x)]).all(axis=0)  # nu's columns in _complete_problem
        k, r = cols.size, int(np.count_nonzero(nu))
        if v.size == k:  # the point mass of an infinite objective: nu = 0, c = 1
            v = np.concatenate([v, np.zeros(r), [1.0]])
        points = kernel.space.points
        witness = (tuple(points[i] for i in S), points[x], _measure_on(kernel, cols, v[:k]),
                   _measure_on(kernel, nu, v[k:k + r]), max(float(v[k + r]), 0.0))
    return CompleteMpReport(best, bool(np.isfinite(best)), witness, mode, checked)


# ---------------------------------------------------------------------------
# quasimetric structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasimetricReport:
    """Triangle-comparison constant of ``d = 1/G`` and a four-point check.

    ``kappa`` is the least constant with ``d(x,y) <= kappa (d(x,z)+d(z,y))``
    for all triples, floored at 1/2 (attained by degenerate triples).  The
    four-point comparison tests ``d(x,z) d(y,w)`` against
    ``4 kappa^2 (d(x,y) d(z,w) + d(y,z) d(x,w))`` on all quadruples; it
    costs ``n^4`` memory, so the ``ptolemy_*`` fields are filled only by
    :func:`quasimetric_constant`, only for a quasimetric, and only on
    spaces of at most ``PTOLEMY_LIMIT`` points (None otherwise).
    """

    kappa: float
    is_quasimetric: bool
    witness: tuple | None
    ptolemy_constant: float | None = None
    ptolemy_bound: float | None = None
    ptolemy_ok: bool | None = None


def _triangle_constant(kernel: Kernel) -> QuasimetricReport:
    """The triangle part of :func:`quasimetric_constant`, with no four-point fields."""
    n = kernel.size
    if not kernel.is_symmetric:
        return QuasimetricReport(float("inf"), False, None)
    d = _inverse_distance(kernel.entries)
    if (d == 0).all():
        # G identically infinite: all points collapse, no quasimetric
        return QuasimetricReport(0.5, False, None)

    best = 0.0
    wit = None
    for x in range(n):
        num = np.broadcast_to(d[x], (n, n))  # indexed (z, y)
        den = d[x][:, None] + d
        r = _ratio_max(num, den)
        m = float(r.max())
        if m > best:
            z, y = np.unravel_index(int(np.argmax(r)), (n, n))
            best = m
            wit = tuple(kernel.space.points[i] for i in (x, int(z), int(y)))
            if np.isinf(best):
                break

    kappa = max(0.5, best)
    return QuasimetricReport(kappa, bool(np.isfinite(kappa)), wit)


def quasimetric_constant(kernel: Kernel) -> QuasimetricReport:
    report = _triangle_constant(kernel)
    if not report.is_quasimetric or kernel.size > PTOLEMY_LIMIT:
        return report

    d = _inverse_distance(kernel.entries)
    # axes (x, z, y, w)
    lhs = _weighted_terms(d[:, :, None, None], d[None, None, :, :])  # d[x,z] d[y,w]
    r1 = _weighted_terms(d[:, None, :, None], d[None, :, None, :])  # d[x,y] d[z,w]
    r2 = _weighted_terms(d.T[None, :, :, None], d[:, None, None, :])  # d[y,z] d[x,w]
    q = _ratio_max(lhs, r1 + r2)
    pc = float(q.max())
    bound = 4.0 * report.kappa * report.kappa
    return replace(report, ptolemy_constant=pc, ptolemy_bound=bound,
                   ptolemy_ok=bool(pc <= bound * (1.0 + 1e-9)))


# ---------------------------------------------------------------------------
# kernel modification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModifiedKernel:
    kernel: Kernel
    retained: np.ndarray  # indices into the original space


def modifier(kernel: Kernel, x0) -> np.ndarray:
    """Pointwise ``min(1, G(., x0))``, the natural bounded modifier."""
    j = kernel.space.index(x0)
    return np.minimum(1.0, kernel.entries[:, j])


def modify_kernel(kernel: Kernel, m) -> ModifiedKernel:
    """Divide the kernel by ``m(x) m(y)``, on the points where ``0 < m < inf``."""
    m = np.asarray(m, dtype=float)
    if m.shape != (kernel.size,):
        raise DomainError("modifier must assign one weight per point")
    if np.isnan(m).any() or (m[np.isfinite(m)] < 0).any():
        raise DomainError("modifier weights must be nonnegative")
    retained = np.flatnonzero((m > 0) & np.isfinite(m))
    if retained.size == 0:
        raise DomainError("modifier vanishes or blows up everywhere")
    sub = kernel.restrict(retained)
    mr = m[retained]
    entries = sub.entries / np.outer(mr, mr)
    return ModifiedKernel(Kernel(sub.space, entries), retained)
