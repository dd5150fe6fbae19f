"""Capacities of subsets of a finite space and their extremal measures.

Three set functions, all with explicit optimizers:

* :func:`cap0`: largest mass a measure on ``K`` can carry while its adjoint
  potential stays ``<= 1`` on the whole space (a linear program);
* :func:`content`: least total mass of a measure whose potential is ``>= 1``
  on ``K``.  This is the dual linear program, so it is read from the same
  solve as :func:`cap0`, and each value is the other's ``dual_value`` bit for
  bit.  That solve first tries complementary slackness on the finite rows
  ``F`` of ``K``: nonnegative solutions of ``G_FF' mu = 1`` and ``G_FF lam =
  1`` with ``G' mu <= 1`` everywhere are optimal for the two programs (method
  ``slackness``); only a set where that check declines is solved by the
  simplex, on its matrix over a power of two (``core._normalized``), whose
  clipped duals are ``content``'s measure;
* :func:`wiener_cap1`: ``max 2 lam(K) - E(lam)`` over measures on ``K``,
  whose maximizer is the equilibrium measure.  Positive-semidefinite kernels
  go through an exact Lawson-Hanson active set, whose weights
  :func:`wiener_cap1` checks against KKT for ``attained``.  Others
  take the best equilibrium of a nonsingular support (a singular support's
  best point is matched on a smaller nonsingular one): over every support up
  to ``ENUM_LIMIT`` points, exactly, and above that over the supports grown
  greedily from the singletons, as the sampled maximum-principle constants
  grow theirs (:func:`_grown`), a lower bound flagged ``heuristic``.

Infinite kernel values are pre-reduced before any LP is built: an ``+inf``
coefficient inside a ``<= 1`` constraint forces its variable to zero, and an
``+inf`` coefficient inside a ``>= 1`` row makes that row freely satisfiable
(the infimum is then approached but not attained, and the result says so).

The public functions check input and add measures and certificates (:func:`_extremal`);
the subset search :class:`_SubsetSearch` calls the cores alone, and states the rules it shares.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .core import (
    DomainError,
    Kernel,
    Measure,
    _bits,
    _mode,
    _normalized,
    _potential,
    _pow,
    _weighted_terms,
    adjoint_potential,
    potential,
)
from .simplex import LpProblem, solve_lp

__all__ = [
    "EquilibriumCertificates",
    "CapacityResult",
    "NullCheckReport",
    "cap0",
    "content",
    "wiener_cap1",
    "capacity_null_check",
]

CERT_TOL = 1e-8
SLACK_TOL = 1e-12  # residual and feasibility slack of _slack_certificate, relative to 1
ENUM_LIMIT = 12  # largest |K| solved exactly on non-PSD kernels
BATCH = 2048  # supports per stacked solve of one right-hand side: bounds its memory at any size
STOP_TOL = 1e-9  # _active_set stops once no point's potential falls more than this below 1
PRUNE_RTOL = 1e-9  # cap0 values, certified or from the LP, are monotone in exact arithmetic only


@dataclass(frozen=True)
class EquilibriumCertificates:
    """Checkable facts about an extremal measure ``lam`` for a set ``K``.

    ``max_potential_on_support``: max of the relevant potential over the
    support of ``lam`` (should not exceed 1).
    ``below_one_set``: points of ``K`` where the potential is ``< 1 - tol``;
    this exceptional set is reported together with its own capacity.
    ``off_equality_mass``: ``lam``-mass of the set where the potential
    differs from 1 by more than the tolerance (should vanish).
    """

    max_potential_on_support: float | None
    below_one_set: tuple
    below_one_capacity: float | None
    off_equality_mass: float


@dataclass
class CapacityResult:
    value: float
    extremal: Measure | None
    dual_value: float | None
    certificates: EquilibriumCertificates | None
    method: str
    attained: bool = True


def _resolve_subset(kernel: Kernel, points) -> np.ndarray:
    idx = kernel.space.indices(points)
    if idx.size == 0:
        raise DomainError("capacity of the empty set is not defined here")
    return idx


def _extremal(kernel, K, weights, potential_of, with_exceptional=False):
    """``(lam, certificates)`` of a core's ``weights`` on the whole space, with the
    potential ``potential_of``; ``(None, None)`` if there are none (unbounded)."""
    if weights is None:
        return None, None
    lam = Measure(kernel.space, weights)
    pot = potential_of(kernel, lam)
    sup = lam.support
    upper = float(pot[sup].max()) if sup.size else None
    below = [int(x) for x in K if pot[x] < 1.0 - CERT_TOL]
    below_labels = tuple(kernel.space.points[x] for x in below)
    below_cap = None
    if with_exceptional:
        below_cap = _wiener_cap1(kernel, np.array(below, dtype=int))[0]
    off = np.abs(pot - 1.0) > CERT_TOL
    off_mass = float(lam.weights[off].sum())
    return lam, EquilibriumCertificates(upper, below_labels, below_cap, off_mass)


def _slack_certificate(G: np.ndarray, F: np.ndarray):
    """``(mu, lam) >= 0`` with ``G_FF' mu = 1``, ``G_FF lam = 1`` and ``G' mu <= 1``
    on every column, to ``SLACK_TOL`` (relative to 1, so free of scale), or None.
    ``mu`` is then feasible for :func:`cap0`'s LP on the finite rows ``F``,
    ``lam`` for its dual, and ``1'mu = mu' G_FF lam = 1'lam``: both are optimal.
    A solved entry above ``-SLACK_TOL`` times its vector's largest is an exact 0
    up to rounding (a potential matrix has many): it is clipped to 0, and the
    checks run on the clipped vectors."""
    GF = G[F]
    B = GF[:, F]
    S = np.array((B.T, B))
    try:
        X = np.linalg.solve(S, np.ones((2, F.size, 1)))
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(X).all() and (X >= -SLACK_TOL * np.abs(X).max(axis=1)[:, None]).all()):
        return None
    X = np.clip(X, 0.0, None)
    with np.errstate(over="ignore"):  # a potential that overflows is above 1
        ok = (np.abs(S @ X - 1.0).max() <= SLACK_TOL
              and (X[0, :, 0] @ GF <= 1.0 + SLACK_TOL).all())
    return (X[0, :, 0], X[1, :, 0]) if ok else None


def _cap0(G: np.ndarray, K: np.ndarray) -> tuple:
    """``(value, free, mu, dual value, lam, method)`` of :func:`cap0` on ``K``,
    whose points ``free`` can carry mass: by :func:`_slack_certificate`, else LP
    on ``G[free]'`` over ``2^e``, mapped back by ``2^-e``.  ``lam``, the dual's
    optimal measure, is the certificate's or the LP's clipped duals; ``mu`` and
    ``lam`` are on the whole space, or None if the LP is unbounded.  The masses
    are summed over the certificate's compact vectors, before they are padded."""
    n = G.shape[0]
    # mu[x] > 0 with an infinite entry in row G[x, :] violates some <=1 row
    free = K[np.isfinite(G[K]).all(axis=1)]
    mu, lam = np.zeros(n), np.zeros(n)
    if free.size and (cert := _slack_certificate(G, free)) is not None:
        mu[free], lam[free] = cert
        return float(cert[0].sum()), free, mu, float(cert[1].sum()), lam, "slackness"
    A, e = _normalized(G[free].T)
    sol = solve_lp(LpProblem(np.ones(free.size), A, np.ones(n)))
    if sol.status == "unbounded":
        return float("inf"), free, None, float("inf"), None, "lp"
    value, mu[free], lam = (np.ldexp(np.maximum(v, 0.0), -e)
                            for v in (sol.value, sol.x, sol.duals))
    return float(value), free, mu, float(lam.sum()), lam, "lp"


def cap0(kernel: Kernel, points) -> CapacityResult:
    """max ``mu(K)`` over measures on ``K`` with adjoint potential ``<= 1`` everywhere."""
    K = _resolve_subset(kernel, points)
    value, _, mu, dual_value, _, method = _cap0(kernel.entries, K)
    mu, certs = _extremal(kernel, K, mu, adjoint_potential)
    return CapacityResult(value, mu, dual_value, certs, method, attained=mu is not None)


def content(kernel: Kernel, points) -> CapacityResult:
    """min ``lam(space)`` over measures with potential ``>= 1`` on ``K``: the
    dual side of :func:`cap0`'s solve, ``+inf`` where that LP is unbounded."""
    K = _resolve_subset(kernel, points)
    cap, free, _, value, lam, method = _cap0(kernel.entries, K)
    lam, certs = _extremal(kernel, K, lam, potential)
    # a >=1 row containing +inf is satisfied by vanishing mass on that column
    return CapacityResult(value, lam, cap, certs, method, lam is not None and free.size == K.size)


# ---------------------------------------------------------------------------
# Wiener-type capacity: max 2 lam(K) - E(lam), lam >= 0 supported on K
# ---------------------------------------------------------------------------


def _equilibrium(AT):
    """The solution of ``AT z = 1``, or None when the solve raises or
    leaves a residual above 1e-9."""
    ones = np.ones(AT.shape[0])
    try:
        z = np.linalg.solve(AT, ones)
    except np.linalg.LinAlgError:
        return None
    return None if np.abs(AT @ z - ones).max() > 1e-9 else z


def _kkt_residual(A, lam, thr):
    g = 2.0 * (1.0 - A @ lam)
    active = lam > thr
    return max(float(np.abs(g[active]).max(initial=0.0)),
               float(np.clip(g[~active], 0.0, None).max(initial=0.0)))


def _to_boundary(x, d, t):
    """``(t, x + t d)``, the step ``t`` cut where a weight first reaches 0 (then
    exactly 0).  An infinite ``t`` needs some ``d < 0``."""
    neg = np.flatnonzero(d < 0)
    steps = x[neg] / -d[neg]
    t = min(steps.min(initial=np.inf), t)
    y = np.clip(x + t * d, 0.0, None)
    y[neg[steps == t]] = 0.0
    return t, y


def _active_set(A, lam=None):
    """Lawson-Hanson active set for ``max 2 sum(lam) - lam' A lam``, ``lam >= 0``,
    on a finite positive semidefinite ``A`` (:func:`_exact_qp`), where it is exact.

    From the support ``{0}``, or from a feasible ``lam`` (updated in place,
    support ``lam > 0``) unless it is a KKT point already, solve ``A_TT lam_T
    = 1`` on the support ``T``, step back to the boundary where a weight
    would not stay positive, and add the point whose potential is furthest
    below 1.  An inconsistent system is followed along the null direction in
    which the objective rises, to the boundary.  It meets one: on the unit-diagonal
    form ``S`` (PSD, entries ``>= 0``) the least-squares residual ``r`` has
    ``|S r| <= 1e-7 |S| |r|``, and ``r >= 0`` would give ``S r >= r``, so ``|S|
    >= 1e7``, while the block's size bounds ``|S|``.
    """
    k = A.shape[0]
    P, j = (np.zeros(k, dtype=bool), 0) if lam is None else (lam > 0, None)
    lam = np.zeros(k) if lam is None else lam
    for _ in range(3 * k):
        if j is None:
            w = 1.0 - (A * lam).sum(axis=1)  # A is finite: no 0 * inf
            w[P] = -np.inf
            j = int(np.argmax(w))
            if not w[j] > STOP_TOL:
                break
        P[j] = True
        for _ in range(k):  # each pass but the last drops a point
            T = np.flatnonzero(P)
            AT = A[np.ix_(T, T)]
            z = _equilibrium(AT)
            ray = False
            if z is None:
                # unit diagonal: a singular value cut off is a null direction
                s = np.diag(AT) ** -0.5
                S = AT * np.outer(s, s)
                y, _, rank, _ = np.linalg.lstsq(S, s, rcond=1e-7)
                z, r = s * y, s - S @ y
                ray = rank < T.size and np.abs(r).max() > 1e-9 * s.max()
            if not ray and (z > 0).all():
                lam[T] = z
                break
            lam[T] = _to_boundary(lam[T], s * r if ray else z - lam[T], np.inf if ray else 1.0)[1]
            P &= lam > 0
        j = None
    return lam


def _stacked_solves(A, T, W):
    """``(keep, Z)`` of the supports ``T``, rows of one size, and right-hand
    sides ``W``, one ``(size, r)`` block per row: the rows ``t`` with a
    finite, nonsingular ``A_tt``, and their ``Z = A_tt^{-1} w`` column by
    column, NaN in a column whose residual is above ``1e-9 max|w|`` or that
    has an entry below ``-1e-10 max|z|`` (both free of scale), clipped at 0
    elsewhere.  One stacked solve, which factors each support once.  Only
    where that raises does ``slogdet`` screen the batch, with the same LU,
    so a support it drops is one whose solve raises, and the survivors are
    solved again, stacked, or one support at a time (NaN where it raises)
    if that raises too."""
    AT = A[T[:, :, None], T[:, None, :]]
    keep = np.isfinite(AT).all(axis=(1, 2))
    AT, W = AT[keep], W[keep]
    try:
        Z = np.linalg.solve(AT, W)
    except np.linalg.LinAlgError:
        # a zero pivot, as on the exactly singular supports of a duplicated
        # point: one more stacked solve is cheaper than a solve per support
        nonsingular = np.linalg.slogdet(AT)[0] != 0
        keep[keep] = nonsingular
        AT, W = AT[nonsingular], W[nonsingular]
        try:
            Z = np.linalg.solve(AT, W)
        except np.linalg.LinAlgError:
            Z = np.full(W.shape, np.nan)
            for i, (a, w) in enumerate(zip(AT, W)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    Z[i] = np.linalg.solve(a, w)
    bad = np.abs(np.matmul(AT, Z) - W).max(axis=1) > 1e-9 * np.abs(W).max(axis=1)
    Z.transpose(0, 2, 1)[bad] = np.nan
    ok = (Z >= -1e-10 * np.abs(Z).max(axis=1, keepdims=True)).all(axis=1)
    return keep, np.where(ok[:, None, :], np.clip(Z, 0.0, None), np.nan)


def _stacked_equilibria(A, T):
    """``(keep, Z)`` of the supports ``T``, rows of one size: the rows of
    :func:`_stacked_solves` whose equilibrium ``z = A_tt^{-1} 1`` passes, and
    those ``z``."""
    keep, Z = _stacked_solves(A, T, np.ones(T.shape + (1,)))
    ok = ~np.isnan(Z[:, 0, 0])
    keep[keep] = ok
    return keep, Z[ok, :, 0]


def _walk(k, value, size):
    """``(T[keep], *rest)`` of ``(keep, *rest) = value(T)`` over the nonempty
    subsets ``T`` of the first ``k`` points as rows of rising points, in
    batches of one subset size and at most ``size`` rows, in rising size and
    then rising bit mask; a batch that keeps no row is skipped.  A batch
    unranks its sets at once: the ``r``-th set of ``m`` points in bit mask
    order is ``t_1 < ... < t_m`` with ``r = sum_i C(t_i, i)`` (the
    combinatorial number system), so memory is bounded by ``size`` rows at
    any ``k``."""
    binom = [np.array([math.comb(t, i) for t in range(k)]) for i in range(k + 1)]
    for m in range(1, k + 1):
        count = math.comb(k, m)
        for start in range(0, count, size):
            r = np.arange(start, min(start + size, count))
            T = np.empty((r.size, m), dtype=int)
            for i in range(m, 0, -1):  # t_i: the last t with C(t, i) <= r, past C(0, i) = 0
                T[:, i - 1] = t = binom[i][1:].searchsorted(r, side="right")
                r -= binom[i][t]
            keep, *rest = value(T)
            if keep.any():
                yield T[keep], *rest


def _grown(G: np.ndarray, value, pairs: list, size):
    """``(T, Z, V)`` of each step of the greedy growth, in rising bit mask.
    The supports start as the singletons.  A step values each support plus
    each point outside it (at most ``n (n - 1)`` candidates, each support
    formed twice valued once, in chunks of at most ``size`` as in
    :func:`_walk`), and a support takes the first point of highest value if
    that beats its own.  ``value`` maps supports to ``(keep, Z, V)``;
    ``pairs`` gets the pairs ``(T, x)`` of the candidates."""
    n = G.shape[0]
    C, own = np.arange(n)[:, None], np.full(n, -np.inf)  # candidates, their supports' values
    while len(C):
        pairs.append(len(C) * (n - C.shape[1]))
        U, back = np.unique(C, axis=0, return_inverse=True)
        chunks = (value(U[i:i + size]) for i in range(0, len(U), size))
        keep, Z, V = map(np.concatenate, zip(*chunks))
        if keep.any():
            T = U[keep]
            order = np.lexsort(T.T)
            yield T[order], Z[order], V[order]
        top = np.full(len(U), -np.inf)
        top[keep] = V.max(axis=1)
        top = top[back.reshape(-1)]
        best = top.reshape(len(own), -1)  # a support's candidates, in rising point
        pick = (np.arange(len(own)) * best.shape[1] + best.argmax(axis=1))[best.max(axis=1) > own]
        T, first = np.unique(C[pick], axis=0, return_index=True)  # supports that meet go on as one
        own = top[pick[first]]
        rows, points = np.nonzero(~np.eye(n, dtype=bool)[T].any(axis=1))  # the points outside
        C = np.sort(np.column_stack([T[rows], points]), axis=1)


def _first_best(batches, floor):
    """``(v, t, z, x)``: the first maximum ``v = V[i, x] > floor`` over
    ``batches`` ``(T, Z, V)`` in rising bit mask, in ``(bit mask, x)`` order,
    with ``(t, z)`` row ``i`` of ``(T, Z)``; ``(floor, None, None, None)`` if none."""
    best, first, top = floor, 0, (None, None, None)  # no mask ties the floor
    for T, Z, V in batches:
        i, x = np.unravel_index(int(np.argmax(V)), V.shape)
        mask = sum(1 << int(t) for t in T[i])
        if V[i, x] > best or V[i, x] == best and mask < first:
            best, first, top = float(V[i, x]), mask, (T[i], Z[i], int(x))
    return best, *top


def _enumerate_supports(A, grown=False):
    """``(weights, value)`` of the best equilibrium of :func:`_stacked_equilibria`
    over every support (:func:`_walk`), or over those :func:`_grown` reaches if
    ``grown`` (a lower bound).  Skipping singular supports is exact: on ``{A_TT
    z = 1, z >= 0}`` the objective ``2 z(T) - z'Az`` is ``z(T)``, maximal at a
    vertex ``v``.  With ``T' = supp v``, the columns of ``A[T, T']`` are
    independent and ``A_T'T' v = 1``, so a nonsingular ``A_T'T'`` solves to
    ``v``; a singular one repeats the argument on ``T'``, at no lower value,
    on a smaller support.
    """
    def value(T):
        keep, Z = _stacked_equilibria(A, T)
        T = T[keep]
        AZ = np.matmul(Z[:, None, :], A[T[:, :, None], T[:, None, :]])
        return keep, Z, 2.0 * Z.sum(axis=1, keepdims=True) - np.matmul(AZ, Z[..., None])[..., 0]

    k = A.shape[0]
    batches = _grown(A, value, [], BATCH) if grown else _walk(k, value, BATCH)
    best_val, T, z, _ = _first_best(batches, 0.0)
    best = np.zeros(k)
    if T is not None:
        best[T] = z
    return best, best_val


def _exact_qp(A, least=False):
    """Whether :func:`wiener_cap1` solves on the kernel block ``A`` by its
    exact active set: ``A`` is finite and positive semidefinite, read at any
    scale on the congruent unit-diagonal form of its symmetric part.  A zero
    diagonal entry needs a zero row, as in any PSD matrix; the form keeps it.
    With ``least``, the form's least eigenvalue where ``A`` passes, else None."""
    B = (A + A.T) / 2.0
    d = np.diag(B)
    if not np.isfinite(B).all() or (B[d == 0] != 0).any():
        return None if least else False
    s = np.where(d > 0, d, 1.0) ** -0.5
    floor = float(np.linalg.eigvalsh(B * np.outer(s, s))[0])
    if least:
        return floor if floor >= -1e-10 else None
    return floor >= -1e-10


def _wiener_value(A, lam) -> float:
    """``max(2 lam(K) - lam' A lam, 0)``, the objective of :func:`wiener_cap1`
    at the weights ``lam`` on the block ``A`` of ``K``."""
    return max(float(2.0 * lam.sum() - lam @ A @ lam), 0.0)


def _wiener_cap1(kernel: Kernel, K: np.ndarray, start=None, psd=False) -> tuple:
    """``(value, weights or None, method)`` of :func:`wiener_cap1` on the
    indices ``K`` of a symmetric kernel, without certificates or the KKT
    check of ``attained``, which :func:`wiener_cap1` makes on the weights.  A
    PSD block takes the exact active set (``qp``) from the feasible weights
    ``start`` if given: on a positive definite block it ends with the same
    solve either way.  Others take :func:`_enumerate_supports`, grown past
    ``ENUM_LIMIT`` points (``heuristic``, not attained).  ``psd`` says
    that the caller has shown ``K`` to lie in a block that passes
    :func:`_exact_qp`; the block of ``K`` then passes too, and is not tested
    again.  Its unit-diagonal form is a principal block of the larger one's,
    whose least eigenvalue bounds its own from below (Cauchy interlacing)."""
    G = kernel.entries
    n = kernel.size
    keep = K[~np.isinf(G[K, K])]
    if keep.size == 0:
        return 0.0, np.zeros(n), "excluded"
    if (G[keep, keep] == 0).any():
        return float("inf"), None, "unbounded-diagonal"

    weights = np.zeros(n)
    if keep.size == 1:
        x = int(keep[0])
        weights[x] = value = float(1.0 / G[x, x])
        return value, weights, "reciprocal"

    A = G[np.ix_(keep, keep)]
    if psd or _exact_qp(A):
        lam_K = _active_set(A, None if start is None else start[keep])
        value, method = _wiener_value(A, lam_K), "qp"
    else:  # the best value of the supports is at least 0
        grown = keep.size > ENUM_LIMIT
        lam_K, value = _enumerate_supports(A, grown=grown)
        method = "heuristic" if grown else "enumeration"
    weights[keep] = np.clip(lam_K, 0.0, None)
    return value, weights, method


def wiener_cap1(kernel: Kernel, points) -> CapacityResult:
    """``max 2 lam(K) - E(lam)`` over ``lam >= 0`` supported on ``K``.

    Requires a symmetric kernel.  A point of ``K`` with infinite diagonal
    contributes zero capacity (the reciprocal rule for singletons) and is
    excluded up front; a zero diagonal entry makes the value ``+inf``.
    """
    if not kernel.is_symmetric:
        raise DomainError("wiener_cap1 requires a symmetric kernel")
    K = _resolve_subset(kernel, points)
    value, weights, method = _wiener_cap1(kernel, K)
    attained = method not in ("unbounded-diagonal", "heuristic")
    if method == "qp":  # KKT on the block that _wiener_cap1 solved
        G = kernel.entries
        keep = K[~np.isinf(G[K, K])]
        lam_K, A = weights[keep], G[np.ix_(keep, keep)]
        attained = _kkt_residual(A, lam_K, 1e-12 * (1.0 + lam_K.max())) < 1e-8
    lam, certs = _extremal(kernel, K, weights, potential, with_exceptional=True)
    return CapacityResult(value, lam, None, certs, method, attained=attained)


@dataclass(frozen=True)
class NullCheckReport:
    """Outcome of the capacity-null test for a measure charging ``K``.

    When ``cap1(K) = 0`` and ``mu`` is a nonzero measure on ``K``, the adjoint
    potential of ``mu`` must be ``+inf`` at every point carrying ``mu``-mass;
    the adjoint potential is evaluated over the full space.
    """

    verdict: str  # "pass" | "fail" | "not_applicable"
    capacity: float
    witness: tuple  # points of positive mass where the potential stayed finite


def capacity_null_check(kernel: Kernel, points, mu: Measure) -> NullCheckReport:
    """Where ``wiener_cap1(K) = 0``, check that the adjoint potential of a
    nonzero ``mu`` carried by ``K`` is ``+inf`` at each point of its mass
    (:class:`NullCheckReport`); ``not_applicable`` where the capacity is
    positive or ``mu`` vanishes.  ``mu`` charging a point outside ``K`` raises
    a ``DomainError``."""
    space = kernel.space
    K = _resolve_subset(kernel, points)
    inside = np.zeros(space.size, dtype=bool)
    inside[K] = True
    if (~inside[mu.support]).any():
        raise DomainError("mu must be supported inside K")
    cap = wiener_cap1(kernel, points).value
    if cap > 0 or mu.is_zero:
        return NullCheckReport("not_applicable", cap, ())
    pot = adjoint_potential(kernel, mu)
    finite = [int(x) for x in mu.support if np.isfinite(pot[x])]
    witness = tuple(space.points[x] for x in finite)
    return NullCheckReport("pass" if not witness else "fail", cap, witness)


class _SubsetSearch:
    """Depth-first branch and bound (Land and Doig) for the largest
    ``num(K) / den(K)`` over nonempty ``K`` in ``supp sigma``, for nondecreasing
    set functions ``num`` and ``den``: the weak-type capacity and testing ratios.

    A subset is its mask over the space (:func:`core._bits`), bit ``x`` for the
    point ``x``; ties go to the least.  After the singletons, each point of
    ``supp sigma`` is included, then excluded, in decreasing order of ``G sigma``.
    A node with included set ``I`` and undecided points ``R`` bounds the ratios
    of its sets by ``num(I + R) / den(I)`` (the least singleton ``den`` in ``R``
    while ``I`` is empty), or by a caller's second bound if smaller, and is
    pruned when that is below the incumbent.

    The capacity ratios ``sigma(K)^{1/q} / cap(K)`` with ``q <= 1`` take the
    second bound ``sigma(O)^{1/q-1} M(O)`` on the sets ``K`` in ``O = I + R``,
    where ``M(O) = max_y sum_{x in O} sigma_x G(x, y)`` (:meth:`load`).  The
    measure ``sigma|K / M(K)`` has adjoint potential ``<= 1`` everywhere, so
    ``cap0(K) >= sigma(K) / M(K)``; as ``lam`` in ``cap1``'s objective it has
    energy at most its mass, so ``cap1(K) >= cap0(K)``.  Both factors of
    ``sigma(K)^{1/q-1} M(K)`` are nondecreasing in ``K`` when ``q <= 1``.

    Each subset's indices, mask, ``sigma`` mass, ``M``, ``cap0``, and ``cap1``
    with its weights are memoized by mask, for every search on one object,
    which lives only as long as its caller, and so is the ``lam`` of each
    certified set below, one per ``cap0`` value at most, so the search's limit
    on subsets valued bounds it.  That bounds its memory, and keeps a repeated
    call's work equal: the benchmark's traced run calls each input again on the
    same objects and fails on changed operation counts.  ``cap1`` starts from
    the weights of the subset's parent in the search, the subset without its
    last point in ``order``, and tests no subset for PSD where the support
    block passes :func:`_exact_qp` (:attr:`psd`).  One :meth:`max_ratio` call
    memoizes ``num``, ``den`` and ``cap`` by subset, and :meth:`testing_ratio`
    each subset's potential, for that call only: the nodes' bounds read a set
    many times, and each is valued once.

    ``cap1`` is read off ``cap0``'s certificate where that is the active set's
    own answer, bit for bit.  Where :func:`_cap0` took ``slackness`` on all of
    a set ``K``, the search keeps the certificate's ``lam``.  On a symmetric
    kernel, the only kind whose ``cap1`` is searched (:func:`wiener_cap1` and
    ``theorem_report``'s weak rows need one), ``G_KK lam = 1`` to ``SLACK_TOL``
    with ``lam >= 0`` is a KKT point of the concave ``max 2 lam(K) - lam' G_KK
    lam``, so ``lam`` is optimal, and the one optimum where ``G_KK`` is positive
    definite.  :func:`_active_set` stops once no point's ``w`` exceeds
    ``STOP_TOL``.  Had it stopped on a support ``P != K``, strong concavity
    would force an optimal weight ``lam_j <= 2 STOP_TOL / lambda_min(G_KK)``
    off ``P``, and interlacing on the unit-diagonal form gives
    ``lambda_min(G_KK) >= l min_K G_ii``, where ``l`` is the least eigenvalue
    of the support block's form, from the search's one :func:`_exact_qp`.  So
    where ``|K| >= 2``, the support block is PSD and ``min lam * l * min_K G_ii
    > 4 STOP_TOL`` (a factor 2 spared for rounding), the active set ends with
    the solve ``_equilibrium(G_KK)`` on all of ``K``, which the certificate's
    stacked solve gives bit for bit, and :func:`_wiener_value` values those
    weights.  The active set's one other exit is its ``3k``-step cap, short of
    the optimum; the tests' fuzzed kernels never reach it on a certified set.
    Every other set runs the active set from its parent's weights, and
    ``cap1`` never asks for a ``cap0``, so it adds no LP.
    """

    def __init__(self, kernel: Kernel, sigma: Measure, budget: int):
        self.kernel, self.sigma, self.supp = kernel, sigma, sigma.support
        k, n = self.supp.size, kernel.size
        self.limit = 2**k - 1 if _mode(2**k, budget) == "exact" else min(budget, 10 * n * n)
        pot = potential(kernel, sigma)[self.supp]
        self.order = [int(x) for x in self.supp[np.argsort(-pot, kind="stable")]]
        self._rest = [sum(1 << x for x in self.order[d:]) for d in range(k + 1)]  # order[d:]'s mask
        self._sets: dict = {}  # (indices, mask, sigma mass) by subset
        self._caps: tuple[dict, dict] = ({}, {})  # cap0, and cap1 with its weights, by subset
        self._certified: dict = {}  # lam of cap0's certificate on all of a subset, by subset
        self._loads: dict = {}  # M by subset

    def subset(self, m: int) -> tuple:
        """``(indices, read-only mask, sigma mass)`` of the subset ``m``."""
        if m not in self._sets:
            mask = _bits(m, self.kernel.size)
            mask.flags.writeable = False
            idx = mask.nonzero()[0]
            self._sets[m] = idx, mask, float(self.sigma.weights[idx].sum())
        return self._sets[m]

    def mask(self, m: int) -> np.ndarray:
        return self.subset(m)[1]

    @cached_property
    def _rows(self) -> np.ndarray:
        """``sigma_x G(x, .)`` for every ``x``, with ``0 * inf = 0``."""
        return _weighted_terms(self.sigma.weights[:, None], self.kernel.entries)

    def load(self, m: int) -> float:
        """``M(K) = max_y sum_{x in K} sigma_x G(x, y)`` of the subset ``m``."""
        if m not in self._loads:
            self._loads[m] = float(self._rows[self.mask(m)].sum(axis=0).max())
        return self._loads[m]

    def cap0_value(self, m: int) -> float:
        if m not in self._caps[0]:
            K = self.subset(m)[0]
            value, free, _, _, lam, method = _cap0(self.kernel.entries, K)
            self._caps[0][m] = value
            if method == "slackness" and free.size == K.size > 1:
                self._certified[m] = lam
        return self._caps[0][m]

    def cap1_value(self, m: int) -> float:
        if m not in self._caps[1]:
            K, G, lam = self.subset(m)[0], self.kernel.entries, self._certified.get(m)
            if (lam is not None and self.psd
                    and lam[K].min() * self._floor * G[K, K].min() > 4 * STOP_TOL):
                self._caps[1][m] = _wiener_value(G[np.ix_(K, K)], lam[K]), lam
            else:
                last = next(x for x in reversed(self.order) if m >> x & 1)
                parent = self._caps[1].get(m & ~(1 << last), (None, None))[1]
                self._caps[1][m] = _wiener_cap1(self.kernel, K, parent, self.psd)[:2]
        return self._caps[1][m][0]

    @cached_property
    def _floor(self) -> float | None:
        """``l``, the least eigenvalue of the support block's unit-diagonal form
        where the block passes :func:`_exact_qp`, else None."""
        return _exact_qp(self.kernel.entries[np.ix_(self.supp, self.supp)], least=True)

    @property
    def psd(self) -> bool:
        """The support block passes :func:`_exact_qp`, so every subset does."""
        return self._floor is not None

    @property
    def cap1_monotone(self) -> bool:
        """No subset reaches the heuristic path of :func:`wiener_cap1`."""
        return self.supp.size <= ENUM_LIMIT or self.psd

    def capacity_ratio(self, q: float, cap1: bool = False) -> tuple:
        """Largest ``sigma(K)^{1/q} / cap0(K)``, or ``/ cap1(K)`` with ``cap1``,
        which prunes only when :attr:`cap1_monotone`.  A search that prunes
        with ``q <= 1`` also takes the bound ``sigma(O)^{1/q-1} M(O)``.  A
        power of ``sigma(K)`` that does not fit a float raises a
        :class:`DomainError` that names it."""
        prune = not cap1 or self.cap1_monotone

        def power(m, p):
            if (value := _pow(self.subset(m)[2], p)) == float("inf"):
                raise DomainError(f"the scale sigma(K)^{p:g} of a subset's capacity ratio "
                                  "does not fit a float")
            return value

        def load_bound(m):
            return power(m, 1.0 / q - 1.0) * self.load(m)

        return self.max_ratio(lambda m: power(m, 1.0 / q),
                              self.cap1_value if cap1 else self.cap0_value, prune=prune,
                              cap=load_bound if prune and q <= 1.0 else None)

    def testing_ratio(self) -> tuple:
        """Largest ``integral_{K x K} G dsigma dsigma / sigma(K)``; ``G >= 0``, so
        the largest potential of ``sigma`` restricted to ``O`` caps every ``K``
        in ``O``.  The ratio, of degree 1 in ``sigma``, is searched on ``sigma`` over
        ``2^e`` (:func:`core._normalized`), lest ``sigma sigma G`` underflow."""
        G, (w, e) = self.kernel.entries, _normalized(self.sigma.weights)

        @cache
        def weighted(m):  # the subset's weights and their potential
            wm = np.where(self.mask(m), w, 0.0)
            return wm, _potential(G, wm)

        def energy(m):  # as core._energy
            wm, pot = weighted(m)
            return float(_weighted_terms(pot, wm).sum())

        value, best, mode, upper = self.max_ratio(
            energy, lambda m: float(w[self.mask(m)].sum()),
            cap=lambda m: float(weighted(m)[1][self.mask(m)].max()))
        return math.ldexp(value, e), best, mode, math.ldexp(upper, e)

    def max_ratio(self, num, den, prune: bool = True, cap=None) -> tuple:
        """``(value, mask or None, mode, upper)``: the largest ratio found, a
        set reaching it if positive, and the bracket's mode and upper end.
        ``cap(O)``, if given, is a second bound on the ratio of every set in
        ``O``; a node takes the smaller of the two."""
        num, den, cap = cache(num), cache(den), cap and cache(cap)
        k, valued = self.supp.size, set()
        best, best_m = 0.0, None

        def value(m):
            nonlocal best, best_m
            valued.add(m)
            d = den(m)
            v = num(m) / d if d > 0 else float("inf")
            if v > best or (v == best and best_m is not None and m < best_m):
                best, best_m = float(v), m

        def bound(d, m):  # the ratios of the sets between m and m + order[d:]
            top = m | self._rest[d]
            low = den(m) if m else min(den(1 << x) if 1 << x in valued else 0.0
                                       for x in self.order[d:])
            b = num(top) / low if prune and low > 0 else float("inf")
            return min(b, cap(top)) if cap else b

        for x in self.order[:self.limit]:
            value(1 << x)
        stack = [(0, 0)]  # (depth, included set)
        while stack and best < float("inf"):
            d, m = stack[-1]
            if d == k or bound(d, m) * (1.0 + PRUNE_RTOL) < best:
                stack.pop()
                continue
            child = m | 1 << self.order[d]
            if child not in valued:
                if len(valued) >= self.limit:
                    break
                value(child)
            stack[-1] = (d + 1, m)
            stack.append((d + 1, child))
        if not stack or best == float("inf"):
            return best, best_m, "exact", best
        return best, best_m, "sampled", max([best] + [bound(d, m) for d, m in stack if d < k])
