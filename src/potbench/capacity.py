"""Capacities of subsets of a finite space and their extremal measures.

Three set functions, all with explicit optimizers:

* :func:`cap0`: largest mass a measure on ``K`` can carry while its adjoint
  potential stays ``<= 1`` on the whole space (a linear program);
* :func:`content`: least total mass of a measure whose potential is ``>= 1``
  on ``K`` (the dual linear program, so the two values coincide);
* :func:`wiener_cap1`: ``max 2 lam(K) - E(lam)`` over measures on ``K``,
  whose maximizer is the equilibrium measure.  Positive-semidefinite kernels
  go through a projected-gradient ascent with an exact active-set polish and
  KKT verification; small non-PSD instances are solved exactly by support
  enumeration; anything else falls back to a multistart ascent flagged
  ``heuristic``.

Infinite kernel values are pre-reduced before any LP is built: an ``+inf``
coefficient inside a ``<= 1`` constraint forces its variable to zero, and an
``+inf`` coefficient inside a ``>= 1`` row makes that row freely satisfiable
(the infimum is then approached but not attained, and the result says so).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    Kernel,
    Measure,
    _nonempty_subsets,
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
ENUM_LIMIT = 12  # largest |K| solved exactly on non-PSD kernels
QP_CAP = 50_000  # projected-gradient steps per start


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


def _make_certificates(kernel, K, lam: Measure, pot, ctol, with_exceptional=True):
    sup = lam.support
    upper = float(pot[sup].max()) if sup.size else None
    below = [int(x) for x in K if pot[x] < 1.0 - ctol]
    below_labels = tuple(kernel.space.points[x] for x in below)
    below_cap = None
    if with_exceptional:
        if not below:
            below_cap = 0.0
        else:
            below_cap = wiener_cap1(kernel, below_labels, _exceptional=False).value
    off = np.abs(pot - 1.0) > ctol
    off_mass = float(lam.weights[off].sum())
    return EquilibriumCertificates(upper, below_labels, below_cap, off_mass)


def cap0(kernel: Kernel, points, ctol: float = CERT_TOL) -> CapacityResult:
    """max ``mu(K)`` over measures on ``K`` with adjoint potential ``<= 1`` everywhere."""
    space = kernel.space
    K = _resolve_subset(kernel, points)
    G = kernel.entries
    n = space.size

    # mu[x] > 0 with an infinite entry in row G[x, :] violates some <=1 row
    free = np.array([x for x in K if np.isfinite(G[x]).all()], dtype=int)
    zero = Measure(space, np.zeros(n))
    if free.size == 0:
        pot = adjoint_potential(kernel, zero)
        certs = _make_certificates(kernel, K, zero, pot, ctol, with_exceptional=False)
        return CapacityResult(0.0, zero, 0.0, certs, "lp")
    unconstrained = [x for x in free if (G[x] == 0).all()]
    if unconstrained:
        return CapacityResult(float("inf"), None, float("inf"), None, "lp", attained=False)

    lhs = G[free].T  # row y, column j: coefficient of mu[free_j]
    problem = LpProblem(
        objective=np.ones(free.size),
        lhs=lhs,
        rhs=np.ones(n),
        senses=("<=",) * n,
    )
    sol = solve_lp(problem)
    if sol.status == "unbounded":
        return CapacityResult(float("inf"), None, float("inf"), None, "lp", attained=False)
    if sol.status != "optimal":  # cannot happen: mu = 0 is feasible
        raise RuntimeError(f"cap0 LP reported {sol.status}")

    weights = np.zeros(n)
    weights[free] = np.maximum(sol.x, 0.0)
    mu = Measure(space, weights)
    dual_value = float(np.maximum(sol.duals, 0.0).sum())
    pot = adjoint_potential(kernel, mu)
    certs = _make_certificates(kernel, K, mu, pot, ctol, with_exceptional=False)
    return CapacityResult(max(sol.value, 0.0), mu, dual_value, certs, "lp")


def content(kernel: Kernel, points, ctol: float = CERT_TOL) -> CapacityResult:
    """min ``lam(space)`` over measures with potential ``>= 1`` on ``K``."""
    space = kernel.space
    K = _resolve_subset(kernel, points)
    G = kernel.entries
    n = space.size

    # a >=1 row containing +inf is satisfied by vanishing mass on that column
    covered_free = np.array([x for x in K if np.isinf(G[x]).any()], dtype=int)
    rows = np.array([x for x in K if np.isfinite(G[x]).all()], dtype=int)
    attained = covered_free.size == 0

    infeasible = [x for x in rows if (G[x] == 0).all()]
    if infeasible:
        return CapacityResult(float("inf"), None, float("inf"), None, "lp", attained=False)

    zero = Measure(space, np.zeros(n))
    if rows.size == 0:
        pot = potential(kernel, zero)
        certs = _make_certificates(kernel, K, zero, pot, ctol, with_exceptional=False)
        return CapacityResult(0.0, zero, 0.0, certs, "lp", attained=attained)

    problem = LpProblem(
        objective=-np.ones(n),
        lhs=G[rows],
        rhs=np.ones(rows.size),
        senses=(">=",) * rows.size,
    )
    sol = solve_lp(problem)
    if sol.status == "infeasible":
        return CapacityResult(float("inf"), None, float("inf"), None, "lp", attained=False)
    if sol.status != "optimal":
        raise RuntimeError(f"content LP reported {sol.status}")

    lam = Measure(space, np.maximum(sol.x, 0.0))
    dual_value = float(np.maximum(-sol.duals, 0.0).sum())
    pot = potential(kernel, lam)
    certs = _make_certificates(kernel, K, lam, pot, ctol, with_exceptional=False)
    return CapacityResult(max(-sol.value, 0.0), lam, dual_value, certs, "lp", attained=attained)


# ---------------------------------------------------------------------------
# Wiener-type capacity: max 2 lam(K) - E(lam), lam >= 0 supported on K
# ---------------------------------------------------------------------------


def _kkt_residual(A, lam, thr, g=None):
    g = 2.0 * (1.0 - A @ lam) if g is None else g
    active = lam > thr
    return max(float(np.abs(g[active]).max(initial=0.0)),
               float(np.clip(g[~active], 0.0, None).max(initial=0.0)))


def _try_polish(A, lam, thr):
    """Solve the stationarity system on the inferred support and verify KKT."""
    T = np.flatnonzero(lam > thr)
    if T.size == 0:
        return None
    AT = A[np.ix_(T, T)]
    ones = np.ones(T.size)
    try:
        z = np.linalg.solve(AT, ones)
    except np.linalg.LinAlgError:
        z, *_ = np.linalg.lstsq(AT, ones, rcond=None)
    if np.abs(AT @ z - ones).max() > 1e-9 or (z < -1e-10).any():
        return None
    cand = np.zeros_like(lam)
    cand[T] = np.clip(z, 0.0, None)
    pot = A @ cand
    off = np.setdiff1d(np.arange(len(lam)), T)
    if off.size and (pot[off] < 1.0 - 1e-9).any():
        return None
    return cand


def _qp_ascent(A, starts, top_eig):
    """Projected-gradient ascent for ``f(lam) = 2 sum(lam) - lam' A lam``.

    Exact for PSD ``A`` (concave objective); used as a best-effort search
    otherwise.  ``top_eig`` is the largest eigenvalue of ``(A + A') / 2``,
    which sets the step.  Returns ``(lam, kkt_residual)`` for the best start.
    """
    L = 2.0 * max(top_eig, 1e-12)
    best, best_val, best_res = None, -np.inf, np.inf
    for lam in starts:
        lam = np.clip(np.asarray(lam, dtype=float), 0.0, None)
        g = 2.0 * (1.0 - A @ lam)
        for it in range(QP_CAP):
            lam = np.clip(lam + g / L, 0.0, None)
            g = 2.0 * (1.0 - A @ lam)  # the stop test's gradient is the next step's
            thr = 1e-12 * (1.0 + lam.max())
            res = _kkt_residual(A, lam, thr, g)
            if it % 64 == 63 or res < 1e-11:
                polished = _try_polish(A, lam, max(thr, 1e-10 * (1.0 + lam.max())))
                if polished is not None and _kkt_residual(A, polished, 1e-14) < 1e-9:
                    lam = polished
                    break
                if res < 1e-11:
                    break
        val = 2.0 * lam.sum() - lam @ A @ lam
        res = _kkt_residual(A, lam, 1e-12 * (1.0 + lam.max()))
        if val > best_val:
            best, best_val, best_res = lam, val, res
    return best, best_res


def _family_mass_lp(AT):
    """On a singular-but-consistent support, maximize total mass over the
    stationary family (the objective equals the total mass there)."""
    k = AT.shape[0]
    problem = LpProblem(
        objective=np.ones(k),
        lhs=AT,
        rhs=np.ones(k),
        senses=("==",) * k,
    )
    sol = solve_lp(problem)
    if sol.status != "optimal":
        return None
    return np.clip(sol.x, 0.0, None)


def _enumerate_supports(A):
    k = A.shape[0]
    best_val, best = 0.0, np.zeros(k)
    for row in _nonempty_subsets(k):
        T = np.flatnonzero(row)
        AT = A[np.ix_(T, T)]
        if np.isinf(AT).any():
            continue
        ones = np.ones(T.size)
        try:
            z = np.linalg.solve(AT, ones)
        except np.linalg.LinAlgError:
            z = None
        if z is None or np.abs(AT @ z - ones).max() > 1e-9:
            zz, *_ = np.linalg.lstsq(AT, ones, rcond=None)
            if np.abs(AT @ zz - ones).max() > 1e-9:
                continue
            z = _family_mass_lp(AT)
            if z is None:
                continue
        if (z < -1e-10).any():
            continue
        z = np.clip(z, 0.0, None)
        val = float(2.0 * z.sum() - z @ AT @ z)
        if val > best_val:
            best_val = val
            best = np.zeros(k)
            best[T] = z
    return best, best_val


def wiener_cap1(kernel: Kernel, points, ctol: float = CERT_TOL, seed: int = 0,
                _exceptional: bool = True) -> CapacityResult:
    """``max 2 lam(K) - E(lam)`` over ``lam >= 0`` supported on ``K``.

    Requires a symmetric kernel.  A point of ``K`` with infinite diagonal
    contributes zero capacity (the reciprocal rule for singletons) and is
    excluded up front; a zero diagonal entry makes the value ``+inf``.
    """
    if not kernel.is_symmetric:
        raise DomainError("wiener_cap1 requires a symmetric kernel")
    space = kernel.space
    K = _resolve_subset(kernel, points)
    G = kernel.entries
    n = space.size

    diag = G[K, K]
    keep = K[~np.isinf(diag)]
    zero = Measure(space, np.zeros(n))
    if keep.size == 0:
        pot = potential(kernel, zero)
        certs = _make_certificates(kernel, K, zero, pot, ctol, with_exceptional=_exceptional)
        return CapacityResult(0.0, zero, None, certs, "excluded")
    if (G[keep, keep] == 0).any():
        return CapacityResult(float("inf"), None, None, None, "unbounded-diagonal", attained=False)

    if keep.size == 1:
        x = int(keep[0])
        value = float(1.0 / G[x, x])
        weights = np.zeros(n)
        weights[x] = value
        lam = Measure(space, weights)
        pot = potential(kernel, lam)
        certs = _make_certificates(kernel, K, lam, pot, ctol, with_exceptional=_exceptional)
        return CapacityResult(value, lam, None, certs, "reciprocal")

    A = G[np.ix_(keep, keep)]
    finite = np.isfinite(A).all()
    psd = False
    if finite:
        eigs = np.linalg.eigvalsh((A + A.T) / 2.0)
        psd = float(eigs[0]) >= -1e-10

    attained = True
    if finite and psd:
        lam_K, res = _qp_ascent(A, [1.0 / np.diag(A)], float(eigs[-1]))
        value = float(2.0 * lam_K.sum() - lam_K @ A @ lam_K)
        method = "qp"
        attained = res < 1e-8
    elif keep.size <= ENUM_LIMIT:
        lam_K, value = _enumerate_supports(A)
        method = "enumeration"
    else:
        rng = np.random.default_rng(seed)
        Af = np.where(np.isinf(A), 1e30, A)
        starts = [1.0 / np.diag(A)] + [rng.exponential(1.0, keep.size) for _ in range(5)]
        lam_K, _ = _qp_ascent(Af, starts, float(np.linalg.eigvalsh((Af + Af.T) / 2.0)[-1]))
        pot_K = _weighted_terms(A, lam_K).sum(axis=1)
        value = float(2.0 * lam_K.sum() - _weighted_terms(pot_K, lam_K).sum())
        x = int(np.argmin(np.diag(A)))  # the largest singleton capacity is a floor
        if 1.0 / A[x, x] > value:
            lam_K, value = np.eye(keep.size)[x] / A[x, x], float(1.0 / A[x, x])
        method = "heuristic"
        attained = False

    weights = np.zeros(n)
    weights[keep] = np.clip(lam_K, 0.0, None)
    lam = Measure(space, weights)
    pot = potential(kernel, lam)
    certs = _make_certificates(kernel, K, lam, pot, ctol, with_exceptional=_exceptional)
    return CapacityResult(max(value, 0.0), lam, None, certs, method, attained=attained)


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
