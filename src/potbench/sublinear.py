"""Solvers and sharp constants for ``u = G(u^q sigma)`` on a finite space.

The pipeline realized here:

* build a supersolution by relaxed fixed-point iteration, given a valid
  strong-type constant (:func:`gagliardo_supersolution`);
* drive it down monotonically to a solution (:func:`monotone_solution`);
* estimate the best constants of the strong and weak (1, q) inequalities
  with explicit witness measures and certified bounds
  (:func:`strong_type_constant`, :func:`weak_type_constant`);
* evaluate the energy integrals of the background measure and the
  quantitative inequalities relating them to solutions
  (:func:`energy_criteria`, :func:`maurey_verify`);
* cross-check every implication between these quantities on one instance
  and emit a verdict table (:func:`theorem_report`).

Conventions: all exponents are evaluated in extended-real arithmetic, an
iterate reaching ``+inf`` on the support of ``sigma`` aborts with status
``diverged``, and every randomized search is driven by an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .capacity import ENUM_LIMIT, cap0, content, wiener_cap1
from .core import (
    DomainError,
    Kernel,
    Measure,
    NormSpec,
    SpaceMismatchError,
    _weighted_terms,
    adjoint_potential,
    check_nondegenerate,
    check_quasisymmetric,
    integrate,
    norm,
    potential,
)
from .principles import (
    DEFAULT_BUDGET,
    _inverse_distance,
    _ratio_max,
    _triangle_constant,
    modifier,
    modify_kernel,
    wmp_constant,
)

__all__ = [
    "GOLDEN_THRESHOLD",
    "SublinearProblem",
    "SolveResult",
    "ConstantEstimate",
    "QuotientBound",
    "EnergyReport",
    "VerdictRow",
    "TheoremReport",
    "gagliardo_supersolution",
    "monotone_solution",
    "solve_equation",
    "strong_type_constant",
    "weak_type_constant",
    "weak_quotient_bound",
    "energy_criteria",
    "energy_sweep",
    "maurey_verify",
    "maurey_candidate",
    "testing_condition_11",
    "lp_operator_norm",
    "theorem_report",
]

GOLDEN_THRESHOLD = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_RELAX = 0.1
CONV_TOL = 1e-12
ITER_CAP = 100_000
POWER_CAP = 5000  # power-iteration steps of lp_operator_norm
REPORT_RTOL = 1e-8  # relative slack of every comparison in theorem_report


@dataclass(frozen=True)
class SublinearProblem:
    kernel: Kernel
    sigma: Measure
    q: float

    def __post_init__(self):
        if self.kernel.space is not self.sigma.space and self.kernel.space != self.sigma.space:
            raise SpaceMismatchError("kernel and sigma live on different spaces")
        if not (self.q > 0 and np.isfinite(self.q)):
            raise DomainError("q must be a positive real")

    def scaled(self, t: float) -> "SublinearProblem":
        return SublinearProblem(self.kernel, self.sigma.scaled(t), self.q)


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray
    status: str  # "solution" | "supersolution" | "degenerate" | "diverged"
    residual: float
    iterations: int
    lq_norm: float
    witness: tuple = ()


@dataclass(frozen=True)
class ConstantEstimate:
    lower: float
    upper: float
    witness: Measure | None
    method: str
    extras: dict = field(default_factory=dict)


def _require_sublinear(q: float):
    if not (0.0 < q < 1.0):
        raise DomainError("this construction needs 0 < q < 1")


# ---------------------------------------------------------------------------
# supersolutions and solutions
# ---------------------------------------------------------------------------


def gagliardo_supersolution(problem: SublinearProblem, kappa: float,
                            relax: float = DEFAULT_RELAX) -> SolveResult:
    """Supersolution ``u >= G(u^q sigma)`` from a valid strong-type constant.

    Iterates ``phi <- psi + (G(phi sigma))^q / ((1+relax) kappa^q)`` from the
    constant function ``psi`` of mass ``relax/(1+relax)``; the iterates are
    entrywise nondecreasing with mass at most 1, and the rescaled limit
    ``u = (c phi)^{1/q}`` with ``c = ((1+relax) kappa^q)^{1/(1-q)}`` is a
    supersolution whose q-th power has mass at most ``c``.  The supersolution
    property is re-verified on the result; a failed verification (an invalid
    ``kappa``) comes back as status ``diverged``.
    """
    _require_sublinear(problem.q)
    if not (relax > 0):
        raise DomainError("relaxation parameter must be positive")
    if not (kappa >= 0 and np.isfinite(kappa)):
        raise DomainError("kappa must be a finite nonnegative constant")
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    mass = sigma.total
    if mass == 0:
        raise DomainError("sigma must have positive total mass")
    n = kernel.size
    supp = sigma.support

    scale = ((1.0 + relax) * kappa**q) ** (1.0 / (1.0 - q))
    if kappa == 0.0:
        u = np.zeros(n)
        return SolveResult(u, "supersolution", 0.0, 0, 0.0)

    psi = relax / ((1.0 + relax) * mass)
    gain = 1.0 / ((1.0 + relax) * kappa**q)
    phi = np.full(n, psi)
    status = "diverged"
    iterations = 0
    for iterations in range(1, ITER_CAP + 1):
        pot = potential(kernel, Measure(kernel.space, _weighted_terms(phi, sigma.weights)))
        nxt = psi + gain * pot**q
        if not np.isfinite(nxt[supp]).all():
            return SolveResult(nxt, "diverged", float("inf"), iterations, float("inf"))
        if (nxt < phi).any():
            raise RuntimeError("relaxed iteration lost monotonicity")
        l1 = float(nxt[supp] @ sigma.weights[supp])
        if l1 > 1.0 + 1e-8:
            return SolveResult(nxt, "diverged", float("inf"), iterations, float("inf"))
        delta = np.abs(nxt[supp] - phi[supp])
        phi = nxt
        if np.all(delta <= CONV_TOL * np.maximum(1.0, phi[supp])):
            status = "supersolution"
            break

    u = (scale * phi) ** (1.0 / q)
    rhs = potential(kernel, Measure(kernel.space, _weighted_terms(u**q, sigma.weights)))
    # where both sides are +inf the supersolution inequality holds
    gap = np.subtract(u, rhs, out=np.zeros(n), where=~(np.isinf(u) & np.isinf(rhs)))
    bad = (gap < -1e-9 * np.maximum(1.0, np.abs(u))) & np.isfinite(u)
    if status == "supersolution" and bad.any():
        status = "diverged"
    residual = float(np.abs(gap[supp]).max()) if supp.size else 0.0
    return SolveResult(u, status, residual, iterations, norm(u, sigma, NormSpec.lp(q)))


def monotone_solution(problem: SublinearProblem, start) -> SolveResult:
    """Nonincreasing iteration ``u <- G(u^q sigma)`` from a supersolution.

    The start must satisfy ``start >= G(start^q sigma)`` on the support of
    ``sigma`` (checked at relative tolerance 1e-12).  The limit solves the
    equation; exact zeros on the support of ``sigma`` mark the degenerate
    case, in which no everywhere-positive solution exists, and the vanishing
    points are reported as the witness.
    """
    _require_sublinear(problem.q)
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    supp = sigma.support
    u0 = np.asarray(start, dtype=float)
    if u0.shape != (kernel.size,):
        raise DomainError("start vector has the wrong length")
    if np.isnan(u0).any() or (u0 < 0).any():
        raise DomainError("start must be a nonnegative vector")
    if not np.isfinite(u0[supp]).all():
        raise DomainError("start must be finite on the support of sigma")

    rhs = potential(kernel, Measure(kernel.space, _weighted_terms(u0**q, sigma.weights)))
    slack = rhs[supp] - u0[supp]
    if (slack > 1e-12 * np.maximum(1.0, u0[supp])).any():
        raise DomainError("start is not a supersolution on the support of sigma")

    u = rhs
    iterations = 1
    status = "diverged"
    for iterations in range(2, ITER_CAP + 2):
        nxt = potential(kernel, Measure(kernel.space, _weighted_terms(u**q, sigma.weights)))
        if not np.isfinite(nxt[supp]).all():
            return SolveResult(nxt, "diverged", float("inf"), iterations, float("inf"))
        if (nxt > u * (1.0 + 1e-12) + 1e-300).any():
            raise RuntimeError("monotone iteration increased")
        nxt = np.minimum(nxt, u)
        delta = np.abs(u[supp] - nxt[supp])
        done = np.all(delta <= CONV_TOL * np.maximum(u[supp], 1e-300))
        u = nxt
        if done:
            status = "converged"
            break

    final = potential(kernel, Measure(kernel.space, _weighted_terms(u**q, sigma.weights)))
    residual = float(np.abs(u[supp] - final[supp]).max()) if supp.size else 0.0
    zeros = supp[u[supp] == 0.0]
    if status == "converged":
        status = "degenerate" if zeros.size else "solution"
    witness = tuple(kernel.space.points[i] for i in zeros)
    return SolveResult(u, status, residual, iterations, norm(u, sigma, NormSpec.lp(q)),
                       witness)


def solve_equation(problem: SublinearProblem) -> tuple[SolveResult, ConstantEstimate]:
    """Full pipeline: strong constant, supersolution, monotone limit."""
    _require_sublinear(problem.q)
    est = strong_type_constant(problem, with_upper=False)
    kappa = est.extras.get("certified_upper", est.lower)
    if not np.isfinite(kappa) and np.isfinite(est.lower):
        kappa = est.lower * (1.0 + 1e-6)
    if not np.isfinite(kappa):
        u = np.full(problem.kernel.size, np.inf)
        return SolveResult(u, "diverged", float("inf"), 0, float("inf")), est
    sup, sol = _solve_from(problem, kappa)
    return (sup if sol is None else sol), est


def _solve_from(problem: SublinearProblem, kappa: float):
    """``(sup, sol)``: the supersolution from ``kappa``, then its limit (None if no sup)."""
    sup = gagliardo_supersolution(problem, kappa)
    if sup.status != "supersolution":
        return sup, None
    return sup, monotone_solution(problem, sup.u)


def _usable(sup: SolveResult, sol: SolveResult | None) -> SolveResult | None:
    """The solution if there is one, else the supersolution if there is one."""
    if sol is not None and sol.status == "solution":
        return sol
    return sup if sup.status == "supersolution" else None


def _norm_route_bound(h: float, q: float, lq_norm: float) -> float:
    """Strong-type bound from a (super)solution's norm and the WMP constant ``h``."""
    return h * (1.0 - q) ** (-1.0 / q) * lq_norm ** (1.0 - q)


# ---------------------------------------------------------------------------
# strong-type constant: concave maximization over the simplex
# ---------------------------------------------------------------------------


ASCENT_TOL = 1e-12
ASCENT_CAP = 100_000


def _value_and_gradient(A, s, q, nu):
    """``F(nu) = s . (A nu)^q`` and its gradient; a column that reaches a row
    with vanishing potential has gradient ``+inf``."""
    P = A @ nu
    F = float(s @ P**q)
    pos = P > 0
    if pos.all():
        return F, q * ((s * P ** (q - 1.0)) @ A)
    g = np.zeros(A.shape[1])
    if pos.any():
        g += q * ((s[pos] * P[pos] ** (q - 1.0)) @ A[pos])
    reach = (A[~pos] > 0).any(axis=0)
    g[reach] = np.inf
    return F, g


def _certificate(F, g, q):
    # concavity and q-homogeneity: F(v) <= (1-q) F(nu) + max(grad) for any v,
    # so the Frank-Wolfe gap of nu is _certificate(F, g, q) - F
    return (1.0 - q) * F + float(g.max()) if g.size else F


def _maximize_concave(A, s, q):
    """Maximize the concave, q-homogeneous ``F`` over the probability simplex.

    Multiplicative ascent ``nu <- nu * grad F / (q F)`` from the barycenter.
    Euler's identity ``nu . grad F = q F`` keeps every iterate on the simplex,
    so no projection or step size is needed.  The loop stops once the
    Frank-Wolfe gap is at most ``ASCENT_TOL * max(1, F)`` or the gradient is
    infinite.  Returns ``F``, ``nu`` and the certified upper bound on max F.
    """
    nu = np.full(A.shape[1], 1.0 / A.shape[1])
    F, g = _value_and_gradient(A, s, q, nu)
    for _ in range(ASCENT_CAP):
        cert = _certificate(F, g, q)
        if not np.isfinite(cert) or cert - F <= ASCENT_TOL * max(1.0, F):
            break
        w = nu * g
        nu = w / w.sum()
        F, g = _value_and_gradient(A, s, q, nu)
    return F, nu, _certificate(F, g, q)


def strong_type_constant(problem: SublinearProblem, budget: int = DEFAULT_BUDGET,
                         seed: int = 0, with_upper: bool = True) -> ConstantEstimate:
    """Least ``k`` with ``norm_q(G nu, sigma) <= k nu(total)``, both bounds.

    For ``q < 1`` the q-th power of the constant is the maximum of the
    concave, q-homogeneous function ``F(nu) = integral (G nu)^q dsigma``
    over the probability simplex.  A deterministic multiplicative ascent
    finds it, and its Frank-Wolfe duality gap gives a rigorous upper bound
    on the constant (extras key ``certified_upper``; ``certificate_gap`` is
    the gap in ``F``).  Extras ``mode`` is ``exact`` when that gap is at most
    ``ASCENT_TOL * max(1, F)``, ``sampled`` when the ascent stopped at
    ``ASCENT_CAP`` first, and ``heuristic`` when the certificate is
    infinite.  The reported ``upper`` is the norm-route bound
    through a computed solution and the weak-maximum-principle constant,
    infinite when that route is unavailable; ``seed`` drives the sampled
    search for that constant.  For ``q >= 1`` the constant equals the
    largest ``L^q(sigma)`` norm of a kernel column, attained at a point
    mass.
    """
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    G = kernel.entries
    n = kernel.size
    supp = sigma.support

    if q >= 1.0:
        vals = np.array([norm(G[:, y], sigma, NormSpec.lp(q)) for y in range(n)])
        y = int(np.argmax(vals))
        value = float(vals[y])
        wit = Measure.delta(kernel.space, kernel.space.points[y])
        return ConstantEstimate(value, value, wit, "column-norms",
                                {"mode": "exact", "certified_upper": value})

    if supp.size == 0:
        return ConstantEstimate(0.0, 0.0, None, "concave-max",
                                {"mode": "exact", "certified_upper": 0.0})

    inf_cols = np.flatnonzero(np.isinf(G[supp]).any(axis=0))
    if inf_cols.size:
        wit = Measure.delta(kernel.space, kernel.space.points[int(inf_cols[0])])
        return ConstantEstimate(float("inf"), float("inf"), wit, "infinite-entry",
                                {"mode": "exact", "certified_upper": float("inf")})

    A_full = G[supp]
    rows = A_full.any(axis=1)
    A = A_full[rows]
    s = sigma.weights[supp][rows]
    if A.shape[0] == 0:
        return ConstantEstimate(0.0, 0.0, Measure(kernel.space, np.zeros(n)),
                                "concave-max", {"mode": "exact", "certified_upper": 0.0})

    best_F, best_nu, cert = _maximize_concave(A, s, q)
    vertex_F = (A**q).T @ s
    jbest = int(np.argmax(vertex_F))
    if vertex_F[jbest] > best_F:
        best_F = float(vertex_F[jbest])
        best_nu = np.zeros(n)
        best_nu[jbest] = 1.0
    cert = max(cert, best_F)
    lower = best_F ** (1.0 / q)
    cert_upper = cert ** (1.0 / q)
    gap = cert - best_F
    mode = ("heuristic" if not np.isfinite(cert_upper)
            else "exact" if gap <= ASCENT_TOL * max(1.0, best_F) else "sampled")
    extras: dict = {"mode": mode, "objective": best_F, "certified_upper": cert_upper,
                    "certificate_gap": gap}

    upper = float("inf")
    if lower == 0.0:
        upper = 0.0
    elif with_upper:
        wr = wmp_constant(kernel, budget=budget, seed=seed)
        extras["wmp_constant"] = wr.constant
        extras["wmp_mode"] = wr.mode
        if wr.holds:
            kap = cert_upper if np.isfinite(cert_upper) else lower * (1.0 + 1e-6)
            use = _usable(*_solve_from(problem, kap))
            if use is not None and np.isfinite(use.lq_norm):
                upper = _norm_route_bound(wr.constant, q, use.lq_norm)
                extras["norm_route_lq"] = use.lq_norm

    return ConstantEstimate(lower, upper, Measure(kernel.space, best_nu), "concave-max", extras)


# ---------------------------------------------------------------------------
# weak-type constant
# ---------------------------------------------------------------------------


PRUNE_RTOL = 1e-9  # LP values are monotone in exact arithmetic, not to the last bit


class _SubsetSearch:
    """Depth-first branch and bound (Land and Doig) for the largest
    ``num(K) / den(K)`` over nonempty ``K`` in ``supp sigma``, for
    nondecreasing set functions ``num`` and ``den``.

    A subset is the integer whose bit ``j`` marks ``supp[j]``; ties go to
    the least.  After the singletons, each point is included, then
    excluded, in decreasing order of ``G sigma``.  A node with included set
    ``I`` and undecided points ``R`` bounds the ratios of its sets by
    ``num(I + R) / den(I)`` (the least singleton ``den`` in ``R`` while ``I``
    is empty) and is pruned when that is below the incumbent.  ``cap0`` and
    ``cap1`` are memoized per subset for every search on one object, which
    lives only as long as its caller: kernels are mutable.
    """

    def __init__(self, kernel: Kernel, sigma: Measure, budget: int):
        self.kernel, self.sigma, self.supp = kernel, sigma, sigma.support
        k, n = self.supp.size, kernel.size
        self.limit = 2**k - 1 if 2**k <= budget else min(budget, 10 * n * n)
        pot = potential(kernel, sigma)[self.supp]
        self.order = [int(j) for j in np.argsort(-pot, kind="stable")]
        self._caps: tuple[dict, dict] = ({}, {})  # cap0 and cap1 by subset

    def mask(self, m: int) -> np.ndarray:
        mask = np.zeros(self.kernel.size, dtype=bool)
        mask[self.supp[[j for j in range(self.supp.size) if m >> j & 1]]] = True
        return mask

    def cap0_value(self, m: int) -> float:
        if m not in self._caps[0]:
            self._caps[0][m] = cap0(self.kernel, self.mask(m)).value
        return self._caps[0][m]

    def cap1_value(self, m: int) -> float:
        if m not in self._caps[1]:
            self._caps[1][m] = wiener_cap1(self.kernel, self.mask(m), _exceptional=False).value
        return self._caps[1][m]

    @cached_property
    def cap1_monotone(self) -> bool:
        """No subset reaches the heuristic path of :func:`wiener_cap1`."""
        if self.supp.size <= ENUM_LIMIT:
            return True
        A = self.kernel.entries[np.ix_(self.supp, self.supp)]
        return bool(np.isfinite(A).all()
                    and np.linalg.eigvalsh((A + A.T) / 2.0)[0] >= -1e-10)

    def capacity_ratio(self, q: float, cap1: bool = False) -> tuple:
        """Largest ``sigma(K)^{1/q} / cap0(K)``, or ``/ cap1(K)`` with ``cap1``,
        which prunes only when :attr:`cap1_monotone`."""
        return self.max_ratio(lambda m: self.sigma.mass(self.mask(m)) ** (1.0 / q),
                              self.cap1_value if cap1 else self.cap0_value,
                              prune=not cap1 or self.cap1_monotone)

    def max_ratio(self, num, den, prune: bool = True) -> tuple:
        """``(value, subset or None, mode, upper)``: the largest ratio found, a
        set reaching it if positive, and the bracket's mode and upper end."""
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
            rest = self.order[d:]
            low = den(m) if m else min(den(1 << j) if 1 << j in valued else 0.0 for j in rest)
            return num(m | sum(1 << j for j in rest)) / low if prune and low > 0 else float("inf")

        for j in self.order[:self.limit]:
            value(1 << j)
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


def _level_set_constant(column, sigma: Measure, qprime: float) -> float:
    """sup over superlevel sets E of the column of integral_E column dsigma
    over sigma(E)^(1/qprime)."""
    supp = sigma.support
    if supp.size == 0:
        return 0.0
    f = column[supp]
    w = sigma.weights[supp]
    order = np.argsort(-f, kind="stable")
    fs, ws = f[order], w[order]
    cum_fw = np.cumsum(fs * ws)
    cum_w = np.cumsum(ws)
    boundary = np.flatnonzero(np.diff(fs) != 0)
    ends = np.append(boundary, fs.size - 1)
    ends = ends[fs[ends] > 0]
    if ends.size == 0:
        return 0.0
    with np.errstate(invalid="ignore"):
        ratios = cum_fw[ends] / cum_w[ends] ** (1.0 / qprime)
    return float(np.nanmax(ratios, initial=0.0))


def weak_type_constant(problem: SublinearProblem,
                       budget: int = DEFAULT_BUDGET) -> ConstantEstimate:
    """Least ``C`` with ``weak-norm_q(G nu, sigma) <= C nu(total)``.

    The weak norm is a maximum over superlevel sets ``K``, and LP duality
    gives ``max_nu min_K G nu = 1 / cap0(K)`` over probability measures, so
    for every ``q > 0`` the constant is the maximum of
    ``sigma(K)^{1/q} / cap0(K)`` over subsets ``K`` of the support of
    ``sigma``, found by branch and bound.  ``budget`` counts the distinct
    subsets valued: all of them when ``2^|supp sigma| <= budget``, so the
    result is ``exact``, else at most ``min(budget, 10 n^2)``.  A search cut
    short is ``sampled``, bracketed by the best subset's ratio and the
    largest bound of an open branch.  For ``q > 1`` extras carry the dual
    level-set constant, an upper bound that also caps ``upper``.  A kernel
    column of infinite weak norm makes the constant infinite.
    """
    return _weak_type_constant(_SubsetSearch(problem.kernel, problem.sigma, budget),
                               problem.q)


def _weak_type_constant(search: _SubsetSearch, q: float) -> ConstantEstimate:
    kernel, sigma = search.kernel, search.sigma
    value, best, mode, upper = search.capacity_ratio(q)
    extras = {"mode": mode}
    if q > 1.0 and np.isfinite(value):
        qprime = q / (q - 1.0)
        level_set = max((_level_set_constant(kernel.entries[:, y], sigma, qprime)
                         for y in range(kernel.size)), default=0.0)
        extras["level_set_constant"] = level_set
        upper = max(value, min(upper, level_set))
    witness = None
    if best is not None:
        best_mask = search.mask(best)
        extras["best_set"] = tuple(kernel.space.points[i] for i in np.flatnonzero(best_mask))
        extras["cap0_value"] = search.cap0_value(best)
        cres = content(kernel, best_mask)
        extras["content_value"] = cres.value
        witness = cres.extremal
    return ConstantEstimate(value, upper, witness, "capacity-subsets", extras)


@dataclass(frozen=True)
class QuotientBound:
    """Weak norm of a potential quotient against its certified bound."""

    value: float
    bound: float
    wmp_constant: float


def weak_quotient_bound(kernel: Kernel, omega: Measure, nu: Measure,
                        h: float | None = None) -> QuotientBound:
    """Weak ``L^1`` norm of ``G nu / G omega`` against ``h * nu(total)``.

    Indeterminate quotients (0/0, inf/inf) count as 0; a positive potential
    of ``nu`` over a vanishing potential of ``omega`` counts as ``+inf``.
    The bound is a theorem for quasi-symmetric kernels satisfying the weak
    maximum principle with ``omega`` charging no null set; the exact weak
    norm is returned regardless so the comparison itself is the check.
    """
    quot = _ratio_max(potential(kernel, nu), potential(kernel, omega))
    value = norm(quot, omega, NormSpec.weak_lorentz(1.0))
    if h is None:
        h = wmp_constant(kernel).constant
    return QuotientBound(value, h * nu.total, h)


# ---------------------------------------------------------------------------
# energy integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    """Energy norms of the potential of sigma and the two quantitative
    sufficiency/necessity inequalities they enter.

    ``norms`` holds the plain ``L^s`` norms at the two distinguished
    exponents together with the Lorentz and weak norms at the small-index
    exponent.  ``small_exponent_check`` is populated for
    ``q <= (sqrt(5)-1)/2`` when a (super)solution is supplied;
    ``finite_measure_check`` for larger ``q``.
    """

    exponent: float
    norms: dict
    small_exponent_check: dict | None
    finite_measure_check: dict | None


def energy_value(problem: SublinearProblem, s: float) -> float:
    """integral (G sigma)^s dsigma in extended-real arithmetic."""
    pot = potential(problem.kernel, problem.sigma)
    with np.errstate(invalid="ignore"):
        powed = pot**s
    return integrate(powed, problem.sigma)


def energy_criteria(problem: SublinearProblem, u=None, rtol: float = 1e-10) -> EnergyReport:
    _require_sublinear(problem.q)
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    s_small = q / (1.0 - q)
    pot = potential(kernel, sigma)
    norms = {
        "lp_small": norm(pot, sigma, NormSpec.lp(s_small)),
        "lp_one_plus_q": norm(pot, sigma, NormSpec.lp(1.0 + q)),
        "lorentz_small": norm(pot, sigma, NormSpec.lorentz(s_small, q)),
        "weak_small": norm(pot, sigma, NormSpec.weak_lorentz(s_small)),
    }
    a = check_quasisymmetric(kernel)
    check52 = None
    check53 = None
    if u is not None:
        u = np.asarray(u, dtype=float)
        uq_mass = integrate(u**q, sigma)
        if q <= GOLDEN_THRESHOLD:
            lhs = energy_value(problem, s_small)
            c = a ** (q * q / (1.0 - q))
            rhs = c * uq_mass
            check52 = {"lhs": lhs, "rhs": rhs, "constant": c,
                       "holds": bool(lhs <= rhs * (1.0 + rtol))}
        else:
            s = 1.0 + q
            lhs = energy_value(problem, s)
            c = a ** (s / (1.0 + q))
            expo = s * (1.0 - q) / q
            rhs = c * uq_mass**expo * sigma.total ** (1.0 - expo)
            check53 = {"lhs": lhs, "rhs": rhs, "constant": c, "s": s,
                       "holds": bool(lhs <= rhs * (1.0 + rtol))}
    return EnergyReport(s_small, norms, check52, check53)


def energy_sweep(problem: SublinearProblem, s_values) -> tuple:
    """Rows of (s, integral (G sigma)^s dsigma, L^s norm) for plotting."""
    pot = potential(problem.kernel, problem.sigma)
    rows = []
    for s in s_values:
        if not (s > 0):
            raise DomainError("sweep exponents must be positive")
        rows.append({
            "s": float(s),
            "energy": integrate(pot**s, problem.sigma),
            "norm": norm(pot, problem.sigma, NormSpec.lp(s)),
        })
    return tuple(rows)


# ---------------------------------------------------------------------------
# dual route
# ---------------------------------------------------------------------------


def maurey_verify(problem: SublinearProblem, F) -> float:
    """sup over y of integral G(x, y) F(x)^(1 - 1/q) dsigma(x).

    Finiteness of this quantity for one positive ``F`` in ``L^1(sigma)``
    certifies the strong-type inequality by duality.
    """
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    F = np.asarray(F, dtype=float)
    if F.shape != (kernel.size,):
        raise DomainError("F has the wrong length")
    if np.isnan(F).any() or (F < 0).any():
        raise DomainError("F must be nonnegative")
    expo = 1.0 - 1.0 / q
    if expo < 0 and (F[sigma.support] == 0).any():
        raise DomainError("F must be positive on the support of sigma")
    with np.errstate(divide="ignore"):
        powed = F**expo
    weights = _weighted_terms(powed, sigma.weights)
    if not np.isfinite(weights).all():
        raise DomainError("F^(1-1/q) sigma is not a finite measure")
    vals = adjoint_potential(kernel, Measure(kernel.space, weights))
    return float(vals.max())


def maurey_candidate(problem: SublinearProblem, witness: Measure) -> np.ndarray | None:
    """Dual function recovered from a strong-constant witness measure.

    Takes ``F0 = (G nu)^q`` (nudged to be positive on the support of sigma)
    and rescales it so the verification supremum is exactly one; the
    rescaled ``F`` then bounds the small-exponent energy integral by
    ``a^(q^2/(1-q)) ||F||_{L^1(sigma)}``.  Returns None when the witness
    leaves an infinite or identically-zero potential on the support.
    """
    _require_sublinear(problem.q)
    q = problem.q
    pot = potential(problem.kernel, witness)
    supp = problem.sigma.support
    if supp.size == 0 or not np.isfinite(pot[supp]).all():
        return None
    F0 = pot**q
    top = F0[supp].max()
    if top == 0:
        return None
    F0 = np.where(np.isfinite(F0), F0, top)
    F0 = np.maximum(F0, 1e-12 * top)
    m0 = maurey_verify(problem, F0)
    if not (0 < m0 < float("inf")):
        return None
    return F0 * m0 ** (q / (1.0 - q))


# ---------------------------------------------------------------------------
# testing condition and operator norms
# ---------------------------------------------------------------------------


def testing_condition_11(kernel: Kernel, sigma: Measure,
                         budget: int = DEFAULT_BUDGET) -> ConstantEstimate:
    """Least ``c`` with double-integral of G over K x K at most ``c sigma(K)``.

    The subsets ``K`` are searched, and ``budget`` and the bracket read, as
    in :func:`weak_type_constant`.  On quasimetric kernels the same ratio
    maximized over the balls of ``d = 1/G`` (all centers, all realized
    radii, strict inequality) is reported in extras.
    """
    return _testing_condition_11(_SubsetSearch(kernel, sigma, budget),
                                 _triangle_constant(kernel))


def _testing_condition_11(search: _SubsetSearch, qm) -> ConstantEstimate:
    """``qm``: the kernel's :func:`~potbench.principles._triangle_constant`."""
    kernel, sigma = search.kernel, search.sigma

    def double_integral(m):
        restricted = sigma.restrict(search.mask(m))
        return integrate(potential(kernel, restricted), restricted)

    value, best, mode, upper = search.max_ratio(double_integral,
                                                lambda m: sigma.mass(search.mask(m)))
    extras: dict = {"mode": mode}
    witness = None
    if best is not None:
        best_mask = search.mask(best)
        witness = sigma.restrict(best_mask)
        extras["best_set"] = tuple(kernel.space.points[i] for i in np.flatnonzero(best_mask))

    if qm.is_quasimetric:
        d = _inverse_distance(kernel.entries)
        ball_best, ball_info = 0.0, None
        for x in range(kernel.size):
            for r in np.unique(d[x]):
                mask = d[x] < r
                mass = sigma.mass(mask)
                if mass == 0:
                    continue
                restricted = sigma.restrict(mask)
                ratio = integrate(potential(kernel, restricted), restricted) / mass
                if ratio > ball_best:
                    ball_best = float(ratio)
                    ball_info = (kernel.space.points[x], float(r))
        extras["kappa"] = qm.kappa
        extras["ball_constant"] = ball_best
        extras["ball_witness"] = ball_info
    return ConstantEstimate(value, upper, witness, "subset-enumeration", extras)


def lp_operator_norm(kernel: Kernel, sigma: Measure, p: float) -> float:
    """Norm of ``f -> G(f sigma)`` on ``L^p(sigma)`` by power iteration.

    Exact at machine precision for ``p = 2`` on symmetric kernels (the
    iteration converges to the spectral norm of the weighted matrix); a
    certified-from-below estimate for other ``p``.
    """
    if not (1.0 < p < float("inf")):
        raise DomainError("p must lie in (1, inf)")
    G = kernel.entries
    w = sigma.weights
    if (np.isinf(G) & np.outer(w > 0, w > 0)).any():
        return float("inf")
    lhs = np.where(w > 0, w ** (1.0 / p), 0.0)
    rhs = np.where(w > 0, w ** (1.0 - 1.0 / p), 0.0)
    A = lhs[:, None] * np.where(np.isfinite(G), G, 0.0) * rhs[None, :]
    if not A.any():
        return 0.0
    pprime = p / (p - 1.0)
    x = np.ones(kernel.size)
    x /= np.linalg.norm(x, ord=p)
    est = 0.0
    for _ in range(POWER_CAP):
        y = A @ x
        ny = float(np.linalg.norm(y, ord=p))
        if ny == 0:
            return 0.0
        z = A.T @ (y / ny) ** (p - 1.0)
        nz = float(np.linalg.norm(z, ord=pprime))
        new = x if nz == 0 else z ** (pprime - 1.0)
        nn = float(np.linalg.norm(new, ord=p))
        x = new / nn if nn > 0 else x
        if abs(ny - est) <= CONV_TOL * max(1.0, ny):
            est = ny
            break
        est = ny
    return est


# ---------------------------------------------------------------------------
# the verdict table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRow:
    claim: str
    verdict: str  # "CONFIRMED" | "VIOLATED" | "NOT-APPLICABLE"
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TheoremReport:
    hypotheses: dict
    rows: tuple
    constants: dict

    def row(self, claim: str) -> VerdictRow:
        for row in self.rows:
            if row.claim == claim:
                return row
        raise KeyError(claim)

    def verdict(self, claim: str) -> str:
        return self.row(claim).verdict


def _row(claim, ok, details):
    return VerdictRow(claim, "CONFIRMED" if ok else "VIOLATED", details)


def _na(claim, why):
    return VerdictRow(claim, "NOT-APPLICABLE", {"reason": why})


def theorem_report(problem: SublinearProblem, budget: int = DEFAULT_BUDGET,
                   seed: int = 0, pole=None) -> TheoremReport:
    """Run the whole pipeline on one instance and cross-check every claim.

    Hypothesis checks (quasi-symmetry, weak maximum principle,
    non-degeneracy, quasimetric structure) gate the rows: a claim whose
    hypotheses fail on this instance is marked NOT-APPLICABLE rather than
    tested, claims whose both sides are computable are CONFIRMED or
    VIOLATED with numeric details.

    ``budget`` bounds the sampled WMP search (driven by ``seed``) and five
    subset searches as in :func:`weak_type_constant`: ``cap0`` and ``cap1``
    at ``q`` and at 1, and the testing condition.  They share one memo of
    ``cap0`` and ``cap1``, and the rows compare their lower ends.
    """
    _require_sublinear(problem.q)
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    rows: list[VerdictRow] = []

    a = check_quasisymmetric(kernel)
    wmp = wmp_constant(kernel, budget=budget, seed=seed)
    nd = check_nondegenerate(kernel, sigma)
    qm = _triangle_constant(kernel) if kernel.is_symmetric else None
    hypotheses = {
        "quasi_symmetry_constant": a,
        "quasi_symmetric": bool(np.isfinite(a)),
        "wmp_constant": wmp.constant,
        "wmp_holds": wmp.holds,
        "wmp_mode": wmp.mode,
        "nondegenerate": nd.nondegenerate,
        "degenerate_witness": nd.witness,
        "quasimetric_kappa": qm.kappa if qm else None,
        "is_quasimetric": qm.is_quasimetric if qm else False,
        "sigma_total": sigma.total,
    }

    strong = strong_type_constant(problem, with_upper=False)
    kappa_cert = strong.extras.get("certified_upper", strong.lower)
    constants = {"strong_lower": strong.lower, "strong_certified": kappa_cert}

    sol = usable = None
    if np.isfinite(kappa_cert) and sigma.total > 0:
        sup, sol = _solve_from(problem, kappa_cert)
        usable = _usable(sup, sol)
        rows.append(_row("strong_to_supersolution", sup.status == "supersolution",
                         {"kappa": kappa_cert, "slack": sup.residual,
                          "lq_norm": sup.lq_norm}))
    else:
        rows.append(_na("strong_to_supersolution",
                        "strong-type constant is infinite" if sigma.total > 0
                        else "sigma vanishes"))

    if sol is not None:
        if nd.nondegenerate:
            rows.append(_row("supersolution_to_solution", sol.status == "solution",
                             {"status": sol.status, "residual": sol.residual,
                              "lq_norm": sol.lq_norm}))
        else:
            rows.append(_na("supersolution_to_solution", "kernel is degenerate"))
    else:
        rows.append(_na("supersolution_to_solution", "no supersolution available"))

    if usable is not None and wmp.holds and np.isfinite(a):
        bound = _norm_route_bound(wmp.constant, q, usable.lq_norm)
        constants["norm_route_upper"] = bound
        rows.append(_row("supersolution_to_strong", strong.lower <= bound * (1.0 + REPORT_RTOL),
                         {"lower": strong.lower, "upper": bound}))
    elif usable is None:
        rows.append(_na("supersolution_to_strong", "no supersolution available"))
    else:
        rows.append(_na("supersolution_to_strong",
                        "needs the weak maximum principle and quasi-symmetry"))

    if sol is not None and sol.status == "solution" and np.isfinite(kappa_cert):
        bound = kappa_cert ** (1.0 / (1.0 - q))
        rows.append(_row("solution_norm_bound", sol.lq_norm <= bound * (1.0 + REPORT_RTOL),
                         {"lq_norm": sol.lq_norm, "bound": bound}))
    else:
        rows.append(_na("solution_norm_bound", "no solution with a finite constant"))

    if np.isfinite(kappa_cert) and np.isfinite(a) and strong.witness is not None \
            and strong.lower > 0:
        F = maurey_candidate(problem, strong.witness)
        if F is None:
            rows.append(_na("energy_necessity", "dual candidate unavailable"))
        else:
            lhs = energy_value(problem, q / (1.0 - q))
            c = a ** (q * q / (1.0 - q))
            rhs = c * integrate(F, sigma)
            constants["maurey_l1"] = integrate(F, sigma)
            rows.append(_row("energy_necessity", lhs <= rhs * (1.0 + REPORT_RTOL),
                             {"lhs": lhs, "rhs": rhs, "constant": c,
                              "verification": maurey_verify(problem, F)}))
    elif strong.lower == 0:
        rows.append(_na("energy_necessity", "potential vanishes on sigma"))
    else:
        rows.append(_na("energy_necessity",
                        "needs a finite constant and quasi-symmetry"))

    lorentz = norm(potential(kernel, sigma), sigma,
                   NormSpec.lorentz(q / (1.0 - q), q))
    constants["lorentz_small"] = lorentz
    if wmp.holds and np.isfinite(a) and nd.nondegenerate and np.isfinite(lorentz):
        bound = wmp.constant * lorentz
        rows.append(_row("lorentz_sufficiency", strong.lower <= bound * (1.0 + REPORT_RTOL),
                         {"lower": strong.lower, "bound": bound}))
    else:
        rows.append(_na("lorentz_sufficiency",
                        "needs WMP, quasi-symmetry, non-degeneracy and a finite norm"))

    search = _SubsetSearch(kernel, sigma, budget)
    if wmp.holds and kernel.is_symmetric:
        weak = _weak_type_constant(search, q)
        c_cap1 = search.capacity_ratio(q, cap1=True)[0]
        constants["weak_cap0"] = weak.lower
        constants["weak_cap1"] = c_cap1
        ok = (c_cap1 <= weak.lower * (1.0 + REPORT_RTOL)
              and weak.lower <= wmp.constant * c_cap1 * (1.0 + REPORT_RTOL))
        rows.append(_row("weak_capacity_route", ok,
                         {"from_cap0": weak.lower, "from_cap1": c_cap1,
                          "wmp": wmp.constant}))
    else:
        rows.append(_na("weak_capacity_route",
                        "needs q <= 1, a symmetric kernel and WMP"))

    if wmp.holds and kernel.is_symmetric:
        tst = _testing_condition_11(search, qm)
        t22 = lp_operator_norm(kernel, sigma, 2.0)
        weak11 = _weak_type_constant(search, 1.0)
        c_cap1_11 = search.capacity_ratio(1.0, cap1=True)[0]
        trio = {"weak_1_1": weak11.lower, "testing": tst.lower, "p2_norm": t22,
                "from_cap1": c_cap1_11,
                "p_extras": {p: lp_operator_norm(kernel, sigma, p) for p in (1.5, 3.0)}}
        factor = 8.0 * wmp.constant**4
        vals = [weak11.lower, tst.lower, t22]
        finite = [np.isfinite(v) for v in vals]
        ok = all(finite) == any(finite)
        if all(finite):
            ok = ok and c_cap1_11 <= tst.lower * (1.0 + REPORT_RTOL)
            ok = ok and tst.lower <= t22 * (1.0 + REPORT_RTOL)
            lo, hi = min(vals), max(vals)
            ok = ok and (lo == 0.0 if hi == 0.0 else hi <= factor * lo * (1.0 + REPORT_RTOL))
        trio["factor"] = factor
        rows.append(_row("weak11_testing_chain", ok, trio))
    else:
        rows.append(_na("weak11_testing_chain", "needs a symmetric WMP kernel"))

    rows.append(_local_route_row(problem, pole))

    if sol is not None and np.isfinite(a):
        if nd.nondegenerate:
            ok = sol.status == "solution"
            details = {"status": sol.status}
        else:
            ok = sol.status == "degenerate"
            details = {"status": sol.status, "witness": sol.witness,
                       "conclusion": "no positive solution exists"}
        rows.append(_row("degenerate_dichotomy", ok, details))
    else:
        rows.append(_na("degenerate_dichotomy",
                        "needs a quasi-symmetric kernel and a pipeline limit"))

    return TheoremReport(hypotheses, tuple(rows), constants)


def _local_route_row(problem, pole):
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    supp = sigma.support
    if supp.size == 0:
        return _na("local_solution_route", "sigma vanishes")
    if pole is None:
        pole = kernel.space.points[int(supp[np.argmax(sigma.weights[supp])])]
    g = modifier(kernel, pole)
    if (g[supp] == 0).any():
        return _na("local_solution_route", "modifier vanishes on sigma-mass")
    mod = modify_kernel(kernel, g)
    sub_sigma = Measure(mod.kernel.space,
                        (g ** (1.0 + q) * sigma.weights)[mod.retained])
    sub_problem = SublinearProblem(mod.kernel, sub_sigma, q)
    sub_strong = strong_type_constant(sub_problem, with_upper=False)
    kap = sub_strong.extras.get("certified_upper", sub_strong.lower)
    if not np.isfinite(kap) or sub_sigma.total == 0:
        return _na("local_solution_route", "modified constant is infinite")
    _, sol = _solve_from(sub_problem, kap)
    if sol is None:
        return _na("local_solution_route", "modified supersolution unavailable")
    if sol.status != "solution":
        return VerdictRow("local_solution_route", "VIOLATED",
                          {"modified_status": sol.status})
    u_loc = np.zeros(kernel.size)
    u_loc[mod.retained] = g[mod.retained] * sol.u
    rhs = potential(kernel, Measure(kernel.space, _weighted_terms(u_loc**q, sigma.weights)))
    res = np.abs(u_loc[mod.retained] - rhs[mod.retained])
    scale = np.maximum(1.0, u_loc[mod.retained])
    ok = bool((res <= REPORT_RTOL * scale).all())
    return _row("local_solution_route", ok,
                {"pole": pole, "residual": float((res / scale).max()),
                 "modified_constant": sub_strong.lower})
