"""Solvers and sharp constants for ``u = G(u^q sigma)`` on a finite space.

The pipeline realized here:

* build a supersolution from a valid strong-type constant, the rescaled
  fixed point of the relaxed map (:func:`gagliardo_supersolution`);
* find the limit of the descent from it (:func:`monotone_solution`), or the
  solution outright (:func:`solve_equation`), each with a Thompson-metric
  enclosure; one solver, Newton steps in ``log u`` on ``u^q = b^q + G(u^q sigma)^q``
  (:func:`_log_solve`; ``b > 0`` only for the relaxed supersolution), serves
  all three, and all three return ``log u``;
* estimate the best constants of the strong and weak (1, q) inequalities
  with explicit witness measures and certified bounds, the strong upper end
  from a supersolution's norm in logs (:func:`strong_type_constant`,
  :func:`_norm_route`, :func:`weak_type_constant`);
* evaluate the energy integrals of the background measure and the
  quantitative inequalities relating them to solutions
  (:func:`energy_criteria`, :func:`maurey_verify`);
* cross-check every implication between these quantities on one instance
  and emit a verdict table (:func:`theorem_report`).

Conventions: all exponents are evaluated in extended-real arithmetic, and a scalar
power past the float range reads ``+inf`` (``core._pow``): a finite scale raises a
:class:`DomainError` that names it, a bound or certificate reads ``+inf``, and the
energy-necessity row and :func:`maurey_candidate` read it as unavailable.  A solve that
does not settle in ``NEWTON_STEPS`` Newton steps ends unsettled; nothing draws a random
number, so a ``seed`` argument is unused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from .capacity import (ENUM_LIMIT, _cap0, _exact_qp, _to_boundary, _wiener_cap1, _wiener_value,
                       content)
from .core import (
    DomainError,
    Kernel,
    Measure,
    SpaceMismatchError,
    _bits,
    _clean_array,
    _distinct,
    _energy,
    _exp,
    _inverse_distance,
    _log_norm,
    _normalized,
    _potential,
    _pow,
    _power_integral,
    _ratio_max,
    _rearranged,
    _weighted_terms,
    adjoint_potential,
    check_nondegenerate,
    check_quasisymmetric,
    integrate,
    lorentz_norm,
    lp_norm,
    potential,
    weak_lorentz_norm,
)
from .principles import (
    DEFAULT_BUDGET,
    _mode,
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
    "energy_value",
    "maurey_verify",
    "maurey_candidate",
    "testing_condition_11",
    "lp_operator_norm",
    "theorem_report",
]

GOLDEN_THRESHOLD = (math.sqrt(5.0) - 1.0) / 2.0
RELAX = 0.1  # relaxation of gagliardo_supersolution
CONV_TOL = 1e-12
NEWTON_STEPS = 40  # Newton steps of _log_solve; at the cap the solve ends unsettled
SOLVE_TOL = 1e-14  # _log_solve ends at a step this small relative to the logs in play
POWER_CAP = 5000  # power-iteration steps of lp_operator_norm
REPORT_RTOL = 1e-8  # relative slack of every comparison in theorem_report
ENERGY_RTOL = 1e-10  # relative slack of the two energy_criteria checks


@dataclass(frozen=True)
class SublinearProblem:
    """``u = G(u^q sigma)`` on one kernel and measure.  The plain solve,
    :func:`_log_solve` with no floor, is memoized (``_solution``): a ``Kernel``'s
    and a ``Measure``'s arrays are read-only after construction."""
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

    @cached_property
    def _solution(self) -> "SolveResult":
        sol = _log_solve(self)
        sol.u.flags.writeable = sol.log_u.flags.writeable = False  # shared by every reader
        return sol


@dataclass(frozen=True)
class SolveResult:
    """A (super)solution of ``u = G(u^q sigma)`` and ``log_u = log u`` (None on a
    relaxed iterate that diverged); ``residual`` is ``max |log G(u^q sigma) - log u|``
    on the points solved for (``supp sigma`` for :func:`gagliardo_supersolution`);
    ``iterations`` counts :func:`_log_solve`'s Newton steps.  From :func:`solve_equation`
    and :func:`monotone_solution`, ``e^-delta u <= u* <= e^delta u``; the relaxed
    supersolution's ``delta`` is None.  Where the result is the problem's memoized
    plain solve, shared by its callers, ``u`` and ``log_u`` are read-only."""
    u: np.ndarray
    status: str  # "solution" | "supersolution" | "degenerate" | "diverged"
    residual: float
    iterations: int
    lq_norm: float
    witness: tuple = ()
    log_u: np.ndarray | None = None
    delta: float | None = None


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


def _apply(kernel: Kernel, v, sigma: Measure) -> np.ndarray:
    """``G(v sigma)`` after a ``Measure``'s checks of ``v sigma``: the checked
    evaluations around the fixed-point solves, and :func:`_local_route_row`'s."""
    w = _clean_array(_weighted_terms(v, sigma.weights), (kernel.size,), "measure weights")
    return _potential(kernel.entries, w)


# ---------------------------------------------------------------------------
# supersolutions and solutions
# ---------------------------------------------------------------------------


def gagliardo_supersolution(problem: SublinearProblem, kappa: float) -> SolveResult:
    """Supersolution ``u >= G(u^q sigma)`` from a valid strong-type constant.

    With ``relax = RELAX``, the relaxed map
    ``R(phi) = psi + gain (G(phi sigma))^q``, ``gain = 1 / ((1+relax) kappa^q)``,
    from the constant function ``psi`` of mass ``relax/(1+relax)``, has
    entrywise nondecreasing iterates with mass at most 1 for a valid
    ``kappa``, and the rescaled fixed point ``u = (c phi)^{1/q}``,
    ``c = gain^{-1/(1-q)}``, is a supersolution whose q-th power has mass at
    most ``c``.  That ``u`` solves ``u^q = c psi + G(u^q sigma)^q``, so it is
    :func:`_log_solve`'s with the floor ``b = (c psi)^{1/q}``, in logs, whose
    solve settles only where the re-check ``log G(u^q sigma) <= log u`` holds.
    A ``G`` infinite on ``supp sigma``, a solve that does not settle and a fixed
    point of mass ``integral phi dsigma`` above ``1 + 1e-8`` (``kappa`` too
    small, checked in logs) return as status ``diverged``.  ``iterations``
    counts the Newton steps, ``delta`` is None.  A ``u`` that does not fit a
    float (its log does) raises :class:`DomainError`.
    """
    _require_sublinear(problem.q)
    if not (kappa >= 0 and np.isfinite(kappa)):
        raise DomainError("kappa must be a finite nonnegative constant")
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    mass = sigma.total
    if mass == 0:
        raise DomainError("sigma must have positive total mass")
    n, G, supp = kernel.size, kernel.entries, sigma.support
    if kappa == 0.0:
        return SolveResult(np.zeros(n), "supersolution", 0.0, 0, 0.0, (), np.full(n, -np.inf))
    if np.isinf(G[supp][:, supp]).any():  # G(psi sigma) is +inf on supp sigma
        return SolveResult(np.full(n, np.inf), "diverged", float("inf"), 0, float("inf"))
    log_c = (math.log1p(RELAX) + q * math.log(kappa)) / (1.0 - q)
    sol = _log_solve(problem, log_b=(log_c + math.log(RELAX / (1.0 + RELAX)) - math.log(mass)) / q)
    if not (q * _log_norm(sol.log_u, sigma.weights, q) - log_c <= math.log1p(1e-8)):
        return SolveResult(sol.u, "diverged", float("inf"), sol.iterations, float("inf"))
    if np.isinf(sol.u[np.isfinite(sol.log_u)]).any():
        raise DomainError("the supersolution u does not fit a float (its log does)")
    return SolveResult(sol.u, "supersolution" if sol.status == "solution" else "diverged",
                       sol.residual, sol.iterations, sol.lq_norm, (), sol.log_u)


def monotone_solution(problem: SublinearProblem, start) -> SolveResult:
    """The limit of the nonincreasing iteration ``u <- G(u^q sigma)`` from a
    supersolution.

    The start must satisfy ``start >= G(start^q sigma)`` on the support of
    ``sigma`` (checked to ``1e-12 max(1, start)``, one plain step through a
    ``Measure``'s checks).  The descent keeps the zeros of the start, so its
    limit is :func:`_log_solve`'s solution peeled from the points of
    ``supp sigma`` where the start is positive: status ``solution`` where it
    is positive on ``supp sigma``, ``degenerate`` with the vanishing points as
    the witness where it is not (no everywhere-positive solution lies below
    the start), ``supersolution`` at ``e^delta u`` where the solve does not
    settle.  ``u``, ``log_u``, ``delta``, ``residual`` and ``lq_norm`` read as
    :func:`solve_equation`'s; ``iterations`` counts the start's check too.  A start
    positive on all of ``supp sigma`` reads the problem's memoized plain solve.
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

    rhs = _apply(kernel, u0**q, sigma)
    slack = rhs[supp] - u0[supp]
    if (slack > 1e-12 * np.maximum(1.0, u0[supp])).any():
        raise DomainError("start is not a supersolution on the support of sigma")
    live = u0[supp] > 0
    sol = problem._solution if live.all() else _log_solve(problem, live)
    return replace(sol, iterations=1 + sol.iterations)


def solve_equation(problem: SublinearProblem) -> tuple[SolveResult, ConstantEstimate]:
    """The strong constant, and the solution by Newton steps in ``log u``
    (:func:`_log_solve`, memoized on the problem): ``diverged`` (``u = +inf``) where
    the constant is infinite, ``degenerate`` where ``u`` vanishes on the witness
    points of ``supp sigma``, else ``solution``.  A norm that does not fit a float
    reads ``+inf``; a ``u`` that does not, or a ``sigma`` of zero mass, raises
    :class:`DomainError`."""
    _require_sublinear(problem.q)
    est = strong_type_constant(problem, with_upper=False)
    if problem.sigma.total == 0:
        raise DomainError("sigma must have positive total mass")
    if not np.isfinite(est.lower):
        u = np.full(problem.kernel.size, np.inf)
        return SolveResult(u, "diverged", float("inf"), 0, float("inf"), (), u, float("inf")), est
    sol = problem._solution
    if np.isinf(sol.u[np.isfinite(sol.log_u)]).any():
        raise DomainError("the solution u does not fit a float (its log does)")
    return sol, est


def _log_sum_exp(z):
    """``log sum_j e^(z_ij)`` per row ``i`` (its maximum where that is infinite),
    and the row-stochastic ``e^(z_ij) / sum_j e^(z_ij)``.  Callers silence the
    ``invalid`` of ``inf - inf``."""
    m = z.max(axis=1, initial=-np.inf)
    E = np.exp(z - m[:, None])
    s = E.sum(axis=1)
    return np.where(np.isfinite(m), m + np.log(s), m), E / s[:, None]


def _log_solve(problem: SublinearProblem, live=None, log_b: float = -np.inf) -> SolveResult:
    """``u^q = b^q + G(u^q sigma)^q`` by Newton in ``v = log u``, the one fixed-point
    solver: the floor ``b = e^log_b`` is 0 for ``u = G(u^q sigma)`` and positive for
    :func:`gagliardo_supersolution`.  ``G`` must be finite from ``supp sigma`` to the
    points solved for.

    Without a floor ``u* > 0`` on the points ``P`` of ``supp sigma`` whose positive
    entries reach a cycle there, found by peeling from the zero pattern, never from
    underflow; ``live``, a mask on ``supp sigma``, peels from its points instead, so
    ``u`` is the limit of the descent from a supersolution that vanishes off them.
    A floor keeps ``P = supp sigma``.  On ``P`` the map
    ``f(v) = logaddexp(q log_b, q t) / q``, ``t = log T(e^v)`` for ``T(u) = G(u^q sigma)``
    by log-sum-exp, is convex; with its Jacobian ``q e^(q(t-f)) M``,
    ``M = diag(1/Tu) G diag(sigma u^q)`` row-stochastic (a zero row where
    ``t = -inf``), ``I - f'`` is an M-matrix, so Newton steps converge monotonically
    from any start (Ortega and Rheinboldt 1970, 13.3.4), here
    ``v = max(log T(1) / (1-q), log_b)``.  They stop at a step of at most
    ``SOLVE_TOL max(top, |v|) / (1-q)``, ``top`` the largest of 1 and the ``|log|``
    values the map reads (rounding moves ``v`` by ``eps`` of that over ``1-q``).  A
    step that is not finite, ``NEWTON_STEPS`` steps, or with a floor
    ``log T(u) > log u + 1e-9`` on ``P`` (the relaxed re-check; off ``P``,
    ``u = f(u) >= T(u)``) end the solve unsettled.  Without a floor ``T`` is order
    preserving and q-homogeneous, so a q-contraction in Thompson's metric (Krause
    1986; Lemmens and Nussbaum 2012): ``d(u, u*) <= d(u, Tu) / (1-q) = delta``, with
    ``2 |P| + 8`` ulps and 4 of the largest ``|log|`` in play, so
    ``e^delta u >= T(e^delta u)`` in float on ``supp sigma``.  Off it, ``u = f(u)``.
    Status ``degenerate`` where ``P`` misses points of ``supp sigma``, ``solution``
    once settled, else ``supersolution``, at ``e^delta u`` with ``delta`` doubled
    where there is no floor.
    """
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    G, w, supp = kernel.entries, sigma.weights, sigma.support
    live = np.ones(supp.size, dtype=bool) if live is None else live
    floored = log_b > -np.inf
    if not floored:  # a floor keeps every point positive
        edges = G[np.ix_(supp, supp)] > 0
        while (keep := live & edges[:, live].any(axis=1)).sum() < live.sum():
            live = keep
    P = supp[live]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_G, log_w = np.log(G[:, P]), np.log(w[P])
        L = log_G + log_w  # -inf at zero entries, +inf at infinite ones off supp sigma
        L_P, lg = L[P], log_G[P]
        top = max(1.0, abs(log_b) if floored else 0.0, np.abs(log_w).max(initial=0.0),
                  np.abs(lg[lg > -np.inf]).max(initial=0.0))

        def lift(t):  # f from t = log T(e^v): the floor joins T in q-th powers
            return np.logaddexp(q * log_b, q * t) / q if floored else t
        v = np.maximum(_log_sum_exp(L_P)[0] / (1.0 - q), log_b)
        eye, done, steps = np.eye(P.size), False, 0
        while not done and steps < NEWTON_STEPS:
            steps += 1
            t, M = _log_sum_exp(L_P + q * v)
            f = lift(t)
            if floored:
                M = np.where(np.isfinite(t)[:, None], np.exp(q * (t - f))[:, None] * M, 0.0)
            d = np.linalg.solve(eye - q * M, f - v)
            if not np.isfinite(d).all():
                break
            v = v + d
            done = bool((np.abs(d) * (1.0 - q) <= SOLVE_TOL * np.maximum(top, np.abs(v))).all())
        gap = _log_sum_exp(L_P + q * v)[0] - v  # log T(u) - log u on P
        residual = float(np.abs(gap).max(initial=0.0))
        scale = max(top, np.abs(v).max(initial=0.0))
        delta = float((residual + (2 * P.size + 8 + 4 * scale) * np.finfo(float).eps) / (1.0 - q))
        if floored:  # the relaxed supersolution's re-check, u >= T(u) in logs
            done = done and not (gap > 1e-9).any()
        elif not done:
            v, delta = v + delta, 2.0 * delta
        log_u = v if P.size == G.shape[0] else lift(_log_sum_exp(L + q * v)[0])
        log_u[P] = v
        u = np.exp(log_u)
    zeros = supp[~live]
    status = "degenerate" if zeros.size else "solution" if done else "supersolution"
    witness = tuple(kernel.space.points[i] for i in zeros)
    return SolveResult(u, status, residual, steps, _exp(_log_norm(log_u, w, q)), witness,
                       log_u, delta)


def _norm_route(wmp, a, problem: SublinearProblem, relaxed) -> tuple[float, float | None]:
    """The strong-type bound ``h (1-q)^{-1/q} |e^delta u|_q^{1-q}``, ``h = wmp.factor``, and
    ``|e^delta u|_q``, in logs, from a supersolution ``e^delta u`` (Quinn and Verbitsky), ``delta``
    0 where None.  It needs the weak maximum principle and a symmetric kernel (``a = 1``): the
    bound omits the quasi-symmetry constant, and on a kernel with ``1 < a < inf`` it can fall
    below the constant's lower end.  It reads the memoized plain solve or, where that is
    ``degenerate``, ``relaxed()``, called only then: the relaxed supersolution or None.
    ``(+inf, None)`` where a hypothesis fails or no supersolution is left."""
    if wmp.holds and a == 1.0:
        sol = problem._solution
        sol = relaxed() if sol.status == "degenerate" else sol
        if sol is not None and sol.status != "diverged":
            q = problem.q
            log_lq = _log_norm(sol.log_u, problem.sigma.weights, q) + (sol.delta or 0.0)
            return (_exp(math.log(wmp.factor) - math.log1p(-q) / q + (1.0 - q) * log_lq),
                    _exp(log_lq))
    return float("inf"), None


# ---------------------------------------------------------------------------
# strong-type constant: concave maximization over the simplex
# ---------------------------------------------------------------------------


ASCENT_TOL = 1e-12
ASCENT_CAP = 100_000


def _value_and_gradient(A, s, q, nu):
    """``F(nu) = s . (A nu)^q`` and its gradient, through ``P^q / P`` with the
    ``P^q`` of ``F`` (``P^(q-1)`` rounds ``q - 1``, and ``|ln P|`` magnifies
    that); a column that reaches a row with vanishing potential has gradient
    ``+inf``."""
    P = A @ nu
    Pq = P**q
    F = float(s @ Pq)
    pos = P > 0
    if pos.all():
        return F, q * ((s * Pq / P) @ A)
    g = np.zeros(A.shape[1])
    if pos.any():
        g += q * ((s[pos] * Pq[pos] / P[pos]) @ A[pos])
    reach = (A[~pos] > 0).any(axis=0)
    g[reach] = np.inf
    return F, g


def _certificate(F, g, q, m):
    # concavity and q-homogeneity: F(v) <= (1-q) F(nu) + max(grad) for any v,
    # so the Frank-Wolfe gap of nu is _certificate(F, g, q, m) - F.  Every term
    # of F and g is nonnegative, so m + n + 2 ulps cover their rounding on m
    # rows and n columns (Higham, ch. 3); a Python float, like F
    return ((1.0 - q) * F + float(g.max())) * (1.0 + (m + g.size + 2) * float(np.finfo(float).eps))


def _closed(F, cert):
    """The Frank-Wolfe gap ``cert - F`` meets the stop rule of the ascent,
    relative to ``F``, so free of the kernel's and sigma's scale."""
    return cert - F <= ASCENT_TOL * F


def _maximize_concave(A, s, q, j):
    """Maximize the concave, q-homogeneous ``F`` over the probability simplex,
    from the vertex ``j``.

    A start that leaves a row without potential first spreads its weight
    evenly onto every column of infinite gradient, which reaches every such
    row.  Each step takes the column ``k`` of largest gradient and the face
    ``T`` of the positive weights and ``k``.  It tries the Newton step on
    ``T``, ``[H_TT c; c' 0] [d; lam] = [-g_T; 0]`` for the Hessian ``H`` with
    the border ``c = max |H|``, cut where a weight reaches 0, and then the
    Frank-Wolfe step ``e_k - nu``.  Each is halved until, at the normalized
    point, every row keeps potential and ``F`` rises; a full Newton step may
    also keep ``F`` to rounding, since the last one moves it by about the gap
    squared.  The loop
    stops once the gap is at most ``ASCENT_TOL * F`` (:func:`_closed`), after
    ``ASCENT_CAP`` steps, or when neither step rises.  Returns ``F``, ``nu``
    and the certified upper bound on max F.
    """
    m, n = A.shape
    eps = np.finfo(float).eps
    x = np.eye(n)[j]
    F, g = _value_and_gradient(A, s, q, x)
    if np.isinf(g).any():
        x[np.isinf(g)] = 1.0
        x /= x.sum()
        F, g = _value_and_gradient(A, s, q, x)

    def rise(T, d, newton):  # x + t d on T for t = 1, 1/2, ..., cut at the boundary
        y, t = x.copy(), 1.0
        while t > eps:
            t, y[T] = _to_boundary(x[T], d, t)
            z = y / y.sum()  # sum(d) = 0 only to rounding
            P = A @ z
            if (P > 0).all():
                F_z = float(s @ P**q)
                if F_z > F or newton and t == 1.0 and F_z >= F * (1.0 - 4.0 * eps):
                    return z
            t /= 2.0
        return None

    cert = _certificate(F, g, q, m)
    for _ in range(ASCENT_CAP):
        if not np.isfinite(cert) or _closed(F, cert):
            break
        k = int(np.argmax(g))
        T = np.flatnonzero((x > 0) | (np.arange(n) == k))
        P = A @ x
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves d non-finite
            B = A[:, T] / P[:, None]  # H = q (q-1) A' diag(s P^(q-2)) A on T, from P^q
            H = q * (q - 1.0) * (B.T * (s * P**q)) @ B
            K = np.empty((T.size + 1, T.size + 1))
            K[:-1, :-1] = H
            K[-1, :-1] = K[:-1, -1] = np.abs(H).max()
            K[-1, -1] = 0.0
            try:
                d = np.linalg.solve(K, np.append(-g[T], 0.0))[:-1]
            except np.linalg.LinAlgError:
                d = np.full(T.size, np.nan)
        y = rise(T, d, True) if np.isfinite(d).all() else None
        if y is None:
            y = rise(T, (T == k) - x[T], False)
        if y is None:
            break
        x = y
        F, g = _value_and_gradient(A, s, q, x)
        cert = _certificate(F, g, q, m)
    return F, x, cert


def strong_type_constant(problem: SublinearProblem, budget: int = DEFAULT_BUDGET,
                         seed: int = 0, with_upper: bool = True) -> ConstantEstimate:
    """Least ``k`` with ``norm_q(G nu, sigma) <= k nu(total)``, both bounds.

    For ``q < 1`` the q-th power of the constant is the maximum of the
    concave, q-homogeneous function ``F(nu) = integral (G nu)^q dsigma``
    over the probability simplex.  A deterministic ascent finds the maximum
    from the best point mass by Newton and Frank-Wolfe steps
    (:func:`_maximize_concave`).  The Frank-Wolfe duality gap gives a
    rigorous upper bound on the constant (extras key ``certified_upper``;
    ``certificate_gap`` is the gap in ``F``).  Extras ``mode`` is ``exact``
    when that gap is at most ``ASCENT_TOL * F``, ``sampled`` when the ascent
    stopped first, at ``ASCENT_CAP`` steps or where no step rises, and
    ``heuristic`` when the certificate is infinite (a positive one whose ``1/q``
    power underflows reads the least positive float).  ``upper`` is 0 where ``F`` is,
    with no witness, else :func:`_norm_route`'s bound (extras ``norm_route_lq``, its norm),
    whose relaxed supersolution takes ``certified_upper``; where that is
    infinite there is none.  The route needs the weak maximum principle and a
    symmetric kernel; elsewhere ``upper`` is ``+inf``.  ``seed`` no longer changes
    the result, and ``budget``, the WMP walk's, is checked on every path.  For
    ``q >= 1`` the constant equals the largest ``L^q(sigma)`` norm of a kernel
    column, attained at a point mass.
    """
    _mode(1, budget)  # the one budget check, before any path
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    G = kernel.entries
    n = kernel.size
    supp = sigma.support

    if q >= 1.0:
        vals = np.array([lp_norm(G[:, y], sigma, q) for y in range(n)])
        y = int(np.argmax(vals))
        value = float(vals[y])
        wit = Measure.delta(kernel.space, kernel.space.points[y])
        return ConstantEstimate(value, value, wit, "column-norms",
                                {"mode": "exact", "certified_upper": value})

    inf_cols = np.flatnonzero(np.isinf(G[supp]).any(axis=0))
    if inf_cols.size:
        wit = Measure.delta(kernel.space, kernel.space.points[int(inf_cols[0])])
        return ConstantEstimate(float("inf"), float("inf"), wit, "infinite-entry",
                                {"mode": "exact", "certified_upper": float("inf")})

    A_full = G[supp]
    rows = A_full.any(axis=1)
    A = A_full[rows]
    s = sigma.weights[supp][rows]
    if A.shape[0] == 0:  # no row of G charges supp sigma, an empty one included
        return ConstantEstimate(0.0, 0.0, None, "concave-max",
                                {"mode": "exact", "certified_upper": 0.0})

    F, nu, cert = _maximize_concave(A, s, q, int(np.argmax((A**q).T @ s)))
    cert = max(cert, F)
    lower, cert_upper = _pow(F, 1.0 / q), _pow(cert, 1.0 / q)  # an infinite cert reads heuristic
    if math.isinf(lower) and math.isfinite(F):
        raise DomainError("the constant's scale F^(1/q) at the best measure found "
                          "does not fit a float")
    if cert_upper == 0.0 < cert:  # the power underflowed: the least positive float bounds it
        cert_upper = math.ulp(0.0)
    gap = cert - F
    mode = ("heuristic" if not np.isfinite(cert_upper)
            else "exact" if _closed(F, cert) else "sampled")
    extras: dict = {"mode": mode, "objective": F, "certified_upper": cert_upper,
                    "certificate_gap": gap}

    upper = float("inf")
    if F == 0.0:
        upper = 0.0
    elif with_upper:
        wr = wmp_constant(kernel, budget=budget)
        extras["wmp_constant"] = wr.constant
        extras["wmp_mode"] = wr.mode
        upper, lq = _norm_route(wr, check_quasisymmetric(kernel), problem, lambda: (
            gagliardo_supersolution(problem, cert_upper) if np.isfinite(cert_upper) else None))
        if np.isfinite(upper):
            extras["norm_route_lq"] = lq

    return ConstantEstimate(lower, upper, Measure(kernel.space, nu), "concave-max", extras)


# ---------------------------------------------------------------------------
# weak-type constant
# ---------------------------------------------------------------------------


PRUNE_RTOL = 1e-9  # cap0 values, certified or from the LP, are monotone in exact arithmetic only


class _SubsetSearch:
    """Depth-first branch and bound (Land and Doig) for the largest
    ``num(K) / den(K)`` over nonempty ``K`` in ``supp sigma``, for
    nondecreasing set functions ``num`` and ``den``.

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
    certified set below, one per ``cap0`` value at most, so the search's
    limit on subsets valued bounds it.  That bounds its memory, and keeps
    a repeated call's work equal: the benchmark's traced run calls each input
    again on the same objects and fails on changed operation counts.  ``cap1`` starts
    from the weights of the subset's parent in the search, the subset without
    its last point in ``order``, and skips the PSD test of each subset when
    the whole support block passes it (:attr:`psd`).  One :meth:`max_ratio`
    call memoizes ``num``, ``den`` and ``cap`` by subset, and
    :meth:`testing_ratio` each subset's potential, for that call only: the
    nodes' bounds read a set many times, and each is valued once.

    ``cap1`` is read off ``cap0``'s certificate where that is the active
    set's own answer, bit for bit.  Where :func:`capacity._cap0` took
    ``slackness`` on all of a set ``K``, the search keeps the certificate's
    ``lam``.  On a symmetric kernel, the only kind whose ``cap1`` is searched
    (:func:`wiener_cap1` and ``theorem_report``'s weak rows need one),
    ``G_KK lam = 1`` to ``SLACK_TOL`` with ``lam >= 0`` is a KKT point of the
    concave ``max 2 lam(K) - lam' G_KK lam``, so ``lam`` is optimal, and the
    one optimum where ``G_KK`` is positive definite.  The active set stops
    once no point's ``w`` exceeds ``1e-9``.  Had it stopped on a support
    ``P != K``, strong concavity would force an optimal weight ``lam_j <=
    2e-9 / lambda_min(G_KK)`` off ``P``, and interlacing on the unit-diagonal
    form gives ``lambda_min(G_KK) >= l min_K G_ii``, where ``l`` is the least
    eigenvalue of the support block's form, from the search's one
    :func:`capacity._exact_qp`.  So where ``|K| >= 2``, the support block is
    PSD and ``min lam * l * min_K G_ii > 4e-9`` (a factor 2 spared for
    rounding), the active set ends with the solve ``_equilibrium(G_KK)`` on
    all of ``K``, which the certificate's stacked solve gives bit for bit,
    and :func:`capacity._wiener_value` values those weights.  The active
    set's one other exit is its ``3k``-step cap, short of the optimum; the
    tests' fuzzed kernels never reach it on a certified set.  Every other
    set runs the active set from its parent's weights, and ``cap1`` never
    asks for a ``cap0``, so it adds no LP.
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
            if lam is not None and self.psd and lam[K].min() * self._floor * G[K, K].min() > 4e-9:
                self._caps[1][m] = _wiener_value(G[np.ix_(K, K)], lam[K]), lam
            else:
                last = next(x for x in reversed(self.order) if m >> x & 1)
                parent = self._caps[1].get(m & ~(1 << last), (None, None))[1]
                self._caps[1][m] = _wiener_cap1(self.kernel, K, parent, self.psd)[:2]
        return self._caps[1][m][0]

    @cached_property
    def _floor(self) -> float | None:
        """``l``, the least eigenvalue of the support block's unit-diagonal form
        where the block passes :func:`capacity._exact_qp`, else None."""
        return _exact_qp(self.kernel.entries[np.ix_(self.supp, self.supp)], least=True)

    @property
    def psd(self) -> bool:
        """The support block passes :func:`capacity._exact_qp`, so every subset does."""
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


def _level_set_constant(G: np.ndarray, sigma: Measure, qprime: float) -> float:
    """sup over the columns of ``G`` and their superlevel sets E of
    integral_E column dsigma over sigma(E)^(1/qprime), read off each column's
    rearrangement (:func:`~potbench.core._rearranged`); 0 where sigma vanishes."""
    vals, masses, last = _rearranged(G, sigma.weights)
    ends = last & (vals > 0)
    mass = np.cumsum(masses, axis=0)[ends]
    return float((np.cumsum(vals * masses, axis=0)[ends] / mass ** (1.0 / qprime)).max(initial=0.0))


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
    short is ``sampled``, bracketed by the best subset's ratio and the largest
    bound of an open branch.  Extras name the best set with its ``cap0`` and
    ``content`` values, and for ``q > 1`` carry the dual level-set constant,
    an upper bound that also caps ``upper``.  A kernel column of infinite weak
    norm makes the constant infinite.
    :func:`theorem_report` reads the same search's value and mode only.
    """
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    search = _SubsetSearch(kernel, sigma, budget)
    value, best, mode, upper = search.capacity_ratio(q)
    extras = {"mode": mode}
    if q > 1.0 and np.isfinite(value):
        qprime = q / (q - 1.0)
        level_set = _level_set_constant(kernel.entries, sigma, qprime)
        extras["level_set_constant"] = level_set
        upper = max(value, min(upper, level_set))
    witness = None
    if best is not None:
        best_idx, best_mask, _ = search.subset(best)
        extras["best_set"] = tuple(kernel.space.points[i] for i in best_idx)
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
                        h: float) -> QuotientBound:
    """Weak ``L^1`` norm of ``G nu / G omega`` against ``h * nu(total)``, with
    ``h`` the kernel's :func:`~potbench.principles.wmp_constant` or an upper
    end of it (the ``analyze`` task passes its report's ``factor``).

    Indeterminate quotients (0/0, inf/inf) count as 0; a positive potential
    of ``nu`` over a vanishing potential of ``omega`` counts as ``+inf``.
    The bound follows ``0 * inf = 0``: an infinite ``h`` bounds a zero ``nu``
    by 0.  It is a theorem for quasi-symmetric kernels satisfying the weak
    maximum principle with ``omega`` charging no null set; the exact weak
    norm is returned regardless so the comparison itself is the check.
    """
    quot = _ratio_max(potential(kernel, nu), potential(kernel, omega))
    value = weak_lorentz_norm(quot, omega, 1.0)
    return QuotientBound(value, float(_weighted_terms(h, nu.total)), h)


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
    """integral (G sigma)^s dsigma for a finite ``s > 0``, ``+inf`` only past the float range."""
    if not (s > 0 and np.isfinite(s)):
        raise DomainError("energy exponents must be finite and positive")
    return _power_integral(potential(problem.kernel, problem.sigma), problem.sigma.weights, s)[0]


def energy_criteria(problem: SublinearProblem, u=None) -> EnergyReport:
    """Energy norms of ``G sigma`` and, given a (super)solution ``u``, the
    inequality of its regime, split at ``GOLDEN_THRESHOLD``, for ``0 < q < 1``.

    ``norms`` holds the ``L^s`` norms of ``G sigma`` at ``s = q/(1-q)`` and
    ``1 + q`` and its Lorentz ``L^{s,q}`` and weak ``L^s`` norms at
    ``s = q/(1-q)``.  For ``q <= GOLDEN_THRESHOLD`` the check is
    ``integral (G sigma)^{q/(1-q)} dsigma <= a^{q^2/(1-q)} integral u^q dsigma``;
    above it, ``integral (G sigma)^{1+q} dsigma <= a (integral u^q dsigma)^e
    sigma(total)^{1-e}`` with ``e = (1-q^2)/q``; ``a`` is the quasi-symmetry
    constant (:func:`~potbench.core.check_quasisymmetric`).  ``holds`` allows
    the relative slack ``ENERGY_RTOL``, and ``rhs`` follows ``0 * inf = 0``: an
    infinite ``a`` against a zero ``integral u^q dsigma`` gives 0.  Each integral and norm
    reads ``+inf`` only past the float range; ``u >= 0`` lives on the space, ``+inf`` allowed.
    """
    _require_sublinear(problem.q)
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    s_small = q / (1.0 - q)
    pot, w = potential(kernel, sigma), sigma.weights
    (e_small, lp_small), (e_large, lp_large) = (_power_integral(pot, w, s)
                                                for s in (s_small, 1.0 + q))
    norms = {
        "lp_small": lp_small,
        "lp_one_plus_q": lp_large,
        "lorentz_small": lorentz_norm(pot, sigma, s_small, q),
        "weak_small": weak_lorentz_norm(pot, sigma, s_small),
    }
    a = check_quasisymmetric(kernel)
    check52 = check53 = None
    if u is not None:
        uq_mass = _power_integral(_clean_array(u, (kernel.size,), "u", allow_inf=True), w, q)[0]
        if q <= GOLDEN_THRESHOLD:
            lhs = e_small
            c = a ** (q * q / (1.0 - q))
            rhs = float(_weighted_terms(c, uq_mass))
            check52 = {"lhs": lhs, "rhs": rhs, "constant": c,
                       "holds": bool(lhs <= rhs * (1.0 + ENERGY_RTOL))}
        else:
            s, lhs = 1.0 + q, e_large
            c = a
            expo = s * (1.0 - q) / q
            rhs = float(_weighted_terms(c, uq_mass**expo)) * sigma.total ** (1.0 - expo)
            check53 = {"lhs": lhs, "rhs": rhs, "constant": c, "s": s,
                       "holds": bool(lhs <= rhs * (1.0 + ENERGY_RTOL))}
    return EnergyReport(s_small, norms, check52, check53)


def energy_sweep(problem: SublinearProblem, s_values) -> tuple:
    """Rows of (s, integral (G sigma)^s dsigma, L^s norm) for plotting."""
    pot = potential(problem.kernel, problem.sigma)
    rows = []
    for s in s_values:
        if not (s > 0 and np.isfinite(s)):
            raise DomainError("sweep exponents must be finite and positive")
        energy, norm = _power_integral(pot, problem.sigma.weights, s)
        rows.append({"s": float(s), "energy": energy, "norm": norm})
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
    with np.errstate(divide="ignore", over="ignore"):
        powed = F**expo
    weights = _weighted_terms(powed, sigma.weights)
    if not np.isfinite(weights).all():
        raise DomainError("F^(1-1/q) sigma is not a finite measure")
    vals = adjoint_potential(kernel, Measure(kernel.space, weights))
    return float(vals.max())


def maurey_candidate(problem: SublinearProblem, witness: Measure) -> np.ndarray | None:
    """Dual function recovered from a strong-constant witness measure.

    Takes ``F0 = (G nu)^q`` (nudged to be positive on the support of sigma) and rescales it so
    the verification supremum is exactly one; the rescaled ``F`` then bounds the small-exponent
    energy integral by ``a^(q^2/(1-q)) ||F||_{L^1(sigma)}``.  Returns None when the witness
    leaves an infinite or identically-zero potential on the support, or when ``F`` or
    ``F^(1-1/q) sigma`` reads ``+inf`` past the float range (``F`` may underflow to 0).
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
    with np.errstate(divide="ignore", over="ignore"):  # F^(1-1/q) reads +inf where F = 0
        F = F0 * _pow(m0, q / (1.0 - q))
        dual = F[supp] ** (1.0 - 1.0 / q) * problem.sigma.weights[supp]
    return F if np.isfinite(F).all() and np.isfinite(dual).all() else None


# ---------------------------------------------------------------------------
# testing condition and operator norms
# ---------------------------------------------------------------------------


def testing_condition_11(kernel: Kernel, sigma: Measure,
                         budget: int = DEFAULT_BUDGET) -> ConstantEstimate:
    """Least ``c`` with double-integral of G over K x K at most ``c sigma(K)``.

    The subsets ``K`` are searched, and ``budget`` and the bracket read, as
    in :func:`weak_type_constant`; extras name the best set.  On quasimetric
    kernels the same ratio maximized over the balls of ``d = 1/G`` (all
    centers, all realized radii, strict inequality) is reported in extras.
    :func:`theorem_report` reads the same search's value and mode only.
    """
    search = _SubsetSearch(kernel, sigma, budget)
    qm = _triangle_constant(kernel)
    value, best, mode, upper = search.testing_ratio()
    extras: dict = {"mode": mode}
    witness = None
    if best is not None:
        best_idx, best_mask, _ = search.subset(best)
        witness = sigma.restrict(best_mask)
        extras["best_set"] = tuple(kernel.space.points[i] for i in best_idx)

    if qm.is_quasimetric:
        d = _inverse_distance(kernel.entries)
        w, e = _normalized(sigma.weights)  # as in the subset search
        ball_best, ball_info = 0.0, None
        for x in range(kernel.size):
            for r in _distinct(d[x]):
                mask = d[x] < r
                mass = float(w[mask].sum())
                if mass > 0:
                    ratio = _energy(kernel.entries, np.where(mask, w, 0.0)) / mass
                    if ratio > ball_best:
                        ball_best, ball_info = ratio, (kernel.space.points[x], float(r))
        extras["kappa"] = qm.kappa
        extras["ball_constant"] = math.ldexp(ball_best, e)
        extras["ball_witness"] = ball_info
    return ConstantEstimate(value, upper, witness, "subset-enumeration", extras)


def lp_operator_norm(kernel: Kernel, sigma: Measure, p: float) -> float:
    """Norm of ``f -> G(f sigma)`` on ``L^p(sigma)`` by power iteration.

    Exact at machine precision for ``p = 2`` on symmetric kernels (the
    iteration converges to the spectral norm of the weighted matrix); a
    certified-from-below estimate for other ``p``.  It iterates on the weighted
    matrix over the power of two of its largest entry and stops relative to
    the norm, so ``G 2^k`` or ``sigma 2^k`` scales the result by ``2^k`` exactly.
    """
    if not (1.0 < p < float("inf")):
        raise DomainError("p must lie in (1, inf)")
    G = kernel.entries
    w = sigma.weights
    if (np.isinf(G) & np.outer(w > 0, w > 0)).any():
        return float("inf")
    lhs = w ** (1.0 / p)
    rhs = w ** (1.0 - 1.0 / p)
    A = _weighted_terms(_weighted_terms(lhs[:, None], G), rhs[None, :])
    A, e = _normalized(A)
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
        if abs(ny - est) <= CONV_TOL * ny:
            est = ny
            break
        est = ny
    return math.ldexp(est, e)


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


def _verdict(claim, needs, test):
    """The row ``claim``: NOT-APPLICABLE with the reason of the first ``(holds, reason)`` in
    ``needs`` that fails, else CONFIRMED or VIOLATED from ``test() -> (ok, details)``."""
    for holds, reason in needs:
        if not holds:
            return VerdictRow(claim, "NOT-APPLICABLE", {"reason": reason})
    ok, details = test()
    return VerdictRow(claim, "CONFIRMED" if ok else "VIOLATED", details)


def _at_most(lhs, rhs, logs=False) -> bool:
    """``lhs <= rhs`` up to the relative slack ``REPORT_RTOL``, both sides logs where ``logs``:
    the one comparison of :func:`theorem_report`'s inequality rows."""
    return lhs <= (rhs + math.log1p(REPORT_RTOL) if logs else rhs * (1.0 + REPORT_RTOL))


def theorem_report(problem: SublinearProblem, budget: int = DEFAULT_BUDGET,
                   seed: int = 0) -> TheoremReport:
    """Run the whole pipeline on one instance and cross-check every claim.

    One rule, :func:`_verdict`, builds each row: NOT-APPLICABLE with the reason of the
    first of its ``needs`` that fails here, else CONFIRMED or VIOLATED with numeric
    details; :func:`_at_most` decides every inequality.  The solution row needs
    quasi-symmetry (finite ``a``) before non-degeneracy, which
    :func:`check_nondegenerate` reads from columns; the norm-route and Lorentz rows
    need the WMP and a symmetric kernel (``a = 1``), as :func:`_norm_route` does.

    ``budget`` sets the mode of the WMP search and bounds five maxima of one subset search,
    as in :func:`weak_type_constant`: the ``cap0`` and ``cap1`` routes at ``q``, the testing
    ratio, and the two routes at 1.  They share one memo of ``cap0`` and ``cap1``, and the
    rows compare their lower ends; the best sets, ``content`` and the quasimetric balls of
    the standalone functions are not computed here.  ``constants["modes"]`` holds the mode of
    the WMP search, the strong constant and each subset search that ran.  The descent from
    the (positive) relaxed supersolution is :func:`_log_solve`'s; the norm-route row needs
    it and reads :func:`_norm_route`'s bound, the strong constant's ``upper``.  The
    solution-norm row compares ``log |u|_q`` with ``log kappa / (1-q)``; a bound above the
    float range reads ``+inf`` in its details.  The energy-necessity row reads NOT-APPLICABLE
    where its constant or left side is past the float range, and the weak (1, 1) chain's
    factor ``8 h^4`` reads ``+inf`` past it.  ``seed`` no longer changes the result.
    """
    _require_sublinear(problem.q)
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q

    a = check_quasisymmetric(kernel)
    wmp = wmp_constant(kernel, budget=budget)
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
    kappa_cert = strong.extras["certified_upper"]
    modes = {"wmp": wmp.mode, "strong": strong.extras["mode"]}
    constants = {"strong_lower": strong.lower, "strong_certified": kappa_cert, "modes": modes}

    finite = bool(np.isfinite(kappa_cert))
    sup = gagliardo_supersolution(problem, kappa_cert) if finite and sigma.total > 0 else None
    rows = [_verdict("strong_to_supersolution", [(sigma.total > 0, "sigma vanishes"),
                                                 (finite, "strong-type constant is infinite")],
                     lambda: (sup.status == "supersolution", {"kappa": kappa_cert,
                              "slack": sup.residual, "lq_norm": sup.lq_norm}))]
    # the descent from the supersolution ends at the log solve
    sol = problem._solution if sup is not None and sup.status == "supersolution" else None
    no_sup = (sol is not None, "no supersolution available")

    rows.append(_verdict("supersolution_to_solution",
                         [no_sup, (np.isfinite(a), "needs a quasi-symmetric kernel"),
                          (nd.nondegenerate, "kernel is degenerate")],
                         lambda: (sol.status == "solution", {"status": sol.status,
                                  "residual": sol.residual, "lq_norm": sol.lq_norm})))

    upper, lq = _norm_route(wmp, a, problem, lambda: sup) if sol is not None else (None, None)
    if lq is not None:
        constants["norm_route_upper"] = upper
    rows.append(_verdict("supersolution_to_strong",
                         [no_sup, (lq is not None,
                                   "needs the weak maximum principle and a symmetric kernel")],
                         lambda: (_at_most(strong.lower, upper),
                                  {"lower": strong.lower, "upper": upper})))

    bound = _pow(kappa_cert, 1.0 / (1.0 - q))  # details only: the comparison is in logs
    rows.append(_verdict("solution_norm_bound",
                         [(sol is not None and sol.status == "solution" and finite,
                           "no solution with a finite constant")],
                         lambda: (_at_most(_log_norm(sol.log_u, sigma.weights, q),
                                           math.log(kappa_cert) / (1.0 - q), logs=True),
                                  {"lq_norm": sol.lq_norm, "bound": bound})))

    pot = potential(kernel, sigma)
    objective = strong.extras.get("objective", strong.lower)  # F, whose F^(1/q) may underflow
    dual = finite and np.isfinite(a) and strong.witness is not None and objective > 0
    F = maurey_candidate(problem, strong.witness) if dual else None
    lhs = _power_integral(pot, sigma.weights, q / (1.0 - q))[0]
    c = _pow(a, q * q / (1.0 - q))

    def energy():
        constants["maurey_l1"] = l1 = integrate(F, sigma)
        return _at_most(lhs, c * l1), {"lhs": lhs, "rhs": c * l1, "constant": c,
                                       "verification": maurey_verify(problem, F)}

    rows.append(_verdict("energy_necessity",
                         [(objective != 0, "potential vanishes on sigma"),
                          (dual, "needs a finite constant and quasi-symmetry"),
                          (max(lhs, c) < float("inf"), "the energy bound does not fit a float"),
                          (F is not None, "dual candidate unavailable")], energy))

    lorentz = lorentz_norm(pot, sigma, q / (1.0 - q), q)
    constants["lorentz_small"] = lorentz
    rows.append(_verdict("lorentz_sufficiency",
                         [(wmp.holds and a == 1.0 and nd.nondegenerate and np.isfinite(lorentz),
                           "needs WMP, a symmetric kernel, non-degeneracy and a finite norm")],
                         lambda: (_at_most(strong.lower, rhs := wmp.factor * lorentz),
                                  {"lower": strong.lower, "bound": rhs})))

    weak = wmp.holds and kernel.is_symmetric
    search = _SubsetSearch(kernel, sigma, budget) if weak else None

    def capacity_route():
        c_cap0, _, modes["weak_cap0"], _ = search.capacity_ratio(q)
        c_cap1, _, modes["weak_cap1"], _ = search.capacity_ratio(q, cap1=True)
        constants.update(weak_cap0=c_cap0, weak_cap1=c_cap1)
        return (_at_most(c_cap1, c_cap0) and _at_most(c_cap0, wmp.factor * c_cap1),
                {"from_cap0": c_cap0, "from_cap1": c_cap1, "wmp": wmp.constant})

    def testing_chain():
        testing, _, modes["testing"], _ = search.testing_ratio()
        t22 = lp_operator_norm(kernel, sigma, 2.0)
        weak11, _, modes["weak_1_1"], _ = search.capacity_ratio(1.0)
        c_cap1_11, _, modes["weak_1_1_cap1"], _ = search.capacity_ratio(1.0, cap1=True)
        factor = 8.0 * _pow(wmp.factor, 4.0)
        vals = [weak11, testing, t22]
        known = [np.isfinite(v) for v in vals]
        lo, hi = min(vals), max(vals)
        ok = (_at_most(c_cap1_11, testing) and _at_most(testing, t22)
              and (lo == 0.0 if hi == 0.0 else _at_most(hi, factor * lo))
              if all(known) else not any(known))
        return ok, {"weak_1_1": weak11, "testing": testing, "p2_norm": t22,
                    "from_cap1": c_cap1_11, "factor": factor}

    rows.append(_verdict("weak_capacity_route",
                         [(weak, "needs q <= 1, a symmetric kernel and WMP")], capacity_route))
    rows.append(_verdict("weak11_testing_chain",
                         [(weak, "needs a symmetric WMP kernel")], testing_chain))
    rows.append(_local_route_row(problem))
    rows.append(_verdict("degenerate_dichotomy",
                         [(sol is not None and np.isfinite(a),
                           "needs a quasi-symmetric kernel and a pipeline limit")],
                         lambda: (sol.status == "solution", {"status": sol.status})
                         if nd.nondegenerate else (sol.status == "degenerate", {
                             "status": sol.status, "witness": sol.witness,
                             "conclusion": "no positive solution exists"})))
    return TheoremReport(hypotheses, tuple(rows), constants)


def _local_route_row(problem):
    """The local_solution_route row: the plain solve of the kernel modified at the pole, the
    heaviest point of ``sigma``, read back on the retained points.  Equal sides read residual 0,
    ``+inf`` against ``+inf`` at a point off ``supp sigma`` included."""
    kernel, sigma, q = problem.kernel, problem.sigma, problem.q
    claim, supp = "local_solution_route", sigma.support
    if supp.size == 0:
        return _verdict(claim, [(False, "sigma vanishes")], None)
    pole = kernel.space.points[int(supp[np.argmax(sigma.weights[supp])])]
    g = modifier(kernel, pole)
    if (g[supp] == 0).any():
        return _verdict(claim, [(False, "modifier vanishes on sigma-mass")], None)
    mod = modify_kernel(kernel, g)
    sub_sigma = Measure(mod.kernel.space, (g ** (1.0 + q) * sigma.weights)[mod.retained])
    if sub_sigma.total == 0:  # g > 0 on supp sigma: only underflow leaves no mass
        return _verdict(claim, [(False, "modified sigma underflows the float range")], None)
    sub_problem = SublinearProblem(mod.kernel, sub_sigma, q)
    sub_strong = strong_type_constant(sub_problem, with_upper=False)

    def test():
        sol = sub_problem._solution  # in logs: the constant itself may underflow to 0
        if sol.status != "solution":
            return False, {"modified_status": sol.status}
        u_loc = np.zeros(kernel.size)
        u_loc[mod.retained] = g[mod.retained] * sol.u
        u, rhs = u_loc[mod.retained], _apply(kernel, u_loc**q, sigma)[mod.retained]
        res = np.abs(np.subtract(u, rhs, out=np.zeros_like(u), where=u != rhs))
        scale = np.maximum(1.0, u)
        return bool((res <= REPORT_RTOL * scale).all()), {
            "pole": pole, "residual": float((res / scale).max()),
            "modified_constant": sub_strong.lower}

    return _verdict(claim, [(np.isfinite(sub_strong.extras["certified_upper"]),
                             "modified constant is infinite")], test)
