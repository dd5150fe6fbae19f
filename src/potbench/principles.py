"""Maximum-principle constants and quasimetric structure of a kernel.

The weak constant is the smallest ``h`` such that any potential of a measure
supported on a set ``S`` that stays ``<= 1`` on ``S`` stays ``<= h``
everywhere.  The complete constant allows a majorant ``G nu + c`` on ``S``
in place of 1.  Both are maxima over pairs ``(S, x)``, ``x`` outside ``S``:
over every ``S`` when ``n * 2**n`` fits the budget, otherwise over some.

Neither solves an LP.  An optimal vertex of the pair LP ``LP(S, x)`` has a
support ``T`` inside ``S``; ``LP(T, x) >= LP(S, x)``, as fewer rows only
raise it, and at a full-support vertex every row on ``T`` is tight.  For the
weak constant the basis is ``G_TT``, so ``G_TT z = 1``.  For the complete
one it is ``G_TT`` and one of ``c`` or a single ``nu_k``, so ``G_TT z = w``
on ``T`` for a right-hand side ``w``, 1 or a column ``G(., k)`` finite on
``T`` and at ``x``, and the pair is worth ``G(x, T) z / w(x)``.  So ``h`` is
the larger of 1 and the best such value over ``z >= 0`` and finite,
nonsingular ``G_TT``.  It is ``+inf`` where ``w(x) = 0 < G(x, T) z`` (a
ray), or by a closed form that runs first: some ``j`` with a finite
``G(j, j)`` has ``x != j`` with ``G(x, j) > 0`` and ``G(j, j) = 0`` or
``G(x, j) = +inf``, or, for the complete constant, a column ``k != j`` with
``G(x, k) = 0 < G(j, k) < +inf`` and ``G(j, j) > 0`` (the ray of the
singleton ``{j}`` through ``w = G(., k)``).  The complete constant's own column ``G(., t)``, ``t``
in ``T``, solves to ``z = e_t`` and is worth exactly 1, so it is skipped.

There are three routes, and the first that applies answers.  A potential
matrix, one whose inverse is a row diagonally dominant M-matrix, satisfies
the complete principle, so both constants are 1 (Choquet and Deny 1956;
Dellacherie, Martinez and San Martin, *Inverse M-matrices and Ultrametric
Matrices*, 2014, ch. 2).  :func:`_potential_certificate` decides that at any
``n`` in O(n^3), with a rigorous bound on rounding; it reads ``exact`` with
no witness and no pair.  Otherwise exact mode walks every support
(``capacity._walk``), and sampled mode grows supports greedily from every
singleton (``capacity._grown``, which also serves ``wiener_cap1`` on large
non-PSD sets); each batch or step is one stacked solve
(``capacity._stacked_solves``), with ``n + 1`` right-hand sides for the
complete constant, in chunks of ``BATCH // (n + 1)`` supports.
Any such ``z`` is a feasible point of its pair LP, so any supports give a
lower bound, free of the kernel's scale.  The winner is the first maximum in
``(mask, x)`` order, as in a walk one support at a time.

Each report carries ``upper``: the certificate's bound on a potential
matrix, the constant itself after an exact walk, and ``+inf`` after a
sampled growth, which bounds nothing from above.  A certified ``G`` lies
within ``d`` of a potential matrix, not on one, so its ``h`` is only known
to lie in ``[1, upper]``: a bound that ``h`` multiplies reads the report's
``factor``, ``upper`` where it is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import capacity
from .capacity import _first_best, _grown, _stacked_equilibria, _stacked_solves, _walk
from .core import (
    DomainError,
    Kernel,
    Measure,
    _inverse_distance,
    _ratio_max,
    _weighted_terms,
)

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
PTOLEMY_LIMIT = 30
POTENTIAL_TOL = 1e-8  # the inverse's snap, relative to its row, and the largest d accepted


@dataclass(frozen=True)
class WmpReport:
    # pairs_checked: the pairs (T, x) valued, or the exact walk's up to its first +inf one
    constant: float
    holds: bool
    witness: tuple | None  # (support points, evaluation point, Measure)
    mode: str  # "exact" | "sampled"
    pairs_checked: int
    upper: float  # at least the constant: the certificate's bound, the exact walk's value, or +inf

    @property
    def factor(self) -> float:
        """``h`` where it multiplies an upper bound: ``upper`` where it is
        finite, else the sampled constant."""
        return self.upper if np.isfinite(self.upper) else self.constant


class CompleteMpReport(WmpReport):
    """A :class:`WmpReport` whose witness is ``(support points, evaluation point, mu, nu, c)``."""


def _mode(count: int, budget: int) -> str:
    """``exact`` when ``count`` pairs or subsets fit the budget, else ``sampled``."""
    if budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")
    return "exact" if count <= budget else "sampled"


def _place(n: int, T, x: int) -> int:
    """The count of the pair ``(T, x)`` in the exact stream: the supports in
    rising bit mask, each against the points outside it in rising order."""
    m = sum(1 << int(t) for t in T)
    ones = sum((m >> (b + 1) << b) + max(0, m % (2 << b) - (1 << b)) for b in range(n))
    return n * (m - 1) - ones + x + 1 - sum(int(t) < x for t in T)  # ones: set bits below m


def _measure_on(kernel: Kernel, cols, w) -> Measure:
    weights = np.zeros(kernel.size)
    weights[cols] = np.clip(w, 0.0, None)
    return Measure(kernel.space, weights)


def _potential_certificate(G: np.ndarray) -> float | None:
    """``d`` with ``|M^{-1} - G| <= d G`` entrywise for a row diagonally
    dominant M-matrix ``M``, or None.  ``M^{-1}`` satisfies the complete
    principle with constant 1, so ``G``'s constants are at most ``(1 + d)/(1 -
    d)``, squared for the complete one: ``G nu <= 1`` on ``S`` gives ``M^{-1}
    nu <= 1 + d`` on ``S``, so everywhere, so ``G nu <= (1 + d)/(1 - d)``.

    Declines on a zero, ``+inf`` or singular ``G``, and on an inverse with a
    row whose absolute sum passes the float range.  ``M`` is the computed
    inverse with its positive off-diagonal entries clipped to 0 and its
    diagonal raised until each row sum is ``>= 0`` with rounding, both by at
    most ``POTENTIAL_TOL`` of the row's absolute sum.  ``d`` bounds the
    residual ``R = I - M G``, computed with a ``gamma (I + |M| G)`` rounding
    allowance (Higham 2002, ch. 3): where ``r = ||R||_inf < 1/2``, ``M^{-1} =
    G (I - R)^{-1}``, so ``|M^{-1} - G| <= G |R| (I - |R|)^{-1} <= G |R| +
    r^2/(1 - r) G 1 1'``, as no entry of ``|R| (I - |R|)^{-1}`` exceeds ``r/(1 -
    r)``.  It is read relative to ``G``, doubled for the rounding of the bound
    itself, and accepted up to ``POTENTIAL_TOL``.  No step depends on the
    kernel's scale."""
    n = G.shape[0]
    if not (np.isfinite(G).all() and (G > 0).all()):
        return None
    try:
        inv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore"):  # a row past the float range declines
        a = np.abs(inv).sum(axis=1)
    off, reach = ~np.eye(n, dtype=bool), POTENTIAL_TOL * a
    if not (np.isfinite(a).all() and (inv <= np.where(off, reach[:, None], np.inf)).all()):
        return None
    M = np.where(off & (inv > 0), 0.0, inv)
    u = (n + 2) * np.finfo(float).eps / 2.0
    gamma = u / (1.0 - u)  # bounds the rounding of a sum or product of n + 2 terms
    lift = np.maximum(0.0, 2.0 * gamma * a - M.sum(axis=1))
    if (lift > reach).any():
        return None
    M[np.diag_indices(n)] += lift
    if not (M.sum(axis=1) >= gamma * np.abs(M).sum(axis=1)).all():
        return None
    eye = np.eye(n)
    R = np.abs(eye - M @ G) + gamma * (eye + np.abs(M) @ G)
    r = R.sum(axis=1).max()
    if not r < 0.5:
        return None
    d = 2.0 * float(((G @ R + r * r / (1.0 - r) * G.sum(axis=1)[:, None]) / G).max())
    return d if d <= POTENTIAL_TOL else None


def _search(G: np.ndarray, budget: int, value, width: int, rays=False, power=1):
    """``(mode, h, T, Z, x, pairs_checked, upper)`` of a maximum-principle
    constant.  A potential matrix reads ``h = 1``, with no support and no
    pair, and ``upper = ((1 + d)/(1 - d))**power`` from its
    :func:`_potential_certificate`; ``d`` is about ``4 gamma`` or more, above
    the rounding of ``upper``.  Otherwise ``h`` is the first maximum
    above 1 of the pairs ``value`` scores, over every support or the grown
    ones, with the row ``Z`` of the winning support.
    The closed-form ``+inf`` pair ``({j}, x)`` (with ``Z`` None), the first
    in ``(j, x)`` order of the module's rule or of ``rays[x, j]`` (the
    singleton rays), runs first: it ends a sampled search, and in the exact
    walk only a ray, which needs a right-hand side other than 1 (``width >
    1``), on a support of the points before ``j`` can come earlier.  The
    walk's batches and the growth's chunks hold ``BATCH // width`` supports."""
    n, d = G.shape[0], np.diag(G)
    mode, pairs, size = _mode(n * (1 << n), budget), [], max(1, capacity.BATCH // width)
    if (bound := _potential_certificate(G)) is not None:
        return "exact", 1.0, None, None, None, 0, ((1.0 + bound) / (1.0 - bound)) ** power
    hot = np.isfinite(d) & ~np.eye(n, dtype=bool) & (np.isinf(G) | ((d == 0) & (G > 0))) | rays
    j, x = (int(i) for i in next(zip(*np.nonzero(hot.T)), (n, -1)))  # j = n: no such pair
    if mode == "exact":
        batches = _walk(j if j == n or width > 1 else 0, value, size)
    else:
        batches = _grown(G, value, pairs, size) if j == n else ()
    best, T, Z, y = _first_best(batches, 1.0)
    if j < n and best < np.inf:
        best, T, Z, y = np.inf, np.array([j]), None, x
    if mode == "sampled" and j == n:
        checked = sum(pairs)
    elif np.isinf(best):
        checked = _place(n, T, y)
    else:
        checked = n * ((1 << (n - 1)) - 1)
    return mode, best, T, Z, y, checked, best if mode == "exact" else np.inf


def wmp_constant(kernel: Kernel, budget: int = DEFAULT_BUDGET) -> WmpReport:
    """Smallest ``h`` with: ``G nu <= 1`` on ``supp nu`` implies ``G nu <= h``.

    A potential matrix reads 1, ``exact``, with no witness and ``upper =
    (1 + d)/(1 - d)`` from :func:`_potential_certificate`, at any size; the
    true ``h`` lies in ``[1, upper]``.  Otherwise the walk or the growth of
    the module docstring runs, and ``upper`` is the constant when it is
    ``exact`` and ``+inf`` when sampled.
    """
    G = kernel.entries

    def value(T):  # the equilibria and their potentials G[:, t] z, -inf on t
        keep, Z = _stacked_equilibria(G, T)
        V = np.matmul(G[:, T[keep]].transpose(1, 0, 2), Z[..., None])[..., 0]
        np.put_along_axis(V, T[keep], -np.inf, axis=1)
        return keep, Z, V

    mode, best, T, z, x, checked, upper = _search(G, budget, value, 1)
    witness = None
    if T is not None:
        points = kernel.space.points
        witness = (tuple(points[i] for i in T), points[x],
                   _measure_on(kernel, T, np.ones(1) if z is None else z))
    return WmpReport(best, bool(np.isfinite(best)), witness, mode, checked, upper)


def _complete_ratios(G: np.ndarray, W, T, Z):
    """``G(x, t) z / w(x)`` of the supports ``t``, rows of ``T``, with the
    solutions ``Z`` (NaN where there is none) of the right-hand sides ``w``,
    the columns of ``W``, indexed ``(support, x, w)``: ``+inf`` where ``w(x)
    = 0`` and ``G(x, t) z`` is above ``1e-10 max G(x, t) max z`` (a ray; less
    is rounding), and ``-inf`` where there is no ``z`` or ``w(x)`` is not
    finite, for ``x`` in ``t``, and for ``t``'s own columns, worth 1."""
    GT = G[:, T].transpose(1, 0, 2)  # G(x, t)
    P = np.matmul(GT, Z)
    W = W[None]
    R = np.divide(P, W, out=np.full(P.shape, -np.inf),
                  where=np.isfinite(P) & np.isfinite(W) & (W > 0))
    R[(W == 0) & (P > 1e-10 * GT.max(axis=2)[..., None] * Z.max(axis=1)[:, None])] = np.inf
    rows = np.arange(len(T))[:, None]
    R[rows, T] = -np.inf
    R[rows, :, T + 1] = -np.inf
    return R


def complete_mp_constant(kernel: Kernel, budget: int = DEFAULT_BUDGET) -> CompleteMpReport:
    """Smallest ``h`` for the principle with an additive constant.

    For ``mu`` on ``S`` and any ``nu, c >= 0``: if ``G mu <= G nu + c`` on
    ``S`` then ``G mu <= h (G nu + c)`` everywhere.  ``mu`` carries mass
    only where its potential over ``S`` can be finite, and ``nu`` only on
    columns finite on ``S`` and at the point compared, so the reported
    constant stays a valid lower bound.  A ``+inf`` witness is a ray: ``G nu
    (x) + c`` is 0 there, or ``G mu (x)`` is infinite.  A potential matrix
    reads 1, ``exact``, with no witness and ``upper = ((1 + d)/(1 - d))^2``;
    otherwise ``upper`` is as in :func:`wmp_constant`.
    """
    n, G = kernel.size, kernel.entries
    rhs = np.column_stack([np.ones(n), G])  # w = 1, then the columns of G
    d = np.diag(G)
    through = (G > 0) & np.isfinite(G) & ~np.eye(n, dtype=bool)  # (j, k): 0 < G(j, k) < inf
    rays = ((G == 0) @ through.T) & (G > 0) & (d > 0) & np.isfinite(d)  # (x, j): {j} a ray at x

    def value(T):  # the stacked solve with every right-hand side
        W = rhs[T]
        finite = np.isfinite(W).all(axis=1)
        keep, Z = _stacked_solves(G, T, np.where(finite[:, None], W, 0.0))
        Z.transpose(0, 2, 1)[~finite[keep]] = np.nan  # no w on the support: no z
        return keep, Z, _complete_ratios(G, rhs, T[keep], Z).max(axis=2)

    mode, best, T, Z, x, checked, upper = _search(G, budget, value, n + 1, rays, 2)
    witness = None
    if T is not None:
        mu, nu = np.zeros(T.size), np.zeros(n)
        if Z is None:  # the closed form: a point mass, its potential infinite at x or 0 on
            j = T[0]  # T, or a ray through the first column k that is 0 at x
            mu[0], c = 1.0, float(np.isinf(G[x, j]))
            if not c and G[j, j] > 0:
                k = int(np.argmax((G[x] == 0) & through[j]))
                mu[0], nu[k] = G[j, k] / G[j, j], 1.0
        else:
            w = int(np.argmax(_complete_ratios(G, rhs, T[None], Z[None])[0, x]))
            scale = 1.0 / rhs[x, w] if rhs[x, w] > 0 else 1.0  # a ray is not normalized
            mu, c = Z[:, w] * scale, scale if w == 0 else 0.0
            if w:
                nu[w - 1] = scale
        points = kernel.space.points
        witness = (tuple(points[i] for i in T), points[x], _measure_on(kernel, T, mu),
                   Measure(kernel.space, nu), c)
    return CompleteMpReport(best, bool(np.isfinite(best)), witness, mode, checked, upper)


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
    # twice by sqrt(m(x) m(y)): symmetric, as once by np.outer(mr, mr) is, but that
    # underflows to 0 once m falls below about 1e-162, and a zero entry reads 0/0
    r = np.outer(np.sqrt(mr), np.sqrt(mr))
    entries = sub.entries / r / r
    return ModifiedKernel(Kernel(sub.space, entries), retained)
