"""Finite measure spaces, extended-real kernels and the Lebesgue/Lorentz calculus.

Every quantity downstream (capacities, maximum-principle constants, solutions
of ``u = G(u^q sigma)``) reduces to sums of the form ``sum_y G(x, y) * nu[y]``,
so the conventions are pinned here once:

* ``0 * inf == 0``  -- a zero weight annihilates an infinite kernel value,
* ``x + inf == inf``,
* measure weights are finite and nonnegative,
* kernel entries live in ``[0, +inf]``,
* ``nan`` is rejected at construction time, everywhere.

Objects are immutable after construction: the wrapped arrays are marked
read-only, so all operations below are pure functions and safe to share
between computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DomainError",
    "SpaceMismatchError",
    "Space",
    "Measure",
    "Kernel",
    "NormSpec",
    "NondegeneracyReport",
    "potential",
    "adjoint_potential",
    "energy",
    "integrate",
    "norm",
    "check_quasisymmetric",
    "symmetrize",
    "check_nondegenerate",
]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SpaceMismatchError(ValueError):
    """Two operands were built over different spaces."""


def _clean_vector(values, n, name, allow_inf=False):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise SpaceMismatchError(f"{name} must have shape ({n},), got {arr.shape}")
    if np.isnan(arr).any():
        raise DomainError(f"{name} contains nan")
    if (arr < 0).any():
        raise DomainError(f"{name} contains negative entries")
    if not allow_inf and np.isinf(arr).any():
        raise DomainError(f"{name} contains infinite entries")
    return arr


@dataclass
class Space:
    """An ordered finite set of points.

    ``points`` are arbitrary hashable labels; two spaces are equal when their
    labels are, in order.  Sampled kernels keep no coordinates: the builders
    read them from their spec.
    """

    points: tuple

    def __post_init__(self):
        self.points = tuple(self.points)
        if len(set(self.points)) != len(self.points):
            raise DomainError("space points must be distinct")
        if len(self.points) == 0:
            raise DomainError("space must contain at least one point")
        self._index = {p: i for i, p in enumerate(self.points)}

    @property
    def size(self) -> int:
        return len(self.points)

    @staticmethod
    def of_size(n: int) -> "Space":
        return Space(points=tuple(range(n)))

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise DomainError(f"point {point!r} is not in the space") from None

    def indices(self, points) -> np.ndarray:
        """Resolve a subset given either as point labels or as a boolean mask."""
        arr = np.asarray(points)
        if arr.dtype == bool:
            if arr.shape != (self.size,):
                raise SpaceMismatchError("boolean mask has wrong length")
            return np.flatnonzero(arr)
        idx = np.array([self.index(p) for p in points], dtype=int)
        if len(set(idx.tolist())) != len(idx):
            raise DomainError("subset contains repeated points")
        return idx

    def subspace(self, indices) -> "Space":
        return Space(points=tuple(self.points[i] for i in np.asarray(indices, dtype=int)))


@dataclass(eq=False)
class Measure:
    """A nonnegative measure with finite weights on a :class:`Space`."""

    space: Space
    weights: np.ndarray

    def __post_init__(self):
        w = _clean_vector(self.weights, self.space.size, "measure weights")
        w = w.copy()
        w.flags.writeable = False
        self.weights = w

    @staticmethod
    def delta(space: Space, point) -> "Measure":
        w = np.zeros(space.size)
        w[space.index(point)] = 1.0
        return Measure(space, w)

    @staticmethod
    def uniform(space: Space, total: float = None) -> "Measure":
        w = np.ones(space.size)
        if total is not None:
            w *= total / space.size
        return Measure(space, w)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)

    @property
    def is_zero(self) -> bool:
        return not (self.weights > 0).any()

    def mass(self, indices) -> float:
        """Total weight of a subset, given as indices or a boolean mask."""
        arr = np.asarray(indices)
        if arr.dtype == bool:
            return float(self.weights[arr].sum())
        return float(self.weights[arr.astype(int)].sum())

    def restrict(self, indices) -> "Measure":
        """Zero out every weight outside the given index set."""
        arr = np.asarray(indices)
        if arr.dtype == bool:
            keep = arr
        else:
            keep = np.zeros(self.space.size, dtype=bool)
            keep[arr.astype(int)] = True
        return Measure(self.space, np.where(keep, self.weights, 0.0))

    def scaled(self, t: float) -> "Measure":
        if not np.isfinite(t) or t < 0:
            raise DomainError("scale factor must be finite and nonnegative")
        return Measure(self.space, self.weights * t)


@dataclass(eq=False)
class Kernel:
    """A nonnegative extended-real kernel ``G(x, y)`` on ``Space x Space``."""

    space: Space
    entries: np.ndarray

    def __post_init__(self):
        n = self.space.size
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (n, n):
            raise SpaceMismatchError(f"kernel must have shape ({n}, {n}), got {arr.shape}")
        if np.isnan(arr).any():
            raise DomainError("kernel contains nan")
        if (arr < 0).any():
            raise DomainError("kernel contains negative entries")
        arr = arr.copy()
        arr.flags.writeable = False
        self.entries = arr

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.entries, self.entries.T))

    def adjoint(self) -> "Kernel":
        return Kernel(self.space, self.entries.T.copy())

    def restrict(self, indices) -> "Kernel":
        indices = np.asarray(indices, dtype=int)
        sub = self.entries[np.ix_(indices, indices)].copy()
        return Kernel(self.space.subspace(indices), sub)


def _require_same_space(a, b):
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError("operands live on different spaces")


def _weighted_terms(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Entrywise ``values * weights`` under the convention ``0 * inf == 0``.

    ``weights`` is finite and nonnegative; ``values`` may contain ``+inf``.
    """
    with np.errstate(invalid="ignore"):
        out = values * weights
    # the only nan source is inf * 0, which the convention sends to 0
    if np.isnan(out).any():
        out = np.where(weights == 0.0, 0.0, out)
    return out


def _nonempty_subsets(k: int) -> np.ndarray:
    """Every nonempty subset of ``range(k)`` as a boolean row; row ``m - 1``
    holds the bits of ``m``, bit ``i`` in column ``i``."""
    rows = np.zeros(((1 << k) - 1, k), dtype=bool)
    for j in range(k):
        # m = 2^j + r for r < 2^j: the row of 2^j, then the rows of r with bit j
        half = 1 << j
        rows[half - 1, j] = True
        rows[half:2 * half - 1] = rows[:half - 1]
        rows[half:2 * half - 1, j] = True
    return rows


def potential(kernel: Kernel, nu: Measure) -> np.ndarray:
    """Pointwise potential ``(G nu)(x) = sum_y G(x, y) nu[y]``.

    Returns an extended-real vector over the space; entries may be ``+inf``
    when an infinite kernel value meets positive mass.
    """
    _require_same_space(kernel, nu)
    terms = _weighted_terms(kernel.entries, nu.weights[np.newaxis, :])
    return terms.sum(axis=1)


def adjoint_potential(kernel: Kernel, mu: Measure) -> np.ndarray:
    """Adjoint potential ``(G* mu)(y) = sum_x G(x, y) mu[x]``."""
    _require_same_space(kernel, mu)
    terms = _weighted_terms(kernel.entries, mu.weights[:, np.newaxis])
    return terms.sum(axis=0)


def energy(kernel: Kernel, lam: Measure) -> float:
    """Mutual energy ``E(lam) = sum_x (G lam)(x) lam[x]`` (may be ``+inf``)."""
    pot = potential(kernel, lam)
    return float(_weighted_terms(pot, lam.weights).sum())


def integrate(values, sigma: Measure) -> float:
    """``sum_x values[x] sigma[x]`` with ``0 * inf == 0``; may be ``+inf``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (sigma.space.size,):
        raise SpaceMismatchError("integrand and measure have different lengths")
    return float(_weighted_terms(arr, sigma.weights).sum())


@dataclass(frozen=True)
class NormSpec:
    """Which functional to evaluate: ``lp``, ``lorentz`` or ``weak_lorentz``.

    ``lorentz`` uses the plain rearrangement integral
    ``( int_0^inf (t^{1/s} f*(t))^q dt/t )^{1/q}``; the customary
    ``(q/s)^{1/q}`` prefactor is omitted, which makes the ``(s, s)`` case
    coincide with the plain ``L^s`` norm exactly.
    """

    kind: str
    exponents: tuple

    def __post_init__(self):
        if self.kind not in ("lp", "lorentz", "weak_lorentz"):
            raise DomainError(f"unknown norm kind {self.kind!r}")
        for e in self.exponents:
            if not (np.isfinite(e) and e > 0):
                raise DomainError("norm exponents must be finite and positive")

    @staticmethod
    def lp(p: float) -> "NormSpec":
        return NormSpec("lp", (float(p),))

    @staticmethod
    def lorentz(s: float, q: float) -> "NormSpec":
        return NormSpec("lorentz", (float(s), float(q)))

    @staticmethod
    def weak_lorentz(s: float) -> "NormSpec":
        return NormSpec("weak_lorentz", (float(s),))


def _lp_norm(f, w, p):
    with np.errstate(invalid="ignore"):
        powered = f ** p
    terms = _weighted_terms(powered, w)
    total = terms.sum()
    return float(total ** (1.0 / p))


def _weak_norm(f, w, s):
    # sup_t t * sigma({f > t})^{1/s}; on a finite space the sup over each
    # constancy interval of the distribution function is attained at the
    # next value of f, so it suffices to scan v * sigma({f >= v}).
    if w[np.isinf(f)].sum() > 0:
        return float("inf")
    finite_positive = np.unique(f[(f > 0) & np.isfinite(f)])
    best = 0.0
    for v in finite_positive:
        m = w[f >= v].sum()
        if m > 0:
            best = max(best, float(v * m ** (1.0 / s)))
    return best


def _lorentz_norm(f, w, s, q):
    keep = w > 0
    fk, wk = f[keep], w[keep]
    if fk.size == 0:
        return 0.0
    if np.isinf(fk).any():
        return float("inf")
    order = np.argsort(-fk, kind="stable")
    vals, masses = fk[order], wk[order]
    upper = np.cumsum(masses)
    lower = np.concatenate(([0.0], upper[:-1]))
    # integrate t^{q/s - 1} v^q exactly over each constancy interval of f*
    exponent = q / s
    contrib = vals ** q * (s / q) * (upper ** exponent - lower ** exponent)
    return float(contrib.sum() ** (1.0 / q))


def norm(f, sigma: Measure, spec: NormSpec) -> float:
    """Evaluate ``spec`` for a nonnegative function ``f`` against ``sigma``."""
    f = np.asarray(f, dtype=float)
    if f.shape != (sigma.space.size,):
        raise SpaceMismatchError("function and measure have different lengths")
    if np.isnan(f).any():
        raise DomainError("function contains nan")
    if (f < 0).any():
        raise DomainError("norms are defined for nonnegative functions")
    w = sigma.weights
    if spec.kind == "lp":
        return _lp_norm(f, w, spec.exponents[0])
    if spec.kind == "weak_lorentz":
        return _weak_norm(f, w, spec.exponents[0])
    return _lorentz_norm(f, w, *spec.exponents)


def check_quasisymmetric(kernel: Kernel) -> float:
    """Least ``a`` with ``a^{-1} G(y, x) <= G(x, y) <= a G(y, x)``.

    Pairs where both orientations are 0, or both are ``+inf``, are comparable
    with any constant and are skipped; a pair where exactly one side is 0 or
    exactly one side is ``+inf`` forces ``a = +inf``.
    """
    A = kernel.entries
    B = A.T
    zero_mismatch = (A == 0) ^ (B == 0)
    inf_mismatch = np.isinf(A) ^ np.isinf(B)
    if zero_mismatch.any() or inf_mismatch.any():
        return float("inf")
    comparable = (A == 0) | np.isinf(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(comparable, 1.0, np.maximum(A / B, B / A))
    return float(max(ratios.max(initial=1.0), 1.0))


def symmetrize(kernel: Kernel) -> Kernel:
    """The symmetric enlargement ``G(x, y) + G(y, x)``."""
    return Kernel(kernel.space, kernel.entries + kernel.entries.T)


@dataclass(frozen=True)
class NondegeneracyReport:
    nondegenerate: bool
    witness: tuple  # point labels whose kernel column vanishes sigma-a.e.


def check_nondegenerate(kernel: Kernel, sigma: Measure) -> NondegeneracyReport:
    """Detect columns ``G(., y)`` that vanish sigma-a.e. for sigma-positive ``y``.

    The kernel is degenerate (with respect to ``sigma``) when the witness set
    is nonempty; no positive solution of ``u = G(u^q sigma)`` can then exist.
    """
    _require_same_space(kernel, sigma)
    sup = sigma.support
    if sup.size == 0:
        return NondegeneracyReport(True, ())
    block = kernel.entries[np.ix_(sup, sup)]
    dead = np.flatnonzero((block == 0).all(axis=0))
    witness = tuple(kernel.space.points[sup[j]] for j in dead)
    return NondegeneracyReport(len(witness) == 0, witness)
