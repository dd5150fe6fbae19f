"""Finite measure spaces, extended-real kernels and the Lebesgue/Lorentz calculus.

Every quantity downstream (capacities, maximum-principle constants, solutions
of ``u = G(u^q sigma)``) reduces to sums of the form ``sum_y G(x, y) * nu[y]``,
so the extended-real rules are pinned here once, each with its helper:

* ``0 * inf == 0``: a zero factor annihilates an infinite one
  (``_weighted_terms``),
* ``x + inf == inf`` (float addition),
* ``1 / 0 == inf`` and ``1 / inf == 0`` (``_inverse_distance``),
* ``0 / 0`` and ``inf / inf`` read as 0 in a ratio, so they impose nothing
  on its maximum, while ``x / 0 == inf`` for ``x > 0`` (``_ratio_max``),
* measure weights are finite and nonnegative,
* kernel entries live in ``[0, +inf]``,
* ``nan`` is rejected at construction time, everywhere,
* a power of two scales exactly (``_normalized``),
* a scalar power or exponential past the float range reads ``+inf`` (``_pow``, ``_exp``),
* ``int f^p dw`` and its ``1/p`` power are ``+inf`` only past the float range (``_power_integral``,
  which the ``L^p`` and Lorentz norms and the energies read),
* the decreasing rearrangement ``f*`` keeps ``w > 0``, ties in index order (``_rearranged``),
* a budget is at least 1; ``count`` items within it read ``exact``, else ``sampled`` (``_mode``).

Objects are immutable after construction: the wrapped arrays are marked
read-only, so all operations below are pure functions and safe to share
between computations.  The sums run in ``_potential`` and ``_energy``, on raw
arrays: the public functions validate at the boundary, inner loops call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "SpaceMismatchError",
    "Space",
    "Measure",
    "Kernel",
    "NondegeneracyReport",
    "potential",
    "adjoint_potential",
    "energy",
    "integrate",
    "lp_norm",
    "lorentz_norm",
    "weak_lorentz_norm",
    "check_quasisymmetric",
    "check_nondegenerate",
]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SpaceMismatchError(ValueError):
    """Two operands were built over different spaces."""


def _clean_array(values, shape, name, allow_inf=False):
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise SpaceMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
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
        w = _clean_array(self.weights, (self.space.size,), "measure weights").copy()
        w.flags.writeable = False
        self.weights = w

    @staticmethod
    def delta(space: Space, point) -> "Measure":
        w = np.zeros(space.size)
        w[space.index(point)] = 1.0
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
        return float(self.weights[arr if arr.dtype == bool else arr.astype(int)].sum())

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
        arr = _clean_array(self.entries, (self.size,) * 2, "kernel", allow_inf=True).copy()
        arr.flags.writeable = False
        self.entries = arr

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.entries, self.entries.T))

    def restrict(self, indices) -> "Kernel":
        indices = np.asarray(indices, dtype=int)  # fancy indexing copies; so does Kernel
        return Kernel(self.space.subspace(indices), self.entries[np.ix_(indices, indices)])


def _require_same_space(a, b):
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError("operands live on different spaces")


def _weighted_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of two nonnegative extended-real arrays, ``0 * inf == 0``."""
    with np.errstate(invalid="ignore"):
        out = a * b
    # the only nan source is 0 * inf, which the convention sends to 0
    if np.isnan(out).any():
        out = np.where(np.isnan(out), 0.0, out)
    return out


def _pow(x, p: float) -> float:
    """``x ** p`` for a scalar ``x >= 0``, and ``+inf`` where that does not fit a float."""
    try:
        return float(x) ** p
    except OverflowError:
        return float("inf")


def _exp(x: float) -> float:
    """``e^x``, and ``+inf`` where that does not fit a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


def _ratio_max(num: np.ndarray, den: np.ndarray):
    """Extended-real max of num/den: inf/inf and 0/0 impose nothing."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = num / den
    return np.where(np.isnan(r), 0.0, r)


def _inverse_distance(G: np.ndarray) -> np.ndarray:
    """``d = 1/G``: ``d = inf`` where ``G = 0`` and ``d = 0`` where ``G = inf``."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / G


def _normalized(x: np.ndarray) -> tuple:
    """``(x / 2^e, e)``, ``e`` the ``frexp`` exponent of the largest finite entry of ``x``."""
    e = int(np.frexp(x[np.isfinite(x)].max(initial=0.0))[1])
    return np.ldexp(x, -e), e


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as ``np.unique`` gives them,
    without its first call's import of ``numpy.ma``."""
    v = np.sort(values)
    return v[np.append(True, v[1:] != v[:-1])] if v.size else v


def _rearranged(f: np.ndarray, w: np.ndarray) -> tuple:
    """``(f*, w*, last)``: the values of ``f`` where ``w > 0`` in decreasing order, ties
    in index order, their weights and the mask of each value's last entry, where the
    masses summed along ``f*`` reach ``w(f >= v)``; per column for a matrix ``f``."""
    keep = w > 0
    f, w = f[keep], w[keep]
    order = np.argsort(-f, axis=0, kind="stable")
    vals = np.take_along_axis(f, order, axis=0)
    last = np.ones(vals.shape, dtype=bool)
    last[:-1] = vals[1:] != vals[:-1]
    return vals, w[order], last


def _bits(m: int, k: int) -> np.ndarray:
    """Subset code ``m < 2^k`` as a boolean array: entry ``j`` is bit ``j`` of ``m``.
    The one subset code is the mask over the space, ``k = n``: bit ``x`` marks point ``x``."""
    code = np.frombuffer(m.to_bytes(k // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(code, count=k, bitorder="little").view(bool)


def _mode(count: int, budget: int) -> str:
    """``exact`` when ``count`` pairs or subsets fit the budget, else ``sampled``."""
    if budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")
    return "exact" if count <= budget else "sampled"


def _potential(G: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_y G(x, y) w[y]`` on raw arrays, unchecked: the inner-loop kernel."""
    return _weighted_terms(G, w[np.newaxis, :]).sum(axis=1)


def _energy(G: np.ndarray, w: np.ndarray) -> float:
    """``sum_x (G w)(x) w[x]`` on raw arrays, unchecked."""
    return float(_weighted_terms(_potential(G, w), w).sum())


def potential(kernel: Kernel, nu: Measure) -> np.ndarray:
    """Pointwise potential ``(G nu)(x) = sum_y G(x, y) nu[y]``.

    Returns an extended-real vector over the space; entries may be ``+inf``
    when an infinite kernel value meets positive mass.
    """
    _require_same_space(kernel, nu)
    return _potential(kernel.entries, nu.weights)


def adjoint_potential(kernel: Kernel, mu: Measure) -> np.ndarray:
    """Adjoint potential ``(G* mu)(y) = sum_x G(x, y) mu[x]``."""
    _require_same_space(kernel, mu)
    terms = _weighted_terms(kernel.entries, mu.weights[:, np.newaxis])
    return terms.sum(axis=0)


def energy(kernel: Kernel, lam: Measure) -> float:
    """Mutual energy ``E(lam) = sum_x (G lam)(x) lam[x]`` (may be ``+inf``)."""
    _require_same_space(kernel, lam)
    return _energy(kernel.entries, lam.weights)


def integrate(values, sigma: Measure) -> float:
    """``sum_x values[x] sigma[x]`` with ``0 * inf == 0``; may be ``+inf``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (sigma.space.size,):
        raise SpaceMismatchError("integrand and measure have different lengths")
    return float(_weighted_terms(arr, sigma.weights).sum())


def _norm_input(f, sigma, *exponents):
    exponents = tuple(float(e) for e in exponents)
    if not all(np.isfinite(e) and e > 0 for e in exponents):
        raise DomainError("norm exponents must be finite and positive")
    f = _clean_array(f, (sigma.space.size,), "function", allow_inf=True)
    return (f, sigma.weights) + exponents


def _log_norm(log_f: np.ndarray, w: np.ndarray, p: float) -> float:
    """``log |f|_p`` in ``L^p(w)`` from ``log f``: log-sum-exp over ``w > 0`` above ``-inf``."""
    pos = w > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = p * log_f[pos] + np.log(w[pos])
        z = z[z > -np.inf]
        m = z.max(initial=-np.inf)
        return float(m + np.log(np.exp(z - m).sum()) if np.isfinite(m) else m) / p


def _power_integral(f: np.ndarray, w: np.ndarray, p: float) -> tuple:
    """``(sum w f^p, its 1/p power)``, ``0 * inf == 0``: numpy's sum where it fits a float or
    ``f = inf`` on ``w > 0``, else both from ``_log_norm``; ``+inf`` only past the float range."""
    with np.errstate(over="ignore", divide="ignore"):
        total = float(_weighted_terms(f ** p, w).sum())
        if total < np.inf or np.isinf(f[w > 0]).any():
            return total, _pow(total, 1.0 / p)
        log_norm = _log_norm(np.log(f), w, p)
    return _exp(p * log_norm), _exp(log_norm)


def lp_norm(f, sigma: Measure, p: float) -> float:
    """The ``L^p(sigma)`` norm of a nonnegative ``f``, ``+inf`` only past the float range."""
    f, w, p = _norm_input(f, sigma, p)
    return _power_integral(f, w, p)[1]


def weak_lorentz_norm(f, sigma: Measure, s: float) -> float:
    """The weak ``L^s(sigma)`` norm ``sup_t t sigma({f > t})^{1/s}`` of a nonnegative ``f``:
    on a finite space the maximum of ``v sigma({f >= v})^{1/s}`` over the positive values
    of ``f*``, each read at its last entry, and ``+inf`` past the float range."""
    f, w, s = _norm_input(f, sigma, s)
    vals, masses, last = _rearranged(f, w)
    if np.isinf(vals).any():
        return float("inf")
    ends = last & (vals > 0)  # masked before the power: a zero value adds no 0 * inf
    with np.errstate(over="ignore"):
        return float((vals[ends] * np.cumsum(masses)[ends] ** (1.0 / s)).max(initial=0.0))


def lorentz_norm(f, sigma: Measure, s: float, q: float) -> float:
    """The Lorentz ``L^{s,q}(sigma)`` norm of a nonnegative function ``f``.

    This is the plain rearrangement integral
    ``( int_0^inf (t^{1/s} f*(t))^q dt/t )^{1/q}``; the customary
    ``(q/s)^{1/q}`` prefactor is omitted, which makes the ``(s, s)`` case
    coincide with the plain ``L^s`` norm exactly.  On a finite space it is the
    ``L^q`` norm of ``f*`` against the weight ``(s/q)(U^{q/s} - L^{q/s})`` of each
    constancy interval ``[L, U]`` (``_power_integral``), ``+inf`` only past the float range.
    """
    f, w, s, q = _norm_input(f, sigma, s, q)
    vals, masses, _ = _rearranged(f, w)
    if np.isinf(vals).any():
        return float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (s / q) * np.diff(np.cumsum(masses) ** (q / s), prepend=0.0)
    if np.isfinite(weights).all():
        return _power_integral(vals, weights, q)[1]
    m, e = _normalized(masses)  # the weights over 2^{eq/s}, the norm over 2^{e/s}
    norm = _power_integral(vals, (s / q) * np.diff(np.cumsum(m) ** (q / s), prepend=0.0), q)[1]
    return _pow(2.0, math.log2(norm) + e / s) if norm > 0 else 0.0


def check_quasisymmetric(kernel: Kernel) -> float:
    """Least ``a`` with ``a^{-1} G(y, x) <= G(x, y) <= a G(y, x)``, at least 1.

    The maximum of ``G(x, y) / G(y, x)`` over all ordered pairs, so each pair
    is read in both orientations.  Pairs where both orientations are 0, or
    both are ``+inf``, read as 0 and impose nothing; a pair where exactly one
    side is 0, or exactly one side is ``+inf``, divides a positive value by 0
    in one orientation and so forces ``a = +inf``.
    """
    A = kernel.entries
    return float(max(_ratio_max(A, A.T).max(), 1.0))


@dataclass(frozen=True)
class NondegeneracyReport:
    nondegenerate: bool
    witness: tuple  # point labels whose kernel column vanishes sigma-a.e.


def check_nondegenerate(kernel: Kernel, sigma: Measure) -> NondegeneracyReport:
    """Detect columns ``G(., y)`` that vanish sigma-a.e. for sigma-positive ``y``.

    The kernel is degenerate (with respect to ``sigma``) when the witness set is
    nonempty.  Only columns are read: where the zeros are symmetric (a finite
    quasi-symmetry constant) a dead column is a dead row, and no positive
    solution of ``u = G(u^q sigma)`` can then exist; one-sided zeros can mislead.
    """
    _require_same_space(kernel, sigma)
    sup = sigma.support
    block = kernel.entries[np.ix_(sup, sup)]
    dead = np.flatnonzero((block == 0).all(axis=0))
    witness = tuple(kernel.space.points[sup[j]] for j in dead)
    return NondegeneracyReport(len(witness) == 0, witness)
