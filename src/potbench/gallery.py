"""Instance gallery: paired-block kernels with closed-form solutions, and
kernels sampled from point clouds.

The block family is the standard counterexample machine: a direct sum of
2 x 2 blocks on which ``u = G(u^q sigma)`` is solvable in closed form while
the strong-type constant grows without bound along the truncation.  The
sampled family provides honest geometric kernels (inverse-distance powers,
the interval Green function) on given points or on points drawn from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Kernel, Measure, Space, _exp, _pow
from .sublinear import SublinearProblem, energy_value

__all__ = [
    "BlockSpec",
    "BlockInstance",
    "build_block",
    "ThresholdReport",
    "energy_divergence_threshold",
    "SampledKernelSpec",
    "build_sampled",
    "shortest_path_metric",
]


@dataclass(frozen=True)
class BlockSpec:
    """A truncated paired-block instance.

    ``sigma_rule`` is one of ``("geometric", a, b)`` with ``1 < a < b**q``
    (odd weights ``a^k``, even weights ``b^-k``), ``("harmonic",)``
    (odd weights 1, even weights ``1/k``), or ``("custom", weights)`` with
    ``2 * n_blocks`` positive weights.  ``variant`` selects the off-diagonal
    blocks ``[[0, 1], [1, 0]]`` or their strictly positive rank-preserving
    perturbation.
    """

    n_blocks: int
    q: float
    sigma_rule: tuple
    variant: str = "zero_diagonal"

    def __post_init__(self):
        if not (isinstance(self.n_blocks, int) and self.n_blocks >= 1):
            raise DomainError("n_blocks must be a positive integer")
        if not (0.0 < self.q < 1.0):
            raise DomainError("the block family needs 0 < q < 1")
        if self.variant not in ("zero_diagonal", "strictly_positive"):
            raise DomainError(f"unknown variant {self.variant!r}")
        rule = tuple(self.sigma_rule)
        if not rule or rule[0] not in ("geometric", "harmonic", "custom"):
            raise DomainError("sigma_rule must be geometric, harmonic or custom")
        if rule[0] == "geometric":
            if len(rule) != 3:
                raise DomainError("geometric rule takes two parameters")
            a, b = float(rule[1]), float(rule[2])
            if not (1.0 < a < b**self.q):
                raise DomainError("geometric rule needs 1 < a < b**q")
        elif rule[0] == "harmonic":
            if len(rule) != 1:
                raise DomainError("harmonic rule takes no parameters")
        else:
            if len(rule) != 2:
                raise DomainError("custom rule takes one weight sequence")
            w = np.asarray(rule[1], dtype=float)
            if w.shape != (2 * self.n_blocks,):
                raise DomainError("custom weights must cover every point")
            if not (np.isfinite(w).all() and (w > 0).all()):
                raise DomainError("custom weights must be positive and finite")
        object.__setattr__(self, "sigma_rule", rule)


@dataclass(frozen=True)
class BlockInstance:
    """A built block instance with its exact closed-form data."""

    problem: SublinearProblem
    solution: np.ndarray
    solution_lq_norm: float
    energy_small: float
    divergence_lower: float
    divergence_witness: Measure
    block_scales: tuple | None
    tag: str


def _sigma_weights(spec: BlockSpec) -> np.ndarray:
    n = spec.n_blocks
    rule = spec.sigma_rule
    w = np.empty(2 * n)
    k = np.arange(1, n + 1, dtype=float)
    if rule[0] == "geometric":
        a, b = float(rule[1]), float(rule[2])
        w[0::2] = a**k
        w[1::2] = b**-k
    elif rule[0] == "harmonic":
        w[0::2] = 1.0
        w[1::2] = 1.0 / k
    else:
        w[:] = np.asarray(rule[1], dtype=float)
    return w


def build_block(spec: BlockSpec) -> BlockInstance:
    """Assemble the kernel, measure, closed-form solution and witnesses.

    On each pair the equation decouples to ``u1 = u2^q s2``, ``u2 = u1^q s1``
    with the explicit solution ``u1 = (s1^q s2)^{1/(1-q^2)}`` and its mirror.
    The strictly positive variant multiplies the solution by ``2^{1/(1-q)}``.
    The divergence witness swaps ``s^{1/(1-q)}`` within each pair; testing
    it in the q-th power of the strong-type inequality gives the ratio
    ``(sum_j s_j^{1/(1-q)})^{1-q}``, which is unbounded along the truncation
    for the geometric and harmonic rules.
    """
    n = spec.n_blocks
    q = spec.q
    sig = _sigma_weights(spec)
    odd, even = sig[0::2], sig[1::2]

    space = Space(points=tuple(range(1, 2 * n + 1)))
    G = np.zeros((2 * n, 2 * n))
    scales = None
    if spec.variant == "strictly_positive":
        a_k = (even / odd) ** (1.0 / (1.0 + q))
        scales = (float(a_k.min()), float(a_k.max()))
    for k in range(n):
        i = 2 * k
        G[i, i + 1] = 1.0
        G[i + 1, i] = 1.0
        if spec.variant == "strictly_positive":
            G[i, i] = a_k[k]
            G[i + 1, i + 1] = 1.0 / a_k[k]
    kernel = Kernel(space, G)
    sigma = Measure(space, sig)
    problem = SublinearProblem(kernel, sigma, q)

    u = np.empty(2 * n)
    u[0::2] = (odd**q * even) ** (1.0 / (1.0 - q * q))
    u[1::2] = (odd * even**q) ** (1.0 / (1.0 - q * q))
    if spec.variant == "strictly_positive":
        u = u * 2.0 ** (1.0 / (1.0 - q))
    lq = float((u**q @ sig) ** (1.0 / q))

    if spec.variant == "zero_diagonal":
        energy_small = float(np.sum(odd * even ** (q / (1.0 - q))
                                    + odd ** (q / (1.0 - q)) * even))
    else:
        energy_small = energy_value(problem, q / (1.0 - q))

    pieces = sig ** (1.0 / (1.0 - q))
    divergence_lower = float(pieces.sum() ** (1.0 - q))
    nu = np.empty(2 * n)
    nu[0::2] = even ** (1.0 / (1.0 - q))
    nu[1::2] = odd ** (1.0 / (1.0 - q))
    witness = Measure(space, nu)

    tag = (f"blocks:{spec.sigma_rule[0]}:{spec.variant}"
           f":n={n}:q={q:g}")
    return BlockInstance(problem, u, lq, energy_small, divergence_lower,
                         witness, scales, tag)


@dataclass(frozen=True)
class ThresholdReport:
    """Smallest truncation whose small-exponent energy reaches a target.

    ``method`` is ``exact`` (partial sums accumulated term by term),
    ``estimate`` (the target lies beyond the term budget; the count comes
    from the asymptotics of the harmonic rule, and is None past the float
    range or for the geometric rule), or ``bounded`` (the full series
    converges below the target, so no truncation reaches it).
    """

    n_blocks: int | None
    method: str
    target: float
    value: float


MAX_EXACT_TERMS = 10_000_000
_CHUNK = 1_000_000


def _accumulate(term, target):
    """First k with ``sum_{j<=k} term(j) >= target`` and that sum, or ``None``
    and the sum of all ``MAX_EXACT_TERMS`` terms when the budget runs out."""
    running = 0.0
    start = 1
    while start <= MAX_EXACT_TERMS:
        stop = min(start + _CHUNK, MAX_EXACT_TERMS + 1)
        k = np.arange(start, stop, dtype=float)
        with np.errstate(over="ignore"):
            cum = running + np.cumsum(term(k))
        hit = np.flatnonzero(cum >= target)
        if hit.size:
            return start + int(hit[0]), float(cum[hit[0]])
        running = float(cum[-1])
        start = stop
    return None, running


def energy_divergence_threshold(spec: BlockSpec, target: float) -> ThresholdReport:
    """First ``n`` with ``integral (G sigma)^{q/(1-q)} dsigma >= target``.

    Uses the closed-form per-block energies of the zero-diagonal variant.
    """
    if spec.variant != "zero_diagonal":
        raise DomainError("the threshold is defined for the zero-diagonal variant")
    if not (target > 0 and np.isfinite(target)):
        raise DomainError("target must be positive and finite")
    q = spec.q
    e = q / (1.0 - q)
    rule = spec.sigma_rule

    if rule[0] == "geometric":
        a, b = float(rule[1]), float(rule[2])
        # per-block energy r1^k + r2^k with r1 = a / b^e, r2 = a^e / b
        r1, r2 = a * _pow(b, -e), _pow(a, e) / b
        total = (r1 / (1 - r1) if r1 < 1 else float("inf")) \
            + (r2 / (1 - r2) if r2 < 1 else float("inf"))
        if total < target:
            return ThresholdReport(None, "bounded", target, float(total))
        hit, value = _accumulate(lambda k: r1**k + r2**k, target)
        if hit is not None:
            return ThresholdReport(hit, "exact", target, value)
        return ThresholdReport(None, "estimate", target, float("nan"))

    if rule[0] == "harmonic":
        # per-block energy k^-e + 1/k
        hit, last = _accumulate(lambda k: k**-e + 1.0 / k, target)
        if hit is not None:
            return ThresholdReport(hit, "exact", target, last)
        # the partial sums beyond the budget follow their asymptotics:
        # 2 log n for e = 1, log n plus a constant for e > 1, and a power
        # law for e < 1, which a large target also takes past the budget
        if e == 1.0:
            n_est = _exp((target - (last - 2 * math.log(MAX_EXACT_TERMS))) / 2)
        elif e > 1.0:
            n_est = _exp(target - (last - math.log(MAX_EXACT_TERMS)))
        else:
            n_est = _pow((1.0 - e) * target, 1.0 / (1.0 - e))
        n_est = int(n_est) if n_est < np.inf else None
        return ThresholdReport(n_est, "estimate", target, float(target))

    w = np.asarray(rule[1], dtype=float)
    odd, even = w[0::2], w[1::2]
    blocks = odd * even**e + odd**e * even
    cum = np.cumsum(blocks)
    hit = np.flatnonzero(cum >= target)
    if hit.size:
        return ThresholdReport(int(hit[0]) + 1, "exact", target, float(cum[hit[0]]))
    return ThresholdReport(None, "bounded", target, float(cum[-1]) if cum.size else 0.0)


# ---------------------------------------------------------------------------
# sampled kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledKernelSpec:
    """A kernel built from a point cloud.

    ``riesz``: ``G(x, y) = |x - y|^(alpha - n_dim)`` for ``0 < alpha < n_dim``
    on points of the unit cube, with ``+inf`` on the diagonal.
    ``interval_green``: ``G(x, y) = min(x, y) (1 - max(x, y))`` on points of
    the open unit interval.  Points come from ``coords`` when given,
    otherwise they are sampled uniformly with the seed.
    """

    kind: str
    n_points: int
    alpha: float | None = None
    n_dim: int | None = None
    seed: int = 0
    coords: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("riesz", "interval_green"):
            raise DomainError(f"unknown sampled kernel kind {self.kind!r}")
        if not (isinstance(self.n_points, int) and self.n_points >= 1):
            raise DomainError("n_points must be a positive integer")
        if self.kind == "riesz":
            if self.alpha is None or self.n_dim is None:
                raise DomainError("riesz kernels need alpha and n_dim")
            if not (0.0 < self.alpha < self.n_dim):
                raise DomainError("riesz kernels need 0 < alpha < n_dim")


def _sample_coords(spec: SampledKernelSpec) -> np.ndarray:
    dim = spec.n_dim if spec.kind == "riesz" else 1
    if spec.coords is not None:
        coords = np.asarray(spec.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.shape != (spec.n_points, dim):
            raise DomainError(f"coords must have shape ({spec.n_points}, {dim})")
        if not np.isfinite(coords).all():
            raise DomainError("coords must be finite")
    else:
        rng = np.random.default_rng(spec.seed)
        coords = rng.uniform(size=(spec.n_points, dim))
    if spec.kind == "interval_green" and not ((coords > 0) & (coords < 1)).all():
        raise DomainError("interval points must lie strictly inside (0, 1)")
    return coords


def build_sampled(spec: SampledKernelSpec) -> Kernel:
    """The kernel of :class:`SampledKernelSpec` on the points ``0..n-1``, in
    the order of the cloud; duplicate points raise a ``DomainError``."""
    coords = _sample_coords(spec)
    n = spec.n_points
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    off = ~np.eye(n, dtype=bool)
    if (dist[off] == 0).any():
        raise DomainError("point cloud contains duplicate points")
    space = Space.of_size(n)
    if spec.kind == "riesz":
        with np.errstate(divide="ignore"):
            G = dist ** (spec.alpha - spec.n_dim)
        np.fill_diagonal(G, np.inf)
        return Kernel(space, G)
    x = coords[:, 0]
    G = np.minimum.outer(x, x) * (1.0 - np.maximum.outer(x, x))
    return Kernel(space, G)


def shortest_path_metric(rng, n) -> np.ndarray:
    """Shortest-path metric of the complete graph on ``n`` points whose edge
    lengths are symmetrized ``uniform(0.2, 1.0)`` draws from ``rng``."""
    w = rng.uniform(0.2, 1.0, size=(n, n))
    d = (w + w.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d
