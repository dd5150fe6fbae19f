"""Shared instance builders for the test suite.

Random kernels come in three flavours: unstructured nonnegative matrices
(for the calculus), Gram matrices (symmetric PSD, for the quadratic
capacity path), and inverse powers of shortest-path metrics (symmetric
kernels that provably satisfy the weak maximum principle, with a finite
diagonal obtained by offsetting the metric before inverting).
"""

import numpy as np
import pytest

from potbench import Kernel, Measure, Space
from potbench.gallery import shortest_path_metric


def rand_kernel(rng, n, zero_frac=0.2, inf_frac=0.0, symmetric=False):
    vals = rng.uniform(0.1, 3.0, size=(n, n))
    mask = rng.uniform(size=(n, n))
    vals[mask < zero_frac] = 0.0
    if inf_frac > 0:
        vals[mask > 1.0 - inf_frac] = np.inf
    if symmetric:
        upper = np.triu(np.ones((n, n), dtype=bool))
        vals = np.where(upper, vals, vals.T)
    return Kernel(Space.of_size(n), vals)


def rand_gram_kernel(rng, n, rank=None):
    """Symmetric PSD kernel with nonnegative entries (Gram matrix of
    nonnegative feature vectors)."""
    r = rank or n
    C = rng.uniform(0.0, 1.0, size=(n, r))
    return Kernel(Space.of_size(n), C @ C.T + 1e-9 * np.eye(n))


def metric_power_kernel(rng, n, power=1.0, offset=0.3):
    """G = 1/(d + offset)^power: symmetric, finite diagonal, quasimetric."""
    d = shortest_path_metric(rng, n)
    return Kernel(Space.of_size(n), 1.0 / (d + offset) ** power)


def rand_sigma(rng, space, low=0.2, high=1.5):
    return Measure(space, rng.uniform(low, high, space.size))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
