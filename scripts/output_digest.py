#!/usr/bin/env python3
"""Print two SHA-256 digests of this checkout's outputs, to tell whether a
change left them identical.

The library digest covers every field of what these return:
- ``strong_type_constant``, ``gagliardo_supersolution``, ``monotone_solution``
  and ``solve_equation`` on the benchmark's round_trip inputs 0-79;
- ``theorem_report`` on its verdict_table inputs 0-14;
- ``wmp_constant`` and ``complete_mp_constant`` on seeded kernels built here,
  at the default budget and at a sampled one.

The round_trip and verdict_table inputs are read at seeds 0 and 3, and
their calls get the seeds that the benchmark's ops pass.  Arrays are read
by their dtype, shape and bytes, floats by ``float.hex``, and every value
by its type name, so a change of type or of the last bit moves the digest.

The report digest covers the bytes of the ``report.json`` files that
``potbench analyze`` writes for the scenarios workload's ops 0-2 at seeds 0
and 3 (30 files), run in this process.

Both digests are deterministic for a given checkout and numpy.  Run it in
two checkouts and compare the lines:

  python scripts/output_digest.py
"""

import dataclasses
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import potbench as pb  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 3)
ROUND_TRIP_OPS = range(80)
VERDICT_OPS = range(15)
SCENARIO_OPS = range(3)
MP_KERNELS = 200  # each at two budgets


def feed(h, obj):
    """Hash ``obj`` into ``h``, every field, with its type name."""
    h.update(type(obj).__name__.encode() + b":")
    if obj is None or isinstance(obj, (bool, int, str, np.integer, np.bool_)):
        h.update(repr(obj).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode() + b"=")
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(str(len(obj)).encode())
        for k, v in obj.items():
            feed(h, k)
            feed(h, v)
    elif isinstance(obj, (list, tuple)):
        h.update(str(len(obj)).encode())
        for v in obj:
            feed(h, v)
    else:
        raise TypeError(f"no digest rule for {type(obj).__name__}")
    h.update(b";")


def mp_kernel(rng, i):
    """Kernel ``i`` of the maximum-principle set: five kinds, n = 3-7."""
    n = 3 + i // 5 % 5
    kind = i % 5
    if kind == 0:
        G = workloads.metric_power_matrix(rng, n, float(rng.choice(workloads.POWERS)),
                                          float(rng.uniform(0.1, 0.6)))
    elif kind == 1:  # random symmetric
        G = rng.uniform(0.1, 1.0, (n, n))
        G = (G + G.T) / 2.0
    elif kind == 2:  # random, not symmetric
        G = rng.uniform(0.1, 1.0, (n, n))
    elif kind == 3:  # a quarter of the entries zero, an infinite diagonal entry
        G = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) > 0.25)
        G[rng.integers(n), rng.integers(n)] = np.inf
        np.fill_diagonal(G, np.where(np.diag(G) > 0, np.diag(G), 1.0))
    else:  # a potential matrix: the inverse of a diagonally dominant M-matrix
        M = -rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(M, 0.0)
        np.fill_diagonal(M, -M.sum(axis=1) + rng.uniform(0.1, 1.0, n))
        G = np.linalg.inv(M)
    return pb.Kernel(pb.Space.of_size(n), G)


def library_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for i in ROUND_TRIP_OPS:  # the round_trip op's calls, then solve_equation
            problem, strong_seed = workloads.round_trip_input(seed, i, None)
            est = pb.strong_type_constant(problem, seed=strong_seed)
            sup = pb.gagliardo_supersolution(problem, est.extras["certified_upper"])
            for result in (est, sup, pb.monotone_solution(problem, sup.u),
                           pb.solve_equation(problem)):
                feed(h, result)
        for i in VERDICT_OPS:
            problem, report_seed = workloads.verdict_table_input(seed, i, None)
            feed(h, pb.theorem_report(problem, seed=report_seed))
    rng = np.random.default_rng(45)
    for i in range(MP_KERNELS):
        kernel = mp_kernel(rng, i)
        for budget in (pb.DEFAULT_BUDGET, kernel.size**2):
            feed(h, pb.wmp_constant(kernel, budget=budget))
            feed(h, pb.complete_mp_constant(kernel, budget=budget))
    return h.hexdigest()


def report_digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for i in SCENARIO_OPS:
                out = os.path.join(tmp, f"{seed}_{i}")
                inp = workloads.scenarios_input(seed, i, tmp)
                for code, body, _ in workloads.analyze_set(inp, out, env=None):
                    if code != 0 or body is None:
                        raise SystemExit(f"analyze failed on seed {seed}, op {i}: exit {code}")
                    h.update(body)
    return h.hexdigest()


def main():
    print(f"library {library_digest()}")
    print(f"reports {report_digest()}")


if __name__ == "__main__":
    main()
