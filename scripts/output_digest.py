#!/usr/bin/env python3
"""Print three SHA-256 digests of this checkout's outputs, to tell whether a
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

The capacity digest covers every field of ``cap0`` and ``content`` and, on
the symmetric kernels, of ``wiener_cap1`` (measures, certificates and
``attained`` included), on every nonempty subset of each maximum-principle
kernel above with at most five points.

All three digests are deterministic for a given checkout and numpy.  Run it in
two checkouts and compare the lines:

  python scripts/output_digest.py

``--reports DIR`` also writes the 30 report bodies that the report digest
hashes to ``DIR``, one file ``<seed>_<op>_<file>.json`` each, and
``--library DIR`` writes the 1,470 results that the library digest hashes,
one JSON file each through ``potbench.cli.to_jsonable``.  Where the digests
of two checkouts differ, ``--compare OLD NEW`` reads two such directories
and prints every JSON leaf that differs: the file, the path, both values
and, for two floats, their distance in units in the last place.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import struct
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import potbench as pb  # noqa: E402
import workloads  # noqa: E402
from potbench.cli import to_jsonable  # noqa: E402

SEEDS = (0, 3)
ROUND_TRIP_OPS = range(80)
VERDICT_OPS = range(15)
SCENARIO_OPS = range(3)
MP_KERNELS = 200  # each at two budgets
CAPACITY_N_MAX = 5  # the capacities run on every nonempty subset of these kernels


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


def library_digest(library_dir=None) -> str:
    h = hashlib.sha256()

    def fed(name, result):
        """Hash ``result``; with a directory, also write it there as ``<name>.json``."""
        feed(h, result)
        if library_dir is not None:
            with open(os.path.join(library_dir, f"{name}.json"), "w") as fh:
                json.dump(to_jsonable(result), fh)

    for seed in SEEDS:
        for i in ROUND_TRIP_OPS:  # the round_trip op's calls, then solve_equation
            problem, strong_seed = workloads.round_trip_input(seed, i, None)
            est = pb.strong_type_constant(problem, seed=strong_seed)
            sup = pb.gagliardo_supersolution(problem, est.extras["certified_upper"])
            for k, result in enumerate((est, sup, pb.monotone_solution(problem, sup.u),
                                        pb.solve_equation(problem))):
                fed(f"round_trip_{seed}_{i}_{k}", result)
        for i in VERDICT_OPS:
            problem, report_seed = workloads.verdict_table_input(seed, i, None)
            fed(f"verdict_table_{seed}_{i}", pb.theorem_report(problem, seed=report_seed))
    rng = np.random.default_rng(45)
    for i in range(MP_KERNELS):
        kernel = mp_kernel(rng, i)
        for budget in (pb.DEFAULT_BUDGET, kernel.size**2):
            fed(f"wmp_{i}_{budget}", pb.wmp_constant(kernel, budget=budget))
            fed(f"complete_mp_{i}_{budget}", pb.complete_mp_constant(kernel, budget=budget))
    return h.hexdigest()


def report_digest(reports_dir=None) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for i in SCENARIO_OPS:
                out = os.path.join(tmp, f"{seed}_{i}")
                inp = workloads.scenarios_input(seed, i, tmp)
                for k, (code, body, _) in enumerate(workloads.analyze_set(inp, out, env=None)):
                    if code != 0 or body is None:
                        raise SystemExit(f"analyze failed on seed {seed}, op {i}: exit {code}")
                    h.update(body)
                    if reports_dir is not None:
                        with open(os.path.join(reports_dir, f"{seed}_{i}_{k}.json"), "wb") as fh:
                            fh.write(body)
    return h.hexdigest()


def capacity_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(45)
    for i in range(MP_KERNELS):
        kernel = mp_kernel(rng, i)
        if kernel.size > CAPACITY_N_MAX:
            continue
        capacities = (pb.cap0, pb.content, pb.wiener_cap1)[:3 if kernel.is_symmetric else 2]
        for m in range(1, 1 << kernel.size):
            K = [j for j in range(kernel.size) if m >> j & 1]
            for capacity in capacities:
                feed(h, capacity(kernel, K))
    return h.hexdigest()


def leaves(obj, path=""):
    """``(path, value)`` for every leaf of a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for j, v in enumerate(obj):
            yield from leaves(v, f"{path}[{j}]")
    else:
        yield path, obj


def ulps(a: float, b: float) -> int:
    """Steps between two finite floats of one sign, their bit patterns' distance."""
    ia, ib = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    return abs(ia - ib)


def compare(old_dir, new_dir):
    """Print every leaf that differs between the JSON files of two directories."""
    names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
    differing = 0
    for name in names:
        paths = [os.path.join(d, name) for d in (old_dir, new_dir)]
        if not all(os.path.exists(p) for p in paths):
            print(f"{name}: only in {old_dir if os.path.exists(paths[0]) else new_dir}")
            differing += 1
            continue
        old, new = (dict(leaves(json.load(open(p)))) for p in paths)
        for key in sorted(set(old) | set(new), key=str):
            a, b = old.get(key, "<absent>"), new.get(key, "<absent>")
            if a == b and type(a) is type(b):
                continue
            differing += 1
            both_float = all(isinstance(x, float) and math.isfinite(x) for x in (a, b))
            same_sign = both_float and math.copysign(1.0, a) == math.copysign(1.0, b)
            distance = f", {ulps(a, b)} ulps" if same_sign else ""
            print(f"{name} {key}: {a!r} -> {b!r}{distance}")
    print(f"{differing} leaves differ in {len(names)} files")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reports", metavar="DIR", help="write the report bodies to DIR")
    parser.add_argument("--library", metavar="DIR", help="write the library results to DIR")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print the leaves that differ between two --reports or --library "
                             "directories")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    for directory in (args.reports, args.library):
        if directory:
            os.makedirs(directory, exist_ok=True)
    print(f"library {library_digest(args.library)}")
    print(f"reports {report_digest(args.reports)}")
    print(f"capacity {capacity_digest()}")


if __name__ == "__main__":
    main()
