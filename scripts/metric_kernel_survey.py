#!/usr/bin/env python3
"""Survey random reciprocal-metric-power kernels.

Draws kernels G = 1/(d + c)^p from random shortest-path metrics, then
records for each instance how the geometry (triangle constant kappa)
controls the analytic side: the maximum-principle constant, the strong
and weak embedding constants, the solution produced by the relaxed
iteration, and the testing constant.  Prints the worst observed margins
for the three structural bounds

  wmp <= 2 kappa,   |u|_q <= kappa_cert^{1/(1-q)},   lower <= upper,

and optionally writes the per-instance table to CSV.

Usage:
  python scripts/metric_kernel_survey.py --count 50 --seed 0
  python scripts/metric_kernel_survey.py --count 200 --n-max 8 --out survey.csv
"""

import argparse
import csv
import sys

import numpy as np

from potbench import (
    Kernel,
    Measure,
    Space,
    SublinearProblem,
    gagliardo_supersolution,
    monotone_solution,
    quasimetric_constant,
    strong_type_constant,
    weak_type_constant,
    wmp_constant,
)
from potbench.gallery import shortest_path_metric


def survey_instance(rng, n, power, q, seed):
    d = shortest_path_metric(rng, n)
    offset = float(rng.uniform(0.1, 0.6))
    kernel = Kernel(Space.of_size(n), 1.0 / (d + offset) ** power)
    sigma = Measure(kernel.space, rng.uniform(0.2, 1.5, size=n))
    problem = SublinearProblem(kernel, sigma, q)

    qm = quasimetric_constant(kernel)
    wr = wmp_constant(kernel)
    est = strong_type_constant(problem, seed=seed)
    kappa = est.extras["certified_upper"]
    sup = gagliardo_supersolution(problem, kappa)
    sol = monotone_solution(problem, sup.u)
    weak = weak_type_constant(problem)

    return {
        "n": n, "power": power, "q": q, "offset": round(offset, 4),
        "kappa_triangle": qm.kappa,
        "wmp": wr.constant,
        "wmp_margin": wr.constant / (2.0 * qm.kappa),
        "strong_lower": est.lower,
        "strong_upper": est.upper,
        "certified": kappa,
        "solution_status": sol.status,
        "solution_norm": sol.lq_norm,
        "size_margin": sol.lq_norm / kappa ** (1.0 / (1.0 - q)),
        "weak_lower": weak.lower,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional CSV path")
    args = p.parse_args(argv if argv is not None else sys.argv[1:])

    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.count):
        n = 3 + i % max(1, args.n_max - 2)
        power = (0.7, 1.0, 1.5, 2.0, 3.0)[i % 5]
        q = (0.3, 0.5, 0.7)[i % 3]
        rows.append(survey_instance(rng, n, power, q, seed=args.seed + i))

    solved = sum(r["solution_status"] == "solution" for r in rows)
    print(f"{len(rows)} instances, {solved} solved")
    print(f"worst wmp / (2 kappa)        : "
          f"{max(r['wmp_margin'] for r in rows):.4f}")
    print(f"worst |u|_q / size bound     : "
          f"{max(r['size_margin'] for r in rows):.4f}")
    gap = max(r["strong_lower"] / r["strong_upper"] for r in rows
              if np.isfinite(r["strong_upper"]))
    print(f"worst lower / upper          : {gap:.4f}")
    loosest = max(rows, key=lambda r: r["strong_upper"] / r["strong_lower"]
                  if np.isfinite(r["strong_upper"]) else 0.0)
    print(f"loosest two-sided bracket    : [{loosest['strong_lower']:.4f}, "
          f"{loosest['strong_upper']:.4f}] at n={loosest['n']} "
          f"p={loosest['power']} q={loosest['q']}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
