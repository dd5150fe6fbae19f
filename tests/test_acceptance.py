"""Workbench-level acceptance gate.

Each test covers one numbered check, prints a single PASS or FAIL line,
and pins its tolerances and instance counts in place.  Three checks rest
on arithmetic worth stating:

  * check 02: the geometric solution-norm partial sums settle at the pair
    ratio 0.8666, so their ten-block move first drops below the demanded
    1e-6 from 128 blocks on (it is about 1.1 between 30 and 40 blocks); the
    check measures it between 140 and 150 blocks and ties the builder's
    norms to their closed-form partial sums;
  * check 03: the k^(-12/7) tail moves the harmonic solution-norm series by
    about 8.2e-3 between 10^3 and 10^4 terms but by 5.9e-5 between 10^6 and
    10^7, where the energy series still grows by log 10; that decade is
    evaluated in closed form with scipy's Hurwitz zeta and digamma;
  * check 09: for every exponent the weak constant is the maximum of
    sigma(K)^(1/q) / cap0(K) over subsets K.  Above exponent one a mixture
    of point masses can beat every single column (the kernel [[1, 1/2],
    [1/2, 1]] with unit masses gives 3 sqrt(2)/4 against 1 at exponent 2),
    so the grid search is matched by the subset enumeration, not by the
    best column.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.special import digamma, zeta

from conftest import (
    metric_power_kernel,
    rand_gram_kernel,
    rand_kernel,
    rand_sigma,
)
from potbench import (
    BlockSpec,
    Kernel,
    Measure,
    SampledKernelSpec,
    Space,
    SublinearProblem,
    build_block,
    build_sampled,
    cap0,
    complete_mp_constant,
    content,
    energy,
    energy_criteria,
    gagliardo_supersolution,
    lp_operator_norm,
    modifier,
    modify_kernel,
    monotone_solution,
    potential,
    quasimetric_constant,
    strong_type_constant,
    theorem_report,
    weak_type_constant,
    wiener_cap1,
    wmp_constant,
)
from potbench.sublinear import testing_condition_11 as check_testing_condition


def _verdict(tag: str, ok: bool) -> None:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'}")


def _residual(inst) -> float:
    """Sup-norm of u - G(u^q sigma) for a block instance."""
    prob, u = inst.problem, inst.solution
    mass = u**inst.problem.q * prob.sigma.weights
    rhs = potential(prob.kernel, Measure(prob.kernel.space, mass))
    return float(np.abs(u - rhs).max())


# ---------------------------------------------------------------------------
# 01: paired-block closed forms
# ---------------------------------------------------------------------------


def test_01_block_closed_form_reproduction():
    t0 = time.perf_counter()
    worst_res, worst_rel = 0.0, 0.0
    for q in (0.3, 0.5, 0.75):
        for n in (1, 5, 50):
            for rule in (("geometric", 1.1, 1.5), ("harmonic",)):
                inst = build_block(BlockSpec(n, q, rule))
                worst_res = max(worst_res, _residual(inst))
                sig = inst.problem.sigma.weights
                odd, even = sig[0::2], sig[1::2]
                ref = np.empty(2 * n)
                ref[0::2] = (odd**q * even) ** (1.0 / (1.0 - q * q))
                ref[1::2] = (odd * even**q) ** (1.0 / (1.0 - q * q))
                rel = float(np.abs(inst.solution - ref).max() / ref.max())
                worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-12 and worst_rel <= 1e-12 and elapsed < 1.0
    _verdict("01 block closed forms", ok)
    assert worst_res <= 1e-12, f"fixed-point residual {worst_res}"
    assert worst_rel <= 1e-12, f"closed-form mismatch {worst_rel}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 02: geometric rule at desk scale
# ---------------------------------------------------------------------------


def test_02_geometric_divergence_at_desk_scale():
    q, a, b = 0.5, 1.1, 1.5
    t0 = time.perf_counter()
    insts = [build_block(BlockSpec(n, q, ("geometric", a, b))) for n in range(1, 151)]
    div = np.array([inst.divergence_lower for inst in insts])
    norms = np.array([inst.solution_lq_norm for inst in insts])
    crossed = bool((div >= 10.0 * div[0]).any())
    norm_move = float(abs(norms[149] - norms[139]))
    elapsed = time.perf_counter() - t0
    # the q-th power of the norm is the partial sum of r1^k + r2^k over the
    # blocks, with the pair ratios r1 = (a b^-q)^(1/(1-q^2)) = 0.8666 and
    # r2 = (a^q / b)^(1/(1-q^2)) = 0.6206, so the norms rise to a finite limit
    r1 = (a * b**-q) ** (1.0 / (1.0 - q * q))
    r2 = (a**q / b) ** (1.0 / (1.0 - q * q))
    k = np.arange(1, 151)
    partial = np.cumsum(r1**k + r2**k) ** (1.0 / q)
    limit = (r1 / (1.0 - r1) + r2 / (1.0 - r2)) ** (1.0 / q)
    closed_rel = float(np.abs(norms / partial - 1.0).max())
    ok = ((np.diff(div) > 0).all() and crossed and norm_move < 1e-6 and elapsed < 1.0
          and closed_rel <= 1e-12 and (norms < limit).all())
    _verdict("02 geometric desk scale", ok)
    assert (np.diff(div) > 0).all(), "divergence ratio must grow with the truncation"
    assert crossed, f"never reached 10x the first value, max {div.max() / div[0]:.2f}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert closed_rel <= 1e-12, f"norms differ from the closed-form partial sums by {closed_rel}"
    assert (norms < limit).all(), f"norm {norms.max()} above the limit {limit}"
    assert norm_move < 1e-6, (
        f"norm partial sums moved by {norm_move:.2e} between 140 and 150 blocks; "
        f"the pair ratio {r1:.4f} brings the ten-block move below 1e-6 "
        "from 128 blocks on")


# ---------------------------------------------------------------------------
# 03: harmonic rule dichotomy
# ---------------------------------------------------------------------------


def _harmonic_sums(q: float, n: int) -> tuple[float, float]:
    """Direct partial sums of the norm series and the energy series."""
    k = np.arange(1, n + 1, dtype=float)
    norm_q = float(np.sum(k ** (-q / (1 - q * q)) + k ** (-1.0 / (1 - q * q))))
    energy_q = float(np.sum(k ** (-q / (1 - q)) + 1.0 / k))
    return norm_q, energy_q


def _harmonic_growth(q: float, lo: int, hi: int) -> tuple[float, float]:
    """Growth of the norm and energy series over the terms ``lo < k <= hi``,
    in closed form by the Hurwitz zeta function and the digamma function."""
    s1, s2, s3 = q / (1 - q * q), 1.0 / (1 - q * q), q / (1 - q)
    norm_q = zeta(s1, lo + 1) - zeta(s1, hi + 1) + zeta(s2, lo + 1) - zeta(s2, hi + 1)
    energy_q = digamma(hi + 1) - digamma(lo + 1) + zeta(s3, lo + 1) - zeta(s3, hi + 1)
    return float(norm_q), float(energy_q)


def test_03_harmonic_dichotomy_at_desk_scale():
    q = 0.75
    t0 = time.perf_counter()
    inst = build_block(BlockSpec(1000, q, ("harmonic",)))
    norm_small, energy_small = _harmonic_sums(q, 1000)
    norm_big, energy_big = _harmonic_sums(q, 10_000)
    # the builder's closed forms and the direct sums must be the same series
    assert inst.solution_lq_norm**q == pytest.approx(norm_small, rel=1e-10)
    assert inst.energy_small == pytest.approx(energy_small, rel=1e-10)
    # and the zeta/digamma growth must match the direct sums on (10^3, 10^4]
    near = _harmonic_growth(q, 1000, 10_000)
    assert near[0] == pytest.approx(norm_big - norm_small, rel=1e-10)
    assert near[1] == pytest.approx(energy_big - energy_small, rel=1e-10)
    # over (10^6, 10^7] the energy series still grows by log(10) while the
    # k^(-12/7) tail of the norm series has shrunk to about 5.9e-5
    norm_move, energy_growth = _harmonic_growth(q, 10**6, 10**7)
    elapsed = time.perf_counter() - t0
    ok = energy_growth > 2.0 and norm_move < 1e-4 and elapsed < 1.0
    _verdict("03 harmonic dichotomy", ok)
    assert energy_growth > 2.0, f"energy series grew only {energy_growth:.3f}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert norm_move < 1e-4, (
        f"norm series moved by {norm_move:.2e} between 1e6 and 1e7 terms; "
        "the k^(-12/7) tail integrates to about 5.9e-5 on that range")


# ---------------------------------------------------------------------------
# 04: the two capacity programs are dual
# ---------------------------------------------------------------------------


def test_04_capacity_duality_on_random_kernels():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    checked = 0
    for i in range(120):
        n = int(rng.integers(2, 11))
        kernel = rand_kernel(rng, n, zero_frac=(0.0, 0.2, 0.4)[i % 3])
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[int(rng.integers(n))] = True
        a = cap0(kernel, mask).value
        b = content(kernel, mask).value
        if np.isinf(a) or np.isinf(b):
            assert a == b, f"instance {i}: one-sided blowup {a} vs {b}"
        else:
            assert abs(a - b) <= 1e-8 * max(1.0, a), \
                f"instance {i}: cap0={a!r} content={b!r}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 100 and elapsed < 10.0
    _verdict("04 capacity duality", ok)
    assert checked >= 100
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 05: equilibrium certificates on positive semidefinite kernels
# ---------------------------------------------------------------------------


def _enumerate_wiener(A: np.ndarray) -> float:
    """Best value of 2 lam(K) - E(lam) over all supports, by linear solves."""
    m = A.shape[0]
    best = 0.0
    for r in range(1, m + 1):
        for T in itertools.combinations(range(m), r):
            sub = A[np.ix_(T, T)]
            try:
                z = np.linalg.solve(sub, np.ones(r))
            except np.linalg.LinAlgError:
                z, *_ = np.linalg.lstsq(sub, np.ones(r), rcond=None)
            if (z < -1e-9).any():
                continue
            z = np.clip(z, 0.0, None)
            best = max(best, float(2.0 * z.sum() - z @ sub @ z))
    return best


def test_05_equilibrium_certificates_on_gram_kernels():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    for i in range(100):
        n = int(rng.integers(3, 10))
        kernel = rand_gram_kernel(rng, n)
        size = int(rng.integers(2, min(n, 6) + 1))
        pts = tuple(rng.choice(n, size=size, replace=False).tolist())
        labels = tuple(kernel.space.points[j] for j in pts)
        res = wiener_cap1(kernel, labels)
        assert res.method == "qp" and res.attained, f"instance {i}: {res.method}"
        certs = res.certificates
        assert certs.max_potential_on_support <= 1.0 + 1e-8, f"instance {i}"
        assert certs.below_one_capacity <= 1e-8, f"instance {i}: {certs.below_one_set}"
        assert certs.off_equality_mass <= 1e-8, f"instance {i}"
        lam = res.extremal
        e = energy(kernel, lam)
        tol = 1e-8 * max(1.0, res.value)
        assert abs(e - lam.total) <= tol, f"instance {i}: E={e} mass={lam.total}"
        assert abs(e - res.value) <= tol, f"instance {i}: E={e} cap={res.value}"
        sub = kernel.entries[np.ix_(pts, pts)]
        enum = _enumerate_wiener(sub)
        assert abs(enum - res.value) <= 1e-8 * max(1.0, res.value), \
            f"instance {i}: enumeration {enum} vs qp {res.value}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _verdict("05 equilibrium certificates", ok)
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 06: singleton capacity is the reciprocal diagonal
# ---------------------------------------------------------------------------


def _gallery_kernels():
    yield build_block(BlockSpec(3, 0.5, ("geometric", 1.1, 1.5))).problem.kernel
    yield build_block(BlockSpec(3, 0.5, ("geometric", 1.1, 1.5),
                                variant="strictly_positive")).problem.kernel
    yield build_block(BlockSpec(4, 0.75, ("harmonic",))).problem.kernel
    yield build_block(BlockSpec(4, 0.75, ("harmonic",),
                                variant="strictly_positive")).problem.kernel
    yield build_sampled(SampledKernelSpec(kind="riesz", n_points=6,
                                          alpha=1.0, n_dim=2, seed=6))
    yield build_sampled(SampledKernelSpec(kind="interval_green", n_points=6, seed=6))


def test_06_singleton_capacity_reciprocal_rule():
    for kernel in _gallery_kernels():
        G = kernel.entries
        for j, label in enumerate(kernel.space.points):
            d = G[j, j]
            if np.isinf(d):
                expected = 0.0
            elif d == 0.0:
                expected = float("inf")
            else:
                expected = 1.0 / d
            got = wiener_cap1(kernel, (label,)).value
            assert got == expected, f"{label}: cap {got!r} vs 1/diag {expected!r}"
    _verdict("06 singleton reciprocal rule", True)


# ---------------------------------------------------------------------------
# 07: strong-type constant round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def round_trip_batch():
    """201 certified instances with their pipeline output, built once."""
    rng = np.random.default_rng(7)
    records = []
    t0 = time.perf_counter()
    for i in range(201):
        n = 3 + i % 6
        power = (0.7, 1.0, 1.5, 2.0, 3.0)[i % 5]
        q = (0.3, 0.5, 0.7)[i % 3]
        kernel = metric_power_kernel(rng, n, power=power,
                                     offset=float(rng.uniform(0.1, 0.6)))
        sigma = rand_sigma(rng, kernel.space)
        prob = SublinearProblem(kernel, sigma, q)
        est = strong_type_constant(prob, seed=i)
        kappa = est.extras["certified_upper"]
        sup = gagliardo_supersolution(prob, kappa)
        sol = monotone_solution(prob, sup.u)
        records.append((prob, est, kappa, sup, sol))
    return records, time.perf_counter() - t0


def test_07_strong_type_round_trip(round_trip_batch):
    records, elapsed = round_trip_batch
    for i, (prob, est, kappa, sup, sol) in enumerate(records):
        assert np.isfinite(est.lower), f"instance {i}: lower bound {est.lower}"
        assert sup.status == "supersolution", f"instance {i}: {sup.status}"
        assert sol.status == "solution", f"instance {i}: {sol.status}"
        assert est.upper >= est.lower - 1e-8, \
            f"instance {i}: upper {est.upper} below lower {est.lower}"
        size_bound = kappa ** (1.0 / (1.0 - prob.q))
        assert sol.lq_norm <= size_bound * (1.0 + 1e-8), \
            f"instance {i}: norm {sol.lq_norm} above {size_bound}"
    ok = len(records) >= 200 and elapsed < 60.0
    _verdict("07 strong-type round trip", ok)
    assert len(records) >= 200
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 08: maximum-principle constants against quasimetric geometry
# ---------------------------------------------------------------------------


def test_08_maximum_principle_bounds():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()

    for i in range(50):
        n = 3 + i % 4
        kernel = metric_power_kernel(rng, n, power=float(rng.uniform(0.6, 3.0)),
                                     offset=float(rng.uniform(0.1, 0.6)))
        qm = quasimetric_constant(kernel)
        assert qm.is_quasimetric, f"one-over-power instance {i}"
        w = wmp_constant(kernel)
        assert w.mode == "exact" and w.holds
        assert w.constant <= 2.0 * qm.kappa * (1.0 + 1e-9), \
            f"instance {i}: wmp {w.constant} vs 2k {2 * qm.kappa}"

    for i in range(50):
        n = 3 + i % 6
        kernel = metric_power_kernel(rng, n, power=float(rng.uniform(0.6, 2.5)),
                                     offset=float(rng.uniform(0.1, 0.6)))
        qm = quasimetric_constant(kernel)
        x0 = kernel.space.points[int(rng.integers(n))]
        mod = modify_kernel(kernel, modifier(kernel, x0))
        qm2 = quasimetric_constant(mod.kernel)
        assert qm2.is_quasimetric, f"modified instance {i}"
        assert qm2.kappa <= 4.0 * qm.kappa**2 * (1.0 + 1e-9), \
            f"instance {i}: modified kappa {qm2.kappa} vs {4 * qm.kappa ** 2}"

    for i in range(50):
        n = 3 + i % 4
        base = rand_gram_kernel(rng, n).entries + 0.05
        kernel = Kernel(Space.of_size(n), (base + base.T) / 2.0)
        comp = complete_mp_constant(kernel)
        assert comp.mode == "exact" and np.isfinite(comp.constant), f"instance {i}"
        x0 = kernel.space.points[int(rng.integers(n))]
        mod = modify_kernel(kernel, modifier(kernel, x0))
        w = wmp_constant(mod.kernel)
        assert w.constant <= comp.constant * (1.0 + 1e-9), \
            f"instance {i}: modified wmp {w.constant} vs h {comp.constant}"

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _verdict("08 maximum-principle bounds", ok)
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 09: weak constants against a simplex grid search
# ---------------------------------------------------------------------------


def _simplex_grid(n: int, mesh: int = 50) -> np.ndarray:
    """All compositions of ``mesh`` into ``n`` parts, plus the vertices."""
    combos = np.array(list(itertools.combinations(range(mesh + n - 1), n - 1)),
                      dtype=np.int64)
    bounds = np.hstack([np.full((combos.shape[0], 1), -1), combos,
                        np.full((combos.shape[0], 1), mesh + n - 1)])
    parts = np.diff(bounds, axis=1) - 1
    return np.vstack([parts.astype(float) / mesh, np.eye(n)])


def _grid_weak_max(G, weights, q, nus, chunk=200_000) -> float:
    """Largest weak norm of a potential over the given unit measures."""
    best = 0.0
    for lo in range(0, nus.shape[0], chunk):
        pots = nus[lo:lo + chunk] @ G.T
        order = np.argsort(-pots, axis=1)
        fs = np.take_along_axis(pots, order, axis=1)
        ss = np.take_along_axis(np.broadcast_to(weights, pots.shape), order, axis=1)
        cums = np.cumsum(ss, axis=1)
        best = max(best, float((fs * cums ** (1.0 / q)).max()))
    return best


def test_09_weak_constant_against_grid_search():
    rng = np.random.default_rng(9)
    t0 = time.perf_counter()
    worst_half, worst_two = 1.0, 1.0
    witness_two = None
    for i in range(40):
        n = 2 + i % 4
        kernel = rand_kernel(rng, n, zero_frac=(0.0, 0.2, 0.4)[i % 3])
        sigma = rand_sigma(rng, kernel.space)
        nus = _simplex_grid(n)
        brute_half = _grid_weak_max(kernel.entries, sigma.weights, 0.5, nus)
        brute_two = _grid_weak_max(kernel.entries, sigma.weights, 2.0, nus)
        c_half = weak_type_constant(SublinearProblem(kernel, sigma, 0.5)).lower
        c_two = weak_type_constant(SublinearProblem(kernel, sigma, 2.0)).lower
        r_half = max(c_half / brute_half, brute_half / c_half)
        r_two = max(c_two / brute_two, brute_two / c_two)
        worst_half = max(worst_half, r_half)
        if r_two > worst_two:
            worst_two, witness_two = r_two, (i, n, c_two, brute_two)
    elapsed = time.perf_counter() - t0
    ok = worst_half <= 1.05 and worst_two <= 1.01 and elapsed < 120.0
    _verdict("09 weak constant vs grid", ok)
    assert worst_half <= 1.05, f"exponent 1/2 disagreement {worst_half:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    assert worst_two <= 1.01, (
        f"exponent 2 disagreement {worst_two:.4f} at {witness_two}; the subset "
        "constant max sigma(K)^(1/q) / cap0(K) must match a fine grid search")


# ---------------------------------------------------------------------------
# 10: weak, operator and testing constants bound each other
# ---------------------------------------------------------------------------


def test_10_weak_testing_operator_equivalence():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    for i in range(50):
        n = 3 + i % 5
        kernel = metric_power_kernel(rng, n, power=(1.0, 1.5, 2.0)[i % 3],
                                     offset=float(rng.uniform(0.15, 0.6)))
        sigma = rand_sigma(rng, kernel.space)
        wr = wmp_constant(kernel)
        assert wr.holds, f"instance {i}"
        w11 = weak_type_constant(SublinearProblem(kernel, sigma, 1.0)).lower
        t22 = lp_operator_norm(kernel, sigma, 2.0)
        c = check_testing_condition(kernel, sigma).lower
        values = (w11, t22, c)
        assert all(np.isfinite(v) for v in values), f"instance {i}: {values}"
        factor = 8.0 * wr.constant**4
        for a, b in itertools.combinations(values, 2):
            assert a <= factor * b * (1.0 + 1e-9), f"instance {i}: {values}"
            assert b <= factor * a * (1.0 + 1e-9), f"instance {i}: {values}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _verdict("10 constant equivalence", ok)
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 11: quantitative energy inequalities on the round-trip instances
# ---------------------------------------------------------------------------


def test_11_energy_inequalities_on_round_trip_instances(round_trip_batch):
    records, _ = round_trip_batch
    t0 = time.perf_counter()
    small, large = 0, 0
    for i, (prob, est, kappa, sup, sol) in enumerate(records):
        report = energy_criteria(prob, u=sol.u)
        if prob.q <= 0.6:
            check = report.small_exponent_check
            small += 1
        else:
            check = report.finite_measure_check
            assert check["s"] == 1.0 + prob.q
            large += 1
        assert check is not None, f"instance {i}"
        assert check["constant"] == 1.0, f"instance {i}: {check['constant']}"
        assert check["holds"], f"instance {i}: {check}"
    elapsed = time.perf_counter() - t0
    ok = small > 0 and large > 0 and elapsed < 10.0
    _verdict("11 energy inequalities", ok)
    assert small > 0 and large > 0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 12: a dead column forbids solutions, removing it restores them
# ---------------------------------------------------------------------------


def test_12_degenerate_column_dichotomy():
    rng = np.random.default_rng(12)
    kernel = metric_power_kernel(rng, 5, power=1.0, offset=0.3)
    G = kernel.entries.copy()
    G[:, 2] = 0.0
    G[2, :] = 0.0
    dead = Kernel(kernel.space, G)
    sigma = rand_sigma(rng, kernel.space)
    prob = SublinearProblem(dead, sigma, 0.5)

    from potbench import solve_equation

    sol, _ = solve_equation(prob)
    report = theorem_report(prob, seed=0)
    row = report.row("degenerate_dichotomy")
    keep = [j for j in range(5) if j != 2]
    trimmed = Kernel(Space.of_size(4), G[np.ix_(keep, keep)])
    trimmed_sigma = Measure(trimmed.space, sigma.weights[keep])
    fixed, _ = solve_equation(SublinearProblem(trimmed, trimmed_sigma, 0.5))

    ok = (sol.status == "degenerate" and row.verdict == "CONFIRMED"
          and "no positive solution" in row.details["conclusion"]
          and fixed.status == "solution")
    _verdict("12 degenerate dichotomy", ok)
    assert sol.status == "degenerate", sol.status
    assert row.verdict == "CONFIRMED", row
    assert "no positive solution" in row.details["conclusion"]
    assert fixed.status == "solution", fixed.status
