"""Block gallery and sampled kernels.

Closed forms recomputed independently inside the tests: the pair equations
``u1 = u2^q s2``, ``u2 = u1^q s1`` are solved by substitution, and every
built solution is pushed through the kernel once to confirm the fixed
point at machine precision.
"""

import math

import numpy as np
import pytest

from potbench import (
    DomainError,
    Measure,
    Space,
    SublinearProblem,
    integrate,
    potential,
    solve_equation,
    strong_type_constant,
)
from potbench import gallery
from potbench.cli import main
from potbench.gallery import (
    BlockSpec,
    SampledKernelSpec,
    build_block,
    build_sampled,
    energy_divergence_threshold,
)


def residual(inst):
    prob = inst.problem
    u = inst.solution
    rhs = potential(prob.kernel, Measure(prob.kernel.space, u**prob.q * prob.sigma.weights))
    return float(np.max(np.abs(u - rhs)))


def test_spec_validation():
    with pytest.raises(DomainError):
        BlockSpec(0, 0.5, ("harmonic",))
    with pytest.raises(DomainError):
        BlockSpec(2, 1.5, ("harmonic",))
    with pytest.raises(DomainError):
        BlockSpec(2, 0.5, ("geometric", 1.5, 1.5))  # needs a < b^q
    with pytest.raises(DomainError):
        BlockSpec(2, 0.5, ("geometric", 0.9, 2.0))  # needs a > 1
    with pytest.raises(DomainError):
        BlockSpec(2, 0.5, ("custom", (1.0, 2.0)))  # wrong length
    with pytest.raises(DomainError):
        BlockSpec(2, 0.5, ("harmonic",), variant="diagonal")


def test_a_negative_geometric_b_is_a_domain_error(capsys):
    # b > 1 is checked before b**q, which is complex for b < 0
    with pytest.raises(DomainError):
        BlockSpec(2, 0.5, ("geometric", 2, -3))
    assert main(["gallery", "--rule", "geometric", "--a", "2", "--b", "-3"]) == 2
    assert "1 < a < b**q" in capsys.readouterr().err


def test_strictly_positive_factor_rides_inside_the_power():
    # 2^{1/(1-q)} alone is past the float range for q >= 0.99903, while this
    # solution fits: its entries lie between 1e184 and 1e260
    q = 0.9991
    inst = build_block(BlockSpec(2, q, ("geometric", 1.1, 1.5), "strictly_positive"))
    zd = build_block(BlockSpec(2, q, ("geometric", 1.1, 1.5)))
    assert np.isfinite(inst.solution).all() and inst.solution.max() > 1e259
    ratio = np.log(inst.solution) - np.log(zd.solution)
    assert ratio == pytest.approx(np.full(4, math.log(2.0) / (1.0 - q)), rel=1e-12)
    # the harmonic rule's first pair reaches 2^{1/(1-q)}, about 1e334
    with pytest.raises(DomainError, match="solution u does not fit a float"):
        build_block(BlockSpec(2, q, ("harmonic",), "strictly_positive"))
    assert main(["gallery", "--rule", "harmonic", "--q", str(q),
                 "--variant", "strictly_positive"]) == 2


def test_unit_block_oracle():
    inst = build_block(BlockSpec(1, 0.5, ("harmonic",)))
    assert inst.solution.tolist() == [1.0, 1.0]
    assert inst.solution_lq_norm == pytest.approx(4.0)
    assert inst.energy_small == pytest.approx(2.0)
    assert inst.divergence_lower == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert inst.divergence_witness.weights.tolist() == [1.0, 1.0]
    assert inst.problem.kernel.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert inst.tag.startswith("blocks:harmonic:zero_diagonal")


def test_geometric_block_closed_form():
    # by substitution: u_odd = (1.1^0.5 * (2/3))^(4/3), u_even mirrors it
    inst = build_block(BlockSpec(1, 0.5, ("geometric", 1.1, 1.5)))
    assert inst.solution[0] == pytest.approx((np.sqrt(1.1) / 1.5) ** (4.0 / 3.0), rel=1e-12)
    assert inst.solution[1] == pytest.approx((1.1 / np.sqrt(1.5)) ** (4.0 / 3.0), rel=1e-12)
    assert residual(inst) <= 1e-15


@pytest.mark.parametrize("rule", [("harmonic",), ("geometric", 1.1, 1.5), ("custom", (0.5, 2.0, 3.0, 0.25))])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.75])
def test_blocks_are_fixed_points(rule, q):
    n = 2 if rule[0] == "custom" else 6
    for variant in ("zero_diagonal", "strictly_positive"):
        inst = build_block(BlockSpec(n, q, rule, variant=variant))
        u = inst.solution
        assert residual(inst) <= 1e-12 * max(1.0, float(u.max()))
        # norm field agrees with direct integration
        direct = integrate(u**q, inst.problem.sigma) ** (1.0 / q)
        assert inst.solution_lq_norm == pytest.approx(direct, rel=1e-12)


def test_strictly_positive_scales():
    inst = build_block(BlockSpec(3, 0.5, ("geometric", 1.1, 1.5), variant="strictly_positive"))
    zd = build_block(BlockSpec(3, 0.5, ("geometric", 1.1, 1.5)))
    assert inst.block_scales is not None
    lo, hi = inst.block_scales
    assert 0 < lo <= hi
    assert inst.solution == pytest.approx(4.0 * zd.solution, rel=1e-12)
    diag = np.diag(inst.problem.kernel.entries)
    assert (diag > 0).all()
    # the enlarged kernel can only enlarge the witness ratio
    assert inst.divergence_lower == pytest.approx(zd.divergence_lower, rel=1e-15)


def test_divergence_ratio_identity():
    # the swapped witness makes both sides of the q-power inequality explicit
    inst = build_block(BlockSpec(5, 0.5, ("geometric", 1.1, 1.5)))
    prob, nu = inst.problem, inst.divergence_witness
    lhs = integrate(potential(prob.kernel, nu) ** prob.q, prob.sigma)
    assert lhs / nu.total**prob.q == pytest.approx(inst.divergence_lower, rel=1e-12)
    # and the strong constant honours it
    est = strong_type_constant(prob, seed=0)
    assert est.lower**prob.q >= inst.divergence_lower * (1.0 - 1e-9)


def test_divergence_monotone_and_unbounded():
    values = [
        build_block(BlockSpec(n, 0.5, ("harmonic",))).divergence_lower
        for n in range(1, 12)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    # harmonic rule: sum sigma^{1/(1-q)} gains a full unit per block
    assert values[-1] > values[0] * 2


def test_solver_agrees_with_closed_form():
    inst = build_block(BlockSpec(4, 0.5, ("geometric", 1.1, 1.5)))
    sol, _ = solve_equation(inst.problem)
    assert sol.status == "solution"
    assert sol.u == pytest.approx(inst.solution, rel=1e-8)


def test_threshold_exact_harmonic():
    spec = BlockSpec(1, 0.5, ("harmonic",))
    rep = energy_divergence_threshold(spec, 3.0)
    assert rep.method == "exact"
    # per-block energy is 2/k for q = 1/2; partial sums 2, 3, ...
    assert rep.n_blocks == 2
    assert rep.value == pytest.approx(3.0)


def test_threshold_geometric_bounded():
    spec = BlockSpec(1, 0.5, ("geometric", 1.1, 1.5))
    rep = energy_divergence_threshold(spec, 1e6)
    assert rep.method == "bounded"
    assert rep.n_blocks is None
    # at q = 1/2 both per-block ratios equal a/b = 11/15, so the full
    # series sums to 2 * (11/15) / (4/15) = 5.5
    assert rep.value == pytest.approx(5.5, rel=1e-12)


def test_threshold_geometric_exact_hit():
    spec = BlockSpec(1, 0.5, ("geometric", 1.1, 1.5))
    rep = energy_divergence_threshold(spec, 2.0)
    assert rep.method == "exact"
    # partial sums of 2 (11/15)^k: 1.466..., 2.542... so the hit is n = 2
    assert rep.n_blocks == 2


def test_threshold_estimate_beyond_budget():
    spec = BlockSpec(1, 0.5, ("harmonic",))
    rep = energy_divergence_threshold(spec, 40.0)
    assert rep.method == "estimate"
    # 2 H_n = 40 around n = exp(19.42...); only the order of magnitude matters
    assert 1e8 < rep.n_blocks < 1e9


@pytest.mark.parametrize("q, target, rel", [(2.0 / 3.0, 10.0, 0.01), (1.0 / 3.0, 100.0, 0.2)])
def test_threshold_harmonic_estimate_off_e_equal_1(monkeypatch, q, target, rel):
    # beyond the budget the partial sums follow log n plus a constant for
    # e = q/(1-q) > 1 and the power law n^(1-e)/(1-e) for e < 1; the exact
    # hit, in reach of the full budget, lies within rel of the estimate
    spec = BlockSpec(1, q, ("harmonic",))
    exact = energy_divergence_threshold(spec, target)
    assert exact.method == "exact" and 1000 < exact.n_blocks < 10_000
    monkeypatch.setattr(gallery, "MAX_EXACT_TERMS", 100)
    rep = energy_divergence_threshold(spec, target)
    assert (rep.method, rep.value) == ("estimate", target)
    assert rep.n_blocks == pytest.approx(exact.n_blocks, rel=rel)


def test_threshold_geometric_estimate_beyond_budget(monkeypatch):
    # the series of 2 (11/15)^k sums to 5.5 and first reaches 5 at k = 8, past
    # a budget of 5 terms: no hit, no value
    spec = BlockSpec(1, 0.5, ("geometric", 1.1, 1.5))
    assert energy_divergence_threshold(spec, 5.0).n_blocks == 8
    monkeypatch.setattr(gallery, "MAX_EXACT_TERMS", 5)
    rep = energy_divergence_threshold(spec, 5.0)
    assert (rep.n_blocks, rep.method, rep.target) == (None, "estimate", 5.0)
    assert math.isnan(rep.value)


def test_threshold_rejects():
    spec = BlockSpec(1, 0.5, ("harmonic",), variant="strictly_positive")
    with pytest.raises(DomainError):
        energy_divergence_threshold(spec, 1.0)
    with pytest.raises(DomainError):
        energy_divergence_threshold(BlockSpec(1, 0.5, ("harmonic",)), -1.0)


def test_custom_threshold():
    spec = BlockSpec(2, 0.5, ("custom", (1.0, 1.0, 1.0, 1.0)))
    rep = energy_divergence_threshold(spec, 3.0)
    assert rep.method == "exact"
    assert rep.n_blocks == 2
    out = energy_divergence_threshold(spec, 5.0)
    assert out.method == "bounded" and out.n_blocks is None


def test_interval_green_kernel():
    spec = SampledKernelSpec(kind="interval_green", n_points=4, coords=(0.2, 0.4, 0.6, 0.8))
    k = build_sampled(spec)
    assert k.entries[0, 2] == pytest.approx(0.2 * 0.4)  # min * (1 - max)
    assert k.entries[1, 1] == pytest.approx(0.4 * 0.6)
    assert k.is_symmetric


def test_riesz_kernel():
    spec = SampledKernelSpec(kind="riesz", n_points=3, alpha=1.0, n_dim=2,
                             coords=((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)))
    k = build_sampled(spec)
    assert k.entries[0, 1] == pytest.approx(1.0)
    assert k.entries[0, 2] == pytest.approx(0.5)
    assert np.isinf(k.entries[0, 0])


def test_sampled_validation():
    with pytest.raises(DomainError):
        SampledKernelSpec(kind="plane", n_points=3)
    with pytest.raises(DomainError):
        SampledKernelSpec(kind="riesz", n_points=3)  # missing alpha
    with pytest.raises(DomainError):
        SampledKernelSpec(kind="riesz", n_points=3, alpha=3.0, n_dim=2)
    with pytest.raises(DomainError):
        build_sampled(SampledKernelSpec(kind="interval_green", n_points=2, coords=(0.5, 0.5)))
    with pytest.raises(DomainError):
        build_sampled(SampledKernelSpec(kind="interval_green", n_points=2, coords=(0.0, 0.5)))


def test_sampled_seed_determinism():
    a = build_sampled(SampledKernelSpec(kind="interval_green", n_points=6, seed=9))
    b = build_sampled(SampledKernelSpec(kind="interval_green", n_points=6, seed=9))
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("rule, message", [
    (("uniform",), "sigma_rule must be geometric, harmonic or custom"),
    ((), "sigma_rule must be geometric, harmonic or custom"),
    (("geometric", 1.1), "geometric rule takes two parameters"),
    (("harmonic", 2.0), "harmonic rule takes no parameters"),
    (("custom",), "custom rule takes one weight sequence"),
    (("custom", [1.0, 0.0, 1.0, 1.0]), "custom weights must be positive and finite"),
    (("custom", [1.0, np.inf, 1.0, 1.0]), "custom weights must be positive and finite"),
])
def test_block_spec_rejects_a_malformed_rule(rule, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        BlockSpec(n_blocks=2, q=0.5, sigma_rule=rule)


@pytest.mark.parametrize("fields, message", [
    ({"kind": "interval_green", "n_points": 0}, "n_points must be a positive integer"),
    ({"kind": "interval_green", "n_points": 2.0}, "n_points must be a positive integer"),
    ({"kind": "interval_green", "n_points": 3, "coords": (0.2, 0.5)},
     r"coords must have shape \(3, 1\)"),
    ({"kind": "riesz", "n_points": 2, "alpha": 1.0, "n_dim": 2, "coords": ((0.1, 0.2),)},
     r"coords must have shape \(2, 2\)"),
    ({"kind": "interval_green", "n_points": 2, "coords": (0.2, np.nan)}, "coords must be finite"),
])
def test_sampled_spec_rejects_malformed_points(fields, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build_sampled(SampledKernelSpec(**fields))


@pytest.mark.parametrize("q, target", [(0.7, 1000.0), (0.5, 1e6), (0.49, 1e40)])
def test_threshold_harmonic_estimate_past_the_float_range(q, target):
    # exp(target - ...) and ((1 - e) target)^(1/(1 - e)) leave the float range:
    # the estimate keeps its target and has no count
    rep = energy_divergence_threshold(BlockSpec(1, q, ("harmonic",)), target)
    assert (rep.n_blocks, rep.method, rep.value) == (None, "estimate", target)


def test_threshold_geometric_first_block_past_the_float_range():
    # r2 = a^e / b with e = q/(1-q) about 1110 is past the float range, so the
    # first block already reaches any target
    rep = energy_divergence_threshold(BlockSpec(1, 0.9991, ("geometric", 2.0, 3.0)), 3.0)
    assert (rep.n_blocks, rep.method, rep.value) == (1, "exact", math.inf)
