import dataclasses

import numpy as np
import pytest

from riskalloc import (InadmissibleKernelError, InvalidArgumentError,
                       RejectedConfigurationError, TerminalClaim, build_grid,
                       build_tree, constant_kernel, driver_entropic,
                       driver_scaled_norm, driver_zero, dual_value,
                       expectation_under_Q, kernel_from_subgradient,
                       make_driver, penalty, rho, sample_paths, solve_tree)
from riskalloc.engine import RevealedClaim
from riskalloc.allocation import QuadratureSpec, make_rule
from riskalloc import measure
from riskalloc.measure import kernel_stack, scenario_average

W = TerminalClaim(lambda w: np.asarray(w, float), label="W")
CALL = TerminalClaim(lambda w: np.maximum(w, 0.0), label="call")


def tree(n, horizon=1.0):
    return build_tree(build_grid(horizon, n))


def test_rho_zero_driver_is_conditional_expectation():
    t = tree(30)
    proc = rho(driver_zero(), W, t)
    for k in range(31):
        assert np.allclose(proc.at(k), -t.states(k), atol=1e-13)


def test_rho_terminal_is_negated_claim():
    t = tree(12)
    proc = rho(driver_entropic(1.0), CALL, t)
    assert np.allclose(proc.at(12), -CALL.on_tree(t))


def test_rho_entropic_linear_claim():
    proc = rho(driver_entropic(1.0), W, tree(200))
    assert proc.initial == pytest.approx(0.5, abs=1e-12)


def test_rho_constant_claim_any_driver():
    t = tree(25)
    c = TerminalClaim(lambda w: np.full(len(w), 0.8), label="c")
    for drv in (driver_zero(), driver_scaled_norm(0.5), driver_entropic(1.0)):
        proc = rho(drv, c, t)
        for vals in proc.values:
            assert np.allclose(vals, -0.8, atol=1e-13)


def test_rho_tree_time_consistency_is_exact():
    # restriction of the recursion: risk of the time-t margin equals risk
    t = tree(60)
    drv = driver_entropic(1.0)
    proc = rho(drv, CALL, t)
    mid = 30
    margin = RevealedClaim(mid, -np.asarray(proc.at(mid), float), None, "-rho_t")
    rolled = rho(drv, margin, t)
    for k in range(mid):
        assert np.max(np.abs(rolled.at(k) - proc.at(k))) < 1e-10


def test_kernel_zero_driver():
    t = tree(10)
    sol = solve_tree(driver_zero(), -W, t)
    kern = kernel_from_subgradient(driver_zero(), sol)
    for q in kern.q:
        assert np.allclose(q, 0.0)
    node, dens = kern.density_paths()
    assert np.allclose(dens, 1.0)


def test_kernel_scaled_norm_linear_claim():
    t = tree(40)
    drv = driver_scaled_norm(0.5)
    sol = solve_tree(drv, -W, t)
    kern = kernel_from_subgradient(drv, sol)
    for q in kern.q:
        assert np.allclose(q, -0.5, atol=1e-13)


def test_kernel_entropic_linear_claim():
    t = tree(40)
    drv = driver_entropic(1.0)
    sol = solve_tree(drv, -W, t)
    kern = kernel_from_subgradient(drv, sol)
    for q in kern.q:
        assert np.allclose(q, -1.0, atol=1e-12)


def test_kernel_rejects_oversized_tilt():
    t = tree(25)
    drv = driver_entropic(0.1)  # q = Z / 0.1 = -10, above 1/sqrt(dt) = 5
    sol = solve_tree(drv, -W, t)
    with pytest.raises(RejectedConfigurationError):
        kernel_from_subgradient(drv, sol)


def test_kernel_requires_matching_driver():
    t = tree(10)
    sol = solve_tree(driver_entropic(1.0), -W, t)
    with pytest.raises(InvalidArgumentError):
        kernel_from_subgradient(driver_entropic(2.0), sol)
    kernel_from_subgradient(driver_entropic(1.0), sol)  # same parameters fine


def test_kernel_rejects_a_solve_of_another_driver_with_the_same_name():
    # drift 0.25 under the name of the drift-0.5 driver: a kernel built
    # from its solve would tilt by 0.5 along controls it did not produce
    t = tree(10)
    impostor = dataclasses.replace(driver_scaled_norm(0.25), name="norm:mu=0.5")
    sol = solve_tree(impostor, -W, t)
    with pytest.raises(InvalidArgumentError, match="matching solve"):
        kernel_from_subgradient(driver_scaled_norm(0.5), sol)
    assert driver_scaled_norm(0.5) is driver_scaled_norm(0.5)
    kernel_from_subgradient(impostor, sol)


def test_density_is_unit_mean_martingale():
    t = tree(8)
    drv = driver_scaled_norm(0.6)
    kern = kernel_from_subgradient(drv, solve_tree(drv, -CALL, t))
    node, dens = kern.density_paths()
    # unit mean at every level under the reference measure
    for k in range(9):
        assert np.mean(dens[:, k]) == pytest.approx(1.0, abs=1e-13)
    assert np.all(dens > 0)
    # martingale: paths share history up to step k when their low bits agree,
    # and the two continuations differ exactly in bit k
    idx = np.arange(dens.shape[0])
    for k in range(8):
        down = idx[(idx >> k) & 1 == 0]
        up = down | (1 << k)
        avg = 0.5 * (dens[down, k + 1] + dens[up, k + 1])
        assert np.max(np.abs(avg - dens[down, k])) < 1e-14


def test_density_telescopes_over_segments():
    # recompute segment products independently from the kernel's tilt factors
    t = tree(6)
    drv = driver_scaled_norm(0.6)
    kern = kernel_from_subgradient(drv, solve_tree(drv, -CALL, t))
    node, dens = kern.density_paths()
    s_level, t_level = 2, 4
    count = dens.shape[0]
    seg = {("start", s_level): np.ones(count), ("start", t_level): np.ones(count)}
    for start in (s_level, t_level):
        prod = np.ones(count)
        for k in range(start, 6):
            ups = (np.arange(count) >> k) & 1
            qk = np.asarray(kern.q[k])[node[:, k]]
            prod = prod * (1.0 + np.where(ups, 1.0, -1.0) * qk * t.sqrt_dt)
        seg[("start", start)] = prod
    l_ts = np.ones(count)
    for k in range(s_level, t_level):
        ups = (np.arange(count) >> k) & 1
        qk = np.asarray(kern.q[k])[node[:, k]]
        l_ts = l_ts * (1.0 + np.where(ups, 1.0, -1.0) * qk * t.sqrt_dt)
    assert np.max(np.abs(seg[("start", s_level)]
                         - seg[("start", t_level)] * l_ts)) < 1e-14


def test_rho_satisfies_measure_axioms_nodewise():
    t = tree(60)
    shift_level = 30
    m = 0.4 * t.states(shift_level)
    zero = TerminalClaim(lambda w: np.zeros(len(w)), label="0")
    bump = TerminalClaim(lambda w: np.exp(-np.asarray(w, float) ** 2),
                         label="bump")
    for drv in (driver_zero(), driver_scaled_norm(0.5), driver_entropic(1.0)):
        # normalization
        for vals in rho(drv, zero, t).values:
            assert np.allclose(vals, 0.0, atol=1e-14)
        # monotonicity: call <= call + bump
        lo = rho(drv, CALL, t)
        hi = rho(drv, CALL + bump, t)
        for a, b in zip(lo.values, hi.values):
            assert np.all(b <= a + 1e-12)
        # convexity across a half-half mix
        mix = rho(drv, TerminalClaim(
            lambda w: 0.5 * np.maximum(w, 0.0) + 0.5 * np.asarray(w, float),
            label="mix"), t)
        left, right = rho(drv, CALL, t), rho(drv, W, t)
        for vm, va, vb in zip(mix.values, left.values, right.values):
            assert np.all(vm <= 0.5 * va + 0.5 * vb + 1e-12)
        # measurable-amount cash additivity through an honest revealed solve
        shifted = rho(drv, RevealedClaim(shift_level, m, CALL, "call+m"), t)
        plain = rho(drv, CALL, t)
        got = shifted.values_at_reveal()
        assert np.max(np.abs(got - (plain.at(shift_level) - m))) < 1e-12


def test_constant_kernel_shifts_mean():
    t = tree(50)
    kern = constant_kernel(0.3, t)
    levels = expectation_under_Q(W, kern)
    assert levels[0][0] == pytest.approx(-0.3, abs=1e-12)  # E_Q[-W_T] = -qT
    c = TerminalClaim(lambda w: np.full(len(w), 2.0), label="c")
    for vals in expectation_under_Q(c, kern):
        assert np.allclose(vals, -2.0, atol=1e-13)


def test_constant_kernel_validity():
    with pytest.raises(RejectedConfigurationError):
        constant_kernel(6.0, tree(25))  # 6 * 0.2 >= 1
    paths = sample_paths(build_grid(1.0, 5), 1, 50, seed=3)
    for value, disc in ((np.nan, tree(25)), (np.inf, tree(25)),
                        (np.nan, paths), (-np.inf, paths)):
        with pytest.raises(InvalidArgumentError, match="finite"):
            constant_kernel(value, disc)


def test_penalty_zero_for_coherent():
    t = tree(30)
    drv = driver_scaled_norm(0.5)
    kern = kernel_from_subgradient(drv, solve_tree(drv, -CALL, t))
    pen = penalty(drv, kern)
    for vals in pen.values:
        assert np.allclose(vals, 0.0, atol=1e-15)


def test_penalty_zero_kernel_zero_driver():
    t = tree(10)
    pen = penalty(driver_zero(), constant_kernel(0.0, t))
    assert pen.initial == 0.0


def test_penalty_entropic_constant_kernel():
    t = tree(64)
    lam, q = 1.0, 0.4
    pen = penalty(driver_entropic(lam), constant_kernel(q, t))
    assert pen.initial == pytest.approx(lam * q * q / 2.0, abs=1e-12)


def test_penalty_inadmissible_kernel():
    t = tree(16)
    with pytest.raises(InadmissibleKernelError):
        penalty(driver_scaled_norm(0.5), constant_kernel(0.9, t))


def test_dual_value_attained_by_subgradient_kernel():
    t = tree(100)
    for drv in (driver_scaled_norm(0.5), driver_entropic(1.0)):
        for claim in (W, CALL):
            risk = rho(drv, claim, t)
            kern = kernel_from_subgradient(drv, risk)
            dual = dual_value(drv, claim, kern)
            gap = max(np.max(np.abs(d - r)) for d, r in zip(dual, risk.values))
            assert gap < 1e-10, (drv.name, claim.label, gap)


def test_dual_inequality_over_candidate_kernels():
    t = tree(60)
    drv = driver_scaled_norm(0.5)
    risk = rho(drv, CALL, t)
    rng = np.random.default_rng(10)
    for _ in range(8):
        q = float(rng.uniform(-0.5, 0.5))
        dual = dual_value(drv, CALL, constant_kernel(q, t))
        for d, r in zip(dual, risk.values):
            assert np.all(d <= r + 1e-10)


def test_dual_value_constant_claim():
    t = tree(30)
    drv = driver_entropic(1.0)
    c = TerminalClaim(lambda w: np.full(len(w), 1.1), label="c")
    dual = dual_value(drv, c, constant_kernel(0.25, t))
    risk = rho(drv, c, t)
    for d, r in zip(dual, risk.values):
        assert np.all(d <= r + 1e-12)


def test_path_kernel_density_and_expectation():
    grid = build_grid(1.0, 30)
    paths = sample_paths(grid, 1, 60_000, seed=21)
    drv = driver_entropic(1.0)
    from riskalloc import solve_lsmc
    sol = solve_lsmc(drv, -W, paths)
    kern = kernel_from_subgradient(drv, sol)
    # stochastic exponential stays near unit mean
    assert np.mean(kern.density[-1]) == pytest.approx(1.0, abs=0.02)
    levels = expectation_under_Q(W, kern)
    # optimal scenario for the linear claim has drift -1: E_Q[-W_T] ~ +1
    assert np.mean(levels[0]) == pytest.approx(1.0, abs=0.05)


def test_penalty_on_paths_matches_tree():
    n = 30
    t = tree(n)
    lam, q = 1.0, 0.4
    tree_pen = penalty(driver_entropic(lam), constant_kernel(q, t)).initial
    paths = sample_paths(build_grid(1.0, n), 1, 40_000, seed=4)
    path_pen = penalty(driver_entropic(lam), constant_kernel(q, paths)).initial
    assert path_pen == pytest.approx(tree_pen, rel=0.02)


def _revealed_on_paths():
    paths = sample_paths(build_grid(1.0, 5), 1, 200, seed=3)
    return RevealedClaim(2, np.zeros(3), None), constant_kernel(0.1, paths)


def test_expectation_under_Q_rejects_revealed_claims_on_paths():
    claim, kernel = _revealed_on_paths()
    with pytest.raises(InvalidArgumentError, match="tree-only"):
        expectation_under_Q(claim, kernel)


def test_dual_value_rejects_revealed_claims_on_paths():
    claim, kernel = _revealed_on_paths()
    with pytest.raises(InvalidArgumentError, match="tree-only"):
        dual_value(driver_entropic(1.0), claim, kernel)


def test_scenario_average_rejects_revealed_claims_on_paths():
    claim, kernel = _revealed_on_paths()
    with pytest.raises(InvalidArgumentError, match="tree-only"):
        scenario_average([claim], kernel.stacked(), [(1.0, 0)])


def test_a_scaled_kernel_over_the_bound_raises_its_own_error():
    """The first scaled portfolio whose kernel breaks the lattice bound
    fails the stack with the error of its own kernel, not the largest."""
    t = tree(4)
    ent = driver_entropic(0.3)
    quad = QuadratureSpec(8)
    claims = [W.scale(float(g)) for g in quad.nodes()[0]]
    errors = []
    for claim in claims:
        try:
            kernel_from_subgradient(ent, rho(ent, claim, t))
        except RejectedConfigurationError as exc:
            errors.append(exc)
    assert 2 <= len(errors) < len(claims)
    # as and pas read the kernels level by level as the solve makes them
    for build in (lambda: kernel_stack(ent, claims, t),
                  lambda: make_rule("as", ent, quadrature=quad).allocate(
                      CALL, W, t),
                  lambda: make_rule("pas", ent, quadrature=quad).allocate(
                      CALL, W, t)):
        with pytest.raises(RejectedConfigurationError) as err:
            build()
        assert str(err.value) == str(errors[0])
        assert err.value.detail == errors[0].detail


def test_a_pass_its_reader_stops_still_meets_the_lattice_bound():
    """A scaled kernel that breaks the lattice bound only near time 0 fails
    a scenario-averaged pass whose reader stops at its first level with
    the error ``kernel_stack`` raises, as when the stack was built first."""
    steep = lambda t: 1.0 + 40.0 * (1.0 - np.asarray(t, float)) ** 8
    sq = lambda x: np.sum(x * x, axis=-1)
    drv = make_driver("steep", lambda t, z: steep(t) * sq(z) / 2.0,
                      lambda t, z: steep(t)[..., None] * z,
                      lambda t, q: sq(q) / (2.0 * steep(t)))
    t, quad = tree(4), QuadratureSpec(8)
    with pytest.raises(RejectedConfigurationError) as stored:
        kernel_stack(drv, [W.scale(float(g)) for g in quad.nodes()[0]], t)

    class Stop(Exception):
        pass

    def stop(k, level, rows):
        raise Stop

    with pytest.raises(RejectedConfigurationError) as err:
        make_rule("as", drv, quadrature=quad).allocate_stack([CALL], W, t,
                                                             reduce=stop)
    assert str(err.value) == str(stored.value)
    assert err.value.detail == stored.value.detail


def test_an_ensemble_dual_value_is_one_sweep_of_both_targets(monkeypatch):
    """On ensembles the expected loss and the penalty share one weighted
    regression sweep, and the dual value is their difference bit for bit."""
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=8)
    ent = driver_entropic(1.0)
    kernel = kernel_from_subgradient(ent, rho(ent, W, paths))
    expect = expectation_under_Q(CALL, kernel)
    pen = penalty(ent, kernel).values
    sweeps = []
    conditional = measure._path_conditional

    def spy(jobs, *args):
        sweeps.append(len(jobs))
        return conditional(jobs, *args)

    monkeypatch.setattr(measure, "_path_conditional", spy)
    dual = dual_value(ent, CALL, kernel)
    assert sweeps == [2]
    assert all(np.array_equal(d, e - p) for d, e, p in zip(dual, expect, pen))


@pytest.mark.parametrize("engine", ["tree", "lsmc"])
def test_a_claim_stack_with_mixed_reveal_levels_is_rejected(engine):
    """One tilted pass serves claims of one reveal level: a stack that mixes
    a plain and a revealed claim, or two reveal levels, is an argument
    error on the lattice; on ensembles revealed claims are rejected."""
    t = tree(10)
    if engine == "tree":
        disc, match = t, "one reveal level"
    else:
        disc, match = sample_paths(build_grid(1.0, 10), 1, 200, seed=3), "tree-only"
    kernel = constant_kernel(0.2, disc).stacked()
    stacks = ([CALL, RevealedClaim(4, 0.1 * t.states(4), CALL)],
              [RevealedClaim(4, t.states(4), None),
               RevealedClaim(6, t.states(6), None)])
    for claims in stacks:
        for driver in (None, driver_entropic(1.0)):
            with pytest.raises(InvalidArgumentError, match=match):
                scenario_average(claims, kernel, [(1.0, 0)], driver)
