import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from riskalloc import (GirsanovKernel, InadmissibleKernelError,
                       InvalidArgumentError, QuadratureSpec, RevealedClaim,
                       SolveCache, TerminalClaim, averaged_density,
                       build_grid, build_tree, car_aumann_shapley,
                       car_from_alloc_driver, car_gradient, car_marginal,
                       car_penalized_as, car_subdifferential, constant_kernel,
                       driver_entropic, driver_scaled_norm, driver_zero,
                       entropic_gradient_car, expectation_under_Q,
                       kernel_from_subgradient, make_driver, make_rule,
                       RejectedConfigurationError, penalty, rho,
                       sample_paths, solve_lsmc)
from riskalloc.drivers import (alloc_driver_entropic_drift,
                               alloc_driver_entropic_two_level,
                               alloc_driver_gradient, alloc_driver_marginal,
                               alloc_driver_subdiff)
from riskalloc.allocation import RULE_NAMES, RULES, CarRule
from riskalloc import allocation, engine, measure
from riskalloc.engine import BasisSpec, band, solve_alloc_lsmc, solve_alloc_tree

W = TerminalClaim(lambda w: np.asarray(w, float), label="W")
CALL = TerminalClaim(lambda w: np.maximum(w, 0.0), label="call")
HALF = TerminalClaim(lambda w: 0.5 * np.asarray(w, float), label="W/2")


def tree(n, horizon=1.0):
    return build_tree(build_grid(horizon, n))


def levels_gap(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def test_diagonal_identity_for_full_rules():
    t = tree(100)
    ent = driver_entropic(1.0)
    risk = rho(ent, CALL, t)
    for proc in (
        car_subdifferential(ent, CALL, CALL, t),
        car_marginal(ent, CALL, CALL, t),
        car_from_alloc_driver(alloc_driver_entropic_drift(1.0, 2.0), CALL, CALL, t),
        car_from_alloc_driver(alloc_driver_entropic_two_level(1.0, 2.0), CALL,
                              CALL, t),
    ):
        assert levels_gap(proc.values, risk.values) < 1e-10, proc.metadata["rule"]


def test_diagonal_controls_coincide():
    t = tree(80)
    ent = driver_entropic(1.0)
    proc = car_subdifferential(ent, CALL, CALL, t)
    base = proc.base_solution
    for a, b in zip(proc.controls, base.controls):
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-12


def test_gradient_euler_identity_for_coherent():
    t = tree(150)
    norm = driver_scaled_norm(0.5)
    proc = car_gradient(norm, CALL, CALL, t)
    risk = rho(norm, CALL, t)
    assert levels_gap(proc.values, risk.values) < 1e-10


def test_gradient_exceeds_rho_for_entropic():
    t = tree(100)
    ent = driver_entropic(1.0)
    proc = car_gradient(ent, W, W, t)
    risk = rho(ent, W, t)
    for a, b in zip(proc.values, risk.values):
        assert np.all(a >= b - 1e-12)
    assert proc.initial > risk.initial + 0.1


def test_gradient_matches_exponential_tilt_oracle():
    t = tree(200)
    proc = car_gradient(driver_entropic(1.0), CALL, W, t)
    oracle = entropic_gradient_car(1.0, CALL, W, t)
    assert levels_gap(proc.values, oracle) < 1e-2


def test_gradient_lsmc_matches_normal_cdf_closed_form():
    # E[-max(W,0) e^{-W}] / E[e^{-W}] for a standard normal endpoint
    phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    cdf_m1 = 0.5 * math.erfc(1 / math.sqrt(2))
    closed = -(phi1 - cdf_m1)
    paths = sample_paths(build_grid(1.0, 50), 1, 100_000, seed=42)
    ent = driver_entropic(1.0)
    zy = solve_lsmc(ent, -W, paths).controls
    proc = solve_alloc_lsmc(alloc_driver_gradient(ent), CALL, zy, paths)
    assert proc.initial == pytest.approx(closed, rel=0.02)


def test_subdiff_routes_agree():
    t = tree(100)
    for drv in (driver_entropic(1.0), driver_scaled_norm(0.5)):
        a = car_subdifferential(drv, HALF, W, t, route="bsde")
        b = car_subdifferential(drv, HALF, W, t, route="dual")
        assert levels_gap(a.values, b.values) < 1e-9


def test_subdiff_portfolio_margin_identity():
    # allocation = portfolio risk minus the tilted loss of the remainder
    t = tree(100)
    for drv in (driver_entropic(1.0), driver_scaled_norm(0.5)):
        proc = car_subdifferential(drv, CALL, W, t)
        risk_y = rho(drv, W, t)
        kern = kernel_from_subgradient(drv, risk_y)
        remainder = expectation_under_Q(W - CALL, kern)
        recon = [r - e for r, e in zip(risk_y.values, remainder)]
        assert levels_gap(proc.values, recon) < 1e-9


def test_subdiff_zero_position_coherent():
    t = tree(80)
    norm = driver_scaled_norm(0.5)
    zero = TerminalClaim(lambda w: np.zeros(len(w)), label="0")
    proc = car_subdifferential(norm, zero, CALL, t)
    for vals in proc.values:
        assert np.allclose(vals, 0.0, atol=1e-13)


def test_marginal_identities():
    t = tree(80)
    ent = driver_entropic(1.0)
    assert levels_gap(car_marginal(ent, CALL, CALL, t).values,
                      rho(ent, CALL, t).values) < 1e-12
    zero = TerminalClaim(lambda w: np.zeros(len(w)), label="0")
    proc = car_marginal(ent, zero, CALL, t)
    for vals in proc.values:
        assert np.allclose(vals, 0.0, atol=1e-13)
    linear = car_marginal(driver_zero(), CALL, W, t)
    reference = rho(driver_zero(), CALL, t)
    assert levels_gap(linear.values, reference.values) < 1e-13


def test_marginal_difference_equals_driver_route():
    t = tree(100)
    for drv in (driver_entropic(1.0), driver_scaled_norm(0.5)):
        diff_route = car_marginal(drv, CALL, W, t)
        bsde_route = car_from_alloc_driver(alloc_driver_marginal(drv), CALL, W, t)
        assert levels_gap(diff_route.values, bsde_route.values) < 1e-9


def test_drift_rule_matches_constant_kernel_expectation():
    t = tree(100)
    c = 2.0
    proc = car_from_alloc_driver(alloc_driver_entropic_drift(1.0, c), CALL, W, t)
    risk_y = rho(driver_entropic(1.0), W, t)
    tilt = expectation_under_Q(W - CALL, constant_kernel(c, t))
    recon = [r - e for r, e in zip(risk_y.values, tilt)]
    assert levels_gap(proc.values, recon) < 1e-10


def test_all_rules_coincide_for_linear_driver():
    b = 0.3

    def conjugate(t, q):
        ok = np.sqrt(np.sum((q - b) ** 2, axis=-1)) <= 1e-12
        return np.where(ok, 0.0, np.inf)

    # Euclidean Lipschitz constant of z -> b * sum(z) is b * sqrt(d); the
    # probes exercise d = 2
    linear = make_driver("linear", lambda t, z: b * np.sum(z, axis=-1),
                         lambda t, z: np.full_like(z, b), conjugate,
                         lipschitz=b * math.sqrt(2))
    t = tree(80)
    grad = car_gradient(linear, CALL, W, t)
    sub = car_subdifferential(linear, CALL, W, t)
    marg = car_marginal(linear, CALL, W, t)
    assert levels_gap(grad.values, sub.values) < 1e-10
    assert levels_gap(sub.values, marg.values) < 1e-10


def test_aumann_shapley_collapses_for_coherent():
    t = tree(100)
    norm = driver_scaled_norm(0.5)
    aus = car_aumann_shapley(norm, CALL, W, t)
    sub = car_subdifferential(norm, CALL, W, t)
    assert levels_gap(aus.values, sub.values) < 1e-10


def test_aumann_shapley_diagonal_identity_entropic():
    t = tree(100)
    ent = driver_entropic(1.0)
    for y in (W, CALL):
        aus = car_aumann_shapley(ent, y, y, t, QuadratureSpec(32))
        risk = rho(ent, y, t)
        assert levels_gap(aus.values, risk.values) < 1e-4, y.label


def test_aumann_shapley_zero_position():
    t = tree(60)
    zero = TerminalClaim(lambda w: np.zeros(len(w)), label="0")
    aus = car_aumann_shapley(driver_entropic(1.0), zero, W, t)
    for vals in aus.values:
        assert np.allclose(vals, 0.0, atol=1e-12)


def test_penalized_as_equals_as_for_coherent():
    t = tree(80)
    norm = driver_scaled_norm(0.5)
    aus = car_aumann_shapley(norm, CALL, W, t)
    pas = car_penalized_as(norm, CALL, W, t)
    assert levels_gap(aus.values, pas.values) < 1e-12
    assert pas.metadata["audacious"]


def test_penalized_as_no_undercut():
    t = tree(80)
    ent = driver_entropic(1.0)
    for x in (W, CALL, HALF):
        pas = car_penalized_as(ent, x, W, t)
        risk = rho(ent, x, t)
        for a, b in zip(pas.values, risk.values):
            assert np.all(a <= b + 1e-9)


def test_penalized_as_gives_away_the_penalty():
    # diagonal of the penalized average for the Brownian endpoint misses
    # the risk by the integrated scenario penalties: T / (6 lam)
    t = tree(100)
    lam = 1.0
    pas = car_penalized_as(driver_entropic(lam), W, W, t)
    risk = rho(driver_entropic(lam), W, t)
    assert risk.initial - pas.initial == pytest.approx(1.0 / (6 * lam), abs=1e-6)


def test_averaged_density_exposed():
    t = tree(8)
    aus = car_aumann_shapley(driver_entropic(1.0), CALL, W, t, QuadratureSpec(8))
    node, dens = averaged_density(aus)
    assert dens.shape == (2 ** 8, 9)
    for k in range(9):
        assert np.mean(dens[:, k]) == pytest.approx(1.0, abs=1e-12)


def test_averaged_density_rejects_a_deep_tree_before_any_solve(monkeypatch):
    """A lattice set holds no kernels, so ``averaged_density`` solves them
    again; on a tree too deep to expand it raises before that solve."""
    aus = car_aumann_shapley(driver_entropic(1.0), CALL, W, tree(20),
                             QuadratureSpec(8))

    def no_solve(*args, **kwargs):
        raise AssertionError("the kernels were solved")

    monkeypatch.setattr(allocation, "kernel_stack", no_solve)
    with pytest.raises(RejectedConfigurationError, match="path expansion"):
        averaged_density(aus)


@pytest.mark.parametrize("driver,expansions", [(driver_scaled_norm(0.5), 1),
                                               (driver_entropic(1.0), 32)])
def test_averaged_density_expands_each_distinct_kernel_once(driver, expansions,
                                                            monkeypatch):
    expand = GirsanovKernel.density_paths
    calls = []

    def counted(self):
        calls.append(self)
        return expand(self)

    aus = car_aumann_shapley(driver, CALL, W, tree(8))
    monkeypatch.setattr(GirsanovKernel, "density_paths", counted)
    averaged_density(aus)
    assert len(calls) == expansions


def test_rules_respect_diagonal_gate():
    with pytest.raises(InvalidArgumentError):
        car_from_alloc_driver(alloc_driver_gradient(driver_entropic(1.0)),
                              W, W, tree(20))


def test_make_rule_unknown_name():
    with pytest.raises(InvalidArgumentError):
        make_rule("frontier", driver_zero())


def test_rule_catalog_builds_each_rule_from_its_entry():
    ent = driver_entropic(1.0)
    assert RULE_NAMES == tuple(RULES) == ("grad", "subdiff", "marginal", "as",
                                          "pas")
    for name in RULE_NAMES:
        rule = make_rule(name, ent)
        assert rule.audacious == RULES[name].audacious
        assert (rule.alloc_driver is not None) == (RULES[name].alloc is not None)
    # the dual route runs the table body and builds no allocation driver
    assert make_rule("subdiff", ent, route="dual").alloc_driver is None
    with pytest.raises(InvalidArgumentError):
        make_rule("subdiff", ent, route="primal")
    with pytest.raises(InvalidArgumentError):
        car_subdifferential(ent, CALL, W, tree(8), route="primal")
    # a rule with neither a table body nor an allocation driver, or on the
    # bsde route without its driver
    for rule in (CarRule("grad", ent), CarRule("subdiff", ent)):
        with pytest.raises(InvalidArgumentError):
            rule.allocate(CALL, W, tree(8))
    with pytest.raises(InvalidArgumentError):
        CarRule("frontier", ent).allocate(CALL, W, tree(8))


def test_subdifferentiable_drivers_support_the_allocation():
    # When the allocation driver has a z-subgradient, the scenario it
    # selects along a solve supports the allocation map: for every claim H,
    #   alloc(H; Y) >= alloc(X; Y) + E_Q[-(H - X)]
    # with Q built from the subgradient along (Z^{X,Y}, Z^Y).  Exact on the
    # lattice under the stability margin.
    from riskalloc.measure import GirsanovKernel

    t = tree(80)
    ent = driver_entropic(1.0)
    others = [W, HALF, CALL, TerminalClaim(lambda w: np.abs(w), label="abs"),
              TerminalClaim(lambda w: np.exp(-np.asarray(w, float) ** 2),
                            label="bump")]
    # the increment driver is concave in z: no subgradient selection exists
    assert not alloc_driver_marginal(ent).subdifferentiable

    for alloc in (alloc_driver_subdiff(ent),
                  alloc_driver_gradient(ent),
                  alloc_driver_entropic_drift(1.0, 0.8),
                  alloc_driver_entropic_two_level(1.0, 2.0)):
        assert alloc.subdifferentiable
        rule = CarRule(f"custom:{alloc.name}", alloc.base, alloc_driver=alloc)
        at_x = rule.allocate(CALL, W, t)
        zy = at_x.base_solution.controls
        times = t.grid.times
        q = [alloc.subgradient_z(times[k],
                                 np.asarray(at_x.controls[k])[..., None],
                                 np.asarray(zy[k])[..., None])[..., 0]
             for k in range(t.grid.steps)]
        kernel = GirsanovKernel(q, t)
        for h in others:
            at_h = rule.allocate(h, W, t)
            support = expectation_under_Q(h - CALL, kernel)
            for lhs, base, tilt in zip(at_h.values, at_x.values, support):
                assert np.all(lhs >= base + tilt - 1e-10), (alloc.name, h.label)


def test_aumann_shapley_time_consistent_for_coherent():
    # positive homogeneity makes every scaled scenario the same, so the
    # scaling average inherits the subdifferential rule's recursivity
    from riskalloc.harness import check_axiom, default_corpus

    rep = check_axiom("tc1", "as", driver_scaled_norm(0.5), default_corpus(),
                      tree(60))
    assert rep.passed, rep.to_record()


def test_lsmc_allocation_routes_consistent():
    paths = sample_paths(build_grid(1.0, 40), 1, 50_000, seed=12)
    ent = driver_entropic(1.0)
    a = car_subdifferential(ent, HALF, W, paths, BasisSpec(), route="bsde")
    b = car_subdifferential(ent, HALF, W, paths, BasisSpec(), route="dual")
    assert a.initial == pytest.approx(b.initial, abs=0.02)


def _kernel_sum(driver, sub, kernels, weights, penalized):
    """Reference: sum_g w_g (E_g - P_g), kernel by kernel, in quadrature order."""
    total = None
    for w, kernel in zip(weights, kernels):
        levels = expectation_under_Q(sub, kernel)
        if penalized:
            pen = penalty(driver, kernel).values
            levels = [e - band(c, k, sub.level)
                      for k, (e, c) in enumerate(zip(levels, pen))]
        contrib = [w * v for v in levels]
        total = contrib if total is None else [a + b for a, b in zip(total, contrib)]
    return total


@pytest.mark.parametrize("name", ["as", "pas"])
@pytest.mark.parametrize("driver", [driver_entropic(1.0), driver_scaled_norm(0.5)],
                         ids=["entropic", "norm"])
@pytest.mark.parametrize("terminal", [None, CALL], ids=["amount", "call+amount"])
def test_scenario_rules_on_a_revealed_sub_position_equal_the_kernel_sum(
        name, driver, terminal):
    t = tree(12)
    quad = QuadratureSpec(5)
    sub = RevealedClaim(5, np.linspace(-1.0, 1.0, 6), terminal, "m")
    proc = make_rule(name, driver, quadrature=quad).allocate(sub, W, t)
    gammas, weights = quad.nodes()
    scales = [1.0] * len(gammas) if driver.positively_homogeneous else gammas
    # kernels solved afresh, apart from the rule's scenario set
    kernels = [kernel_from_subgradient(driver, rho(driver, W.scale(float(g)), t))
               for g in scales]
    expected = _kernel_sum(driver, sub, kernels, weights, name == "pas")
    assert proc.reveal == 5
    for got, want in zip(proc.values, expected):
        assert np.array_equal(got, want)


def _allocations(rules, pairs, disc, basis, shared):
    cache = SolveCache(disc, basis) if shared else None
    return [rule.allocate(sub, port, disc, basis, cache=cache).values
            for rule in rules for sub, port in pairs]


@pytest.mark.parametrize("engine", ["tree", "lsmc"])
def test_shared_cache_changes_no_float(engine):
    ent = driver_entropic(1.0)
    if engine == "tree":
        disc, basis = tree(24), None
    else:
        disc, basis = sample_paths(build_grid(1.0, 6), 1, 600, seed=5), BasisSpec()
    quad = QuadratureSpec(4)
    rules = [make_rule(n, ent, quadrature=quad)
             for n in ("grad", "subdiff", "marginal", "as", "pas")]
    rules.append(make_rule("subdiff", ent, route="dual"))
    pairs = [(CALL, W), (HALF, W), (W, W), (HALF, CALL)]
    shared = _allocations(rules, pairs, disc, basis, shared=True)
    fresh = _allocations(rules, pairs, disc, basis, shared=False)
    for a, b in zip(shared, fresh):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("name", ["grad", "subdiff", "marginal", "as", "pas"])
def test_allocate_stack_equals_single_allocations(name):
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=8)
    ent = driver_entropic(1.0)
    rule = make_rule(name, ent, quadrature=QuadratureSpec(4))
    subs = [CALL, W, HALF, CALL]
    cache = SolveCache(paths)
    procs = rule.allocate_stack(subs, W, paths, cache=cache)
    assert [p.metadata["sub"] for p in procs] == [s.label for s in subs]
    for sub, proc in zip(subs, procs):
        direct = rule.allocate(sub, W, paths)
        assert len(proc.values) == len(direct.values)
        for a, b in zip(proc.values, direct.values):
            assert np.array_equal(a, b)
    if name in ("grad", "subdiff"):
        # one base solve serves the stack: the portfolio's row of the same
        # pass, the risk solve bit for bit, which the cache does not keep
        assert set(cache._risk) == set()
        base = procs[0].base_solution
        assert all(p.base_solution is base for p in procs)
        assert base.driver is ent and _same_process(base, rho(ent, W, paths))
        assert all(p.metadata.get("route") == ("bsde" if name == "subdiff"
                                               else None) for p in procs)


def test_risk_stack_equals_single_risks_and_fills_the_cache():
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=8)
    ent = driver_entropic(1.0)
    cache = SolveCache(paths)
    held = cache.risk(ent, W)
    claims = [CALL, W, HALF, CALL]
    risks = cache.risks(ent, claims)
    assert risks[1] is held and risks[0] is risks[3]
    assert set(cache._risk) == {(id(ent), id(c)) for c in (W, CALL, HALF)}
    for claim, risk in zip(claims, risks):
        direct = rho(ent, claim, paths)
        for a, b in zip(risk.values + risk.controls,
                        direct.values + direct.controls):
            assert np.array_equal(a, b)


def test_a_reduced_lattice_pass_frees_the_revealed_base_values(monkeypatch):
    t = tree(20)
    rule = make_rule("subdiff", driver_scaled_norm(0.5))
    m = 0.4 * t.states(10)
    port = RevealedClaim(10, m, W, "W+m")
    subs = [RevealedClaim(10, m, CALL, "call+m"), port]
    solves = []
    risk = SolveCache.risk

    def spy(self, driver, claim):
        sol = risk(self, driver, claim)
        solves.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(SolveCache, "risk", spy)
    alive = []

    def reduce(k, level, rows):
        if solves and not alive:
            alive.append(solves[0]() is not None)
        return [float(np.max(row)) for row in level]

    stacks = _count_passes(monkeypatch)
    levels = rule.allocate_stack(subs, port, t, cache=SolveCache(t),
                                 reduce=reduce)
    # the revealed portfolio is a row of the allocation pass: no base solve
    # is made, so none outlives the pass
    assert solves == [] and alive == [] and stacks == [3]
    assert len(levels) == 21 and all(len(level) == 2 for level in levels)
    kept = rule.allocate_stack(subs, port, t)
    for k, level in enumerate(levels):
        assert level == [float(np.max(proc.values[k])) for proc in kept]


def _same_process(a, b):
    return len(a.values) == len(b.values) and all(
        np.array_equal(u, v) for u, v in zip(a.values + a.controls,
                                             b.values + b.controls))


def _count_passes(monkeypatch):
    """The stack size of every lattice pass from here on."""
    stacks = []
    backward = engine.tree_backward

    def spy(tree_, terminal, *args, **kwargs):
        stacks.append(len(terminal))
        return backward(tree_, terminal, *args, **kwargs)

    monkeypatch.setattr(engine, "tree_backward", spy)
    return stacks


@pytest.mark.parametrize("revealed", [False, True], ids=["plain", "revealed"])
def test_a_lattice_allocation_stack_is_one_pass_of_single_solves(monkeypatch,
                                                                 revealed):
    """A driver-induced rule allocates all its sub-positions in one lattice
    pass, and each row is, in values and controls, bit for bit the
    allocation solve of its sub-position alone."""
    t = tree(20)
    rule = make_rule("subdiff", driver_entropic(1.0))
    base = rule.alloc_driver.base
    if revealed:
        m = 0.4 * t.states(10)
        port = RevealedClaim(10, m, W, "W+m")
        subs = [RevealedClaim(10, m, CALL, "call+m"),
                RevealedClaim(10, -m, HALF, "W/2-m"), port]
    else:
        port, subs = W, [CALL, HALF, W, CALL]
    cache = SolveCache(t)
    z_y = cache.risk(base, port).controls  # held when plain, not when revealed
    stacks = _count_passes(monkeypatch)
    procs = rule.allocate_stack(subs, port, t, cache=cache)
    # a revealed portfolio, not held, is a row of the same pass
    assert stacks == [len(subs) + revealed]
    for sub, proc in zip(subs, procs):
        assert proc.reveal == (10 if revealed else None)
        assert _same_process(proc, solve_alloc_tree(rule.alloc_driver, sub,
                                                    z_y, t))


def test_a_lattice_risk_stack_is_one_pass_of_single_risks(monkeypatch):
    t = tree(20)
    ent = driver_entropic(1.0)
    cache = SolveCache(t)
    held = cache.risk(ent, W)
    neg = -CALL
    claims = [CALL, W, HALF, CALL, neg]
    stacks = _count_passes(monkeypatch)
    risks = cache.risks(ent, claims)
    assert stacks == [3]
    assert risks[1] is held and risks[0] is risks[3]
    assert set(cache._risk) == {(id(ent), id(c)) for c in (W, CALL, HALF, neg)}
    for claim, risk in zip(claims, risks):
        assert _same_process(risk, rho(ent, claim, t))


@pytest.mark.parametrize("name", ["grad", "subdiff"])
def test_a_reduced_ensemble_stack_is_the_reduction_of_single_allocations(name):
    """On an ensemble a driver-induced rule reduces its stack once per
    level, over all rows, as the sweep computes the level (from level N
    down), to what the single allocations reduce to."""
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=8)
    rule = make_rule(name, driver_entropic(1.0))
    subs = [CALL, W, HALF]
    seen = []

    def reduce(k, level, rows):
        seen.append((k, rows))
        return [float(np.sum(row)) for row in level]

    levels = rule.allocate_stack(subs, W, paths, reduce=reduce)
    assert seen == [(k, slice(0, 3)) for k in range(6, -1, -1)]
    singles = [rule.allocate(sub, W, paths) for sub in subs]
    assert levels == [[float(np.sum(s.values[k])) for s in singles]
                      for k in range(7)]


def _scenario_disc(name):
    if name == "tree":
        return tree(20)
    return sample_paths(build_grid(1.0, 6), 1, 600, seed=8)


@pytest.mark.parametrize("name", ["tree", "lsmc"])
def test_a_scenario_set_is_the_stack_of_its_nodes(name):
    """The kernels, the penalties and the as/pas levels of a scenario set
    equal, bit for bit, the kernel and the penalty of each scaled
    portfolio's own risk solve and their quadrature sum.  An ensemble set
    holds its kernels' steps and no density; a lattice set holds none, so
    its kernels are the ``kernel_stack`` of its scaled portfolios."""
    disc = _scenario_disc(name)
    ent = driver_entropic(1.0)
    quad = QuadratureSpec(4)
    cache = SolveCache(disc)
    scen = cache.scenarios(ent, W, quad)
    if name == "tree":
        _, count, run = scen.stack  # kernel_levels: no kernel is held
        assert callable(run) and count == len(scen.claims)
        stack = measure.kernel_stack(ent, scen.claims, disc)
    else:
        stack = scen.stack
        assert stack.density is None
    pens = penalty(ent, stack, basis=cache.basis).values
    nodes = []
    for i, g in enumerate(scen.gammas):
        risk = rho(ent, W.scale(float(g)), disc, cache.basis)
        kernel = kernel_from_subgradient(ent, risk)
        pen = penalty(ent, kernel, basis=cache.basis).values
        got = stack.row(scen.rows[i])
        assert len(got.q) == len(kernel.q)
        for a, b in zip(got.q, kernel.q):
            assert np.array_equal(a, b)
        assert all(np.array_equal(pens[k][i], level)
                   for k, level in enumerate(pen))
        expect = expectation_under_Q(CALL, kernel, basis=cache.basis)
        nodes.append((float(scen.weights[i]), expect, pen))
    for rule in ("as", "pas"):
        got = make_rule(rule, ent, quadrature=quad).allocate(CALL, W, disc,
                                                            cache=cache)
        for k, level in enumerate(got.values):
            total = None
            for w, expect, pen in nodes:
                loss = expect[k] - pen[k] if rule == "pas" else expect[k]
                total = w * loss if total is None else total + w * loss
            assert np.array_equal(level, total)


@pytest.mark.parametrize("name", ["as", "pas"])
def test_a_scenario_set_is_one_pass_of_scaled_solves_and_one_average(
        monkeypatch, name):
    """On the lattice the six scaled portfolios are one solve pass and the
    average one tilted pass under all six kernels, which for ``pas`` also
    carries the penalty row: no pass computes penalties apart.  The solve
    drives the tilted pass: each of its levels computes the tilted level
    of the same step, so no kernel outlives its level."""
    passes, order = [], []
    for module in (engine, measure):
        def spy(tree_, terminal, *args, levels=module._tree_levels,
                layer=module.__name__.rsplit(".", 1)[-1], **kwargs):
            passes.append((layer, np.shape(terminal)))
            for k, level in levels(tree_, terminal, *args, **kwargs):
                order.append((layer, k))
                yield k, level

        monkeypatch.setattr(module, "_tree_levels", spy)
    rule = make_rule(name, driver_entropic(1.0), quadrature=QuadratureSpec(6))
    rule.allocate(CALL, W, tree(20))
    assert passes == [("engine", (6, 21)),
                      ("measure", (1 + (name == "pas"), 6, 21))]
    # a solve level is handed on (and so drives its tilted level) before
    # the solve moves on to the next; the first step also takes the
    # tilted terminal level
    assert order == [("engine", 20), ("measure", 20)] + [
        (layer, k) for k in range(19, -1, -1) for layer in ("measure", "engine")]


def test_quadrature_spec_rejects_no_points():
    """A quadrature without points fails when the spec is built, not
    inside numpy's Gauss-Legendre nodes at the first allocation."""
    for points in (0, -3, 2.5):
        with pytest.raises(InvalidArgumentError, match="quadrature points"):
            QuadratureSpec(points)
    assert len(QuadratureSpec(np.int64(3)).nodes()[0]) == 3


def _stacked_rows(name):
    """Rows of one ``allocate_stack`` on each engine: plain sub-positions,
    sub-positions revealed at one level (lattice only) and two portfolios
    interleaved."""
    t = tree(20)
    m = 0.4 * t.states(10)
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=8)
    return {"tree": (t, [(CALL, W), (RevealedClaim(10, m, CALL, "call+m"), W),
                         (HALF, CALL), (W, W),
                         (RevealedClaim(10, -m, HALF, "W/2-m"), W),
                         (CALL, CALL)]),
            "lsmc": (paths, [(CALL, W), (HALF, CALL), (W, W), (CALL, CALL),
                             (HALF, W)])}[name]


@pytest.mark.parametrize("rule_name", ["as", "pas", "dual", "marginal"])
@pytest.mark.parametrize("name", ["tree", "lsmc"])
def test_stacked_body_rules_equal_single_allocations(monkeypatch, name,
                                                     rule_name):
    """A rule body (``as``, ``pas``, the ``dual`` route, ``marginal``)
    allocates the rows of each portfolio and reveal level in one pass;
    every row, and what ``reduce`` makes of it inside that pass, equals the
    allocation of its sub-position alone bit for bit."""
    disc, pairs = _stacked_rows(name)
    rule = make_rule("subdiff" if rule_name == "dual" else rule_name,
                     driver_entropic(1.0), quadrature=QuadratureSpec(4),
                     route="dual" if rule_name == "dual" else "bsde")
    subs, ports = [s for s, _ in pairs], [p for _, p in pairs]
    singles = [rule.allocate(s, p, disc) for s, p in pairs]
    passes = []
    module, attr = (allocation, "solve_stack") if rule_name == "marginal" \
        else (measure, "_tilted_pass")
    run = getattr(module, attr)

    def spy(*args, **kwargs):
        # the claims of a pass; a solve takes its driver first
        claims = args[1] if rule_name == "marginal" else args[0]
        passes.append(len(claims))
        return run(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    cache = SolveCache(disc)
    procs = rule.allocate_stack(subs, ports, disc, cache=cache)
    groups = {}
    for s, p in pairs:
        groups.setdefault((id(p), getattr(s, "level", None)), []).append(s)
    assert passes == [len(group) for group in groups.values()]
    for proc, single, (s, p) in zip(procs, singles, pairs):
        assert proc.metadata["sub"] == s.label
        assert proc.metadata["portfolio"] == p.label
        assert proc.reveal == single.reveal
        assert len(proc.values) == len(single.values)
        assert all(np.array_equal(a, b) for a, b in zip(proc.values,
                                                        single.values))
    seen = []

    def reduce(k, level, rows):
        seen.append(rows)
        return [float(np.sum(row)) for row in level]

    levels = rule.allocate_stack(subs, ports, disc, cache=cache, reduce=reduce)
    assert passes == 2 * [len(group) for group in groups.values()]
    assert levels == [[float(np.sum(s.values[k])) for s in singles]
                      for k in range(len(singles[0].values))]
    # the rows of a portfolio interleaved with another's are an index list
    assert any(isinstance(rows, list) for rows in seen)


def test_a_lattice_pas_holds_no_kernel_stack():
    """A lattice ``pas`` allocation holds neither the scenario kernels nor
    a penalty stack: the scaled portfolios' solve hands each level's
    kernels to the tilted pass and drops them, so the traced peak stays
    below a quarter of the kernel stack, and no kernel outlives the call."""
    t = tree(200)
    quad = QuadratureSpec(32)
    ent = driver_entropic(1.0)
    rule = make_rule("pas", ent, quadrature=quad)
    stack = measure.kernel_stack(ent, [W.scale(float(g)) for g in
                                       quad.nodes()[0]], t)
    kernels = sum(q.nbytes for q in stack.q)
    del stack
    cache = SolveCache(t)
    tracemalloc.start()
    try:
        proc = rule.allocate(CALL, W, t, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * kernels
    gc.collect()
    alive = [obj for obj in gc.get_objects() if isinstance(obj, GirsanovKernel)
             and obj.discretization is t]
    assert alive == [] and proc.metadata["scenarios"] is \
        cache.scenarios(ent, W, quad)


def _capped_pas_errors(disc):
    """The errors of a ``scenario_average`` over the stored kernel stack
    of a capped driver's scaled portfolios, and of its ``pas``, on
    ``disc``.  The quadratic driver's conjugate is infinite beyond
    |q|^2 = 50, past every probe of make_driver; the kernels of 3 tanh(4W)
    cross it near the horizon, the later kernels at lower steps."""
    quad = QuadratureSpec(8)
    sq = lambda x: np.sum(x * x, axis=-1)
    capped = make_driver(
        "capped", lambda t, z: sq(z) / 2.0, lambda t, z: z,
        lambda t, q: np.where(sq(q) <= 50.0 * (1 + 1e-9), sq(q) / 2.0, np.inf))
    port = TerminalClaim(lambda w: 3.0 * np.tanh(4.0 * np.asarray(w, float)),
                         label="Y")
    gammas, weights = quad.nodes()
    stack = measure.kernel_stack(capped, [port.scale(float(g)) for g in gammas],
                                 disc)
    with pytest.raises(InadmissibleKernelError) as stored:
        measure.scenario_average([CALL], stack, list(zip(weights, range(8))),
                                 capped)
    with pytest.raises(InadmissibleKernelError) as err:
        make_rule("pas", capped, quadrature=quad).allocate(CALL, port, disc)
    return str(stored.value), str(err.value)


def test_an_in_pass_pas_names_the_conjugate_step_of_a_stored_stack():
    """Driven by the scaled portfolios' solve, ``pas`` raises what a
    stored kernel stack raises where a conjugate is infinite: the error
    naming the lowest infinite step of the first kernel that has one."""
    stored, err = _capped_pas_errors(tree(200))
    assert stored.endswith("at step 196")
    assert err == stored


def test_an_ensemble_pas_names_the_conjugate_step_of_a_stored_stack():
    """On an ensemble too ``pas`` and a stored kernel stack name the same
    step: the lowest infinite one of the first kernel that has one (kernel
    5 at step 23), not the lowest of all (kernel 6 at step 19)."""
    paths = sample_paths(build_grid(1.0, 25), 1, 2000, seed=3)
    stored, err = _capped_pas_errors(paths)
    assert stored == "driver conjugate is infinite along the kernel at step 23"
    assert err == stored


@pytest.mark.parametrize("engine", ["tree", "lsmc"])
def test_an_empty_allocation_stack_is_empty_for_every_rule(engine):
    disc = tree(4) if engine == "tree" else \
        sample_paths(build_grid(1.0, 4), 1, 400, seed=3)
    ent = driver_entropic(1.0)
    rules = [make_rule(name, ent, quadrature=QuadratureSpec(4))
             for name in RULE_NAMES]
    rules.append(make_rule("custom", ent, alloc_driver=alloc_driver_subdiff(ent)))
    for rule in rules:
        assert rule.allocate_stack([], W, disc) == []
        assert rule.allocate_stack([], [], disc) == []
        assert rule.allocate_stack([], W, disc,
                                   reduce=lambda k, level, rows: level) == []


@pytest.mark.parametrize("dimension", [1, 2])
def test_a_driver_rule_solves_its_portfolios_in_its_own_pass(monkeypatch,
                                                             dimension):
    """Portfolios the cache does not hold are rows of the allocation pass:
    one sweep for rows of two interleaved portfolios, each row the
    allocation with the stored base control and each base the risk solve,
    bit for bit; reduced, the pass hands over the same levels."""
    paths = sample_paths(build_grid(1.0, 6), dimension, 800, seed=11)
    ent = driver_entropic(1.0)
    rule = make_rule("subdiff", ent)
    first = TerminalClaim(lambda w: np.asarray(w, float).reshape(len(w), -1)[:, 0],
                          label="W1")
    call = TerminalClaim(lambda w: np.maximum(first.payoff(w), 0.0), label="c")
    subs, ports = [call, first, call, first], [first, call, call, first]
    core, sweeps = engine._lsmc_core, []

    def counting(driver, terminals, *args, **kwargs):
        sweeps.append(len(terminals))
        return core(driver, terminals, *args, **kwargs)

    monkeypatch.setattr(engine, "_lsmc_core", counting)
    cache = SolveCache(paths)
    procs = rule.allocate_stack(subs, ports, paths, cache=cache)
    levels = rule.allocate_stack(subs, ports, paths, cache=cache,
                                 reduce=lambda k, level, rows: list(level))
    monkeypatch.undo()
    assert sweeps == [6, 6] and set(cache._risk) == set()
    bases = {id(p): rho(ent, p, paths) for p in ports}
    for sub, port, proc in zip(subs, ports, procs):
        assert _same_process(proc.base_solution, bases[id(port)])
        assert _same_process(proc, solve_alloc_lsmc(
            rule.alloc_driver, sub, bases[id(port)].controls, paths))
    for k, level in enumerate(levels):
        for row, proc in zip(level, procs):
            assert np.array_equal(row, proc.values[k])


def test_risk_rows_join_a_reduced_allocation_pass_only():
    """Risk rows lead a reduced pass, whose ``reduce`` sees them first,
    each equal to the claim's risk; a kept pass takes none, so it never
    solves rows it does not return."""
    paths = sample_paths(build_grid(1.0, 4), 1, 400, seed=5)
    ent = driver_entropic(1.0)
    rule = make_rule("subdiff", ent)
    cache = SolveCache(paths)
    with pytest.raises(InvalidArgumentError, match="reduced pass only"):
        allocation._via_driver(rule, [CALL], [W], cache, risks=[HALF])
    levels = allocation._via_driver(rule, [CALL], [W], cache,
                                    lambda k, level, rows: list(level), [HALF])
    risk = rho(ent, HALF, paths)
    proc = rule.allocate(CALL, W, paths)
    for k, level in enumerate(levels):
        assert len(level) == 2
        assert np.array_equal(level[0], risk.values[k])
        assert np.array_equal(level[1], proc.values[k])
