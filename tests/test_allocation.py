import math
import weakref

import numpy as np
import pytest

from riskalloc import (GirsanovKernel, InvalidArgumentError, QuadratureSpec,
                       RevealedClaim, SolveCache, TerminalClaim, averaged_density,
                       build_grid, build_tree, car_aumann_shapley,
                       car_from_alloc_driver, car_gradient, car_marginal,
                       car_penalized_as, car_subdifferential, constant_kernel,
                       driver_entropic, driver_scaled_norm, driver_zero,
                       entropic_gradient_car, expectation_under_Q,
                       kernel_from_subgradient, make_driver, make_rule,
                       penalty, rho, sample_paths, solve_lsmc)
from riskalloc.drivers import (alloc_driver_entropic_drift,
                               alloc_driver_entropic_two_level,
                               alloc_driver_gradient, alloc_driver_marginal,
                               alloc_driver_subdiff)
from riskalloc.allocation import RULE_NAMES, RULES, CarRule
from riskalloc.engine import BasisSpec, band, solve_alloc_lsmc

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
        # one base solve serves the stack
        assert set(cache._risk) == {(id(ent), id(W))}
        assert all(p.base_solution is cache.risk(ent, W) for p in procs)
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
        if not alive:
            alive.append(solves[0]() is not None)
        return [float(np.max(row)) for row in level]

    levels = rule.allocate_stack(subs, port, t, cache=SolveCache(t),
                                 reduce=reduce)
    # the pass reads only the base controls; the solve behind them is gone
    assert len(solves) == 1 and alive == [False]
    assert len(levels) == 21 and all(len(level) == 2 for level in levels)
