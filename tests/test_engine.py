import weakref

import numpy as np
import pytest

from riskalloc import (BasisSpec, InvalidArgumentError, NumericalFailureError,
                       RejectedConfigurationError, RevealedClaim, TerminalClaim,
                       alloc_driver_entropic_drift,
                       alloc_driver_entropic_two_level, alloc_driver_gradient,
                       alloc_driver_subdiff, build_grid, build_tree,
                       car_subdifferential, combine_claims, driver_entropic,
                       driver_scaled_norm, driver_zero, lsmc_block_estimate,
                       lsmc_standard_error, rho, sample_paths,
                       solve_alloc_lsmc, solve_alloc_tree, solve_lsmc,
                       solve_tree)
from riskalloc.engine import ZERO, solve_stack
from riskalloc.grid import _monomial_block

W = TerminalClaim(lambda w: np.asarray(w, float), label="W")
CALL = TerminalClaim(lambda w: np.maximum(w, 0.0), label="call")


def tree(n, horizon=1.0):
    return build_tree(build_grid(horizon, n))


def test_zero_driver_linear_terminal():
    sol = solve_tree(driver_zero(), W, tree(2))
    assert sol.initial == pytest.approx(0.0, abs=1e-15)


def test_constant_terminal_propagates():
    t = tree(6)
    claim = TerminalClaim(lambda w: np.full(len(w), 1.3), label="c")
    sol = solve_tree(driver_entropic(1.0), claim, t)
    for vals in sol.values:
        assert np.allclose(vals, 1.3, atol=1e-13)


def test_worst_case_value_scaled_norm():
    sol = solve_tree(driver_scaled_norm(0.5), -W, tree(200))
    assert sol.initial == pytest.approx(0.5, abs=2e-2)


def test_recursion_residual_exact():
    t = tree(40)
    drv = driver_scaled_norm(0.8)
    sol = solve_tree(drv, CALL, t)
    dt, s = t.grid.dt, t.sqrt_dt
    for k in range(40):
        up, dn = sol.values[k + 1][1:], sol.values[k + 1][:-1]
        z = (up - dn) / (2 * s)
        resid = sol.values[k] - (0.5 * (up + dn)
                                 + drv.evaluate(t.grid.time(k), z[:, None]) * dt)
        assert np.max(np.abs(resid)) < 1e-12
        assert np.max(np.abs(z - sol.controls[k])) < 1e-14


def test_stability_rejection_names_required_steps():
    with pytest.raises(RejectedConfigurationError) as err:
        solve_tree(driver_scaled_norm(2.0), W, tree(3))
    assert err.value.detail["required_steps"] == 5
    solve_tree(driver_scaled_norm(2.0), W, tree(5))  # admissible


def test_allocation_solves_check_the_alloc_driver_stability():
    # ent1:c=2 is 2-Lipschitz in z although its entropic base has no bound
    alloc = alloc_driver_entropic_drift(1.0, 2.0)

    def solves(n):
        t = tree(n)
        z_y = solve_tree(driver_entropic(1.0), -W, t).controls
        return [lambda: solve_alloc_tree(alloc, CALL, z_y, t).values,
                lambda: solve_stack(alloc, [CALL, W], t, z_y=[z_y] * 2,
                                    reduce=lambda k, level, _: level)]

    for solve in solves(3):
        with pytest.raises(RejectedConfigurationError, match="ent1:c=2") as err:
            solve()
        assert err.value.detail["required_steps"] == 5
    for solve in solves(5):
        assert all(np.all(np.isfinite(level)) for level in solve())


def test_comparison_theorem_on_tree():
    t = tree(60)
    lo = solve_tree(driver_zero(), W, t)
    hi = solve_tree(driver_scaled_norm(0.5), W, t)
    for a, b in zip(lo.values, hi.values):
        assert np.all(a <= b + 1e-12)
    shifted = TerminalClaim(lambda w: np.asarray(w, float) + 0.1, label="W+.1")
    hi2 = solve_tree(driver_scaled_norm(0.5), shifted, t)
    for a, b in zip(hi.values, hi2.values):
        assert np.all(a <= b + 1e-12)


def test_linear_driver_solution_is_linear():
    t = tree(50)
    base = driver_entropic(1.0)
    zy = solve_tree(base, -W, t).controls
    grad = alloc_driver_gradient(base)
    a = solve_alloc_tree(grad, W, zy, t)
    b = solve_alloc_tree(grad, CALL, zy, t)
    both = solve_alloc_tree(grad, combine_claims([1, 1], [W, CALL]), zy, t)
    scaled = solve_alloc_tree(grad, W.scale(2.5), zy, t)
    for va, vb, vc in zip(a.values, b.values, both.values):
        assert np.max(np.abs(va + vb - vc)) < 1e-10
    for va, vs in zip(a.values, scaled.values):
        assert np.max(np.abs(2.5 * va - vs)) < 1e-10


def test_solver_cash_additivity():
    t = tree(80)
    drv = driver_scaled_norm(0.5)
    base = solve_tree(drv, CALL, t)
    shifted = solve_tree(drv, CALL + TerminalClaim(lambda w: np.full(len(w), 0.7),
                                                   label="c"), t)
    for a, b in zip(base.values, shifted.values):
        assert np.max(np.abs(b - (a + 0.7))) < 1e-12


def test_alloc_diagonal_matches_base_solve():
    t = tree(100)
    for drv in (driver_scaled_norm(0.5), driver_entropic(1.0)):
        base = solve_tree(drv, -W, t)
        alloc = alloc_driver_subdiff(drv)
        again = solve_alloc_tree(alloc, W, base.controls, t)
        for a, b in zip(base.values, again.values):
            assert np.max(np.abs(a - b)) < 1e-12
        for a, b in zip(base.controls, again.controls):
            assert np.max(np.abs(a - b)) < 1e-13


def test_alloc_zero_position_stays_zero():
    t = tree(60)
    drv = driver_entropic(1.0)
    zy = solve_tree(drv, -CALL, t).controls
    grad = alloc_driver_gradient(drv)  # vanishes at z = 0
    zero = TerminalClaim(lambda w: np.zeros(len(w)), label="0")
    sol = solve_alloc_tree(grad, zero, zy, t)
    for vals in sol.values:
        assert np.max(np.abs(vals)) < 1e-14


def test_alloc_no_undercut_vs_rho_on_tree():
    t = tree(200)
    drv = driver_scaled_norm(0.5)
    zy = solve_tree(drv, -W, t).controls
    alloc = alloc_driver_subdiff(drv)
    lam = solve_alloc_tree(alloc, CALL, zy, t)
    risk = solve_tree(drv, -CALL, t)
    for a, b in zip(lam.values, risk.values):
        assert np.all(a <= b + 1e-12)


def test_alloc_grid_mismatch_rejected():
    t = tree(20)
    zy = solve_tree(driver_scaled_norm(0.5), -W, tree(10)).controls
    with pytest.raises(InvalidArgumentError):
        solve_alloc_tree(alloc_driver_subdiff(driver_scaled_norm(0.5)), W, zy, t)


def test_lsmc_zero_driver_unbiased():
    paths = sample_paths(build_grid(1.0, 20), 1, 100_000, seed=42)
    sol = solve_lsmc(driver_zero(), W, paths)
    assert abs(sol.initial) <= 3 * lsmc_standard_error(sol)


def test_lsmc_entropic_linear_terminal():
    paths = sample_paths(build_grid(1.0, 50), 1, 100_000, seed=42)
    sol = solve_lsmc(driver_entropic(1.0), -W, paths)
    assert sol.initial == pytest.approx(0.5, rel=0.02)


def test_lsmc_constant_terminal_exact():
    paths = sample_paths(build_grid(1.0, 10), 1, 5_000, seed=1)
    claim = TerminalClaim(lambda w: np.full(len(w), 2.2), label="c")
    sol = solve_lsmc(driver_zero(), claim, paths)
    assert sol.initial == pytest.approx(2.2, abs=1e-8)


def test_lsmc_needs_enough_paths():
    paths = sample_paths(build_grid(1.0, 4), 1, 30, seed=1)
    with pytest.raises(InvalidArgumentError):
        solve_lsmc(driver_zero(), W, paths)


def test_alloc_lsmc_two_level_closed_form():
    # portfolio W, sub-position W/2: value is 0.5 + log E[exp(W/2)] = 0.625
    paths = sample_paths(build_grid(1.0, 50), 1, 100_000, seed=42)
    base = driver_entropic(1.0)
    zy = solve_lsmc(base, -W, paths).controls
    alloc = alloc_driver_entropic_two_level(1.0, 1.0)
    half = TerminalClaim(lambda w: 0.5 * np.asarray(w, float), label="W/2")
    sol = solve_alloc_lsmc(alloc, half, zy, paths)
    expected = 0.5 + 0.125
    assert sol.initial == pytest.approx(expected, rel=0.02)


def test_alloc_lsmc_requires_matching_ensemble():
    paths = sample_paths(build_grid(1.0, 10), 1, 2_000, seed=3)
    other = sample_paths(build_grid(1.0, 10), 1, 1_000, seed=3)
    zy = solve_lsmc(driver_entropic(1.0), -W, other).controls
    with pytest.raises(InvalidArgumentError):
        solve_alloc_lsmc(alloc_driver_subdiff(driver_entropic(1.0)), W, zy, paths)


def test_alloc_subdiff_zero_position_tree_vs_lsmc():
    # X = 0 has a penalty-like value; the lattice is the oracle
    n = 50
    t = tree(n)
    drv = driver_entropic(1.0)
    zy_t = solve_tree(drv, -CALL, t).controls
    alloc = alloc_driver_subdiff(drv)
    zero = TerminalClaim(lambda w: np.zeros(np.shape(w)[0]), label="0")
    tree_val = solve_alloc_tree(alloc, zero, zy_t, t).initial

    paths = sample_paths(build_grid(1.0, n), 1, 100_000, seed=9)
    zy_p = solve_lsmc(drv, -CALL, paths).controls
    mc_val = solve_alloc_lsmc(alloc, zero, zy_p, paths).initial
    assert mc_val == pytest.approx(tree_val, abs=max(0.02 * abs(tree_val), 5e-3))


@pytest.mark.parametrize("make_driver_fn", [driver_zero,
                                            lambda: driver_scaled_norm(0.5)])
def test_lsmc_matches_tree_within_three_se(make_driver_fn):
    n = 50
    drv = make_driver_fn()
    t = tree(n)
    basis = BasisSpec(degree=5)
    paths = sample_paths(build_grid(1.0, n), 1, 4_000, seed=17)
    corpus = (W, CALL,
              TerminalClaim(lambda w: np.exp(-np.asarray(w, float) ** 2),
                            label="bump"),
              TerminalClaim(lambda w: np.asarray(w, float) / (1 + np.abs(w)),
                            label="squash"))
    for claim in corpus:
        ref = solve_tree(drv, -claim, t).initial
        est, se = lsmc_block_estimate(
            lambda sub: solve_lsmc(drv, -claim, sub, basis).initial, paths)
        assert abs(est - ref) <= 3 * se, (claim.label, est, ref, se)


def test_lsmc_straddle_known_projection_bias():
    # |W| under the worst-case driver stresses the polynomial basis: the
    # regression cannot fully resolve the step-shaped control around the
    # kink, leaving a small systematic gap that more paths do not remove.
    n = 50
    drv = driver_scaled_norm(0.5)
    straddle = TerminalClaim(lambda w: np.abs(w), label="abs")
    ref = solve_tree(drv, -straddle, tree(n)).initial
    paths = sample_paths(build_grid(1.0, n), 1, 4_000, seed=17)
    est = solve_lsmc(drv, -straddle, paths, BasisSpec(degree=5)).initial
    assert abs(est - ref) <= 0.05


def test_basis_size_and_payoff_column():
    basis = BasisSpec(degree=3, include_payoff=True)
    assert basis.size(1) == 5
    assert BasisSpec(degree=2, include_payoff=False).size(2) == 6


@pytest.mark.parametrize("dimension,degree", [(1, 0), (1, 4), (2, 3), (3, 2),
                                              (4, 4), (5, 1)])
def test_basis_size_counts_the_block_columns(dimension, degree):
    # the count is closed-form; the block enumerates the monomials
    state = np.linspace(0.5, 1.5, 3 * dimension).reshape(3, dimension)
    spec = BasisSpec(degree=degree, include_payoff=False)
    assert spec.size(dimension) == _monomial_block(state, spec.degree).shape[1]


def test_claim_bound_enforced():
    t = tree(10)
    bounded = TerminalClaim(lambda w: np.asarray(w, float), bound=0.5, label="W")
    with pytest.raises(InvalidArgumentError):
        solve_tree(driver_zero(), bounded, t)


def test_warm_ensemble_solve_matches_fresh_ensemble_bitwise():
    grid = build_grid(1.0, 6)
    warm = sample_paths(grid, 1, 600, seed=21)
    solve_lsmc(driver_entropic(1.0), -CALL, warm)      # fills the caches
    again = solve_lsmc(driver_entropic(1.0), -W, warm)
    fresh = solve_lsmc(driver_entropic(1.0), -W, sample_paths(grid, 1, 600, seed=21))
    for a, b in zip(again.values + again.controls, fresh.values + fresh.controls):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_block_sub_ensembles_do_not_share_the_parent_cache():
    paths = sample_paths(build_grid(1.0, 4), 1, 400, seed=2)
    parent_values = paths.values
    parent_blocks = [paths.monomial_block(k, 3) for k in range(5)]
    subs = []

    def solve(ens):
        subs.append(ens)
        return float(np.mean(ens.terminal_values()))

    lsmc_block_estimate(solve, paths, blocks=4)
    blocks = [s for s in subs if s is not paths]
    assert len(blocks) == 4
    for b, sub in enumerate(blocks):
        assert sub.paths == 100
        assert not np.shares_memory(sub.values, parent_values)
        assert np.array_equal(sub.values[:, 1:, :],
                              np.cumsum(sub.increments, axis=1))
        for k, parent in enumerate(parent_blocks):
            block = sub.monomial_block(k, 3)
            assert block.shape == (100, 4)
            assert not np.shares_memory(block, parent)
            fresh = _monomial_block(sub.state_at(k), 3)
            assert block.tobytes() == fresh.tobytes()


def test_each_level_block_is_built_once_per_ensemble(monkeypatch):
    # two sweeps and a tilted regression (the dual route) share the blocks
    n = 6
    paths = sample_paths(build_grid(1.0, n), 1, 400, seed=4)
    built = []

    def counting(state, degree):
        built.append(next(k for k in range(n + 1)
                          if np.array_equal(state, paths.state_at(k))))
        return _monomial_block(state, degree)

    monkeypatch.setattr("riskalloc.grid._monomial_block", counting)
    solve_lsmc(driver_entropic(1.0), -CALL, paths)
    solve_lsmc(driver_entropic(1.0), -W, paths)
    car_subdifferential(driver_entropic(1.0), CALL, W + CALL, paths,
                        route="dual")
    assert sorted(built) == list(range(1, n))


def test_non_finite_payoff_is_rejected():
    nan_claim = TerminalClaim(lambda w: np.where(np.asarray(w) > 0, np.nan, 0.0),
                              label="nan")
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        solve_tree(driver_zero(), nan_claim, tree(10))
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        solve_lsmc(driver_zero(), nan_claim,
                   sample_paths(build_grid(1.0, 4), 1, 200, seed=1))


def test_driver_overflow_raises_numerical_failure():
    huge = W.scale(1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError) as err:
            solve_tree(driver_entropic(1e-3), -huge, tree(50))
        assert err.value.diagnostics["level"] == 49
        assert "level 49" in str(err.value)
        with pytest.raises(NumericalFailureError):
            solve_lsmc(driver_entropic(1e-3), -huge,
                       sample_paths(build_grid(1.0, 5), 1, 500, seed=3))


@pytest.mark.parametrize("case", ["nan", "overflow"])
@pytest.mark.parametrize("engine", ["tree", "lsmc", "lsmc-bare"])
def test_kept_and_reduced_passes_fail_alike(engine, case):
    """Either engine checks every level as it computes it, kept or
    reduced, so a stack fails with the error of its failing terminal
    solved alone: a raw terminal holding a NaN at level N, an overflowing
    driver step at the level where it overflows.  With the payoff column
    in the basis, the overflowing claim's Gram overflows first."""
    if engine == "tree":
        disc, basis = tree(50), None
    else:
        disc = sample_paths(build_grid(1.0, 5), 1, 500, seed=3)
        basis = BasisSpec(include_payoff=engine == "lsmc")
    n = disc.grid.steps
    if case == "nan":
        driver = driver_entropic(1.0)
        terminal = np.ones(n + 1 if engine == "tree" else 500)
        terminal[3] = np.nan
    else:
        driver, terminal = driver_entropic(1e-3), -W.scale(1e200)
    with pytest.raises(NumericalFailureError) as alone:
        solve_stack(driver, [terminal], disc, basis)
    if engine == "lsmc" and case == "overflow":
        assert str(alone.value) == "regression produced non-finite coefficients"
    else:
        level = n if case == "nan" else n - 1
        assert alone.value.diagnostics == {"level": level}
        assert str(alone.value).startswith(
            f"backward solve produced non-finite values from level {level} ")
    for reduce in (None, lambda k, values, controls: values,
                   lambda k, values, controls: None):
        with pytest.raises(NumericalFailureError) as stacked:
            solve_stack(driver, [W, terminal], disc, basis, reduce=reduce)
        assert stacked.value.diagnostics == alone.value.diagnostics
        assert str(stacked.value) == str(alone.value)


def test_finite_levels_whose_sum_overflows_pass_the_check():
    """The finiteness check looks at each cell once a level's sum is not
    finite: levels of 1e307 at every node overflow their sum, not a cell."""
    n = 200
    terminal = np.full(n + 1, 1e307)
    kept = solve_stack(driver_zero(), [terminal], tree(n))[0].values
    reduced = solve_stack(driver_zero(), [terminal], tree(n),
                          reduce=lambda k, values, controls: values[0].copy())
    for levels in (kept, reduced):
        assert len(levels) == n + 1
        for k, level in enumerate(levels):
            assert np.array_equal(level, np.full(k + 1, 1e307))
        with np.errstate(over="ignore"):
            assert np.isinf(levels[-1].sum())


def test_basis_spec_rejects_a_bad_degree():
    """A negative or non-integer degree fails when the spec is built, not
    inside the monomial block of the first sweep."""
    for degree in (-1, 2.5, "3"):
        with pytest.raises(InvalidArgumentError, match="basis degree"):
            BasisSpec(degree)
    assert BasisSpec(np.int64(2)).size(1) == BasisSpec(2).size(1) == 4


def _first(w):
    w = np.asarray(w, float)
    return w if w.ndim == 1 else w[:, 0]


def _stack_terminals(paths):
    """Claims with payoff columns, a raw array and a repeated claim."""
    call = TerminalClaim(lambda w: np.maximum(_first(w), 0.0), label="call")
    bump = TerminalClaim(lambda w: np.exp(-_first(w) ** 2), label="bump")
    raw = np.sin(_first(paths.terminal_values()))
    return [call, raw, bump, -call, call]


def _assert_same_solution(a, b):
    assert len(a.values) == len(b.values)
    assert len(a.controls) == len(b.controls)
    for u, v in zip(a.values + a.controls, b.values + b.controls):
        assert np.array_equal(u, v)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("include_payoff", [True, False])
def test_lsmc_stacks_equal_single_solves_bitwise(dimension, include_payoff):
    paths = sample_paths(build_grid(1.0, 6), dimension, 800, seed=5)
    basis = BasisSpec(degree=3, include_payoff=include_payoff)
    drv = driver_entropic(1.0)
    terminals = _stack_terminals(paths)
    for term, sol in zip(terminals, solve_stack(drv, terminals, paths, basis)):
        _assert_same_solution(sol, solve_lsmc(drv, term, paths, basis))
    zy = solve_lsmc(drv, -terminals[0], paths, basis).controls
    alloc = alloc_driver_subdiff(drv)
    stack = solve_stack(alloc, terminals, paths, basis,
                        z_y=[zy] * len(terminals))
    for term, sol in zip(terminals, stack):
        _assert_same_solution(sol, solve_alloc_lsmc(alloc, term, zy, paths, basis))


@pytest.mark.parametrize("engine", ["tree", "lsmc"])
def test_cross_portfolio_stack_equals_solo_allocations_bitwise(engine):
    """Rows of several portfolios share one pass, each with its own
    portfolio control, and each row is its solo allocation bit for bit,
    values and controls; rows that share a payoff share its design."""
    if engine == "tree":
        disc = tree(12)
        solo = solve_alloc_tree
    else:
        disc = sample_paths(build_grid(1.0, 6), 1, 800, seed=9)
        solo = solve_alloc_lsmc
    drv = driver_entropic(1.0)
    alloc = alloc_driver_subdiff(drv)
    bump = TerminalClaim(lambda w: np.exp(-np.asarray(w, float) ** 2),
                         label="bump")
    ports = [W, CALL, bump]
    controls = {id(p): solve_stack(drv, [-p], disc)[0].controls
                for p in ports}
    rows = [(CALL, W), (W, CALL), (CALL, CALL), (bump, W), (W, bump),
            (CALL, bump)]
    z_y = [controls[id(p)] for _, p in rows]
    stack = solve_stack(alloc, [s for s, _ in rows], disc, z_y=z_y)
    for (sub, port), sol in zip(rows, stack):
        _assert_same_solution(sol, solo(alloc, sub, controls[id(port)], disc))


def test_solve_stack_takes_one_portfolio_control_per_terminal():
    t = tree(4)
    z_y = solve_tree(driver_entropic(1.0), -W, t).controls
    with pytest.raises(InvalidArgumentError, match="one control process per"):
        solve_stack(alloc_driver_subdiff(driver_entropic(1.0)), [W, CALL], t,
                    z_y=[z_y])


def test_lsmc_stack_of_one_is_the_single_solve():
    paths = sample_paths(build_grid(1.0, 6), 1, 800, seed=6)
    drv = driver_entropic(1.0)
    for term in _stack_terminals(paths)[:3]:
        one, = solve_stack(drv, [term], paths)
        _assert_same_solution(one, solve_lsmc(drv, term, paths))
        assert one.metadata == solve_lsmc(drv, term, paths).metadata
        zy = one.controls
        alloc = alloc_driver_gradient(drv)
        one, = solve_stack(alloc, [term], paths, z_y=[zy])
        _assert_same_solution(one, solve_alloc_lsmc(alloc, term, zy, paths))


def test_zero_claim_takes_scalar_and_array_states():
    assert ZERO.label == "0" and ZERO.bound == 0.0
    assert np.array_equal(ZERO.evaluate(np.linspace(-1.0, 1.0, 5)), np.zeros(5))
    assert np.array_equal(ZERO.evaluate(np.ones((4, 2))), np.zeros(4))
    assert float(ZERO.payoff(0.3)) == 0.0


def test_solve_stack_rejects_an_unknown_discretization():
    with pytest.raises(InvalidArgumentError, match="unsupported discretization"):
        solve_stack(driver_zero(), [W], build_grid(1.0, 4))


def test_a_reduced_ensemble_pass_keeps_no_level():
    """A reduced LSMC sweep hands each level and its controls to
    ``reduce`` once, from level N down, as it computes them, keeps none of
    them, and reduces what the kept solves hold."""
    paths = sample_paths(build_grid(1.0, 5), 1, 600, seed=3)
    claims = [CALL, -W]
    seen, handed = [], []

    def reduce(k, values, controls):
        assert all(ref() is None for ref in handed)
        seen.append((k, values.shape, np.shape(controls)))
        handed.extend(weakref.ref(a) for a in (values, controls)
                      if a is not None)
        return [float(np.sum(row)) for row in values]

    levels = solve_stack(driver_entropic(1.0), claims, paths, reduce=reduce)
    assert seen == [(5, (2, 600), ())] + [(k, (2, 600), (2, 600, 1))
                                          for k in range(4, -1, -1)]
    kept = solve_stack(driver_entropic(1.0), claims, paths)
    assert levels == [[float(np.sum(sol.values[k])) for sol in kept]
                      for k in range(6)]


@pytest.mark.parametrize("terminal", [np.ones(7), 1.0, np.ones((200, 1))],
                         ids=["short", "scalar", "column"])
def test_a_raw_terminal_of_the_wrong_shape_is_rejected_on_ensembles(terminal):
    """A raw terminal array holds one value per path, checked as the
    lattice checks one value per terminal node: a wrong shape is an
    argument error, not a numpy error inside the regression."""
    paths = sample_paths(build_grid(1.0, 4), 1, 200, seed=3)
    with pytest.raises(InvalidArgumentError, match="terminal values have shape"):
        solve_lsmc(driver_entropic(1.0), terminal, paths)
    # one value per path is the claim's values, regressed without its payoff
    raw = solve_lsmc(driver_entropic(1.0), W.on_paths(paths), paths)
    bare = solve_lsmc(driver_entropic(1.0), W, paths,
                      BasisSpec(include_payoff=False))
    assert raw.initial == bare.initial


@pytest.mark.parametrize("engine", ["tree", "lsmc"])
def test_a_control_from_a_longer_grid_is_rejected(engine):
    """A control process must have exactly one step per grid step: one from
    a longer grid has the same per-level shapes and would be read in part."""
    if engine == "tree":
        disc, longer = tree(4), tree(5)
    else:
        disc = sample_paths(build_grid(1.0, 4), 1, 400, seed=3)
        longer = sample_paths(build_grid(1.0, 5), 1, 400, seed=3)
    drv = driver_entropic(1.0)
    z_y = solve_stack(drv, [-W], longer)[0].controls
    alloc = alloc_driver_subdiff(drv)
    with pytest.raises(InvalidArgumentError, match="5 steps, the grid has 4"):
        solve_stack(alloc, [CALL], disc, z_y=[z_y])
    solo = solve_alloc_tree if engine == "tree" else solve_alloc_lsmc
    with pytest.raises(InvalidArgumentError, match="5 steps, the grid has 4"):
        solo(alloc, CALL, z_y, disc)


@pytest.mark.parametrize("engine", ["tree", "lsmc"])
def test_an_empty_claim_stack_is_rejected(engine):
    disc = tree(4) if engine == "tree" else \
        sample_paths(build_grid(1.0, 4), 1, 400, seed=3)
    with pytest.raises(InvalidArgumentError, match="at least one claim"):
        solve_stack(driver_entropic(1.0), [], disc)
    with pytest.raises(InvalidArgumentError, match="at least one claim"):
        solve_stack(alloc_driver_subdiff(driver_entropic(1.0)), [], disc,
                    z_y=[])


def test_a_row_that_names_no_portfolio_row_is_rejected():
    t = tree(4)
    alloc = alloc_driver_subdiff(driver_entropic(1.0))
    for z_y in ([None, 2], [None, 1], [None, -1], [0, 0]):
        with pytest.raises(InvalidArgumentError, match="no portfolio row"):
            solve_stack(alloc, [W, CALL], t, z_y=z_y)


def _in_pass_stack(alloc, ports, rows, disc, basis=None, reduce=None):
    """The rows as one stack with their portfolios as rows 0 .. P-1."""
    z_y = [None] * len(ports) + [j for _, j in rows]
    return solve_stack(alloc, [*ports, *(s for s, _ in rows)], disc, basis,
                       z_y=z_y, reduce=reduce)


def _check_in_pass(drv, disc, basis=None):
    """Sub-positions of two portfolios, interleaved, in one stack whose
    portfolios are rows of it, kept and reduced."""
    alloc = alloc_driver_subdiff(drv)
    bump = TerminalClaim(lambda w: np.exp(-_first(w) ** 2), label="bump")
    call = TerminalClaim(lambda w: np.maximum(_first(w), 0.0), label="call")
    lin = TerminalClaim(lambda w: _first(w), label="W")
    ports = [lin, call]
    rows = [(call, 0), (lin, 1), (bump, 0), (call, 1), (lin, 0)]
    kept = _in_pass_stack(alloc, ports, rows, disc, basis)
    solo = solve_alloc_tree if basis is None else \
        (lambda a, s, z, d: solve_alloc_lsmc(a, s, z, d, basis))
    risks = [solve_stack(drv, [-p], disc, basis)[0] for p in ports]
    for port, row, risk in zip(ports, kept, risks):
        # a portfolio row is the risk solve of its portfolio, bit for bit
        assert row.driver is drv
        _assert_same_solution(row, risk)
    for (sub, j), sol in zip(rows, kept[len(ports):]):
        _assert_same_solution(sol, solo(alloc, sub, risks[j].controls, disc))
    # reduced, the pass hands over the same levels
    seen = _in_pass_stack(alloc, ports, rows, disc, basis,
                          reduce=lambda k, values, controls: (
                              values.copy(), None if controls is None
                              else controls.copy()))
    for k, (values, controls) in enumerate(seen):
        for i, sol in enumerate(kept):
            assert np.array_equal(values[i], sol.values[k])
            if k < len(seen) - 1:
                assert np.array_equal(controls[i], sol.controls[k])


def test_in_pass_portfolio_rows_equal_stored_controls_on_the_tree():
    _check_in_pass(driver_entropic(1.0), tree(12))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("include_payoff", [True, False])
def test_in_pass_portfolio_rows_equal_stored_controls_on_ensembles(
        dimension, include_payoff):
    paths = sample_paths(build_grid(1.0, 6), dimension, 800, seed=5)
    _check_in_pass(driver_entropic(1.0), paths,
                   BasisSpec(degree=3, include_payoff=include_payoff))


def test_an_in_pass_revealed_portfolio_equals_its_solve_and_its_subs():
    """A revealed portfolio is a row of its sub-positions' pass (one reveal
    level), read as a view: its row is its revealed risk solve, and each
    sub-position's row the allocation with the stored control, bit for bit."""
    t, drv = tree(12), driver_scaled_norm(0.5)
    alloc = alloc_driver_subdiff(drv)
    m = 0.3 * t.grid.times[6] + 0.1 * np.arange(7)
    port = RevealedClaim(6, m, W, "W+m")
    subs = [RevealedClaim(6, -m, CALL, "call-m"), port,
            RevealedClaim(6, 0.5 * m, None, "m/2")]
    kept = solve_stack(alloc, [port, *subs], t, z_y=[None, 0, 0, 0])
    risk = solve_tree(drv, -port, t)
    _assert_same_solution(kept[0], risk)
    for sub, sol in zip(subs, kept[1:]):
        assert sol.reveal == 6
        _assert_same_solution(sol, solve_alloc_tree(alloc, sub, risk.controls, t))


@pytest.mark.parametrize("dimension", [1, 2])
def test_a_risk_row_of_an_allocation_stack_is_rho(dimension):
    """A portfolio row is solved as the negated position and regresses on
    the claim's own payoff column, not on its negation's; it is still the
    risk solve of the negated claim alone, bit for bit."""
    paths = sample_paths(build_grid(1.0, 6), dimension, 800, seed=7)
    drv = driver_entropic(1.0)
    claims = _stack_terminals(paths)
    rows = solve_stack(alloc_driver_gradient(drv), claims, paths,
                       z_y=[None] * len(claims))
    for claim, row in zip(claims, rows):
        _assert_same_solution(row, rho(drv, claim, paths)
                              if isinstance(claim, TerminalClaim)
                              else solve_lsmc(drv, -claim, paths))
