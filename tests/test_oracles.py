import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskalloc import (InvalidArgumentError, NotApplicableError,
                       TerminalClaim, build_grid,
                       build_tree, constant_kernel, driver_entropic,
                       driver_scaled_norm,
                       entropic_drift_car, entropic_gradient_car, entropic_rho,
                       entropic_two_level_car, expectation_under_Q, rho,
                       worst_case_drift_rho)
from riskalloc.allocation import car_from_alloc_driver
from riskalloc.drivers import alloc_driver_entropic_two_level
from riskalloc.harness import default_corpus

W = TerminalClaim(lambda w: np.asarray(w, float), label="W")
CALL = TerminalClaim(lambda w: np.maximum(w, 0.0), label="call")


def tree(n, horizon=1.0):
    return build_tree(build_grid(horizon, n))


def test_entropic_rho_constant():
    t = tree(20)
    c = TerminalClaim(lambda w: np.full(len(w), 0.9), label="c")
    levels = entropic_rho(1.0, c, t)
    for vals in levels:
        assert np.allclose(vals, -0.9, atol=1e-12)


def test_entropic_rho_linear_claim_converges():
    value = entropic_rho(1.0, W, tree(200))[0]
    assert float(value[0]) == pytest.approx(0.5, abs=5e-3)


def test_entropic_rho_large_lambda_is_expectation():
    t = tree(100)
    lam = 1e3
    bound = float(np.max(np.abs(CALL.on_tree(t))))
    value = float(entropic_rho(lam, CALL, t)[0][0])
    reference = float(rho(__import__("riskalloc").driver_zero(), CALL, t).initial)
    assert abs(value - reference) <= 1e-2 * bound


def test_entropic_rho_small_lambda_stable():
    value = entropic_rho(0.05, CALL, tree(120))[0]
    assert np.isfinite(value).all()


def test_gradient_car_diagonal_dominates_rho():
    t = tree(100)
    lam = 1.0
    grad = entropic_gradient_car(lam, CALL, CALL, t)
    base = entropic_rho(lam, CALL, t)
    for g, r in zip(grad, base):
        assert np.all(g >= r - 1e-12)


def test_gradient_car_constant_portfolio():
    t = tree(60)
    const = TerminalClaim(lambda w: np.full(len(w), 2.0), label="c")
    grad = entropic_gradient_car(1.0, CALL, const, t)
    plain = rho(__import__("riskalloc").driver_zero(), CALL, t)
    for g, r in zip(grad, plain.values):
        assert np.max(np.abs(g - r)) < 1e-12


def test_gradient_car_constant_sub_position():
    t = tree(60)
    const = TerminalClaim(lambda w: np.full(len(w), 2.0), label="c")
    grad = entropic_gradient_car(1.0, const, W, t)
    for g in grad:
        assert np.allclose(g, -2.0, atol=1e-12)


def test_drift_car_diagonal():
    t = tree(80)
    levels = entropic_drift_car(1.0, 2.0, W, W, t)
    base = entropic_rho(1.0, W, t)
    for a, b in zip(levels, base):
        assert np.max(np.abs(a - b)) < 1e-12


def test_drift_car_linear_remainder():
    # portfolio minus sub-position is the Brownian endpoint: the tilt is a
    # clean drift: value = rho(Y) + c*T exactly on the lattice
    t = tree(128)
    c = 0.5
    y = CALL
    x = y - W
    levels = entropic_drift_car(1.0, c, x, y, t)
    base = entropic_rho(1.0, y, t)
    assert float(levels[0][0]) == pytest.approx(float(base[0][0]) + c * 1.0,
                                                abs=1e-12)
    # cross-checked against the measure-change machinery
    tilt = expectation_under_Q(y - x, constant_kernel(c, t))
    assert float(levels[0][0]) == pytest.approx(
        float(base[0][0]) - float(tilt[0][0]), abs=1e-12)


def test_two_level_car_diagonal():
    t = tree(60)
    levels = entropic_two_level_car(1.0, 2.0, CALL, CALL, t)
    base = entropic_rho(1.0, CALL, t)
    for a, b in zip(levels, base):
        assert np.max(np.abs(a - b)) < 1e-12


def test_two_level_car_zero_portfolio():
    t = tree(60)
    zero = TerminalClaim(lambda w: np.zeros(len(w)), label="0")
    lam = 0.7
    levels = entropic_two_level_car(lam, lam, CALL, zero, t)
    base = entropic_rho(lam, CALL, t)
    for a, b in zip(levels, base):
        assert np.max(np.abs(a - b)) < 1e-12


def test_two_level_car_matches_backward_solve():
    t = tree(100)
    half = TerminalClaim(lambda w: 0.5 * np.asarray(w, float), label="W/2")
    oracle = entropic_two_level_car(1.0, 2.0, half, W, t)
    alloc = alloc_driver_entropic_two_level(1.0, 2.0)
    solved = car_from_alloc_driver(alloc, half, W, t)
    gap = max(np.max(np.abs(a - b)) for a, b in zip(oracle, solved.values))
    assert gap < 1e-2


def test_worst_case_drift_linear():
    value = worst_case_drift_rho(0.5, W, tree(200))[0]
    assert float(value[0]) == pytest.approx(0.5, abs=1e-12)


def test_worst_case_drift_constant():
    t = tree(40)
    c = TerminalClaim(lambda w: np.full(len(w), 0.4), label="c")
    value = worst_case_drift_rho(0.5, c, t)[0]
    assert float(value[0]) == pytest.approx(-0.4, abs=1e-13)


def test_worst_case_drift_symmetric_claims():
    t = tree(100)
    up = worst_case_drift_rho(0.5, W, t)[0]
    down = worst_case_drift_rho(0.5, -W, t)[0]
    assert float(up[0]) == pytest.approx(float(down[0]), abs=1e-12)


def test_worst_case_drift_rejects_non_monotone():
    with pytest.raises(NotApplicableError):
        worst_case_drift_rho(0.5, TerminalClaim(lambda w: np.abs(w), label="abs"),
                             tree(30))


def test_oracles_reject_non_finite_parameters():
    t = tree(10)
    calls = [lambda x: entropic_rho(x, CALL, t),
             lambda x: entropic_gradient_car(x, CALL, W, t),
             lambda x: entropic_drift_car(1.0, x, CALL, W, t),
             lambda x: entropic_two_level_car(1.0, x, CALL, W, t),
             lambda x: worst_case_drift_rho(x, W, t)]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="finite"):
            call(np.inf)


def test_oracles_agree_with_solvers_on_same_lattice():
    t = tree(200)
    lam = 1.0
    drv = driver_entropic(lam)
    for claim in (W, CALL):
        oracle = entropic_rho(lam, claim, t)
        solved = rho(drv, claim, t)
        gap = max(np.max(np.abs(a - b)) for a, b in zip(oracle, solved.values))
        assert gap < 1e-2, claim.label



# Property tests: lattice solves against the closed-form oracles over
# random parameters and grid sizes.  The payoffs are the corpus's monotone
# ones, for which the worst-case drift is a constant kernel.
MONOTONE = {c.label: c for c in default_corpus().claims
            if c.label in ("lin", "call0", "squash")}


def _levels_gap(a, b):
    return max(float(np.max(np.abs(np.asarray(x) - y))) for x, y in zip(a, b))


# N >= 20 and mu <= 2 keep mu * sqrt(dt) <= 2 / sqrt(20) < 1, the lattice's
# stability condition.
@given(st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False),
       st.integers(20, 300), st.sampled_from(sorted(MONOTONE)))
@settings(max_examples=60, deadline=None)
def test_coherent_rho_is_the_worst_case_drift(mu, n, label):
    t = tree(n)
    claim = MONOTONE[label]
    gap = _levels_gap(rho(driver_scaled_norm(mu), claim, t).values,
                      worst_case_drift_rho(mu, claim, t))
    assert gap <= 1e-9


# The lattice entropic solve carries the quadratic driver's discretization
# error, which grows like dt / lam^3: N times the gap is at most 0.08 at
# lam = 1, 0.66 at lam = 0.5 and 5.3 at lam = 0.25 (N = 300).  2/N holds
# with room from lam = 0.5 up, so lam stops there.
@given(st.floats(0.5, 4.0), st.integers(20, 300),
       st.sampled_from(sorted(MONOTONE)))
@settings(max_examples=60, deadline=None)
def test_entropic_rho_matches_the_oracle_within_2_over_n(lam, n, label):
    t = tree(n)
    claim = MONOTONE[label]
    gap = _levels_gap(rho(driver_entropic(lam), claim, t).values,
                      entropic_rho(lam, claim, t))
    assert gap <= 2.0 / n
