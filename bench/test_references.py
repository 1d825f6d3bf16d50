"""Hand values for the benchmark's own references.

The output checks in ``workloads.py`` trust ``references.py``; these tests
pin each reference to a value derived by hand, so a wrong reference
cannot pass a wrong program silently.
"""

import math

import numpy as np
import pytest

import references as ref

STEPS = (1, 7, 200, 500)


def cosh_risk(steps, lam):
    """Exact lattice entropic risk of W: N * lam * log cosh(sqrt(dt) / lam)."""
    return steps * lam * math.log(math.cosh(math.sqrt(1.0 / steps) / lam))


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("lam", (0.5, 1.0, 2.0))
def test_entropic_risk_of_w(steps, lam):
    levels = ref.entropic_risk(ref.terminal_states(steps), lam)
    assert levels[0][0] == pytest.approx(cosh_risk(steps, lam), rel=1e-12)
    # level k: -W_k plus the same log-cosh charge for the N - k steps left
    k = steps // 2
    s = math.sqrt(1.0 / steps)
    expect = -(2.0 * np.arange(k + 1) - k) * s \
        + (steps - k) * lam * math.log(math.cosh(s / lam))
    np.testing.assert_allclose(levels[k], expect, rtol=0, atol=1e-12)


def test_log_mean_exp_does_not_overflow():
    levels = ref.entropic_risk(1e3 * ref.terminal_states(50), 1e-3)
    assert all(np.all(np.isfinite(v)) for v in levels)


@pytest.mark.parametrize("steps", STEPS)
def test_binomial_average_is_a_martingale_at_one_half(steps):
    w = ref.terminal_states(steps)
    for k, level in enumerate(ref.binomial_average(w)):
        np.testing.assert_allclose(level, (2.0 * np.arange(k + 1) - k)
                                   * math.sqrt(1.0 / steps), atol=1e-12)


@pytest.mark.parametrize("steps", STEPS)
def test_worst_case_risk_of_w_is_mu_t(steps):
    # every step drifts by -mu * dt under the adverse weights
    risk = ref.worst_case_risk(ref.terminal_states(steps), 0.5)
    assert risk[0][0] == pytest.approx(0.5, abs=1e-12)
    assert len(risk) == steps + 1


@pytest.mark.parametrize("steps", STEPS)
def test_gradient_alloc_of_w_in_w(steps):
    # Esscher tilt exp(-W / lam): each step drifts by -s tanh(s / lam)
    w = ref.terminal_states(steps)
    s = math.sqrt(1.0 / steps)
    got = ref.entropic_gradient_alloc(w, w, 1.0)[0][0]
    assert got == pytest.approx(steps * s * math.tanh(s), rel=1e-12)


def test_marginal_drift_and_two_level_allocations_of_w():
    steps, lam = 200, 1.0
    w, zero = ref.terminal_states(steps), np.zeros(steps + 1)
    rho_w = cosh_risk(steps, lam)
    assert ref.entropic_marginal_alloc(w, w, lam)[0][0] == pytest.approx(rho_w, rel=1e-12)
    assert ref.entropic_marginal_alloc(zero, w, lam)[0][0] == pytest.approx(0.0, abs=1e-12)
    # the tilt c adds drift c * dt per step: E_Q[W_T] = c * T
    assert ref.entropic_drift_alloc(zero, w, lam, 2.0)[0][0] == \
        pytest.approx(rho_w + 2.0, rel=1e-12)
    assert ref.entropic_drift_alloc(w, w, lam, 2.0)[0][0] == pytest.approx(rho_w, rel=1e-12)
    assert ref.entropic_two_level_alloc(zero, w, lam, 2.0)[0][0] == \
        pytest.approx(rho_w + cosh_risk(steps, 2.0), rel=1e-12)


def test_brownian_closed_forms():
    assert ref.normal_cdf(0.0) == 0.5
    assert ref.normal_cdf(-1.0) == pytest.approx(0.15865525393145707, rel=1e-14)
    assert ref.brownian_entropic_linear(1.0) == 0.5
    assert ref.brownian_entropic_linear(2.0, 3.0) == 0.75
    # log(1/2 + e^(1/2) * Phi(-1))
    assert ref.brownian_entropic_call(1.0) == pytest.approx(-0.27236230, abs=1e-8)


def test_lattice_call_risk_converges_to_the_closed_form():
    steps = 2000
    w = ref.terminal_states(steps)
    lattice = ref.entropic_risk(np.maximum(w, 0.0), 1.0)[0][0]
    assert abs(lattice - ref.brownian_entropic_call(1.0)) < 1e-3
