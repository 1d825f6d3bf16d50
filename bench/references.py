"""Reference values computed apart from riskalloc.

Everything here is plain numpy over the recombining binomial lattice
(node j of level k sits at (2j - k) * sqrt(dt), its children are nodes j
and j + 1 of level k + 1) or a closed form for Brownian motion.  Nothing
imports riskalloc: its oracles share ``tree_backward`` and
``expectation_under_Q`` with the solvers they would be checking.
"""

import math

import numpy as np


def terminal_states(steps, horizon=1.0):
    """States of the last lattice level, lowest first."""
    return (2.0 * np.arange(steps + 1) - steps) * math.sqrt(horizon / steps)


def binomial_average(terminal, p_up=0.5):
    """levels[k] = E[terminal | level-k node] with up-branch weight ``p_up``.

    ``p_up`` is a constant, so the weight of every path with u up-moves is
    p_up^u (1 - p_up)^(n - u); the sweep is the plain two-point average.
    """
    cur = np.asarray(terminal, dtype=float)
    levels = [cur]
    while cur.size > 1:
        cur = p_up * cur[1:] + (1.0 - p_up) * cur[:-1]
        levels.append(cur)
    return levels[::-1]


def log_mean_exp(exponents):
    """levels[k] = log E[exp(exponents) | level-k node] under p_up = 1/2.

    Each step is a two-term log-sum-exp shifted by the larger term, so no
    exponential overflows.
    """
    cur = np.asarray(exponents, dtype=float)
    levels = [cur]
    while cur.size > 1:
        hi = np.maximum(cur[1:], cur[:-1])
        lo = np.minimum(cur[1:], cur[:-1])
        cur = hi + np.log1p(np.exp(lo - hi)) - math.log(2.0)
        levels.append(cur)
    return levels[::-1]


def entropic_risk(position, lam):
    """Exact lattice entropic risk lam * log E[exp(-position / lam) | F_k]."""
    return [lam * m for m in log_mean_exp(-np.asarray(position, float) / lam)]


def worst_case_risk(position, mu, horizon=1.0):
    """Coherent worst-case-drift risk of a position nondecreasing in W.

    The adverse measure tilts every step down at full strength: the up
    branch gets weight (1 - mu * sqrt(dt)) / 2.
    """
    steps = len(position) - 1
    s = math.sqrt(horizon / steps)
    return binomial_average(-np.asarray(position, float), 0.5 * (1.0 - mu * s))


def entropic_gradient_alloc(sub, portfolio, lam):
    """Gradient allocation of the entropic measure: the expected loss of the
    sub-position under the Esscher weight exp(-portfolio / lam)."""
    w = -np.asarray(portfolio, float) / lam
    weight = np.exp(w - np.max(w))
    num = binomial_average(-np.asarray(sub, float) * weight)
    den = binomial_average(weight)
    return [a / b for a, b in zip(num, den)]


def entropic_marginal_alloc(sub, portfolio, lam):
    """rho(portfolio) - rho(portfolio - sub), level by level."""
    sub, portfolio = np.asarray(sub, float), np.asarray(portfolio, float)
    return [a - b for a, b in zip(entropic_risk(portfolio, lam),
                                  entropic_risk(portfolio - sub, lam))]


def entropic_drift_alloc(sub, portfolio, lam, c, horizon=1.0):
    """Drift-tilted allocation: rho(portfolio) plus the expected remainder
    under the constant tilt c, whose up branch weighs (1 + c * sqrt(dt)) / 2."""
    sub, portfolio = np.asarray(sub, float), np.asarray(portfolio, float)
    s = math.sqrt(horizon / (len(portfolio) - 1))
    tilted = binomial_average(portfolio - sub, 0.5 * (1.0 + c * s))
    return [a + b for a, b in zip(entropic_risk(portfolio, lam), tilted)]


def entropic_two_level_alloc(sub, portfolio, lam, lam_sub):
    """Double-entropic allocation: rho_lam(portfolio) + rho_lam_sub(sub - portfolio)."""
    sub, portfolio = np.asarray(sub, float), np.asarray(portfolio, float)
    return [a + b for a, b in zip(entropic_risk(portfolio, lam),
                                  entropic_risk(sub - portfolio, lam_sub))]


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def brownian_entropic_linear(lam=1.0, horizon=1.0):
    """Continuous-time entropic risk of W_T: lam * log E[exp(-W_T / lam)]."""
    return horizon / (2.0 * lam)


def brownian_entropic_call(lam=1.0, horizon=1.0):
    """Continuous-time entropic risk of max(W_T, 0).

    E[exp(-max(W,0)/lam)] = 1/2 + exp(T / (2 lam^2)) * Phi(-sqrt(T) / lam).
    """
    a = math.sqrt(horizon) / lam
    return lam * math.log(0.5 + math.exp(0.5 * a * a) * normal_cdf(-a))
