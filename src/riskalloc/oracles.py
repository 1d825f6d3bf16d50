"""Closed-form reference values computed exactly on the lattice.

These are golden values for the solvers: each formula is evaluated by
direct conditional expectation sweeps on the tree (log-sum-exp stabilized
where exponentials appear), never through the backward BSDE recursion, so
oracle-vs-solver comparisons isolate solver error from discretization
error.  Each oracle returns every level, one array per level.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import TerminalClaim, tree_backward
from .errors import InvalidArgumentError, NotApplicableError
from .grid import TreeModel
from .measure import constant_kernel, expectation_under_Q

__all__ = ["entropic_rho", "entropic_gradient_car", "entropic_drift_car",
           "entropic_two_level_car", "worst_case_drift_rho"]

_LN2 = float(np.log(2.0))


def _check_positive(**params):
    for name, value in params.items():
        if not 0 < value < math.inf:
            raise InvalidArgumentError(
                f"{name} must be positive and finite, got {value}")


def _plain_average(tree, terminal):
    return tree_backward(tree, terminal,
                         lambda k, up, down: 0.5 * (up + down))


def entropic_rho(lam: float, claim: TerminalClaim, tree: TreeModel):
    """Exact lattice entropic risk: lam * log E[exp(-claim / lam) | level].

    The backward averaging runs in log space (logaddexp), so small ``lam``
    does not overflow.
    """
    _check_positive(lam=lam)
    exponents = -claim.on_tree(tree) / lam
    levels = tree_backward(tree, exponents,
                           lambda k, up, down: np.logaddexp(up, down) - _LN2)
    return [lam * m for m in levels]


def entropic_gradient_car(lam: float, sub: TerminalClaim, portfolio: TerminalClaim,
                          tree: TreeModel):
    """Exact lattice gradient allocation for the entropic measure:
    the exp(-portfolio/lam)-weighted conditional expectation of -sub."""
    _check_positive(lam=lam)
    w = -portfolio.on_tree(tree) / lam
    shift = float(np.max(w))
    weight = np.exp(w - shift)
    num = _plain_average(tree, -sub.on_tree(tree) * weight)
    den = _plain_average(tree, weight)
    return [n / d for n, d in zip(num, den)]


def entropic_drift_car(lam: float, c: float, sub: TerminalClaim,
                       portfolio: TerminalClaim, tree: TreeModel):
    """Exact lattice value of the drift-tilted entropic allocation:
    rho(portfolio) minus the constant-kernel expected loss of the remainder.

    Requires c * sqrt(dt) < 1 for the lattice tilt.
    """
    _check_positive(lam=lam, c=c)
    base = entropic_rho(lam, portfolio, tree)
    remainder = portfolio - sub
    tilted = expectation_under_Q(remainder, constant_kernel(c, tree))
    return [r - e for r, e in zip(base, tilted)]


def entropic_two_level_car(lam: float, lam_sub: float, sub: TerminalClaim,
                           portfolio: TerminalClaim, tree: TreeModel):
    """Exact lattice value of the double-entropic allocation:
    rho_lam(portfolio) + rho_lam_sub(sub - portfolio) level-wise."""
    _check_positive(lam=lam, lam_sub=lam_sub)
    base = entropic_rho(lam, portfolio, tree)
    excess = entropic_rho(lam_sub, sub - portfolio, tree)
    return [b + e for b, e in zip(base, excess)]


def worst_case_drift_rho(mu: float, claim: TerminalClaim, tree: TreeModel):
    """Coherent worst-case-drift risk for monotone claims.

    For a claim monotone in the terminal state the adverse measure tilts
    the walk against it at full strength mu; the value is the tilted
    expected loss with the constant kernel -mu * direction.
    """
    _check_positive(mu=mu)
    values = claim.on_tree(tree)
    diffs = np.diff(values)
    if np.all(diffs >= -1e-12):
        direction = 1.0
    elif np.all(diffs <= 1e-12):
        direction = -1.0
    else:
        raise NotApplicableError(
            f"claim {claim.label!r} is not monotone in the terminal state")
    return expectation_under_Q(claim, constant_kernel(-mu * direction, tree))
