"""Dynamic capital allocation rules as adapted processes.

Every rule assigns to a sub-position X inside a portfolio Y an adapted
amount.  Full rules agree with the risk of the portfolio on the diagonal
X == Y; audacious rules only promise to stay below it.  Rules come in two
families: driver-induced (a second backward solve whose generator sees the
portfolio's control process) and scenario-averaged (scaling-path averages of
tilted expectations, with or without their penalties).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drivers import (AllocDriver, Driver, alloc_driver_gradient,
                      alloc_driver_subdiff)
from .engine import (BasisSpec, BsdeSolution, RevealedClaim, TerminalClaim,
                     solve_alloc_lsmc, solve_alloc_tree, solve_lsmc, solve_tree)
from .errors import InvalidArgumentError, NotApplicableError
from .grid import TreeModel
from .measure import (dual_value, expectation_under_Q,
                      kernel_from_subgradient, penalty, rho)

__all__ = ["AllocationProcess", "QuadratureSpec", "CarRule",
           "car_from_alloc_driver", "car_subdifferential", "car_gradient",
           "car_marginal", "car_aumann_shapley", "car_penalized_as",
           "make_rule", "RULE_NAMES"]

RULE_NAMES = ("grad", "subdiff", "marginal", "as", "pas")


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre quadrature on (0, 1) for the scaling-path average."""

    points: int = 32

    def nodes(self):
        x, w = np.polynomial.legendre.leggauss(self.points)
        return (x + 1.0) / 2.0, w / 2.0


@dataclass
class AllocationProcess:
    """Adapted allocation values with rule and position bookkeeping.

    ``audacious`` marks rules whose diagonal only bounds the risk from
    below, so the identity check degrades to an inequality.
    """

    values: list
    rule: str
    sub_label: str
    portfolio_label: str
    audacious: bool = False
    control: list | None = None
    solution: BsdeSolution | None = None
    base_solution: BsdeSolution | None = None
    reveal: int | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def initial(self) -> float:
        return float(np.asarray(self.values[0]).flat[0])

    def at(self, k: int):
        return self.values[k]

    def values_at_reveal(self) -> np.ndarray:
        if self.reveal is None:
            raise InvalidArgumentError("not built from a revealed claim")
        return np.diagonal(self.values[self.reveal]).copy()

    def averaged_density(self, max_steps: int = 16):
        """Scaling-path averaged density for scenario-averaged rules.

        On a tree, returns (node_index, density) over the expanded binary
        paths (small depth only); on ensembles, the per-level averaged
        density arrays.
        """
        scenarios = self.metadata.get("scenarios")
        if not scenarios:
            raise InvalidArgumentError(
                f"rule {self.rule!r} does not carry scenario kernels")
        first = scenarios[0][2]
        if first.on_tree:
            node = None
            total = None
            for _, w, kernel in scenarios:
                node, dens = kernel.density_paths(max_steps)
                total = w * dens if total is None else total + w * dens
            return node, total
        levels = None
        for _, w, kernel in scenarios:
            contrib = [w * d for d in kernel.density]
            levels = contrib if levels is None else [a + b for a, b in
                                                     zip(levels, contrib)]
        return levels


def _label(claim) -> str:
    return getattr(claim, "label", "claim")


def _reveal_of(claim):
    return claim.level if isinstance(claim, RevealedClaim) else None


def _check_reveals(sub, portfolio):
    rs, rp = _reveal_of(sub), _reveal_of(portfolio)
    if rp is not None and rs != rp:
        raise InvalidArgumentError(
            "a revealed portfolio needs the sub-position revealed at the "
            "same level")
    return rs


def _shared_base(base, driver, portfolio, disc):
    """``base`` if it can stand in for the portfolio's base solve under
    ``driver``, else None.

    ``base`` must be the plain solve of the negated plain ``portfolio`` on
    ``disc`` (with the same basis); one solved with another driver is
    ignored, one from another discretization or a revealed solve is
    rejected.
    """
    if base is None:
        return None
    if (base.discretization is not disc or base.reveal is not None
            or _reveal_of(portfolio) is not None):
        raise InvalidArgumentError(
            "base must be the plain solve of a plain portfolio on the "
            "discretization being allocated on")
    return base if base.driver is driver else None


def _base_solution(driver, portfolio, disc, basis, max_step=None, base=None):
    """Base solve of the negated portfolio under ``driver``, or ``base``
    when it stands in for it (see ``_shared_base``)."""
    base = _shared_base(base, driver, portfolio, disc)
    if base is not None:
        return base
    if isinstance(disc, TreeModel):
        return solve_tree(driver, -portfolio, disc, max_step=max_step)
    return solve_lsmc(driver, -portfolio, disc, basis)


def _alloc_solution(alloc, sub, z_y, disc, basis, max_step=None):
    if isinstance(disc, TreeModel):
        return solve_alloc_tree(alloc, sub, z_y, disc, max_step=max_step)
    return solve_alloc_lsmc(alloc, sub, z_y, disc, basis)


def _zero_like(claim_label="0"):
    return TerminalClaim(lambda w: np.zeros(np.shape(w)[0] if np.ndim(w) else ()),
                         0.0, claim_label)


def _subtract_claims(portfolio, sub):
    """portfolio - sub across plain/revealed combinations."""
    ps, ss = isinstance(portfolio, RevealedClaim), isinstance(sub, RevealedClaim)
    if not ps and not ss:
        return portfolio - sub
    if ss and not ps:
        term = portfolio if sub.terminal is None else portfolio - sub.terminal
        return RevealedClaim(sub.level, -np.asarray(sub.values, dtype=float),
                             term, f"{_label(portfolio)}-{sub.label}")
    if ps and not ss:
        term = -sub if portfolio.terminal is None else portfolio.terminal - sub
        return RevealedClaim(portfolio.level, np.asarray(portfolio.values, dtype=float),
                             term, f"{portfolio.label}-{_label(sub)}")
    if portfolio.level != sub.level:
        raise InvalidArgumentError("revealed claims live at different levels")
    if portfolio.terminal is None and sub.terminal is None:
        term = None
    else:
        a = portfolio.terminal or _zero_like()
        b = sub.terminal or _zero_like()
        term = a - b
    values = np.asarray(portfolio.values, dtype=float) - np.asarray(sub.values,
                                                                    dtype=float)
    return RevealedClaim(portfolio.level, values, term,
                         f"{portfolio.label}-{sub.label}")


def _car_via_driver(alloc: AllocDriver, sub, portfolio, disc, basis,
                    rule_name, audacious=False, max_step=None,
                    base=None) -> AllocationProcess:
    reveal = _check_reveals(sub, portfolio)
    base = _base_solution(alloc.base, portfolio, disc, basis, max_step, base)
    sol = _alloc_solution(alloc, sub, base.controls, disc, basis, max_step)
    return AllocationProcess(sol.values, rule_name, _label(sub), _label(portfolio),
                             audacious=audacious, control=sol.controls,
                             solution=sol, base_solution=base, reveal=reveal)


def car_from_alloc_driver(alloc: AllocDriver, sub, portfolio, disc,
                          basis: BasisSpec | None = None,
                          max_step=None, base=None) -> AllocationProcess:
    """Allocation induced by a diagonal allocation driver.

    Solves the base equation for the negated portfolio (or reuses ``base``
    when it was solved with ``alloc.base``), then the allocation equation
    for the negated sub-position with the portfolio control frozen into the
    driver.
    """
    if not alloc.diagonal:
        raise InvalidArgumentError(
            f"allocation driver {alloc.name!r} does not satisfy the diagonal "
            "condition; a full allocation rule requires it")
    return _car_via_driver(alloc, sub, portfolio, disc, basis,
                           f"custom:{alloc.name}", max_step=max_step, base=base)


def car_subdifferential(driver: Driver, sub, portfolio, disc,
                        basis: BasisSpec | None = None, route: str = "bsde",
                        max_step=None, base=None) -> AllocationProcess:
    """Subdifferential allocation.

    Two equivalent computations: ``route='bsde'`` runs the backward solve
    with the supporting-plane driver, ``route='dual'`` charges the
    sub-position under the portfolio's optimal scenario and subtracts the
    scenario's penalty.  On the lattice the two agree to float accuracy.
    """
    if route == "bsde":
        proc = _car_via_driver(alloc_driver_subdiff(driver), sub, portfolio,
                               disc, basis, "subdiff", max_step=max_step,
                               base=base)
        proc.metadata["route"] = "bsde"
        return proc
    if route != "dual":
        raise InvalidArgumentError(f"unknown route {route!r}")
    reveal = _check_reveals(sub, portfolio)
    if _reveal_of(portfolio) is not None:
        raise NotApplicableError("dual route needs a plain portfolio")
    base = _base_solution(driver, portfolio, disc, basis, max_step, base)
    kernel = kernel_from_subgradient(driver, base)
    expect = expectation_under_Q(sub, kernel, basis=basis)
    pen = penalty(driver, kernel, basis=basis)
    values = [e - c for e, c in zip(expect, pen.values)]
    return AllocationProcess(values, "subdiff", _label(sub), _label(portfolio),
                             base_solution=base, reveal=reveal,
                             metadata={"route": "dual", "kernel": kernel})


def car_gradient(driver: Driver, sub, portfolio, disc,
                 basis: BasisSpec | None = None, max_step=None,
                 base=None) -> AllocationProcess:
    """Gradient allocation: the linear driver q(z_y)·z.

    Coincides with the subdifferential rule for positively homogeneous
    drivers; for strictly convex drivers its diagonal exceeds the risk by
    the scenario penalty, so it is not a full allocation rule there.
    """
    alloc = alloc_driver_gradient(driver)
    return _car_via_driver(alloc, sub, portfolio, disc, basis, "grad",
                           max_step=max_step, base=base)


def car_marginal(driver: Driver, sub, portfolio, disc,
                 basis: BasisSpec | None = None, max_step=None,
                 base=None) -> AllocationProcess:
    """Marginal allocation: risk of the portfolio minus risk without the
    sub-position, state-wise."""
    reveal = _check_reveals(sub, portfolio)
    base = _shared_base(base, driver, portfolio, disc) \
        or rho(driver, portfolio, disc, basis, max_step=max_step).solution
    without = rho(driver, _subtract_claims(portfolio, sub), disc, basis,
                  max_step=max_step)
    values = [a - b for a, b in zip(base.values, without.values)]
    return AllocationProcess(values, "marginal", _label(sub), _label(portfolio),
                             base_solution=base, reveal=reveal)


def _scenario_kernels(driver, portfolio, disc, gammas, basis, max_step=None,
                      base=None):
    if driver.positively_homogeneous:
        # scaling leaves both the control direction and the subgradient
        # selection unchanged, so every scenario is the unscaled one
        sol = _base_solution(driver, portfolio, disc, basis, max_step, base)
        kernel = kernel_from_subgradient(driver, sol)
        return [kernel] * len(gammas)
    out = []
    for g in gammas:
        scaled = portfolio.scale(float(g)) if isinstance(portfolio, TerminalClaim) \
            else RevealedClaim(portfolio.level,
                               float(g) * np.asarray(portfolio.values, dtype=float),
                               None if portfolio.terminal is None
                               else portfolio.terminal.scale(float(g)),
                               f"{g:g}*{portfolio.label}")
        sol = _base_solution(driver, scaled, disc, basis, max_step)
        out.append(kernel_from_subgradient(driver, sol))
    return out


def car_aumann_shapley(driver: Driver, sub, portfolio, disc,
                       quadrature: QuadratureSpec | None = None,
                       basis: BasisSpec | None = None,
                       max_step=None, base=None) -> AllocationProcess:
    """Scaling-path average of the sub-position's expected loss under the
    optimal scenarios of the scaled portfolio.

    For positively homogeneous drivers the integrand does not depend on the
    scale, so the average collapses to the subdifferential rule.
    """
    if _reveal_of(portfolio) is not None:
        raise NotApplicableError("scenario-averaged rules need a plain portfolio")
    quadrature = quadrature or QuadratureSpec()
    gammas, weights = quadrature.nodes()
    kernels = _scenario_kernels(driver, portfolio, disc, gammas, basis, max_step,
                                base)
    values = None
    scenarios = []
    for g, w, kernel in zip(gammas, weights, kernels):
        expect = expectation_under_Q(sub, kernel, basis=basis)
        contrib = [w * e for e in expect]
        values = contrib if values is None else [a + b for a, b in
                                                 zip(values, contrib)]
        scenarios.append((float(g), float(w), kernel))
    return AllocationProcess(values, "as", _label(sub), _label(portfolio),
                             reveal=_reveal_of(sub),
                             metadata={"scenarios": scenarios,
                                       "quadrature": quadrature.points})


def car_penalized_as(driver: Driver, sub, portfolio, disc,
                     quadrature: QuadratureSpec | None = None,
                     basis: BasisSpec | None = None,
                     max_step=None, base=None) -> AllocationProcess:
    """Scaling-path average of full dual values (expected loss minus the
    scenario penalty).  Audacious: its diagonal gives away the averaged
    penalties, so it undershoots the risk whenever penalties are positive."""
    if _reveal_of(portfolio) is not None:
        raise NotApplicableError("scenario-averaged rules need a plain portfolio")
    quadrature = quadrature or QuadratureSpec()
    gammas, weights = quadrature.nodes()
    kernels = _scenario_kernels(driver, portfolio, disc, gammas, basis, max_step,
                                base)
    values = None
    scenarios = []
    for g, w, kernel in zip(gammas, weights, kernels):
        dual = dual_value(driver, sub, kernel, basis=basis)
        contrib = [w * v for v in dual]
        values = contrib if values is None else [a + b for a, b in
                                                 zip(values, contrib)]
        scenarios.append((float(g), float(w), kernel))
    return AllocationProcess(values, "pas", _label(sub), _label(portfolio),
                             audacious=True, reveal=_reveal_of(sub),
                             metadata={"scenarios": scenarios,
                                       "quadrature": quadrature.points})


@dataclass(frozen=True)
class CarRule:
    """A named allocation rule bound to its risk driver.

    ``allocate`` accepts plain or revealed claims (tree only for the
    latter) and returns the full adapted process.
    """

    name: str
    driver: Driver
    audacious: bool = False
    alloc_driver: AllocDriver | None = None
    quadrature: QuadratureSpec | None = None
    route: str = "bsde"

    @property
    def base_driver(self) -> Driver | None:
        """Driver of the portfolio base solve this rule can take as
        ``base``; None when it takes none (scenario-averaged rules over a
        non-homogeneous driver solve scaled portfolios instead)."""
        if self.alloc_driver is not None:
            return self.alloc_driver.base
        if self.name in ("as", "pas") and not self.driver.positively_homogeneous:
            return None
        return self.driver

    def allocate(self, sub, portfolio, disc, basis=None,
                 max_step=None, base=None) -> AllocationProcess:
        """Allocate ``sub`` inside ``portfolio``.

        ``base`` optionally supplies the portfolio's base solve: the plain
        solve of the negated plain portfolio on ``disc`` with the same
        basis.  A rule uses it only when it was solved with
        ``base_driver``; a solve from another discretization, or a revealed
        one, is rejected.
        """
        if self.name == "grad":
            return car_gradient(self.driver, sub, portfolio, disc, basis,
                                max_step, base)
        if self.name == "subdiff":
            return car_subdifferential(self.driver, sub, portfolio, disc,
                                       basis, self.route, max_step, base)
        if self.name == "marginal":
            return car_marginal(self.driver, sub, portfolio, disc, basis,
                                max_step, base)
        if self.name == "as":
            return car_aumann_shapley(self.driver, sub, portfolio, disc,
                                      self.quadrature, basis, max_step, base)
        if self.name == "pas":
            return car_penalized_as(self.driver, sub, portfolio, disc,
                                    self.quadrature, basis, max_step, base)
        # custom drivers run unguarded so non-diagonal ones (e.g. gradient
        # over a strictly convex base) can be exercised by the harness
        return _car_via_driver(self.alloc_driver, sub, portfolio, disc, basis,
                               self.name, audacious=self.audacious,
                               max_step=max_step, base=base)

    def risk(self, claim, disc, basis=None, max_step=None):
        return rho(self.driver, claim, disc, basis, max_step=max_step)


def make_rule(name: str, driver: Driver, alloc_driver: AllocDriver | None = None,
              quadrature: QuadratureSpec | None = None,
              route: str = "bsde") -> CarRule:
    """Build a rule from its catalog name (or a custom allocation driver)."""
    if name in ("grad", "subdiff", "marginal", "as"):
        return CarRule(name, driver, quadrature=quadrature, route=route)
    if name == "pas":
        return CarRule(name, driver, audacious=True, quadrature=quadrature)
    if name == "custom" or name.startswith("custom:"):
        if alloc_driver is None:
            raise InvalidArgumentError("custom rules need an allocation driver")
        return CarRule(f"custom:{alloc_driver.name}", driver,
                       alloc_driver=alloc_driver)
    raise InvalidArgumentError(
        f"unknown rule {name!r}; known rules: {', '.join(RULE_NAMES)} or custom:<spec>")
