"""Dynamic capital allocation rules as adapted processes.

Every rule assigns to a sub-position X inside a portfolio Y an adapted
amount.  Full rules agree with the risk of the portfolio on the diagonal
X == Y; audacious rules only promise to stay below it.  ``RULES`` names
each rule once: driver-induced rules run a second backward solve whose
generator sees the portfolio's control process; the marginal rule and the
scaling-path averages of tilted expectations (``as``, ``pas``) are direct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .drivers import (AllocDriver, Driver, alloc_driver_gradient,
                      alloc_driver_subdiff)
from .engine import (ZERO, BasisSpec, BsdeSolution, RevealedClaim, band,
                     solve_alloc_lsmc, solve_alloc_lsmc_stack, solve_alloc_tree,
                     solve_alloc_tree_stack, solve_lsmc_stack)
from .errors import InvalidArgumentError, NotApplicableError
from .grid import PathEnsemble, TreeModel
from .measure import (dual_value, kernel_from_subgradient, penalty, rho,
                      scenario_average, stack_kernels, stack_levels)

__all__ = ["QuadratureSpec", "CarRule", "SolveCache", "ScenarioSet",
           "averaged_density",
           "car_from_alloc_driver", "car_subdifferential", "car_gradient",
           "car_marginal", "car_aumann_shapley", "car_penalized_as",
           "make_rule", "RULE_NAMES"]

@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre quadrature on (0, 1) for the scaling-path average."""

    points: int = 32

    def nodes(self):
        x, w = np.polynomial.legendre.leggauss(self.points)
        return (x + 1.0) / 2.0, w / 2.0


def averaged_density(proc: BsdeSolution):
    """Scaling-path averaged density of a scenario-averaged allocation.

    On a tree, returns (node_index, density) over the expanded binary
    paths (small depth only); on ensembles, the per-level averaged
    density arrays.
    """
    scenarios = proc.metadata.get("scenarios")
    if not scenarios:
        raise InvalidArgumentError(
            f"rule {proc.metadata.get('rule')!r} does not carry scenario kernels")
    if scenarios[0][2].on_tree:
        total = last = None
        for _, w, kernel in scenarios:
            # nodes sharing a kernel are adjacent (see ScenarioSet.rows)
            if kernel is not last:
                node, dens = kernel.density_paths()
                last = kernel
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


def _meta(rule, sub, portfolio, **extra) -> dict:
    """The bookkeeping every allocation carries in its metadata."""
    return dict(rule=rule.name, sub=_label(sub), portfolio=_label(portfolio),
                audacious=rule.audacious, **extra)


def _reveal_of(claim):
    return claim.level if isinstance(claim, RevealedClaim) else None


def _check_reveals(sub, portfolio):
    rs, rp = _reveal_of(sub), _reveal_of(portfolio)
    if rp is not None and rs != rp:
        raise InvalidArgumentError(
            "a revealed portfolio needs the sub-position revealed at the "
            "same level")
    return rs


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
        a = portfolio.terminal or ZERO
        b = sub.terminal or ZERO
        term = a - b
    values = np.asarray(portfolio.values, dtype=float) - np.asarray(sub.values,
                                                                    dtype=float)
    return RevealedClaim(portfolio.level, values, term,
                         f"{portfolio.label}-{sub.label}")


class ScenarioSet:
    """Optimal scenarios of the scaled portfolios gamma*Y for gamma at the
    quadrature nodes on (0, 1).

    This is the integrand of both scenario-averaged rules; it depends on
    the driver and the portfolio only.  ``stack`` holds the distinct
    kernels once (on the lattice one (rows, k+1) array per level), node i
    uses stack row ``rows[i]`` and ``kernels[i]`` is that row as a kernel
    of views, one object per distinct row.  A positively homogeneous
    driver has one distinct kernel: scaling leaves both the control
    direction and the subgradient selection unchanged.  The penalties along the kernels are computed on
    first request.
    """

    def __init__(self, driver, portfolio, quadrature, cache):
        self.driver = driver
        self.basis = cache.basis
        self.gammas, self.weights = quadrature.nodes()
        if driver.positively_homogeneous:
            solves = [cache.risk(driver, portfolio)]
            self.rows = [0] * len(self.gammas)
        else:
            # a generator: each scaled solve is dropped once its kernel is
            # stacked, and none is stored in the cache
            solves = (rho(driver, portfolio.scale(float(g)), cache.disc,
                          cache.basis) for g in self.gammas)
            self.rows = list(range(len(self.gammas)))
        kernels = (kernel_from_subgradient(driver, r) for r in solves)
        self.stack = stack_kernels(kernels, max(self.rows) + 1, cache.disc)
        distinct = [self.stack.row(r) for r in range(max(self.rows) + 1)]
        self.kernels = [distinct[r] for r in self.rows]
        self._penalties = None

    def penalties(self) -> list:
        """Per-level penalty stack, one row per distinct kernel."""
        if self._penalties is None:
            count = len(self.stack.q[0])
            self._penalties = stack_levels(
                (penalty(self.driver, self.stack.row(r), basis=self.basis).values
                 for r in range(count)), count)
        return self._penalties

    def average(self, sub, penalized: bool) -> list:
        """Quadrature average of the sub-position's tilted expected loss,
        minus the scenario penalties when ``penalized``."""
        return scenario_average(sub, self.stack,
                                list(zip(self.weights, self.rows)),
                                self.penalties() if penalized else None,
                                self.basis)


class SolveCache:
    """Portfolio-level solves shared by the allocations on one
    discretization (and, on ensembles, one regression basis).

    Holds risk solves, keyed by (driver, claim) identity, and scenario
    sets, keyed by (driver, portfolio, quadrature).  Every entry holds its
    driver and claim, so the ids in its key are never reused while it
    lives.  The risk solve of a plain claim Y is also the base solve of
    every rule allocating inside Y with that driver.  Revealed claims are
    solved, not stored.  The caller owns the cache: its entries live as
    long as it does.
    """

    def __init__(self, disc, basis: BasisSpec | None = None):
        self.disc = disc
        self.basis = (basis or BasisSpec()) if isinstance(disc, PathEnsemble) \
            else basis
        self._risk = {}
        self._sets = {}

    @classmethod
    def ensure(cls, cache, disc, basis=None) -> "SolveCache":
        """``cache`` once it is checked to be bound to ``disc`` (and
        ``basis``), or a fresh cache when it is None."""
        if cache is None:
            return cls(disc, basis)
        if disc is not cache.disc or (isinstance(disc, PathEnsemble)
                                      and (basis or BasisSpec()) != cache.basis):
            raise InvalidArgumentError(
                "the solve cache is bound to another discretization or basis")
        return cache

    def risk(self, driver: Driver, claim) -> BsdeSolution:
        """``rho(driver, claim)`` on the cache's discretization."""
        if isinstance(claim, RevealedClaim):
            return rho(driver, claim, self.disc, self.basis)
        key = (id(driver), id(claim))
        if key not in self._risk:
            self._risk[key] = (driver, claim,
                               rho(driver, claim, self.disc, self.basis))
        return self._risk[key][2]

    def risks(self, driver: Driver, claims) -> list:
        """``risk`` of each claim; on an ensemble the claims not held yet
        are solved as one claim stack."""
        if isinstance(self.disc, PathEnsemble):
            missing = {id(c): c for c in claims
                       if (id(driver), id(c)) not in self._risk}
            if len(missing) > 1:
                sols = solve_lsmc_stack(driver, [-c for c in missing.values()],
                                        self.disc, self.basis)
                for c, sol in zip(missing.values(), sols):
                    self._risk[(id(driver), id(c))] = (driver, c, sol)
        return [self.risk(driver, c) for c in claims]

    def scenarios(self, driver: Driver, portfolio,
                  quadrature: QuadratureSpec) -> ScenarioSet:
        """The scenario set of the plain ``portfolio`` under ``driver``."""
        key = (id(driver), id(portfolio), quadrature)
        if key not in self._sets:
            self._sets[key] = (driver, portfolio,
                               ScenarioSet(driver, portfolio, quadrature, self))
        return self._sets[key][2]


def _folded(procs, reduce) -> list:
    """``reduce`` of each process as a stack of one, gathered per level:
    the levels of a reduced ``allocate_stack`` from processes made one at
    a time, none of which needs to outlive its reduction."""
    each = [[reduce(k, np.asarray(v)[None], slice(i, i + 1))
             for k, v in enumerate(proc.values)]
            for i, proc in enumerate(procs)]
    return [[row for rows in level for row in rows] for level in zip(*each)]


def _via_driver(rule, subs, portfolio, cache, reduce=None) -> list:
    """One base solve, then one allocation solve per sub-position (one
    claim stack on an ensemble, and on the lattice when reduced)."""
    alloc, disc = rule.alloc_driver, cache.disc
    for sub in subs:
        _check_reveals(sub, portfolio)
    if isinstance(disc, TreeModel) and reduce is not None:
        # only the controls: a revealed base solve is freed before the pass
        controls = cache.risk(alloc.base, portfolio).controls
        rows = slice(0, len(subs))
        return solve_alloc_tree_stack(alloc, subs, controls, disc,
                                      lambda k, values: reduce(k, values, rows))
    base = cache.risk(alloc.base, portfolio)
    if isinstance(disc, TreeModel):
        sols = [solve_alloc_tree(alloc, sub, base.controls, disc) for sub in subs]
    elif len(subs) == 1:
        sols = [solve_alloc_lsmc(alloc, subs[0], base.controls, disc, cache.basis)]
    else:
        sols = solve_alloc_lsmc_stack(alloc, subs, base.controls, disc,
                                      cache.basis)
    if reduce is not None:
        return _folded(sols, reduce)
    # a rule with a second route names the one it took
    routed = RULES.get(rule.name, _Rule()).body is not None
    extra = {"route": "bsde"} if routed else {}
    for sub, sol in zip(subs, sols):
        sol.metadata.update(_meta(rule, sub, portfolio, base=base, **extra))
    return sols


def _dual(rule, sub, portfolio, cache) -> BsdeSolution:
    reveal = _check_reveals(sub, portfolio)
    if _reveal_of(portfolio) is not None:
        raise NotApplicableError("dual route needs a plain portfolio")
    base = cache.risk(rule.driver, portfolio)
    kernel = kernel_from_subgradient(rule.driver, base)
    values = dual_value(rule.driver, sub, kernel, basis=cache.basis)
    return BsdeSolution(values, None, cache.disc, rule.driver, "dual",
                        _meta(rule, sub, portfolio, base=base, route="dual",
                              kernel=kernel), reveal)


def _marginal(rule, sub, portfolio, cache) -> BsdeSolution:
    reveal = _check_reveals(sub, portfolio)
    base = cache.risk(rule.driver, portfolio)
    # the reduced portfolio is a new claim on every call: solved, not cached
    without = rho(rule.driver, _subtract_claims(portfolio, sub), cache.disc,
                  cache.basis)
    # a plain portfolio's values meet a revealed remainder as bands
    lift = reveal if base.reveal is None else None
    values = [band(a, k, lift) - b
              for k, (a, b) in enumerate(zip(base.values, without.values))]
    return BsdeSolution(values, None, cache.disc, rule.driver, "marginal",
                        _meta(rule, sub, portfolio, base=base), reveal)


def _averaged(rule, sub, portfolio, cache, penalized) -> BsdeSolution:
    if _reveal_of(portfolio) is not None:
        raise NotApplicableError("scenario-averaged rules need a plain portfolio")
    quadrature = rule.quadrature or QuadratureSpec()
    scen = cache.scenarios(rule.driver, portfolio, quadrature)
    scenarios = [(float(g), float(w), kernel) for g, w, kernel in
                 zip(scen.gammas, scen.weights, scen.kernels)]
    return BsdeSolution(scen.average(sub, penalized), None, cache.disc,
                        rule.driver, "average",
                        _meta(rule, sub, portfolio, scenarios=scenarios,
                              quadrature=quadrature.points), _reveal_of(sub))


@dataclass(frozen=True)
class _Rule:
    alloc: Callable | None = None
    body: Callable | None = None
    audacious: bool = False


# The rule catalog.  ``alloc`` builds a driver-induced rule's allocation
# driver from the risk driver when the rule is made (each build probes the
# driver; the factories look the builders up when called); ``body(rule, sub,
# portfolio, cache)`` computes one allocation directly.  A rule
# with both has two routes: ``bsde`` uses the driver, ``dual`` the body.
RULES = {
    "grad": _Rule(alloc=lambda driver: alloc_driver_gradient(driver)),
    "subdiff": _Rule(alloc=lambda driver: alloc_driver_subdiff(driver),
                     body=_dual),
    "marginal": _Rule(body=_marginal),
    "as": _Rule(body=partial(_averaged, penalized=False)),
    "pas": _Rule(body=partial(_averaged, penalized=True), audacious=True),
}
RULE_NAMES = tuple(RULES)


@dataclass(frozen=True)
class CarRule:
    """A named allocation rule bound to its risk driver.

    A driver-induced rule holds its ``alloc_driver``, built once by
    ``make_rule``; a rule without one allocates through its ``RULES``
    body, a two-route rule only on its ``dual`` ``route``.  Claims may be
    plain or revealed (tree only for the latter).
    """

    name: str
    driver: Driver
    audacious: bool = False
    alloc_driver: AllocDriver | None = None
    quadrature: QuadratureSpec | None = None
    route: str = "bsde"

    def allocate(self, sub, portfolio, disc, basis=None,
                 cache=None) -> BsdeSolution:
        """Allocate ``sub`` inside ``portfolio``; ``cache`` optionally
        supplies the portfolio-level solves shared with other allocations
        on ``disc`` (see ``SolveCache``).

        Returns a ``BsdeSolution``: a driver-induced rule's allocation
        solve (``method`` ``tree`` or ``lsmc``), or the direct process of
        the rule's body (``dual``, ``marginal`` or ``average``, no
        controls).  Its metadata names the ``rule``, the ``sub`` and
        ``portfolio`` labels and whether it is ``audacious``, and holds
        the portfolio's ``base`` solve where one was used and the
        ``route`` of a two-route rule."""
        return self.allocate_stack([sub], portfolio, disc, basis, cache)[0]

    def allocate_stack(self, subs, portfolio, disc, basis=None,
                       cache=None, reduce=None) -> list:
        """``allocate`` of each of ``subs``: a driver-induced rule shares
        one base solve (and on an ensemble solves ``subs`` as one stack),
        other rules allocate one sub-position at a time.

        With ``reduce`` the allocations are consumed level by level: the
        result is ``[reduce(k, level, rows) for each level k]``, where the
        level carries a leading axis over ``subs[rows]`` and ``reduce``
        returns one entry per row.  A driver-induced rule on the lattice then
        runs one stacked pass that keeps no level; the others reduce each
        allocation as a stack of one."""
        cache = SolveCache.ensure(cache, disc, basis)
        if self.alloc_driver is not None:
            # custom drivers run unguarded so non-diagonal ones (e.g. gradient
            # over a strictly convex base) can be exercised by the harness
            return _via_driver(self, list(subs), portfolio, cache, reduce)
        entry = RULES.get(self.name, _Rule())
        if entry.body is None or (entry.alloc and self.route == "bsde"):
            raise InvalidArgumentError(
                f"rule {self.name!r} carries no allocation driver; build it "
                "with make_rule")
        procs = (entry.body(self, sub, portfolio, cache) for sub in subs)
        return list(procs) if reduce is None else _folded(procs, reduce)

    def risk(self, claim, disc, basis=None):
        return rho(self.driver, claim, disc, basis)


def make_rule(name: str, driver: Driver, alloc_driver: AllocDriver | None = None,
              quadrature: QuadratureSpec | None = None,
              route: str = "bsde") -> CarRule:
    """Build a rule from its catalog name (or a custom allocation driver);
    a two-route rule builds its allocation driver on the ``bsde`` route."""
    if route not in ("bsde", "dual"):
        raise InvalidArgumentError(f"unknown route {route!r}")
    if name == "custom" or name.startswith("custom:"):
        if alloc_driver is None:
            raise InvalidArgumentError("custom rules need an allocation driver")
        return CarRule(f"custom:{alloc_driver.name}", driver,
                       alloc_driver=alloc_driver)
    entry = RULES.get(name)
    if entry is None:
        raise InvalidArgumentError(
            f"unknown rule {name!r}; known rules: {', '.join(RULE_NAMES)} "
            "or custom:<spec>")
    induced = entry.alloc is not None and (route == "bsde" or entry.body is None)
    return CarRule(name, driver, entry.audacious,
                   entry.alloc(driver) if induced else None, quadrature, route)


# The rule families as functions: each is make_rule(name, ...).allocate(...).
def car_from_alloc_driver(alloc: AllocDriver, sub, portfolio, disc,
                          basis: BasisSpec | None = None,
                          cache=None) -> BsdeSolution:
    """Allocation induced by a diagonal allocation driver: the base solve
    of the negated portfolio (or ``cache``'s), then the allocation equation
    for the negated sub-position with the portfolio control frozen into
    the driver."""
    if not alloc.diagonal:
        raise InvalidArgumentError(
            f"allocation driver {alloc.name!r} does not satisfy the diagonal "
            "condition; a full allocation rule requires it")
    return make_rule("custom", alloc.base, alloc_driver=alloc).allocate(
        sub, portfolio, disc, basis, cache)


def car_subdifferential(driver: Driver, sub, portfolio, disc,
                        basis: BasisSpec | None = None, route: str = "bsde",
                        cache=None) -> BsdeSolution:
    """Subdifferential allocation, by two equivalent computations:
    ``route='bsde'`` runs the backward solve with the supporting-plane
    driver, ``route='dual'`` charges the sub-position under the portfolio's
    optimal scenario and subtracts the scenario's penalty.  On the lattice
    the two agree to float accuracy."""
    return make_rule("subdiff", driver, route=route).allocate(
        sub, portfolio, disc, basis, cache)


def car_gradient(driver: Driver, sub, portfolio, disc,
                 basis: BasisSpec | None = None, cache=None) -> BsdeSolution:
    """Gradient allocation: the linear driver q(z_y)·z.

    Coincides with the subdifferential rule for positively homogeneous
    drivers; for strictly convex drivers its diagonal exceeds the risk by
    the scenario penalty, so it is not a full allocation rule there.
    """
    return make_rule("grad", driver).allocate(sub, portfolio, disc, basis,
                                              cache)


def car_marginal(driver: Driver, sub, portfolio, disc,
                 basis: BasisSpec | None = None, cache=None) -> BsdeSolution:
    """Marginal allocation: risk of the portfolio minus risk without the
    sub-position, state-wise."""
    return make_rule("marginal", driver).allocate(sub, portfolio, disc, basis,
                                                  cache)


def car_aumann_shapley(driver: Driver, sub, portfolio, disc,
                       quadrature: QuadratureSpec | None = None,
                       basis: BasisSpec | None = None,
                       cache=None) -> BsdeSolution:
    """Scaling-path average of the sub-position's expected loss under the
    optimal scenarios of the scaled portfolio.

    For positively homogeneous drivers the integrand does not depend on the
    scale, so the average collapses to the subdifferential rule.
    """
    return make_rule("as", driver, quadrature=quadrature).allocate(
        sub, portfolio, disc, basis, cache)


def car_penalized_as(driver: Driver, sub, portfolio, disc,
                     quadrature: QuadratureSpec | None = None,
                     basis: BasisSpec | None = None,
                     cache=None) -> BsdeSolution:
    """Scaling-path average of full dual values (expected loss minus the
    scenario penalty).  Audacious: its diagonal gives away the averaged
    penalties, so it undershoots the risk whenever penalties are positive."""
    return make_rule("pas", driver, quadrature=quadrature).allocate(
        sub, portfolio, disc, basis, cache)
