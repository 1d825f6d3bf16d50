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
from .engine import (ZERO, BasisSpec, BsdeSolution, RevealedClaim,
                     _index, _solutions, _spread_error, band,
                     lsmc_standard_error, solve_stack)
from .errors import InvalidArgumentError, NotApplicableError
from .grid import PathEnsemble, TreeModel
from .measure import (_expandable_depth, kernel_from_subgradient,
                      kernel_levels, kernel_stack, rho, scenario_average)

__all__ = ["QuadratureSpec", "CarRule", "SolveCache", "ScenarioSet",
           "averaged_density",
           "car_from_alloc_driver", "car_subdifferential", "car_gradient",
           "car_marginal", "car_aumann_shapley", "car_penalized_as",
           "make_rule", "RULE_NAMES"]

@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre quadrature on (0, 1) for the scaling-path average."""

    points: int = 32

    def __post_init__(self):
        if not (isinstance(self.points, (int, np.integer)) and self.points >= 1):
            raise InvalidArgumentError(
                f"quadrature points must be an integer >= 1, got {self.points!r}")

    def nodes(self):
        x, w = np.polynomial.legendre.leggauss(self.points)
        return (x + 1.0) / 2.0, w / 2.0


def averaged_density(proc: BsdeSolution):
    """Scaling-path averaged density of a scenario-averaged allocation.

    On a tree, returns (node_index, density) over the expanded binary
    paths (small depth only), from kernels that ``kernel_stack`` rebuilds
    for the scenario set the process names; on ensembles, the per-level
    averaged density arrays of the set's kernels.
    """
    scen = proc.metadata.get("scenarios")
    if scen is None:
        raise InvalidArgumentError(
            f"rule {proc.metadata.get('rule')!r} does not carry scenario kernels")
    tree = isinstance(proc.discretization, TreeModel)
    if tree:  # before the kernels are solved again
        _expandable_depth(proc.discretization)
    stack = kernel_stack(scen.driver, scen.claims, proc.discretization) \
        if tree else scen.stack
    total = last = None
    for w, r in zip(scen.weights, scen.rows):
        if r != last:  # nodes sharing a kernel are adjacent (see ScenarioSet.rows)
            kernel, last = stack.row(r), r
            node, dens = kernel.density_paths() if tree else (None, kernel.density)
        if tree:
            total = w * dens if total is None else total + w * dens
        else:
            total = [w * d for d in dens] if total is None else \
                [a + w * d for a, d in zip(total, dens)]
    return (node, total) if tree else total


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
    quadrature nodes on (0, 1): the integrand of both scenario-averaged
    rules, which depends on the driver and the portfolio only.

    Node i uses kernel ``rows[i]`` of the risk solves of ``claims``: the
    scaled portfolios, or for a positively homogeneous driver Y alone,
    read from its cached risk (scaling leaves both the control direction
    and the subgradient selection unchanged).  On an ensemble ``stack``
    holds those kernels and their densities once, one ``kernel_stack``
    pass.  On the lattice it holds none: it is their ``kernel_levels``, so
    each average solves the scaled portfolios again, as rows of one
    reduced pass (or reads the cached risk of Y), whose steps drive the
    tilted pass.  No set stores a penalty: a penalized average carries
    them in its own pass.
    """

    def __init__(self, driver, portfolio, quadrature, cache):
        self.driver = driver
        self.basis = cache.basis
        self.gammas, self.weights = quadrature.nodes()
        homogeneous = driver.positively_homogeneous
        self.claims = [portfolio] if homogeneous else \
            [portfolio.scale(float(g)) for g in self.gammas]
        self.rows = [0] * len(self.gammas) if homogeneous else \
            list(range(len(self.gammas)))
        kernels = kernel_levels if isinstance(cache.disc, TreeModel) \
            else kernel_stack
        self.stack = kernels(driver, cache.risk(driver, portfolio) if
                             homogeneous else self.claims, cache.disc, self.basis)

    def average(self, subs, penalized: bool, reduce=None) -> list:
        """Quadrature averages of the tilted expected losses of ``subs`` (one
        reveal level), minus the scenario penalties when ``penalized``: one
        ``scenario_average`` pass, whose levels ``reduce`` consumes."""
        return scenario_average(subs, self.stack,
                                list(zip(self.weights, self.rows)),
                                self.driver if penalized else None,
                                self.basis, reduce)


@dataclass(frozen=True)
class _Point:
    """What an ensemble comparator reads of a process: its time-zero
    value and its standard-error proxy."""

    initial: float
    se: float


def _points(k, level, rows):
    """The reduction of an ensemble stack to what a ``_Point`` reads: each
    row's time-zero value at level 0 and its ``lsmc_standard_error`` at
    level 1, nothing at other levels."""
    if k == 0:
        return [float(np.asarray(row).flat[0]) for row in level]
    if k == 1:
        return [_spread_error(row) for row in level]
    return [None] * len(level)


class SolveCache:
    """Portfolio-level solves shared by the allocations on one
    discretization (and, on ensembles, one regression basis).

    Holds risk solves, keyed by (driver, claim) identity, and scenario
    sets, keyed by (driver, portfolio, quadrature).  Every entry holds its
    driver and claim, so the ids in its key are never reused while it
    lives.  The risk solve of a plain claim Y is also the base solve of
    every rule allocating inside Y with that driver.  A risk entry is the
    whole solve, except where an ensemble suite made it a ``_Point``;
    ``risk`` solves such a claim again, whole.  An allocation pass solves
    the portfolios it does not hold whole as rows of its own pass.
    Revealed claims are solved, not stored.  The caller owns the cache:
    its entries live as long as it does.
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

    def _held(self, driver, claim):
        return self._risk.get((id(driver), id(claim)), (None,) * 3)[2]

    def risk(self, driver: Driver, claim) -> BsdeSolution:
        """``rho(driver, claim)`` on the cache's discretization, whole."""
        if isinstance(claim, RevealedClaim):
            return rho(driver, claim, self.disc, self.basis)
        if not isinstance(self._held(driver, claim), BsdeSolution):
            self.hold(driver, claim, rho(driver, claim, self.disc, self.basis))
        return self._held(driver, claim)

    def risks(self, driver: Driver, claims) -> list:
        """``risk`` of each claim, whole on either engine; the plain claims
        not held whole yet (an ensemble's ``_Point`` entries included) are
        solved as one claim stack (``solve_stack``), whose rows are stored
        as views: a stored risk keeps the levels of its whole stack alive."""
        missing = {id(c): c for c in claims
                   if not isinstance(c, RevealedClaim)
                   and not isinstance(self._held(driver, c), BsdeSolution)}
        if len(missing) > 1:
            sols = solve_stack(driver, [-c for c in missing.values()],
                               self.disc, self.basis)
            for c, sol in zip(missing.values(), sols):
                self.hold(driver, c, sol)
        return [self.risk(driver, c) for c in claims]

    def entries(self, driver: Driver, claims, whole=()) -> list:
        """A suite's entry of each claim's risk: on the lattice the whole
        solve, on an ensemble its ``_Point``.  ``whole`` are portfolios
        whose whole solve a rule reads.  On the lattice all are one
        ``risks`` stack.  On an ensemble what is not held yet is one reduced
        ``solve_stack`` pass, each row held as no more than what reads it."""
        if isinstance(self.disc, TreeModel):
            ids = set(map(id, claims))  # so a revealed claim is solved once
            extra = [c for c in whole if id(c) not in ids]
            return self.risks(driver, [*claims, *extra])[:len(claims)]

        rows = {}  # True: whole, False: a point
        for kept, group in ((True, whole), (False, claims)):
            for c in group:
                held = self._held(driver, c)
                if held is None or kept > isinstance(held, BsdeSolution):
                    rows.setdefault(id(c), (c, kept))
        rows = list(rows.values())  # the kept rows lead the stack
        if rows:
            nw = sum(kept for _, kept in rows)
            levels = solve_stack(
                driver, [-c for c, _ in rows], self.disc, self.basis,
                reduce=lambda k, values, controls: (
                    _points(k, values, None), values[:nw].copy(),
                    None if controls is None else controls[:nw].copy()))
            solves = _solutions(driver, [lv[1:] for lv in levels],
                                self.disc, self.basis, None)
            for i, (c, kept) in enumerate(rows):
                self.hold(driver, c, solves[i] if kept else
                          _Point(levels[0][0][i], levels[1][0][i]))
        return [_Point(e.initial, lsmc_standard_error(e))
                if isinstance(e, BsdeSolution) else e
                for e in (self._held(driver, c) for c in claims)]

    def hold(self, driver: Driver, claim, entry):
        """Store ``entry`` as the risk entry of the plain ``claim``."""
        self._risk[id(driver), id(claim)] = (driver, claim, entry)

    def scenarios(self, driver: Driver, portfolio,
                  quadrature: QuadratureSpec) -> ScenarioSet:
        """The scenario set of the plain ``portfolio`` under ``driver``."""
        key = (id(driver), id(portfolio), quadrature)
        if key not in self._sets:
            self._sets[key] = (driver, portfolio,
                               ScenarioSet(driver, portfolio, quadrature, self))
        return self._sets[key][2]


def _via_driver(rule, subs, ports, cache, reduce=None, risks=()) -> list:
    """The allocation solves of all rows ``(subs[i], ports[i])`` as one
    claim stack, each row reading its portfolio's controls: from the cache
    when it holds the whole solve, or when a plain portfolio meets revealed
    sub-positions (``cache.risk``, banded); otherwise from the portfolio's
    own row of the pass (``solve_stack``), which in a kept pass is the
    rows' ``base`` and is not cached (it would keep the whole stack alive).
    ``risks``, plain claims whose risk under the base driver the pass also
    solves, are portfolio rows that lead a reduced pass (a kept one takes
    none), and ``reduce(k, level, rows)`` sees their rows, then those of
    ``subs``."""
    alloc = rule.alloc_driver
    if risks and reduce is None:
        raise InvalidArgumentError("risk rows join a reduced pass only")
    for sub, port in zip(subs, ports):
        _check_reveals(sub, port)
    terminals = [*risks, *subs]
    source = {id(c): i for i, c in enumerate(risks)}  # a row or a solve
    for port in ports:
        if id(port) not in source:
            if isinstance(cache._held(alloc.base, port), BsdeSolution) or (
                    _reveal_of(port) is None and _reveal_of(subs[0]) is not None):
                source[id(port)] = cache.risk(alloc.base, port)
            else:
                source[id(port)] = len(terminals)
                terminals.append(port)
    bases = [source[id(p)] for p in ports]
    z_y = [None] * len(risks) + [b if isinstance(b, int) else b.controls
                                 for b in bases]
    z_y += [None] * (len(terminals) - len(z_y))
    rows = slice(0, len(risks) + len(subs))
    if reduce is not None:
        return solve_stack(alloc, terminals, cache.disc, cache.basis, z_y=z_y,
                           reduce=lambda k, values, _: reduce(
                               k, values[rows], rows))
    sols = solve_stack(alloc, terminals, cache.disc, cache.basis, z_y=z_y)
    # a rule with a second route names the one it took
    routed = RULES.get(rule.name, _Rule()).body is not None
    extra = {"route": "bsde"} if routed else {}
    for sub, port, base, sol in zip(subs, ports, bases, sols):
        sol.metadata.update(_meta(rule, sub, port, base=sols[base] if
                                  isinstance(base, int) else base, **extra))
    return sols[:len(subs)]


def _grouped(method, group):
    """A rule body ``(rule, subs, ports, cache, reduce)``, one pass per
    portfolio and reveal level of its rows: ``group(rule, port, subs, cache,
    keep)`` runs it, stores each level (a leading axis over ``subs``) as
    ``keep(k, level)``, reducing with ``reduce`` inside the pass, and returns
    the levels and its processes' metadata.  Rows come back in order."""
    def body(rule, subs, ports, cache, reduce):
        groups = {}
        for i, (sub, port) in enumerate(zip(subs, ports)):
            groups.setdefault((id(port), _check_reveals(sub, port)),
                              (port, []))[1].append(i)
        out = [None] * len(subs)  # per row: its process, or its reduced levels
        for port, idx in groups.values():
            rows = _index(idx)  # a slice where the rows are contiguous
            keep = (lambda k, level: level) if reduce is None else \
                (lambda k, level: reduce(k, level, rows))
            levels, meta = group(rule, port, [subs[i] for i in idx], cache, keep)
            for j, i in enumerate(idx):
                row = [level[j] for level in levels]
                out[i] = row if reduce else BsdeSolution(
                    row, None, cache.disc, rule.driver, method,
                    _meta(rule, subs[i], port, **meta), _reveal_of(subs[i]))
        return out if reduce is None else [list(lv) for lv in zip(*out)]
    return body


def _dual(rule, port, subs, cache, keep):
    if _reveal_of(port) is not None:
        raise NotApplicableError("dual route needs a plain portfolio")
    base = cache.risk(rule.driver, port)
    kernel = kernel_from_subgradient(rule.driver, base)
    return scenario_average(subs, kernel.stacked(), [(1.0, 0)], rule.driver,
                            cache.basis, keep), \
        dict(base=base, route="dual", kernel=kernel)


def _marginal(rule, port, subs, cache, keep):
    base = cache.risk(rule.driver, port)
    # a plain portfolio's values meet revealed remainders as bands
    lift = _reveal_of(subs[0]) if base.reveal is None else None
    # the reduced portfolios are new claims on every call: solved, not cached
    return solve_stack(rule.driver, [-_subtract_claims(port, sub) for sub in subs],
                       cache.disc, cache.basis, reduce=lambda k, values, _: keep(
                           k, band(base.values[k], k, lift) - values)), \
        dict(base=base)


def _averaged(rule, port, subs, cache, keep, penalized):
    if _reveal_of(port) is not None:
        raise NotApplicableError("scenario-averaged rules need a plain portfolio")
    quadrature = rule.quadrature or QuadratureSpec()
    scen = cache.scenarios(rule.driver, port, quadrature)
    return scen.average(subs, penalized, keep), \
        dict(scenarios=scen, quadrature=quadrature.points)


@dataclass(frozen=True)
class _Rule:
    alloc: Callable | None = None
    body: Callable | None = None
    audacious: bool = False


# The rule catalog.  ``alloc`` builds a driver-induced rule's allocation
# driver from the risk driver when the rule is made (each build probes the
# driver; the factories look the builders up when called); ``body(rule, subs,
# ports, cache, reduce)`` computes the allocations of the rows directly, as
# ``allocate_stack`` returns them.  A rule
# with both has two routes: ``bsde`` uses the driver, ``dual`` the body.
RULES = {
    "grad": _Rule(alloc=lambda driver: alloc_driver_gradient(driver)),
    "subdiff": _Rule(alloc=lambda driver: alloc_driver_subdiff(driver),
                     body=_grouped("dual", _dual)),
    "marginal": _Rule(body=_grouped("marginal", _marginal)),
    "as": _Rule(body=_grouped("average", partial(_averaged, penalized=False))),
    "pas": _Rule(body=_grouped("average", partial(_averaged, penalized=True)),
                 audacious=True),
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
        """``allocate`` of each of ``subs`` inside ``portfolio``, one claim,
        or a list with one portfolio per sub-position.  A driver-induced
        rule solves ``subs`` as one claim stack on either engine, each row
        with its portfolio's controls, from the cache or from a portfolio
        row of the same pass (``_via_driver``); a rule body runs one pass
        per portfolio and reveal level (``_grouped``).  No sub-position,
        no allocation: an empty ``subs`` gives ``[]``.

        With ``reduce`` the allocations are consumed level by level: the
        result is ``[reduce(k, level, rows) for each level k]``, where the
        level carries a leading axis over ``subs[rows]`` (``rows`` a slice,
        or an index list for one portfolio's rows among others') and
        ``reduce``, called inside each pass, returns one entry per row."""
        cache = SolveCache.ensure(cache, disc, basis)
        subs = list(subs)
        ports = list(portfolio) if isinstance(portfolio, (list, tuple)) \
            else [portfolio] * len(subs)
        if len(ports) != len(subs):
            raise InvalidArgumentError(
                f"{len(ports)} portfolios for {len(subs)} sub-positions")
        if not subs:
            return []
        if self.alloc_driver is not None:
            # custom drivers run unguarded so non-diagonal ones (e.g. gradient
            # over a strictly convex base) can be exercised by the harness
            return _via_driver(self, subs, ports, cache, reduce)
        entry = RULES.get(self.name, _Rule())
        if entry.body is None or (entry.alloc and self.route == "bsde"):
            raise InvalidArgumentError(
                f"rule {self.name!r} carries no allocation driver; build it "
                "with make_rule")
        return entry.body(self, subs, ports, cache, reduce)

    def risk(self, claim, disc, basis=None):
        return rho(self.driver, claim, disc, basis)

    @property
    def reads_base(self) -> bool:
        """Whether the rule's body reads each portfolio's whole risk solve
        (``SolveCache.risk``)."""
        return self.alloc_driver is None and (
            self.name not in ("as", "pas") or self.driver.positively_homogeneous)


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
