"""Backward solvers: exact lattice recursion and regression Monte Carlo.

Tree recursion (the oracle).  With dt = T/N and s = sqrt(dt), each level is
computed from its children by

    Z_k = (Y_up - Y_down) / (2 s)
    Y_k = (Y_up + Y_down) / 2 + g(t_k, Z_k) * dt

which is exact nonlinear dynamic programming on the lattice: every identity
of the continuous theory that survives discretization holds here to
floating-point accuracy, which is what the axiom checks rely on.

Claims revealed mid-horizon.  Amounts that become known at level t (used by
cash-additivity, riskless and time-consistency checks) make the terminal
value depend on the level-t node as well as the terminal node.  The solver
then runs one copy of the recursion per level-t node, each on the nodes
that copy can reach: at level k >= t, node v of level t reaches nodes
v .. v + k - t.  The copies are stored as a band of shape (t+1, k-t+1)
whose row v holds those nodes, so the recursion keeps its plain form
(up = src[..., 1:], down = src[..., :-1]) at every level.  At level t the
band is one column, the honest per-node values, and the pass continues on
that column as a plain solve.  ``band`` lays a plain level array out the
same way, for the per-node arrays (portfolio controls, tilts, penalties)
that meet a revealed solve.

Claim stacks on the tree.  Claims revealed at one level (or all plain)
that share one step function run as one pass: their terminals lie on an
explicit leading stack axis (explicit, because 2-d already means revealed)
and the recursion is elementwise, so row i is the pass of claim i alone,
bit for bit.  A single solve is a stack of one.  A stacked pass can be
consumed level by level through ``reduce``, keeping no level and no
control.

LSMC.  Standard backward regression Monte Carlo: Z from regressing
Y_{k+1} * dB_k / dt on basis functions of the current state, Y from the
fitted conditional expectation plus the driver step.  The sweep runs over
a stack of claims that share one step function (one driver, and for
allocations one portfolio control): one regression basis per time step
serves every conditional expectation at that step (Gobet, Lemor & Warin
2005), so each level builds the monomial columns once for the whole stack
and appends each claim's own payoff column.  The block lives for that
level only.  A single solve is a stack of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .drivers import AllocDriver, Driver
from .errors import (InvalidArgumentError, NumericalFailureError,
                     RejectedConfigurationError)
from .grid import PathEnsemble, TreeModel

__all__ = ["TerminalClaim", "RevealedClaim", "BasisSpec", "BsdeSolution", "ZERO",
           "solve_tree", "solve_alloc_tree", "solve_alloc_tree_stack",
           "solve_lsmc", "solve_alloc_lsmc", "solve_lsmc_stack",
           "solve_alloc_lsmc_stack",
           "tree_backward", "band", "combine_claims", "lsmc_standard_error",
           "lsmc_block_estimate"]

# Tikhonov term added to the diagonal of every regression Gram matrix
RIDGE = 1e-8


@dataclass(frozen=True)
class TerminalClaim:
    """A payoff of the terminal Brownian value with an essential bound.

    ``payoff`` maps terminal states (shape (n,) for d=1, (n, d) otherwise)
    to values of shape (n,).  ``bound`` is checked whenever the claim is
    evaluated on a discretization.
    """

    payoff: Callable = field(repr=False)
    bound: float = np.inf
    label: str = "claim"

    def evaluate(self, states) -> np.ndarray:
        values = np.asarray(self.payoff(states), dtype=float)
        if values.ndim == 0 and np.ndim(states) >= 1:
            values = np.full(np.shape(states)[0], float(values))
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError(
                f"claim {self.label!r} has non-finite values")
        if np.any(np.abs(values) > self.bound):
            raise InvalidArgumentError(
                f"claim {self.label!r} exceeds its bound {self.bound:g}")
        return values

    def on_tree(self, tree: TreeModel) -> np.ndarray:
        return self.evaluate(tree.terminal_states)

    def on_paths(self, paths: PathEnsemble) -> np.ndarray:
        return self.evaluate(paths.terminal_values())

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, a: float) -> "TerminalClaim":
        p = self.payoff
        return TerminalClaim(lambda w: a * np.asarray(p(w), dtype=float),
                             abs(a) * self.bound, f"{a:g}*{self.label}")

    def __add__(self, other: "TerminalClaim") -> "TerminalClaim":
        p, q = self.payoff, other.payoff
        return TerminalClaim(
            lambda w: np.asarray(p(w), dtype=float) + np.asarray(q(w), dtype=float),
            self.bound + other.bound, f"{self.label}+{other.label}")

    def __sub__(self, other: "TerminalClaim") -> "TerminalClaim":
        return self + other.scale(-1.0)


ZERO = TerminalClaim(lambda w: np.zeros(np.shape(w)[0] if np.ndim(w) else ()),
                     0.0, "0")
"""The zero claim; its payoff accepts scalar and array states."""


def combine_claims(weights, claims, label=None) -> TerminalClaim:
    """Exact linear combination: the payoff is the float sum of the parts."""
    weights = [float(w) for w in weights]
    parts = [c.payoff for c in claims]

    def payoff(w):
        total = weights[0] * np.asarray(parts[0](w), dtype=float)
        for a, p in zip(weights[1:], parts[1:]):
            total = total + a * np.asarray(p(w), dtype=float)
        return total

    bound = sum(abs(a) * c.bound for a, c in zip(weights, claims))
    if label is None:
        label = "+".join(f"{a:g}*{c.label}" for a, c in zip(weights, claims))
    return TerminalClaim(payoff, bound, label)


@dataclass(frozen=True)
class RevealedClaim:
    """Terminal claim plus an amount revealed at a lattice level.

    ``values`` holds the revealed amount per node of level ``level``; the
    claim pays terminal + revealed.  ``terminal`` may be None for purely
    revealed amounts.  Only meaningful on the tree.
    """

    level: int
    values: np.ndarray
    terminal: TerminalClaim | None = None
    label: str = "revealed"

    def terminal_matrix(self, tree: TreeModel) -> np.ndarray:
        """Terminal band: row v holds terminal nodes v .. v + N - level,
        each paying its terminal value plus the amount revealed at node v."""
        n = tree.grid.steps
        if not 0 <= self.level <= n:
            raise InvalidArgumentError(
                f"reveal level {self.level} outside the grid 0..{n}")
        rev = np.asarray(self.values, dtype=float)
        if rev.shape != (self.level + 1,):
            raise InvalidArgumentError(
                f"revealed values must have shape ({self.level + 1},), got {rev.shape}")
        base = (self.terminal.on_tree(tree) if self.terminal is not None
                else np.zeros(n + 1))
        return band(base, n, self.level) + rev[:, None]

    def __neg__(self):
        term = None if self.terminal is None else -self.terminal
        return RevealedClaim(self.level, -np.asarray(self.values, dtype=float),
                             term, f"-({self.label})")


@dataclass(frozen=True)
class BasisSpec:
    """Regression basis: monomials up to ``degree`` plus the payoff shape."""

    degree: int = 3
    include_payoff: bool = True

    def size(self, dimension: int) -> int:
        mono = len(list(_monomials(dimension, self.degree)))
        return mono + (1 if self.include_payoff else 0)


def _monomials(dimension, degree):
    for combo in itertools.product(range(degree + 1), repeat=dimension):
        if sum(combo) <= degree:
            yield combo


def _monomial_block(state, spec: BasisSpec):
    """The monomial columns of the regression basis at one level's states."""
    x = np.asarray(state, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return np.column_stack([np.prod(x ** np.asarray(e), axis=1)
                            for e in _monomials(x.shape[1], spec.degree)])


def _payoff_column(state, payoff):
    w = state if np.ndim(state) == 1 else np.asarray(state, dtype=float)
    return np.asarray(payoff(w), dtype=float)


@dataclass
class BsdeSolution:
    """An adapted process: the one result type of every backward solve,
    risk, penalty and allocation.

    ``values[k]`` are the node (or path) values at level k; ``controls[k]``
    the volatility estimates over step k -> k+1 (the recursion never needs a
    terminal control), or None for a process that is not a backward solve.
    ``method`` names the producer: ``tree`` or ``lsmc`` for backward solves,
    ``penalty``, and the direct allocations ``dual``, ``marginal`` and
    ``average``.  For revealed solves, each level k >= ``reveal`` is a
    (reveal+1, k-reveal+1) band: row v holds nodes v .. v + k - reveal of
    the copy for level-reveal node v (see ``band``).  At the reveal level
    the band is a single column of honest per-node values.
    """

    values: list
    controls: list | None
    discretization: object
    driver: object
    method: str
    metadata: dict = field(default_factory=dict)
    reveal: int | None = None

    @property
    def initial(self) -> float:
        return float(np.asarray(self.values[0]).flat[0])

    @property
    def base_solution(self) -> BsdeSolution | None:
        """The portfolio's base solve behind an allocation, if any."""
        return self.metadata.get("base")

    def at(self, k: int):
        return self.values[k]

    def values_at_reveal(self) -> np.ndarray:
        if self.reveal is None:
            raise InvalidArgumentError("not a revealed solve")
        return self.values[self.reveal][:, 0].copy()


def band(a, k: int, reveal: int | None):
    """Plain level-k node array ``a`` in the layout of a revealed level k.

    Row v of the result holds nodes v .. v + k - reveal of the last axis
    (a read-only window view, leading axes kept).  Below the reveal level,
    and for plain solves (``reveal`` None), levels are plain and ``a`` is
    returned as is.
    """
    if reveal is None or k < reveal:
        return a
    return sliding_window_view(a, k - reveal + 1, axis=-1)


def tree_backward(tree: TreeModel, terminal, update, reveal=None, reduce=None):
    """Generic backward pass; ``update(k, up, down)`` produces level k.

    ``terminal`` is the level-N value array, or the (reveal+1, N-reveal+1)
    terminal band when ``reveal`` is given; leading axes before these stack
    independent passes.  Returns the list of level arrays (bands from the
    reveal level up).  With ``reduce``, level k is stored as
    ``reduce(k, values)``, so only the reduced levels outlive the pass.
    """
    n = tree.grid.steps
    keep = reduce or (lambda k, values: values)
    levels = [None] * (n + 1)
    src = np.asarray(terminal, dtype=float)
    levels[n] = keep(n, src)
    if reveal == n:
        src = src[..., 0]
    for k in range(n - 1, -1, -1):
        vals = update(k, src[..., 1:], src[..., :-1])
        levels[k] = keep(k, vals)
        src = vals[..., 0] if k == reveal else vals
    return levels


def _nonfinite(grid, bad):
    return NumericalFailureError(
        f"backward solve produced non-finite values from level {bad} "
        f"(t = {grid.time(bad):g}) down to level 0", level=bad)


def _check_finite(levels, grid):
    """Raise when the backward pass left non-finite values at level 0.

    Only level 0 is checked on success; on failure the levels are scanned
    in the order the pass computed them to name the first bad one.
    """
    if np.all(np.isfinite(levels[0])):
        return
    raise _nonfinite(grid, next(k for k in range(len(levels) - 1, -1, -1)
                                if not np.all(np.isfinite(levels[k]))))


# Overflow and invalid operations in a backward pass are reported by
# ``_check_finite`` as NumericalFailureError, so numpy's warnings are muted
# inside the solvers that run that check.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _check_tree_preconditions(driver, tree):
    """Reject a lattice too coarse for the driver's Lipschitz bound L:
    L * sqrt(dt) < 1 keeps the tilted branch weights positive.  A driver
    with only quadratic growth (``lipschitz`` None) has no such bound."""
    lipschitz = driver.lipschitz
    if lipschitz and lipschitz * np.sqrt(tree.grid.dt) >= 1.0:
        need = int(np.floor(lipschitz * lipschitz * tree.grid.horizon)) + 1
        raise RejectedConfigurationError(
            f"stability of {driver.name!r} requires L*sqrt(dt) < 1 with "
            f"L = {lipschitz:g}; use at least N = {need} steps",
            required_steps=need)


def _terminal_on_tree(terminal, tree):
    """Normalize a claim / revealed claim / raw array to (values, reveal).

    A raw array holds plain terminal values; revealed terminals are built
    by ``RevealedClaim`` only.
    """
    if isinstance(terminal, RevealedClaim):
        return terminal.terminal_matrix(tree), terminal.level
    if isinstance(terminal, TerminalClaim):
        return terminal.on_tree(tree), None
    values = np.asarray(terminal, dtype=float)
    if values.shape != (tree.grid.steps + 1,):
        raise InvalidArgumentError(
            f"terminal values have shape {values.shape}, lattice has "
            f"{tree.grid.steps + 1} terminal nodes; revealed amounts go "
            "through RevealedClaim")
    return values, None


@_quiet_overflow
def _tree_core(step, driver, terminals, tree: TreeModel, z_y=None,
               reduce=None):
    """The backward lattice pass of every tree solve, over a claim stack.

    ``terminals`` are claims revealed at one level (or all plain); their
    terminal values lie on a leading stack axis, so row i of every level is
    the pass of claim i alone, bit for bit.  ``step(k, z, reveal)`` is the
    driver term at step k for control z.  Given a portfolio control ``z_y``
    it is an allocation solve, whose terminal value is minus the position.
    With ``reduce`` the pass keeps no level and no control: it returns
    ``reduce(k, level)`` for every level k, the level with its stack axis,
    and raises on the first level it computes with non-finite values.
    Without, the stack is one claim, kept whole: its ``BsdeSolution``.
    """
    _check_tree_preconditions(driver, tree)
    terms = [_terminal_on_tree(t, tree) for t in terminals]
    reveal = terms[0][1]
    if any(r != reveal for _, r in terms):
        raise InvalidArgumentError("a claim stack shares one reveal level")
    stack = np.stack([values for values, _ in terms])
    if z_y is not None:
        stack = -stack
        _validate_zy(z_y, tree, reveal)
    dt, s = tree.grid.dt, tree.sqrt_dt
    controls = None if reduce else [None] * tree.grid.steps

    def update(k, up, down):
        z = (up - down) / (2.0 * s)
        if controls is not None:
            controls[k] = z
        g = step(k, z, reveal)
        return 0.5 * (up + down) + g * dt

    if reduce is not None:
        def checked(k, values):
            if not np.all(np.isfinite(values)):
                raise _nonfinite(tree.grid, k)
            return reduce(k, values)

        return tree_backward(tree, stack, update, reveal, checked)
    # the one claim runs without its stack axis, so that each level is one
    # array, not a view into a stacked level
    values = tree_backward(tree, stack[0], update, reveal)
    _check_finite(values, tree.grid)
    return BsdeSolution(values, controls, tree, driver, "tree", reveal=reveal)


def solve_tree(driver: Driver, terminal, tree: TreeModel) -> BsdeSolution:
    """Backward lattice solve; ``terminal`` supplies the level-N values as is."""
    times = tree.grid.times
    return _tree_core(lambda k, z, reveal: driver.evaluate(times[k], z[..., None]),
                      driver, [terminal], tree)


def _aligned_zy(z_y, k, reveal):
    """Portfolio control at step k in the layout of the claim's level k:
    a plain control is laid out as a band above the claim's reveal level."""
    zk = np.asarray(z_y[k], dtype=float)
    return band(zk, k, reveal) if zk.ndim == 1 else zk


def _validate_zy(z_y, tree, reveal):
    n = tree.grid.steps
    if len(z_y) < n:
        raise InvalidArgumentError(
            f"portfolio control has {len(z_y)} steps, lattice needs {n}")
    for k in range(n):
        zk = np.asarray(z_y[k])
        if zk.ndim == 2 and reveal is None:
            raise InvalidArgumentError(
                "portfolio control is revealed but the claim is not; solve the "
                "claim as a revealed claim at the same level")
        want = (k + 1,) if zk.ndim == 1 else (reveal + 1, k - reveal + 1)
        if zk.shape != want:
            raise InvalidArgumentError(
                f"portfolio control at step {k} has shape {zk.shape}, expected "
                f"{want} (grid or reveal level mismatch)")


def _alloc_step(alloc, z_y, tree):
    times = tree.grid.times

    def step(k, z, reveal):
        zyk = _aligned_zy(z_y, k, reveal)
        return alloc.evaluate(times[k], z[..., None], zyk[..., None])

    return step


def solve_alloc_tree(alloc: AllocDriver, position, z_y,
                     tree: TreeModel) -> BsdeSolution:
    """Allocation solve for sub-position ``position``: terminal value is -position.

    ``z_y`` is the control process of the base solve of the negated
    portfolio on the same lattice (one array per step).
    """
    return _tree_core(_alloc_step(alloc, z_y, tree), alloc, [position], tree,
                      z_y)


def solve_alloc_tree_stack(alloc: AllocDriver, positions, z_y, tree: TreeModel,
                           reduce) -> list:
    """Allocation solves of sub-positions that share the portfolio control
    ``z_y`` and a reveal level, as one stacked lattice pass consumed level
    by level: ``reduce(k, level)`` for each level k, where row i of the
    level is, bit for bit, level k of ``solve_alloc_tree`` of position i.
    No level and no control outlives its step."""
    return _tree_core(_alloc_step(alloc, z_y, tree), alloc, positions, tree,
                      z_y, reduce)


def _gram(design):
    return design.T @ design + RIDGE * np.eye(design.shape[1])


def _ridge_solve(design, targets, gram=None):
    if gram is None:
        gram = _gram(design)
    try:
        coef = np.linalg.solve(gram, design.T @ targets)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"regression is singular despite ridge {RIDGE:g}",
            condition=float(np.linalg.cond(gram))) from exc
    if not np.all(np.isfinite(coef)):
        raise NumericalFailureError(
            "regression produced non-finite coefficients",
            condition=float(np.linalg.cond(gram)))
    return coef


def _terminal_on_paths(terminal, paths: PathEnsemble):
    """Terminal path values of a claim or raw array, and the claim's payoff
    (None for a raw array)."""
    if isinstance(terminal, RevealedClaim):
        raise InvalidArgumentError("revealed claims are tree-only")
    if isinstance(terminal, TerminalClaim):
        return terminal.on_paths(paths), terminal.payoff
    return np.asarray(terminal, dtype=float), None


@_quiet_overflow
def _lsmc_core(step_driver, driver, terminals, paths: PathEnsemble, basis):
    """Backward regression sweep over a claim stack.

    ``terminals`` holds one (terminal values, payoff) pair per claim, the
    payoff None when the claim has no payoff column; ``step_driver(k, t, z)``
    is the term of ``driver`` that every claim uses at step k.  Each level
    builds the monomial block once; each claim then runs its own Gram,
    ridge solves and driver step on its own design, exactly as a solve of
    that claim alone would.  A claim with a payoff column writes it into
    the last column of ``framed``, one buffer whose other columns hold the
    level's block.  Returns one ``BsdeSolution`` per claim.
    """
    basis = basis or BasisSpec()
    n, dt = paths.grid.steps, paths.grid.dt
    m, d = paths.paths, paths.dimension
    size = basis.size(d)
    if m < 10 * size:
        raise InvalidArgumentError(
            f"need at least 10 paths per basis function: M = {m} < {10 * size}")
    times = paths.grid.times
    ys = [np.asarray(term, dtype=float) for term, _ in terminals]
    payoffs = [payoff if basis.include_payoff else None for _, payoff in terminals]
    values = [[None] * n + [y] for y in ys]
    controls = [[None] * n for _ in ys]
    framed = None
    if any(p is not None for p in payoffs):
        framed = np.empty((m, size))
    for k in range(n - 1, -1, -1):
        db = np.ascontiguousarray(paths.increments[:, k, :])
        if k > 0:
            state = paths.state_at(k)
            block = _monomial_block(state, basis)
            if framed is not None:
                framed[:, :-1] = block
        for i, (y, payoff) in enumerate(zip(ys, payoffs)):
            # The Z target is centered by the fitted conditional mean: same
            # conditional expectation, but variance O(1) instead of O(1/dt),
            # which kills the convexity bias g(Z_hat) would otherwise inherit.
            if k == 0:
                cond = np.full(m, float(np.mean(y)))
                target_z = (y - cond)[:, None] * db / dt
                z = np.broadcast_to(np.mean(target_z, axis=0), (m, d)).copy()
            else:
                design = block
                if payoff is not None:
                    design = framed
                    design[:, -1] = _payoff_column(state, payoff)
                gram = _gram(design)
                cond = design @ _ridge_solve(design, y, gram)
                target_z = (y - cond)[:, None] * db / dt
                z = design @ _ridge_solve(design, target_z, gram)
            ys[i] = cond + step_driver(k, times[k], z) * dt
            values[i][k] = ys[i]
            controls[i][k] = z
    for v in values:
        _check_finite(v, paths.grid)
    return [BsdeSolution(v, c, paths, driver, "lsmc",
                         {"basis_size": size, "seed": paths.seed,
                          "ridge": RIDGE})
            for v, c in zip(values, controls)]


def solve_lsmc_stack(driver: Driver, terminals, paths: PathEnsemble,
                     basis: BasisSpec | None = None) -> list:
    """Least-squares Monte Carlo solves of a claim stack, one
    ``BsdeSolution`` per terminal, each equal bit for bit to its own
    ``solve_lsmc``."""
    return _lsmc_core(lambda k, t, z: driver.evaluate(t, z), driver,
                      [_terminal_on_paths(c, paths) for c in terminals],
                      paths, basis)


def solve_lsmc(driver: Driver, terminal, paths: PathEnsemble,
               basis: BasisSpec | None = None) -> BsdeSolution:
    """Least-squares Monte Carlo solve; terminal values are used as is."""
    return solve_lsmc_stack(driver, [terminal], paths, basis)[0]


def solve_alloc_lsmc_stack(alloc: AllocDriver, positions, z_y,
                           paths: PathEnsemble,
                           basis: BasisSpec | None = None) -> list:
    """Allocation LSMC of sub-positions that share the portfolio control
    ``z_y``, solved as one claim stack; each solution equals bit for bit
    its own ``solve_alloc_lsmc``."""
    if len(z_y) < paths.grid.steps:
        raise InvalidArgumentError("portfolio control does not cover the grid")
    for k in range(paths.grid.steps):
        if np.shape(z_y[k]) != (paths.paths, paths.dimension):
            raise InvalidArgumentError(
                "portfolio control must come from the same ensemble "
                f"(step {k} has shape {np.shape(z_y[k])})")
    terminals = []
    for position in positions:
        pos, payoff = _terminal_on_paths(position, paths)
        terminals.append((-pos, payoff))
    return _lsmc_core(lambda k, t, z: alloc.evaluate(t, z, z_y[k]), alloc,
                      terminals, paths, basis)


def solve_alloc_lsmc(alloc: AllocDriver, position, z_y, paths: PathEnsemble,
                     basis: BasisSpec | None = None) -> BsdeSolution:
    """Allocation LSMC: terminal is -position, step uses the frozen z_y."""
    return solve_alloc_lsmc_stack(alloc, [position], z_y, paths, basis)[0]


def lsmc_standard_error(solution: BsdeSolution) -> float:
    """Cheap standard-error proxy for the initial value of a process on a
    path ensemble.

    Uses the first-step value spread; adequate for comparisons between
    quantities computed on the same ensemble (their noise is correlated).
    For absolute error bands prefer ``lsmc_block_estimate``.
    """
    if not isinstance(solution.discretization, PathEnsemble):
        raise InvalidArgumentError(
            "standard error applies to processes on a path ensemble")
    spread = np.std(np.asarray(solution.values[1]))
    return float(spread / np.sqrt(len(solution.values[1])))


def lsmc_block_estimate(solve, paths: PathEnsemble, blocks: int = 10):
    """Block-resampled (estimate, standard error) for an LSMC functional.

    ``solve`` maps a PathEnsemble to a float.  The ensemble is split into
    contiguous blocks, the functional recomputed per block and the standard
    error taken across blocks, so regression noise is included.
    """
    if blocks < 2 or paths.paths < 2 * blocks:
        raise InvalidArgumentError("need at least two blocks of paths")
    size = paths.paths // blocks
    estimates = []
    for b in range(blocks):
        chunk = paths.increments[b * size:(b + 1) * size]
        sub = PathEnsemble(paths.grid, paths.dimension, chunk.shape[0],
                           paths.seed, chunk)
        estimates.append(float(solve(sub)))
    estimates = np.asarray(estimates)
    return float(solve(paths)), float(np.std(estimates, ddof=1) / np.sqrt(blocks))
