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
that meet a revealed solve.  When neighbouring copies agree bit for bit on
every node they share (a constant amount, say) and every control read is
indexed by node alone, the copies are windows of one plain pass: the stack
runs as that pass, and its levels and controls reach ``keep`` as read-only
``band`` views, with the layout and floats of the band pass.

Claim stacks on the tree.  Claims revealed at one level (or all plain)
that share one driver run as one pass: their terminals lie on an
explicit leading stack axis (explicit, because 2-d already means revealed)
and the recursion is elementwise, so row i is the pass of claim i alone,
bit for bit.

LSMC.  Standard backward regression Monte Carlo: Z from regressing
Y_{k+1} * dB_k / dt on basis functions of the current state, Y from the
fitted conditional expectation plus the driver step.  The sweep runs over
a stack of claims that share one driver (for allocations each row brings
its own portfolio control): one regression basis per time step serves
every conditional expectation at that step (Gobet, Lemor & Warin 2005),
so the monomial columns depend on the level alone: the ensemble builds
each level's block once and keeps it (``PathEnsemble.monomial_block``),
every sweep reads it, and the rows whose payoff columns are equal share
one Gram.  The payoff column and the Gram live for that level only.

An allocation stack may carry its portfolios as rows of the same pass:
each level computes them first, then the rows that read their controls,
so no level of a base control outlives its step.

``solve_stack`` is the one entry point of both engines.  Each core
evaluates its terminals (``_terminal``), runs its recursion and hands each
level to ``solve_stack``'s one ``keep``, which checks it is finite and
keeps it (a kept row is row views of its levels) or reduces it, keeping
no level and no control.  A single solve is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .drivers import AllocDriver, Driver
from .errors import (InvalidArgumentError, NumericalFailureError,
                     RejectedConfigurationError)
from .grid import PathEnsemble, TreeModel

__all__ = ["TerminalClaim", "RevealedClaim", "BasisSpec", "BsdeSolution", "ZERO",
           "solve_stack", "solve_tree", "solve_alloc_tree", "solve_lsmc",
           "solve_alloc_lsmc",
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

    def __post_init__(self):
        if not (isinstance(self.degree, (int, np.integer)) and self.degree >= 0):
            raise InvalidArgumentError(
                f"basis degree must be an integer >= 0, got {self.degree!r}")

    def size(self, dimension: int) -> int:
        mono = math.comb(dimension + self.degree, dimension)
        return mono + (1 if self.include_payoff else 0)


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
    return [level for _, level in _tree_levels(tree, terminal, update, reveal,
                                                reduce)][::-1]


def _tree_levels(tree, terminal, update, reveal=None, reduce=None):
    """``tree_backward`` as a generator of ``(k, kept level)`` from N down:
    level k is computed only when asked for, so a caller can set
    ``update``'s inputs level by level."""
    n = tree.grid.steps
    keep = reduce or (lambda k, values: values)
    src = np.asarray(terminal, dtype=float)
    yield n, keep(n, src)
    if reveal == n:
        src = src[..., 0]
    for k in range(n - 1, -1, -1):
        vals = update(k, src[..., 1:], src[..., :-1])
        level = keep(k, vals)
        src = vals[..., 0] if k == reveal else vals
        yield k, level


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


def _terminal(claim, disc):
    """A claim, revealed claim or raw terminal array on ``disc`` as
    ``(values, reveal, payoff)``: the terminal values (a band for a revealed
    claim), the reveal level (None when plain) and the payoff callable of a
    ``TerminalClaim`` (None otherwise).  Revealed claims are tree-only; a raw
    array holds plain terminal values as is, one per terminal node or path.
    """
    on_tree = isinstance(disc, TreeModel)
    if isinstance(claim, RevealedClaim):
        if not on_tree:
            raise InvalidArgumentError("revealed claims are tree-only")
        return claim.terminal_matrix(disc), claim.level, None
    if isinstance(claim, TerminalClaim):
        values = claim.on_tree(disc) if on_tree else claim.on_paths(disc)
        return values, None, claim.payoff
    values = np.asarray(claim, dtype=float)
    want = (disc.grid.steps + 1,) if on_tree else (disc.paths,)
    if values.shape != want:
        raise InvalidArgumentError(
            f"terminal values have shape {values.shape}, expected {want}, one "
            "per terminal node or path" + ("; revealed amounts go through "
                                          "RevealedClaim" if on_tree else ""))
    return values, None, None


def _terminals(claims, disc):
    """``_terminal`` of each claim, and the reveal level the stack shares."""
    terms = [_terminal(c, disc) for c in claims]
    reveal = terms[0][1] if terms else None
    if any(r != reveal for _, r, _ in terms):
        raise InvalidArgumentError("a claim stack shares one reveal level")
    return terms, reveal


def _tree_core(driver, terminals, tree: TreeModel, basis, z_y, keep):
    """The lattice recursion of ``solve_stack`` (``basis`` unused), over a
    stack of claims revealed at one level (or all plain) on a leading
    axis, so row i of every level is the pass of claim i alone, bit for
    bit.  ``tree_backward`` hands each level to ``keep(k, values,
    controls)`` as it computes it; returns the kept levels and the reveal
    level.  A copy-invariant revealed stack (``_copy_invariant``) runs as
    one plain pass whose levels ``keep`` sees as bands.
    """
    _check_tree_preconditions(driver, tree)
    terms, reveal = _terminals(terminals, tree)
    stack = np.stack([values for values, _, _ in terms])
    step, parts = driver, (list(range(len(stack))), [], [])
    if z_y is not None:
        stack, step = -stack, driver.base
        parts = _controls(z_y, tree, reveal)
    ports, readers, sources = parts
    if ports:
        _check_tree_preconditions(step, tree)
    at_ports, at_readers = _index(ports), _index(readers)
    times, dt, s = tree.grid.times, tree.grid.dt, tree.sqrt_dt
    lay, view = reveal, None  # the pass's reveal level; keep's band views
    if reveal is not None and _copy_invariant(stack, sources):
        # the plain terminal: copy 0, then the last node of copies 1..t
        stack = np.concatenate([stack[:, 0], stack[:, 1:, -1]], -1)
        lay, view = None, reveal
    z = None  # the controls of the level last computed; none at level N

    def portfolio_control(src, k):
        # a row of the pass is read as a view; a plain stored control is laid
        # out as a band above the reveal level of a band pass
        if isinstance(src, int):
            return z[src]
        zyk = np.asarray(src[k], dtype=float)
        return band(zyk, k, lay) if zyk.ndim == 1 else zyk

    def reader_controls(k):
        # one control serves every reader as one un-copied view; readers of
        # several portfolios stack their own
        if len(sources) == 1:
            return portfolio_control(sources[0], k)[..., None]
        return np.stack([portfolio_control(z_y[i], k) for i in readers])[..., None]

    def update(k, up, down):
        # the portfolio rows (every row of a risk pass) and the rows that
        # read them each add their driver step in place, as one sum would
        nonlocal z
        z = up - down
        z /= 2.0 * s
        values = up + down
        values *= 0.5
        if ports:
            values[at_ports] += step.evaluate(
                times[k], z[at_ports][..., None]) * dt
        if readers:
            values[at_readers] += driver.evaluate(
                times[k], z[at_readers][..., None], reader_controls(k)) * dt
        return values

    return tree_backward(tree, stack, update, lay, lambda k, values: keep(
        k, band(values, k, view), None if z is None else band(z, k, view))), reveal


def _copy_invariant(stack, sources):
    """Whether neighbouring copies of a revealed stack agree bit for bit
    (-0.0 is not +0.0) on every terminal node they share, and every control
    read is a row of the pass or a plain stored one.  The recursion is
    elementwise, so by induction from level N the band of each level of the
    plain pass is the band pass's level, bit for bit."""
    if not all(isinstance(src, int) or all(np.ndim(zk) == 1 for zk in src)
               for src in sources):
        return False
    bits = stack.view(np.int64)
    return np.array_equal(bits[:, 1:, :-1], bits[:, :-1, 1:])


def _index(rows):
    """Ascending row indices as a slice when they are contiguous, so
    indexing with them takes a view."""
    if rows and rows[-1] - rows[0] < len(rows):
        return slice(rows[0], rows[-1] + 1)
    return rows


def _controls(z_y, disc, reveal=None):
    """The portfolio rows of a per-row ``z_y`` (entries None), the rows that
    read a control and the distinct controls they read, each checked: the
    index (an int) of a portfolio row, or a stored process from ``disc``."""
    ports = [i for i, src in enumerate(z_y) if src is None]
    readers = [i for i, src in enumerate(z_y) if src is not None]
    sources = list({src if isinstance(src, int) else id(src): src
                    for src in (z_y[i] for i in readers)}.values())
    for src in sources:
        if not isinstance(src, int):
            _validate_zy(src, disc, reveal)
        elif not (0 <= src < len(z_y) and z_y[src] is None):
            raise InvalidArgumentError(
                f"z_y names row {src}, which is no portfolio row of the stack")
    return ports, readers, sources


def _validate_zy(z_y, disc, reveal=None):
    """Reject a portfolio control that is not one from a solve on ``disc``:
    on the lattice a plain one, or one revealed at the claims' level."""
    n = disc.grid.steps
    if len(z_y) != n:
        raise InvalidArgumentError(
            f"portfolio control has {len(z_y)} steps, the grid has {n}")
    for k in range(n):
        shape = np.shape(z_y[k])
        if isinstance(disc, PathEnsemble):
            want = (disc.paths, disc.dimension)
        elif len(shape) == 2 and reveal is None:
            raise InvalidArgumentError(
                "portfolio control is revealed but the claim is not; solve the "
                "claim as a revealed claim at the same level")
        else:
            want = (k + 1,) if len(shape) == 1 else (reveal + 1, k - reveal + 1)
        if shape != want:
            raise InvalidArgumentError(
                f"portfolio control at step {k} has shape {shape}, expected "
                f"{want} (grid, ensemble or reveal level mismatch)")


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


def _lsmc_core(driver, terminals, paths: PathEnsemble, basis, z_y, keep):
    """The regression sweep of ``solve_stack`` over a stack of claims or
    raw terminal arrays that share one driver, handing each level to
    ``keep`` as ``_tree_core`` does; returns the kept levels and no reveal
    level.  Each level reads the ensemble's monomial block and builds one
    Gram per distinct payoff column (written into the last column of
    ``framed``, one buffer whose other columns hold the block) for the
    portfolio rows and then the rows that read them.  Each row then runs
    its own ridge solves and driver step, exactly as a solve of that claim
    alone would.
    """
    if z_y is None:
        step, phases = driver, [range(len(terminals))]
    else:
        step, phases = driver.base, _controls(z_y, paths)[:2]
    terms, _ = _terminals(terminals, paths)
    n, dt = paths.grid.steps, paths.grid.dt
    m, d = paths.paths, paths.dimension
    size = basis.size(d)
    if m < 10 * size:
        raise InvalidArgumentError(
            f"need at least 10 paths per basis function: M = {m} < {10 * size}")
    times = paths.grid.times
    ys = [values for values, _, _ in terms]
    if z_y is not None:
        ys = [-y for y in ys]
    groups = {}  # (phase, payoff id) -> (payoff, rows); None: the bare block
    for phase, rows in enumerate(phases):
        for i in rows:
            payoff = terms[i][2] if basis.include_payoff else None
            groups.setdefault((phase, id(payoff)), (payoff, []))[1].append(i)
    del terms  # the rows now live in ys; an allocation's are negated copies
    levels = [None] * (n + 1)
    levels[n] = keep(n, np.stack(ys), None)
    framed = None
    if any(p is not None for p, _ in groups.values()):
        framed = np.empty((m, size))
    for k in range(n - 1, -1, -1):
        zs = np.empty((len(ys), m, d))
        db = np.ascontiguousarray(paths.increments[:, k, :])
        if k > 0:
            state = paths.state_at(k)
            block = paths.monomial_block(k, basis.degree)
            if framed is not None:
                framed[:, :-1] = block
        grams = {}  # this level's Grams, by payoff column bytes
        for payoff, rows in groups.values():
            if k > 0:
                design = block
                if payoff is not None:
                    design = framed
                    design[:, -1] = _payoff_column(state, payoff)
                key = None if payoff is None else design[:, -1].tobytes()
                if key not in grams:
                    grams[key] = _gram(design)
                gram = grams[key]
            for i in rows:
                y = ys[i]
                # The Z target is centered by the fitted conditional mean:
                # same conditional expectation, but variance O(1) instead of
                # O(1/dt), which kills the convexity bias g(Z_hat) would
                # otherwise inherit.
                if k == 0:
                    cond = np.full(m, float(np.mean(y)))
                    target_z = (y - cond)[:, None] * db / dt
                    z = np.broadcast_to(np.mean(target_z, axis=0), (m, d)).copy()
                else:
                    cond = design @ _ridge_solve(design, y, gram)
                    target_z = (y - cond)[:, None] * db / dt
                    z = design @ _ridge_solve(design, target_z, gram)
                src = None if z_y is None else z_y[i]
                g = step.evaluate(times[k], z) if src is None else \
                    driver.evaluate(times[k], z,
                                    zs[src] if isinstance(src, int) else src[k])
                ys[i] = cond + g * dt
                zs[i] = z
        levels[k] = keep(k, np.stack(ys), zs)
    return levels, None


def _solutions(driver, levels, disc, basis, reveal) -> list:
    """The processes of a kept pass's ``(values, controls)`` stack levels,
    one per row, of row views: a row that is kept keeps its whole stack
    alive."""
    lsmc = isinstance(disc, PathEnsemble)
    return [BsdeSolution([v[i] for v, _ in levels],
                         [c[i] for _, c in levels[:-1]], disc, driver,
                         "lsmc" if lsmc else "tree",
                         {"basis_size": basis.size(disc.dimension),
                          "seed": disc.seed, "ridge": RIDGE} if lsmc else {},
                         reveal)
            for i in range(len(levels[-1][0]))]


# Overflow and invalid operations in a backward pass are reported by the
# finiteness check as NumericalFailureError, so numpy's warnings are muted.
@np.errstate(over="ignore", invalid="ignore")
def solve_stack(driver, terminals, disc, basis: BasisSpec | None = None, *,
                z_y=None, reduce=None) -> list:
    """Backward solves of a claim stack on ``disc``, a lattice (the
    terminals then share a reveal level) or a path ensemble regressed on
    ``basis``.  Given ``z_y``, one entry per terminal, ``driver`` is an
    allocation driver and each terminal a position, solved with terminal
    -position: a portfolio row (entry None) under ``driver.base``, any
    other row reading its portfolio's controls, those of a portfolio row
    of the stack (an int, its index) or a stored control process of the
    base solve on ``disc``.  So rows of several portfolios, and the
    portfolios themselves, share one pass.  Returns one ``BsdeSolution``
    per terminal, each equal bit for bit to the solve of that terminal
    alone; with ``reduce``, ``reduce(k, values, controls)`` for each level
    k, the level's values and controls with the stack axis (controls None
    at level N), called as the pass computes the level, from N down, so
    neither engine keeps a level or a control.  Either way every level is
    checked as it is computed: the first with a non-finite value raises
    ``NumericalFailureError``."""
    if not len(terminals):
        raise InvalidArgumentError("a claim stack needs at least one claim")
    if z_y is not None and len(z_y) != len(terminals):
        raise InvalidArgumentError(
            f"{len(z_y)} portfolio controls for {len(terminals)} terminals; "
            "z_y carries one control process per terminal")
    if isinstance(disc, TreeModel):
        core = _tree_core
    elif isinstance(disc, PathEnsemble):
        core, basis = _lsmc_core, basis or BasisSpec()
    else:
        raise InvalidArgumentError(
            f"unsupported discretization {type(disc).__name__}")

    def keep(k, values, controls):
        # a finite sum has finite terms; only a non-finite one needs a look
        if not np.isfinite(values.sum()) and not np.all(np.isfinite(values)):
            raise NumericalFailureError(
                f"backward solve produced non-finite values from level {k} "
                f"(t = {disc.grid.time(k):g}) down to level 0", level=k)
        return (values, controls) if reduce is None else \
            reduce(k, values, controls)

    levels, reveal = core(driver, terminals, disc, basis, z_y, keep)
    if reduce is not None:
        return levels
    sols = _solutions(driver, levels, disc, basis, reveal)
    for i, src in enumerate(z_y or ()):
        if src is None:
            sols[i].driver = driver.base
    return sols


def solve_tree(driver: Driver, terminal, tree: TreeModel) -> BsdeSolution:
    """Backward lattice solve; ``terminal`` supplies the level-N values as is."""
    return solve_stack(driver, [terminal], tree)[0]


def solve_alloc_tree(alloc: AllocDriver, position, z_y,
                     tree: TreeModel) -> BsdeSolution:
    """Allocation solve for sub-position ``position``: terminal value is -position.

    ``z_y`` is the control process of the base solve of the negated
    portfolio on the same lattice (one array per step).
    """
    return solve_stack(alloc, [position], tree, z_y=[z_y])[0]


def solve_lsmc(driver: Driver, terminal, paths: PathEnsemble,
               basis: BasisSpec | None = None) -> BsdeSolution:
    """Least-squares Monte Carlo solve; terminal values are used as is."""
    return solve_stack(driver, [terminal], paths, basis)[0]


def solve_alloc_lsmc(alloc: AllocDriver, position, z_y, paths: PathEnsemble,
                     basis: BasisSpec | None = None) -> BsdeSolution:
    """Allocation LSMC: terminal is -position, step uses the frozen z_y."""
    return solve_stack(alloc, [position], paths, basis, z_y=[z_y])[0]


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
    return _spread_error(solution.values[1])


def _spread_error(level) -> float:
    """``lsmc_standard_error`` from a process's level-1 path values, so a
    sweep that keeps no process can take it as it passes level 1."""
    level = np.asarray(level)
    return float(np.std(level) / np.sqrt(len(level)))


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
