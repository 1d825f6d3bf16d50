"""Dynamic risk measures, measure changes, penalties and dual values.

The risk of a claim X is the backward solve with terminal value -X.  A
measure change is carried by an adapted kernel q; on the lattice it acts
through exact tilted branch weights

    p_up = (1 + q * sqrt(dt)) / 2,    p_down = (1 - q * sqrt(dt)) / 2,

requiring |q| * sqrt(dt) < 1, under which one-step increments gain drift
q * dt.  This makes the dual representation an exact identity on the tree:
the risk value dominates every tilted expectation minus its penalty, with
equality when q is the driver subgradient along the solution's control.

On path ensembles the kernel acts through its stochastic exponential with
log-increments q * dB - ||q||^2 * dt / 2 (the sign convention is validated
by the attainment identity above, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drivers import Driver
from .engine import (BasisSpec, BsdeSolution, RevealedClaim, _gram,
                     _ridge_solve, _terminals, _tree_levels, band, solve_lsmc,
                     solve_stack, solve_tree)
from .errors import (InadmissibleKernelError, InvalidArgumentError,
                     RejectedConfigurationError)
from .grid import PathEnsemble, TreeModel

__all__ = ["GirsanovKernel", "rho", "kernel_from_subgradient",
           "kernel_stack", "kernel_levels", "constant_kernel", "penalty",
           "expectation_under_Q", "dual_value", "scenario_average"]

# deepest tree whose 2^N binary paths ``density_paths`` expands
MAX_EXPANDED_STEPS = 16


@dataclass(frozen=True)
class GirsanovKernel:
    """Adapted drift kernel identifying an absolutely continuous measure.

    On a tree, ``q[k]`` holds one value per level-k node; on a path
    ensemble, one (paths, d) array per step, and ``density[k]`` the
    stochastic-exponential values at level k where ``kernel_stack``,
    ``kernel_from_subgradient`` or ``constant_kernel`` made it.  No pass
    reads a density, so ``GirsanovKernel(q, paths)`` is a whole kernel.  A
    stack of kernels (``kernel_stack``) is one kernel whose arrays carry a
    leading kernel axis; ``row`` takes one kernel back out as views, and
    ``stacked`` makes one kernel a stack of one.
    """

    q: list
    discretization: object
    density: list | None = field(default=None, repr=False)

    @property
    def on_tree(self) -> bool:
        return isinstance(self.discretization, TreeModel)

    @property
    def is_stack(self) -> bool:
        """Whether the arrays carry a leading kernel axis."""
        return np.ndim(self.q[0]) == (2 if self.on_tree else 3)

    def row(self, i: int) -> "GirsanovKernel":
        """Kernel ``i`` of a stack, as views into the stack's arrays."""
        density = None if self.density is None else [d[i] for d in self.density]
        return GirsanovKernel([qk[i] for qk in self.q], self.discretization,
                              density)

    def stacked(self) -> "GirsanovKernel":
        """This kernel as a stack of one, as views of its arrays."""
        density = None if self.density is None else [d[None] for d in self.density]
        return GirsanovKernel([np.asarray(qk)[None] for qk in self.q],
                              self.discretization, density)

    def density_paths(self):
        """Exact path-wise densities on a small tree.

        Expands the 2^N binary paths and returns (node_index, L) where
        ``node_index[p, k]`` is the lattice node visited by path p at level
        k and ``L[p, k]`` the running density product.  The density is a
        positive unit-mean martingale under the reference measure.
        """
        if not self.on_tree:
            raise InvalidArgumentError("path expansion applies to tree kernels")
        n = _expandable_depth(self.discretization)
        s = self.discretization.sqrt_dt
        count = 2 ** n
        node = np.zeros((count, n + 1), dtype=int)
        dens = np.ones((count, n + 1))
        for k in range(n):
            ups = (np.arange(count) >> k) & 1
            qk = np.asarray(self.q[k])[node[:, k]]
            node[:, k + 1] = node[:, k] + ups
            dens[:, k + 1] = dens[:, k] * (1.0 + np.where(ups, 1.0, -1.0) * qk * s)
        return node, dens


def _expandable_depth(tree: TreeModel) -> int:
    """The depth of ``tree``, checked to be one ``density_paths`` expands."""
    n = tree.grid.steps
    if n > MAX_EXPANDED_STEPS:
        raise RejectedConfigurationError(
            f"path expansion needs 2^{n} paths; limit is "
            f"2^{MAX_EXPANDED_STEPS}", required_steps=MAX_EXPANDED_STEPS)
    return n


def rho(driver: Driver, claim, discretization,
        basis: BasisSpec | None = None) -> BsdeSolution:
    """Dynamic risk of ``claim``: the backward solve with terminal -claim
    (``method`` ``tree`` or ``lsmc``); ``values[k]`` is rho_k."""
    if isinstance(discretization, TreeModel):
        return solve_tree(driver, -claim, discretization)
    if isinstance(discretization, PathEnsemble):
        return solve_lsmc(driver, -claim, discretization, basis)
    raise InvalidArgumentError(
        f"unsupported discretization {type(discretization).__name__}")


def _subgradient_at(driver, disc, t, z):
    """A kernel step: the driver subgradient along controls at time t."""
    if isinstance(disc, TreeModel):
        return driver.subgradient(t, np.asarray(z)[..., None])[..., 0]
    return driver.subgradient(t, np.asarray(z))


def _replay(q, at=lambda k, z: z):
    """A run over stored steps: ``step(k, at(k, q[k]))``, last step first."""
    return lambda step: [step(k, at(k, q[k])) for k in range(len(q) - 1, -1, -1)]


def kernel_levels(driver: Driver, source, disc, basis: BasisSpec | None = None):
    """The optimal-scenario kernels of ``source`` as ``(disc, count, run)``:
    ``run(step)`` calls ``step(k, q_k)`` from step N-1 down to 0, q_k the
    step-k subgradients of the ``count`` kernels on a leading axis, from
    one reduced ``solve_stack`` pass of plain claims or the controls of one
    risk solve.  On the lattice no step is handed on once a kernel breaks
    the tilt bound; the run still ends at step 0 and raises the first such
    kernel's error, before any error of ``step``."""
    times = disc.grid.times
    at = lambda k, z: _subgradient_at(driver, disc, times[k], z)
    if isinstance(source, BsdeSolution):
        count, solve = 1, _replay(source.controls,
                                  lambda k, z: at(k, np.asarray(z)[None]))
    elif any(isinstance(c, RevealedClaim) for c in source):
        raise InvalidArgumentError("kernels are built from plain claims")
    else:
        count, solve = len(source), lambda step: solve_stack(
            driver, [-c for c in source], disc, basis, reduce=lambda k, _, z:
            None if z is None else step(k, at(k, z)))
    if not isinstance(disc, TreeModel):
        return disc, count, solve

    def run(step):
        peaks, failed = np.zeros(count), []

        def bounded(k, q):
            np.maximum(peaks, np.max(np.abs(q), axis=-1), out=peaks)
            if not failed and not np.any(peaks * disc.sqrt_dt >= 1.0):
                try:
                    step(k, q)
                except Exception as exc:
                    failed.append(exc)
        solve(bounded)
        for bound in peaks:
            if bound * disc.sqrt_dt >= 1.0:
                raise RejectedConfigurationError(
                    f"kernel magnitude {bound:.4g} makes a lattice weight "
                    "non-positive; refine the grid", kernel_bound=float(bound))
        if failed:
            raise failed[0]
    return disc, count, run


def kernel_from_subgradient(driver: Driver, solution: BsdeSolution) -> GirsanovKernel:
    """Kernel q_k = subgradient of the driver along the solution's control.

    This is the optimal-scenario kernel: its tilted expectation minus
    penalty attains the risk value.  The solve must come from ``driver``
    itself (or an equal driver; the catalog factories return one driver
    per parameter set): a name says nothing about the drift behind it.
    """
    if solution.driver is not driver and solution.driver != driver:
        raise InvalidArgumentError(
            f"solution was produced by driver {solution.driver!r}, not "
            f"{driver!r}; build the kernel from the matching solve")
    if solution.reveal is not None:
        raise InvalidArgumentError(
            "kernels are built from plain solves; revealed solves are not "
            "supported here")
    return kernel_stack(driver, solution, solution.discretization).row(0)


def kernel_stack(driver: Driver, claims, discretization,
                 basis: BasisSpec | None = None) -> GirsanovKernel:
    """The optimal-scenario kernels of the claims' risk solves (or of one
    risk solve) as one stack, with their densities on an ensemble: row i
    is ``kernel_from_subgradient(driver, rho(driver, claims[i]))`` bit for
    bit, and the first row over the lattice bound raises its error.  The
    solves are one reduced ``solve_stack`` pass that turns each step's
    controls into its kernels (``kernel_levels``), so no solve is kept."""
    q = _stored_steps(kernel_levels(driver, claims, discretization, basis))
    return GirsanovKernel(q, discretization, None if isinstance(
        discretization, TreeModel) else _path_density(q, discretization))


def _stored_steps(levels) -> list:
    """The kernel steps of a ``kernel_levels`` run, as a list by step."""
    q = [None] * levels[0].grid.steps
    levels[2](q.__setitem__)
    return q


def _path_density(q, paths: PathEnsemble):
    dens = [np.ones(np.shape(q[0])[:-1])]
    for k in range(paths.grid.steps):
        dens.append(dens[-1] * _growth(q[k], paths, k))
    return dens


def _growth(q, paths: PathEnsemble, k: int):
    """The density's step-k factor exp(q_k dB_k - |q_k|^2 dt / 2)."""
    q = np.asarray(q, dtype=float)
    return np.exp(np.sum(q * paths.increments[:, k, :], axis=-1)
                  - 0.5 * np.sum(q * q, axis=-1) * paths.grid.dt)


def constant_kernel(value, discretization) -> GirsanovKernel:
    """Deterministic constant kernel (scalar for the tree, length-d vector
    for ensembles)."""
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(vec)):
        raise InvalidArgumentError(f"constant kernel must be finite, got {value}")
    if isinstance(discretization, TreeModel):
        c = float(value)
        if abs(c) * discretization.sqrt_dt >= 1.0:
            raise RejectedConfigurationError(
                f"constant kernel {c:g} violates |q|*sqrt(dt) < 1 on this grid",
                kernel_bound=abs(c))
        q = [np.full(k + 1, c) for k in range(discretization.grid.steps)]
        return GirsanovKernel(q, discretization)
    if vec.shape != (discretization.dimension,):
        raise InvalidArgumentError(
            f"constant kernel needs {discretization.dimension} coordinates")
    q = [np.broadcast_to(vec, (discretization.paths, discretization.dimension)).copy()
         for _ in range(discretization.grid.steps)]
    return GirsanovKernel(q, discretization, _path_density(q, discretization))


def expectation_under_Q(claim, kernel: GirsanovKernel,
                        basis: BasisSpec | None = None):
    """Adapted expected loss E_Q[-claim | F_k] along the kernel's measure,
    as a list of level arrays: ``scenario_average`` of the claim over the
    kernel as a stack of one, without a penalty."""
    return [level[0] for level in
            scenario_average([claim], kernel.stacked(), [(1.0, 0)], basis=basis)]


def scenario_average(claims, stack: GirsanovKernel, terms, driver=None,
                     basis: BasisSpec | None = None, reduce=None):
    """Weighted sums of tilted expected losses over a kernel stack, for a
    claim stack that shares one reveal level: row c of level k sums, over
    ``terms`` (weight, row), weight * (E_Q[-claims[c] | F_k] - penalty_k)
    under the stack's kernel ``row``, penalty_k being its ``penalty`` under
    ``driver`` (0 without one).  One ``_tilted_pass`` serves every claim,
    kernel and penalty, and each level is summed as it is computed, in term
    order (a running sum, the order of ``np.add.accumulate``;
    ``np.add.reduce`` may reorder): the floats equal those of
    ``dual_value`` claim by claim and kernel by kernel.  ``stack`` may be
    a ``kernel_levels`` triple, whose steps drive the pass.  With
    ``reduce`` level k is stored as ``reduce(k, sums)``, from level N
    down."""
    weights, rows = (list(x) for x in zip(*terms))
    keep = reduce or (lambda k, sums: sums)

    def average(k, level):
        # terms over the rows 0..G-1 read the level itself, not a copy
        at = slice(None) if rows == list(range(level.shape[1])) else rows
        w = np.reshape(weights, (-1,) + (1,) * (level.ndim - 2))
        if driver is None:
            losses = w * level[:len(claims), at]
        else:
            losses = level[:len(claims), at] - level[-1, at]
            losses *= w
        # term by term in place: np.add.accumulate's order and floats, in
        # about a quarter of its time for 32 kernels on 500 nodes
        total = losses[:, 0].copy()
        for g in range(1, losses.shape[1]):
            total += losses[:, g]
        return keep(k, total)

    return _tilted_pass(claims, stack, driver, basis, average)


def _tilted_pass(claims, stack: GirsanovKernel, driver, basis, reduce):
    """One backward pass under every kernel of ``stack`` (stored, or a
    ``kernel_levels`` triple), each kernel step from N-1 down computing its
    level; level k, axes (row, kernel) first, holds E_Q[-claim | F_k] per
    claim of ``claims`` (one reveal level) and, given ``driver``, the
    penalty in a last row, which starts at zero in the claims' layout and
    accrues the driver conjugate times dt, and is stored as ``reduce(k,
    level)``.  The lattice levels are ``_tree_levels``, the ensemble's
    ``_path_levels``.  Once a conjugate is infinite no level is, and the
    run ends naming the first such kernel's lowest step."""
    disc, count, run = stack if isinstance(stack, tuple) else \
        (stack.discretization, len(stack.q[0]), _replay(stack.q))
    terms, reveal = _terminals(claims, disc)
    tree = isinstance(disc, TreeModel)
    n, dt, times = disc.grid.steps, disc.grid.dt, disc.grid.times
    shape = (count,) + (np.shape(terms[0][0] if terms else disc.terminal_states)
                        if tree else (disc.paths,))
    terminal = np.stack([np.broadcast_to(-y, shape) for y, _, _ in terms]
                        + [np.zeros(shape)] * (driver is not None))
    tilt, lowest, levels = {}, np.full(count, n), [None] * (n + 1)
    if tree:
        def update(k, up, down):
            # the branch weight of the up move under each kernel
            pu = tilt["q"] * disc.sqrt_dt
            pu += 1.0
            pu *= 0.5
            pu = band(pu, k, reveal)
            mean = pu * up
            mean += (1.0 - pu) * down
            if driver is not None:
                mean[-1] += band(tilt["conj"], k, reveal) * dt
            return mean
        steps = _tree_levels(disc, terminal, update, reveal, reduce)
    else:
        steps = _path_levels(disc, terminal, tilt, basis or BasisSpec(), reduce)

    def step(k, q):
        if k == n - 1:
            levels[n] = next(steps)[1]
        tilt["q"] = q
        if driver is not None:
            conj = tilt["conj"] = np.asarray(driver.conjugate(
                times[k], np.asarray(q)[..., None] if tree else q), dtype=float)
            # one flag per (kernel, node or path)
            lowest[np.broadcast_to(np.isinf(conj), np.shape(q)[:2]).any(-1)] = k
        if np.all(lowest == n):
            levels[k] = next(steps)[1]
    run(step)
    if np.any(lowest < n):
        raise InadmissibleKernelError("driver conjugate is infinite along "
                                      f"the kernel at step {lowest[lowest < n][0]}")
    return levels


def _path_levels(paths: PathEnsemble, terminal, tilt, basis: BasisSpec, reduce):
    """``_tree_levels`` on an ensemble: the tilted levels of ``terminal``
    (row, kernel, path) from N down, each computed when asked for from
    ``tilt``'s step-k kernels ``q`` and conjugates ``conj``.  A path
    carries its weight L(T;k) = L(T;k+1) exp(q_k dB_k - |q_k|^2 dt / 2)
    and accrued conjugate A_k = A_{k+1} + g*(q_k) dt, the last row's target
    given ``conj``; level k regresses each weighted target per kernel on
    the kept monomial block (one ridge solve each), and level 0 is its mean."""
    n, dt = paths.grid.steps, paths.grid.dt
    weight, accrued = np.ones(terminal.shape[1:]), np.zeros(terminal.shape[1:])
    yield n, reduce(n, terminal)
    for k in range(n - 1, -1, -1):
        weight *= _growth(tilt["q"], paths, k)
        targets = list(terminal)
        if "conj" in tilt:
            accrued += tilt["conj"] * dt
            targets[-1] = accrued
        if k > 0:
            design = paths.monomial_block(k, basis.degree)
            gram = _gram(design)
        level = np.empty(terminal.shape)
        for i, y in enumerate(targets):
            for r, w in enumerate(weight):
                weighted = y[r] * w
                level[i, r] = np.mean(weighted) if k == 0 else \
                    design @ _ridge_solve(design, weighted, gram)
        yield k, reduce(k, level)


def penalty(driver: Driver, kernel: GirsanovKernel,
            basis: BasisSpec | None = None):
    """Minimal penalty of the kernel's measure: the conditional Q-expectation
    of the accumulated driver conjugate along the kernel.

    Returns the process as a ``BsdeSolution`` with ``method`` ``penalty``
    and no controls, the penalty row of a ``_tilted_pass`` without claims;
    over a kernel stack its levels carry the stack axis.
    """
    stack = kernel if kernel.is_stack else kernel.stacked()
    levels = _tilted_pass([], stack, driver, basis, lambda k, level: level[-1])
    return BsdeSolution(levels if kernel.is_stack else [v[0] for v in levels],
                        None, stack.discretization, driver, "penalty")


def dual_value(driver: Driver, claim, kernel: GirsanovKernel,
               basis: BasisSpec | None = None):
    """One candidate of the dual representation: E_Q[-claim|F_k] - penalty_k,
    as a list of level arrays: ``scenario_average`` of the claim over the
    kernel as a stack of one, with the penalty.

    Never exceeds the risk value; equals it for the subgradient kernel of
    the claim's own solve.
    """
    return [level[0] for level in scenario_average(
        [claim], kernel.stacked(), [(1.0, 0)], driver, basis)]
