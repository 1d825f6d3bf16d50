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
                     _monomial_block, _ridge_solve, _terminal_on_paths,
                     _terminal_on_tree, band, solve_lsmc, solve_tree,
                     tree_backward)
from .errors import (InadmissibleKernelError, InvalidArgumentError,
                     RejectedConfigurationError)
from .grid import PathEnsemble, TreeModel

__all__ = ["GirsanovKernel", "rho", "kernel_from_subgradient",
           "constant_kernel", "penalty", "expectation_under_Q", "dual_value",
           "stack_levels", "stack_kernels", "scenario_average"]

# deepest tree whose 2^N binary paths ``density_paths`` expands
MAX_EXPANDED_STEPS = 16


@dataclass(frozen=True)
class GirsanovKernel:
    """Adapted drift kernel identifying an absolutely continuous measure.

    On a tree, ``q[k]`` holds one value per level-k node; on a path
    ensemble, one (paths, d) array per step and ``density[k]`` the
    stochastic-exponential values at level k.  A stack of kernels
    (``stack_kernels``) is one kernel whose arrays carry a leading kernel
    axis; ``row`` takes one kernel back out as views.
    """

    q: list
    discretization: object
    density: list | None = field(default=None, repr=False)

    @property
    def on_tree(self) -> bool:
        return isinstance(self.discretization, TreeModel)

    def tilt_up(self, k: int):
        """Lattice branch weight of the up move under the tilted measure."""
        s = self.discretization.sqrt_dt
        return 0.5 * (1.0 + np.asarray(self.q[k]) * s)

    def row(self, i: int) -> "GirsanovKernel":
        """Kernel ``i`` of a stack, as views into the stack's arrays."""
        density = None if self.density is None else [d[i] for d in self.density]
        return GirsanovKernel([qk[i] for qk in self.q], self.discretization,
                              density)

    def density_paths(self):
        """Exact path-wise densities on a small tree.

        Expands the 2^N binary paths and returns (node_index, L) where
        ``node_index[p, k]`` is the lattice node visited by path p at level
        k and ``L[p, k]`` the running density product.  The density is a
        positive unit-mean martingale under the reference measure.
        """
        if not self.on_tree:
            raise InvalidArgumentError("path expansion applies to tree kernels")
        n = self.discretization.grid.steps
        if n > MAX_EXPANDED_STEPS:
            raise RejectedConfigurationError(
                f"path expansion needs 2^{n} paths; limit is "
                f"2^{MAX_EXPANDED_STEPS}", required_steps=MAX_EXPANDED_STEPS)
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


def rho(driver: Driver, claim, discretization, basis: BasisSpec | None = None,
        **solve_opts) -> BsdeSolution:
    """Dynamic risk of ``claim``: the backward solve with terminal -claim
    (``method`` ``tree`` or ``lsmc``); ``values[k]`` is rho_k."""
    if isinstance(discretization, TreeModel):
        return solve_tree(driver, -claim, discretization, **solve_opts)
    if isinstance(discretization, PathEnsemble):
        return solve_lsmc(driver, -claim, discretization, basis)
    raise InvalidArgumentError(
        f"unsupported discretization {type(discretization).__name__}")


def _tree_kernel_values(driver, solution):
    tree = solution.discretization
    times = tree.grid.times
    q = []
    for k, z in enumerate(solution.controls):
        qk = driver.subgradient(times[k], np.asarray(z)[..., None])[..., 0]
        q.append(qk)
    bound = max((float(np.max(np.abs(qk))) for qk in q), default=0.0)
    if bound * tree.sqrt_dt >= 1.0:
        raise RejectedConfigurationError(
            f"kernel magnitude {bound:.4g} makes a lattice weight non-positive; "
            "refine the grid", kernel_bound=bound)
    return q


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
    if isinstance(solution.discretization, TreeModel):
        return GirsanovKernel(_tree_kernel_values(driver, solution),
                              solution.discretization)
    paths = solution.discretization
    times = paths.grid.times
    q = [driver.subgradient(times[k], np.asarray(z)) for k, z in
         enumerate(solution.controls)]
    return GirsanovKernel(q, paths, _path_density(q, paths))


def _path_density(q, paths: PathEnsemble):
    dt = paths.grid.dt
    dens = [np.ones(paths.paths)]
    for k in range(paths.grid.steps):
        qk = np.asarray(q[k], dtype=float)
        inc = np.sum(qk * paths.increments[:, k, :], axis=-1)
        dens.append(dens[-1] * np.exp(inc - 0.5 * np.sum(qk * qk, axis=-1) * dt))
    return dens


def constant_kernel(value, discretization) -> GirsanovKernel:
    """Deterministic constant kernel (scalar for the tree, length-d vector
    for ensembles)."""
    if isinstance(discretization, TreeModel):
        c = float(value)
        if abs(c) * discretization.sqrt_dt >= 1.0:
            raise RejectedConfigurationError(
                f"constant kernel {c:g} violates |q|*sqrt(dt) < 1 on this grid",
                kernel_bound=abs(c))
        q = [np.full(k + 1, c) for k in range(discretization.grid.steps)]
        return GirsanovKernel(q, discretization)
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    if vec.shape != (discretization.dimension,):
        raise InvalidArgumentError(
            f"constant kernel needs {discretization.dimension} coordinates")
    q = [np.broadcast_to(vec, (discretization.paths, discretization.dimension)).copy()
         for _ in range(discretization.grid.steps)]
    return GirsanovKernel(q, discretization, _path_density(q, discretization))


def stack_levels(level_lists, count):
    """Stack ``count`` per-level array lists along a new leading axis.

    The lists are consumed one at a time, so only the stack and the list
    being copied are alive.
    """
    out = None
    for i, levels in enumerate(level_lists):
        if out is None:
            out = [np.empty((count,) + np.shape(v)) for v in levels]
        for dst, v in zip(out, levels):
            dst[i] = v
    return out


def stack_kernels(kernels, count, discretization) -> GirsanovKernel:
    """One kernel stack from ``count`` kernels on ``discretization``."""
    steps = discretization.grid.steps
    # q has one array per step and density one per level, so a kernel's
    # arrays travel as one list and are split after stacking
    levels = stack_levels((list(k.q) + list(k.density or ()) for k in kernels),
                          count)
    return GirsanovKernel(levels[:steps], discretization, levels[steps:] or None)


def _claim_values(claim, discretization):
    if isinstance(discretization, TreeModel):
        return _terminal_on_tree(claim, discretization)
    return _terminal_on_paths(claim, discretization)[0], None


def expectation_under_Q(claim, kernel: GirsanovKernel, t: int | None = None,
                        basis: BasisSpec | None = None):
    """Adapted expected loss E_Q[-claim | F_k] along the kernel's measure.

    Returns the list of level arrays, or the level-``t`` array when ``t``
    is given.  On ensembles the conditional expectations are density
    weighted regressions (plain means at k = 0).
    """
    disc = kernel.discretization
    values, reveal = _claim_values(claim, disc)
    if isinstance(disc, TreeModel):
        levels = tree_backward(disc, -values, _tilted_update(kernel, reveal),
                               reveal)
    else:
        levels = _path_conditional(-values, kernel, disc, basis or BasisSpec())
    return levels if t is None else levels[t]


def scenario_average(claim, stack: GirsanovKernel, terms, penalties=None,
                     basis: BasisSpec | None = None):
    """Weighted sum of tilted expected losses over a kernel stack.

    Level k is the sum over ``terms``, a sequence of (weight, row) pairs,
    of weight * (E_Q[-claim | F_k] - penalty_k) under the stack's kernel
    ``row``, with penalty_k = 0 when ``penalties`` (per-level arrays with
    the stack's leading axis) is None.  One backward pass (one weighted
    regression per kernel and level on ensembles) serves the whole stack,
    and each level is summed as soon as it exists, so only the current
    level's stack is alive.  The terms are added in order with elementwise
    operations: the floats equal those of summing ``expectation_under_Q``
    (minus ``penalty``) kernel by kernel.
    """
    disc = stack.discretization
    values, reveal = _claim_values(claim, disc)

    def reduce(k, expect):
        if penalties is not None:
            expect = expect - band(penalties[k], k, reveal)
        total = None
        for w, r in terms:
            total = w * expect[r] if total is None else total + w * expect[r]
        return total

    if isinstance(disc, TreeModel):
        terminal = np.broadcast_to(-values, (len(stack.q[0]),) + values.shape)
        return tree_backward(disc, terminal, _tilted_update(stack, reveal),
                             reveal, reduce)
    return _path_conditional(-values, stack, disc, basis or BasisSpec(), reduce)


def _tilted_update(kernel, reveal):
    """Lattice step of the tilted expectation; above ``reveal`` the branch
    weights are laid out as the band of a revealed claim."""
    def update(k, up, down):
        pu = band(kernel.tilt_up(k), k, reveal)
        return pu * up + (1.0 - pu) * down
    return update


def _path_conditional(terminal, kernel: GirsanovKernel, paths: PathEnsemble,
                      basis: BasisSpec, reduce=None):
    """E_Q[terminal | F_k] per path via L(T;k)-weighted regression.

    ``terminal`` is one array, or a list of one target per level.  With
    ``reduce``, ``kernel`` is a stack: each level's design and Gram serve
    every kernel's regression, and the level's (kernels, paths) array is
    stored as ``reduce(k, array)``.
    """
    if kernel.density is None:
        raise InvalidArgumentError("kernel carries no path density")
    n = paths.grid.steps
    targets = terminal if isinstance(terminal, list) \
        else [np.asarray(terminal, dtype=float)] * (n + 1)
    density = kernel.density if reduce is not None \
        else [d[None] for d in kernel.density]
    out = []
    for k in range(n + 1):
        level = np.empty((len(density[k]), paths.paths))
        if 0 < k < n:
            design = _monomial_block(paths.state_at(k), basis)
            gram = _gram(design, basis.ridge)
        for r, (last, here) in enumerate(zip(density[-1], density[k])):
            weighted = targets[k] * last / here
            if k == 0:
                level[r] = float(np.mean(weighted))
            elif k == n:
                level[r] = weighted
            else:
                level[r] = design @ _ridge_solve(design, weighted, basis.ridge,
                                                 gram)
        out.append(level[0] if reduce is None else reduce(k, level))
    return out


def _conjugate_levels(driver, kernel):
    disc = kernel.discretization
    times = disc.grid.times
    out = []
    for k, qk in enumerate(kernel.q):
        conj = driver.conjugate(times[k], np.asarray(qk)[..., None]) \
            if isinstance(disc, TreeModel) else driver.conjugate(times[k], qk)
        conj = np.asarray(conj, dtype=float)
        if np.any(np.isinf(conj)):
            raise InadmissibleKernelError(
                f"driver conjugate is infinite along the kernel at step {k}")
        out.append(conj)
    return out


def penalty(driver: Driver, kernel: GirsanovKernel,
            t: int | None = None, basis: BasisSpec | None = None):
    """Minimal penalty of the kernel's measure: the conditional Q-expectation
    of the accumulated driver conjugate along the kernel.

    Returns the process as a ``BsdeSolution`` with ``method`` ``penalty``
    and no controls, or its level-``t`` array when ``t`` is given.
    """
    disc = kernel.discretization
    conj = _conjugate_levels(driver, kernel)
    dt = disc.grid.dt
    if isinstance(disc, TreeModel):
        def update(k, up, down):
            pu = kernel.tilt_up(k)
            return pu * up + (1.0 - pu) * down + conj[k] * dt

        levels = tree_backward(disc, np.zeros(disc.grid.steps + 1), update)
    else:
        accrued = np.sum(np.column_stack(conj), axis=1) * dt
        running = [accrued.copy()]
        for k in range(disc.grid.steps):
            accrued = accrued - conj[k] * dt
            running.append(accrued.copy())
        levels = _path_conditional(running, kernel, disc, basis or BasisSpec())
    proc = BsdeSolution(levels, None, disc, driver, "penalty")
    return proc if t is None else proc.at(t)


def dual_value(driver: Driver, claim, kernel: GirsanovKernel,
               t: int | None = None, basis: BasisSpec | None = None):
    """One candidate of the dual representation: E_Q[-claim|F_k] - penalty_k.

    Never exceeds the risk value; equals it for the subgradient kernel of
    the claim's own solve.
    """
    expect = expectation_under_Q(claim, kernel, basis=basis)
    pen = penalty(driver, kernel, basis=basis)
    reveal = claim.level if isinstance(claim, RevealedClaim) else None
    levels = [e - band(c, k, reveal)
              for k, (e, c) in enumerate(zip(expect, pen.values))]
    return levels if t is None else levels[t]
