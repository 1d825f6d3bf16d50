"""Time grids, the recombining binomial lattice and Monte Carlo ensembles.

The lattice is the exact oracle of the library: a one-dimensional random
walk with steps of size sqrt(dt) and branch probability 1/2, on which
conditional expectations are finite sums.  Multi-dimensional experiments
use seeded Gaussian path ensembles instead.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["TimeGrid", "TreeModel", "PathEnsemble", "build_grid", "build_tree",
           "sample_paths"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def time(self, k: int) -> float:
        return k * self.dt


@dataclass(frozen=True)
class TreeModel:
    """Recombining binomial lattice for a standard one-dimensional Brownian motion.

    Level k holds k+1 nodes with states (2j - k) * sqrt(dt), j = 0..k; each
    node branches up/down with probability 1/2, so one-step increments have
    mean zero and variance dt.
    """

    grid: TimeGrid

    @property
    def sqrt_dt(self) -> float:
        return float(np.sqrt(self.grid.dt))

    def states(self, k: int) -> np.ndarray:
        """Node states at level k, ordered from lowest (j=0) to highest."""
        if not 0 <= k <= self.grid.steps:
            raise InvalidArgumentError(f"level {k} outside 0..{self.grid.steps}")
        j = np.arange(k + 1)
        return (2 * j - k) * self.sqrt_dt

    @property
    def terminal_states(self) -> np.ndarray:
        return self.states(self.grid.steps)


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded Gaussian increments for d-dimensional Brownian paths.

    ``increments`` has shape (paths, steps, dimension); regenerating with the
    same seed is bit-identical.  ``values`` are the cumulative path values
    with a leading zero slice, shape (paths, steps+1, dimension).

    ``values`` is computed once, on first use, and kept as a read-only array
    of this ensemble; ``increments`` must therefore not be mutated after
    construction.
    """

    grid: TimeGrid
    dimension: int
    paths: int
    seed: int
    increments: np.ndarray = field(repr=False)

    @cached_property
    def values(self) -> np.ndarray:
        cum = np.cumsum(self.increments, axis=1)
        zero = np.zeros((self.paths, 1, self.dimension))
        values = np.concatenate([zero, cum], axis=1)
        values.flags.writeable = False
        return values

    def terminal_values(self) -> np.ndarray:
        """Terminal path values, shape (paths,) for d=1 else (paths, d)."""
        return self.state_at(self.grid.steps)

    def state_at(self, k: int) -> np.ndarray:
        """Path values at level k, shape (paths,) for d=1 else (paths, d)."""
        v = self.values[:, k, :]
        return v[:, 0] if self.dimension == 1 else v


def build_grid(horizon: float, steps: int) -> TimeGrid:
    """Uniform time grid; horizon positive and finite, steps finite, >= 1."""
    if not 0 < horizon < math.inf:
        raise InvalidArgumentError(
            f"horizon must be positive and finite, got {horizon}")
    if not 1 <= steps < math.inf:
        raise InvalidArgumentError(f"steps must be finite and >= 1, got {steps}")
    return TimeGrid(float(horizon), int(steps))


def build_tree(grid: TimeGrid) -> TreeModel:
    return TreeModel(grid)


def sample_paths(grid: TimeGrid, dimension: int, paths: int, seed: int) -> PathEnsemble:
    """Draw a reproducible ensemble of Brownian increments.

    Uses a counter-based Philox generator keyed on ``seed`` so that the
    ensemble is independent of execution order.
    """
    if dimension < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {dimension}")
    if paths < 1:
        raise InvalidArgumentError(f"paths must be >= 1, got {paths}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    incs = rng.standard_normal((paths, grid.steps, dimension)) * np.sqrt(grid.dt)
    return PathEnsemble(grid, int(dimension), int(paths), int(seed), incs)
