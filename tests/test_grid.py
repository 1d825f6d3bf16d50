import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskalloc import InvalidArgumentError, build_grid, build_tree, sample_paths


def test_grid_points_quarter():
    grid = build_grid(1.0, 4)
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_single_step():
    grid = build_grid(2.0, 1)
    assert np.allclose(grid.times, [0.0, 2.0])


def test_grid_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        build_grid(0.0, 4)
    with pytest.raises(InvalidArgumentError):
        build_grid(1.0, 0)
    with pytest.raises(InvalidArgumentError):
        build_grid(-1.0, 4)
    for horizon, steps in ((np.nan, 4), (np.inf, 4), (1.0, np.nan),
                           (1.0, np.inf)):
        with pytest.raises(InvalidArgumentError, match="finite"):
            build_grid(horizon, steps)


def test_tree_level_states():
    tree = build_tree(build_grid(1.0, 2))
    s = np.sqrt(0.5)
    assert np.allclose(tree.states(1), [-s, s])
    assert np.allclose(tree.states(2), [-2 * s, 0.0, 2 * s])
    assert len(tree.states(2)) == 3


def test_tree_single_level():
    tree = build_tree(build_grid(1.0, 1))
    assert np.allclose(tree.states(1), [-1.0, 1.0])


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=25, deadline=None)
def test_tree_martingale_property(n):
    tree = build_tree(build_grid(1.5, n))
    for k in range(n):
        parent = tree.states(k)
        child = tree.states(k + 1)
        avg = 0.5 * (child[:-1] + child[1:])
        assert np.max(np.abs(avg - parent)) < 1e-14


def test_tree_increments_match_step():
    tree = build_tree(build_grid(1.0, 10))
    for k in range(10):
        parent = tree.states(k)
        child = tree.states(k + 1)
        assert np.allclose(child[1:] - parent, tree.sqrt_dt)
        assert np.allclose(child[:-1] - parent, -tree.sqrt_dt)


def test_sample_paths_deterministic():
    grid = build_grid(1.0, 8)
    a = sample_paths(grid, 2, 500, seed=11)
    b = sample_paths(grid, 2, 500, seed=11)
    assert np.array_equal(a.increments, b.increments)
    c = sample_paths(grid, 2, 500, seed=12)
    assert not np.array_equal(a.increments, c.increments)


def test_sample_paths_moments():
    grid = build_grid(1.0, 4)
    ens = sample_paths(grid, 1, 100_000, seed=42)
    dt = grid.dt
    mean = np.mean(ens.increments)
    assert abs(mean) <= 0.02 * np.sqrt(dt)
    var = np.var(ens.increments, axis=0)[:, 0]
    assert np.all(np.abs(var / dt - 1.0) <= 5.0 / np.sqrt(ens.paths))


def test_sample_paths_cumulative_values():
    grid = build_grid(1.0, 5)
    ens = sample_paths(grid, 1, 10, seed=3)
    values = ens.values
    assert np.allclose(values[:, 0, :], 0.0)
    assert np.allclose(values[:, -1, :],
                       np.sum(ens.increments, axis=1))


def test_sample_paths_rejects_bad_arguments():
    grid = build_grid(1.0, 4)
    with pytest.raises(InvalidArgumentError):
        sample_paths(grid, 1, 0, seed=1)
    with pytest.raises(InvalidArgumentError):
        sample_paths(grid, 0, 10, seed=1)


@pytest.mark.parametrize("dimension", [1, 2])
def test_cached_states_match_fresh_cumsum_and_are_read_only(dimension):
    grid = build_grid(1.0, 6)
    ens = sample_paths(grid, dimension, 50, seed=5)
    fresh = np.concatenate([np.zeros((50, 1, dimension)),
                            np.cumsum(ens.increments, axis=1)], axis=1)
    assert ens.values.tobytes() == fresh.tobytes()
    assert ens.values is ens.values
    assert not ens.values.flags.writeable
    with pytest.raises(ValueError):
        ens.values[0, 0, 0] = 1.0
    for k in range(grid.steps + 1):
        assert np.shares_memory(ens.state_at(k), ens.values)
    assert np.shares_memory(ens.terminal_values(), ens.values)
    term = fresh[:, -1, 0] if dimension == 1 else fresh[:, -1, :]
    assert np.array_equal(ens.terminal_values(), term)
