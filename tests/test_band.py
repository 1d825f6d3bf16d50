"""Revealed solves on the reachable band.

Row v of a revealed level k >= t holds nodes v .. v + k - t of the copy of
the recursion for level-t node v.  Every test here compares that row, bit
for bit, with an independent plain solve whose terminal value carries the
amount revealed at node v.
"""

from pathlib import Path

import numpy as np
import pytest

from riskalloc import (InvalidArgumentError, NumericalFailureError,
                       QuadratureSpec, RevealedClaim,
                       SolveCache, TerminalClaim, build_grid, build_tree,
                       driver_entropic, driver_scaled_norm,
                       expectation_under_Q, kernel_from_subgradient,
                       make_rule, rho, solve_alloc_tree, solve_tree)
from riskalloc import engine
from riskalloc.cli import run_scenario
from riskalloc.drivers import alloc_driver_subdiff
from riskalloc.engine import _copy_invariant, band, solve_stack
from riskalloc.harness import _Peaks, _Worst

W = TerminalClaim(lambda w: np.asarray(w, float), label="W")
CALL = TerminalClaim(lambda w: np.maximum(w, 0.0), label="call")
DRIVERS = [driver_scaled_norm(0.5), driver_entropic(1.0)]
IDS = ["norm", "entropic"]
N, T = 12, 5
AMOUNTS = np.linspace(-1.0, 1.0, T + 1)
GOLDEN = Path(__file__).parent / "golden"


def tree(n):
    return build_tree(build_grid(1.0, n))


def assert_rows_match(revealed, plain_rows, t):
    """Level k >= t of ``revealed`` is the band of the plain solves: row v
    equals ``plain_rows[v][k]`` at nodes v .. v + k - t."""
    for k in range(t, len(revealed)):
        got = np.asarray(revealed[k])
        assert got.shape[-2:] == (t + 1, k - t + 1)
        for v, plain in enumerate(plain_rows):
            assert np.array_equal(got[..., v, :], plain[k][..., v:v + k - t + 1])


def shifted(claim, amount):
    """Plain claim paying ``claim`` plus a constant, as a revealed row does."""
    return TerminalClaim(lambda w: claim.payoff(w) + amount, label="shifted")


def _assert_same_process(a, b):
    """Equal levels and controls, bit for bit."""
    assert len(a.values) == len(b.values) and len(a.controls) == len(b.controls)
    for u, v in zip(a.values + a.controls, b.values + b.controls):
        assert np.array_equal(u, v)


def test_band_rows_are_windows_of_the_plain_level():
    a = np.arange(7.0)
    got = band(a, 6, 4)
    assert got.shape == (5, 3)
    for v in range(5):
        assert np.array_equal(got[v], a[v:v + 3])
    # plain levels keep their layout
    assert band(a, 6, None) is a
    low = a[:4]
    assert band(low, 3, 4) is low


def test_terminal_band_holds_the_reachable_terminal_nodes():
    t = tree(N)
    term = RevealedClaim(T, AMOUNTS, CALL).terminal_matrix(t)
    base = CALL.on_tree(t)
    assert term.shape == (T + 1, N - T + 1)
    for v, m in enumerate(AMOUNTS):
        assert np.array_equal(term[v], base[v:v + N - T + 1] + m)


@pytest.mark.parametrize("level", [0, T, N])
@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_solve_tree_rows_equal_plain_solves(driver, level):
    t = tree(N)
    amounts = np.linspace(-1.0, 1.0, level + 1)
    sol = solve_tree(driver, RevealedClaim(level, amounts, CALL), t)
    plain = [solve_tree(driver, shifted(CALL, m), t) for m in amounts]
    assert_rows_match(sol.values, [p.values for p in plain], level)
    assert_rows_match(sol.controls, [p.controls for p in plain], level)
    assert np.array_equal(sol.values_at_reveal(),
                          [p.values[level][v] for v, p in enumerate(plain)])


@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_solve_alloc_tree_rows_with_a_plain_portfolio_control(driver):
    t = tree(N)
    alloc = alloc_driver_subdiff(driver)
    z_y = solve_tree(driver, -W, t).controls
    sol = solve_alloc_tree(alloc, RevealedClaim(T, AMOUNTS, CALL), z_y, t)
    plain = [solve_alloc_tree(alloc, shifted(CALL, m), z_y, t) for m in AMOUNTS]
    assert_rows_match(sol.values, [p.values for p in plain], T)


@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_solve_alloc_tree_rows_with_a_revealed_portfolio_control(driver):
    t = tree(N)
    alloc = alloc_driver_subdiff(driver)
    y_amounts = AMOUNTS[::-1] * 0.5
    z_y = solve_tree(driver, RevealedClaim(T, y_amounts, W), t).controls
    sol = solve_alloc_tree(alloc, RevealedClaim(T, AMOUNTS, CALL), z_y, t)
    plain = []
    for m, my in zip(AMOUNTS, y_amounts):
        z_plain = solve_tree(driver, shifted(W, my), t).controls
        plain.append(solve_alloc_tree(alloc, shifted(CALL, m), z_plain, t))
    assert_rows_match(sol.values, [p.values for p in plain], T)


@pytest.mark.parametrize("level", [0, N // 2, N])
@pytest.mark.parametrize("revealed", [False, True], ids=["plain-zy", "revealed-zy"])
@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_stacked_allocation_rows_equal_single_solves(driver, revealed, level):
    """Row i of every level of a stacked allocation pass is the solve of
    sub-position i alone, bit for bit."""
    t = tree(N)
    alloc = alloc_driver_subdiff(driver)
    amounts = np.linspace(-1.0, 1.0, level + 1)
    port = RevealedClaim(level, -0.5 * amounts, W) if revealed else W
    z_y = rho(driver, port, t).controls
    subs = [RevealedClaim(level, amounts, CALL),
            RevealedClaim(level, 0.5 * amounts[::-1], W),
            RevealedClaim(level, -2.0 * amounts)]
    levels = solve_stack(alloc, subs, t, z_y=[z_y] * len(subs),
                         reduce=lambda k, values, _: values.copy())
    kept = solve_stack(alloc, subs, t, z_y=[z_y] * len(subs))
    for i, sub in enumerate(subs):
        alone = solve_alloc_tree(alloc, sub, z_y, t)
        assert alone.reveal == kept[i].reveal == level
        for k in range(N + 1):
            assert np.array_equal(levels[k][i], alone.values[k])
        _assert_same_process(kept[i], alone)


@pytest.fixture
def pass_layouts(monkeypatch):
    """The layout of each lattice pass run: "plain" when its terminal is
    one level array per row, "band" when it is a band per row."""
    seen, run = [], engine.tree_backward

    def recording(tree, terminal, *args, **kwargs):
        seen.append("band" if np.ndim(terminal) == 3 else "plain")
        return run(tree, terminal, *args, **kwargs)

    monkeypatch.setattr(engine, "tree_backward", recording)
    return seen


def _pass_rows(driver, terminals, z_y, rows, t):
    """Rows ``rows`` of a kept and of a reduced pass of the stack: per row,
    its levels then its controls."""
    kept = solve_stack(driver, terminals, t, z_y=z_y)
    reduced = solve_stack(driver, terminals, t, z_y=z_y,
                          reduce=lambda k, values, controls: (
                              values.copy(),
                              None if controls is None else controls.copy()))
    out = []
    for i in rows:
        out.append(kept[i].values + kept[i].controls)
        out.append([v[i] for v, _ in reduced] + [c[i] for _, c in reduced[:-1]])
    return out


@pytest.mark.parametrize("shape", ["risk", "cash_add", "cash_add_1",
                                   "revealed-zy"])
@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_a_copy_invariant_stack_runs_plain_and_matches_the_band_pass(
        driver, shape, pass_layouts):
    """A row shifted by a constant amount, solved alone, runs as one plain
    pass; stacked with a row whose amount varies, the pass runs on bands.
    Both give the same levels and controls, bit for bit, kept or reduced.
    Shapes follow the suite's passes: a risk pass, a sub-position reading
    a portfolio row of the pass (cash_add), one reading a plain stored
    control (cash_add_1), and one reading a stored revealed control, which
    keeps the band pass even alone."""
    t = tree(N)
    const = np.full(T + 1, 0.3)
    rows = [RevealedClaim(T, const, CALL), RevealedClaim(T, AMOUNTS, CALL)]
    alloc = alloc_driver_subdiff(driver)
    if shape == "risk":
        alone = (driver, rows[:1], None, [0])
        stacked = (driver, rows, None, [0])
    elif shape == "cash_add":
        port = RevealedClaim(T, const, W)
        alone = (alloc, [rows[0], port], [1, None], [0, 1])
        stacked = (alloc, [*rows, port], [2, 2, None], [0, 2])
    else:
        y = RevealedClaim(T, 0.5 * AMOUNTS, W) if shape == "revealed-zy" else W
        z_y = rho(driver, y, t).controls
        alone = (alloc, rows[:1], [z_y], [0])
        stacked = (alloc, rows, [z_y] * 2, [0])
    del pass_layouts[:]
    got = _pass_rows(*alone, t)
    want = _pass_rows(*stacked, t)
    assert pass_layouts == [
        "band" if shape == "revealed-zy" else "plain"] * 2 + ["band"] * 2
    for a, b in zip(got, want, strict=True):
        assert len(a) == len(b) == 2 * N + 1
        for u, v in zip(a, b):
            assert np.array_equal(np.asarray(u).view(np.int64),
                                  np.asarray(v).view(np.int64))


@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_an_amount_that_differs_at_one_copy_keeps_the_band_pass(
        driver, pass_layouts):
    """Copies that disagree on one shared node, or by the sign of a zero
    alone, are no plain pass; the band pass stays exact."""
    t = tree(N)
    amounts = np.full(T + 1, 0.3)
    amounts[2] = 0.5
    del pass_layouts[:]
    sol = solve_tree(driver, RevealedClaim(T, amounts, CALL), t)
    assert pass_layouts == ["band"]
    plain = [solve_tree(driver, shifted(CALL, m), t) for m in amounts]
    assert_rows_match(sol.values, [p.values for p in plain], T)
    assert_rows_match(sol.controls, [p.controls for p in plain], T)
    signed = np.zeros((1, 2, 2))
    assert _copy_invariant(signed, [])
    signed[0, 1, 0] = -0.0
    assert not _copy_invariant(signed, [])


@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_a_non_finite_row_fails_its_stack_at_its_own_level(driver):
    """Amounts near the float limit stay finite on the bands, where each
    row shifts by one amount, and overflow the control where the rows
    meet, one level below the reveal level.  A stack holding that row
    fails where the row alone fails, whatever its reduction keeps."""
    t = tree(N)
    alloc = alloc_driver_subdiff(driver)
    z_y = rho(driver, W, t).controls
    huge = np.where(np.arange(T + 1) % 2, -6e307, 6e307)
    subs = [RevealedClaim(T, AMOUNTS, CALL), RevealedClaim(T, huge, CALL)]
    with pytest.raises(NumericalFailureError) as alone:
        solve_alloc_tree(alloc, subs[1], z_y, t)
    assert alone.value.diagnostics["level"] == T - 1
    for reduce in (None, lambda k, values, _: values,
                   lambda k, values, _: None):
        with pytest.raises(NumericalFailureError) as stacked:
            solve_stack(alloc, subs, t, z_y=[z_y] * 2, reduce=reduce)
        assert stacked.value.diagnostics == alone.value.diagnostics
        assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_tilted_expectation_rows_equal_plain_expectations(driver):
    t = tree(N)
    kernel = kernel_from_subgradient(driver, rho(driver, W, t))
    got = expectation_under_Q(RevealedClaim(T, AMOUNTS, CALL), kernel)
    plain = [expectation_under_Q(shifted(CALL, m), kernel) for m in AMOUNTS]
    assert_rows_match(got, plain, T)


@pytest.mark.parametrize("name", ["as", "pas"])
@pytest.mark.parametrize("driver", DRIVERS, ids=IDS)
def test_scenario_average_rows_equal_plain_averages(name, driver):
    t = tree(N)
    rule = make_rule(name, driver, quadrature=QuadratureSpec(4))
    cache = SolveCache(t)
    got = rule.allocate(RevealedClaim(T, AMOUNTS, CALL), W, t, cache=cache)
    plain = [rule.allocate(shifted(CALL, m), W, t, cache=cache).values
             for m in AMOUNTS]
    assert_rows_match(got.values, plain, T)


def test_raw_revealed_terminal_arrays_are_rejected():
    t = tree(N)
    matrix = np.zeros((T + 1, N + 1))
    with pytest.raises(InvalidArgumentError, match="RevealedClaim"):
        solve_tree(driver_entropic(1.0), matrix, t)
    kernel = kernel_from_subgradient(DRIVERS[0], rho(DRIVERS[0], W, t))
    with pytest.raises(InvalidArgumentError, match="RevealedClaim"):
        expectation_under_Q(matrix, kernel)


def test_band_witness_reports_the_lattice_node():
    worst, peaks = _Worst(), _Peaks(1)
    level = np.zeros((3, 4))
    level[1, 2] = 1.0
    for k, d in ((8, level), (7, np.zeros((3, 3)))):  # as a pass hands them
        peaks.add(k, d[None], [0])
    worst.fold(peaks.peak(0), {}, tree(8))
    assert worst.checks == 21
    assert worst.witness == {"level": 8, "reveal_node": 1, "node": 3,
                             "time": 1.0}


def test_failing_revealed_axiom_witness_on_the_golden_config(tmp_path):
    _, out = run_scenario(GOLDEN / "entropic.cfg", tmp_path / "out")
    line = next(line for line in (out / "axioms.txt").read_text().splitlines()
                if line.startswith("axiom=riskless")
                and line.endswith("rule=subdiff"))
    assert "status=fail" in line
    assert "witness=level=15;node=0;portfolio=Y;reveal_node=0;" in line
