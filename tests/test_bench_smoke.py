"""The benchmark's traced set-up still binds to the package.

``bench/tracing.py`` wraps riskalloc callables by name, so renaming one
breaks only traced benchmark runs.  Each workload's traced set-up runs in
its own process, which keeps the tracer's rebinding out of this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["lattice-axioms", "ensemble-axioms",
                                      "cli-scenario"])
def test_traced_setup_runs(workload, tmp_path):
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workloads.py"),
         "--workload", workload, "--seed", "1", "--mode", "setup",
         "--trace", "1", "--workdir", str(tmp_path),
         "--result", str(result)],
        env=env, capture_output=True, text=True, timeout=120)
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["ok"] is True, record.get("error") or proc.stderr


PRELUDE = """
import json, sys, time
import riskalloc.cli  # noqa: F401  (binds every submodule on the package)
import tracing

ra = sys.modules["riskalloc"]
"""

TRACE_TWICE = """
plain = run()
tracer = tracing.install(tracing.Tracer())
tracer.active = True
start = time.perf_counter()
traced = run()
wall = time.perf_counter() - start
tracer.active = False
metrics = tracing.layer_metrics(tracer, wall, 0.0)
print(json.dumps({"same": plain == traced, "metrics": metrics}))
"""

# the ensemble-axioms workload's suite and routes, plus one direct tilted
# expectation per portfolio under its dual route's kernel: the dual route
# regresses its expected loss and its penalty in one sweep of its own, so
# this call is what shows that the ``expectation_under_Q`` wrapper still
# fits the callable
ENSEMBLE_PASS = """
def run():
    paths = ra.grid.sample_paths(ra.grid.build_grid(1.0, 10), 1, 2000, 13)
    driver = ra.drivers.driver_entropic(1.0)
    corpus = ra.harness.default_corpus()
    reports = ra.harness.serialize_reports(ra.harness.run_axiom_suite(
        ["no_undercut", "mono", "car_identity", "sub_alloc", "weak_convex"],
        "subdiff", driver, corpus, paths))
    # the attributes bench/workloads.py reads of these results
    routes = []
    for y in (corpus.claims[i] for i in corpus.portfolios):
        bsde = ra.allocation.car_subdifferential(driver, y, y, paths,
                                                 route="bsde")
        dual = ra.allocation.car_subdifferential(driver, y, y, paths,
                                                 route="dual")
        expect = ra.measure.expectation_under_Q(y, dual.metadata["kernel"])
        routes.append((bsde.initial, dual.initial, bsde.base_solution.initial,
                       ra.measure.rho(driver, y, paths).values[0].tolist(),
                       expect[0].tolist()))
    return reports, routes
"""

# the lattice-axioms workload's axioms, rule and driver on a small tree,
# plus one direct allocation solve: the suite allocates through stacked
# solves, which the tracer does not wrap, so this call is what shows that
# the ``solve_alloc_tree`` wrapper and its hook still fit the callable
LATTICE_PASS = """
def run():
    tree = ra.grid.build_tree(ra.grid.build_grid(1.0, 20))
    driver = ra.drivers.driver_scaled_norm(0.5)
    corpus = ra.harness.default_corpus(2024)
    reports = ra.harness.serialize_reports(ra.harness.run_axiom_suite(
        ["no_undercut", "mono", "riskless", "cash_add_1", "cash_add",
         "sub_alloc", "weak_convex", "tc1", "tc2", "full_alloc"], "subdiff",
        driver, corpus, tree, tolerances={"full_alloc": 1e-10}))
    y = corpus.claims[corpus.portfolios[0]]
    alloc = ra.engine.solve_alloc_tree(
        ra.drivers.alloc_driver_subdiff(driver), y,
        ra.measure.rho(driver, y, tree).controls, tree)
    return reports, alloc.values[0].tolist()
"""


def traced_metrics(run_source):
    """Per-layer metrics of a traced ``run()``, after checking that it
    gives the untraced results."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + run_source + TRACE_TWICE], env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["same"] is True
    return out["metrics"]


def test_traced_ensemble_pass_runs_and_changes_nothing():
    """The tracer's wrappers and hooks still fit the callables they wrap:
    a traced ensemble suite and both subdifferential routes run, give the
    untraced results and yield the per-layer metrics."""
    metrics = traced_metrics(ENSEMBLE_PASS)
    assert metrics["engine.solve_lsmc.calls"] > 0
    assert metrics["allocation.allocate.calls"] > 0
    assert metrics["measure.expectation_under_Q.calls"] == 3
    assert metrics["harness.axiom.no_undercut.s"] > 0
    assert 0.0 < metrics["measure.density.min_ess_share"] <= 1.0


def test_traced_lattice_pass_runs_and_changes_nothing():
    """The same for a traced lattice suite with revealed-claim solves."""
    metrics = traced_metrics(LATTICE_PASS)
    assert metrics["engine.solve_alloc_tree.calls"] > 0
    # A known gap, not a property: the revealed-cell hook runs on the
    # wrapped ``solve_tree`` only, and the suite's revealed portfolios are
    # now rows of stacked allocation passes, so the tracer sees none of
    # their cells (the FOUND line on ``engine.revealed.cells`` in CHANGES.md;
    # the in-package trace of ROADMAP item 1b would count them in the core)
    assert metrics["engine.revealed.cells"] == 0
    assert metrics["harness.axiom.tc2.s"] > 0
    # 1 plain risk stack (12 risks and the base solves of 7 portfolios)
    # and 1 reduced allocation stack (every table row of the suite, planned
    # once and folded inside the pass), 1 kept stack of the 12 plain
    # allocations the shift and tc axioms compare against, then 53 stacked
    # revealed allocation passes (9 riskless, 9 cash_add_1, 27 cash_add,
    # 4 tc1, 4 tc2): one per portfolio and reveal level, the 31 revealed
    # portfolios of cash_add (27) and tc2 (4) solved as rows of their own
    # passes; then run()'s rho and solve_alloc_tree
    assert metrics["engine.tree_backward.calls"] == 58
