import gc
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from riskalloc import (BasisSpec, CarRule, InvalidArgumentError,
                       RejectedConfigurationError, RevealedClaim,
                       SolveCache, TerminalClaim, build_grid, build_tree,
                       car_from_alloc_driver, driver_entropic,
                       driver_scaled_norm, driver_zero, make_rule, rho,
                       sample_paths)
from riskalloc import allocation, engine, harness, measure
from riskalloc.drivers import (AllocDriver, alloc_driver_gradient,
                               alloc_driver_marginal, alloc_driver_subdiff)
from riskalloc.harness import (AXIOM_IDS, LATTICE_ONLY, _fold_levels, _one,
                               _Planner, _Point, _rows,
                               check_alloc_driver_condition,
                               check_axiom, check_condition_implies_axiom,
                               check_derived_risk_measure,
                               check_optimal_scenarios_bruteforce,
                               default_corpus, planned_suite,
                               run_axiom_suite, serialize_reports)

CORPUS = default_corpus()
NORM = driver_scaled_norm(0.5)
ENT = driver_entropic(1.0)


def tree(n, horizon=1.0):
    return build_tree(build_grid(horizon, n))


def test_corpus_is_seed_deterministic():
    a, b = default_corpus(7), default_corpus(7)
    t = tree(16)
    for ca, cb in zip(a.claims, b.claims):
        assert np.array_equal(ca.on_tree(t), cb.on_tree(t))
        assert ca.label == cb.label


def test_corpus_decompositions_sum_exactly():
    t = tree(24)
    for parts, total in CORPUS.decompositions:
        stacked = sum(p.on_tree(t) for p in parts)
        assert np.array_equal(stacked, total.on_tree(t))
    for alphas, parts, total in CORPUS.convex_combos:
        assert sum(alphas) == 1.0
        stacked = sum(a * p.on_tree(t) for a, p in zip(alphas, parts))
        assert np.array_equal(stacked, total.on_tree(t))


def test_coherent_subdiff_passes_core_axioms():
    t = tree(60)
    reports = run_axiom_suite(
        ["mono", "no_undercut", "riskless", "cash_add_1", "cash_add",
         "sub_alloc", "weak_convex", "tc1", "tc2", "car_identity",
         "zero_position"],
        "subdiff", NORM, CORPUS, t)
    for rep in reports:
        assert rep.passed, rep.to_record()


def test_full_allocation_exact_for_coherent():
    rep = check_axiom("full_alloc", "subdiff", NORM, CORPUS, tree(60),
                      tolerance=1e-10)
    assert rep.passed


def test_gradient_entropic_fails_no_undercut_with_diagonal_witness():
    rep = check_axiom("no_undercut", "grad", ENT, CORPUS, tree(60))
    assert rep.status == "fail"
    assert rep.witness is not None
    assert rep.witness["sub"] == rep.witness["portfolio"]
    assert rep.worst_violation > 0.1


def test_entropic_subdiff_known_profile():
    t = tree(60)
    ok = run_axiom_suite(["mono", "no_undercut", "cash_add_1", "sub_alloc",
                          "weak_convex", "tc2", "car_identity"],
                         "subdiff", ENT, CORPUS, t)
    for rep in ok:
        assert rep.passed, rep.to_record()
    # the strictly positive penalty breaks riskless-ness and plain-portfolio
    # recursivity under honest evaluation
    riskless = check_axiom("riskless", "subdiff", ENT, CORPUS, t)
    assert riskless.status == "fail"
    tc1 = check_axiom("tc1", "subdiff", ENT, CORPUS, t)
    assert tc1.status == "fail"


def test_full_allocation_fails_for_strictly_convex():
    rep = check_axiom("full_alloc", "subdiff", ENT, CORPUS, tree(40))
    assert rep.status == "fail"  # blocked by the shared penalty term


def test_penalized_as_identity_failure_and_le_form():
    t = tree(50)
    eq = check_axiom("car_identity", "pas", ENT, CORPUS, t)
    assert eq.status == "fail"
    le = check_axiom("car_identity_le", "pas", ENT, CORPUS, t)
    assert le.passed


def test_unknown_axiom_rejected():
    with pytest.raises(Exception):
        check_axiom("sharpe", "subdiff", NORM, CORPUS, tree(10))


def test_reports_serialize_deterministically():
    t = tree(40)
    a = run_axiom_suite(["no_undercut", "riskless"], "subdiff", NORM, CORPUS, t)
    b = run_axiom_suite(["no_undercut", "riskless"], "subdiff", NORM, CORPUS, t)
    assert serialize_reports(a) == serialize_reports(b)
    assert "axiom=no_undercut" in serialize_reports(a)


def test_condition_dominated_by_base():
    sub = check_alloc_driver_condition("dominated_by_base",
                                       alloc_driver_subdiff(ENT))
    assert sub.holds
    grad = check_alloc_driver_condition("dominated_by_base",
                                        alloc_driver_gradient(ENT))
    assert not grad.holds  # conjugate is positive away from the origin
    grad_coh = check_alloc_driver_condition("iii", alloc_driver_gradient(NORM))
    assert grad_coh.holds


def test_condition_zero_position():
    grad = check_alloc_driver_condition("ii", alloc_driver_gradient(ENT))
    assert grad.holds  # linear in z, so zero at z = 0
    sub = check_alloc_driver_condition("zero_position", alloc_driver_subdiff(ENT))
    assert not sub.holds  # supporting plane at z_y is negative at 0


def test_condition_superadditive_and_convex():
    # the supporting-plane driver loses (n-1) conjugate terms when summed,
    # so it is superadditive; the increment driver is concave in z (value
    # zero at zero), hence subadditive, and fails the condition
    sub_v = check_alloc_driver_condition("superadditive",
                                         alloc_driver_subdiff(ENT))
    assert sub_v.holds
    grad_v = check_alloc_driver_condition("v", alloc_driver_gradient(ENT))
    assert grad_v.holds  # additive in z
    marg_v = check_alloc_driver_condition("superadditive",
                                          alloc_driver_marginal(NORM))
    assert not marg_v.holds
    sub = check_alloc_driver_condition("convex", alloc_driver_subdiff(ENT))
    assert sub.holds  # linear in z
    marg_ent = check_alloc_driver_condition("convex", alloc_driver_marginal(ENT))
    assert not marg_ent.holds  # concave increment of a strictly convex base


def test_condition_unconditional_items():
    rep = check_alloc_driver_condition("i", alloc_driver_subdiff(ENT))
    assert rep.holds and rep.samples == 0


def test_condition_implies_axiom_cross_reference():
    t = tree(40)
    for item, alloc in (("iii", alloc_driver_subdiff(NORM)),
                        ("iii", alloc_driver_gradient(ENT)),
                        ("v", alloc_driver_subdiff(ENT)),
                        ("vi", alloc_driver_subdiff(ENT)),
                        ("ii", alloc_driver_gradient(ENT))):
        out = check_condition_implies_axiom(item, alloc, CORPUS, t)
        assert out["implication_ok"], (item, alloc.name,
                                       out["condition"], out["axiom"].to_record())


def test_derived_risk_measure_coherent():
    report = check_derived_risk_measure("subdiff", NORM, CORPUS, tree(60))
    assert report.status == "pass"
    assert report.details["matches_direct"].passed
    assert report.details["time_consistency"].axiom == "derived_tc_equality"


def test_derived_risk_witnesses_name_the_compared_level():
    t = tree(16)
    report = check_derived_risk_measure("subdiff", ENT, CORPUS, t,
                                        tolerance=0.0)
    witness = report.details["cash_additive"].witness
    assert witness["level"] == witness["shift_level"] == 4
    assert witness["time"] == 0.25
    # a negative tolerance fails every cell: the witness is a compared cell
    report = check_derived_risk_measure("subdiff", ENT, CORPUS, t,
                                        tolerance=-1.0)
    witness = report.details["time_consistency"].witness
    assert set(witness) == {"claim", "from", "to", "level", "node", "time"}
    assert witness["level"] < witness["to"]
    assert witness["time"] == t.grid.time(witness["level"])


def test_derived_risk_steps_make_only_reduced_revealed_allocations(
        monkeypatch):
    # the cash-additivity and time-consistency steps are stacked passes
    # that keep no band level, as the revealed axioms are
    stack = CarRule.allocate_stack
    calls = []

    def tracked(self, subs, portfolio, disc, basis=None, cache=None,
                reduce=None):
        revealed = any(isinstance(c, RevealedClaim) for c in [*subs, portfolio])
        calls.append((revealed, reduce is not None))
        return stack(self, subs, portfolio, disc, basis, cache, reduce)

    monkeypatch.setattr(CarRule, "allocate_stack", tracked)
    report = check_derived_risk_measure("subdiff", NORM, CORPUS, tree(16))
    assert report.status == "pass"
    assert (True, True) in calls and (True, False) not in calls


def test_lattice_fold_witness_is_the_first_maximum_on_ties():
    """Rows laid end to end fold to the witness of a level-by-level fold:
    the earliest (row, level, cell) of the largest difference, here 2.0 at
    levels 1, 2 and 3 of row ``a`` and level 0 of the later row ``b``."""
    t = tree(3)
    gaps = {"c": [[1.0], [0.0, -1.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
            "a": [[0.5], [0.0, 2.0], [2.0, 1.0, 2.0], [2.0, 0.0, 0.0, 2.0]],
            "b": [[2.0], [0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]]}
    claims = {name: TerminalClaim(lambda w: w, label=name)
              for name in [*gaps, "zero"]}
    plan = _Planner(make_rule("marginal", NORM), NORM, SolveCache(t))
    levels = [*gaps.values(), [[0.0] * (k + 1) for k in range(4)]]
    plan.keep(list(claims.values()), None,
              [SimpleNamespace(values=[np.array(v) for v in process])
               for process in levels])
    worst = _fold_levels([(_one(claims[name]), _one(claims["zero"]), "le",
                           {"row": name}) for name in gaps], plan, t)

    value, witness, checks = -np.inf, None, 0
    for name, process in gaps.items():
        for k, level in enumerate(process):
            for node, gap in enumerate(level):
                checks += 1
                if gap > value:
                    value, witness = gap, {"row": name, "level": k,
                                           "node": node, "time": t.grid.time(k)}
    assert witness == {"row": "a", "level": 1, "node": 1, "time": t.grid.time(1)}
    assert (worst.value, worst.witness, worst.checks) == (value, witness, checks)


def _folded_whole(rows, rule, driver, t):
    """The lattice fold of ``rows`` over whole processes, each solved
    apart: a row's differences at every level laid end to end, the first
    maximum its peak, rows folded in order keeping the first strict
    maximum.  Also counts the rows whose peak two levels or more attain."""
    procs = {}
    for lhs, rhs, _, _ in rows:
        for _, (s, p) in lhs + rhs:
            if (id(s), id(p)) not in procs:
                procs[id(s), id(p)] = rho(driver, s, t) if p is None else \
                    rule.allocate(s, p, t)
    value, witness, checks, tied = -np.inf, None, 0, 0
    for lhs, rhs, relation, info in rows:
        left, right = (
            terms[0] if len(terms) == 1 else sum(terms, 0.0) for terms in (
                [w * np.concatenate(procs[id(s), id(p)].values)
                 for w, (s, p) in side] for side in (lhs, rhs)))
        gap = {"le": lambda: left - right, "ge": lambda: right - left,
               "eq": lambda: np.abs(left - right)}[relation]()
        starts = np.cumsum([0] + [k + 1 for k in range(t.grid.steps + 1)])
        at = int(np.argmax(gap))
        k = int(np.searchsorted(starts, at, side="right")) - 1
        tied += sum(gap[a:b].max() == gap[at]
                    for a, b in zip(starts[:-1], starts[1:])) > 1
        checks += gap.size
        if gap[at] > value:
            value, witness = gap[at], dict(info, level=k, node=at - starts[k],
                                           time=t.grid.time(k))
    return value, witness, checks, tied


@pytest.mark.parametrize("name,driver", [("grad", ENT), ("subdiff", NORM),
                                         ("marginal", ENT)])
def test_in_pass_fold_equals_the_fold_over_whole_processes(name, driver):
    """Every table axiom folded inside its pass gives the worst value (bit
    for bit), witness and checks of the fold over whole processes: rows
    that fail (``grad`` over the entropic driver on ``no_undercut``),
    rows whose peak several levels attain, and rows whose terms a caller
    handed over with ``keep``, all or some of them."""
    t = tree(24)
    rule = make_rule(name, driver)
    y = CORPUS.claims[0]
    plan = _Planner(rule, driver, SolveCache(t))
    kept = [CORPUS.claims[3], CORPUS.claims[6]]  # no_undercut and mono lows
    plan.keep(kept, y, rule.allocate_stack(kept, y, t))
    table = {a: _rows(a, CORPUS) for a in AXIOM_IDS if a not in LATTICE_ONLY}
    plan.fold([row for rows in table.values() for row in rows])
    tied = 0
    for axiom, rows in table.items():
        worst = _fold_levels(rows, plan, t)
        value, witness, checks, ties = _folded_whole(rows, rule, driver, t)
        assert (worst.witness, worst.checks) == (witness, checks), axiom
        assert np.float64(worst.value).tobytes() == value.tobytes(), axiom
        tied += ties
        if (name, axiom) == ("grad", "no_undercut"):
            assert worst.value > 1e-3
    assert tied > 0


def test_no_lattice_process_outlives_the_table_fold():
    """A lattice suite folds each table row inside the pass of its
    allocations: once the suite has run, with its planner and cache still
    alive, no allocation process is, whether the rule folds one stacked
    pass (``subdiff``) or one pass per portfolio (``marginal``).  At
    N = 200 the table axioms peak below twice the whole risk solves the
    cache holds; a plan that kept the allocations peaked at 4.5 and 7.4
    times them."""
    t = tree(200)
    rho(NORM, CORPUS.claims[0], t)  # the lattice's states
    table = ["no_undercut", "mono", "sub_alloc", "weak_convex", "full_alloc"]
    for name in ("subdiff", "marginal"):
        plan = _Planner(make_rule(name, NORM), NORM, SolveCache(t))
        tracemalloc.start()
        try:
            reports = planned_suite(table, plan, CORPUS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.checks for r in reports)
        gc.collect()
        alive = [o for o in gc.get_objects()
                 if isinstance(o, engine.BsdeSolution)
                 and o.discretization is t
                 and (isinstance(o.driver, AllocDriver)
                      or o.method in ("dual", "marginal", "average"))]
        assert alive == [], name
        risks = sum(a.nbytes for _, _, e in plan.cache._risk.values()
                    for a in e.values + e.controls)
        assert peak < 2 * risks, (name, peak, risks)


def test_shift_axiom_passes_stop_at_their_reveal_level(monkeypatch):
    """A shift axiom's revealed pass computes no level below its reveal
    level t, which its fold never reads; a ``tc2`` pass, which compares
    the levels up to t, still reaches level 0."""
    core, passes = engine._tree_core, []

    def recording(driver, terminals, tree_, basis, z_y, keep):
        seen = []
        passes.append((next((c.level for c in terminals
                             if isinstance(c, RevealedClaim)), None), seen))
        return core(driver, terminals, tree_, basis, z_y, lambda k, *level: (
            seen.append(k), keep(k, *level))[1])

    monkeypatch.setattr(engine, "_tree_core", recording)
    for axiom in ("riskless", "cash_add_1", "cash_add", "tc2"):
        passes.clear()
        assert check_axiom(axiom, "subdiff", NORM, CORPUS, tree(16)).checks
        lowest = [(t, min(seen)) for t, seen in passes if t is not None]
        assert lowest, axiom
        assert all(low == (0 if axiom == "tc2" else t) for t, low in lowest), \
            (axiom, lowest)


def test_derived_risk_measure_inapplicable_for_gradient_entropic():
    report = check_derived_risk_measure("grad", ENT, CORPUS, tree(40))
    assert report.status == "not-applicable"


@pytest.mark.parametrize("name", ["as", "pas"])
def test_derived_risk_measure_of_scenario_rules_is_not_applicable(name):
    # their hypothesis axioms pass over a coherent driver, but the
    # cash-additivity step allocates inside a revealed portfolio
    report = check_derived_risk_measure(name, NORM, CORPUS, tree(16))
    assert report.status == "not-applicable"
    assert report.details["reason"].startswith("cash_additive step:")
    assert "plain portfolio" in report.details["reason"]


def test_bruteforce_coherent_linear_claim():
    claim = TerminalClaim(lambda w: np.asarray(w, float), label="W")
    rep = check_optimal_scenarios_bruteforce(NORM, claim, tree(3),
                                             [-0.5, 0.0, 0.5])
    assert rep.max_gap <= 1e-12
    assert rep.selection_ok
    assert rep.maximizer_count == 1


def test_bruteforce_zero_driver_unique_trivial_maximizer():
    claim = TerminalClaim(lambda w: np.asarray(w, float), label="W")
    rep = check_optimal_scenarios_bruteforce(driver_zero(), claim, tree(3),
                                             [-0.5, 0.0, 0.5])
    assert rep.max_gap <= 1e-12
    assert rep.maximizer_count == 1  # only the zero kernel is admissible


def test_bruteforce_constant_claim_all_kernels_optimal():
    claim = TerminalClaim(lambda w: np.full(len(w), 0.7), label="c")
    rep = check_optimal_scenarios_bruteforce(NORM, claim, tree(3),
                                             [-0.5, 0.0, 0.5])
    assert rep.max_gap <= 1e-12
    assert rep.maximizer_count == 3 ** 6
    assert rep.selection_ok  # vacuous: the control vanishes everywhere


def test_bruteforce_budget_rejection():
    claim = TerminalClaim(lambda w: np.asarray(w, float), label="W")
    with pytest.raises(RejectedConfigurationError) as err:
        check_optimal_scenarios_bruteforce(NORM, claim, tree(6),
                                           [-0.5, 0.0, 0.5], budget=100)
    assert err.value.detail["required_count"] == 3 ** 21


def test_ensemble_axioms_statistical():
    paths = sample_paths(build_grid(1.0, 25), 1, 20_000, seed=13)
    reports = run_axiom_suite(["no_undercut", "car_identity", "sub_alloc",
                               "weak_convex"], "subdiff", ENT, CORPUS, paths)
    for rep in reports:
        assert rep.passed, rep.to_record()
    rep = check_axiom("tc1", "subdiff", ENT, CORPUS, paths)
    assert rep.status == "not-applicable"


def test_axiom_ids_catalog_complete():
    assert "tc1" in AXIOM_IDS and "tc2" in AXIOM_IDS
    assert "car_identity" in AXIOM_IDS


def risk_of(plan, claim):
    return plan.get([(claim, None)])[0]


def alloc_of(plan, sub, portfolio):
    return plan.get([(sub, portfolio)])[0]


def test_context_keys_claims_by_identity_not_label():
    t = tree(50)
    plan = _Planner(make_rule("subdiff", NORM), NORM, SolveCache(t))
    w = TerminalClaim(lambda x: np.asarray(x, float))
    w2 = TerminalClaim(lambda x: 2.0 * np.asarray(x, float))
    assert w.label == w2.label
    assert risk_of(plan, w).initial == pytest.approx(0.5, abs=2e-2)
    assert risk_of(plan, w2).initial == rho(NORM, w2, t).initial
    assert risk_of(plan, w2).initial == pytest.approx(1.0, abs=4e-2)
    assert alloc_of(plan, w2, w2).initial == pytest.approx(
        risk_of(plan, w2).initial, abs=1e-9)
    assert alloc_of(plan, w, w).initial == pytest.approx(
        risk_of(plan, w).initial, abs=1e-9)


def test_context_base_cache_holds_the_distinct_plain_portfolios():
    t = tree(20)
    plan = _Planner(make_rule("subdiff", NORM), NORM, SolveCache(t))
    x, y1, y2 = (CORPUS.claims[i] for i in (3, 0, 4))
    revealed = RevealedClaim(5, np.linspace(-1.0, 1.0, 6), y1, "y1+m")
    once = [(RevealedClaim(5, np.zeros(6), None, "m"), y1),
            (RevealedClaim(5, np.zeros(6), x, "x+m"), revealed)]
    procs = plan.get([(x, y1), (y1, y1), (x, y2)]) + [
        plan.rule.allocate(sub, port, t, cache=plan.cache) for sub, port in once]
    # revealed portfolios are solved, not stored
    assert set(plan.cache._risk) == {(id(NORM), id(y1)), (id(NORM), id(y2))}
    assert procs[0].base_solution is risk_of(plan, y1)
    assert procs[1].base_solution is risk_of(plan, y1)
    assert procs[2].base_solution is risk_of(plan, y2)
    assert procs[3].base_solution is risk_of(plan, y1)
    assert procs[4].base_solution.reveal == 5
    # a shared base changes no float
    direct = make_rule("subdiff", NORM).allocate(x, y1, t)
    for a, b in zip(procs[0].values, direct.values):
        assert np.array_equal(a, b)


def test_custom_alloc_driver_with_its_own_base_solves_it():
    t = tree(30)
    alloc = alloc_driver_subdiff(driver_scaled_norm(0.25))
    rule = CarRule(f"custom:{alloc.name}", NORM, alloc_driver=alloc)
    plan = _Planner(rule, NORM, SolveCache(t))
    x, y = CORPUS.claims[3], CORPUS.claims[0]
    proc = alloc_of(plan, x, y)
    # only the rule's own base was solved, as a row of the allocation pass,
    # which the cache does not keep
    assert set(plan.cache._risk) == set()
    assert proc.base_solution is not risk_of(plan, y)
    assert proc.base_solution.driver is alloc.base
    own = rho(alloc.base, y, t)
    for a, b in zip(proc.base_solution.values + proc.base_solution.controls,
                    own.values + own.controls):
        assert np.array_equal(a, b)
    direct = car_from_alloc_driver(alloc, x, y, t)
    for a, b in zip(proc.values, direct.values):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("rule,driver,takes_base", [
    ("as", ENT, False), ("pas", ENT, False), ("as", NORM, True),
    ("grad", ENT, True), ("marginal", ENT, True)])
def test_context_solves_a_base_only_for_rules_that_take_it(rule, driver,
                                                          takes_base):
    t = tree(12)
    rule = make_rule(rule, driver)
    plan = _Planner(rule, driver, SolveCache(t))
    x, y = CORPUS.claims[3], CORPUS.claims[0]
    proc = alloc_of(plan, x, y)
    assert set(plan.cache._risk) == ({(id(driver), id(y))} if takes_base
                                     else set())
    direct = rule.allocate(x, y, t)
    for a, b in zip(proc.values, direct.values):
        assert np.array_equal(a, b)


def test_rules_reject_a_cache_from_elsewhere():
    t, other = tree(10), tree(10)
    x, y = CORPUS.claims[3], CORPUS.claims[0]
    for name in ("grad", "subdiff", "marginal", "as", "pas"):
        rule = make_rule(name, NORM)
        with pytest.raises(InvalidArgumentError, match="another discretization"):
            rule.allocate(x, y, t, cache=SolveCache(other))
    with pytest.raises(InvalidArgumentError, match="another discretization"):
        run_axiom_suite(["no_undercut"], "subdiff", NORM, CORPUS, t,
                        cache=SolveCache(other))
    paths = sample_paths(build_grid(1.0, 4), 1, 200, seed=3)
    with pytest.raises(InvalidArgumentError, match="basis"):
        make_rule("subdiff", ENT).allocate(x, y, paths, BasisSpec(2),
                                           cache=SolveCache(paths))


@pytest.mark.parametrize("rule", ["as", "pas"])
def test_scenario_averaged_rules_report_revealed_portfolios_not_applicable(rule):
    t = tree(16)
    for axiom in ("cash_add", "tc2"):
        rep = check_axiom(axiom, rule, ENT, CORPUS, t)
        assert rep.status == "not-applicable", rep.to_record()
        assert "plain portfolio" in rep.note
    reports = run_axiom_suite(["tc2", "car_identity_le"], rule, ENT, CORPUS, t)
    assert [r.status for r in reports] == ["not-applicable", "pass"]


def test_ensemble_context_keeps_only_time_zero_points():
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=4)
    rule = make_rule("subdiff", ENT)
    plan = _Planner(rule, ENT, SolveCache(paths))
    y = CORPUS.claims[0]
    subs = CORPUS.claims[:4] + [CORPUS.claims[0]]
    points = plan.get([(sub, y) for sub in subs])
    assert points[0] is points[4]
    for sub, point in zip(subs, points):
        direct = rule.allocate(sub, y, paths)
        assert point.initial == direct.initial
        assert point.se == float(np.std(direct.values[1])) / np.sqrt(600)
    # the processes are dropped once their points are taken
    assert {type(entry[2]) for entry in plan._memo.values()} == {_Point}
    risk_y, = plan.get([(y, None)])
    assert risk_y.initial == rho(ENT, y, paths).initial


def test_no_ensemble_process_outlives_its_stack():
    """An ensemble suite reduces each allocation to its point as it is
    solved: once the suite has run, with its planner and cache still
    alive, no allocation process is, whether the rule reduces one stacked
    sweep (``subdiff``) or one sweep per portfolio (``marginal``)."""
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=4)
    for name in ("subdiff", "marginal"):
        plan = _Planner(make_rule(name, ENT), ENT, SolveCache(paths))
        reports = planned_suite(["no_undercut", "mono", "sub_alloc"], plan,
                                CORPUS)
        assert all(r.checks for r in reports)
        gc.collect()
        alive = [o for o in gc.get_objects()
                 if isinstance(o, engine.BsdeSolution)
                 and o.discretization is paths
                 and (isinstance(o.driver, AllocDriver)
                      or o.method in ("dual", "marginal", "average"))]
        assert alive == [], name
        assert {type(entry[2]) for entry in plan._memo.values()} == {_Point}


def test_ensemble_suite_plans_once_in_one_sweep(monkeypatch):
    """The suite's table axioms are planned in one request list and solved
    in one sweep: the risks and the portfolios are its portfolio rows, and
    every allocation row reads its portfolio's row."""
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=4)
    core, sweeps = engine._lsmc_core, []

    def counting(driver, terminals, *args, **kwargs):
        sweeps.append(len(terminals))
        return core(driver, terminals, *args, **kwargs)

    monkeypatch.setattr(engine, "_lsmc_core", counting)
    reports = run_axiom_suite(
        ["no_undercut", "car_identity", "sub_alloc", "weak_convex"],
        "subdiff", ENT, CORPUS, paths)
    assert all(r.checks for r in reports)
    # 12 claims and 7 more portfolios; 36 + 15 + 10 allocation rows
    assert sweeps == [19 + 61]


def test_body_rule_bases_join_the_risk_sweep(monkeypatch):
    """The marginal rule reads each portfolio's whole risk solve: those of
    the 7 portfolios that are no risk request of the suite join the risk
    sweep as whole rows (11 sweeps; 18 when each was a sweep of its own),
    and equal the solves alone bit for bit."""
    paths = sample_paths(build_grid(1.0, 6), 1, 600, seed=4)
    core, sweeps = engine._lsmc_core, []

    def counting(driver, terminals, *args, **kwargs):
        sweeps.append(len(terminals))
        return core(driver, terminals, *args, **kwargs)

    monkeypatch.setattr(engine, "_lsmc_core", counting)
    plan = _Planner(make_rule("marginal", ENT), ENT, SolveCache(paths))
    reports = planned_suite(
        ["no_undercut", "car_identity", "sub_alloc", "weak_convex"], plan,
        CORPUS)
    assert all(r.checks for r in reports)
    # one risk sweep, then one sweep per portfolio of the reduced
    # portfolios of its 61 pairs
    assert sweeps == [19, 12, 12, 12, 3, 3, 4, 5, 3, 3, 4]
    monkeypatch.undo()
    wholes = [(claim, entry) for _, claim, entry in plan.cache._risk.values()
              if isinstance(entry, engine.BsdeSolution)]
    assert len(wholes) == 10
    for claim, entry in wholes:
        alone = rho(ENT, claim, paths)
        for a, b in zip(entry.values + entry.controls,
                        alone.values + alone.controls):
            assert np.array_equal(a, b)


def test_ensemble_suite_keeps_points_and_no_base_controls():
    """After an ensemble suite, each risk entry is the point of the solve
    alone, bit for bit; a claim that was only a risk request keeps no
    level of its solve; a portfolio that was no risk request leaves no
    entry, so no control of a base solve is kept; and the suite's traced
    peak stays within what its one sweep needs."""
    steps, m = 20, 2000
    paths = sample_paths(build_grid(1.0, steps), 1, m, seed=13)
    rho(ENT, CORPUS.claims[0], paths)  # the ensemble's states and blocks
    plan = _Planner(make_rule("subdiff", ENT), ENT, SolveCache(paths))
    axioms = ["no_undercut", "car_identity", "sub_alloc", "weak_convex"]
    requests = [req for axiom in axioms for lhs, rhs, _, _ in _rows(axiom, CORPUS)
                for _, req in lhs + rhs]
    tracemalloc.start()
    try:
        reports = planned_suite(axioms, plan, CORPUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.checks for r in reports)
    risks = {id(s): s for s, p in requests if p is None}
    bases = {id(p): p for _, p in requests if p is not None}
    assert len(risks) == 12 and len(bases) == 10
    assert all(type(e) is _Point for _, _, e in plan.cache._risk.values())
    assert not hasattr(_Point(0.0, 0.0), "controls")
    for claim in [*risks.values(), *bases.values()]:
        if id(claim) not in risks:
            assert (id(ENT), id(claim)) not in plan.cache._risk
            continue
        entry = plan.cache._risk[id(ENT), id(claim)][2]
        alone = rho(ENT, claim, paths)
        assert plan.get([(claim, None)])[0] is entry
        assert (entry.initial, entry.se) == (
            alone.initial, engine.lsmc_standard_error(alone))
    # Held across levels: nothing.  The one sweep of 80 rows (19 portfolio
    # rows, 61 allocation rows) holds at most four (80, M) float arrays at
    # once: terminals, values, their stack and the level's controls.  The
    # margin is 10% for temporaries; a plan that kept the 10 bases'
    # controls held 3.2 MB more and peaked at about 1.27 times the bound's
    # base, over the bound.
    sweep = 4 * 80 * m * 8
    assert peak <= 1.1 * sweep, (peak, sweep)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_consistency_axioms_run_on_short_lattices(steps):
    t = tree(steps)
    for pair in CORPUS.tc_level_pairs(steps):
        assert all(0 <= level <= steps for level in pair)
    reports = run_axiom_suite(["tc1", "tc2"], "subdiff", NORM, CORPUS, t)
    assert [r.axiom for r in reports] == ["tc1", "tc2"]
    assert all(r.status in ("pass", "fail") and r.checks for r in reports)


def test_derived_time_consistency_solves_each_rolled_margin_once(monkeypatch):
    """The pairs (0, N/2) and (N/4, N/2) roll one margin: at N = 16 the
    step stacks 2 margins per claim, 8 rows for its 12 compared pairs."""
    stack, rolled = CarRule.allocate_stack, []

    def tracked(self, subs, portfolio, disc, basis=None, cache=None,
                reduce=None):
        if all(sub.label.startswith("-rho_") for sub in subs):
            rolled.extend(sub.label for sub in subs)
        return stack(self, subs, portfolio, disc, basis, cache, reduce)

    monkeypatch.setattr(CarRule, "allocate_stack", tracked)
    report = check_derived_risk_measure("subdiff", NORM, CORPUS, tree(16))
    assert report.status == "pass"
    assert len(rolled) == len(set(rolled)) == 8
    assert report.details["time_consistency"].checks > 0


def test_every_axiom_is_a_table_row_set_or_lattice_only():
    for axiom in AXIOM_IDS:
        if axiom in LATTICE_ONLY:
            with pytest.raises(InvalidArgumentError):
                _rows(axiom, CORPUS)
            continue
        rows = _rows(axiom, CORPUS)
        assert rows, axiom
        for lhs, rhs, relation, info in rows:
            assert relation in ("le", "ge", "eq")
            assert lhs and "portfolio" in info
    assert set(LATTICE_ONLY) < set(AXIOM_IDS)


def test_lattice_only_axioms_are_not_applicable_on_ensembles():
    paths = sample_paths(build_grid(1.0, 4), 1, 200, seed=3)
    for rep in run_axiom_suite(list(LATTICE_ONLY), "subdiff", ENT, CORPUS, paths):
        assert rep.status == "not-applicable" and rep.checks == 0
        assert "lattice-only" in rep.note


# Failing ensemble reports: the gradient rule against no-undercut and the
# penalized scenario average against the diagonal identity and full
# allocation, on a 2,000-path ensemble; the hash pins their witnesses.
WITNESS_SUITES = (("grad", ["no_undercut"]),
                  ("pas", ["car_identity", "full_alloc"]))
WITNESS_HASH = "6f6c44e30a4bcdb12d8ac28a8ab7dbb5a96568df9fcdb64547b996883e74922a"


def test_ensemble_witnesses_name_the_lattice_row():
    paths = sample_paths(build_grid(1.0, 10), 1, 2000, 13)
    lattice = tree(20)
    reports = []
    for rule, axioms in WITNESS_SUITES:
        on_paths = run_axiom_suite(axioms, rule, ENT, CORPUS, paths)
        on_tree = run_axiom_suite(axioms, rule, ENT, CORPUS, lattice)
        for rep, exact in zip(on_paths, on_tree):
            assert rep.status == exact.status == "fail", rep.to_record()
            row_keys = set(exact.witness) - {"level", "node", "time"}
            assert set(rep.witness) == row_keys | {"lhs", "rhs"}
        reports += on_paths
    digest = hashlib.sha256(serialize_reports(reports).encode()).hexdigest()
    assert digest == WITNESS_HASH


def test_explicit_ensemble_tolerance_of_zero_replaces_the_band():
    # tolerance=None allows three standard errors; an explicit 0.0 allows
    # nothing, as any other explicit tolerance does
    paths = sample_paths(build_grid(1.0, 10), 1, 2000, 13)
    cache = SolveCache(paths)
    args = ("car_identity", "pas", ENT, CORPUS, paths)
    banded = check_axiom(*args, cache=cache)
    zero = check_axiom(*args, tolerance=0.0, cache=cache)
    tiny = check_axiom(*args, tolerance=1e-12, cache=cache)
    assert banded.worst_violation == pytest.approx(1.4397e-01, abs=1e-5)
    assert zero.worst_violation == pytest.approx(1.8305e-01, abs=1e-5)
    assert zero.worst_violation - tiny.worst_violation == pytest.approx(
        1e-12, abs=1e-15)
    assert zero.tolerance == 0.0 and zero.status == "fail"


LATTICE_SUITE = ("no_undercut", "mono", "riskless", "cash_add_1", "cash_add",
                 "sub_alloc", "weak_convex", "tc1", "tc2", "full_alloc")


def test_revealed_portfolios_are_solved_once_per_level(monkeypatch):
    """The revealed base solves of the subdiff/norm(0.5) lattice suite.
    cash_add builds each shifted portfolio once per (portfolio, level,
    shift) and tc2 each rolled margin once per (portfolio, level); each is
    solved once, as a portfolio row of the allocation pass of all its
    sub-positions, and never as a solve of its own."""
    revealed, solo = [], []

    def counting(driver, terminal, disc, **opts):
        if isinstance(terminal, RevealedClaim):
            revealed.append((terminal.label, terminal.level))
            solo.append(terminal.label)
        return engine.solve_tree(driver, terminal, disc, **opts)

    def rows(driver, terminals, disc, *args, z_y=None, **opts):
        for term, src in zip(terminals, z_y or [0] * len(terminals)):
            if src is None and isinstance(term, RevealedClaim):
                revealed.append((term.label, term.level))
        return engine.solve_stack(driver, terminals, disc, *args, z_y=z_y,
                                  **opts)

    # every module's binding of the lattice solver counts, and every
    # portfolio row of an allocation pass
    for module in (measure, allocation, harness):
        if getattr(module, "solve_tree", None) is engine.solve_tree:
            monkeypatch.setattr(module, "solve_tree", counting)
    monkeypatch.setattr(allocation, "solve_stack", rows)
    cache = SolveCache(tree(20))
    counts, labels = {}, {}
    for axiom in LATTICE_SUITE:
        before = len(revealed)
        run_axiom_suite([axiom], "subdiff", NORM, CORPUS, cache.disc,
                        {"full_alloc": 1e-10}, cache=cache)
        counts[axiom] = len(revealed) - before
        labels[axiom] = set(revealed[before:])
    assert counts == dict.fromkeys(LATTICE_SUITE, 0) | {"cash_add": 27, "tc2": 4}
    assert solo == []
    assert len(labels["cash_add"]) == 27 and len(labels["tc2"]) == 4
