import csv
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskalloc import allocation, cli, engine, harness, measure
from riskalloc.cli import (ScenarioConfig, catalog_text, main, parse_alloc_spec,
                           parse_driver_spec, parse_rule_spec, run_scenario)
from riskalloc.drivers import make_driver
from riskalloc.errors import (ConfigError, InadmissibleKernelError,
                              RejectedConfigurationError)

BASE = """
[scenario]
T = 1.0
N = 200
engine = tree
driver = entropic:lambda=1
rules = subdiff
pairs = X:Y, Y:Y
times = 0, 0.5
{extra}

[position:Y]
expr = W

[position:X]
expr = max(W,0)
"""


def write_config(tmp_path, extra="", body=None):
    path = tmp_path / "scenario.cfg"
    path.write_text(body if body is not None else BASE.format(extra=extra),
                    encoding="utf-8")
    return path


def read_rows(out_dir):
    with open(Path(out_dir) / "values.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_driver_spec_parsing():
    assert parse_driver_spec("zero").name == "zero"
    assert parse_driver_spec("norm:mu=0.5").lipschitz == 0.5
    assert parse_driver_spec("entropic:lambda=2").lipschitz is None
    with pytest.raises(ConfigError):
        parse_driver_spec("cvar:alpha=0.9")
    with pytest.raises(ConfigError):
        parse_driver_spec("norm")


def test_alloc_spec_parsing():
    ent_spec = "entropic:lambda=1"
    ent = parse_driver_spec(ent_spec)
    assert parse_alloc_spec("subdiff", ent, ent_spec).name == "subdiff"
    assert parse_alloc_spec("ent1:c=2", ent, ent_spec).lipschitz == 2.0
    assert parse_alloc_spec("ent2:lt=0.5", ent, ent_spec).lipschitz is None
    with pytest.raises(ConfigError):
        parse_alloc_spec("ent1:c=2", parse_driver_spec("norm:mu=0.5"),
                         "norm:mu=0.5")


def test_run_reports_entropic_value(tmp_path):
    path = write_config(tmp_path)
    code, out = run_scenario(path, tmp_path / "out")
    assert code == 0
    rows = read_rows(out)
    rho_y = [r for r in rows if r["quantity"] == "rho[Y]"
             and r["time"] == "0" and r["state"] == "mean"]
    assert len(rho_y) == 1
    assert float(rho_y[0]["value"]) == pytest.approx(0.5, abs=5e-3)
    # the diagonal pair reproduces the risk
    lam = [r for r in rows if r["quantity"] == "Lambda[subdiff][Y;Y]"
           and r["time"] == "0" and r["state"] == "mean"]
    assert float(lam[0]["value"]) == pytest.approx(float(rho_y[0]["value"]),
                                                   abs=1e-9)


def test_run_strict_fails_on_known_violation(tmp_path):
    body = BASE.format(extra="axioms = no_undercut").replace(
        "rules = subdiff", "rules = grad")
    path = write_config(tmp_path, body=body)
    code, out = run_scenario(path, tmp_path / "out", strict=True)
    assert code == 1
    text = (Path(out) / "axioms.txt").read_text(encoding="utf-8")
    assert "status=fail" in text and "witness=" in text
    # without --strict the run reports but exits cleanly
    code2, _ = run_scenario(path, tmp_path / "out2")
    assert code2 == 0


def test_run_without_axioms_writes_values_only(tmp_path):
    path = write_config(tmp_path)
    code, out = run_scenario(path, tmp_path / "out")
    assert code == 0
    assert not (Path(out) / "axioms.txt").exists()
    assert (Path(out) / "manifest.txt").exists()


def test_byte_identical_reruns(tmp_path):
    extra = "axioms = no_undercut, cash_add_1"
    path = write_config(tmp_path, extra=extra)
    _, out1 = run_scenario(path, tmp_path / "out1")
    _, out2 = run_scenario(path, tmp_path / "out2")
    for name in ("values.csv", "axioms.txt"):
        a = (Path(out1) / name).read_bytes()
        b = (Path(out2) / name).read_bytes()
        assert a == b, name


def test_small_tree_lists_nodes(tmp_path):
    body = BASE.format(extra="").replace("N = 200", "N = 8")
    path = write_config(tmp_path, body=body)
    _, out = run_scenario(path, tmp_path / "out")
    rows = read_rows(out)
    states = {r["state"] for r in rows if r["quantity"] == "rho[Y]"
              and r["time"] == "0.5"}
    assert states == {f"node={j}" for j in range(5)}


def test_lsmc_engine_rows(tmp_path):
    body = BASE.format(extra="M = 5000\nseed = 9").replace(
        "engine = tree", "engine = lsmc").replace("N = 200", "N = 20")
    path = write_config(tmp_path, body=body)
    _, out = run_scenario(path, tmp_path / "out")
    rows = read_rows(out)
    stats = {r["state"] for r in rows if r["quantity"] == "rho[Y]"}
    assert stats == {"mean", "se"}


def test_config_validation_errors(tmp_path):
    bad = BASE.format(extra="").replace("pairs = X:Y, Y:Y", "pairs = X:Z")
    with pytest.raises(ConfigError):
        ScenarioConfig.load(write_config(tmp_path, body=bad))
    bad2 = BASE.format(extra="").replace("times = 0, 0.5", "times = 0.3333")
    with pytest.raises(ConfigError):
        ScenarioConfig.load(write_config(tmp_path, body=bad2))
    bad3 = BASE.format(extra="unknown_key = 1")
    with pytest.raises(ConfigError):
        ScenarioConfig.load(write_config(tmp_path, body=bad3))
    bad4 = BASE.format(extra="axioms = frontier")
    with pytest.raises(ConfigError):
        ScenarioConfig.load(write_config(tmp_path, body=bad4))


def test_payoff_bound_refusal(tmp_path):
    body = BASE.format(extra="payoff_bound = 0.5")
    path = write_config(tmp_path, body=body)
    with pytest.raises(ConfigError):
        run_scenario(path, tmp_path / "out")


def test_stability_checked_before_compute(tmp_path):
    body = BASE.format(extra="").replace("driver = entropic:lambda=1",
                                         "driver = norm:mu=20").replace(
        "N = 200", "N = 100")
    path = write_config(tmp_path, body=body)
    with pytest.raises(ConfigError) as err:
        run_scenario(path, tmp_path / "out")
    assert "401" in str(err.value)


def test_unstable_allocation_driver_checked_before_compute(tmp_path):
    # ent1:c=10 needs 10 * sqrt(dt) < 1, i.e. N >= 101; the run driver
    # (entropic) has no such bound
    body = BASE.format(extra="").replace("rules = subdiff",
                                         "rules = custom:ent1:c=10").replace(
        "N = 200", "N = 50")
    path = write_config(tmp_path, body=body)
    with pytest.raises(ConfigError, match="custom:ent1:c=10") as err:
        run_scenario(path, tmp_path / "out")
    assert "N = 101" in str(err.value)
    assert not (tmp_path / "out" / "values.csv").exists()
    assert main(["run", str(path), "--out", str(tmp_path / "o2")]) == 2


def test_main_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "o1")]) == 0
    missing = tmp_path / "missing.cfg"
    assert main(["run", str(missing)]) == 2
    assert main(["catalog"]) == 0
    text = capsys.readouterr().out
    assert "subdiff" in text
    assert "ent2:lt=<x>" in text
    assert "tc1" in text


def test_decomposition_block_round_trip(tmp_path):
    body = BASE.format(extra="axioms = full_alloc") + """
[position:A]
expr = 0.5*W
[position:B]
expr = 0.5*W
[decomposition:split]
total = Y
parts = A, B
"""
    body = body.replace("driver = entropic:lambda=1", "driver = norm:mu=0.5")
    body = body.replace("rules = subdiff", "rules = subdiff, as")
    path = write_config(tmp_path, body=body)
    code, out = run_scenario(path, tmp_path / "out")
    assert code == 0
    text = (Path(out) / "axioms.txt").read_text(encoding="utf-8")
    assert text.count("axiom=full_alloc status=pass") == 2


def test_catalog_text_contents():
    text = catalog_text()
    for token in ("zero", "norm:mu=<x>", "entropic:lambda=<x>", "subdiff",
                  "ent1:c=<x>", "ent2:lt=<x>", "marginal", "as", "pas",
                  "tc1", "tc2", "car_identity"):
        assert token in text


CATALOG = """\
drivers:
  zero
  norm:mu=<x>
  entropic:lambda=<x>
alloc drivers (for custom:<spec> rules):
  grad
  subdiff
  marginal
  ent1:c=<x>
  ent2:lt=<x>
rules:
  grad
  subdiff
  marginal
  as
  pas
  custom:<alloc-driver-spec>
axioms:
  mono
  no_undercut
  riskless
  cash_add_1
  cash_add
  full_alloc
  sub_alloc
  weak_convex
  tc1
  tc2
  car_identity
  car_identity_le
  zero_position
"""


def test_catalog_text_is_pinned():
    assert catalog_text() == CATALOG


def _listed(section):
    """The items ``catalog_text()`` lists under the heading ``section``."""
    items, current = {}, None
    for line in catalog_text().splitlines():
        if line.startswith("  "):
            items.setdefault(current, []).append(line.strip())
        else:
            current = line.rstrip(":")
    return items[section]


def test_catalog_specs_parse_and_are_documented():
    ent_spec = "entropic:lambda=1"
    ent = parse_driver_spec(ent_spec)
    quadrature = allocation.QuadratureSpec(4)
    for spec in _listed("drivers"):
        parse_driver_spec(spec.replace("<x>", "0.5"))
    alloc_specs = _listed("alloc drivers (for custom:<spec> rules)")
    for spec in alloc_specs:
        parse_alloc_spec(spec.replace("<x>", "0.5"), ent, ent_spec)
    rules = []
    for spec in _listed("rules"):
        subs = [spec] if "<" not in spec else \
            [spec.replace("<alloc-driver-spec>", a.replace("<x>", "0.5"))
             for a in alloc_specs]
        rules += [parse_rule_spec(s, ent, ent_spec, quadrature) for s in subs]
    assert {r.name for r in rules} >= set(allocation.RULE_NAMES)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    paragraph = readme[readme.index("Driver specs:"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    for spec in _listed("drivers") + alloc_specs + _listed("rules"):
        assert f"`{spec}`" in paragraph, spec


def test_scenario_averaged_rule_with_revealed_axiom_is_not_applicable(tmp_path):
    body = BASE.format(extra="axioms = cash_add").replace(
        "rules = subdiff", "rules = as").replace("N = 200", "N = 20")
    path = write_config(tmp_path, body=body)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "axioms.txt").read_text(encoding="utf-8")
    assert "axiom=cash_add status=not-applicable" in text


def test_driver_overflow_exits_with_numerical_failure(tmp_path, capsys):
    body = BASE.format(extra="payoff_bound = 1e300").replace(
        "driver = entropic:lambda=1", "driver = entropic:lambda=0.001").replace(
        "expr = W\n", "expr = 1e200*W\n").replace("N = 200", "N = 50")
    path = write_config(tmp_path, body=body)
    # the typed error is the only signal: no numpy RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "non-finite" in capsys.readouterr().err
    # the reports are written once every rule and suite has run
    for name in ("values.csv", "axioms.txt", "manifest.txt"):
        assert not (tmp_path / "o" / name).exists()


def test_scenario_rules_solve_each_scaled_portfolio_once(tmp_path, monkeypatch):
    body = BASE.format(extra="axioms = no_undercut, car_identity\nquadrature = 6")
    body = body.replace("rules = subdiff", "rules = as, pas").replace(
        "pairs = X:Y, Y:Y", "pairs = X:Y, Z:Y, Y:Y").replace("N = 200", "N = 20")
    body += "\n[position:Z]\nexpr = W/(1+abs(W))\n"
    stacks = []
    solve = engine.solve_stack

    def counting(driver, terminals, disc, *args, **opts):
        stacks.append([getattr(t, "label", "") for t in terminals])
        return solve(driver, terminals, disc, *args, **opts)

    # every module's binding of the stacked solver counts; the one-claim
    # solves call the engine's own
    for module in (engine, measure, allocation, harness, cli):
        if getattr(module, "solve_stack", None) is solve:
            monkeypatch.setattr(module, "solve_stack", counting)
    code, _ = run_scenario(write_config(tmp_path, body=body), tmp_path / "out")
    assert code == 0
    # rho negates its claim: the scaled portfolio g*Y is solved as -1*g*Y,
    # and all six are the rows of one stacked pass, which drives the one
    # tilted pass that as and pas share
    scaled = re.compile(r"-1\*[-+.e0-9]+\*Y")
    passes = [labels for labels in stacks
              if any(scaled.fullmatch(lab) for lab in labels)]
    assert len(passes) == 1
    for labels in passes:
        assert all(scaled.fullmatch(lab) for lab in labels)
        assert len(labels) == 6
        assert len(set(labels)) == 6


def test_run_computes_each_allocation_once(tmp_path, monkeypatch):
    body = BASE.format(extra="axioms = no_undercut, car_identity\nquadrature = 6")
    body = body.replace("rules = subdiff", "rules = " + ", ".join(
        ("grad", "subdiff", "marginal", "as", "pas", "custom:ent1:c=2",
         "custom:ent2:lt=2"))).replace(
        "pairs = X:Y, Y:Y", "pairs = X:Y, Z:Y, Y:Y").replace("N = 200", "N = 20")
    body += "\n[position:Z]\nexpr = W/(1+abs(W))\n"
    averages, alloc_passes = [], []
    average, solve = measure.scenario_average, engine.solve_stack

    def counting_average(*args, **opts):
        averages.append([claim.label for claim in args[0]])
        return average(*args, **opts)

    def counting_solve(driver, terminals, disc, *args, **opts):
        # an allocation pass carries the portfolio's base controls
        if opts.get("z_y") is not None:
            alloc_passes.append((driver.name, len(terminals)))
        return solve(driver, terminals, disc, *args, **opts)

    for module in (measure, allocation):
        if getattr(module, "scenario_average", None) is average:
            monkeypatch.setattr(module, "scenario_average", counting_average)
    for module in (engine, measure, allocation, harness, cli):
        if getattr(module, "solve_stack", None) is solve:
            monkeypatch.setattr(module, "solve_stack", counting_solve)
    code, _ = run_scenario(write_config(tmp_path, body=body), tmp_path / "out")
    assert code == 0
    # as and pas average every sub-position of Y once, in one shared pass
    assert averages == [["X", "Z", "Y"]]
    # one pass per driver-induced rule, over the three sub-positions of Y
    assert len(alloc_passes) == 4
    assert len({name for name, _ in alloc_passes}) == 4
    assert all(rows == 3 for _, rows in alloc_passes)


def _averaged_run(tmp_path, monkeypatch, rules, body=None):
    """Run ``rules`` over the three sub-positions of Y at N = 20 and six
    quadrature nodes; returns the scaled-portfolio solves (their row
    counts) and the ``scenario_average`` passes (their driver)."""
    body = body or BASE.format(extra="axioms = no_undercut, car_identity\n"
                               "quadrature = 6").replace(
        "rules = subdiff", f"rules = {rules}").replace(
        "pairs = X:Y, Y:Y", "pairs = X:Y, Z:Y, Y:Y").replace("N = 200", "N = 20")
    body += "\n[position:Z]\nexpr = W/(1+abs(W))\n"
    scaled, averages = [], []
    average, solve = measure.scenario_average, engine.solve_stack

    def counting_average(*args, **opts):
        averages.append(args[3] if len(args) > 3 else opts.get("driver"))
        return average(*args, **opts)

    def counting_solve(driver, terminals, disc, *args, **opts):
        if any(re.fullmatch(r"-1\*[-+.e0-9]+\*Y", getattr(t, "label", ""))
               for t in terminals):
            scaled.append(len(terminals))
        return solve(driver, terminals, disc, *args, **opts)

    with monkeypatch.context() as patch:
        patch.setattr(allocation, "scenario_average", counting_average)
        for module in (engine, measure, allocation, harness, cli):
            if getattr(module, "solve_stack", None) is solve:
                patch.setattr(module, "solve_stack", counting_solve)
        tmp_path.mkdir(exist_ok=True)
        code, out = run_scenario(write_config(tmp_path, body=body),
                                 tmp_path / "out")
    assert code == 0
    return scaled, averages, out


@pytest.mark.parametrize("rules", ["as", "pas"])
def test_a_lone_scenario_rule_runs_its_own_single_pass(tmp_path, monkeypatch,
                                                       rules):
    """A run with only one of ``as`` and ``pas`` runs the single pass of
    that rule: one solve of the six scaled portfolios and one averaging
    pass, which for ``as`` gets no driver, so it computes no penalty row
    and no conjugate."""
    scaled, averages, _ = _averaged_run(tmp_path, monkeypatch, rules)
    assert scaled == [6]
    assert len(averages) == 1
    assert (averages[0] is None) == (rules == "as")


def test_paired_scenario_rules_write_the_reports_of_lone_ones(tmp_path,
                                                              monkeypatch):
    """The reports of a run that pairs ``as`` and ``pas`` are those of a
    run of each alone, row for row and line for line."""
    scaled, averages, out = _averaged_run(tmp_path / "pair", monkeypatch,
                                          "as, pas")
    assert scaled == [6] and len(averages) == 1 and averages[0] is not None
    rows = read_rows(out)
    lines = (out / "axioms.txt").read_text(encoding="utf-8").splitlines()
    lone_rows, lone_lines = [], []
    for rule in ("as", "pas"):
        _, _, lone = _averaged_run(tmp_path / rule, monkeypatch, rule)
        lone_rows.append(read_rows(lone))
        lone_lines += (lone / "axioms.txt").read_text(
            encoding="utf-8").splitlines()
    assert sorted(lines) == sorted(lone_lines)
    for other, lone in zip(("pas", "as"), lone_rows):
        assert [row for row in rows if f"[{other}]" not in row["quantity"]] \
            == lone


def _suites(monkeypatch):
    """The rule of each suite a run starts, in order."""
    started, suite = [], cli.planned_suite

    def spy(axioms, plan, corpus):
        started.append(plan.rule.name)
        return suite(axioms, plan, corpus)

    monkeypatch.setattr(cli, "planned_suite", spy)
    return started


@pytest.mark.parametrize("rules", ["as, pas", "pas, as"])
def test_a_pas_that_fails_beside_as_raises_its_lone_error(tmp_path,
                                                         monkeypatch, rules):
    """Where a conjugate is infinite along a scenario (a driver no config
    names), a run pairing ``as`` and ``pas`` raises the error of a run of
    ``pas`` alone, before any suite."""
    sq = lambda x: (x * x).sum(axis=-1)
    capped = make_driver(
        "capped", lambda t, z: sq(z) / 2.0, lambda t, z: z,
        lambda t, q: np.where(sq(q) <= 50.0 * (1 + 1e-9), sq(q) / 2.0, np.inf))
    monkeypatch.setattr(cli, "parse_driver_spec", lambda spec: capped)
    body = BASE.format(extra="axioms = car_identity\nquadrature = 6").replace(
        "rules = subdiff", "rules = pas").replace("N = 200", "N = 100").replace(
        "expr = W\n", "expr = 8*W\n")
    with pytest.raises(InadmissibleKernelError) as lone:
        run_scenario(write_config(tmp_path, body=body), tmp_path / "out")
    started = _suites(monkeypatch)
    with pytest.raises(InadmissibleKernelError) as paired:
        run_scenario(write_config(tmp_path, body=body.replace(
            "rules = pas", f"rules = {rules}")), tmp_path / "out")
    assert str(paired.value) == str(lone.value)
    assert "at step" in str(lone.value)
    assert started == []


def test_a_paired_run_raises_the_kernel_bound_in_the_first_rule_turn(
        tmp_path, monkeypatch):
    """A lattice kernel over the tilt bound stops a paired run where it
    stops a run of ``as`` alone, with the same message: at the first of
    the two rules' tables, after the suites of the rules before it."""
    body = BASE.format(extra="axioms = car_identity\nquadrature = 6").replace(
        "N = 200", "N = 20").replace("expr = W\n", "expr = 30*W\n")
    messages = []
    for rules in ("grad, as", "grad, as, pas", "grad, pas, as"):
        started = _suites(monkeypatch)
        with pytest.raises(RejectedConfigurationError) as err:
            run_scenario(write_config(tmp_path, body=body.replace(
                "rules = subdiff", f"rules = {rules}")), tmp_path / "out")
        assert started == ["grad"]
        messages.append(str(err.value))
        monkeypatch.undo()
    assert len(set(messages)) == 1 and "refine the grid" in messages[0]


def test_entropic_alloc_drivers_use_the_configured_lambda(tmp_path):
    # lambda with more than the six digits of the driver's %g name
    body = BASE.format(extra="axioms = car_identity").replace(
        "driver = entropic:lambda=1", "driver = entropic:lambda=0.1234567").replace(
        "rules = subdiff", "rules = custom:ent1:c=2, custom:ent2:lt=2").replace(
        "pairs = X:Y, Y:Y", "pairs = Y:Y").replace("N = 200", "N = 40")
    code, out = run_scenario(write_config(tmp_path, body=body), tmp_path / "out")
    assert code == 0
    lines = (out / "axioms.txt").read_text(encoding="utf-8").splitlines()
    for spec in ("custom:ent1:c=2", "custom:ent2:lt=2"):
        line = next(line for line in lines if line.endswith(f"rule={spec}"))
        assert "axiom=car_identity status=pass" in line, line


@pytest.mark.parametrize("key,value", [
    ("payoff_bound", "big"), ("M", "1e3"), ("seed", "x"),
    ("basis_degree", "2.5"), ("dimension", "one"), ("quadrature", "many"),
    ("quadrature", "0"), ("seed", "-1"), ("basis_degree", "-1"),
    ("dimension", "0"), ("payoff_bound", "nan"), ("payoff_bound", "inf"),
    ("T", "nan"), ("T", "inf"), ("times", "nan"), ("times", "inf"),
    ("driver", "norm:mu=inf"), ("driver", "entropic:lambda=inf")])
def test_malformed_numeric_keys_are_config_errors(tmp_path, key, value):
    body = BASE.format(extra=f"{key} = {value}")
    if key in ("T", "times", "driver"):
        # keys the base config already sets are replaced in place
        body = re.sub(rf"^{key} = .*$", f"{key} = {value}",
                      BASE.format(extra=""), flags=re.M)
    path = write_config(tmp_path, body=body)
    if key == "driver":  # the spec is parsed when the run starts
        with pytest.raises(ConfigError, match=re.escape(value)):
            run_scenario(path, tmp_path / "o")
    else:
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig.load(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value,strict", [
    ("1", True), ("true", True), ("Yes", True), ("0", False), ("FALSE", False),
    ("no", False), ("", False)])
def test_strict_key_values(tmp_path, value, strict):
    path = write_config(tmp_path, f"strict = {value}")
    assert ScenarioConfig.load(path).strict is strict


@pytest.mark.parametrize("value", ["ture", "on", "2"])
def test_malformed_strict_is_a_config_error(tmp_path, value):
    # a misspelt flag used to turn strict off, so failures exited 0
    path = write_config(tmp_path, f"strict = {value}\naxioms = no_undercut")
    with pytest.raises(ConfigError, match=f"strict .*{value!r}"):
        ScenarioConfig.load(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_oversized_lsmc_basis_exits_at_once(tmp_path):
    # d = degree = 10 has C(20, 10) = 184,756 monomials plus the payoff
    # column: M = 100 is too few, and counting them must not enumerate
    # the 11^10 exponent tuples
    body = BASE.format(extra="M = 100\ndimension = 10\nbasis_degree = 10")
    path = write_config(tmp_path, body=body.replace("engine = tree",
                                                    "engine = lsmc"))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="184757 functions"):
        ScenarioConfig.load(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 5.0
