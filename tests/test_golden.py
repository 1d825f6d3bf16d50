"""Pinned outputs: fixed lattice reports and ensemble results, byte for byte.

Each config in ``tests/golden`` is a scenario with all seven rule specs,
pairs sharing one portfolio, an exact decomposition and the no_undercut,
car_identity, riskless and full_alloc axioms: two on an N=60 lattice and
``entropic_lsmc.cfg`` on a 4,000-path N=20 ensemble.  ``hashes.json``
holds the SHA-256 of its ``values.csv`` and ``axioms.txt`` (not of
``manifest.txt``, which carries a timestamp; the ensemble report's
standard-error lines are pinned apart).  A change that alters these
floats on purpose regenerates the hashes and says why.  The ensemble
test pins the axiom suite's reports and the subdifferential routes on a
2,000-path LSMC ensemble the same way, and the full axiom suites of three
rule/driver pairs on a small lattice pin every report, witnesses included,
as do the derived-risk checks of two rules.
The producers these reports do not reach (penalties, the dual route and
the marginal rule, revealed-sub allocations at their reveal level and
scenario-averaged densities) are pinned by the SHA-256 of their level
values.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from riskalloc import (QuadratureSpec, RevealedClaim, TerminalClaim,
                       averaged_density, build_grid, build_tree,
                       car_aumann_shapley, car_gradient, car_marginal,
                       driver_entropic, driver_scaled_norm,
                       kernel_from_subgradient, penalty, rho, sample_paths)
from riskalloc.allocation import car_subdifferential
from riskalloc.cli import run_scenario
from riskalloc.harness import (AXIOM_IDS, check_derived_risk_measure,
                               default_corpus, run_axiom_suite,
                               serialize_reports)

GOLDEN = Path(__file__).parent / "golden"
HASHES = json.loads((GOLDEN / "hashes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("config", sorted(HASHES))
def test_reports_match_pinned_hashes(config, tmp_path):
    code, out = run_scenario(GOLDEN / config, tmp_path / "out")
    assert code == 0
    for name, expected in HASHES[config].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == expected, f"{config}: {name} changed"


# The standard errors the ensemble report's manifest lists, one per
# driver-induced rule and pair, in pair-major order.
LSMC_SE_LINES = """\
se[grad][X;Y] = 6.080519e-04
se[subdiff][X;Y] = 7.818120e-04
se[custom:ent1:c=2][X;Y] = 3.519161e-03
se[custom:ent2:lt=2][X;Y] = 2.079341e-03
se[grad][Z;Y] = 1.133926e-03
se[subdiff][Z;Y] = 1.309332e-03
se[custom:ent1:c=2][Z;Y] = 2.231106e-04
se[custom:ent2:lt=2][Z;Y] = 1.326180e-03
se[grad][Y;Y] = 3.435556e-03
se[subdiff][Y;Y] = 3.607517e-03
se[custom:ent1:c=2][Y;Y] = 3.607517e-03
se[custom:ent2:lt=2][Y;Y] = 3.607517e-03
"""


def test_ensemble_report_manifest_pins_its_standard_errors(tmp_path):
    code, out = run_scenario(GOLDEN / "entropic_lsmc.cfg", tmp_path / "out")
    assert code == 0
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines(True)
    assert "".join(line for line in lines if line.startswith("se[")) \
        == LSMC_SE_LINES


# The ensemble suite and both subdifferential routes on a small LSMC
# ensemble, pinned byte for byte.  The hashes were generated with one and
# with two BLAS threads and agree, so the bytes do not depend on the
# thread count.  The other rules' suites, on a smaller ensemble, pin how
# each kind of rule reads its base solves: through the allocation driver
# (``grad``), whole (``marginal``) or not at all (``as`` and ``pas`` over
# the strictly convex entropic driver).
ENSEMBLE_HASHES = {
    "reports": "4fc9064096d87093dde045aadf41a47a590a3ec61a42c706a65add0685d2859a",
    "routes": "4e9441148afbc5957f478ec9068fd6248b5909b843d712922453e37d94b07d0b",
    "grad": "f02c835bc08baeba82d6e56a3c46546dc3e3950a802298a728dbbb9a74890c31",
    "marginal": "229ae9a34ee11ec586b28324533c7e6adac45345f802054a1983c1623db12fc0",
    "as": "1a1fe337199ae27ec6f345f6445d1670ff3b522ce14ea81a3c8be894e7b90d4b",
    "pas": "19583fb50e872f6e709cefc5b116107fe3ebce53baabf9af157a7b858f3f6d77",
}


def test_ensemble_suite_and_routes_match_pinned_hashes():
    paths = sample_paths(build_grid(1.0, 10), 1, 2000, 13)
    driver = driver_entropic(1.0)
    corpus = default_corpus()
    reports = serialize_reports(run_axiom_suite(
        ["no_undercut", "mono", "car_identity", "sub_alloc", "weak_convex"],
        "subdiff", driver, corpus, paths))
    routes = repr([(car_subdifferential(driver, y, y, paths, route="bsde").initial,
                    car_subdifferential(driver, y, y, paths, route="dual").initial)
                   for y in (corpus.claims[i] for i in corpus.portfolios)])
    for name, text in (("reports", reports), ("routes", routes)):
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == ENSEMBLE_HASHES[name], f"ensemble {name} changed"


@pytest.mark.parametrize("rule", ["grad", "marginal", "as", "pas"])
def test_ensemble_rule_suites_match_pinned_hashes(rule):
    paths = sample_paths(build_grid(1.0, 10), 1, 200, 13)
    text = serialize_reports(run_axiom_suite(
        ["no_undercut", "car_identity", "sub_alloc", "weak_convex"], rule,
        driver_entropic(1.0), default_corpus(), paths))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == ENSEMBLE_HASHES[rule], f"ensemble {rule} suite changed"


# Every axiom on an N=20 lattice: a coherent rule that passes everything,
# the gradient rule over a strictly convex driver (three failures with
# witnesses) and the penalized scenario average (failures and
# not-applicable reports).
LATTICE_SUITE_HASHES = {
    ("subdiff", "norm"): "680a637bb2855fc156ffaaba48419d625b4a5b768fc15f10e758a1d4dc47b957",
    ("grad", "entropic"): "85582485e0d63ae9b697413082674a888a72a6aacb3715fcb39743786b7edaa1",
    ("pas", "entropic"): "09cf988a6a7276fe8fa5ade484412c4a5b26a584dfb72b8898351afbe786a8e6",
}
SUITE_DRIVERS = {"norm": lambda: driver_scaled_norm(0.5),
                 "entropic": lambda: driver_entropic(1.0)}


@pytest.mark.parametrize("rule,driver", sorted(LATTICE_SUITE_HASHES))
def test_lattice_axiom_suite_matches_pinned_hash(rule, driver):
    tree = build_tree(build_grid(1.0, 20))
    text = serialize_reports(run_axiom_suite(
        list(AXIOM_IDS), rule, SUITE_DRIVERS[driver](), default_corpus(), tree))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == LATTICE_SUITE_HASHES[rule, driver], \
        f"lattice suite {rule}/{driver} changed"


# The derived-risk reports on an N=16 lattice: the subdifferential rule
# under a coherent and a strictly convex driver, at a tight tolerance and
# at tolerance -1 (every step fails and names its witness), and `as`,
# which cannot allocate inside the revealed portfolios the steps need.
DERIVED_RISK_HASH = \
    "cc49fe19a99ed33f12cf42a7bf496183b3bd6bd6a1e94d7a4e0ebd35118a0f91"
DERIVED_RISK_CASES = [("subdiff", "norm", 1e-9), ("subdiff", "norm", -1.0),
                      ("subdiff", "entropic", 1e-9),
                      ("subdiff", "entropic", -1.0), ("as", "norm", 1e-9)]


def test_derived_risk_reports_match_pinned_hash():
    tree = build_tree(build_grid(1.0, 16))
    lines = []
    for rule, driver, tolerance in DERIVED_RISK_CASES:
        rep = check_derived_risk_measure(rule, SUITE_DRIVERS[driver](),
                                         default_corpus(), tree, tolerance)
        lines.append(f"{rule} {driver} {tolerance:g} {rep.status}")
        lines += [r.to_record() for r in rep.hypothesis]
        # a detail is a report, or the reason of a not-applicable check
        lines += [f"{key}: {d if isinstance(d, str) else d.to_record()}"
                  for key, d in rep.details.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DERIVED_RISK_HASH


def _levels_digest(levels):
    """SHA-256 over each level's shape and float64 bytes, in level order."""
    h = hashlib.sha256()
    for v in levels:
        a = np.ascontiguousarray(v, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


W = TerminalClaim(lambda w: np.asarray(w, float), label="W")
CALL = TerminalClaim(lambda w: np.maximum(w, 0.0), label="call")


def _producers():
    """Level values of each pinned producer: entropic(1) on an N=20 lattice,
    an N=8 lattice for the expanded densities and a 2,000-path ensemble."""
    ent = driver_entropic(1.0)
    tree = build_tree(build_grid(1.0, 20))
    paths = sample_paths(build_grid(1.0, 10), 1, 2000, 13)
    t = 10
    m = 0.4 * tree.states(t)
    sub = RevealedClaim(t, m, CALL, "call+m")
    port = RevealedClaim(t, m, W, "W+m")
    out = {
        "penalty-tree": lambda: penalty(
            ent, kernel_from_subgradient(ent, rho(ent, CALL, tree))).values,
        "penalty-paths": lambda: penalty(
            ent, kernel_from_subgradient(ent, rho(ent, CALL, paths))).values,
        "dual-tree": lambda: car_subdifferential(ent, CALL, W, tree,
                                                 route="dual").values,
        "marginal-tree": lambda: car_marginal(ent, CALL, W, tree).values,
        "as-density-tree": lambda: averaged_density(car_aumann_shapley(
            ent, CALL, W, build_tree(build_grid(1.0, 8)), QuadratureSpec(8))),
        "as-density-paths": lambda: averaged_density(car_aumann_shapley(
            ent, CALL, W, paths, QuadratureSpec(8))),
    }
    for name, car in (("grad", car_gradient), ("subdiff", car_subdifferential),
                      ("marginal", car_marginal)):
        out[f"reveal-{name}"] = lambda car=car: [
            car(ent, sub, W, tree).values_at_reveal(),
            car(ent, sub, port, tree).values_at_reveal()]
    return out


PRODUCER_HASHES = {
    "penalty-tree": "1f6a3c85b6fc0bc327e360c3fb564b0fd7166343a507c9f30d804ab0f967a6d4",
    "penalty-paths": "ec4c2c69817587268a17e2d52d02e25e7cafb45cb9461a6ddee08fe9eeddb957",
    "dual-tree": "209779d114599926fe3a384a60ffe370250e010ce0a020a492b7e475b4a1d287",
    "marginal-tree": "35bff62ceaa1b76ea22466f103e136c654043c3b99677b00e1e941124e362847",
    "reveal-grad": "0c654ee24234ba813f31fe233f2eceabe5b9cd58f3c0da69dd192dd4be80d532",
    "reveal-subdiff": "fd5db4e6f70a3f21791dfc13d151d5898304af8027ce5d50e5e9d9a612fcc0d5",
    "reveal-marginal": "f203cc8d97ffb2dca118ef1f03ff37636efda368ba5b21f75dd64a39e86e6b6c",
    "as-density-tree": "0edde2256cd110af3adcf56615cb1decf04d1715fa0232332b5b614c810fbc61",
    "as-density-paths": "3c1d7eb8d7e03336be8b0965782959e12c80981444ff1861310c3b9703206edb",
}


def test_producers_match_pinned_hashes():
    got = {name: _levels_digest(make()) for name, make in _producers().items()}
    assert got == PRODUCER_HASHES
