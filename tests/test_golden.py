"""Pinned outputs: fixed lattice reports and ensemble results, byte for byte.

Each config in ``tests/golden`` is an N=60 lattice scenario with all seven
rule specs, pairs sharing one portfolio, an exact decomposition and the
no_undercut, car_identity, riskless and full_alloc axioms.  ``hashes.json``
holds the SHA-256 of its ``values.csv`` and ``axioms.txt`` (not of
``manifest.txt``, which carries a timestamp).  A change that alters these
floats on purpose regenerates the hashes and says why.  The ensemble
test pins the axiom suite's reports and the subdifferential routes on a
2,000-path LSMC ensemble the same way, and the full axiom suites of three
rule/driver pairs on a small lattice pin every report, witnesses included.
"""

import hashlib
import json
from pathlib import Path

import pytest

from riskalloc import (build_grid, build_tree, driver_entropic,
                       driver_scaled_norm, sample_paths)
from riskalloc.allocation import car_subdifferential
from riskalloc.cli import run_scenario
from riskalloc.harness import (AXIOM_IDS, default_corpus, run_axiom_suite,
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


# The ensemble suite and both subdifferential routes on a small LSMC
# ensemble, pinned byte for byte.  The hashes were generated with one and
# with two BLAS threads and agree, so the bytes do not depend on the
# thread count.
ENSEMBLE_HASHES = {
    "reports": "4fc9064096d87093dde045aadf41a47a590a3ec61a42c706a65add0685d2859a",
    "routes": "4e9441148afbc5957f478ec9068fd6248b5909b843d712922453e37d94b07d0b",
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
