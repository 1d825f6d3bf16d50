"""Pinned outputs: fixed lattice reports and ensemble results, byte for byte.

Each config in ``tests/golden`` is an N=60 lattice scenario with all seven
rule specs, pairs sharing one portfolio, an exact decomposition and the
no_undercut, car_identity, riskless and full_alloc axioms.  ``hashes.json``
holds the SHA-256 of its ``values.csv`` and ``axioms.txt`` (not of
``manifest.txt``, which carries a timestamp).  A change that alters these
floats on purpose regenerates the hashes and says why.  The ensemble
test pins the axiom suite's reports and the subdifferential routes on a
2,000-path LSMC ensemble the same way.
"""

import hashlib
import json
from pathlib import Path

import pytest

from riskalloc import build_grid, driver_entropic, sample_paths
from riskalloc.allocation import car_subdifferential
from riskalloc.cli import run_scenario
from riskalloc.harness import default_corpus, run_axiom_suite, serialize_reports

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
