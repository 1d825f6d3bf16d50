"""Pinned outputs: ``riskalloc run`` reproduces fixed lattice reports byte for byte.

Each config in ``tests/golden`` is an N=60 lattice scenario with all seven
rule specs, pairs sharing one portfolio, an exact decomposition and the
no_undercut, car_identity, riskless and full_alloc axioms.  ``hashes.json``
holds the SHA-256 of its ``values.csv`` and ``axioms.txt`` (not of
``manifest.txt``, which carries a timestamp).  A change that alters these
floats on purpose regenerates the hashes and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from riskalloc.cli import run_scenario

GOLDEN = Path(__file__).parent / "golden"
HASHES = json.loads((GOLDEN / "hashes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("config", sorted(HASHES))
def test_reports_match_pinned_hashes(config, tmp_path):
    code, out = run_scenario(GOLDEN / config, tmp_path / "out")
    assert code == 0
    for name, expected in HASHES[config].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == expected, f"{config}: {name} changed"
