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
