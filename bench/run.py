"""Benchmark of riskalloc: one workload, end to end or per layer.

    python3 bench/run.py --workload lattice-axioms --seed 2024 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  A run first builds the workload's inputs in a few set-up-only
processes, then runs whole passes, each in a fresh Python process, for as
long as the next pass fits in ``--seconds`` (always at least one).  With
``--trace 1`` one more pass runs with the per-layer trace on.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": <passes>, "failed": <passes>, "metrics": {...}}

with the end-to-end metrics (medians over the untraced passes) under
``--trace 0`` and the per-layer metrics under ``--trace 1``.  See
``bench/README.md`` for the workloads, metrics and tolerances.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEEDS = {"lattice-axioms": 2024, "ensemble-axioms": 13, "cli-scenario": 0}
SETUP_REPEATS = 5
BLAS_THREADS = "1"
DEADLINE_S = 170.0          # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = (("calls", "count"), ("distinct", "count"), ("cells", "count"),
                   ("reachable_share", "ratio"), ("min_margin", "ratio"),
                   ("min_ess_share", "ratio"), ("self_sum_share", "ratio"),
                   ("solves_per_allocate", "solves/call"),
                   ("output_bytes", "bytes"))


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "s"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(workload, seed, mode, trace, workdir, index, deadline):
    """One child process; returns its JSON record (``ok`` false on failure)."""
    result = workdir / f"{mode}-{index}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{mode} {index} timed out",
                "elapsed": time.perf_counter() - started}
    try:
        record = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {"ok": False, "error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
    record["elapsed"] = time.perf_counter() - started
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if not (ROOT / "src" / "riskalloc" / "__init__.py").is_file():
        sys.stderr.write(f"no riskalloc sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups = [run_child(args.workload, seed, "setup", 0, workdir, i, deadline)
              for i in range(SETUP_REPEATS)]
    broken = [s for s in setups if not s["ok"]]
    if broken:
        sys.stderr.write("set-up failed:\n" + broken[0].get("error", "") + "\n")
        return 1

    passes = []
    begin = time.perf_counter()
    while True:
        rec = run_child(args.workload, seed, "pass", 0, workdir, len(passes), deadline)
        passes.append(rec)
        elapsed = time.perf_counter() - begin
        if elapsed + rec["elapsed"] > args.seconds \
                or time.monotonic() + rec["elapsed"] > deadline:
            break
    traced = None
    if args.trace:
        traced = run_child(args.workload, seed, "pass", 1, workdir, len(passes),
                           deadline)
        passes.append(traced)

    correct = True
    failed = 0
    digests = set()
    for i, rec in enumerate(passes):
        fails = rec.get("check_failures", [])
        label = f"pass {i}{' (traced)' if rec is traced else ''}"
        if not rec["ok"]:
            failed += 1
            sys.stderr.write(f"{label} raised:\n{rec.get('error', '')}\n")
            continue
        if fails:
            failed += 1
            correct = False
            sys.stderr.write(f"{label} failed its checks:\n  "
                             + "\n  ".join(fails) + "\n")
        if rec.get("digest"):
            digests.add(rec["digest"])
        print(f"{label}: wall_s={rec['wall_s']:.4f} setup_s={rec['setup_s']:.4f} "
              f"peak_rss_mb={rec['peak_rss_mb']:.1f} cpu_s={rec['cpu_s']:.4f} "
              f"checks={'ok' if not fails else 'FAILED'}")
    if len(digests) > 1:
        correct = False
        sys.stderr.write("values.csv/axioms.txt differ between passes\n")

    plain = [r for r in passes if r["ok"] and r is not traced]
    if not plain or (traced is not None and not traced["ok"]):
        sys.stderr.write("no pass completed; nothing to report\n")
        return 1
    print("machine: " + json.dumps(plain[0]["machine"], sort_keys=True))
    print(f"workload={args.workload} seed={seed} passes={len(plain)} "
          f"setups={len(setups)}")

    if args.trace:
        layers = dict(traced["layers"])
        layers["cli.output_bytes"] = traced["output_bytes"]
        layers["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["trace.overhead_s"] = \
            traced["wall_s"] - statistics.median(r["wall_s"] for r in plain)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in layers.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median([s["setup_s"] for s in setups]
                                         + [r["setup_s"] for r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
