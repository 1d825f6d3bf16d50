"""One pass of a benchmark workload, in a fresh Python process.

    python3 bench/workloads.py --workload NAME --seed N --mode setup|pass \\
        --trace 0|1 --workdir DIR --result FILE

``--mode setup`` imports riskalloc, builds the workload's inputs and
stops.  ``--mode pass`` then runs the workload once (the timed region),
checks every output against references computed apart from the program,
and writes one JSON record to FILE.  ``bench/run.py`` starts these
processes; nothing the program caches carries from one pass to the next.
"""

import time

START = time.perf_counter()  # set-up time counts from here: imports are part of it


import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import references as ref  # noqa: E402

# The harness's lattice comparisons are exact; these are its verdicts'
# own tolerances, and the rho comparison of the coherent suite is exact
# algebra on the lattice (see README, "Tolerances").
COHERENT_RHO_TOL = 1e-9
# Monte Carlo bands: six block standard errors, plus the time-discretization
# allowance dt/4 for the closed-form Brownian values (README, "Tolerances").
SE_BAND = 6.0
SE_BLOCKS = 20


class LatticeAxioms:
    """Acceptance criterion 05: the coherent axiom suite on an N=200 lattice."""

    name = "lattice-axioms"
    axioms = ["no_undercut", "mono", "riskless", "cash_add_1", "cash_add",
              "sub_alloc", "weak_convex", "tc1", "tc2", "full_alloc"]
    steps, mu = 200, 0.5
    # monotone portfolios of the corpus and their payoffs, written out here
    # so the reference does not reuse the corpus's own callables
    monotone = {"lin": lambda w: w, "call0": lambda w: np.maximum(w, 0.0),
                "squash": lambda w: w / (1.0 + np.abs(w))}

    def setup(self, ra, seed, workdir):
        return {"tree": ra.grid.build_tree(ra.grid.build_grid(1.0, self.steps)),
                "driver": ra.drivers.driver_scaled_norm(self.mu),
                "corpus": ra.harness.default_corpus(seed)}

    def run(self, ra, inputs, workdir):
        return ra.harness.run_axiom_suite(
            self.axioms, "subdiff", inputs["driver"], inputs["corpus"],
            inputs["tree"], tolerances={"full_alloc": 1e-10})

    def check(self, ra, inputs, reports, workdir):
        fails = _verdicts(reports, self.axioms)
        states = ref.terminal_states(self.steps)
        claims = {c.label: c for c in inputs["corpus"].claims}
        for label, payoff in self.monotone.items():
            risk = ra.measure.rho(inputs["driver"], claims[label],
                                  inputs["tree"]).values
            expect = ref.worst_case_risk(payoff(states), self.mu)
            gap = max(float(np.max(np.abs(np.asarray(a) - b)))
                      for a, b in zip(risk, expect))
            if not gap <= COHERENT_RHO_TOL:
                fails.append(f"rho[{label}] differs from the worst-case tilted "
                             f"expectation by {gap:.3e}")
        return fails, None, 0


class EnsembleAxioms:
    """The statistical axiom suite and both subdifferential routes on a
    20,000-path ensemble of 25 steps."""

    name = "ensemble-axioms"
    axioms = ["no_undercut", "car_identity", "sub_alloc", "weak_convex"]
    steps, paths, lam = 25, 20_000, 1.0

    def setup(self, ra, seed, workdir):
        grid = ra.grid.build_grid(1.0, self.steps)
        return {"paths": ra.grid.sample_paths(grid, 1, self.paths, seed),
                "driver": ra.drivers.driver_entropic(self.lam),
                "corpus": ra.harness.default_corpus()}

    def run(self, ra, inputs, workdir):
        paths, driver, corpus = inputs["paths"], inputs["driver"], inputs["corpus"]
        reports = ra.harness.run_axiom_suite(self.axioms, "subdiff", driver,
                                             corpus, paths)
        routes = {}
        for i in corpus.portfolios:
            y = corpus.claims[i]
            bsde = ra.allocation.car_subdifferential(driver, y, y, paths,
                                                     route="bsde")
            dual = ra.allocation.car_subdifferential(driver, y, y, paths,
                                                     route="dual")
            routes[y.label] = (bsde.initial, dual.initial,
                               bsde.base_solution.initial)
        return reports, routes

    def check(self, ra, inputs, outputs, workdir):
        reports, routes = outputs
        fails = _verdicts(reports, self.axioms)
        paths, driver = inputs["paths"], inputs["driver"]
        claims = {c.label: c for c in inputs["corpus"].claims}
        car = ra.allocation.car_subdifferential
        for label, (bsde, dual, _) in routes.items():
            y = claims[label]

            def gap(e, y=y):
                return (car(driver, y, y, e, route="bsde").initial
                        - car(driver, y, y, e, route="dual").initial)

            _, se = ra.engine.lsmc_block_estimate(gap, paths, SE_BLOCKS)
            if not abs(bsde - dual) <= SE_BAND * se:
                fails.append(f"bsde and dual routes of {label} differ by "
                             f"{bsde - dual:.3e}, band {SE_BAND * se:.3e}")
        allowance = 0.25 / self.steps
        exact = {"lin": ref.brownian_entropic_linear(self.lam),
                 "call0": ref.brownian_entropic_call(self.lam)}
        for label, value in exact.items():
            y = claims[label]
            _, se = ra.engine.lsmc_block_estimate(
                lambda e, y=y: ra.measure.rho(driver, y, e).initial, paths,
                SE_BLOCKS)
            risk = routes[label][2]
            if not abs(risk - value) <= allowance + SE_BAND * se:
                fails.append(f"rho[{label}] = {risk:.5f}, closed form "
                             f"{value:.5f}, tolerance "
                             f"{allowance + SE_BAND * se:.5f}")
        return fails, None, 0


CLI_CONFIG = """\
[scenario]
T = 1.0
N = {steps}
engine = tree
driver = entropic:lambda={lam:g}
rules = grad, subdiff, marginal, as, pas, custom:ent1:c=2, custom:ent2:lt=2
pairs = X:Y, Z:Y, Y:Y
times = 0, 0.5
axioms = no_undercut, car_identity
seed = {seed}

[position:Y]
expr = W

[position:X]
expr = max(W,0)

[position:Z]
expr = W/(1+abs(W))
"""


class CliScenario:
    """``riskalloc run`` on an entropic N=500 lattice: seven rules, three
    pairs, two report times and two axioms."""

    name = "cli-scenario"
    steps, lam = 500, 1.0
    positions = {"Y": lambda w: w, "X": lambda w: np.maximum(w, 0.0),
                 "Z": lambda w: w / (1.0 + np.abs(w))}
    pairs = (("X", "Y"), ("Z", "Y"), ("Y", "Y"))
    times = (0.0, 0.5)
    # verdicts fixed by the theory; other rule/axiom pairs are not checked
    verdicts = {("subdiff", "no_undercut"): "pass",
                ("subdiff", "car_identity"): "pass",
                ("grad", "no_undercut"): "fail",
                ("pas", "car_identity"): "fail",
                ("as", "car_identity"): "pass",
                ("marginal", "car_identity"): "pass",
                ("custom:ent1:c=2", "car_identity"): "pass",
                ("custom:ent2:lt=2", "car_identity"): "pass"}

    def setup(self, ra, seed, workdir):
        config = workdir / "scenario.cfg"
        config.write_text(CLI_CONFIG.format(steps=self.steps, lam=self.lam,
                                            seed=seed), encoding="utf-8")
        ra.cli.ScenarioConfig.load(config)
        return {"config": config, "out": workdir / "report"}

    def run(self, ra, inputs, workdir):
        code = ra.cli.main(["run", str(inputs["config"]), "--out",
                            str(inputs["out"])])
        if code != 0:
            raise RuntimeError(f"riskalloc run exited with {code}")
        return inputs["out"]

    def references(self):
        """Exact lattice entropic forms of every checked quantity."""
        states = ref.terminal_states(self.steps)
        pos = {name: f(states) for name, f in self.positions.items()}
        out = {f"rho[{n}]": ref.entropic_risk(v, self.lam) for n, v in pos.items()}
        for sub, port in self.pairs:
            x, y = pos[sub], pos[port]
            tag = f"{sub};{port}"
            out[f"Lambda[grad][{tag}]"] = ref.entropic_gradient_alloc(x, y, self.lam)
            out[f"Lambda[marginal][{tag}]"] = ref.entropic_marginal_alloc(x, y, self.lam)
            out[f"Lambda[custom:ent1:c=2][{tag}]"] = ref.entropic_drift_alloc(
                x, y, self.lam, 2.0)
            out[f"Lambda[custom:ent2:lt=2][{tag}]"] = ref.entropic_two_level_alloc(
                x, y, self.lam, 2.0)
        return out

    def check(self, ra, inputs, out, workdir):
        fails = []
        values = {}
        with open(out / "values.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                values[(row["quantity"], float(row["time"]), row["state"])] = \
                    float(row["value"])
        # the scheme's discretization error is O(1/N); tier-1 allows 1e-2
        # at N = 200, that is 2/N, and the same 2/N applies here
        tol = 2.0 / self.steps
        for quantity, levels in self.references().items():
            for t in self.times:
                level = levels[round(t * self.steps)]
                for stat, fn in (("min", np.min), ("mean", np.mean),
                                 ("max", np.max)):
                    got = values.get((quantity, t, stat))
                    if got is None or not abs(got - fn(level)) <= tol:
                        fails.append(f"{quantity} {stat} at t={t:g}: {got} vs "
                                     f"exact lattice {fn(level):.6g}")
        for t in self.times:
            risk = values[("rho[Y]", t, "mean")]
            for stat in ("min", "mean", "max"):
                rho_y = values[("rho[Y]", t, stat)]
                if not abs(values[("Lambda[subdiff][Y;Y]", t, stat)] - rho_y) <= 1e-9:
                    fails.append(f"Lambda[subdiff][Y;Y] {stat} at t={t:g} != rho[Y]")
                if not abs(values[("Lambda[as][Y;Y]", t, stat)] - rho_y) <= 1e-4:
                    fails.append(f"Lambda[as][Y;Y] {stat} at t={t:g} off rho[Y] by "
                                 "more than 1e-4")
            if not values[("Lambda[pas][Y;Y]", t, "mean")] < risk - 1e-3:
                fails.append(f"Lambda[pas][Y;Y] at t={t:g} is not below "
                             "rho[Y] - 1e-3")
        seen = {}
        for line in (out / "axioms.txt").read_text(encoding="utf-8").splitlines():
            fields = dict(item.split("=", 1) for item in line.split(" ")
                          if "=" in item)
            rule = line.split("note=rule=", 1)[1].split(" ")[0]
            seen[(rule, fields["axiom"])] = fields["status"]
        for key, status in self.verdicts.items():
            if seen.get(key) != status:
                fails.append(f"rule {key[0]} axiom {key[1]}: {seen.get(key)}, "
                             f"expected {status}")
        digest = hashlib.sha256()
        for name in ("values.csv", "axioms.txt"):
            digest.update((out / name).read_bytes())
        size = sum((out / n).stat().st_size
                   for n in ("values.csv", "axioms.txt", "manifest.txt"))
        return fails, digest.hexdigest(), size


WORKLOADS = {w.name: w for w in (LatticeAxioms(), EnsembleAxioms(), CliScenario())}


def _verdicts(reports, axioms):
    fails = [f"axiom {r.axiom}: {r.status} ({r.to_record()})"
             for r in reports if r.status != "pass"]
    if [r.axiom for r in reports] != list(axioms):
        fails.append("the suite did not report the requested axioms in order")
    return fails


def _machine(ra):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, AttributeError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "riskalloc": ra.__version__,
            "cpus": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _pass(args, result):
    import riskalloc.cli  # noqa: F401  (binds every submodule on the package)
    ra = sys.modules["riskalloc"]
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(tracing.Tracer())
        tracer.active = True
    inputs = workload.setup(ra, args.seed, workdir)
    result["setup_s"] = time.perf_counter() - START
    result["machine"] = _machine(ra)
    if args.mode == "setup":
        return
    sample_paths_s = 0.0
    if tracer is not None:
        sample_paths_s = tracer.seconds["grid.sample_paths"]
        tracer.reset()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outputs = workload.run(ra, inputs, workdir)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.active = False
        result["layers"] = tracing.layer_metrics(tracer, wall, sample_paths_s)
    result["wall_s"] = wall
    result["cpu_s"] = (after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime)
    result["peak_rss_mb"] = after.ru_maxrss * 1024 / 1e6
    fails, digest, size = workload.check(ra, inputs, outputs, workdir)
    result.update(check_failures=fails, digest=digest, output_bytes=size)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = {"ok": False}
    try:
        _pass(args, result)
        result["ok"] = True
    except Exception:  # a failed pass is reported, not fatal to the run
        result["error"] = traceback.format_exc()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
