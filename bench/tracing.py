"""Per-layer trace of a riskalloc pass, recorded from outside the package.

``install`` replaces public callables of each riskalloc module with thin
wrappers that time every call.  A name imported into another module with
``from .engine import ...`` is a second binding of the same function, so
every riskalloc module attribute that *is* the original function is
rebound, not only the defining one.  Methods are patched on their class.
Nothing under ``src/`` changes, and with the tracer inactive a wrapper
only forwards the call.

Layers are the package modules.  A wrapped call's self time is its
duration minus the durations of the wrapped calls it made; the self times
of a layer add up over all its calls.  Bookkeeping done after a call
(content hashes for the ``distinct`` counts, cell counts, kernel health)
runs with the tracer paused and is charged to ``trace.bookkeeping_s``,
never to a layer.  Spans are aggregated as they close, not stored, so the
trace costs memory only for its counters and content keys.
"""

import functools
import hashlib
import time
from collections import defaultdict

import numpy as np

LAYERS = ("grid", "drivers", "engine", "measure", "allocation", "harness",
          "payoff", "cli")

ALLOCATE = "allocation.allocate"
SOLVE_GROUPS = ("engine.solve_tree", "engine.solve_alloc_tree",
                "engine.solve_lsmc", "engine.solve_alloc_lsmc")

# rule name of each allocation entry point, used in the allocate content key
# (``car_from_alloc_driver`` takes its name from the allocation driver)
_CAR_RULES = {"car_gradient": "grad", "car_subdifferential": "subdiff",
              "car_marginal": "marginal", "car_aumann_shapley": "as",
              "car_penalized_as": "pas", "car_from_alloc_driver": None}


def _digest(array):
    a = np.ascontiguousarray(np.asarray(array, dtype=float))
    return (a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest())


class Tracer:
    """Aggregated spans: calls and inclusive time per metric group, self
    time per layer, plus the counters the wrappers' hooks record."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.stack = []
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.group_self = defaultdict(float)
        self.keys = defaultdict(set)
        self.counts = defaultdict(float)
        self.bookkeeping_s = 0.0
        self.min_margin = None
        self.min_ess_share = None
        self._claim_digests = {}

    def wrap(self, fn, layer, group=None, hook=None):
        """Wrapper of ``fn``; ``group`` names the metric (a string, or a
        function of the call's arguments), ``hook`` runs after a call that
        returned, with the tracer paused."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = group(args) if callable(group) else group
            outer = False
            if name is not None:
                outer = tracer.depth[name] == 0
                tracer.depth[name] += 1
            frame = [0.0]
            stack = tracer.stack
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                tracer.layer_self[layer] += spent - frame[0]
                if name is not None:
                    tracer.group_self[name] += spent - frame[0]
                    tracer.depth[name] -= 1
                    if outer:
                        tracer.calls[name] += 1
                        tracer.seconds[name] += spent
            if hook is not None:
                mark = clock()
                tracer.active = False
                try:
                    hook(tracer, name, outer, args, kwargs, out)
                finally:
                    tracer.active = True
                    extra = clock() - mark
                    tracer.bookkeeping_s += extra
                    spent += extra
            if stack:
                stack[-1][0] += spent
            return out

        return wrapper

    # -- content keys ------------------------------------------------------

    def claim_digest(self, claim, disc, engine, grid):
        if isinstance(claim, engine.TerminalClaim):
            key = (claim, id(disc))
            if key not in self._claim_digests:
                values = (claim.on_tree(disc) if isinstance(disc, grid.TreeModel)
                          else claim.on_paths(disc))
                self._claim_digests[key] = _digest(values)
            return self._claim_digests[key]
        if isinstance(claim, engine.RevealedClaim):
            return (claim.level, _digest(claim.terminal_matrix(disc)))
        return _digest(claim)


def _solve_hook(tracer, name, outer, args, kwargs, sol):
    """Cells, revealed-cone share and content key of a lattice or LSMC solve."""
    if tracer.depth[ALLOCATE] > 0:
        tracer.counts["allocation.solves"] += 1
    n = len(sol.values) - 1
    key = (getattr(sol.driver, "name", None), sol.reveal, _digest(sol.values[n]))
    tracer.keys[name].add(key)
    if sol.method != "tree":
        return
    tracer.counts[name + ".cells"] += sum(v.size for v in sol.values[:n])
    r = sol.reveal
    if r is not None:
        tracer.counts["engine.revealed.cells"] += sum(v.size for v in sol.values[r:n])
        # row v of a level-k matrix reaches nodes v .. v + k - r
        tracer.counts["engine.revealed.reachable"] += \
            (r + 1) * sum(k - r + 1 for k in range(r, n))


def _allocate_hook(rule_of, engine, grid):
    """Content key of an allocate call: rule, driver, sub-position and
    portfolio values.  Only the outermost allocate call of a nest counts."""
    def hook(tracer, name, outer, args, kwargs, proc):
        if not outer:
            return
        disc = args[3] if len(args) > 3 else kwargs["disc"]
        tracer.keys[name].add((rule_of(args, kwargs),
                               tracer.claim_digest(args[1], disc, engine, grid),
                               tracer.claim_digest(args[2], disc, engine, grid)))
    return hook


def _rule_of_car_rule(args, kwargs):
    rule = args[0]
    return (rule.name, rule.route if rule.name == "subdiff" else "",
            rule.driver.name)


def _rule_of_car(entry):
    if entry == "car_from_alloc_driver":
        return lambda args, kwargs: ("custom:" + args[0].name, "",
                                     args[0].base.name)
    if entry == "car_subdifferential":
        return lambda args, kwargs: (
            "subdiff", kwargs.get("route", args[5] if len(args) > 5 else "bsde"),
            args[0].name)
    return lambda args, kwargs: (_CAR_RULES[entry], "", args[0].name)


def _kernel_hook(tracer, name, outer, args, kwargs, kernel):
    """Lattice tilt margin 1 - |q| sqrt(dt) and Kish effective sample share."""
    if kernel.on_tree:
        s = kernel.discretization.sqrt_dt
        q = np.concatenate(kernel.q)      # kernels come from plain solves: 1-d levels
        margin = 1.0 - (float(np.max(np.abs(q))) if q.size else 0.0) * s
        tracer.min_margin = margin if tracer.min_margin is None \
            else min(tracer.min_margin, margin)
    if kernel.density is not None:
        w = np.asarray(kernel.density[-1], dtype=float)
        share = float(np.sum(w) ** 2 / (np.sum(w * w) * w.size))
        tracer.min_ess_share = share if tracer.min_ess_share is None \
            else min(tracer.min_ess_share, share)


def _rebind(package_modules, original, wrapper):
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap riskalloc's public callables; returns the tracer."""
    import riskalloc
    from riskalloc import (allocation, cli, drivers, engine, grid, harness,
                           measure, oracles, payoff)
    modules = (riskalloc, grid, drivers, engine, measure, allocation, harness,
               oracles, payoff, cli)

    def function(layer, module, attr, group=None, hook=None):
        original = getattr(module, attr)
        _rebind(modules, original, tracer.wrap(original, layer, group, hook))

    def method(layer, cls, attr, group=None, hook=None):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), layer, group, hook))

    for attr in ("build_grid", "build_tree"):
        function("grid", grid, attr)
    function("grid", grid, "sample_paths", "grid.sample_paths")
    method("grid", grid.TreeModel, "states")
    # both read path states through the cumulative sum of the increments
    method("grid", grid.PathEnsemble, "state_at", "grid.state_at")
    method("grid", grid.PathEnsemble, "terminal_values", "grid.state_at")

    method("drivers", drivers.Driver, "evaluate", "drivers.evaluate")
    method("drivers", drivers.AllocDriver, "evaluate", "drivers.evaluate")
    for attr in ("subgradient", "conjugate"):
        method("drivers", drivers.Driver, attr)
    method("drivers", drivers.AllocDriver, "subgradient_z")
    method("drivers", drivers.Driver, "with_subgradient", "drivers.build")
    for attr in drivers.__all__:
        if attr.startswith(("driver_", "alloc_driver_")) or attr == "make_driver":
            function("drivers", drivers, attr, "drivers.build")

    for attr in ("solve_tree", "solve_alloc_tree", "solve_lsmc",
                 "solve_alloc_lsmc"):
        function("engine", engine, attr, "engine." + attr, _solve_hook)
    function("engine", engine, "tree_backward", "engine.tree_backward")
    for attr in ("lsmc_block_estimate", "lsmc_standard_error"):
        function("engine", engine, attr)
    method("engine", engine.TerminalClaim, "evaluate", "engine.claim_eval")
    method("engine", engine.RevealedClaim, "terminal_matrix")

    for attr in ("rho", "expectation_under_Q", "penalty"):
        function("measure", measure, attr, "measure." + attr)
    function("measure", measure, "kernel_from_subgradient",
             "measure.kernel_from_subgradient", _kernel_hook)
    function("measure", measure, "constant_kernel", None, _kernel_hook)
    function("measure", measure, "dual_value")

    method("allocation", allocation.CarRule, "allocate", ALLOCATE,
           _allocate_hook(_rule_of_car_rule, engine, grid))
    method("allocation", allocation.CarRule, "risk")
    function("allocation", allocation, "make_rule")
    for attr in _CAR_RULES:
        function("allocation", allocation, attr, ALLOCATE,
                 _allocate_hook(_rule_of_car(attr), engine, grid))

    for attr in ("run_axiom_suite", "check_axiom", "default_corpus",
                 "serialize_reports"):
        function("harness", harness, attr)
    # the per-axiom dispatch is private: it is the only per-axiom entry
    # point that shares the suite's cache
    for attr in ("_tree_axiom", "_ensemble_axiom"):
        function("harness", harness, attr, lambda args: "harness.axiom." + args[0])

    function("payoff", payoff, "parse_payoff", "payoff.parse")
    function("payoff", payoff, "evaluate", "payoff.evaluate")
    function("payoff", payoff, "to_string")

    for attr in ("main", "run_scenario", "parse_driver_spec", "parse_alloc_spec",
                 "parse_rule_spec", "catalog_text"):
        function("cli", cli, attr)
    return tracer


AXIOMS = ("no_undercut", "mono", "riskless", "cash_add_1", "cash_add",
          "sub_alloc", "weak_convex", "tc1", "tc2", "full_alloc",
          "car_identity")


def layer_metrics(tracer, traced_wall_s, setup_sample_paths_s):
    """Per-layer figures of one traced pass; the ensemble draw happens
    while the inputs are built, so its time comes from the set-up."""
    calls, seconds, counts = tracer.calls, tracer.seconds, tracer.counts
    out = {}

    def timed(name):
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = seconds[name]

    timed("grid.state_at")
    out["grid.sample_paths.s"] = setup_sample_paths_s + seconds["grid.sample_paths"]
    timed("drivers.evaluate")
    timed("drivers.build")
    for name in SOLVE_GROUPS:
        timed(name)
    for name in ("engine.solve_tree", "engine.solve_lsmc"):
        out[name + ".distinct"] = len(tracer.keys[name])
    for name in ("engine.solve_tree", "engine.solve_alloc_tree"):
        out[name + ".cells"] = int(counts[name + ".cells"])
    timed("engine.tree_backward")
    revealed = counts["engine.revealed.cells"]
    out["engine.revealed.cells"] = int(revealed)
    out["engine.revealed.reachable_share"] = \
        counts["engine.revealed.reachable"] / revealed if revealed else 1.0
    out["engine.lsmc.self_s"] = (tracer.group_self["engine.solve_lsmc"]
                                 + tracer.group_self["engine.solve_alloc_lsmc"])
    timed("engine.claim_eval")
    for name in ("rho", "kernel_from_subgradient", "expectation_under_Q",
                 "penalty"):
        timed("measure." + name)
    out["measure.kernel.min_margin"] = \
        1.0 if tracer.min_margin is None else tracer.min_margin
    out["measure.density.min_ess_share"] = \
        1.0 if tracer.min_ess_share is None else tracer.min_ess_share
    timed(ALLOCATE)
    out[ALLOCATE + ".distinct"] = len(tracer.keys[ALLOCATE])
    out["allocation.solves_per_allocate"] = \
        counts["allocation.solves"] / calls[ALLOCATE] if calls[ALLOCATE] else 0.0
    for axiom in AXIOMS:
        out[f"harness.axiom.{axiom}.s"] = seconds["harness.axiom." + axiom]
    out["payoff.parse.s"] = seconds["payoff.parse"]
    timed("payoff.evaluate")
    for layer in LAYERS:
        out[layer + ".self_s"] = tracer.layer_self[layer]
    out["trace.wall_s"] = traced_wall_s
    out["trace.bookkeeping_s"] = tracer.bookkeeping_s
    out["trace.self_sum_share"] = \
        sum(tracer.layer_self.values()) / traced_wall_s
    return out
