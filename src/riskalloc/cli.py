"""Batch front-end: scenario configs in, CSV values and axiom reports out.

Config format: INI-style sections with ``key = value`` lines.  The
``[scenario]`` section holds grid, engine, driver, rule and check settings;
each ``[position:<name>]`` block defines a payoff expression; optional
``[decomposition:<name>]`` blocks name exact splits of a declared position.

Exit codes: 0 success, 1 axiom failures under --strict, 2 configuration
errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import RULE_NAMES, QuadratureSpec, SolveCache, make_rule
from .drivers import (Driver, alloc_driver_entropic_drift,
                      alloc_driver_entropic_two_level, alloc_driver_gradient,
                      alloc_driver_marginal, alloc_driver_subdiff,
                      driver_entropic, driver_scaled_norm, driver_zero)
from .engine import (BasisSpec, TerminalClaim, _check_tree_preconditions,
                     combine_claims, lsmc_standard_error)
from .errors import (ConfigError, NumericalFailureError,
                     RejectedConfigurationError, RiskAllocError)
from .grid import build_grid, build_tree, sample_paths
from .harness import AXIOM_IDS, PositionCorpus, run_axiom_suite, serialize_reports
from .payoff import evaluate as eval_payoff
from .payoff import parse_payoff

MAX_NODES_LISTED = 12

# Spec tables: a head's numeric parameters and its builder, which looks
# the factories up when called.
DRIVERS = {
    "zero": ((), lambda p: driver_zero()),
    "norm": (("mu",), lambda p: driver_scaled_norm(p["mu"])),
    "entropic": (("lambda",), lambda p: driver_entropic(p["lambda"])),
}
# Allocation drivers over the run's risk driver ``base``.  The entropic ones
# build their own base from ``lam()``, the lambda of the run driver's spec
# (its name rounds lambda to six digits); the run driver itself stands in
# for that base, so a solve cache serves the rule the run's risk solve of
# the portfolio.
ALLOC_DRIVERS = {
    "grad": ((), lambda p, base, lam: alloc_driver_gradient(base)),
    "subdiff": ((), lambda p, base, lam: alloc_driver_subdiff(base)),
    "marginal": ((), lambda p, base, lam: alloc_driver_marginal(base)),
    "ent1": (("c",), lambda p, base, lam: replace(
        alloc_driver_entropic_drift(lam(), p["c"]), base=base)),
    "ent2": (("lt",), lambda p, base, lam: replace(
        alloc_driver_entropic_two_level(lam(), p["lt"]), base=base)),
}


def _specs(table) -> tuple:
    return tuple(head + (":" if keys else "") + ",".join(f"{k}=<x>" for k in keys)
                 for head, (keys, _) in table.items())


RULE_SPECS = RULE_NAMES + ("custom:<alloc-driver-spec>",)


def _parse_kv(spec: str) -> tuple[str, dict]:
    head, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"malformed parameter {item!r} in {spec!r}")
            key = key.strip()
            params[key] = _finite(val, float, f"parameter {key!r} of {spec!r}")
    return head.strip(), params


def _build(kind: str, table: dict, spec: str, *args):
    head, params = _parse_kv(spec)
    if head not in table:
        raise ConfigError(
            f"unknown {kind} {spec!r}; known: {', '.join(_specs(table))}")
    keys, build = table[head]
    for key in keys:
        if key not in params:
            raise ConfigError(f"{kind} {spec!r} needs {key}=<x>")
    return build(params, *args)


def parse_driver_spec(spec: str) -> Driver:
    return _build("driver", DRIVERS, spec)


def parse_alloc_spec(spec: str, base: Driver, base_spec: str):
    """Allocation driver ``spec`` over the run's risk driver ``base``,
    which was parsed from ``base_spec``."""
    def lam():
        name, params = _parse_kv(base_spec)
        if name != "entropic":
            raise ConfigError(
                f"alloc driver {spec!r} requires the entropic risk driver")
        return params["lambda"]
    return _build("alloc driver", ALLOC_DRIVERS, spec, base, lam)


def parse_rule_spec(spec: str, driver: Driver, driver_spec: str,
                    quadrature: QuadratureSpec):
    spec = spec.strip()
    if spec.startswith("custom:"):
        alloc = parse_alloc_spec(spec[len("custom:"):], driver, driver_spec)
        return make_rule("custom", driver, alloc_driver=alloc)
    if spec in RULE_NAMES:
        return make_rule(spec, driver, quadrature=quadrature)
    raise ConfigError(f"unknown rule {spec!r}; known: {', '.join(RULE_SPECS)}")


@dataclass
class ScenarioConfig:
    """Validated scenario: grid, engine, driver, rules, positions, checks."""

    horizon: float
    steps: int
    engine: str
    driver_spec: str
    rule_specs: list
    positions: dict                  # name -> expression text
    pairs: list                      # (sub name, portfolio name)
    times: list
    axioms: list
    decompositions: list             # (name, part names, total name)
    payoff_bound: float = 1e6
    mc_paths: int = 0
    seed: int = 0
    basis_degree: int = 3
    dimension: int = 1
    quadrature_points: int = 32
    strict: bool = False

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config {path}")
        if "scenario" not in parser:
            raise ConfigError("config needs a [scenario] section")
        sc = parser["scenario"]
        known = {"T", "N", "engine", "driver", "rules", "pairs", "times",
                 "axioms", "payoff_bound", "M", "seed", "basis_degree",
                 "dimension", "quadrature", "strict"}
        unknown = set(sc) - known
        if unknown:
            raise ConfigError(f"unknown scenario keys: {', '.join(sorted(unknown))}")
        horizon = _number(sc, "T", float, "")
        steps = _number(sc, "N", int, "")
        engine = sc.get("engine", "tree").strip()
        if engine not in ("tree", "lsmc"):
            raise ConfigError(f"engine must be tree or lsmc, got {engine!r}")
        positions = {}
        decos = []
        for section in parser.sections():
            if section.startswith("position:"):
                name = section.split(":", 1)[1]
                if "expr" not in parser[section]:
                    raise ConfigError(f"[{section}] needs expr = <payoff>")
                positions[name] = parser[section]["expr"]
            elif section.startswith("decomposition:"):
                name = section.split(":", 1)[1]
                block = parser[section]
                if "total" not in block or "parts" not in block:
                    raise ConfigError(f"[{section}] needs total and parts")
                parts = [p.strip() for p in block["parts"].split(",") if p.strip()]
                decos.append((name, parts, block["total"].strip()))
            elif section != "scenario":
                raise ConfigError(f"unknown section [{section}]")
        pairs = []
        for item in _split(sc.get("pairs", "")):
            sub, sep, port = item.partition(":")
            if not sep:
                raise ConfigError(f"pair {item!r} must be <sub>:<portfolio>")
            pairs.append((sub.strip(), port.strip()))
        times = [_finite(item, float, "scenario key times")
                 for item in _split(sc.get("times", "0"))]
        config = cls(
            horizon=horizon, steps=steps, engine=engine,
            driver_spec=sc.get("driver", "zero").strip(),
            rule_specs=_split(sc.get("rules", "")),
            positions=positions, pairs=pairs, times=times,
            axioms=_split(sc.get("axioms", "")),
            decompositions=decos,
            payoff_bound=_number(sc, "payoff_bound", float, "1e6"),
            mc_paths=_number(sc, "M", int, "0"),
            seed=_number(sc, "seed", int, "0"),
            basis_degree=_number(sc, "basis_degree", int, "3"),
            dimension=_number(sc, "dimension", int, "1"),
            quadrature_points=_number(sc, "quadrature", int, "32"),
            strict=sc.get("strict", "false").strip().lower() in ("1", "true", "yes"),
        )
        config.validate()
        return config

    def validate(self):
        if self.horizon <= 0 or self.steps < 1:
            raise ConfigError("T must be positive and N >= 1")
        for axiom in self.axioms:
            if axiom not in AXIOM_IDS:
                raise ConfigError(
                    f"unknown axiom {axiom!r}; known: {', '.join(AXIOM_IDS)}")
        for sub, port in self.pairs:
            for name in (sub, port):
                if name not in self.positions:
                    raise ConfigError(f"pair references unknown position {name!r}")
        for name, parts, total in self.decompositions:
            for p in parts + [total]:
                if p not in self.positions:
                    raise ConfigError(
                        f"decomposition {name!r} references unknown position {p!r}")
            if not 2 <= len(parts) <= 8:
                raise ConfigError(f"decomposition {name!r} needs 2..8 parts")
        dt = self.horizon / self.steps
        for t in self.times:
            level = round(t / dt)
            if not 0 <= level <= self.steps or abs(level * dt - t) > 1e-9:
                raise ConfigError(f"time {t} is not a grid point (dt = {dt:g})")
        for key, low in (("seed", 0), ("basis_degree", 0), ("dimension", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"scenario key {key} must be >= {low}, "
                                  f"got {getattr(self, key)}")
        if self.engine == "lsmc":
            if self.mc_paths < 1:
                raise ConfigError("lsmc engine needs M >= 1")
            basis = BasisSpec(self.basis_degree)
            if self.mc_paths < 10 * basis.size(self.dimension):
                raise ConfigError(
                    f"M = {self.mc_paths} too small for the basis "
                    f"({basis.size(self.dimension)} functions)")
        if self.quadrature_points < 1:
            raise ConfigError("quadrature needs at least one point")
        if self.engine == "tree" and self.dimension != 1:
            raise ConfigError("the lattice engine is one-dimensional")

    def level_of(self, t: float) -> int:
        return round(t / (self.horizon / self.steps))


def _number(section, key, kind, default):
    """Scenario key ``key`` read as ``kind``; empty means ``default``."""
    return _finite(section.get(key, "").strip() or default, kind,
                   f"scenario key {key}")


def _finite(text, kind, what):
    """``text`` read as a finite ``kind``; ``what`` names it in errors."""
    try:
        value = kind(text)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {expected}, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


def _split(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _build_claims(config: ScenarioConfig):
    # the configured bound is enforced upfront by _check_bound (a config
    # error), so the claims themselves stay unbounded
    claims = {}
    for name, expr_text in sorted(config.positions.items()):
        expr = parse_payoff(expr_text, config.dimension)
        claims[name] = TerminalClaim(
            lambda w, e=expr: eval_payoff(e, w), np.inf, name)
    return claims


def _corpus_from_config(config: ScenarioConfig, claims: dict) -> PositionCorpus:
    ordered_claims = [claims[name] for name in sorted(claims)]
    index = {c.label: i for i, c in enumerate(ordered_claims)}
    portfolios = sorted({index[port] for _, port in config.pairs}) or [0]
    cash = TerminalClaim(lambda w: np.full(np.shape(w)[0], 0.3), 1.0, "cash")
    ordered_pairs = [(c, combine_claims([1.0, 1.0], [c, cash], f"{c.label}+cash"))
                     for c in ordered_claims]
    decomposed = []
    for _, parts, total in config.decompositions:
        decomposed.append(([claims[p] for p in parts], claims[total]))
    combos = []
    if len(ordered_claims) >= 2:
        a, b = ordered_claims[0], ordered_claims[1]
        combos.append(([0.5, 0.5], [a, b], combine_claims([0.5, 0.5], [a, b])))
    shifts = [("const", lambda w: np.full(np.shape(w)[0], 0.25)),
              ("linear", lambda w: 0.5 * np.asarray(w, float))]
    return PositionCorpus(seed=config.seed, claims=ordered_claims,
                          portfolios=portfolios, ordered_pairs=ordered_pairs,
                          decompositions=decomposed, convex_combos=combos,
                          shifts=shifts,
                          tc_claims=list(range(min(3, len(ordered_claims)))))


def _check_bound(claims: dict, disc, bound: float):
    for claim in claims.values():
        values = claim.on_tree(disc) if hasattr(disc, "states") \
            else claim.on_paths(disc)
        worst = float(np.max(np.abs(values)))
        if worst > bound:
            raise ConfigError(
                f"position {claim.label!r} reaches {worst:g} on the grid, "
                f"beyond the configured bound {bound:g}")


def _value_rows(config, quantity, levels_values, disc, times):
    rows = []
    for t in times:
        k = config.level_of(t)
        vals = np.asarray(levels_values[k])
        if vals.ndim == 2:
            vals = vals[:, 0]
        if config.engine == "tree" and config.steps <= MAX_NODES_LISTED:
            for j, v in enumerate(vals):
                rows.append((f"{t:.12g}", f"node={j}", quantity, f"{v:.12g}"))
        elif config.engine == "tree":
            rows.append((f"{t:.12g}", "min", quantity, f"{np.min(vals):.12g}"))
            rows.append((f"{t:.12g}", "mean", quantity, f"{np.mean(vals):.12g}"))
            rows.append((f"{t:.12g}", "max", quantity, f"{np.max(vals):.12g}"))
        else:
            rows.append((f"{t:.12g}", "mean", quantity, f"{np.mean(vals):.12g}"))
            se = np.std(vals) / np.sqrt(len(vals))
            rows.append((f"{t:.12g}", "se", quantity, f"{se:.12g}"))
    return rows


def run_scenario(config_path, out_dir=None, strict=None):
    """Execute a scenario config; returns (exit_code, out_dir)."""
    config = ScenarioConfig.load(config_path)
    if strict is not None:
        config.strict = strict
    out = Path(out_dir) if out_dir else Path(config_path).parent / "out"
    out.mkdir(parents=True, exist_ok=True)

    driver = parse_driver_spec(config.driver_spec)
    quadrature = QuadratureSpec(config.quadrature_points)
    rules = [(spec, parse_rule_spec(spec, driver, config.driver_spec, quadrature))
             for spec in config.rule_specs]
    claims = _build_claims(config)

    grid = build_grid(config.horizon, config.steps)
    if config.engine == "tree":
        disc = build_tree(grid)
        basis = None
        checked = [("driver", config.driver_spec, driver)] + [
            ("rules", spec, rule.alloc_driver) for spec, rule in rules
            if rule.alloc_driver is not None]
        for key, spec, drv in checked:
            try:
                _check_tree_preconditions(drv, disc)
            except RejectedConfigurationError as exc:
                raise ConfigError(f"{key} = {spec}: {exc}") from exc
    else:
        disc = sample_paths(grid, config.dimension, config.mc_paths, config.seed)
        basis = BasisSpec(config.basis_degree)
    _check_bound(claims, disc, config.payoff_bound)

    manifest = {
        "version": __version__, "config": str(config_path),
        "engine": config.engine, "driver": config.driver_spec,
        "T": f"{config.horizon:g}", "N": str(config.steps),
        "seed": str(config.seed), "strict": str(config.strict).lower(),
    }
    if config.engine == "lsmc":
        manifest["paths"] = str(config.mc_paths)
        manifest["basis_degree"] = str(config.basis_degree)

    # one cache for the run: the values table, every rule and every suite
    # share each portfolio's base solve and scenario set
    cache = SolveCache(disc, basis)
    rows = []
    reported = set()
    for sub_name, port_name in config.pairs:
        sub, port = claims[sub_name], claims[port_name]
        for name in (sub_name, port_name):
            if name not in reported:
                reported.add(name)
                rows.extend(_value_rows(config, f"rho[{name}]",
                                        cache.risk(driver, claims[name]).values,
                                        disc, config.times))
        for spec, rule in rules:
            proc = rule.allocate(sub, port, disc, basis, cache=cache)
            rows.extend(_value_rows(config,
                                    f"Lambda[{spec}][{sub_name};{port_name}]",
                                    proc.values, disc, config.times))
            if proc.method == "lsmc":
                manifest[f"se[{spec}][{sub_name};{port_name}]"] = \
                    f"{lsmc_standard_error(proc):.6e}"

    with open(out / "values.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "state", "quantity", "value"])
        writer.writerows(rows)

    failures = 0
    if config.axioms:
        corpus = _corpus_from_config(config, claims)
        reports = []
        for spec, rule in rules:
            suite = run_axiom_suite(config.axioms, rule, driver, corpus, disc,
                                    basis=basis, cache=cache)
            for rep in suite:
                rep.note = (f"rule={spec} " + rep.note).strip()
                reports.append(rep)
        failures = sum(1 for r in reports if r.status == "fail")
        (out / "axioms.txt").write_text(serialize_reports(reports),
                                        encoding="utf-8")
        manifest["axioms_checked"] = str(len(reports))
        manifest["axioms_failed"] = str(failures)

    manifest["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest_text = "".join(f"{k} = {v}\n" for k, v in manifest.items())
    (out / "manifest.txt").write_text(manifest_text, encoding="utf-8")

    if failures and config.strict:
        return 1, out
    return 0, out


def catalog_text() -> str:
    sections = (("drivers", _specs(DRIVERS)),
                ("alloc drivers (for custom:<spec> rules)", _specs(ALLOC_DRIVERS)),
                ("rules", RULE_SPECS), ("axioms", AXIOM_IDS))
    return "".join(f"{title}:\n" + "".join(f"  {item}\n" for item in items)
                   for title, items in sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskalloc",
        description="dynamic risk measures and capital allocation rules")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--strict", action="store_true",
                       help="exit 1 when a requested axiom check fails")
    run_p.add_argument("--out", default=None, help="output directory")
    sub.add_parser("catalog", help="list drivers, rules and axiom ids")
    args = parser.parse_args(argv)

    if args.command == "catalog":
        sys.stdout.write(catalog_text())
        return 0
    try:
        code, out = run_scenario(args.config, args.out,
                                 strict=args.strict or None)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (NumericalFailureError, RejectedConfigurationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except RiskAllocError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(f"reports written to {out}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
