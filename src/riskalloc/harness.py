"""Property-test engine for allocation axioms and driver-level conditions.

Checks run state-wise at every grid time on the lattice (exact, absolute
tolerances) and at time zero on ensembles (statistical, three standard
errors).  Amounts that are measurable at an intermediate time are realized
as functions of the lattice state at that time and evaluated through
honest revealed-claim solves, never through the algebraic identity being
tested.

The harness reports failures as first-class results: rules that are known
to break an axiom (gradient allocation versus no-undercut for strictly
convex drivers, the penalized scaling average versus the diagonal
identity) must show up as failures with witnesses, not as errors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import SolveCache, make_rule
from .drivers import AllocDriver, Driver
from .engine import (ZERO, RevealedClaim, TerminalClaim, band, combine_claims,
                     lsmc_standard_error)
from .errors import (InadmissibleKernelError, InvalidArgumentError,
                     NotApplicableError, RejectedConfigurationError)
from .grid import PathEnsemble, TreeModel
from .measure import GirsanovKernel, dual_value, rho

__all__ = ["AxiomReport", "PositionCorpus", "default_corpus", "AXIOM_IDS",
           "check_axiom", "run_axiom_suite", "serialize_reports",
           "ConditionReport", "check_alloc_driver_condition",
           "check_condition_implies_axiom", "DerivedRiskReport",
           "check_derived_risk_measure", "BruteForceReport",
           "check_optimal_scenarios_bruteforce", "CONDITION_IDS"]

AXIOM_IDS = ("mono", "no_undercut", "riskless", "cash_add_1", "cash_add",
             "full_alloc", "sub_alloc", "weak_convex", "tc1", "tc2",
             "car_identity", "car_identity_le", "zero_position")

EQUALITY_TOL = 1e-9


@dataclass
class AxiomReport:
    """Result of one axiom check: status, worst violation and witness."""

    axiom: str
    status: str                      # pass / fail / not-applicable
    worst_violation: float
    tolerance: float
    witness: dict | None = None
    checks: int = 0
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_record(self) -> str:
        parts = [f"axiom={self.axiom}", f"status={self.status}",
                 f"violation={self.worst_violation:.6e}",
                 f"tolerance={self.tolerance:.6e}", f"checks={self.checks}"]
        if self.witness:
            inner = ";".join(f"{k}={_fmt(v)}" for k, v in
                             sorted(self.witness.items()))
            parts.append(f"witness={inner}")
        if self.note:
            parts.append(f"note={self.note}")
        return " ".join(parts)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6e}"
    return str(v)


def serialize_reports(reports) -> str:
    return "\n".join(r.to_record() for r in reports) + "\n"


@dataclass(frozen=True)
class PositionCorpus:
    """Claims, exact decompositions and measurable translation amounts.

    Decompositions and convex combinations build their totals by summing
    the parts, so they sum exactly in floating point.  Regeneration with
    the same seed is deterministic.
    """

    seed: int
    claims: list
    portfolios: list                  # indices into claims
    ordered_pairs: list               # (smaller, larger) claim pairs
    decompositions: list              # (parts, total)
    convex_combos: list               # (alphas, parts, total)
    shifts: list                      # (label, state -> amount)
    tc_claims: list = field(default_factory=list)   # indices into claims

    def shift_levels(self, steps: int) -> list:
        return sorted({max(1, steps // 4), max(1, steps // 2),
                       max(1, (3 * steps) // 4)})

    def tc_level_pairs(self, steps: int) -> list:
        half, quarter = max(1, steps // 2), max(1, steps // 4)
        three_q = max(quarter + 1, (3 * steps) // 4)
        return [(0, half), (quarter, half), (quarter, three_q)]


def default_corpus(seed: int = 2024) -> PositionCorpus:
    """Twelve payoffs (linear, calls, puts, digitals, bounded smooth),
    four exact decompositions, three measurable shifts."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    k1 = float(rng.uniform(0.2, 0.8))
    k2 = float(rng.uniform(-0.5, 0.5))
    k3 = float(rng.uniform(0.1, 0.9))
    k4 = float(rng.uniform(-0.5, 0.5))
    k5 = float(rng.uniform(-0.3, 0.3))
    cl = [
        TerminalClaim(lambda w: np.asarray(w, float), label="lin"),
        TerminalClaim(lambda w: -np.asarray(w, float), label="neg"),
        TerminalClaim(lambda w: 0.6 * np.asarray(w, float) + 0.2, label="affine"),
        TerminalClaim(lambda w: np.abs(w), label="straddle"),
        TerminalClaim(lambda w: np.maximum(w, 0.0), label="call0"),
        TerminalClaim(lambda w: np.maximum(w - k1, 0.0), label="callK"),
        TerminalClaim(lambda w: np.maximum(k2 - w, 0.0), label="putK"),
        TerminalClaim(lambda w: -np.maximum(w - k3, 0.0), label="shortcall"),
        TerminalClaim(lambda w: (np.asarray(w, float) > k4).astype(float),
                      label="digital"),
        TerminalClaim(lambda w: np.exp(-(np.asarray(w, float) - k5) ** 2),
                      label="bump"),
        TerminalClaim(lambda w: np.asarray(w, float) / (1.0 + np.abs(w)),
                      label="squash"),
        TerminalClaim(lambda w: np.full(np.shape(w)[0] if np.ndim(w) else (), 0.7),
                      label="const"),
    ]
    nonneg = [cl[4], cl[8], TerminalClaim(lambda w: np.full(np.shape(w)[0], 0.3),
                                          label="cash")]
    ordered = [(x, combine_claims([1.0, 1.0], [x, p], f"{x.label}+{p.label}"))
               for x in (cl[0], cl[3], cl[6], cl[10]) for p in nonneg]
    put0 = TerminalClaim(lambda w: np.maximum(-np.asarray(w, float), 0.0),
                         label="put0")
    decos = [
        ([cl[0].scale(0.5), cl[0].scale(0.5)], None),
        ([cl[4], put0.scale(-1.0)], None),
        ([cl[4].scale(0.25), cl[4].scale(0.25), cl[4].scale(0.5)], None),
        ([cl[3].scale(0.5), cl[9].scale(0.25), cl[8].scale(0.125),
          cl[1].scale(0.125)], None),
    ]
    decos = [(parts, combine_claims([1.0] * len(parts), parts,
                                    "+".join(p.label for p in parts)))
             for parts, _ in decos]
    combos_raw = [
        ([0.5, 0.5], [cl[0], cl[4]]),
        ([0.25, 0.25, 0.5], [cl[0], cl[0], cl[9]]),
        ([0.5, 0.25, 0.25], [cl[4], ZERO, cl[8]]),
    ]
    combos = [(alphas, parts, combine_claims(alphas, parts))
              for alphas, parts in combos_raw]
    shifts = [
        ("const", lambda w: np.full(np.shape(w)[0], 0.3)),
        ("linear", lambda w: 0.4 * np.asarray(w, float)),
        ("clip", lambda w: np.minimum(np.abs(w), 1.0)),
    ]
    return PositionCorpus(seed=seed, claims=cl, portfolios=[0, 4, 10],
                          ordered_pairs=ordered, decompositions=decos,
                          convex_combos=combos, shifts=shifts,
                          tc_claims=[0, 4, 6, 9])


@dataclass(frozen=True)
class _Point:
    """What the ensemble comparator reads of a process: its time-zero
    value and its standard-error proxy."""

    initial: float
    se: float


class _Planner:
    """One rule's risks and allocation processes within a suite.

    A request is ``(sub, portfolio)`` for an allocation or ``(claim,
    None)`` for a risk.  Entries are keyed by the identity of both claims
    and hold them, so two distinct claims never share an entry, whatever
    their labels.  On the lattice an entry is the full process; on an
    ensemble it is the process's ``_Point``.  Risk and base solves and
    scenario sets come from the shared ``SolveCache``.
    """

    def __init__(self, rule, driver, cache: SolveCache):
        self.rule = rule
        self.driver = driver
        self.cache = cache
        self._memo = {}

    def get(self, requests) -> list:
        """The entry of each request.  What is not held yet is solved as
        stacks: the risks first, as one ``risks`` stack (so with the suite's
        driver as the rule's base driver it also holds the base solves of
        the portfolios among them), then one ``allocate_stack`` per
        portfolio."""
        missing = {}
        for s, p in requests:
            if (id(s), id(p)) not in self._memo:
                missing.setdefault(id(p), (p, {}))[1][id(s)] = s
        risks = list(missing.pop(id(None), (None, {}))[1].values())
        if risks:
            self._keep(risks, None, self.cache.risks(self.driver, risks))
        for p, subs in missing.values():
            subs = list(subs.values())
            self._keep(subs, p, self.rule.allocate_stack(
                subs, p, self.cache.disc, self.cache.basis, cache=self.cache))
        return [self._memo[id(s), id(p)][2] for s, p in requests]

    def _keep(self, subs, portfolio, procs):
        # reduced here, so no ensemble process outlives its stack
        for sub, proc in zip(subs, procs):
            entry = proc if isinstance(self.cache.disc, TreeModel) else \
                _Point(proc.initial, lsmc_standard_error(proc))
            self._memo[id(sub), id(portfolio)] = (sub, portfolio, entry)


def _row_peaks(d):
    """(max, flat argmax, shape) of each row of a stack of level
    differences: all that ``_Worst`` reads of a row."""
    flat = d.reshape(len(d), -1)
    return [(row[at], at, d.shape[1:])
            for row, at in zip(flat, flat.argmax(axis=1).tolist())]


class _Worst:
    """Deterministic running maximum with witness bookkeeping."""

    def __init__(self):
        self.value = -np.inf
        self.witness = None
        self.checks = 0

    def update(self, diff_levels, tree, info, start=0):
        """Fold in ``diff_levels[i]``, the differences at level start + i."""
        self.fold([(k, _row_peaks(np.asarray(d)[None])[0])
                   for k, d in enumerate(diff_levels, start)], tree, info)

    def fold(self, peaks, tree, info):
        """Fold in the ``(k, peak)`` pairs, ``peak`` as ``_row_peaks`` gives it.

        A 2-d level is the band of a revealed solve: cell (v, o) is node
        v + o under level-reveal node v, and every cell is reachable.
        """
        for k, (value, at, shape) in peaks:
            idx = np.unravel_index(at, shape)
            self.checks += math.prod(shape)
            if value > self.value:
                self.value = float(value)
                self.witness = dict(info, level=k, node=int(sum(idx)))
                if len(shape) == 2:
                    self.witness["reveal_node"] = int(idx[0])
                if tree is not None:
                    self.witness["time"] = tree.grid.time(k)

    def update_scalar(self, value, info):
        self.checks += 1
        if value > self.value:
            self.value = float(value)
            self.witness = dict(info)


def _report(axiom, worst: _Worst, tol, note="", allowed=None):
    """Report of a folded comparison: it passes while the worst violation
    is at most ``allowed`` (the tolerance unless given)."""
    if worst.checks == 0:
        return AxiomReport(axiom, "not-applicable", 0.0, tol, None, 0,
                           note or "empty corpus for this axiom")
    status = "pass" if worst.value <= (tol if allowed is None else allowed) \
        else "fail"
    witness = worst.witness if status == "fail" else None
    return AxiomReport(axiom, status, float(max(worst.value, 0.0)), tol,
                       witness, worst.checks, note)


# ---------------------------------------------------------------------------
# The axiom table
#
# An axiom that compares processes is stated once, as rows
# ``(lhs, rhs, relation, info)``.  A side is a list of ``(weight, request)``
# terms, and a request is ``(sub, portfolio)`` for an allocation or
# ``(claim, None)`` for a risk.  The relation ``le`` asks lhs <= rhs, ``ge``
# lhs >= rhs and ``eq`` equality; ``info`` names the row in a witness.
# The lattice compares the rows state-wise at every level, an ensemble at
# time zero.  The axioms about amounts revealed at an intermediate level
# are lattice-only.

LATTICE_ONLY = ("riskless", "cash_add_1", "cash_add", "tc1", "tc2")

_GAP = {"le": lambda lhs, rhs: lhs - rhs, "ge": lambda lhs, rhs: rhs - lhs,
        "eq": lambda lhs, rhs: abs(lhs - rhs)}


def _one(sub, portfolio=None):
    return [(1.0, (sub, portfolio))]


def _rows(axiom, corpus: PositionCorpus) -> list:
    """The comparison rows that state ``axiom`` over the corpus."""
    claims = corpus.claims
    portfolios = [claims[i] for i in corpus.portfolios]
    if axiom == "mono":
        return [(_one(low, y), _one(high, y), "ge",
                 {"sub": low.label, "larger": high.label, "portfolio": y.label})
                for y in portfolios for low, high in corpus.ordered_pairs]
    if axiom == "no_undercut":
        return [(_one(x, y), _one(x), "le", {"sub": x.label, "portfolio": y.label})
                for y in portfolios for x in claims]
    if axiom in ("full_alloc", "sub_alloc"):
        relation = "eq" if axiom == "full_alloc" else "ge"
        return [(_one(total, total), [(1.0, (p, total)) for p in parts],
                 relation, {"portfolio": total.label, "parts": len(parts)})
                for parts, total in corpus.decompositions]
    if axiom == "weak_convex":
        return [(_one(total, total),
                 [(a, (p, total)) for a, p in zip(alphas, parts)], "le",
                 {"portfolio": total.label, "parts": len(parts)})
                for alphas, parts, total in corpus.convex_combos]
    if axiom in ("car_identity", "car_identity_le"):
        relation = "eq" if axiom == "car_identity" else "le"
        return [(_one(y, y), _one(y), relation,
                 {"sub": y.label, "portfolio": y.label}) for y in portfolios]
    if axiom == "zero_position":
        return [(_one(ZERO, y), [], "eq", {"sub": "0", "portfolio": y.label})
                for y in portfolios]
    raise InvalidArgumentError(
        f"unknown axiom {axiom!r}; known: {', '.join(AXIOM_IDS)}")


def _side(terms):
    """Value of a side from its ``(weight, value)`` terms: a one-term side
    as is, any other the sum of its weighted terms."""
    values = [v if w == 1.0 else w * v for w, v in terms]
    return values[0] if len(values) == 1 else sum(values, 0.0)


def _resolved(rows, plan: _Planner) -> list:
    """The rows with each request replaced by its entry, all gathered
    through one ``plan.get``."""
    got = iter(plan.get([req for lhs, rhs, _, _ in rows
                         for _, req in lhs + rhs]))
    return [([(w, next(got)) for w, _ in lhs], [(w, next(got)) for w, _ in rhs],
             relation, info) for lhs, rhs, relation, info in rows]


def _fold_levels(rows, plan: _Planner, tree: TreeModel) -> _Worst:
    """Lattice comparator: fold each row's differences at every level."""
    worst = _Worst()
    levels = range(tree.grid.steps + 1)

    def side(terms):
        return [_side([(w, proc.values[k]) for w, proc in terms])
                for k in levels]

    for lhs, rhs, relation, info in _resolved(rows, plan):
        gap = _GAP[relation]
        worst.update([gap(a, b) for a, b in zip(side(lhs), side(rhs))], tree,
                     info)
    return worst


def _shift_gaps(k, t, values, refs):
    """|Lambda_k[X + m] - (Lambda_k[X] - m)| on the bands of levels k >= t,
    per row ``(plain, m)`` with ``plain`` the levels of Lambda[X]; without X
    (``plain`` None) the riskless |Lambda_k[m] - (-m)|."""
    if k < t:
        return None
    m = np.stack([m for _, m in refs])[:, :, None]
    if refs[0][0] is None:
        return np.abs(values - (-m))
    return np.abs(values - (band(np.stack([p[k] for p, _ in refs]), k, t) - m))


def _tc_gaps(k, t, values, lams):
    """|Lambda_s[outer] - Lambda_s| for every s <= t, the reveal level, per
    row ``lam``, the levels of Lambda."""
    if k > t:
        return None
    return np.abs((values[..., 0] if k == t else values)
                  - np.stack([lam[k] for lam in lams]))


def _fold_revealed(rows, plan: _Planner, tree: TreeModel, gaps) -> _Worst:
    """Fold the rows ``(sub, portfolio, ref, info)`` in order.

    Rows that share a portfolio and a reveal level t are allocated as one
    stack, consumed level by level: ``gaps(k, t, values, refs)`` gives the
    stack's differences at level k (None where the axiom compares
    nothing), and each row keeps only their peak.  So no band level
    outlives its step, and the fold sees what a row-by-row fold of the
    full processes would see.
    """
    groups = {}
    for i, (sub, port, _, _) in enumerate(rows):
        groups.setdefault((id(port), sub.level), (port, []))[1].append(i)
    peaks = [None] * len(rows)
    for (_, t), (port, members) in groups.items():
        refs = [rows[i][2] for i in members]

        def reduce(k, values, at, t=t, refs=refs):
            d = gaps(k, t, values, refs[at])
            return [None] * len(values) if d is None else _row_peaks(d)

        levels = plan.rule.allocate_stack([rows[i][0] for i in members], port,
                                          tree, cache=plan.cache, reduce=reduce)
        for j, i in enumerate(members):
            peaks[i] = [(k, level[j]) for k, level in enumerate(levels)
                        if level[j] is not None]
    worst = _Worst()
    for (_, _, _, info), row in zip(rows, peaks):
        worst.fold(row, tree, info)
    return worst


def _revealed_axiom(axiom, plan: _Planner, corpus: PositionCorpus,
                    tree: TreeModel) -> _Worst:
    """The lattice-only axioms, checked through revealed-claim solves of
    amounts that are measurable at an intermediate level: one stacked pass
    per portfolio and reveal level (see ``_fold_revealed``)."""
    n = tree.grid.steps
    xs = [corpus.claims[i] for i in corpus.tc_claims]
    rows = []
    if axiom in ("tc1", "tc2"):
        levels = sorted({t for _, t in corpus.tc_level_pairs(n)})
        for y in (corpus.claims[i] for i in corpus.portfolios[:2]):
            risk_y, *lams = plan.get([(y, None)] + [(x, y) for x in xs])
            # tc2 rolls the revealed margin, one per reveal level
            ports = {t: y if axiom == "tc1" else RevealedClaim(
                t, -np.asarray(risk_y.values[t], float), None,
                f"-rho_{t}[{y.label}]") for t in levels}
            rows += [(RevealedClaim(t, -np.asarray(lam.values[t], dtype=float),
                                    None, f"-L_{t}[{x.label};{y.label}]"),
                      ports[t], lam.values,
                      {"sub": x.label, "portfolio": y.label, "to_level": t})
                     for x, lam in zip(xs, lams) for t in levels]
        return _fold_revealed(rows, plan, tree, _tc_gaps)

    # riskless shifts nothing; cash additivity shifts the sub-position
    # (cash_add_1) or both it and the portfolio (cash_add), whose shifted
    # portfolio is built once per level and shift.
    for y in (corpus.claims[i] for i in corpus.portfolios):
        shifts = {}
        for t in corpus.shift_levels(n):
            states = tree.states(t)
            for sl, fn in corpus.shifts:
                m = np.asarray(fn(states), dtype=float)
                shifts[t, sl] = m, y if axiom != "cash_add" else \
                    RevealedClaim(t, m, y, f"{y.label}+m[{sl}]")
        plains = [(None, None)] if axiom == "riskless" else [
            (x, proc.values) for x, proc in zip(xs, plan.get([(x, y) for x in xs]))]
        for x, plain in plains:
            for (t, sl), (m, port) in shifts.items():
                if x is None:
                    sub = RevealedClaim(t, m, None, f"m[{sl}]")
                    info = {"sub": f"m[{sl}]", "portfolio": y.label,
                            "shift_level": t}
                else:
                    sub = RevealedClaim(t, m, x, f"{x.label}+m[{sl}]")
                    info = {"sub": x.label, "portfolio": y.label,
                            "shift": sl, "shift_level": t}
                rows.append((sub, port, (plain, m), info))
    return _fold_revealed(rows, plan, tree, _shift_gaps)


def _tree_axiom(axiom, plan: _Planner, corpus: PositionCorpus, tree: TreeModel,
                tol):
    if axiom in LATTICE_ONLY:
        return _revealed_axiom(axiom, plan, corpus, tree)
    return _fold_levels(_rows(axiom, corpus), plan, tree)


def _ensemble_axiom(axiom, plan: _Planner, corpus: PositionCorpus,
                    paths: PathEnsemble, tol):
    """Ensemble comparator: every row at time zero, within three summed
    standard errors of its terms (or ``tol`` when given)."""
    if axiom in LATTICE_ONLY:
        return AxiomReport(axiom, "not-applicable", 0.0, tol or 0.0, None, 0,
                           "intermediate-time checks are lattice-only; "
                           "ensembles check time-zero statements")
    worst = _Worst()
    for a, b, relation, info in _resolved(_rows(axiom, corpus), plan):
        left = _side([(w, pt.initial) for w, pt in a])
        right = _side([(w, pt.initial) for w, pt in b])
        allowance = 3.0 * sum(pt.se for _, pt in a + b) if tol is None else tol
        worst.update_scalar(_GAP[relation](left, right) - allowance,
                            dict(info, lhs=left, rhs=right))
    return _report(axiom, worst, tol or 0.0, "three-standard-error band",
                   allowed=0.0)


def _check(axiom, plan: _Planner, corpus: PositionCorpus, discretization,
           tolerance):
    on_tree = isinstance(discretization, TreeModel)
    if on_tree and tolerance is None:
        tolerance = EQUALITY_TOL
    try:
        if on_tree:
            return _report(axiom, _tree_axiom(axiom, plan, corpus,
                                              discretization, tolerance),
                           tolerance)
        return _ensemble_axiom(axiom, plan, corpus, discretization, tolerance)
    except NotApplicableError as exc:
        # e.g. a scenario-averaged rule asked to allocate inside a
        # portfolio that carries a revealed amount
        return AxiomReport(axiom, "not-applicable", 0.0, tolerance or 0.0, None,
                           0, str(exc))


def check_axiom(axiom: str, rule, driver: Driver, corpus: PositionCorpus,
                discretization, tolerance: float | None = None,
                basis=None, cache: SolveCache | None = None) -> AxiomReport:
    """Check one axiom for a rule/driver pair over the corpus.

    ``rule`` is a CarRule or a catalog name.  Lattice checks are exact and
    state-wise at every grid time; ensemble checks compare time-zero values
    within three standard errors (consistency axioms are lattice-only).
    An axiom the rule cannot be evaluated on is reported not-applicable.
    ``cache`` shares portfolio-level solves with the caller's other work.
    """
    return run_axiom_suite([axiom], rule, driver, corpus, discretization,
                           {axiom: tolerance}, basis, cache)[0]


def run_axiom_suite(axioms, rule, driver, corpus, discretization,
                    tolerances: dict | None = None, basis=None,
                    cache: SolveCache | None = None) -> list:
    """Run several axioms with one shared cache; deterministic order."""
    if isinstance(rule, str):
        rule = make_rule(rule, driver)
    plan = _Planner(rule, driver,
                    SolveCache.ensure(cache, discretization, basis))
    tolerances = tolerances or {}
    return [_check(axiom, plan, corpus, discretization, tolerances.get(axiom))
            for axiom in axioms]


# ---------------------------------------------------------------------------
# Driver-level sufficient conditions


CONDITION_IDS = ("cash_shift", "zero_position", "dominated_by_base",
                 "monotone", "superadditive", "convex")

_ROMAN = {"i": "cash_shift", "ii": "zero_position", "iii": "dominated_by_base",
          "iv": "monotone", "v": "superadditive", "vi": "convex"}

_CONDITION_AXIOM = {"cash_shift": "cash_add_1", "zero_position": "zero_position",
                    "dominated_by_base": "no_undercut", "monotone": "mono",
                    "superadditive": "sub_alloc", "convex": "weak_convex"}


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    worst_violation: float
    samples: int
    note: str = ""
    witness: dict | None = None


# probes of the driver conditions: seed, count and the slack they allow
PROBE_SEED, PROBE_COUNT, PROBE_TOL = 7_2024, 1000, 1e-10


def check_alloc_driver_condition(condition: str,
                                 alloc: AllocDriver) -> ConditionReport:
    """Probe one driver-level sufficient condition on random points.

    Unconditional items (cash_shift, monotone) hold for every driver of
    this form and are reported as such.
    """
    condition = _ROMAN.get(condition, condition)
    if condition not in CONDITION_IDS:
        raise InvalidArgumentError(
            f"unknown condition {condition!r}; known: {', '.join(CONDITION_IDS)} "
            "(roman aliases i..vi)")
    rng = np.random.Generator(np.random.Philox(key=PROBE_SEED))
    t = rng.uniform(0.0, 1.0, PROBE_COUNT)
    z = rng.uniform(-5.0, 5.0, (PROBE_COUNT, 1))
    zy = rng.uniform(-5.0, 5.0, (PROBE_COUNT, 1))
    if condition in ("cash_shift", "monotone"):
        return ConditionReport(condition, True, 0.0, 0,
                               "holds for every driver-induced rule")
    if condition == "zero_position":
        vals = np.abs(alloc._evaluate(t, np.zeros_like(z), zy))
        worst = float(np.max(vals))
    elif condition == "dominated_by_base":
        vals = alloc._evaluate(t, z, zy) - alloc.base._evaluate(t, z)
        worst = float(np.max(vals))
    elif condition == "superadditive":
        worst = -np.inf
        for size in (2, 3, 4):
            parts = rng.uniform(-3.0, 3.0, (len(t), size, 1))
            total = np.sum(parts, axis=1)
            summed = sum(alloc._evaluate(t, parts[:, i, :], zy)
                         for i in range(size))
            worst = max(worst, float(np.max(summed
                                            - alloc._evaluate(t, total, zy))))
    else:  # convex
        z2 = rng.uniform(-5.0, 5.0, z.shape)
        a = rng.uniform(0.0, 1.0, (len(t), 1))
        mid = alloc._evaluate(t, a * z + (1 - a) * z2, zy)
        chord = (a[:, 0] * alloc._evaluate(t, z, zy)
                 + (1 - a[:, 0]) * alloc._evaluate(t, z2, zy))
        worst = float(np.max(mid - chord))
    return ConditionReport(condition, worst <= PROBE_TOL, max(worst, 0.0),
                           len(t))


def check_condition_implies_axiom(condition: str, alloc: AllocDriver,
                                  corpus: PositionCorpus, discretization,
                                  tolerance: float | None = None) -> dict:
    """Probe a driver condition and cross-check the axiom it guarantees.

    Returns the condition report, the axiom report for the induced rule,
    and whether the implication (condition holds => axiom passes) is
    respected on this corpus.
    """
    condition = _ROMAN.get(condition, condition)
    cond = check_alloc_driver_condition(condition, alloc)
    rule = make_rule("custom", alloc.base, alloc_driver=alloc)
    axiom = _CONDITION_AXIOM[condition]
    report = check_axiom(axiom, rule, alloc.base, corpus, discretization,
                         tolerance)
    implication_ok = (not cond.holds) or report.status != "fail"
    return {"condition": cond, "axiom": report,
            "implication_ok": implication_ok}


# ---------------------------------------------------------------------------
# Derived risk measure from the diagonal


@dataclass
class DerivedRiskReport:
    status: str
    hypothesis: list
    details: dict

    @property
    def passed(self):
        return self.status == "pass"


def check_derived_risk_measure(rule, driver, corpus: PositionCorpus,
                               discretization,
                               tolerance: float = EQUALITY_TOL) -> DerivedRiskReport:
    """Validate the risk measure defined by the rule's diagonal.

    Requires the hypothesis axioms (monotonicity, weak convexity,
    no-undercut and a consistency type) to pass; then checks that the
    diagonal is monotone, convex, cash-additive, matches the direct risk
    values, and inherits time-consistency (equality for type 2, an
    inequality for type 1 only).  Not-applicable, naming the step, when
    the rule cannot allocate inside the revealed portfolios these need.
    """
    if isinstance(rule, str):
        rule = make_rule(rule, driver)
    if not isinstance(discretization, TreeModel):
        raise InvalidArgumentError("derived-risk checks run on the lattice")
    tree = discretization
    plan = _Planner(rule, driver, SolveCache(tree))
    hypothesis = [_check(axiom, plan, corpus, tree, None) for axiom in
                  ("mono", "weak_convex", "no_undercut", "tc1", "tc2")]
    by_id = {r.axiom: r for r in hypothesis}
    core_ok = all(by_id[a].passed for a in ("mono", "weak_convex", "no_undercut"))
    tc2_ok, tc1_ok = by_id["tc2"].passed, by_id["tc1"].passed
    if not core_ok or not (tc1_ok or tc2_ok):
        return DerivedRiskReport("not-applicable", hypothesis,
                                 {"reason": "hypothesis axioms fail"})

    # the diagonal's own rows: risk requests and allocations of X inside X
    diagonal = {
        "matches_direct": ("derived_vs_direct", [
            (_one(x, x), _one(x), "eq", {"claim": x.label})
            for x in corpus.claims]),
        "monotone": ("derived_monotone", [
            (_one(low, low), _one(high, high), "ge",
             {"smaller": low.label, "larger": high.label})
            for low, high in corpus.ordered_pairs]),
        "convex": ("derived_convex", [
            (_one(total, total), [(a, (p, p)) for a, p in zip(alphas, parts)],
             "le", {"combo": total.label})
            for alphas, parts, total in corpus.convex_combos]),
    }
    details = {key: _report(name, _fold_levels(rows, plan, tree), tolerance)
               for key, (name, rows) in diagonal.items()}

    n = tree.grid.steps
    xs = [corpus.claims[i] for i in corpus.tc_claims]
    step = "cash_additive"  # both steps allocate inside revealed portfolios
    try:
        worst = _Worst()
        for x, plain in zip(xs, plan.get([(x, x) for x in xs])):
            for t in corpus.shift_levels(n):
                m = np.asarray(corpus.shifts[0][1](tree.states(t)), dtype=float)
                shifted = RevealedClaim(t, m, x, f"{x.label}+m")
                at_reveal = plan.rule.allocate(shifted, shifted, tree,
                                               cache=plan.cache).values_at_reveal()
                worst.update([np.abs(at_reveal - (plain.values[t] - m))], tree,
                             {"claim": x.label, "shift_level": t}, start=t)
        details[step] = _report("derived_cash_additive", worst, tolerance)
        step = "time_consistency"
        worst = _Worst()
        mode = "equality" if tc2_ok else "weak-inequality"
        pairs = corpus.tc_level_pairs(n)  # in order of their reveal level
        for x, risk in zip(xs, plan.get([(x, None) for x in xs])):
            direct = risk.values
            for t in sorted({t for _, t in pairs}):
                # one rolled margin per reveal level; its bands are dropped
                margin = RevealedClaim(t, -np.asarray(direct[t], float), None,
                                       f"-rho_{t}[{x.label}]")
                rolled = plan.rule.allocate(margin, margin, tree,
                                            cache=plan.cache).values[:t]
                gaps = [np.asarray(direct[k]) - np.asarray(rolled[k])
                        for k in range(t)]
                for s in (s for s, to in pairs if to == t):
                    worst.update([np.abs(g) if tc2_ok else g for g in gaps],
                                 tree, {"claim": x.label, "from": s, "to": t})
        details[step] = _report(f"derived_tc_{mode}", worst, tolerance)
    except NotApplicableError as exc:
        return DerivedRiskReport("not-applicable", hypothesis,
                                 {"reason": f"{step} step: {exc}"})

    ok = all(r.passed for r in details.values())
    return DerivedRiskReport("pass" if ok else "fail", hypothesis, details)


# ---------------------------------------------------------------------------
# Exhaustive optimal-scenario search on small trees


@dataclass
class BruteForceReport:
    max_gap: float
    enumerated: int
    maximizer_count: int
    selection_ok: bool
    tolerance: float

    @property
    def passed(self):
        return self.max_gap <= self.tolerance and self.selection_ok


def check_optimal_scenarios_bruteforce(driver: Driver, claim: TerminalClaim,
                                       tree: TreeModel, kernel_grid,
                                       budget: int = 1_000_000,
                                       tolerance: float = 1e-12) -> BruteForceReport:
    """Exhaustively maximize the dual value over node-wise kernels.

    Enumerates every adapted kernel with values in ``kernel_grid`` on the
    interior nodes, computes each kernel's dual value process exactly, and
    compares the node-wise maximum with the backward-solve risk values.
    Also verifies that every kernel attaining the time-zero maximum matches
    the driver subgradient wherever the control is nonzero.
    """
    n = tree.grid.steps
    positions = [(k, j) for k in range(n) for j in range(k + 1)]
    grid_vals = [float(g) for g in kernel_grid]
    count = len(grid_vals) ** len(positions)
    if count > budget:
        raise RejectedConfigurationError(
            f"enumeration needs {count} kernels, budget is {budget}",
            required_count=count)
    risk = rho(driver, claim, tree)
    controls = risk.controls
    best = [np.full(k + 1, -np.inf) for k in range(n + 1)]
    root_best = -np.inf
    maximizers = []
    for assignment in itertools.product(grid_vals, repeat=len(positions)):
        q = [np.empty(k + 1) for k in range(n)]
        for (k, j), val in zip(positions, assignment):
            q[k][j] = val
        kernel = GirsanovKernel(q, tree)
        try:
            dual = dual_value(driver, claim, kernel)
        except InadmissibleKernelError:
            continue
        for k in range(n + 1):
            best[k] = np.maximum(best[k], dual[k])
        root = float(np.asarray(dual[0]).flat[0])
        if root > root_best + tolerance:
            root_best = root
            maximizers = [(assignment, q)]
        elif abs(root - root_best) <= tolerance:
            maximizers.append((assignment, q))
    gap = max(float(np.max(np.abs(b - np.asarray(r))))
              for b, r in zip(best, risk.values))
    times = tree.grid.times
    selection_ok = True
    for _, q in maximizers:
        for k in range(n):
            z = np.asarray(controls[k])
            expect = driver.subgradient(times[k], z[..., None])[..., 0]
            active = np.abs(z) > 1e-12
            if np.any(np.abs(q[k][active] - expect[active]) > 1e-9):
                selection_ok = False
    return BruteForceReport(gap, count, len(maximizers), selection_ok,
                            tolerance)
