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

from .allocation import SolveCache, _Point, _points, _via_driver, make_rule
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
        # at most the last level: a one-step lattice has no level 2
        three_q = min(steps, max(quarter + 1, (3 * steps) // 4))
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


class _Planner:
    """One rule's risks and allocation processes within a suite.

    A request is ``(sub, portfolio)`` for an allocation or ``(claim,
    None)`` for a risk.  Entries are keyed by the identity of both claims
    and hold them, so two distinct claims never share an entry, whatever
    their labels.  On the lattice an entry is the full process, a row of
    the stack it was solved in, whose levels are views that keep that
    stack alive, and a comparison row that ``fold`` folds keeps only its
    peak; on an ensemble an entry is the process's ``_Point``.  Risk
    entries, the whole solves a rule reads and scenario sets come from the
    shared ``SolveCache``; a portfolio it does not hold whole is a row of
    its allocation pass (``_via_driver``).  A caller that has allocated
    some pairs itself hands them over with ``keep``, so the rule's suite
    does not allocate them again.
    """

    def __init__(self, rule, driver, cache: SolveCache):
        self.rule = rule
        self.driver = driver
        self.cache = cache
        self._memo = {}
        self._peaks = {}  # the lattice rows folded: row key -> (row, peak)

    def get(self, requests, reduce=None) -> list:
        """The entry of each request.  What is not held yet is solved as
        stacks: the risks as one ``SolveCache.entries`` pass, with the whole
        solves a rule reads (on the lattice each portfolio's), then every
        allocation, across portfolios, as one ``allocate_stack``, which on
        the lattice ``reduce`` may reduce (its levels are returned, nothing
        is held).  On an ensemble the allocations are reduced to their
        ``_Point`` as they are solved, and a driver rule over the suite's
        driver adds the risks not held yet to its pass as portfolio rows
        (``_via_driver``), so its suite is one sweep that keeps no
        process."""
        missing = {}
        for s, p in requests:
            missing.setdefault((id(s), id(p)), (s, p))
        missing = [req for key, req in missing.items() if key not in self._memo]
        risks = [s for s, p in missing if p is None]
        pairs = [(s, p) for s, p in missing if p is not None]
        subs, ports = [s for s, _ in pairs], [p for _, p in pairs]
        cache, alloc = self.cache, self.rule.alloc_driver
        on_tree = isinstance(cache.disc, TreeModel)
        joint = not on_tree and alloc is not None and alloc.base is self.driver
        new = [joint and cache._held(self.driver, c) is None for c in risks]
        held = [c for c, n in zip(risks, new) if not n]
        fresh = [c for c, n in zip(risks, new) if n]
        reads = self.rule.reads_base or (alloc is not None and on_tree)
        base = self.rule.driver if alloc is None else alloc.base
        whole = ports if reads and base is self.driver else []
        self._hold(held, [None] * len(held),
                   cache.entries(self.driver, held, whole))
        if on_tree:
            entries = self.rule.allocate_stack(subs, ports, cache.disc,
                                               cache=cache, reduce=reduce)
            if reduce is not None:
                return entries
        else:
            if joint:  # the risks not held yet are rows of the one pass
                levels = _via_driver(self.rule, subs, ports, cache, _points,
                                     fresh) if fresh or subs else []
            else:
                levels = self.rule.allocate_stack(
                    subs, ports, cache.disc, cache.basis, cache=cache,
                    reduce=_points)
            entries = [_Point(*pt) for pt in zip(*levels[:2])]
            for claim, point in zip(fresh, entries):
                cache.hold(self.driver, claim, point)
        self._hold([*fresh, *subs], [None] * len(fresh) + ports, entries)
        return [self._memo[id(s), id(p)][2] for s, p in requests]

    def keep(self, subs, portfolio, procs):
        """Hold ``procs``, the processes of ``subs`` inside ``portfolio``
        (None for risks), as their entries."""
        # reduced here, so no ensemble process outlives its stack
        if not isinstance(self.cache.disc, TreeModel):
            procs = [_Point(proc.initial, lsmc_standard_error(proc))
                     for proc in procs]
        self._hold(subs, [portfolio] * len(subs), procs)

    def _hold(self, subs, ports, entries):
        for sub, port, entry in zip(subs, ports, entries):
            self._memo[id(sub), id(port)] = (sub, port, entry)

    def fold(self, rows) -> list:
        """On the lattice, each comparison row's peak ``(k, max, idx,
        cells)`` over its levels, kept by the row's terms (``_key``).  The
        allocations not held yet are one ``get`` pass, reduced by
        ``_level_fold``, so no process of theirs outlives it.  A row of held
        terms only, or across portfolios (held whole first, as the pass of
        a rule body is one portfolio's), folds as ``_laid_out``."""
        new = [(key, row) for key, row in {_key(r): r for r in rows}.items()
               if key not in self._peaks]
        self.get([req for _, (lhs, rhs, _, _) in new for _, req in lhs + rhs
                  if len({id(p) for _, (_, p) in lhs + rhs if p is not None}) > 1])
        reqs = {(id(s), id(p)): (s, p) for _, (lhs, rhs, _, _) in new
                for _, (s, p) in lhs + rhs}
        pending = [c for c, (_, p) in reqs.items()
                   if p is not None and c not in self._memo]
        peaks = _Peaks(len(new))
        self.get([req for req in reqs.values() if req[1] is None]
                 + [reqs[c] for c in pending],
                 _level_fold([row for _, row in new], pending, self._memo, peaks))
        for i, (key, row) in enumerate(new):
            peak = peaks.peak(i)  # no cell: no pass folded it, its terms are held
            self._peaks[key] = (row, peak if peak[3] else _laid_out(row, self._memo))
        return [self._peaks[_key(row)][1] for row in rows]


def _key(row):
    """A row's relation and the weights and claims (by identity) of its
    terms: what its differences depend on."""
    lhs, rhs, relation, _ = row
    return relation, *(tuple((w, id(s), id(p)) for w, (s, p) in side)
                       for side in (lhs, rhs))


def _laid_out(row, memo):
    """The peak of a row of held terms: its differences at every level laid
    end to end, level k from cell k(k+1)/2 on, and their first maximum."""
    lhs, rhs, relation, _ = row
    gap = _GAP[relation](*(_side([(w, np.concatenate(memo[id(s), id(p)][2].values))
                                  for w, (s, p) in side]) for side in (lhs, rhs)))
    cell = int(gap.argmax())
    k = (math.isqrt(8 * cell + 1) - 1) // 2
    return k, gap[cell], (cell - k * (k + 1) // 2,), gap.size


def _level_fold(rows, pending, memo, peaks):
    """The ``reduce`` of a lattice pass over the allocations ``pending``
    (as ``(id(sub), id(portfolio))``) that folds into ``peaks`` each of
    ``rows`` whose pending terms are all rows of the levels it is handed.
    At each level the rows of one relation and term weights are one
    ``_GAP`` of two ``_side`` sums over stacked terms; a held term (an
    entry of ``memo``) reads that level of its process."""
    index = {c: j for j, c in enumerate(pending)}
    plans = {}  # per set of pass rows: the held terms and the row classes

    def plan(idx, size):
        here = {j: r for r, j in enumerate(np.arange(len(pending))[idx].tolist())}
        held, classes = {}, {}
        for i, (lhs, rhs, relation, _) in enumerate(rows):
            terms = [(id(s), id(p)) for _, (s, p) in lhs + rhs]
            own = {index[c] for c in terms if c in index}
            if own and own <= here.keys():
                slots = [here[index[c]] if c in index else
                         size + held.setdefault(c, len(held)) for c in terms]
                weights = (tuple(w for w, _ in side) for side in (lhs, rhs))
                classes.setdefault((relation, *weights), []).append((i, slots))
        return [memo[c][2] for c in held], [
            (c, np.array([i for i, _ in group]), np.array([s for _, s in group]).T)
            for c, group in classes.items()]

    def reduce(k, level, idx):
        key = (idx.start, idx.stop) if isinstance(idx, slice) else tuple(idx)
        if key not in plans:
            plans[key] = plan(idx, len(level))
        held, classes = plans[key]
        stack = np.concatenate([level, *(p.values[k][None] for p in held)])
        for (relation, lw, rw), ids, slots in classes:
            terms = [stack[s] for s in slots]
            peaks.add(k, _GAP[relation](_side(list(zip(lw, terms))), _side(
                list(zip(rw, terms[len(lw):])))), ids)
        return [None] * len(level)

    return reduce


class _Peaks:
    """Each row's peak over the levels it is handed, as the first maximum
    of its levels laid end to end (0..N) finds it: a pass hands levels from
    N down, so a level's first maximum replaces the held one when it is at
    least as large."""

    def __init__(self, rows):
        self.value = np.full(rows, -np.inf)
        self.level, self.at, self.width, self.cells = np.zeros((4, rows), int)

    def add(self, k, d, rows):
        """Fold in level ``k``'s differences ``d`` (revealed bands if 3-d),
        row i of ``d`` into row ``rows[i]``."""
        flat = d.reshape(len(d), -1)
        at = flat.argmax(axis=1)
        value = flat[np.arange(len(flat)), at]
        up = value >= self.value[rows]
        r = np.asarray(rows)[up]
        self.value[r], self.level[r], self.at[r] = value[up], k, at[up]
        self.width[r] = d.shape[2] if d.ndim == 3 else 0
        self.cells[rows] += flat.shape[1]

    def peak(self, i):
        """Row ``i``'s ``(k, max, idx, cells)``, ``idx`` a node or a band
        cell."""
        at, width = int(self.at[i]), int(self.width[i])
        return (int(self.level[i]), self.value[i],
                divmod(at, width) if width else (at,), int(self.cells[i]))


class _Worst:
    """Deterministic running maximum with witness bookkeeping."""

    def __init__(self):
        self.value = -np.inf
        self.witness = None
        self.checks = 0

    def fold(self, peak, info, tree=None):
        """Fold in one row's ``(k, max, idx, cells)`` peak (``_Peaks.peak``):
        the witness is the first strict maximum in (row, level, cell) order,
        and ``checks`` counts every compared cell.  On ``tree`` it names the
        level, node and time; a 2-d ``idx`` is a revealed band cell (v, o),
        node v + o under level-reveal node v.  Without a tree (an
        ensemble's time-zero rows) the witness is ``info``."""
        k, value, idx, cells = peak
        self.checks += cells
        if value > self.value:
            self.value = float(value)
            self.witness = dict(info)
            if tree is not None:
                self.witness.update(level=k, node=int(sum(idx)))
                if len(idx) == 2:
                    self.witness["reveal_node"] = int(idx[0])
                self.witness["time"] = tree.grid.time(k)


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


def _fold_levels(rows, plan: _Planner, tree: TreeModel) -> _Worst:
    """Lattice comparator: each row's peak over its differences at every
    level (``_Planner.fold``), the rows folded in order, so its witness is
    that of a level-by-level fold."""
    worst = _Worst()
    for row, peak in zip(rows, plan.fold(rows)):
        worst.fold(peak, row[3], tree)
    return worst


def _shift_gaps(k, t, values, refs):
    """|Lambda_k[X + m] - (Lambda_k[X] - m)| on the band of level k >= t,
    per row ``(plain, m)`` with ``plain`` the levels of Lambda[X]; without X
    (``plain`` None) the riskless |Lambda_k[m] - (-m)|."""
    m = np.stack([m for _, m in refs])[:, :, None]
    if refs[0][0] is None:
        gap = values - (-m)
    else:
        gap = band(np.stack([p[k] for p, _ in refs]), k, t) - m
        np.subtract(values, gap, out=gap)
    return np.abs(gap, out=gap)


def _tc_gaps(k, t, values, lams):
    """|Lambda_s[outer] - Lambda_s| for every s <= t, the reveal level, per
    row ``lam``, the levels of Lambda."""
    if k > t:
        return None
    return np.abs((values[..., 0] if k == t else values)
                  - np.stack([lam[k] for lam in lams]))


class _Done(Exception):
    """Ends a lattice pass whose remaining levels no fold reads."""


def _fold_revealed(rows, plan: _Planner, tree: TreeModel, gaps,
                   upper=False) -> _Worst:
    """Fold the rows ``(sub, portfolio, ref, info)`` in order.

    Rows that share a portfolio and a reveal level t are allocated as one
    stack, consumed level by level: ``gaps(k, t, values, refs)`` gives the
    stack's differences at level k (None where the axiom compares
    nothing), and each row keeps only its running peak (``_Peaks``).  So
    no band level outlives its step, and the fold sees what a row-by-row
    fold of the full processes would see.  With ``upper`` the gaps read
    no level below t, so each pass ends at level t.  Rows that name one
    sub-position and one ``ref`` share its stack row and its peak.
    """
    groups, first = {}, []  # first: the row whose stack row and peak it reads
    for i, (sub, port, ref, _) in enumerate(rows):
        group = groups.setdefault((id(port), sub.level), (port, {}))[1]
        first.append(group.setdefault((id(sub), id(ref)), i))
    peaks = _Peaks(len(rows))
    for (_, t), (port, members) in groups.items():
        firsts = np.array(list(members.values()))
        refs = [rows[i][2] for i in firsts]

        def reduce(k, values, at, t=t, refs=refs, firsts=firsts):
            d = gaps(k, t, values, refs[at])
            if d is not None:
                peaks.add(k, d, firsts[at])
            if upper and k == t:
                raise _Done
            return [None] * len(values)

        try:
            plan.rule.allocate_stack([rows[i][0] for i in firsts], port, tree,
                                     cache=plan.cache, reduce=reduce)
        except _Done:
            pass
    worst = _Worst()
    for (_, _, _, info), i in zip(rows, first):
        worst.fold(peaks.peak(i), info, tree)
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
    # portfolio is built once per level and shift.  The plain allocations
    # Lambda[X; Y] are one kept pass.
    ys = [corpus.claims[i] for i in corpus.portfolios]
    procs = iter([] if axiom == "riskless" else
                 plan.get([(x, y) for y in ys for x in xs]))
    for y in ys:
        shifts = {}
        for t in corpus.shift_levels(n):
            states = tree.states(t)
            for sl, fn in corpus.shifts:
                m = np.asarray(fn(states), dtype=float)
                shifts[t, sl] = m, y if axiom != "cash_add" else \
                    RevealedClaim(t, m, y, f"{y.label}+m[{sl}]")
        plains = [(None, None)] if axiom == "riskless" else [
            (x, next(procs).values) for x in xs]
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
    return _fold_revealed(rows, plan, tree, _shift_gaps, upper=True)


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
    worst, rows = _Worst(), _rows(axiom, corpus)
    got = iter(plan.get([req for lhs, rhs, _, _ in rows for _, req in lhs + rhs]))
    for lhs, rhs, relation, info in rows:
        a, b = ([(w, next(got)) for w, _ in side] for side in (lhs, rhs))
        left = _side([(w, pt.initial) for w, pt in a])
        right = _side([(w, pt.initial) for w, pt in b])
        allowance = 3.0 * sum(pt.se for _, pt in a + b) if tol is None else tol
        worst.fold((0, _GAP[relation](left, right) - allowance, (), 1),
                   dict(info, lhs=left, rhs=right))
    return _report(axiom, worst, tol or 0.0, "three-standard-error band",
                   allowed=0.0)


def _check(axiom, plan: _Planner, corpus: PositionCorpus, tolerance):
    discretization = plan.cache.disc
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
    return planned_suite(axioms, _Planner(
        rule, driver, SolveCache.ensure(cache, discretization, basis)),
        corpus, tolerances)


def planned_suite(axioms, plan: _Planner, corpus: PositionCorpus,
                  tolerances: dict | None = None) -> list:
    """The reports of ``axioms`` for the planner's rule, in order, on the
    discretization of its cache; every request goes through ``plan``.

    The rows of every table axiom are planned first, so each axiom reads
    what that one step solved: on the lattice one ``plan.fold``, which
    keeps each row's peak and no allocation process, on an ensemble one
    ``plan.get`` of their requests.  A rule that cannot allocate some row
    leaves each axiom to plan its own rows and report itself
    not-applicable."""
    tolerances = tolerances or {}
    rows = [row for axiom in axioms if axiom not in LATTICE_ONLY
            for row in _rows(axiom, corpus)]
    try:
        if isinstance(plan.cache.disc, TreeModel):
            plan.fold(rows)
        else:
            plan.get([req for lhs, rhs, _, _ in rows for _, req in lhs + rhs])
    except NotApplicableError:
        pass
    return [_check(axiom, plan, corpus, tolerances.get(axiom))
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
    hypothesis = planned_suite(("mono", "weak_convex", "no_undercut", "tc1",
                                "tc2"), plan, corpus)
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
    # Lambda_t[X + m; X + m] against Lambda_t[X; X] - m at the reveal nodes
    cash = []
    for x, plain in zip(xs, plan.get([(x, x) for x in xs])):
        for t in corpus.shift_levels(n):
            m = np.asarray(corpus.shifts[0][1](tree.states(t)), dtype=float)
            shifted = RevealedClaim(t, m, x, f"{x.label}+m")
            cash.append((shifted, shifted, (plain.values, m),
                         {"claim": x.label, "shift_level": t}))
    # the rolled margin -rho_t[X] inside itself against rho[X] below t: one
    # margin per reveal level, one row per (from, to) pair
    pairs = sorted(corpus.tc_level_pairs(n), key=lambda pair: pair[1])
    rolled = []
    for x, risk in zip(xs, plan.get([(x, None) for x in xs])):
        margins = {t: RevealedClaim(t, -np.asarray(risk.values[t], float), None,
                                    f"-rho_{t}[{x.label}]") for _, t in pairs}
        rolled += [(margins[t], margins[t], risk.values,
                    {"claim": x.label, "from": s, "to": t}) for s, t in pairs]
    norm = np.abs if tc2_ok else np.positive
    steps = {
        "cash_additive": ("derived_cash_additive", cash, lambda k, t, v, refs: (
            None if k != t else _shift_gaps(k, t, v, refs)[..., 0]), True),
        "time_consistency": (
            f"derived_tc_{'equality' if tc2_ok else 'weak-inequality'}",
            rolled, lambda k, t, v, risks: (
                None if k >= t else norm(np.stack([r[k] for r in risks]) - v)),
            False),
    }
    for step, (name, rows, gaps, upper) in steps.items():
        try:  # both steps allocate inside revealed portfolios
            details[step] = _report(name, _fold_revealed(rows, plan, tree, gaps,
                                                         upper), tolerance)
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
