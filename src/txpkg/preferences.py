"""Lexicographic selection among all acceptable statuses.

A preference spec is an ordered list of criteria, each minimised, compared
left to right:

- ``removed``: names installed before with no version left installed
- ``changed``: names installed before and after whose version set differs
- ``new``: names installed after that were not installed before
- ``download``: total size (kB) of packages to fetch (installed after, not before)
- ``notuptodate``: names installed after that are below the newest available version
- ``blacklist:<glob>``: packages matching the glob (``maint:<glob>`` matches the
  maintainer field, ``name:<glob>`` or a bare glob matches the package name)

The first four are read off ``txpkg.universe.status_diff``, so the rule
has one implementation.  Every criterion is a sum over package names, so
``optimize`` bounds a partial assignment name by name.  A name's bound is
the exact lexicographic least of ``eval_criteria`` over every completion of
its part of the assignment.  Each completion is matched criterion by
criterion by one of a few candidates (its baseline state, its true
packages, or those plus one undecided package), so the least costs
O(versions) evaluations; it is memoised per (name, part).  Adding vectors
keeps their lexicographic order, so the sum of the names' least vectors is
a lower bound on every completion's vector.  A running total follows the
solver's trail: each search step re-reads only the names of the variables
it assigned or unassigned.  The sorted-id tie-break is built only at a node
whose vector equals the incumbent's, and the search starts each name at its
ideal state, the candidate that reaches the least of all its states: its
``s0`` state, no version, or one version.

Before it searches, ``optimize`` settles the names the request cannot move
and fixes them in their ``s0`` state, so the search and the bound cover only
the request's cone.  A name is settled when its ``s0`` state scores the zero
vector and the baseline literals of the settled names satisfy every clause
that mentions one of them (an autarky).  This keeps every optimum because
every criterion is a nonnegative sum over names, because under ``removed``,
``changed`` and ``new`` a name's ``s0`` state is its only state that scores
zero on all three, and because an autarky can replace its variables in any
model.  A spec that lacks one of those three settles nothing (see
``_settled``).

Config syntax: ``-removed,-changed,-new,-download`` with optional
``-notuptodate`` and ``-blacklist:<glob>`` entries; order is priority.
"""

from __future__ import annotations

import fnmatch
import itertools
from dataclasses import dataclass
from typing import Callable, Collection

from .resolver import Cnf, Request, Solution, Unsat, _certify, encode
from .sat import DpllSolver
from .universe import Package, PackageId, Status, Universe, status_diff

__all__ = [
    "CRITERION_KINDS",
    "PreferenceError",
    "Criterion",
    "PreferenceSpec",
    "parse_prefs",
    "eval_criteria",
    "optimize",
    "DEFAULT_PREFS",
]

CRITERION_KINDS = ("removed", "changed", "new", "download", "notuptodate", "blacklist")

#: What the command line uses when no preferences are given.
DEFAULT_PREFS = "-removed,-changed,-new,-download"


class PreferenceError(ValueError):
    """Malformed preference spec."""


@dataclass(frozen=True)
class Criterion:
    kind: str
    pattern: str | None = None

    def __str__(self):
        return f"-{self.kind}:{self.pattern}" if self.pattern is not None else f"-{self.kind}"


@dataclass(frozen=True)
class PreferenceSpec:
    criteria: tuple[Criterion, ...]

    def __post_init__(self):
        if not self.criteria:
            raise PreferenceError("preference spec must list at least one criterion")
        seen = set()
        for crit in self.criteria:
            if crit.kind not in CRITERION_KINDS:
                raise PreferenceError(f"unknown criterion {crit.kind!r}")
            if crit.kind in seen:
                raise PreferenceError(f"duplicate criterion {crit.kind!r}")
            seen.add(crit.kind)
            if crit.kind == "blacklist" and not crit.pattern:
                raise PreferenceError("blacklist criterion needs a pattern")
            if crit.kind != "blacklist" and crit.pattern is not None:
                raise PreferenceError(f"criterion {crit.kind!r} takes no pattern")

    def __str__(self):
        return ",".join(str(c) for c in self.criteria)


def parse_prefs(text: str) -> PreferenceSpec:
    criteria = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if not entry.startswith("-"):
            raise PreferenceError(f"criterion {entry!r} must start with '-' (all are minimised)")
        body = entry[1:]
        if body.startswith("blacklist:"):
            criteria.append(Criterion("blacklist", body[len("blacklist:"):]))
        else:
            criteria.append(Criterion(body))
    return PreferenceSpec(tuple(criteria))


def _matches(pkg: Package, pattern: str) -> bool:
    if pattern.startswith("maint:"):
        return fnmatch.fnmatchcase(pkg.maintainer, pattern[len("maint:"):])
    if pattern.startswith("name:"):
        pattern = pattern[len("name:"):]
    return fnmatch.fnmatchcase(pkg.id.name, pattern)


def eval_criteria(u: Universe, s0: Status, s: Status, spec: PreferenceSpec) -> tuple[int, ...]:
    """Score vector for status ``s`` against baseline ``s0``, in spec order.

    Lower is better, compared lexicographically left to right.  Every entry
    is a sum over package names: the vector equals the sum of the vectors of
    ``s0`` and ``s`` each restricted to one name.  ``optimize`` bounds its
    search with that sum, so a criterion that is not a sum over names breaks
    the bound.
    """
    diff = status_diff(u, s0, s)
    values = []
    for crit in spec.criteria:
        if crit.kind == "removed":
            values.append(len(diff.removed))
        elif crit.kind == "changed":
            values.append(len(diff.changed))
        elif crit.kind == "new":
            values.append(len(diff.new))
        elif crit.kind == "download":
            values.append(diff.download_kb)
        elif crit.kind == "notuptodate":
            # by_name ascends by version, so its last package is the newest
            names = {pid.name for pid in s.installed}
            values.append(sum(1 for n in names if u.by_name(n)[-1].id not in s.installed))
        else:  # blacklist
            values.append(sum(1 for pid in s.installed if _matches(u.get(pid), crit.pattern)))
    return tuple(values)


class _NameTable:
    """The optimiser's bound on (partial) assignments, kept name by name.

    Variable ``v`` stands for ``ids[v-1]``; the ids are sorted, so each
    name's variables form one contiguous run.  A name's *part* of an
    assignment is the tuple of its variables' values (1 true, -1 false, 0
    undecided).  Its vector is the lexicographic least of
    :func:`eval_criteria`, against the baseline restricted to the name, over
    every completion of the part: every state ``S`` of the name with
    ``lo <= S <= hi``, where ``lo`` holds its true packages and ``hi`` its
    not-false ones.  It is memoised per (name, part).

    The least is taken over a few candidates: the baseline state when it
    lies between ``lo`` and ``hi``, ``lo``, and ``lo`` plus one undecided
    package.  Each completion ``S`` is matched, criterion by criterion, by a
    candidate that is no worse.  When ``S`` is the baseline state, that is
    the baseline candidate.  Otherwise it is ``C``: ``lo``, plus the name's
    newest version if ``S`` holds it, plus one package of ``S`` if ``C``
    would be empty.  ``C`` lies in ``S``, is empty just when ``S`` is and
    holds the newest version just when ``S`` does, so it counts the same
    ``removed``, ``new`` and ``notuptodate``; ``S`` differs from the
    baseline, so ``C`` counts no more ``changed``; and ``download`` and
    ``blacklist`` only grow with the set.  So the candidates' least is the
    exact least, at O(versions) evaluations, not 2^versions.

    Every criterion is a sum over names, and adding vectors keeps their
    lexicographic order, so the sum of the names' vectors is a lower bound on
    the vector of every completion of the whole assignment.

    A name whose first variable is in ``settled`` gets no run: the solver
    holds it in its baseline state, which scores the zero vector.
    """

    def __init__(self, u: Universe, s0: Status, spec: PreferenceSpec,
                 ids: tuple[PackageId, ...], settled: Collection[int] = ()):
        self.u, self.spec = u, spec
        self.runs: list[tuple[int, int, tuple[PackageId, ...], Status]] = []
        self.name_of: list[int | None] = [None]  # variable -> its name's index in runs
        first = 1
        for _name, group in itertools.groupby(ids, key=lambda pid: pid.name):
            run = tuple(group)
            if first in settled:  # a settled name has no run
                self.name_of += [None] * len(run)
            else:
                base = Status(s0.installed.intersection(run))
                self.name_of += [len(self.runs)] * len(run)
                self.runs.append((first, first + len(run), run, base))
            first += len(run)
        # (name, part) -> (its vector, the first candidate that reaches it)
        self.memo: dict[tuple[int, tuple[int, ...]],
                        tuple[tuple[int, ...], frozenset[PackageId]]] = {}

    def least(self, g: int, part: tuple[int, ...]) -> tuple[tuple[int, ...], frozenset[PackageId]]:
        """The vector of run ``g`` in state ``part``, and the first candidate
        reaching it, in the order: the baseline state, ``lo``, ``lo`` plus one
        undecided package (lowest version first)."""
        best = self.memo.get((g, part))
        if best is None:
            _first, _end, run, base = self.runs[g]
            lo = frozenset(pid for pid, x in zip(run, part) if x > 0)
            hi = frozenset(pid for pid, x in zip(run, part) if x >= 0)
            candidates = [base.installed] if lo <= base.installed <= hi else []
            candidates += [lo] + [lo | {pid} for pid, x in zip(run, part) if not x]
            for state in dict.fromkeys(candidates):
                vec = eval_criteria(self.u, base, Status(state), self.spec)
                if best is None or vec < best[0]:
                    best = (vec, state)
                    if not any(vec):  # no entry is below zero: a zero vector is least
                        break
            self.memo[(g, part)] = best
        return best

    def ideal_polarity(self) -> list[bool]:
        """Each variable's preferred value: per name, the state that reaches the
        least vector of all the name's states, i.e. the least-scoring of its
        baseline state, no version, or exactly one version (the baseline wins
        ties, then no version, then the lower version)."""
        polarity = [False] * len(self.name_of)
        for g, (first, end, run, _base) in enumerate(self.runs):
            _vec, state = self.least(g, (0,) * len(run))
            polarity[first:end] = [pid in state for pid in run]
        return polarity

    def running_vector(self, solver: DpllSolver) -> Callable[[list[int]], tuple[int, ...]]:
        """A function from ``solver``'s assignment to its vector.  It keeps the
        total and the vector it counted for each name, and re-reads only the
        names of the variables that moved on ``solver.trail`` since its last
        call: those it read at ``solver.low_mark`` and above, and those there
        now."""
        least, runs, name_of, trail = self.least, self.runs, self.name_of, solver.trail
        counted = [least(g, (0,) * len(run))[0] for g, (_f, _e, run, _b) in enumerate(runs)]
        total = [sum(vec[k] for vec in counted) for k in range(len(self.spec.criteria))]
        read: list[int] = []  # the trail as of the last call

        def running(assign: list[int]) -> tuple[int, ...]:
            low = min(solver.low_mark, len(read))
            moved = {name_of[v] for v in read[low:]}
            read[low:] = trail[low:]
            moved.update(name_of[v] for v in read[low:])
            moved.discard(None)  # a settled variable, assigned at the root
            solver.low_mark = len(trail)
            for g in moved:
                first, end, _run, _base = runs[g]
                vec, old = least(g, tuple(assign[first:end]))[0], counted[g]
                for k in range(len(total)):
                    total[k] += vec[k] - old[k]
                counted[g] = vec
            return tuple(total)

        return running


def _settled(u: Universe, s0: Status, spec: PreferenceSpec, cnf: Cnf) -> list[int]:
    """The baseline literals of the names that every optimum leaves in their
    ``s0`` state: literal ``v`` for an installed ``cnf.ids[v-1]``, ``-v`` for
    one not installed.

    A name is a candidate when its baseline state scores the zero vector and
    the spec counts ``removed``, ``changed`` and ``new``.  One
    ``eval_criteria(u, s0, s0, spec)`` that reads zero shows this for every
    name at once; otherwise each installed name is scored on its own (a name
    not installed scores zero in its baseline state).  The candidates then
    shrink to the largest set whose baseline literals satisfy every clause
    that mentions one of its variables: a clause that mentions some and is
    not satisfied by them removes every name it mentions.  Only a clause
    whose ``s0``-satisfied literals all belong to names that are not (or no
    longer) candidates can be such a clause, so the worklist starts with
    the clauses no candidate satisfies, and a removed name adds the clauses
    its literals satisfied.  What is left is an *autarky*.

    Every optimum holds these literals, and only optima are cut:

    - every criterion is a nonnegative sum over names;
    - under ``removed``, ``changed`` and ``new`` the baseline state is the
      only state of a name that scores zero on all three;
    - the settled literals form an autarky, so for any model ``M``, ``M`` on
      the other variables plus the settled literals is again a model ``M'``.

    ``M'`` scores zero on the settled names and what ``M`` scores on the
    others, so it is no worse than ``M`` on any criterion.  If ``M`` holds a
    settled name in another state, that name scores at least 1 on one of the
    three, so ``M'`` is lexicographically smaller.  So the formula is
    satisfiable with the literals just when it is without them, and every
    optimal vector and the sorted-id tie-break winner are unchanged.  A spec
    without one of the three settles nothing: another state of a name can
    then also score zero, and the tie-break could prefer it.
    """
    if not {"removed", "changed", "new"} <= {crit.kind for crit in spec.criteria}:
        return []
    name_of = [""] + [pid.name for pid in cnf.ids]
    settled = set(name_of[1:])
    if any(eval_criteria(u, s0, s0, spec)):
        parts: dict[str, set[PackageId]] = {}
        for pid in s0.installed:
            parts.setdefault(pid.name, set()).add(pid)
        for name, part in parts.items():
            base = Status(frozenset(part))
            if any(eval_criteria(u, base, base, spec)):
                settled.discard(name)
    held = [0] + [v if pid in s0.installed else -v for v, pid in enumerate(cnf.ids, 1)]
    holding: dict[str, list[tuple[int, ...]]] = {}  # name -> clauses its literals satisfy
    work = []  # clauses that may mention a settled name and be unsatisfied
    for clause in cnf.clauses:
        holders = {name_of[abs(lit)] for lit in clause if held[abs(lit)] == lit}
        for name in holders:
            holding.setdefault(name, []).append(clause)
        if holders.isdisjoint(settled):
            work.append(clause)
    while work and settled:
        clause = work.pop()
        touched = {name_of[abs(lit)] for lit in clause} & settled
        if touched and not any(held[abs(lit)] == lit and name_of[abs(lit)] in settled
                               for lit in clause):
            settled -= touched
            for name in touched:
                work += holding.get(name, ())
    return [lit for lit in held[1:] if name_of[abs(lit)] in settled]


def optimize(u: Universe, s0: Status, r: Request, spec: PreferenceSpec) -> Solution | Unsat:
    """Best acceptable status under the spec's lexicographic order.

    Complete: unsatisfiable only when no acceptable status exists at all.
    Exhaustive branch-and-bound over the solver's search tree; the incumbent
    is the pair (score vector, sorted id list), so among equal-vector statuses
    the one with the smallest sorted package id list wins deterministically.
    Variable i stands for package ``cnf.ids[i-1]``; ids are sorted, so the
    tuple of true variable numbers orders statuses like their sorted id lists.

    A node's bound is the sum over names of the least vector any completion
    of the name's part reaches (see :class:`_NameTable`); the order of
    vectors survives addition, so no completion of the node scores below
    it.  The total follows the solver's trail from ``low_mark``, so a node
    costs work only in the names of the variables that moved since the last
    node.  Its id tie-break is built only when that vector equals the
    incumbent's; otherwise the vectors decide the cut.  The descent starts
    each name at its ideal state, the least-scoring of its ``s0`` state, no
    version, or one version; under the default preferences that is the
    ``s0`` state.

    Before the search, the names that no optimum moves are settled
    (:func:`_settled`): their ``s0`` literals go to the solver as unit
    clauses, in place of the clauses that mention them, which those literals
    satisfy, and the bound has no run for them.  A name is settled when its
    ``s0`` state scores the zero vector and the ``s0`` literals of the
    settled names satisfy every clause that mentions one of them.  The
    answer is unchanged: every criterion is a nonnegative sum over names,
    under ``removed``, ``changed`` and ``new`` a name's ``s0`` state is its
    only state that scores zero on all three, and such literals can replace
    their variables in any model.  A spec that lacks one of those three
    settles nothing.
    """
    cnf = encode(u, s0, r)
    n = len(cnf.ids)
    settled = _settled(u, s0, spec, cnf)
    fixed = {abs(lit) for lit in settled}
    table = _NameTable(u, s0, spec, cnf.ids, fixed)
    # the settled literals satisfy every clause that mentions one of their variables
    clauses = [c for c in cnf.clauses if fixed.isdisjoint(map(abs, c))]
    solver = DpllSolver(n, clauses + [(lit,) for lit in settled])
    vector = table.running_vector(solver)
    least: list[tuple[int, ...] | None] = [None]  # the incumbent's vector

    def model_key(model: set[int]) -> tuple:
        vec = eval_criteria(u, s0, cnf.status_of(model), spec)
        if least[0] is None or vec < least[0]:
            least[0] = vec
        return (vec, tuple(sorted(model)))

    def bound_key(assign) -> tuple:
        # every completion lies between the true variables and the not-false ones
        vec = vector(assign)
        if vec != least[0]:
            return (vec,)  # the vectors alone decide the cut
        # cheapest completion of the id tie-break: keep the trues and add
        # every still-undecided variable below the largest true one
        top = next((v for v in range(n, 0, -1) if assign[v] > 0), 0)
        return (vec, tuple(v for v in range(1, top + 1) if assign[v] >= 0))

    model = solver.minimize(model_key, bound_key, table.ideal_polarity())
    return _certify(u, s0, r, cnf, model, "optimizer")
