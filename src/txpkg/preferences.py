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

The first four are read off ``txpkg.universe.status_diff``.  ``optimize``
bounds a partial assignment by the same diff taken between its true
packages and its not-false ones, so the rule has one implementation.
Every criterion is a sum over package names, so the bound is kept name by
name: a memo holds ``eval_criteria`` of each name's part of the assignment,
and a running total recomputes only the names a search step changed.  The
sorted-id tie-break is built only at a node whose vector equals the
incumbent's, and the search starts each name at its ideal state, the
least-scoring of its ``s0`` state, no version, or one version.

Config syntax: ``-removed,-changed,-new,-download`` with optional
``-notuptodate`` and ``-blacklist:<glob>`` entries; order is priority.
"""

from __future__ import annotations

import fnmatch
import itertools
from dataclasses import dataclass
from typing import Callable

from .resolver import Request, Solution, Unsat, _certify, encode
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


def eval_criteria(u: Universe, s0: Status, s: Status, spec: PreferenceSpec,
                  upper: Status | None = None) -> tuple[int, ...]:
    """Score vector for status ``s`` against baseline ``s0``, in spec order.

    Lower is better, compared lexicographically left to right.  With
    ``upper`` given (``s.installed <= upper.installed``), each entry is its
    least over every status between ``s`` and ``upper``: a lower bound.

    Every entry is a sum over package names: the vector equals the sum of
    the vectors of ``s0``, ``s`` and ``upper`` each restricted to one name.
    ``optimize`` bounds its search with that sum, so a criterion that is not
    a sum over names breaks the bound.
    """
    diff = status_diff(u, s0, s, upper)
    top = (s if upper is None else upper).installed
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
            values.append(sum(1 for n in names if u.by_name(n)[-1].id not in top))
        else:  # blacklist
            values.append(sum(1 for pid in s.installed if _matches(u.get(pid), crit.pattern)))
    return tuple(values)


class _NameTable:
    """Criteria vectors of (partial) assignments, kept name by name.

    Variable ``v`` stands for ``ids[v-1]``; the ids are sorted, so each
    name's variables form one contiguous run.  A name's *part* of an
    assignment is the tuple of its variables' values (1 true, -1 false, 0
    undecided).  Its vector is :func:`eval_criteria` with the baseline, the
    true packages and the not-false ones all restricted to that name, and is
    memoised.  Every criterion is a sum over names, so the parts' vectors
    add up to the vector ``eval_criteria`` gives the whole assignment.
    """

    def __init__(self, u: Universe, s0: Status, spec: PreferenceSpec,
                 ids: tuple[PackageId, ...]):
        self.u, self.spec = u, spec
        self.runs: list[tuple[int, int, tuple[PackageId, ...], Status]] = []
        first = 1
        for _name, group in itertools.groupby(ids, key=lambda pid: pid.name):
            run = tuple(group)
            base = Status(s0.installed.intersection(run))
            self.runs.append((first, first + len(run), run, base))
            first += len(run)
        self.memo: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}

    def vector(self, g: int, part: tuple[int, ...]) -> tuple[int, ...]:
        """The vector of run ``g`` in state ``part``."""
        vec = self.memo.get((g, part))
        if vec is None:
            _first, _end, run, base = self.runs[g]
            lo = Status(frozenset(pid for pid, x in zip(run, part) if x > 0))
            hi = Status(frozenset(pid for pid, x in zip(run, part) if x >= 0))
            vec = self.memo[(g, part)] = eval_criteria(self.u, base, lo, self.spec, hi)
        return vec

    def ideal_polarity(self) -> list[bool]:
        """Each variable's preferred value: per name, the least-scoring of its
        baseline state, no version, or exactly one version (the baseline wins
        ties, then no version, then the lower version)."""
        polarity = [False]
        for g, (_first, _end, run, base) in enumerate(self.runs):
            k = len(run)
            best = tuple(1 if pid in base.installed else -1 for pid in run)
            if any(self.vector(g, best)):  # no entry is below zero: a zero vector is least
                options = [best, (-1,) * k] + [tuple(1 if j == i else -1 for j in range(k))
                                               for i in range(k)]
                best = min(options, key=lambda part: self.vector(g, part))
            polarity += [x > 0 for x in best]
        return polarity

    def running_vector(self) -> Callable[[list[int]], tuple[int, ...]]:
        """A function from an assignment to its vector.  It keeps the total
        of its last call and recomputes only the names whose part changed."""
        vector = self.vector
        spans = [(g, first, end) for g, (first, end, _run, _base) in enumerate(self.runs)]
        seen: list[list[int] | None] = [None] * len(spans)
        parts = [(0,) * len(self.spec.criteria)] * len(spans)
        total = [0] * len(self.spec.criteria)

        def running(assign: list[int]) -> tuple[int, ...]:
            for g, first, end in spans:
                part = assign[first:end]
                if part != seen[g]:
                    seen[g] = part
                    vec, old = vector(g, tuple(part)), parts[g]
                    for k in range(len(total)):
                        total[k] += vec[k] - old[k]
                    parts[g] = vec
            return tuple(total)

        return running


def optimize(u: Universe, s0: Status, r: Request, spec: PreferenceSpec) -> Solution | Unsat:
    """Best acceptable status under the spec's lexicographic order.

    Complete: unsatisfiable only when no acceptable status exists at all.
    Exhaustive branch-and-bound over the solver's search tree; the incumbent
    is the pair (score vector, sorted id list), so among equal-vector statuses
    the one with the smallest sorted package id list wins deterministically.
    Variable i stands for package ``cnf.ids[i-1]``; ids are sorted, so the
    tuple of true variable numbers orders statuses like their sorted id lists.

    A node's bound is the vector every completion must reach, summed name by
    name from a memo (see :class:`_NameTable`), so a node costs work only in
    the names its last step changed.  Its id tie-break is built only when
    that vector equals the incumbent's; otherwise the vectors decide the cut.
    The descent starts each name at its ideal state, the least-scoring of
    its ``s0`` state, no version, or one version; under the default
    preferences that is the ``s0`` state.
    """
    cnf = encode(u, s0, r)
    n = len(cnf.ids)
    table = _NameTable(u, s0, spec, cnf.ids)
    vector = table.running_vector()
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

    solver = DpllSolver(n, cnf.clauses)
    model = solver.minimize(model_key, bound_key, table.ideal_polarity())
    return _certify(u, s0, r, cnf, model, "optimizer")
