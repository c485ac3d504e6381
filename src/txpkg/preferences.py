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

Config syntax: ``-removed,-changed,-new,-download`` with optional
``-notuptodate`` and ``-blacklist:<glob>`` entries; order is priority.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

from .resolver import Request, Solution, Unsat, _certify, encode
from .sat import DpllSolver
from .universe import Package, Status, Universe, status_diff

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


def optimize(u: Universe, s0: Status, r: Request, spec: PreferenceSpec) -> Solution | Unsat:
    """Best acceptable status under the spec's lexicographic order.

    Complete: unsatisfiable only when no acceptable status exists at all.
    Exhaustive branch-and-bound over the solver's search tree; the incumbent
    is the pair (score vector, sorted id list), so among equal-vector statuses
    the one with the smallest sorted package id list wins deterministically.
    Variable i stands for package ``cnf.ids[i-1]``; ids are sorted, so the
    tuple of true variable numbers orders statuses like their sorted id lists.
    """
    cnf = encode(u, s0, r)
    variables = range(1, len(cnf.ids) + 1)
    polarity = [False] + [pid in s0.installed for pid in cnf.ids]

    def model_key(model: set[int]) -> tuple:
        return (eval_criteria(u, s0, cnf.status_of(model), spec), tuple(sorted(model)))

    def bound_key(assign) -> tuple:
        # every completion lies between the true variables and the not-false ones
        trues = [v for v in variables if assign[v] > 0]
        lo = cnf.status_of(trues)
        hi = cnf.status_of(v for v in variables if assign[v] >= 0)
        # cheapest completion of the id tie-break: keep the trues and add
        # every still-undecided variable below the largest true one
        top = trues[-1] if trues else 0
        return (eval_criteria(u, s0, lo, spec, hi),
                tuple(v for v in range(1, top + 1) if assign[v] >= 0))

    solver = DpllSolver(len(cnf.ids), cnf.clauses)
    return _certify(u, s0, r, cnf, solver.minimize(model_key, bound_key, polarity), "optimizer")
