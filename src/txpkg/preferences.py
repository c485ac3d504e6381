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

The first four are read off ``txpkg.universe.status_diff``.

Config syntax: ``-removed,-changed,-new,-download`` with optional
``-notuptodate`` and ``-blacklist:<glob>`` entries; order is priority.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

from .resolver import Request, Solution, Unsat, _certify, encode
from .sat import DpllSolver
from .universe import Package, Status, Universe, Version, status_diff

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

    Pure recount from the two installed sets; lower is better, compared
    lexicographically left to right.
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
            highest: dict[str, Version] = {}
            for pid in s.installed:
                if pid.name not in highest or highest[pid.name] < pid.version:
                    highest[pid.name] = pid.version
            values.append(sum(1 for n, v in highest.items() if v < u.max_version(n)))
        else:  # blacklist
            values.append(sum(1 for pid in s.installed if _matches(u.get(pid), crit.pattern)))
    return tuple(values)


class _ScoreTables:
    """Score lower bounds over a partial assignment, exact at full assignments.

    Variable i stands for package ids[i-1]; ids are sorted, so the tuple of
    true variable numbers orders statuses exactly like their sorted id lists
    (the deterministic tie-break).
    """

    def __init__(self, u: Universe, s0: Status, spec: PreferenceSpec, ids):
        self.spec = spec
        n = len(ids)
        var_of = {pid: i + 1 for i, pid in enumerate(ids)}
        name_vars: dict[str, list[int]] = {}
        for pid in ids:
            name_vars.setdefault(pid.name, []).append(var_of[pid])
        s0_vars = {var_of[pid] for pid in s0.installed}
        names0 = {pid.name for pid in s0.installed}

        self.removed_groups = [tuple(name_vars[n]) for n in sorted(names0)]
        self.changed_groups = []
        for name in sorted(names0):
            group = name_vars[name]
            in_s0 = tuple(v for v in group if v in s0_vars)
            outside = tuple(v for v in group if v not in s0_vars)
            self.changed_groups.append((tuple(group), in_s0, outside))
        self.new_groups = [tuple(vs) for name, vs in sorted(name_vars.items())
                           if name not in names0]
        self.fetch_vars = tuple(
            (v, u.get(ids[v - 1]).size_kb) for v in range(1, n + 1) if v not in s0_vars)
        # within a name group variables ascend by version, so the last one is
        # the newest available version
        self.notup_groups = [(tuple(vs), vs[-1]) for _name, vs in sorted(name_vars.items())]
        self.blacklist_vars: tuple[int, ...] = ()
        for crit in spec.criteria:
            if crit.kind == "blacklist":
                self.blacklist_vars = tuple(
                    v for v in range(1, n + 1) if _matches(u.get(ids[v - 1]), crit.pattern))
        self.nvars = n

    def vector_bound(self, assign) -> tuple[int, ...]:
        values = []
        for crit in self.spec.criteria:
            if crit.kind == "removed":
                values.append(sum(1 for group in self.removed_groups
                                  if all(assign[v] < 0 for v in group)))
            elif crit.kind == "changed":
                count = 0
                for group, in_s0, outside in self.changed_groups:
                    if any(assign[v] > 0 for v in outside) or (
                        any(assign[v] > 0 for v in group)
                        and any(assign[v] < 0 for v in in_s0)
                    ):
                        count += 1
                values.append(count)
            elif crit.kind == "new":
                values.append(sum(1 for group in self.new_groups
                                  if any(assign[v] > 0 for v in group)))
            elif crit.kind == "download":
                values.append(sum(kb for v, kb in self.fetch_vars if assign[v] > 0))
            elif crit.kind == "notuptodate":
                values.append(sum(1 for group, newest in self.notup_groups
                                  if assign[newest] < 0 and any(assign[v] > 0 for v in group)))
            else:
                values.append(sum(1 for v in self.blacklist_vars if assign[v] > 0))
        return tuple(values)

    def bound(self, assign) -> tuple:
        trues = [v for v in range(1, self.nvars + 1) if assign[v] > 0]
        if trues:
            top = trues[-1]
            # cheapest completion of the sorted-id tie-break: keep the trues
            # and add every still-undecided variable below the largest true one
            id_bound = tuple(v for v in range(1, top + 1) if assign[v] >= 0)
        else:
            id_bound = ()
        return (self.vector_bound(assign), id_bound)


def optimize(u: Universe, s0: Status, r: Request, spec: PreferenceSpec) -> Solution | Unsat:
    """Best acceptable status under the spec's lexicographic order.

    Complete: unsatisfiable only when no acceptable status exists at all.
    Exhaustive branch-and-bound over the solver's search tree; the incumbent
    is the pair (score vector, sorted id list), so among equal-vector statuses
    the one with the smallest sorted package id list wins deterministically.
    """
    cnf = encode(u, s0, r)
    tables = _ScoreTables(u, s0, spec, cnf.ids)
    polarity = [False] * (len(cnf.ids) + 1)
    for pid in s0.installed:
        var = cnf.var_of.get(pid)
        if var is not None:
            polarity[var] = True

    def model_key(model: set[int]) -> tuple:
        status = cnf.status_of(model)
        return (eval_criteria(u, s0, status, spec), tuple(sorted(model)))

    solver = DpllSolver(len(cnf.ids), cnf.clauses)
    return _certify(u, s0, r, cnf, solver.minimize(model_key, tables.bound, polarity), "optimizer")
