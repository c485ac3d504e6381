"""Upgrade-problem resolution: requests, solution checking, CNF encoding, solving.

A candidate status S is acceptable for a universe U, an initial status S0,
and a request R when:

(a) every request atom holds in S,
(b) every installed package has each of its dependency clauses satisfied by
    some member of S, and
(c) no installed package conflicts with another installed package.

``solve`` is complete: it never reports unsatisfiable when an acceptable
status exists.  It returns an arbitrary acceptable status; picking the best
one is the optimizer's job (see txpkg.preferences).  Both hand their model to
``_certify``, the one place that explains a missing model and re-checks a
found one.  A request atom is an action word followed by a dependency atom
as ``txpkg.universe`` parses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sat import DpllSolver
from .universe import (
    Atom,
    MetadataError,
    Package,
    PackageId,
    Status,
    Universe,
    VersionConstraint,
    _render_clause,
    parse_dependency_atom,
)

__all__ = [
    "RequestError",
    "RequestAtom",
    "Request",
    "Violation",
    "Verdict",
    "Solution",
    "Unsat",
    "Cnf",
    "parse_request",
    "check_solution",
    "encode",
    "solve",
    "health_check",
]

ACTIONS = ("install", "remove", "upgrade")


class RequestError(ValueError):
    """Malformed or self-contradictory request text."""


@dataclass(frozen=True)
class RequestAtom:
    action: str
    name: str
    constraint: VersionConstraint | None = None

    def __str__(self):
        base = f"{self.action} {self.name}"
        return base if self.constraint is None else f"{base} ({self.constraint})"


@dataclass(frozen=True)
class Request:
    """Conjunction of install/remove/upgrade atoms."""

    atoms: tuple[RequestAtom, ...]

    def __str__(self):
        return ", ".join(str(a) for a in self.atoms)


def parse_request(text: str) -> Request:
    """Parse ``install|remove|upgrade name [(op version)]`` atoms joined by commas.

    After the action word, an atom follows the dependency-atom grammar of
    ``txpkg.universe.parse_dependency_atom``.  Rejects requests where one name
    is asked to be both removed and installed/upgraded.
    """
    atoms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        action, *rest = chunk.split(None, 1)
        if action not in ACTIONS or not rest:
            raise RequestError(f"bad request atom {chunk!r}")
        try:
            atom = parse_dependency_atom(rest[0])
        except MetadataError as e:
            raise RequestError(f"bad request atom {chunk!r}: {e}") from None
        atoms.append(RequestAtom(action, atom.name, atom.constraint))
    if not atoms:
        raise RequestError("empty request")
    actions_by_name: dict[str, set[str]] = {}
    for atom in atoms:
        actions_by_name.setdefault(atom.name, set()).add(atom.action)
    for name, acts in actions_by_name.items():
        if "remove" in acts and acts & {"install", "upgrade"}:
            raise RequestError(f"contradictory actions for {name!r}")
    return Request(tuple(atoms))


@dataclass(frozen=True)
class Violation:
    condition: str  # "a", "b", or "c"
    witness: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class Solution:
    """An acceptable status, checked against conditions (a), (b) and (c)."""

    status: Status


@dataclass(frozen=True)
class Unsat:
    """Proof stub for an unsatisfiable request.

    ``doomed_atoms`` lists request atoms that are provably unsatisfiable on
    their own (no candidate exists, or no candidate is installable);
    ``witnesses`` carries one human-readable line per doomed atom.  An empty
    ``doomed_atoms`` means the atoms only clash in combination.
    """

    request: Request
    doomed_atoms: tuple[RequestAtom, ...] = ()
    witnesses: tuple[str, ...] = ()


# --- request atom candidate sets ----------------------------------------------

def _admitted_by_name(u: Universe, atom: RequestAtom) -> tuple[Package, ...]:
    """The real packages of the atom's name whose version its constraint (if
    any) admits."""
    return tuple(pkg for pkg in u.by_name(atom.name)
                 if atom.constraint is None or atom.constraint.admits(pkg.id.version))


def _request_candidates(u: Universe, s0: Status, atom: RequestAtom) -> tuple[Package, ...]:
    """The packages able to satisfy an install or upgrade atom; a remove
    atom forbids its ``_admitted_by_name``.

    An unversioned install atom is satisfied by a package of that name or by
    any provider of the feature (``Universe.satisfiers``); a versioned one
    only by a real package whose version the constraint admits.  An upgrade
    of an installed name also needs a version at least the highest installed
    one; an upgrade of a name not installed degrades to install.
    """
    floor = s0.max_version(atom.name) if atom.action == "upgrade" else None
    if floor is not None:
        return tuple(pkg for pkg in _admitted_by_name(u, atom) if pkg.id.version >= floor)
    if atom.constraint is None:
        return u.satisfiers(Atom(atom.name))
    return _admitted_by_name(u, atom)


def check_solution(u: Universe, s: Status, r: Request, s0: Status | None = None) -> Verdict:
    """Re-checkable verdict on conditions (a)-(c) for a candidate status.

    ``s0`` supplies the pre-upgrade status that 'upgrade' atoms are judged
    against; omit it for requests without upgrade atoms.
    """
    for pid in s.installed:
        if pid not in u:
            raise ValueError(f"status is not a subset of the universe: {pid}")
    if s0 is None:
        s0 = Status()
    violations: list[Violation] = []

    for atom in r.atoms:
        if atom.action == "remove":
            for pkg in _admitted_by_name(u, atom):
                if pkg.id in s.installed:
                    violations.append(Violation("a", f"'{atom}' violated by installed {pkg.id}"))
        else:
            cands = _request_candidates(u, s0, atom)
            if not any(pkg.id in s.installed for pkg in cands):
                violations.append(Violation("a", f"'{atom}' not satisfied"))

    for pid in sorted(s.installed, key=lambda i: i.key):
        pkg = u.get(pid)
        for clause in pkg.rel.depends:
            met = False
            for atom in clause:
                for q in u.satisfiers(atom):
                    if q.id in s.installed:
                        met = True
                        break
                if met:
                    break
            if not met:
                violations.append(
                    Violation("b", f"{pid}: dependency clause '{_render_clause(clause)}' unmet"))

    for pid in sorted(s.installed, key=lambda i: i.key):
        for atom in u.get(pid).rel.conflicts:
            for q in u.satisfiers(atom):
                # a conflict atom also hits providers of the feature, but
                # never the declaring package itself
                if q.id != pid and q.id in s.installed:
                    violations.append(Violation("c", f"{pid} conflicts with {q.id} via '{atom}'"))

    return Verdict(not violations, tuple(violations))


@dataclass
class Cnf:
    """Propositional encoding: one variable per package id, numbered by sorted order."""

    ids: tuple[PackageId, ...]
    var_of: dict
    clauses: list

    def status_of(self, model: set[int]) -> Status:
        return Status(frozenset(self.ids[i - 1] for i in model))


def encode(u: Universe, s0: Status, r: Request) -> Cnf:
    """Encode the upgrade problem; models are exactly the acceptable statuses.

    Clause shapes: for each package p and dependency clause c,
    ``(not p) or (some satisfier of c)``; for each conflict pair,
    ``(not p) or (not q)``; install/upgrade atoms become at-least-one clauses
    over their candidates (an atom with no candidate yields the empty clause,
    making the formula trivially false); remove atoms become unit negations
    of every matching package.
    """
    ids = u.ids
    var_of = {pid: i + 1 for i, pid in enumerate(ids)}
    clauses: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def add(lits) -> None:
        t = tuple(sorted(set(lits)))
        if t not in seen:
            seen.add(t)
            clauses.append(t)

    for pid in ids:
        pkg = u.get(pid)
        vp = var_of[pid]
        for clause in pkg.rel.depends:
            sats = {var_of[q.id] for atom in clause for q in u.satisfiers(atom)}
            add([-vp] + sorted(sats))
        for atom in pkg.rel.conflicts:
            for q in u.satisfiers(atom):
                if q.id != pid:
                    add([-vp, -var_of[q.id]])

    for atom in r.atoms:
        if atom.action == "remove":
            for pkg in _admitted_by_name(u, atom):
                add([-var_of[pkg.id]])
        else:
            add([var_of[pkg.id] for pkg in _request_candidates(u, s0, atom)])

    return Cnf(ids, var_of, clauses)


def solve(u: Universe, s0: Status, r: Request) -> Solution | Unsat:
    """Find some acceptable status, or prove there is none.

    Complete by construction (exhaustive DPLL).  The returned status is the
    first model under the fixed search order (lowest package id first, 'not
    installed' tried before 'installed'), re-verified with check_solution
    before being handed back.
    """
    cnf = encode(u, s0, r)
    return _certify(u, s0, r, cnf, DpllSolver(len(cnf.ids), cnf.clauses).search(), "solver")


def _certify(u: Universe, s0: Status, r: Request, cnf: Cnf, model: set[int] | None,
             producer: str) -> Solution | Unsat:
    """The answer for a model of ``encode(u, s0, r)``: ``explain_unsat`` when
    there is none, else its status once ``check_solution`` has confirmed it."""
    if model is None:
        return explain_unsat(u, s0, r)
    solution = Solution(cnf.status_of(model))
    verdict = check_solution(u, solution.status, r, s0)
    if not verdict.ok:
        raise RuntimeError(
            f"{producer} produced an invalid status: {verdict.violations[0].witness}")
    return solution


def _installable(cnf: Cnf, goals: list[PackageId]) -> set[PackageId]:
    """The members of ``goals`` that are installable, for ``cnf`` an
    empty-request encoding.

    A model of that encoding is an acceptable status, so each of its members
    is installable.  One solver answers in at most two goal passes and then
    one solve per goal still open (see ``DpllSolver.solve``):

    - a pass is one goal-directed solve that tries the open goals in order,
      each on top of the trail the earlier ones left.  Its model proves its
      members.  The encoding has no positive-only clause, so until the pass
      takes a goal, its trail holds only consequences of the clauses (the
      root level and the flips of lost goals), and a goal lost there is in
      no model: every goal before the model's first member is broken;
    - pass 1 takes every goal, and pass 2 those pass 1 left open.  Versions
      of one name conflict, so pass 1 takes one version of most names and
      pass 2 the other;
    - each goal still open is solved alone under the assumption that it is
      installed, unless an earlier model holds it.

    So each goal is searched at most three times.
    """
    solver = DpllSolver(len(cnf.ids), cnf.clauses)
    proven: set[int] = set()
    open_goals = [cnf.var_of[pid] for pid in goals]
    for _pass in range(2):
        if not open_goals:
            break
        model = solver.solve(goals=open_goals)
        proven.update(model)
        first = next((i for i, var in enumerate(open_goals) if var in model), len(open_goals))
        open_goals = [var for var in open_goals[first:] if var not in proven]
    for var in open_goals:
        if var not in proven:
            proven.update(solver.solve(assumptions=(var,)) or ())
    return {pid for pid in goals if cnf.var_of[pid] in proven}


def _roots_first(cnf: Cnf) -> list[PackageId]:
    """The ids of an empty-request encoding in reverse DFS postorder of the
    edges from each package to the packages its dependency clauses name.
    Outside a cycle, a package comes before every package it needs, so the
    packages that nothing needs come first."""
    n = len(cnf.ids)
    needs: list[list[int]] = [[] for _ in range(n + 1)]
    for clause in cnf.clauses:
        if clause[0] < 0 < clause[-1]:  # a dependency clause: (not p) or q1 or ...
            needs[-clause[0]].extend(clause[1:])
    visited = [False] * (n + 1)
    postorder: list[int] = []
    for root in range(1, n + 1):
        if visited[root]:
            continue
        visited[root] = True
        stack = [(root, iter(needs[root]))]
        while stack:
            var, pending = stack[-1]
            for dep in pending:
                if not visited[dep]:
                    visited[dep] = True
                    stack.append((dep, iter(needs[dep])))
                    break
            else:
                stack.pop()
                postorder.append(var)
    return [cnf.ids[var - 1] for var in reversed(postorder)]


def explain_unsat(u: Universe, s0: Status, r: Request) -> Unsat:
    """Build the Unsat stub: flag request atoms that are doomed on their own.

    The install and upgrade atoms' candidates are the goals of one
    ``_installable`` call."""
    asked = [(atom, _request_candidates(u, s0, atom))
             for atom in r.atoms if atom.action != "remove"]
    goals = dict.fromkeys(pkg.id for _atom, cands in asked for pkg in cands)
    installable = _installable(encode(u, Status(), Request(())), list(goals))
    doomed, witnesses = [], []
    for atom, cands in asked:
        if not cands:
            doomed.append(atom)
            witnesses.append(f"'{atom}': no candidate in the universe")
        elif not any(pkg.id in installable for pkg in cands):
            doomed.append(atom)
            witnesses.append(f"'{atom}': no candidate is installable")
    return Unsat(r, tuple(doomed), tuple(witnesses))


def health_check(u: Universe) -> list[tuple[PackageId, Verdict]]:
    """Installability report for every package in the universe, in sorted-id
    order.

    A package is healthy when some subset of the universe contains it while
    satisfying every dependency clause and avoiding all conflicts.  The
    universe is encoded once, and every id is a goal of one ``_installable``
    call: two goal passes over one solver prove a co-installable set each,
    and the ids they leave open are solved alone.  The goals come roots
    first (see ``_roots_first``), so a package that nothing needs is tried
    before the packages it needs, and one model answers for its members.
    """
    cnf = encode(u, Status(), Request(()))
    ok = _installable(cnf, _roots_first(cnf))
    out: list[tuple[PackageId, Verdict]] = []
    for pid in u.ids:
        if pid in ok:
            out.append((pid, Verdict(True)))
            continue
        witness = None
        for clause in u.get(pid).rel.depends:
            if not any(u.satisfiers(atom) for atom in clause):
                witness = Violation(
                    "b", f"{pid}: dependency clause '{_render_clause(clause)}' has no candidates")
                break
        if witness is None:
            witness = Violation("c", f"{pid}: no conflict-free dependency closure exists")
        out.append((pid, Verdict(False, (witness,))))
    return out
