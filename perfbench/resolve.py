"""The ``resolve`` workload: one ``solve`` per operation over a small layered
repository, checked against an optimum the benchmark computes on its own.

The repository has ``n`` names (``n00``, ``n01``, ...) at versions 1 and 2.
Names sort in creation order, and dependencies point only at earlier names,
so the package id order is also a topological order.  Version 2 conflicts
with version 1 of its own name.  About 30% of the names are installed at
version 1, closed under dependencies.

The expected optimum comes from :func:`reference_optimum`, a best-first
search over per-name states that shares no code with the engine's optimiser.
Tests confirm it against brute-force subset enumeration on small instances.

The cost of today's exhaustive optimiser differs wildly from one repository
to the next, and even with the sizes alone redrawn.  A mean over 2,000
requests drawn afresh for each seed still moved by 12% from seed to seed on
a 2-core machine.  So the repositories and requests come from the fixed
:data:`CORPUS_SEED`; the run's seed relabels every package and feature and
shuffles the order of the requests, which changes the inputs the engine sees
and the answers it must give, but not the work a pass costs.
"""

from __future__ import annotations

import heapq
import itertools
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

# bound at import, before a traced run patches the engine's modules
from txpkg.preferences import parse_prefs
from txpkg.resolver import check_solution, parse_request
from txpkg.universe import Status, parse_universe

from common import BenchError, calibrated_call, call_cli, deck, flush_tree, fresh_dir, json_report

#: Seed of the repository and request structure (see the module docstring).
CORPUS_SEED = 902
REPOS, PER_REPO, NAMES = 6, 4, 20
PREFS = ("-removed,-changed,-new,-download",
         "-notuptodate,-removed,-changed,-new,-download")
FEATURES = ("f0", "f1", "f2")
#: Request kinds and their weights (in twentieths) in the seeded mix.
REQUEST_MIX = (("install", 5), ("upgrade", 4), ("remove", 3), ("multi", 6), ("unsat", 2))


@dataclass(frozen=True)
class Repository:
    meta: str
    installed: tuple[str, ...]  # names installed at version 1


@dataclass
class Case:
    """One operation: a request under a preference spec, and its expected outcome."""

    repo: int  # index into the workload's repositories
    request: str
    prefs: str
    expected: frozenset | None = None  # the optimum's package ids; None when unsatisfiable


def _name(i: int) -> str:
    return f"n{i:02d}"


def _clause(rng: random.Random, i: int, versioned: bool, features: list[str]) -> str:
    if features and rng.random() < 0.12:
        return rng.choice(features)
    picks = rng.sample(range(i), min(i, 2 if rng.random() < 0.3 else 1))
    atoms = []
    for j in picks:
        atom = _name(j)
        if versioned and rng.random() < 0.3:
            atom += " (>= 2)"
        atoms.append(atom)
    return " | ".join(atoms)


def make_repository(rng: random.Random, n: int) -> Repository:
    stanzas = []
    v1_deps: dict[int, list[list[int]]] = {}
    provided: list[str] = []
    for i in range(n):
        name = _name(i)
        for version in (1, 2):
            lines = [f"Package: {name}", f"Version: {version}",
                     f"Size: {rng.randint(10, 900)}"]
            clauses = []
            if i:
                for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
                    if version == 1:
                        # version 1 depends on plain earlier names only, so any
                        # dependency-closed set of version-1 packages is healthy
                        picks = sorted(rng.sample(range(i), min(i, 2 if rng.random() < 0.3 else 1)))
                        v1_deps.setdefault(i, []).append(picks)
                        clauses.append(" | ".join(_name(j) for j in picks))
                    else:
                        clauses.append(_clause(rng, i, True, provided))
            if clauses:
                lines.append("Depends: " + ", ".join(clauses))
            if version == 2:
                conflicts = [f"{name} (<< 2)"]
                if i and rng.random() < 0.15:
                    conflicts.append(f"{_name(rng.randrange(i))} (<< 2)")
                lines.append("Conflicts: " + ", ".join(conflicts))
            if rng.random() < 0.15:
                feature = rng.choice(FEATURES)
                lines.append(f"Provides: {feature}")
                if feature not in provided:
                    provided.append(feature)
            stanzas.append("\n".join(lines) + "\n")

    installed: set[int] = set()

    def close(i: int) -> None:
        if i in installed:
            return
        installed.add(i)
        for picks in v1_deps.get(i, ()):
            close(picks[0])

    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        if len(installed) >= 0.3 * n:
            break
        close(i)
    return Repository("\n".join(stanzas), tuple(_name(i) for i in sorted(installed)))


def installed_at_1(u, names) -> Status:
    """The status with version 1 of each of ``names`` installed."""
    names = set(names)
    return Status(frozenset(p for p in u.ids if p.name in names and str(p.version) == "1"))


def request_deck(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """``count`` (kind, prefs) pairs: kinds in the mix's proportions (see
    :func:`common.deck`), preferences alternating."""
    kinds = deck(rng, [kind for kind, weight in REQUEST_MIX for _ in range(weight)], count)
    return [(kind, PREFS[i % 2]) for i, kind in enumerate(kinds)]


def make_request(rng: random.Random, repo: Repository, n: int, kind: str) -> str:
    """One request of the given kind over ``repo``."""
    installed = list(repo.installed)
    absent = [_name(i) for i in range(n) if _name(i) not in repo.installed]
    deep = absent[len(absent) // 2:] or absent

    def atom(action: str, taken: set[str]) -> str | None:
        pool = [x for x in {"install": deep, "upgrade": installed, "remove": installed}[action]
                if x not in taken]
        if not pool:
            return None
        name = rng.choice(pool)
        taken.add(name)
        return {"install": f"install {name}", "upgrade": f"upgrade {name} (>= 2)",
                "remove": f"remove {name}"}[action]

    if kind == "unsat":
        pairs = [(a, b) for a in range(n) for b in range(n) if _conflicts_v2(repo.meta, a, b)]
        if pairs and rng.random() < 0.5:
            # version 2 of `a` conflicts with version 1 of `b`, and the atom
            # rules out version 2 of `b`
            a, b = rng.choice(pairs)
            return f"install {_name(a)} (>= 2), install {_name(b)} (<< 2)"
        return f"install {rng.choice(deep)} (>= 3)"
    if kind == "multi":
        taken: set[str] = set()
        parts = [p for p in (atom(a, taken) for a in ("install", "upgrade", "remove")) if p]
        rng.shuffle(parts)
        return ", ".join(parts[:rng.randint(2, 3)])
    for action in (kind, "install", "upgrade", "remove"):  # the kind's pool may be empty
        request = atom(action, set())
        if request:
            return request
    raise ValueError("a repository with no names")


def _conflicts_v2(meta: str, a: int, b: int) -> bool:
    """Does version 2 of name ``a`` declare a conflict with version 1 of ``b``?"""
    header = f"Package: {_name(a)}\nVersion: 2\n"
    stanza = meta[meta.index(header):].split("\n\n", 1)[0]
    return a != b and f"{_name(b)} (<< 2)" in stanza


# --- the reference optimiser ------------------------------------------------------

def _candidates(u, s0, atom):
    """Packages that satisfy an install/upgrade atom, or that a remove atom forbids."""
    by_name = [p for p in u.by_name(atom.name)
               if atom.constraint is None or atom.constraint.admits(p.id.version)]
    if atom.action == "remove":
        return by_name
    floor = s0.max_version(atom.name) if atom.action == "upgrade" else None
    if floor is not None:
        return [p for p in by_name if p.id.version >= floor]
    if atom.constraint is None:
        by_name += [p for p, _v in u.providers_of(atom.name) if p not in by_name]
    return by_name


def _conflict_free(u, pids) -> bool:
    for p in pids:
        for atom in u.get(p).rel.conflicts:
            if any(q.id != p and q.id in pids for q in u.satisfiers(atom)):
                return False
    return True


def _name_cost(u, name: str, state: frozenset, before: frozenset, kinds) -> tuple:
    values = []
    for kind in kinds:
        if kind == "removed":
            values.append(int(bool(before) and not state))
        elif kind == "changed":
            values.append(int(bool(before) and bool(state) and state != before))
        elif kind == "new":
            values.append(int(not before and bool(state)))
        elif kind == "download":
            values.append(sum(u.get(p).size_kb for p in state - before))
        elif kind == "notuptodate":
            values.append(int(bool(state) and max(p.version for p in state) < u.max_version(name)))
        else:
            raise ValueError(f"reference optimiser does not support criterion {kind!r}")
    return tuple(values)


def _violation(u, s0, request, status: frozenset):
    """The first unmet condition of ``status`` as a list of repairs, or None.

    A repair is (name, predicate on that name's state): some acceptable
    status that agrees with the current decisions differs from ``status`` on
    one of these names, in a state the predicate admits.
    """
    for atom in request.atoms:
        cands = _candidates(u, s0, atom)
        if atom.action == "remove":
            hit = [p.id for p in cands if p.id in status]
            if hit:
                return [(atom.name, lambda st, hit=hit: not any(p in st for p in hit))]
        elif not any(p.id in status for p in cands):
            return [(p.id.name, lambda st, q=p.id: q in st) for p in cands]
    for pid in sorted(status):
        for clause in u.get(pid).rel.depends:
            sats = {q.id for atom in clause for q in u.satisfiers(atom)}
            if not sats & status:
                return [(pid.name, lambda st, p=pid: p not in st)] + [
                    (q.name, lambda st, q=q: q in st) for q in sorted(sats)]
    for pid in sorted(status):
        for atom in u.get(pid).rel.conflicts:
            for q in u.satisfiers(atom):
                if q.id != pid and q.id in status:
                    return [(pid.name, lambda st, p=pid: p not in st),
                            (q.id.name, lambda st, q=q.id: q not in st)]
    return None


def reference_optimum(u, s0, request, spec):
    """The acceptable status the engine must choose, or None when there is none.

    Every name takes one of its conflict-free version sets.  The search
    starts from each name's cheapest set and, while the status violates a
    condition, branches on the names that could repair it; a decided name
    never changes again.  Every repair adds a cost that is lexicographically
    positive, so nodes pop in order of (criteria vector, sorted id list) and
    the first acceptable one is the optimum under the engine's tie-break.
    """
    kinds = [c.kind for c in spec.criteria]
    var_of = {pid: i + 1 for i, pid in enumerate(u.ids)}
    names = sorted({pid.name for pid in u.ids})
    states, cost, default = {}, {}, {}
    for name in names:
        versions = [p.id for p in u.by_name(name)]
        before = frozenset(p for p in s0.installed if p.name == name)
        subsets = [frozenset(c) for r in range(len(versions) + 1)
                   for c in itertools.combinations(versions, r)]
        states[name] = [s for s in subsets if _conflict_free(u, s)]
        cost[name] = {s: _name_cost(u, name, s, before, kinds) for s in states[name]}
        default[name] = min(states[name],
                            key=lambda s: (cost[name][s], sorted(var_of[p] for p in s)))

    def node(decided: dict):
        chosen = {n: decided.get(n, default[n]) for n in names}
        status = frozenset(p for s in chosen.values() for p in s)
        total = tuple(map(sum, zip(*(cost[n][chosen[n]] for n in names)))) if kinds else ()
        return (total, tuple(sorted(var_of[p] for p in status))), status

    counter = itertools.count()
    key, status = node({})
    heap = [(key, next(counter), {}, status)]
    seen = {frozenset()}
    while heap:
        _key, _n, decided, status = heapq.heappop(heap)
        repairs = _violation(u, s0, request, status)
        if repairs is None:
            return status
        for name, admits in repairs:
            if name in decided:
                continue
            for st in states[name]:
                if not admits(st):
                    continue
                child = {**decided, name: st}
                frozen = frozenset(child.items())
                if frozen in seen:
                    continue
                seen.add(frozen)
                key, child_status = node(child)
                heapq.heappush(heap, (key, next(counter), child, child_status))
    return None


# --- the workload -----------------------------------------------------------------

def relabel(text: str, tag: str) -> str:
    """Prefix every package name (``n07``) and feature (``f1``) with ``tag``."""
    return re.sub(r"\b([nf]\d+)\b", lambda m: tag + m.group(1), text)


def transcript(u, s0: frozenset, s: frozenset, request) -> tuple[dict, str]:
    """The summary and apt-style transcript ``solve --json`` must report."""
    def names(status):
        out: dict[str, set] = {}
        for pid in status:
            out.setdefault(pid.name, set()).add(pid.version)
        return out

    before, after = names(s0), names(s)
    removed = sorted(n for n in before if n not in after)
    upgraded = sorted(n for n in before if n in after and before[n] != after[n])
    new = sorted(n for n in after if n not in before)
    requested = {a.name for a in request.atoms if a.action in ("install", "upgrade")}
    summary = {"upgraded": len(upgraded), "new": len(new), "removed": len(removed),
               "download_kb": sum(u.get(p).size_kb for p in s - s0)}
    if s == s0:
        return summary, "nothing to do\n"
    lines = []
    for header, group in (("The following packages will be REMOVED:", removed),
                          ("The following packages will be upgraded:", upgraded),
                          ("The following extra packages will be installed:",
                           sorted(set(new) - requested)),
                          ("The following NEW packages will be installed:", new)):
        if group:
            lines += [header, "  " + " ".join(group)]
    lines.append(f"{summary['upgraded']} upgraded, {summary['new']} newly installed, "
                 f"{summary['removed']} to remove.")
    lines.append(f"Need to get {summary['download_kb']}kB of archives.")
    return summary, "\n".join(lines) + "\n"


class ResolveWorkload:
    """``solve`` requests over :data:`REPOS` repositories of :data:`NAMES` names."""

    primary = "solve"
    setups = 9

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, i: int) -> float:
        """Generate and write the repositories, roots and requests, then have
        the engine load and health-check every repository; returns the
        engine's seconds at the reference speed."""
        corpus, labels = random.Random(CORPUS_SEED), random.Random(self.seed)
        self.dir = fresh_dir(self.work / f"resolve{i}")
        deck = request_deck(corpus, REPOS * PER_REPO)
        self.cases, self.metas, self.installed = [], [], []
        for k in range(REPOS):
            repo = make_repository(corpus, NAMES)
            tag = "".join(labels.choice(string.ascii_lowercase) for _ in range(3))
            meta = relabel(repo.meta, tag)
            installed = [relabel(n, tag) for n in repo.installed]
            (self.dir / f"repo{k}").mkdir()
            (self.dir / f"repo{k}" / "Packages").write_text(meta, encoding="utf-8")
            (self.dir / f"root{k}" / ".pkgdb").mkdir(parents=True)
            (self.dir / f"root{k}" / ".pkgdb" / "status").write_text(
                "\n".join(f"Package: {n}\nVersion: 1\n" for n in installed), encoding="utf-8")
            self.metas.append(meta)
            self.installed.append(installed)
            for kind, prefs in deck[k * PER_REPO:(k + 1) * PER_REPO]:
                request = relabel(make_request(corpus, repo, NAMES, kind), tag)
                self.cases.append(Case(k, request, prefs))
        labels.shuffle(self.cases)
        flush_tree(self.dir)
        engine = 0.0
        for k in range(REPOS):
            code, out, seconds = calibrated_call(["--repo", str(self.dir / f"repo{k}"), "--json",
                                                  "check"])
            if code not in (0, 1) or json_report(out) is None:
                raise BenchError(f"checking repository {k} failed with exit {code}")
            engine += seconds
        return engine

    def prepare(self) -> list[Case]:
        """Compute every case's expected optimum with the reference optimiser."""
        self.universes = [parse_universe(meta) for meta in self.metas]
        self.s0 = [installed_at_1(u, inst) for u, inst in zip(self.universes, self.installed)]
        for case in self.cases:
            case.expected = reference_optimum(self.universes[case.repo], self.s0[case.repo],
                                              parse_request(case.request), parse_prefs(case.prefs))
        return self.cases

    def named(self) -> dict:
        return {}

    def run(self, case: Case, tracer=None):
        """Solve one case; yields ("solve", seconds, outcome as expected?).

        The JSON report must equal the one the expected optimum gives.  A
        traced run also sees the plan ``cli`` got, and checks its status.
        """
        u, s0 = self.universes[case.repo], self.s0[case.repo]
        request = parse_request(case.request)
        code, out, seconds = call_cli(["--root", str(self.dir / f"root{case.repo}"),
                                   "--repo", str(self.dir / f"repo{case.repo}"),
                                   f"--prefs={case.prefs}", "--json", "solve", case.request])
        report = json_report(out)
        if case.expected is None:
            ok = code == 1 and report is not None and report.get("result") == "resolution-failure"
        else:
            summary, text = transcript(u, s0.installed, case.expected, request)
            ok = code == 0 and report == {"result": "plan", "summary": summary, "transcript": text}
        if tracer is not None:
            plan = tracer.last.pop("txpkg.cli:plan", None)
            if case.expected is None:
                ok = ok and plan is None
            else:
                # equal id sets also give equal criteria vectors
                ok = (ok and plan is not None
                      and check_solution(u, plan.solution.status, request, s0).ok
                      and plan.solution.status.installed == case.expected)
        yield "solve", seconds, ok
