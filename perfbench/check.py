"""The ``check`` workload: one ``check`` per operation over a repository of
138 ids whose broken packages are planted, so the answer is known by
construction.

The healthy part has ``n`` names (``h000``, ...) at versions 1 and 2.
Version 2 conflicts with version 1 of its own name, some version-1 packages
conflict with version 1 of an earlier name, and some version-2 packages
provide a feature.  Dependencies point at earlier names only: plain names,
``(>= 2)`` constraints, ``|`` alternatives and features.  Every healthy
package is installable with the witness :func:`witness` builds: itself plus
version 2 of every name its dependencies reach.

The planted part follows acceptance criterion 8 and adds two shapes:

- ``ghostK`` depends on a name that no package has or provides;
- ``pairK`` depends on both members of the conflicting pair ``clasha``/``clashb``;
- ``toonewK`` depends on a healthy name at a version nobody ships;
- ``chainK`` depends on one of the above, so it is broken through it.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from common import BenchError, calibrated_call, call_cli, deck, flush_tree, fresh_dir, json_report

NAMES = 60  # healthy names; with the planted packages, 138 ids
FEATURES = ("feat0", "feat1", "feat2", "feat3")
PROVIDERS = 3  # version-2 packages providing each feature
#: Dependency clauses per package and the kinds of clause, in exact proportions.
CLAUSE_COUNTS = (0, 1, 1, 1, 2, 2)
CLAUSE_KINDS = (("feature", 1), ("alternative", 3), ("versioned", 2), ("plain", 4))


@dataclass(frozen=True)
class CheckRepo:
    meta: str
    ids: int
    broken: frozenset  # "name version" strings, as the check report prints them


def _name(i: int) -> str:
    return f"h{i:03d}"


def make_repository(rng: random.Random, n: int = NAMES, planted: int = 4) -> CheckRepo:
    stanzas, broken = [], set()
    # each feature is provided by version 2 of PROVIDERS names from the first
    # half, and no name provides two features
    chosen = rng.sample(range(1, n // 2), PROVIDERS * len(FEATURES))
    providers = {f: sorted(chosen[k * PROVIDERS:(k + 1) * PROVIDERS])
                 for k, f in enumerate(FEATURES)}
    provides = {i: f for f, names in providers.items() for i in names}
    counts = iter(deck(rng, CLAUSE_COUNTS, 2 * n))
    kinds = iter(deck(rng, [k for k, w in CLAUSE_KINDS for _ in range(w)], 4 * n))
    cross = iter(deck(rng, (True,) + (False,) * 9, n))

    def clause(i: int) -> str:
        kind = next(kinds)
        usable = [f for f, names in providers.items() if names[0] < i]
        if kind == "feature" and usable:
            return rng.choice(usable)
        if kind == "alternative" and i > 1:
            a, b = rng.sample(range(i), 2)
            return f"{_name(a)} | {_name(b)}"
        if kind == "versioned":
            return f"{_name(rng.randrange(i))} (>= 2)"
        return _name(rng.randrange(i))

    for i in range(n):
        name = _name(i)
        for version in (1, 2):
            lines = [f"Package: {name}", f"Version: {version}"]
            clauses = [clause(i) for _ in range(next(counts))] if i else []
            if clauses:
                lines.append("Depends: " + ", ".join(dict.fromkeys(clauses)))
            if version == 2:
                lines.append(f"Conflicts: {name} (<< 2)")
                if i in provides:
                    lines.append(f"Provides: {provides[i]}")
            elif next(cross) and i:
                lines.append(f"Conflicts: {_name(rng.randrange(i))} (<< 2)")
            stanzas.append("\n".join(lines) + "\n")

    planted_stanzas = [["Package: clasha", "Version: 1", "Conflicts: clashb"],
                       ["Package: clashb", "Version: 1"]]
    roots = []
    for k in range(planted):
        for name, dep in ((f"ghost{k}", f"missing{k}"),
                          (f"pair{k}", "clasha, clashb"),
                          (f"toonew{k}", f"{_name(rng.randrange(n))} (>= 3)")):
            planted_stanzas.append([f"Package: {name}", "Version: 1", f"Depends: {dep}"])
            broken.add(f"{name} 1")
            roots.append(name)
    for k in range(planted):
        planted_stanzas.append([f"Package: chain{k}", "Version: 1",
                                f"Depends: {rng.choice(roots)}"])
        broken.add(f"chain{k} 1")
    stanzas += ["\n".join(lines) + "\n" for lines in planted_stanzas]
    return CheckRepo("\n".join(stanzas), len(stanzas), frozenset(broken))


def witness(u, pid):
    """A conflict-free, dependency-closed status holding ``pid`` (healthy part only).

    Each dependency clause is met by version 2 of its first alternative's
    name, or of the earliest provider for a feature (only version 2
    packages provide).  Dependencies and earliest providers are earlier
    names, so the closure never meets ``pid``'s own name again.
    """
    chosen = {pid.name: pid}
    todo = [pid]
    while todo:
        pkg = u.get(todo.pop())
        for clause in pkg.rel.depends:
            target = u.satisfiers(clause[0])[0].id.name
            if target not in chosen:
                chosen[target] = max(p.id for p in u.by_name(target))
                todo.append(chosen[target])
    return frozenset(chosen.values())


class CheckWorkload:
    """One ``check`` of a planted repository per operation."""

    primary = "check"
    setups = 9

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, i: int) -> float:
        """Generate and write the repository, then have the engine load and
        health-check it once; returns the engine's seconds at the reference
        speed.  (Resolving a request instead would cost from 10 ms to 0.7 s
        depending on the seed.)"""
        self.repo = make_repository(random.Random(self.seed), NAMES)
        self.dir = fresh_dir(self.work / f"check{i}")
        (self.dir / "repo").mkdir()
        (self.dir / "repo" / "Packages").write_text(self.repo.meta, encoding="utf-8")
        (self.dir / "root").mkdir()
        flush_tree(self.dir)
        code, out, seconds = calibrated_call(["--repo", str(self.dir / "repo"), "--json", "check"])
        if code not in (0, 1) or json_report(out) is None:
            raise BenchError(f"checking the repository failed with exit {code}")
        return seconds

    def prepare(self) -> list:
        self.seconds: list[float] = []
        return [self.repo]

    def named(self) -> dict:
        """``check_s``: the median of one full ``check``."""
        return {"check_s": {"value": statistics.median(self.seconds), "unit": "s",
                            "samples": len(self.seconds)}}

    def run(self, repo: CheckRepo, tracer=None):
        """One check; yields ("check", seconds, reported broken set == planted set?)."""
        code, out, seconds = call_cli(["--root", str(self.dir / "root"),
                                       "--repo", str(self.dir / "repo"), "--json", "check"])
        self.seconds.append(seconds)
        report = json_report(out) or {}
        broken = {b.get("package") for b in report.get("broken", ())}
        yield "check", seconds, (code == 1 and broken == repo.broken
                                 and report.get("total") == repo.ids)
