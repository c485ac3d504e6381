"""The ``upgrade`` workload: apply-then-rollback cycles over a root seeded
with about 150 installed packages, checked against a model of the tree.

Every name ``pNNN`` has versions 1 and 2; version 2 conflicts with version 1.
A package ships ``usr/bin/<name>``, three data files under
``usr/share/bench/<name>/`` and the ``keyvalue`` conffile
``etc/<name>.conf``.  Its postinst makes a directory, sets a key, adds a
user and refreshes one cache shared by all packages::

    mkdir var/lib/$PKG
    setkey var/lib/$PKG/state version $NEW
    adduser $PKG
    update-cache var/cache/bench.idx usr/share/bench/*

The version-2 postinst of a few names ends in ``fail``; an apply that
upgrades one of them must exit 3 and leave the tree as it was.

After seeding, conffiles are edited by hand: some stay pristine (the upgrade
takes the new file), some change a key version 2 leaves alone (a clean merge)
and some change the key version 2 changes (a conflict, with the new file kept
as ``.pkgnew``).  :func:`expected_tree` predicts every file the engine must
leave behind, from this description alone.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import random
import stat
import statistics
from dataclasses import dataclass
from pathlib import Path

from common import BenchError, calibrated_call, call_cli, deck, flush_tree, fresh_dir, json_report

NAMES, CYCLES, PER_APPLY = 150, 10, 4
#: Seeding installs the version-1 packages this many at a time, in name order.
SEED_CHUNK = 15
CACHE = "var/cache/bench.idx"
GLOB = "usr/share/bench/*"
USERS = "etc/users.db"
POSTINST = ("mkdir var/lib/$PKG\n"
            "setkey var/lib/$PKG/state version $NEW\n"
            "adduser $PKG\n"
            f"update-cache {CACHE} {GLOB}\n")
FAILING_POSTINST = POSTINST + "fail planted failure in $PKG $NEW\n"
FILE_MODE = 0o644
DIR_MODE = 0o755
#: How a conffile is edited after seeding, and the weight of each choice.
EDITS = (("pristine", 4), ("clean", 3), ("conflict", 3))


@dataclass(frozen=True)
class Cycle:
    """One apply (upgrading ``names``) followed by one rollback."""

    names: tuple[str, ...]
    fails: bool

    @property
    def request(self) -> str:
        return ", ".join(f"upgrade {n} (>= 2)" for n in self.names)


@dataclass(frozen=True)
class UpgradeRepo:
    meta: str
    payloads: dict  # "<name>_<version>" -> {relative path: bytes}
    names: tuple[str, ...]
    failing: frozenset
    edits: dict  # name -> (kind, edited conffile content or None)

    def seed_requests(self) -> list[str]:
        """Install every name at version 1, :data:`SEED_CHUNK` names a request.
        Dependencies point at earlier names, so each request's are installed."""
        return [", ".join(f"install {n} (= 1)" for n in self.names[k:k + SEED_CHUNK])
                for k in range(0, len(self.names), SEED_CHUNK)]


def _files(name: str) -> list[str]:
    return ([f"usr/bin/{name}"] + [f"usr/share/bench/{name}/data{k}" for k in range(3)]
            + [f"etc/{name}.conf"])


def _blob(rng: random.Random, head: str) -> bytes:
    words = " ".join(f"{rng.getrandbits(32):08x}" for _ in range(rng.randint(20, 200)))
    return f"{head}\n{words}\n".encode()


def _kv(mapping: dict) -> bytes:
    return "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping)).encode()


def _conf(name: str, version: int) -> dict:
    conf = {"alpha": f"{name}-a", "beta": f"{name}-b{version}", "gamma": "on"}
    if version == 2:
        conf["delta"] = f"{name}-d"
    return conf


def make_repository(rng: random.Random, n: int = NAMES, failing: int = 8) -> UpgradeRepo:
    names = tuple(f"p{i:03d}" for i in range(n))
    bad = frozenset(rng.sample(names, failing))
    # the share of merges and conflicts, and the cost they add to an apply,
    # stays the same from seed to seed
    kinds = deck(rng, [k for k, w in EDITS for _ in range(w)], n)
    stanzas, payloads, edits = [], {}, {}
    for i, name in enumerate(names):
        count = rng.choice((0, 0, 1, 2)) if i else 0
        deps = sorted({names[rng.randrange(i)] for _ in range(count)})
        for version in (1, 2):
            files = _files(name)
            lines = [f"Package: {name}", f"Version: {version}", f"Size: {rng.randint(5, 400)}"]
            if deps:
                lines.append("Depends: " + ", ".join(deps))
            if version == 2:
                lines.append(f"Conflicts: {name} (<< 2)")
            lines += ["Files: " + ", ".join(files), f"Conffiles: {files[-1]}",
                      f"Conffile-Syntax: {files[-1]}=keyvalue", "Postinst: hooks/postinst"]
            stanzas.append("\n".join(lines) + "\n")
            payload = {rel: _blob(rng, f"{name} {version} {rel}") for rel in files[:-1]}
            payload[files[-1]] = _kv(_conf(name, version))
            failing_hook = version == 2 and name in bad
            payload["hooks/postinst"] = (FAILING_POSTINST if failing_hook else POSTINST).encode()
            payloads[f"{name}_{version}"] = payload
        kind = kinds[i]
        edited = {"pristine": None,
                  "clean": {**_conf(name, 1), "alpha": f"{name}-local"},
                  "conflict": {**_conf(name, 1), "beta": f"{name}-local"}}[kind]
        edits[name] = (kind, None if edited is None else _kv(edited))
    return UpgradeRepo("\n".join(stanzas), payloads, names, bad, edits)


def make_cycles(rng: random.Random, repo: UpgradeRepo, count: int = CYCLES,
                per_apply: int = PER_APPLY) -> list[Cycle]:
    """Seeded cycles; one apply in ten (rounded) upgrades exactly one failing name."""
    good = [n for n in repo.names if n not in repo.failing]
    failing = sorted(repo.failing)
    fails = set(rng.sample(range(count), round(count / 10)))
    cycles = []
    for k in range(count):
        if k in fails:
            names = rng.sample(good, per_apply - 1) + [rng.choice(failing)]
        else:
            names = rng.sample(good, per_apply)
        cycles.append(Cycle(tuple(sorted(names)), k in fails))
    return cycles


def write_repo(repo: UpgradeRepo, path: Path) -> None:
    path.mkdir(parents=True)
    (path / "Packages").write_text(repo.meta, encoding="utf-8")
    for pkgdir, files in repo.payloads.items():
        for rel, data in files.items():
            f = path / pkgdir / rel
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_bytes(data)
            os.chmod(f, FILE_MODE)


def apply_edits(repo: UpgradeRepo, root: Path) -> None:
    """Edit conffiles by hand, outside the engine, as an administrator would."""
    for name, (_kind, content) in repo.edits.items():
        if content is not None:
            (root / f"etc/{name}.conf").write_bytes(content)


# --- the tree model -------------------------------------------------------------

def expected_tree(repo: UpgradeRepo, upgraded=()) -> dict[str, bytes]:
    """Every file under the root (``.pkgdb`` aside) after seeding, the hand
    edits, and a successful upgrade of ``upgraded`` to version 2."""
    files: dict[str, bytes] = {}
    for name in repo.names:
        version = 2 if name in upgraded else 1
        payload = repo.payloads[f"{name}_{version}"]
        for rel in _files(name)[:-1]:
            files[rel] = payload[rel]
        conf = f"etc/{name}.conf"
        kind, local = repo.edits[name]
        if version == 1 or kind == "pristine":
            files[conf] = local if (version == 1 and local is not None) else payload[conf]
        elif kind == "clean":
            files[conf] = _kv({**_conf(name, 2), "alpha": f"{name}-local"})
        else:
            files[conf] = local
            files[conf + ".pkgnew"] = payload[conf]
        files[f"var/lib/{name}/state"] = _kv({"version": version})
    files[USERS] = "".join(f"{n}\n" for n in sorted(repo.names)).encode()
    files[CACHE] = "".join(f"{rel} {hashlib.sha256(files[rel]).hexdigest()}\n"
                           for rel in sorted(files)
                           if rel != CACHE and fnmatch.fnmatchcase(rel, GLOB)).encode()
    return files


def model_snapshot(files: dict[str, bytes]) -> dict:
    """The snapshot :func:`tree_snapshot` must read for a tree holding ``files``."""
    snap = {}
    for rel, data in files.items():
        snap[rel] = ("file", FILE_MODE, hashlib.sha256(data).hexdigest())
        parts = rel.split("/")
        for k in range(1, len(parts)):
            snap["/".join(parts[:k])] = ("dir", DIR_MODE, None)
    return snap


def tree_snapshot(root: Path) -> dict:
    """(kind, permission bits, sha256) of every path under ``root`` but ``.pkgdb``."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        if rel_dir == ".":
            dirnames[:] = [d for d in dirnames if d != ".pkgdb"]
            prefix = ""
        else:
            prefix = rel_dir.replace(os.sep, "/") + "/"
            snap[prefix[:-1]] = ("dir", stat.S_IMODE(os.lstat(dirpath).st_mode), None)
        for name in filenames:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            snap[prefix + name] = ("file", stat.S_IMODE(os.lstat(p).st_mode), digest)
    return snap


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class UpgradeWorkload:
    """Apply-then-rollback cycles over a seeded root."""

    primary = "apply"
    setups = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, i: int) -> float:
        """Generate the repository and seed a root through the engine; returns
        the engine's seconds at the reference speed.

        Seeding is split into applies of :data:`SEED_CHUNK` names, each timed
        between its own calibrations: one apply of all 150 names takes about
        3 s, over which the host's speed changes too much for two
        calibrations to follow it."""
        rng = random.Random(self.seed)
        self.repo = make_repository(rng, NAMES)
        self.cycles = make_cycles(rng, self.repo, CYCLES, PER_APPLY)
        self.dir = fresh_dir(self.work / f"upgrade{i}")
        write_repo(self.repo, self.dir / "repo")
        self.root = self.dir / "root"
        self.root.mkdir()
        flush_tree(self.dir)
        engine = 0.0
        for request in self.repo.seed_requests():
            code, out, seconds = calibrated_call(["--root", str(self.root), "--repo",
                                                  str(self.dir / "repo"), "--json", "apply",
                                                  request])
            if code != 0:
                raise BenchError(f"seeding the root failed with exit {code}: {out.strip()}")
            engine += seconds
        apply_edits(self.repo, self.root)
        return engine

    def prepare(self) -> list[Cycle]:
        self.base = model_snapshot(expected_tree(self.repo))
        if tree_snapshot(self.root) != self.base:
            raise BenchError("the seeded root differs from the tree model")
        self.base_status = (self.root / ".pkgdb" / "status").read_bytes()
        self.expected = {c: model_snapshot(expected_tree(self.repo, c.names))
                         for c in self.cycles if not c.fails}
        self.history_bytes: list[int] = []
        self.conflicts: list[int] = []
        return self.cycles

    def _unchanged(self) -> bool:
        return (tree_snapshot(self.root) == self.base
                and (self.root / ".pkgdb" / "status").read_bytes() == self.base_status
                and not (self.root / ".pkgdb" / "lock").exists())

    def run(self, cycle: Cycle, tracer=None):
        """One apply, then (when it committed) one rollback; yields both."""
        code, out, seconds = call_cli(["--root", str(self.root), "--repo", str(self.dir / "repo"),
                                   "--json", "apply", cycle.request])
        report = json_report(out) or {}
        hid = report.get("history_id")
        if cycle.fails:
            yield "apply", seconds, code == 3 and report.get("result") == "script-failure" \
                and self._unchanged()
            return
        ok = code == 0 and hid is not None and tree_snapshot(self.root) == self.expected[cycle]
        if hid is not None:
            self.history_bytes.append(dir_bytes(self.root / ".pkgdb" / "history" / str(hid)))
            self.conflicts.append(len(report.get("conffile_conflicts", ())))
        yield "apply", seconds, ok
        if hid is None:
            return
        code, out, seconds = call_cli(["--root", str(self.root), "--json", "rollback", str(hid)])
        report = json_report(out) or {}
        yield "rollback", seconds, code == 0 and report.get("result") == "rolled-back" \
            and self._unchanged()

    def named(self) -> dict:
        """The size of a committed transaction's history and its conflicts."""
        return {"history_bytes_per_txn": {"value": statistics.median(self.history_bytes),
                                          "unit": "bytes"},
                "conffile_conflicts_per_apply": {"value": statistics.mean(self.conflicts),
                                                 "unit": "count"}}
