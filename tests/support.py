"""Shared fixtures, random-instance generators, and brute-force oracles."""

from __future__ import annotations

import contextlib
import errno
import os
import random
import shutil
from pathlib import Path
from unittest import mock

import txpkg.txn
from txpkg.resolver import Request, RequestAtom, check_solution
from txpkg.txn import Store
from txpkg.universe import (
    OPERATORS,
    Atom,
    Package,
    PackageId,
    Provide,
    Relationship,
    Status,
    Universe,
    Version,
    VersionConstraint,
)

# --- the two-package terminal-emulator fixture ---------------------------------

ATERM_META = """\
Package: aterm
Version: 1.0.1-4
Size: 46
Maintainer: aterm-team
Depends: libafterimage0
Files: usr/bin/aterm, etc/aterm/atermrc
Conffiles: etc/aterm/atermrc
Postinst: hooks/postinst

Package: libafterimage0
Version: 2.2.8-2
Size: 340
Maintainer: afterstep-team
Files: usr/lib/libAfterImage.so.0
"""

ATERM_PAYLOADS = {
    "aterm_1.0.1-4": {
        "usr/bin/aterm": b"#!ELF aterm binary\n",
        "etc/aterm/atermrc": b"background=black\nforeground=white\n",
        "hooks/postinst": b"mkdir var/cache/aterm\nappend var/cache/aterm/setup.log configured $PKG $NEW\n",
    },
    "libafterimage0_2.2.8-2": {
        "usr/lib/libAfterImage.so.0": b"#!ELF afterimage library\n",
    },
}


def write_repo(repo: Path, meta: str, payloads: dict) -> Path:
    repo.mkdir(parents=True, exist_ok=True)
    (repo / "Packages").write_text(meta)
    for pkgdir, files in payloads.items():
        for rel, data in files.items():
            f = repo / pkgdir / rel
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_bytes(data)
    return repo


def aterm_repo(tmp: Path) -> Path:
    return write_repo(tmp / "repo", ATERM_META, ATERM_PAYLOADS)


def new_store(tmp: Path, name: str = "root", preserve=None) -> Store:
    root = tmp / name
    root.mkdir(parents=True, exist_ok=True)
    if preserve is None:
        return Store(root)
    return Store(root, preserve=preserve)


def copy_store(store: Store, dest: Path) -> Store:
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(store.root, dest)
    return Store(dest, preserve=store.preserve)


@contextlib.contextmanager
def disk_full_halfway():
    """Within the block, the first ``os.write`` writes the first half of its
    bytes and the second fails with ENOSPC, so the first file write of
    ``Store.put`` or ``Store.save`` leaves half its bytes in place and raises,
    as on a disk that fills part-way.  Later writes go through."""
    real, calls = os.write, []

    def write(fd, data):
        calls.append(fd)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "disk full")
        return real(fd, data[:len(data) // 2] if len(calls) == 1 else data)

    with mock.patch.object(os, "write", write):
        yield


def commit_untrimmed(txn) -> int:
    """Commit with ``txpkg.txn.trim`` replaced by the identity, so the record
    keeps every journal entry."""
    with mock.patch.object(txpkg.txn, "trim", lambda entries, _states: list(entries)):
        return txn.commit()


# --- random upgrade problems ----------------------------------------------------

NAMES = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
         "golf", "hotel", "india", "juliet", "kilo", "lima"]
FEATURES = ["feat0", "feat1", "feat2"]
MAINTAINERS = ["alice", "bob", "carol", "evil-eve", "evil-mallory"]


def _random_version(rng: random.Random) -> Version:
    return Version(f"{rng.randint(0, 3)}.{rng.randint(0, 3)}")


def _random_constraint(rng: random.Random) -> VersionConstraint:
    return VersionConstraint(rng.choice(OPERATORS), _random_version(rng))


def random_universe(rng: random.Random, max_size: int = 12, min_size: int = 1,
                    names: list[str] = NAMES) -> Universe:
    """Random universe of ``min_size`` to ``max_size`` ids (at most 16 per name),
    with per-universe dependency/conflict/provide densities."""
    n = rng.randint(min_size, max_size)
    dep_density = rng.uniform(0.2, 0.9)
    conflict_density = rng.uniform(0.0, 0.5)
    provide_density = rng.uniform(0.0, 0.5)
    keyset = set()
    while len(keyset) < n:
        name = rng.choice(names[:max(3, min(n, len(names)))])
        keyset.add((name, _random_version(rng).raw))
    targets = sorted({nm for nm, _ in keyset}) + FEATURES
    packages = []
    for name, raw in sorted(keyset):
        provides = []
        if rng.random() < provide_density:
            feat = rng.choice(FEATURES)
            provides.append(Provide(feat, Version(raw) if rng.random() < 0.5 else None))
        depends = []
        for _ in range(2):
            if rng.random() >= dep_density:
                continue
            clause = []
            for _ in range(rng.randint(1, 2)):
                target = "ghost" if rng.random() < 0.12 else rng.choice(targets)
                constraint = _random_constraint(rng) if rng.random() < 0.35 else None
                clause.append(Atom(target, constraint))
            depends.append(tuple(clause))
        conflicts = []
        for _ in range(2):
            if rng.random() >= conflict_density:
                continue
            others = [t for t in targets if t != name]
            constraint = _random_constraint(rng) if rng.random() < 0.3 else None
            conflicts.append(Atom(rng.choice(others), constraint))
        packages.append(Package(
            id=PackageId(name, Version(raw)),
            rel=Relationship(tuple(depends), tuple(conflicts), tuple(provides)),
            size_kb=rng.randint(0, 200),
            maintainer=rng.choice(MAINTAINERS),
        ))
    return Universe(packages)


def random_status(rng: random.Random, u: Universe) -> Status:
    installed = frozenset(pid for pid in u.ids if rng.random() < 0.35)
    return Status(installed)


def random_request(rng: random.Random, u: Universe) -> Request:
    names = sorted({p.name for p in u})
    atoms: list[RequestAtom] = []
    taken: dict[str, str] = {}
    for _ in range(rng.randint(1, 3)):
        action = rng.choice(["install", "install", "install", "remove", "upgrade"])
        pool = names + FEATURES + (["ghost"] if rng.random() < 0.1 else [])
        name = rng.choice(pool)
        prev = taken.get(name)
        if prev is not None and (prev == "remove") != (action == "remove"):
            continue
        taken[name] = action
        constraint = _random_constraint(rng) if rng.random() < 0.3 else None
        atoms.append(RequestAtom(action, name, constraint))
    if not atoms:
        atoms = [RequestAtom("install", names[0])]
    return Request(tuple(atoms))


def oracle_statuses(u: Universe, s0: Status, r: Request) -> list[Status]:
    """Every acceptable status, by checking all 2^|U| subsets."""
    ids = list(u.ids)
    out = []
    for mask in range(1 << len(ids)):
        installed = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        st = Status(installed)
        if check_solution(u, st, r, s0).ok:
            out.append(st)
    return out


# --- random always-succeeding DSL programs ---------------------------------------

KV_FILES = ["etc/app.conf", "etc/daemon.conf"]
TEXT_FILES = ["etc/motd", "usr/share/app/a.txt", "usr/share/app/b.txt", "opt/data/notes"]
CACHE_FILES = ["var/cache/app.idx", "var/cache/fonts.idx"]
DIRS = ["etc", "usr/share/app", "opt/data", "srv/site", "var/cache"]
GLOBS = ["usr/share/app/*", "etc/*", "opt/*"]
USERS = ["amy", "ben", "cleo"]
KEYS = ["color", "port", "mode"]
WORDS = ["one", "two words", "three", "x=1", "hello there"]


def seed_tree(root: Path) -> None:
    """A small deterministic starting tree for script and journal tests."""
    for rel, data in {
        "etc/motd": b"welcome\n",
        "etc/app.conf": b"color=red\nport=80\n",
        "usr/share/app/a.txt": b"alpha\n",
        "usr/share/app/b.txt": b"beta\n",
        "etc/users.db": b"amy\n",
    }.items():
        f = root / rel
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_bytes(data)


def random_hook_script(rng: random.Random, tag: str) -> str:
    """Hook text from primitives that succeed on any store state."""
    lines = []
    for _ in range(rng.randint(1, 2)):
        roll = rng.randrange(6)
        if roll == 0:
            lines.append(f"mkdir var/lib/{tag}")
        elif roll == 1:
            lines.append(f"append var/lib/{tag}/log.txt ran $PKG")
        elif roll == 2:
            lines.append(f"setkey etc/{tag}-state.conf key{rng.randint(0, 2)} v{rng.randint(0, 9)}")
        elif roll == 3:
            lines.append(f"adduser user{rng.randint(0, 2)}")
        elif roll == 4:
            lines.append(f"deluser user{rng.randint(0, 2)}")
        else:
            lines.append(f"update-cache var/cache/{tag}.idx usr/{tag}/*")
    return "\n".join(lines) + "\n"


def _stanza(name, version, files, conffiles=(), depends="", conflicts="", hooks=()):
    out = [f"Package: {name}", f"Version: {version}", "Size: 1"]
    if depends:
        out.append(f"Depends: {depends}")
    if conflicts:
        out.append(f"Conflicts: {conflicts}")
    out.append("Files: " + ", ".join(files))
    if conffiles:
        out.append("Conffiles: " + ", ".join(conffiles))
    for key in hooks:
        out.append(f"{key}: hooks/{key.lower()}")
    return "\n".join(out) + "\n"


def _payload(rng, name, files, hooks):
    payload = {rel: f"{name}:{rel}:{rng.randint(0, 999)}\n".encode() for rel in files}
    for key in hooks:
        payload[f"hooks/{key.lower()}"] = random_hook_script(rng, name).encode()
    return payload


def atomicity_scenario(rng: random.Random, tmp: Path, idx: int):
    """A random install or upgrade/remove/install scenario.

    Returns (universe, repo path, template store, request text, prefs text);
    the template store holds the scenario's starting state.
    """
    from txpkg.planner import execute_plan, plan as make_plan
    from txpkg.preferences import parse_prefs
    from txpkg.resolver import parse_request
    from txpkg.universe import parse_universe

    def hook_roll():
        return tuple(k for k in ("Preinst", "Postinst") if rng.random() < 0.7)

    stanzas, payloads = [], {}
    if rng.random() < 0.6:
        # fresh install of a short dependency chain
        chain = [f"p{idx}{c}" for c in "abc"[: rng.randint(2, 3)]]
        for pos, name in enumerate(chain):
            files = [f"usr/{name}/bin"]
            conff = []
            if rng.random() < 0.5:
                files.append(f"etc/{name}.conf")
                conff = [f"etc/{name}.conf"]
            hooks = hook_roll()
            stanzas.append(_stanza(name, "1", files, conff,
                                   depends=chain[pos - 1] if pos else "", hooks=hooks))
            payloads[f"{name}_1"] = _payload(rng, name, files, hooks)
        request = f"install {chain[-1]}"
        prefs = "-removed,-changed,-new,-download"
        seed_request = None
    else:
        core, leaf, extra = f"c{idx}core", f"c{idx}leaf", f"c{idx}extra"
        core_files = [f"usr/{core}/bin", f"etc/{core}.conf"]
        core1_hooks = hook_roll()
        core2_hooks = hook_roll() + (("Prerm",) if rng.random() < 0.5 else ())
        leaf_hooks = tuple(k for k in ("Prerm", "Postrm") if rng.random() < 0.7)
        extra_hooks = hook_roll()
        stanzas.append(_stanza(core, "1", core_files, [f"etc/{core}.conf"],
                               conflicts=f"{core} (>> 1)", hooks=core1_hooks))
        stanzas.append(_stanza(core, "2", core_files, [f"etc/{core}.conf"],
                               conflicts=f"{core} (<< 2)", hooks=core2_hooks))
        stanzas.append(_stanza(leaf, "1", [f"usr/{leaf}/data"], hooks=leaf_hooks))
        stanzas.append(_stanza(extra, "1", [f"usr/{extra}/bin"], hooks=extra_hooks))
        payloads[f"{core}_1"] = _payload(rng, core, core_files, core1_hooks)
        payloads[f"{core}_2"] = _payload(rng, core, core_files, core2_hooks)
        payloads[f"{leaf}_1"] = _payload(rng, leaf, [f"usr/{leaf}/data"], leaf_hooks)
        payloads[f"{extra}_1"] = _payload(rng, extra, [f"usr/{extra}/bin"], extra_hooks)
        request = f"upgrade {core}, remove {leaf}, install {extra}"
        prefs = "-notuptodate,-removed,-changed,-new,-download"
        seed_request = f"install {core} (= 1), install {leaf}"

    meta = "\n".join(stanzas)
    repo = write_repo(tmp / f"repo{idx}", meta, payloads)
    universe = parse_universe(meta)
    template = new_store(tmp, f"template{idx}")
    if seed_request is not None:
        p = make_plan(universe, template.load_status(universe),
                      parse_request(seed_request), parse_prefs("-removed,-changed,-new,-download"))
        outcome = execute_plan(p, template, repo)
        assert outcome.result == "success", outcome
    return universe, repo, template, request, prefs


class _TreeModel:
    """Tracks which paths exist so generated programs always succeed."""

    def __init__(self):
        self.text = {"etc/motd", "usr/share/app/a.txt", "usr/share/app/b.txt"}
        self.kv = {"etc/app.conf"}


def random_program_text(rng: random.Random, max_len: int = 8) -> str:
    model = _TreeModel()
    lines = []
    for _ in range(rng.randint(1, max_len)):
        op = rng.choice(["mkdir", "copy", "remove", "append", "append", "setkey",
                         "delkey", "update-cache", "adduser", "deluser"])
        if op == "mkdir":
            lines.append(f"mkdir {rng.choice(DIRS)}")
        elif op == "copy":
            src = rng.choice(sorted(model.text))
            dst = rng.choice(TEXT_FILES)
            lines.append(f"copy {src} {dst}")
            model.text.add(dst)
        elif op == "remove":
            removable = sorted(model.text - {"etc/motd"})
            if len(model.text) <= 1 or not removable:
                lines.append("append etc/motd again")
                continue
            victim = rng.choice(removable)
            lines.append(f"remove {victim}")
            model.text.discard(victim)
        elif op == "append":
            target = rng.choice(TEXT_FILES)
            lines.append(f"append {target} {rng.choice(WORDS)}")
            model.text.add(target)
        elif op == "setkey":
            target = rng.choice(KV_FILES)
            lines.append(f"setkey {target} {rng.choice(KEYS)} {rng.choice(WORDS)}")
            model.kv.add(target)
        elif op == "delkey":
            if not model.kv:
                lines.append("adduser ben")
                continue
            lines.append(f"delkey {rng.choice(sorted(model.kv))} {rng.choice(KEYS)}")
        elif op == "update-cache":
            lines.append(f"update-cache {rng.choice(CACHE_FILES)} {rng.choice(GLOBS)}")
        elif op == "adduser":
            lines.append(f"adduser {rng.choice(USERS)}")
        else:
            lines.append(f"deluser {rng.choice(USERS)}")
    return "\n".join(lines) + "\n"
