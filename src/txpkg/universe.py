"""Repository metadata model: versions, packages, universes, and statuses.

The on-disk formats are UTF-8 text made of blank-line-separated stanzas of
``Key: value`` lines.  ``parse_universe`` documents the accepted keys; status
files use the same stanza syntax restricted to ``Package`` and ``Version``,
and both are read through one stanza reader.  One ``parse_universe`` call
builds each distinct version string, constraint and dependency atom once:
the ``Version``, ``VersionConstraint`` and ``Atom`` objects are immutable,
so every package that names one shares it.  This module also holds the
grammar of a ``name (op version)`` atom, which request parsing reuses, and
``status_diff``, the one definition of which names an upgrade removes,
changes and adds; the preference criteria read it for whole statuses and,
in the optimiser's bound, for one name's states.
``derive_owned`` is the one rule of path ownership: a status may not install
two packages that ship one path.  Reading a status file and executing a plan
both apply it, the latter to the plan's final status before the root is
touched.  ``dump`` and ``load`` are the one codec of a parsed universe, the
blob the CLI caches in ``.pkgdb/universe``: it is keyed by ``_CODEC`` and
the SHA-256 of the ``Packages`` bytes, and ``load`` reads any other as None.
"""

from __future__ import annotations

import hashlib
import marshal
import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Iterator

__all__ = [
    "MetadataError",
    "Version",
    "PackageId",
    "VersionConstraint",
    "Atom",
    "Provide",
    "Relationship",
    "Package",
    "Universe",
    "Status",
    "StatusDiff",
    "OPERATORS",
    "RESERVED_DIR",
    "SCRIPT_HOOKS",
    "compare_versions",
    "satisfies",
    "check_rel_path",
    "derive_owned",
    "status_diff",
    "parse_universe",
    "parse_status",
    "serialize_status",
    "parse_dependency_atom",
    "decode_text",
]

#: Relational operators accepted in version constraints.  ``<`` and ``>`` are
#: rejected on purpose: callers must spell out strict (`<<`, `>>`) or
#: inclusive (`<=`, `>=`) comparison.
OPERATORS = ("<<", "<=", "=", ">=", ">>")

_NAME_RE = re.compile(r"[a-z0-9][a-z0-9.+-]*$")
_SEGMENT_RE = re.compile(r"[A-Za-z0-9+]+$")
_DIGITS_RE = re.compile(r"[0-9]+$")
_VERSION_SEP_RE = re.compile(r"[.-]")
_SPACE_RE = re.compile(r"\s")  # matches exactly the characters where str.isspace() holds
_KEY_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*")
# a version never starts with an operator character; excluding them keeps a
# missing version ("b (>= )") from taking the operator's second character
_ATOM_RE = re.compile(
    r"([a-z0-9][a-z0-9.+-]*)\s*(?:\(\s*([<>=]{1,2})\s*([^\s()<>=][^\s()]*)\s*\))?$")


class MetadataError(ValueError):
    """Malformed metadata, status text, version string, constraint, or non-UTF-8 input."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def decode_text(data: bytes, source) -> str:
    """``data`` as UTF-8 text, or a MetadataError naming ``source``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MetadataError(f"{source}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _version_key(raw: str) -> tuple:
    if not raw or _SPACE_RE.search(raw):
        raise MetadataError(f"invalid version {raw!r}: must be non-empty with no whitespace")
    key = []
    for seg in _VERSION_SEP_RE.split(raw):
        if _DIGITS_RE.match(seg):
            key.append((0, int(seg), ""))
        elif _SEGMENT_RE.match(seg):
            key.append((1, 0, seg))
        else:
            raise MetadataError(f"invalid version {raw!r}: bad segment {seg!r}")
    return tuple(key)


@total_ordering
class Version:
    """A package version, totally ordered by its dot/dash segments.

    The raw string is split on ``.`` and ``-``; segments compare pairwise:
    numeric segments as integers, anything else bytewise, with numeric
    segments ordering before alphanumeric ones.  A version that runs out of
    segments sorts before any longer one.  Two versions are equal exactly
    when their segment keys are equal, so ``1.0`` equals ``1.00``.
    """

    __slots__ = ("raw", "key", "_hash")

    def __init__(self, raw: str):
        self.raw = raw
        self.key = _version_key(raw)
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Version) and self.key == other.key

    def __lt__(self, other):
        if not isinstance(other, Version):
            return NotImplemented
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.raw

    def __repr__(self):
        return f"Version({self.raw!r})"


def compare_versions(a: Version, b: Version) -> int:
    """Total order on versions: -1, 0, or 1 as ``a`` is below, at, or above ``b``."""
    if a.key < b.key:
        return -1
    if a.key > b.key:
        return 1
    return 0


@total_ordering
class PackageId:
    """Name plus version; unique within a universe."""

    __slots__ = ("name", "version", "key", "_hash")

    def __init__(self, name: str, version: Version):
        if not _NAME_RE.match(name):
            raise MetadataError(f"invalid package name {name!r}")
        self.name = name
        self.version = version
        self.key = (name, version.key)
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, PackageId) and self.key == other.key

    def __lt__(self, other):
        if not isinstance(other, PackageId):
            return NotImplemented
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"{self.name} {self.version}"

    def __repr__(self):
        return f"PackageId({self.name!r}, {self.version!r})"


@dataclass(frozen=True)
class VersionConstraint:
    op: str
    version: Version

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise MetadataError(f"invalid operator {self.op!r}")

    def admits(self, v: Version) -> bool:
        c = compare_versions(v, self.version)
        if self.op == "<<":
            return c < 0
        if self.op == "<=":
            return c <= 0
        if self.op == "=":
            return c == 0
        if self.op == ">=":
            return c >= 0
        return c > 0

    def __str__(self):
        return f"{self.op} {self.version}"


@dataclass(frozen=True)
class Atom:
    """One alternative inside a dependency clause, or one conflict target."""

    name: str
    constraint: VersionConstraint | None = None

    def __str__(self):
        if self.constraint is None:
            return self.name
        return f"{self.name} ({self.constraint})"


@dataclass(frozen=True)
class Provide:
    """A feature name a package declares, optionally at a fixed version."""

    name: str
    version: Version | None = None

    def __str__(self):
        if self.version is None:
            return self.name
        return f"{self.name} (= {self.version})"


@dataclass(frozen=True)
class Relationship:
    """Dependencies in conjunctive form (every clause must hold, a clause
    holds when any of its atoms does), a flat conflict list, and provides."""

    depends: tuple[tuple[Atom, ...], ...] = ()
    conflicts: tuple[Atom, ...] = ()
    provides: tuple[Provide, ...] = ()


#: Directory reserved for the engine's own state inside a sandbox root; no
#: package file, script path, or store write may ever live under it.
RESERVED_DIR = ".pkgdb"


# check_rel_path's rule as one pattern: "/"-separated segments of characters
# other than "\\" and whitespace, none of them "." or "..", the first not
# RESERVED_DIR; a leading "/" is an empty first segment
_REL_PATH_RE = re.compile(
    rf"(?!{re.escape(RESERVED_DIR)}(?:/|\Z))(?!\.\.?(?:/|\Z))[^/\\\s]+"
    r"(?:/(?!\.\.?(?:/|\Z))[^/\\\s]+)*")


def check_rel_path(path: str, line: int | None = None) -> str:
    """Validate a sandbox-relative path: normalized, no traversal, no funny business."""
    if _REL_PATH_RE.fullmatch(path):
        return path
    # the path is rejected; these checks word the error
    if not path or path.startswith("/") or "\\" in path or _SPACE_RE.search(path):
        raise MetadataError(f"invalid relative path {path!r}", line)
    for part in path.split("/"):
        if part in ("", ".", ".."):
            raise MetadataError(f"invalid relative path {path!r}: segment {part!r}", line)
    if path.split("/", 1)[0] == RESERVED_DIR:
        raise MetadataError(f"invalid relative path {path!r}: reserved for engine state", line)
    return path


# the maintainer-script hooks; each is a Package field and, capitalised, a stanza key
SCRIPT_HOOKS = ("preinst", "postinst", "prerm", "postrm")


@dataclass(frozen=True)
class Package:
    """One versioned unit: identity, relationships, payload manifest, scripts.
    :func:`parse_universe` validates the fields, with line numbers."""

    id: PackageId
    rel: Relationship = Relationship()
    size_kb: int = 0
    maintainer: str = ""
    files: tuple[str, ...] = ()
    conffiles: frozenset = frozenset()
    preinst: str | None = None
    postinst: str | None = None
    prerm: str | None = None
    postrm: str | None = None
    conffile_syntax: tuple[tuple[str, str], ...] = ()

    @property
    def name(self) -> str:
        return self.id.name

    @property
    def version(self) -> Version:
        return self.id.version

    def script_for(self, hook: str) -> str | None:
        if hook not in SCRIPT_HOOKS:
            raise ValueError(f"unknown hook {hook!r}")
        return getattr(self, hook)

    def syntax_for(self, path: str) -> str:
        """Merge syntax hint for a conffile; defaults to plain lines."""
        for p, syntax in self.conffile_syntax:
            if p == path:
                return syntax
        return "lines"


def satisfies(atom: Atom, candidate: Package) -> bool:
    """True when the candidate meets a dependency atom.

    A candidate matches by name when the constraint (if any) admits its
    version, or through a feature it provides.  A bare provide satisfies only
    unversioned atoms; a versioned provide satisfies a versioned atom when the
    constraint admits the provided version.
    """
    if candidate.id.name == atom.name:
        if atom.constraint is None or atom.constraint.admits(candidate.id.version):
            return True
    for prov in candidate.rel.provides:
        if prov.name != atom.name:
            continue
        if atom.constraint is None:
            return True
        if prov.version is not None and atom.constraint.admits(prov.version):
            return True
    return False


class Universe:
    """The full set of known packages, with name and feature indexes.

    Immutable after construction; safe to share between readers.
    """

    def __init__(self, packages: Iterable[Package]):
        by_id: dict[PackageId, Package] = {}
        for pkg in packages:
            if pkg.id in by_id:
                raise MetadataError(f"duplicate package {pkg.id}")
            by_id[pkg.id] = pkg
        self._by_id = by_id
        self.ids: tuple[PackageId, ...] = tuple(sorted(by_id, key=lambda i: i.key))
        by_name: dict[str, list[Package]] = {}
        providers: dict[str, list[tuple[Package, Version | None]]] = {}
        for pid in self.ids:
            pkg = by_id[pid]
            by_name.setdefault(pid.name, []).append(pkg)
            for prov in pkg.rel.provides:
                providers.setdefault(prov.name, []).append((pkg, prov.version))
        self._by_name = {n: tuple(ps) for n, ps in by_name.items()}
        self._providers = {n: tuple(ps) for n, ps in providers.items()}
        self._satisfier_cache: dict[Atom, tuple[Package, ...]] = {}

    def __len__(self):
        return len(self._by_id)

    def __iter__(self) -> Iterator[Package]:
        return (self._by_id[i] for i in self.ids)

    def __contains__(self, pid: PackageId) -> bool:
        return pid in self._by_id

    def __eq__(self, other):
        return isinstance(other, Universe) and self._by_id == other._by_id

    def get(self, pid: PackageId) -> Package:
        return self._by_id[pid]

    def by_name(self, name: str) -> tuple[Package, ...]:
        return self._by_name.get(name, ())

    def providers_of(self, feature: str) -> tuple[tuple[Package, Version | None], ...]:
        return self._providers.get(feature, ())

    def versions_of(self, name: str) -> tuple[Version, ...]:
        return tuple(p.id.version for p in self.by_name(name))

    def max_version(self, name: str) -> Version | None:
        versions = self.versions_of(name)
        return max(versions) if versions else None

    def satisfiers(self, atom: Atom) -> tuple[Package, ...]:
        """All packages in the universe satisfying a dependency atom."""
        cached = self._satisfier_cache.get(atom)
        if cached is not None:
            return cached
        pool: dict[PackageId, Package] = {}
        for pkg in self.by_name(atom.name):
            pool[pkg.id] = pkg
        for pkg, _version in self.providers_of(atom.name):
            pool.setdefault(pkg.id, pkg)
        out = tuple(pkg for _pid, pkg in sorted(pool.items(), key=lambda kv: kv[0].key)
                    if satisfies(atom, pkg))
        self._satisfier_cache[atom] = out
        return out


@dataclass(frozen=True)
class Status:
    """The installed subset of a universe.  Which package owns a path is
    computed from it (:func:`derive_owned`), never stored."""

    installed: frozenset = frozenset()

    def versions_of(self, name: str) -> tuple[Version, ...]:
        return tuple(sorted((p.version for p in self.installed if p.name == name)))

    def max_version(self, name: str) -> Version | None:
        versions = self.versions_of(name)
        return versions[-1] if versions else None


@dataclass(frozen=True)
class StatusDiff:
    """How the installed names move from one status to another.

    ``removed``: names installed before with no version left installed;
    ``changed``: names installed before and after whose version set differs;
    ``new``: names installed after that were not installed before.  Each is
    a sorted tuple.  ``download_kb`` is the total size of the packages to
    fetch (installed after, not before).
    """

    removed: tuple[str, ...]
    changed: tuple[str, ...]
    new: tuple[str, ...]
    download_kb: int


def status_diff(universe: Universe, s0: Status, s: Status) -> StatusDiff:
    """The move from ``s0`` to ``s``, counted by name; all lie in ``universe``."""
    old, now = s0.installed, s.installed
    fetched = now - old
    before = {pid.name for pid in old}
    after = {pid.name for pid in now}
    # a name's version set differs once it gains a version or loses one
    moved = {pid.name for pid in old ^ now}
    return StatusDiff(
        removed=tuple(sorted(before - after)),
        changed=tuple(sorted(before & after & moved)),
        new=tuple(sorted(after - before)),
        download_kb=sum(universe.get(pid).size_kb for pid in fetched),
    )


def derive_owned(universe: Universe, installed: Iterable[PackageId]) -> dict[str, PackageId]:
    """Path ownership map for an installed set; two owners for one path is a
    :class:`MetadataError` naming the path and both packages."""
    owned: dict[str, PackageId] = {}
    for pid in sorted(installed, key=lambda i: i.key):
        for path in universe.get(pid).files:
            other = owned.get(path)
            if other is not None:
                raise MetadataError(f"path {path!r} owned by both {other} and {pid}")
            owned[path] = pid
    return owned


# --- parsing -----------------------------------------------------------------

class _Memo:
    """The versions, constraints and atoms that one parse has built, by their
    text.  All are immutable, so the packages that name one text share one
    object."""

    __slots__ = ("versions", "constraints", "atoms")

    def __init__(self):
        self.versions: dict[str, Version] = {}
        self.constraints: dict[tuple[str, str], VersionConstraint] = {}
        self.atoms: dict[str, Atom] = {}

    def version(self, text: str, line: int | None) -> Version:
        version = self.versions.get(text)
        if version is None:
            try:
                version = self.versions[text] = Version(text)
            except MetadataError as e:
                raise MetadataError(str(e), line) from None
        return version

    def atom(self, text: str, line: int | None) -> Atom:
        """``text`` as a dependency atom (see :func:`parse_dependency_atom`)."""
        key = text.strip()
        atom = self.atoms.get(key)
        if atom is None:
            m = _ATOM_RE.match(key)
            if not m:
                raise MetadataError(f"bad atom {text!r}", line)
            name, op, ver = m.groups()
            if op is None:
                atom = Atom(name)
            elif op not in OPERATORS:
                hint = " (use << or >> for strict comparison)" if op in ("<", ">") else ""
                raise MetadataError(f"bad operator {op!r} in {text!r}{hint}", line)
            else:
                constraint = self.constraints.get((op, ver))
                if constraint is None:
                    constraint = self.constraints[op, ver] = VersionConstraint(
                        op, self.version(ver, line))
                atom = Atom(name, constraint)
            self.atoms[key] = atom
        return atom


def _read_stanzas(text: str, keys, memo: _Memo, kind: str = ""):
    """Each stanza's fields and package id: ``(fields, pid)``.

    A stanza is a run of ``Key: value`` lines, the key being the text before
    the first ``:``.  ``fields`` maps each key to its ``(line, value)``.
    Every key must be one of ``keys`` (all of which fit the key grammar) and
    appear once, and ``Package`` and ``Version`` are required; ``kind`` (""
    or "status ") prefixes the texts of those errors.  A line that breaks the
    grammar is raised before the first stanza is yielded; the other errors
    are raised when their stanza's turn comes.  Only a line that adds no
    field is matched against the grammar.
    """
    stanzas: list[tuple[dict[str, tuple[int, str]], MetadataError | None]] = []
    fields: dict[str, tuple[int, str]] = {}
    fault = None  # the stanza's first unknown or repeated key
    for no, line in enumerate(text.splitlines(), 1):
        key, sep, value = line.partition(":")
        if sep and key in keys and key not in fields:
            fields[key] = (no, value.strip())
        elif not line.strip():
            if fields or fault is not None:
                stanzas.append((fields, fault))
                fields, fault = {}, None
        elif not sep or not _KEY_RE.fullmatch(key):
            raise MetadataError(f"expected 'Key: value', got {line!r}", no)
        elif fault is None:
            fault = MetadataError(f"unknown {kind}key {key!r}" if key not in keys
                                  else f"duplicate key {key!r} in stanza", no)
    if fields or fault is not None:
        stanzas.append((fields, fault))
    for fields, fault in stanzas:
        if fault is not None:
            raise fault
        if "Package" not in fields or "Version" not in fields:
            raise MetadataError(f"{kind}stanza needs Package and Version",
                                next(iter(fields.values()))[0])
        name_line, name = fields["Package"]
        if not _NAME_RE.match(name):
            raise MetadataError(f"invalid package name {name!r}", name_line)
        ver_line, raw_version = fields["Version"]
        yield fields, PackageId(name, memo.version(raw_version, ver_line))


def parse_dependency_atom(text: str, line: int | None = None) -> Atom:
    return _Memo().atom(text, line)


def _parse_depends(value: str, line: int, memo: _Memo) -> tuple[tuple[Atom, ...], ...]:
    clauses = []
    for clause_text in value.split(","):
        clause_text = clause_text.strip()
        if not clause_text:
            raise MetadataError("empty dependency clause", line)
        clauses.append(tuple(memo.atom(a, line) for a in clause_text.split("|")))
    return tuple(clauses)


def _parse_atom_list(value: str, line: int, memo: _Memo) -> tuple[Atom, ...]:
    atoms = []
    for text in value.split(","):
        if text.strip():
            atoms.append(memo.atom(text, line))
    return tuple(atoms)


def _parse_provides(value: str, line: int, memo: _Memo) -> tuple[Provide, ...]:
    out = []
    for item in value.split(","):
        atom = memo.atom(item, line)
        if atom.constraint is None:
            out.append(Provide(atom.name))
        elif atom.constraint.op == "=":
            out.append(Provide(atom.name, atom.constraint.version))
        else:
            raise MetadataError(f"provides may only pin with '=': {item.strip()!r}", line)
    return tuple(out)


def _parse_paths(value: str, line: int, key: str) -> tuple[str, ...]:
    """The comma-separated paths of field ``key``, in order; none may repeat."""
    paths: dict[str, None] = {}
    for item in value.split(","):
        path = item.strip()
        if path:
            if check_rel_path(path, line) in paths:
                raise MetadataError(f"{key} repeats path {path!r}", line)
            paths[path] = None
    return tuple(paths)


_STATUS_KEYS = frozenset({"Package", "Version"})
_UNIVERSE_KEYS = {
    "Package", "Version", "Depends", "Conflicts", "Provides", "Size", "Maintainer",
    "Files", "Conffiles", "Conffile-Syntax", *(hook.capitalize() for hook in SCRIPT_HOOKS),
}


def _drop_self_conflicts(conflicts: tuple[Atom, ...], pid: PackageId) -> tuple[Atom, ...]:
    # An atom that would make a package conflict with itself is meaningless
    # and silently dropped: same name and a constraint (if any) admitting the
    # package's own version.
    kept = []
    for atom in conflicts:
        if atom.name == pid.name and (
            atom.constraint is None or atom.constraint.admits(pid.version)
        ):
            continue
        kept.append(atom)
    return tuple(kept)


def parse_universe(text: str) -> Universe:
    """Parse repository metadata into a Universe.

    Accepted stanza keys: ``Package`` and ``Version`` (required), ``Depends``,
    ``Conflicts``, ``Provides``, ``Size`` (kB in ASCII digits, default 0),
    ``Maintainer``, ``Files`` (comma-separated relative paths), ``Conffiles``
    (subset of Files), ``Preinst``/``Postinst``/``Prerm``/``Postrm``
    (payload-relative script paths), and ``Conffile-Syntax``
    (``path=lines|keyvalue`` entries, comma separated).  No path may repeat
    within ``Files``, ``Conffiles`` or ``Conffile-Syntax``.

    Dependency grammar: clauses separated by ``,``; alternatives inside a
    clause by ``|``; an atom is ``name`` optionally followed by
    ``(op version)`` with op one of ``<< <= = >= >>``.
    """
    packages = []
    memo = _Memo()
    for fields, pid in _read_stanzas(text, _UNIVERSE_KEYS, memo):
        depends: tuple[tuple[Atom, ...], ...] = ()
        if "Depends" in fields:
            depends = _parse_depends(fields["Depends"][1], fields["Depends"][0], memo)
        conflicts: tuple[Atom, ...] = ()
        if "Conflicts" in fields:
            conflicts = _drop_self_conflicts(
                _parse_atom_list(fields["Conflicts"][1], fields["Conflicts"][0], memo), pid)
        provides: tuple[Provide, ...] = ()
        if "Provides" in fields:
            provides = _parse_provides(fields["Provides"][1], fields["Provides"][0], memo)

        size = 0
        if "Size" in fields:
            line, value = fields["Size"]
            if not _DIGITS_RE.fullmatch(value.removeprefix("-")):
                raise MetadataError(f"bad Size {value!r}", line)
            size = int(value)
            if size < 0:
                raise MetadataError(f"bad Size {value!r}: negative", line)

        files: tuple[str, ...] = ()
        if "Files" in fields:
            files = _parse_paths(fields["Files"][1], fields["Files"][0], "Files")
        conffiles: frozenset = frozenset()
        if "Conffiles" in fields:
            line, value = fields["Conffiles"]
            conffiles = frozenset(_parse_paths(value, line, "Conffiles"))
            if not conffiles <= set(files):
                raise MetadataError("Conffiles must be a subset of Files", line)

        scripts: dict[str, str] = {}
        for hook in SCRIPT_HOOKS:
            if hook.capitalize() in fields:
                line, value = fields[hook.capitalize()]
                scripts[hook] = check_rel_path(value, line)

        syntax: tuple[tuple[str, str], ...] = ()
        if "Conffile-Syntax" in fields:
            line, value = fields["Conffile-Syntax"]
            modes: dict[str, str] = {}
            for item in value.split(","):
                item = item.strip()
                if not item:
                    continue
                path, sep, mode = item.partition("=")
                if not sep or mode not in ("lines", "keyvalue"):
                    raise MetadataError(f"bad Conffile-Syntax entry {item!r}", line)
                path = check_rel_path(path, line)
                if path not in conffiles:
                    raise MetadataError(f"Conffile-Syntax for non-conffile {path!r}", line)
                if path in modes:
                    raise MetadataError(f"Conffile-Syntax repeats path {path!r}", line)
                modes[path] = mode
            syntax = tuple(modes.items())

        maintainer = fields["Maintainer"][1] if "Maintainer" in fields else ""
        packages.append(Package(
            id=pid, rel=Relationship(depends, conflicts, provides),
            size_kb=size, maintainer=maintainer, files=files, conffiles=conffiles,
            conffile_syntax=syntax, **scripts,
        ))
    return Universe(packages)


#: The cache codec's version: bump it when a parse of the same text would
#: build another universe, so that older blobs read as misses.
_CODEC = b"txpkg-universe 1\n"


def dump(universe: Universe, packages: bytes) -> bytes:
    """``universe``, parsed from the bytes ``packages``, as a blob: ``_CODEC``,
    the SHA-256 of ``packages`` and of the body, then the body, marshalled
    tuples of str, int and None: the raw versions, the atoms as ``(name, op,
    version index)`` and one row per package in :class:`Package` field order."""
    versions: dict[str, int] = {}
    atoms: dict[tuple, int] = {}

    def version(v: Version | None) -> int | None:
        return None if v is None else versions.setdefault(v.raw, len(versions))

    def atom(a: Atom) -> int:
        c = a.constraint
        key = (a.name, None, None) if c is None else (a.name, c.op, version(c.version))
        return atoms.setdefault(key, len(atoms))

    rows = tuple(((p.name, version(p.version)),
                  (tuple(tuple(map(atom, clause)) for clause in p.rel.depends),
                   tuple(map(atom, p.rel.conflicts)),
                   tuple((f.name, version(f.version)) for f in p.rel.provides)),
                  p.size_kb, p.maintainer, p.files, tuple(sorted(p.conffiles)),
                  p.preinst, p.postinst, p.prerm, p.postrm, p.conffile_syntax)
                 for p in universe)
    body = marshal.dumps((tuple(versions), tuple(atoms), rows))
    return _CODEC + hashlib.sha256(packages).digest() + hashlib.sha256(body).digest() + body


def load(blob: bytes, packages: bytes) -> Universe | None:
    """The universe :func:`dump` stored in ``blob`` for the bytes ``packages``,
    building each version and atom once; None for another codec version or
    other bytes, or a blob that is short, damaged or does not decode."""
    body = memoryview(blob)[len(_CODEC) + 64:]
    if blob[:len(_CODEC) + 64] != (_CODEC + hashlib.sha256(packages).digest()
                                   + hashlib.sha256(body).digest()):
        return None
    try:
        raws, atom_rows, rows = marshal.loads(body)
        versions = [Version(raw) for raw in raws]
        atoms = [Atom(name) if op is None else Atom(name, VersionConstraint(op, versions[v]))
                 for name, op, v in atom_rows]
        return Universe(
            Package(PackageId(name, versions[v]),
                    Relationship(tuple(tuple(atoms[i] for i in clause) for clause in depends),
                                 tuple(atoms[i] for i in conflicts),
                                 tuple(Provide(feature, None if pv is None else versions[pv])
                                       for feature, pv in provides)),
                    size, maintainer, files, frozenset(conffiles), *rest)
            for (name, v), (depends, conflicts, provides), size, maintainer, files, conffiles, *rest
            in rows)
    except Exception:  # the digests match: a blob of another writer (or Python)
        return None


def _render_clause(clause: tuple[Atom, ...]) -> str:
    return " | ".join(str(a) for a in clause)


def parse_status(text: str, universe: Universe) -> Status:
    """Parse an installed-status file; every entry must exist in the universe,
    and no two entries may ship one path."""
    installed: set[PackageId] = set()
    for fields, pid in _read_stanzas(text, _STATUS_KEYS, _Memo(), kind="status "):
        first = next(iter(fields.values()))[0]
        if pid not in universe:
            raise MetadataError(
                f"installed package {pid} unknown: status must be a subset of the universe", first)
        if pid in installed:
            raise MetadataError(f"package {pid} listed twice", first)
        installed.add(pid)
    derive_owned(universe, installed)
    return Status(frozenset(installed))


def serialize_status(status: Status) -> str:
    stanzas = [f"Package: {pid.name}\nVersion: {pid.version}"
               for pid in sorted(status.installed, key=lambda i: i.key)]
    return "\n\n".join(stanzas) + ("\n" if stanzas else "")
