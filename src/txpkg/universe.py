"""Repository metadata model: versions, packages, universes, and statuses.

The on-disk formats are UTF-8 text made of blank-line-separated stanzas of
``Key: value`` lines.  ``parse_universe`` documents the accepted keys; status
files use the same stanza syntax restricted to ``Package`` and ``Version``,
and both are read through one stanza reader.  This module also holds the
grammar of a ``name (op version)`` atom, which request parsing reuses, and
``status_diff``, the one definition of which names an upgrade removes,
changes and adds; the optimiser reads its bounds off the same function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import total_ordering
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

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
    "compare_versions",
    "satisfies",
    "check_rel_path",
    "derive_owned",
    "status_diff",
    "parse_universe",
    "serialize_universe",
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
_KEY_LINE_RE = re.compile(r"([A-Za-z][A-Za-z0-9-]*):\s*(.*)$")
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
    if not raw or any(c.isspace() for c in raw):
        raise MetadataError(f"invalid version {raw!r}: must be non-empty with no whitespace")
    key = []
    for seg in re.split(r"[.-]", raw):
        if not _SEGMENT_RE.match(seg):
            raise MetadataError(f"invalid version {raw!r}: bad segment {seg!r}")
        if _DIGITS_RE.match(seg):
            key.append((0, int(seg), ""))
        else:
            key.append((1, 0, seg))
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


def check_rel_path(path: str, line: int | None = None) -> str:
    """Validate a sandbox-relative path: normalized, no traversal, no funny business."""
    if not path or path.startswith("/") or "\\" in path or any(c.isspace() for c in path):
        raise MetadataError(f"invalid relative path {path!r}", line)
    for part in path.split("/"):
        if part in ("", ".", ".."):
            raise MetadataError(f"invalid relative path {path!r}: segment {part!r}", line)
    if path.split("/", 1)[0] == RESERVED_DIR:
        raise MetadataError(f"invalid relative path {path!r}: reserved for engine state", line)
    return path


_HOOKS = ("preinst", "postinst", "prerm", "postrm")


@dataclass(frozen=True)
class Package:
    """One versioned unit: identity, relationships, payload manifest, scripts."""

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

    def __post_init__(self):
        if self.size_kb < 0:
            raise MetadataError(f"{self.id}: negative size")
        extra = set(self.conffiles) - set(self.files)
        if extra:
            raise MetadataError(f"{self.id}: conffiles not in files: {sorted(extra)}")
        for path in self.files:
            check_rel_path(path)

    @property
    def name(self) -> str:
        return self.id.name

    @property
    def version(self) -> Version:
        return self.id.version

    def script_for(self, hook: str) -> str | None:
        if hook not in _HOOKS:
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

    @property
    def packages(self) -> Mapping[PackageId, Package]:
        return MappingProxyType(self._by_id)

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

    def provider_index(self) -> dict[str, frozenset]:
        """feature name -> set of provider PackageIds (rebuildable from packages)."""
        return {n: frozenset(p.id for p, _ in ps) for n, ps in self._providers.items()}

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
    """The installed subset of a universe.

    ``owned_files`` maps each shipped path to its owning package; it is
    derived bookkeeping and excluded from equality.
    """

    installed: frozenset = frozenset()
    owned_files: Mapping[str, PackageId] = field(default_factory=dict, compare=False)

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


def status_diff(universe: Universe, s0: Status, s: Status,
                upper: Status | None = None) -> StatusDiff:
    """The move from ``s0`` to ``s``, counted by name; all lie in ``universe``.

    With ``upper`` given and ``s.installed <= upper.installed``, the diff
    bounds every status ``t`` between the two from below: each name field
    lists the names that every such ``t`` counts, and ``download_kb`` is the
    least download of any ``t`` (that of ``s``).  Omitting ``upper`` (or
    passing ``s``) gives the diff of ``s`` itself.
    """
    old, top = s0.installed, (s if upper is None else upper).installed
    fetched = s.installed - old
    before = {pid.name for pid in old}
    after = {pid.name for pid in s.installed}
    # a name's version set surely differs once it gains a version or loses one
    moved = {pid.name for pid in fetched | (old - top)}
    return StatusDiff(
        removed=tuple(sorted(before - {pid.name for pid in top})),
        changed=tuple(sorted(before & after & moved)),
        new=tuple(sorted(after - before)),
        download_kb=sum(universe.get(pid).size_kb for pid in fetched),
    )


def derive_owned(universe: Universe, installed: Iterable[PackageId]) -> dict[str, PackageId]:
    """Path ownership map for an installed set; two owners for one path is an error."""
    owned: dict[str, PackageId] = {}
    for pid in sorted(installed, key=lambda i: i.key):
        for path in universe.get(pid).files:
            other = owned.get(path)
            if other is not None:
                raise MetadataError(f"path {path!r} owned by both {other} and {pid}")
            owned[path] = pid
    return owned


# --- parsing -----------------------------------------------------------------

def _split_stanzas(text: str) -> list[list[tuple[int, str, str]]]:
    stanzas: list[list[tuple[int, str, str]]] = []
    current: list[tuple[int, str, str]] = []
    for no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            if current:
                stanzas.append(current)
                current = []
            continue
        m = _KEY_LINE_RE.match(line)
        if not m:
            raise MetadataError(f"expected 'Key: value', got {line!r}", no)
        current.append((no, m.group(1), m.group(2).strip()))
    if current:
        stanzas.append(current)
    return stanzas


def _parse_version(text: str, line: int | None) -> Version:
    try:
        return Version(text)
    except MetadataError as e:
        raise MetadataError(str(e), line) from None


def _read_stanza(stanza: list[tuple[int, str, str]], keys, kind: str = ""):
    """Check a stanza's keys and build its package id: ``(fields, pid)``.

    ``fields`` maps each key to its ``(line, value)``.  Every key must be one
    of ``keys`` and appear once, and ``Package`` and ``Version`` are required;
    ``kind`` ("" or "status ") prefixes the texts of those two errors.
    """
    fields: dict[str, tuple[int, str]] = {}
    for no, key, value in stanza:
        if key not in keys:
            raise MetadataError(f"unknown {kind}key {key!r}", no)
        if key in fields:
            raise MetadataError(f"duplicate key {key!r} in stanza", no)
        fields[key] = (no, value)
    if "Package" not in fields or "Version" not in fields:
        raise MetadataError(f"{kind}stanza needs Package and Version", stanza[0][0])
    name_line, name = fields["Package"]
    if not _NAME_RE.match(name):
        raise MetadataError(f"invalid package name {name!r}", name_line)
    ver_line, raw_version = fields["Version"]
    return fields, PackageId(name, _parse_version(raw_version, ver_line))


def parse_dependency_atom(text: str, line: int | None = None) -> Atom:
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise MetadataError(f"bad atom {text!r}", line)
    name, op, ver = m.groups()
    if op is None:
        return Atom(name)
    if op not in OPERATORS:
        hint = " (use << or >> for strict comparison)" if op in ("<", ">") else ""
        raise MetadataError(f"bad operator {op!r} in {text!r}{hint}", line)
    return Atom(name, VersionConstraint(op, _parse_version(ver, line)))


def _parse_depends(value: str, line: int) -> tuple[tuple[Atom, ...], ...]:
    clauses = []
    for clause_text in value.split(","):
        clause_text = clause_text.strip()
        if not clause_text:
            raise MetadataError("empty dependency clause", line)
        clauses.append(tuple(parse_dependency_atom(a, line) for a in clause_text.split("|")))
    return tuple(clauses)


def _parse_atom_list(value: str, line: int) -> tuple[Atom, ...]:
    return tuple(parse_dependency_atom(a, line) for a in value.split(",") if a.strip())


def _parse_provides(value: str, line: int) -> tuple[Provide, ...]:
    out = []
    for item in value.split(","):
        atom = parse_dependency_atom(item, line)
        if atom.constraint is None:
            out.append(Provide(atom.name))
        elif atom.constraint.op == "=":
            out.append(Provide(atom.name, atom.constraint.version))
        else:
            raise MetadataError(f"provides may only pin with '=': {item.strip()!r}", line)
    return tuple(out)


def _parse_paths(value: str, line: int) -> tuple[str, ...]:
    return tuple(check_rel_path(p.strip(), line) for p in value.split(",") if p.strip())


_UNIVERSE_KEYS = {
    "Package", "Version", "Depends", "Conflicts", "Provides", "Size", "Maintainer",
    "Files", "Conffiles", "Preinst", "Postinst", "Prerm", "Postrm", "Conffile-Syntax",
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
    ``Conflicts``, ``Provides``, ``Size`` (integer kB, default 0),
    ``Maintainer``, ``Files`` (comma-separated relative paths), ``Conffiles``
    (subset of Files), ``Preinst``/``Postinst``/``Prerm``/``Postrm``
    (payload-relative script paths), and ``Conffile-Syntax``
    (``path=lines|keyvalue`` entries, comma separated).

    Dependency grammar: clauses separated by ``,``; alternatives inside a
    clause by ``|``; an atom is ``name`` optionally followed by
    ``(op version)`` with op one of ``<< <= = >= >>``.
    """
    packages = []
    for stanza in _split_stanzas(text):
        fields, pid = _read_stanza(stanza, _UNIVERSE_KEYS)
        first = stanza[0][0]

        depends: tuple[tuple[Atom, ...], ...] = ()
        if "Depends" in fields:
            depends = _parse_depends(fields["Depends"][1], fields["Depends"][0])
        conflicts: tuple[Atom, ...] = ()
        if "Conflicts" in fields:
            conflicts = _drop_self_conflicts(
                _parse_atom_list(fields["Conflicts"][1], fields["Conflicts"][0]), pid)
        provides: tuple[Provide, ...] = ()
        if "Provides" in fields:
            provides = _parse_provides(fields["Provides"][1], fields["Provides"][0])

        size = 0
        if "Size" in fields:
            line, value = fields["Size"]
            try:
                size = int(value)
            except ValueError:
                raise MetadataError(f"bad Size {value!r}", line) from None
            if size < 0:
                raise MetadataError(f"bad Size {value!r}: negative", line)

        files: tuple[str, ...] = ()
        if "Files" in fields:
            files = _parse_paths(fields["Files"][1], fields["Files"][0])
        conffiles: frozenset = frozenset()
        if "Conffiles" in fields:
            line, value = fields["Conffiles"]
            conffiles = frozenset(_parse_paths(value, line))
            if not conffiles <= set(files):
                raise MetadataError("Conffiles must be a subset of Files", line)

        scripts: dict[str, str | None] = {h: None for h in _HOOKS}
        for key, hook in (("Preinst", "preinst"), ("Postinst", "postinst"),
                          ("Prerm", "prerm"), ("Postrm", "postrm")):
            if key in fields:
                line, value = fields[key]
                scripts[hook] = check_rel_path(value, line)

        syntax: tuple[tuple[str, str], ...] = ()
        if "Conffile-Syntax" in fields:
            line, value = fields["Conffile-Syntax"]
            entries = []
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
                entries.append((path, mode))
            syntax = tuple(entries)

        maintainer = fields["Maintainer"][1] if "Maintainer" in fields else ""
        try:
            packages.append(Package(
                id=pid, rel=Relationship(depends, conflicts, provides),
                size_kb=size, maintainer=maintainer, files=files, conffiles=conffiles,
                preinst=scripts["preinst"], postinst=scripts["postinst"],
                prerm=scripts["prerm"], postrm=scripts["postrm"],
                conffile_syntax=syntax,
            ))
        except MetadataError as e:
            raise MetadataError(str(e), first) from None
    return Universe(packages)


def _render_clause(clause: tuple[Atom, ...]) -> str:
    return " | ".join(str(a) for a in clause)


def serialize_universe(universe: Universe) -> str:
    """Render a universe back to stanza text; parse(serialize(u)) == u."""
    stanzas = []
    for pkg in universe:
        lines = [f"Package: {pkg.name}", f"Version: {pkg.version}"]
        if pkg.maintainer:
            lines.append(f"Maintainer: {pkg.maintainer}")
        if pkg.size_kb:
            lines.append(f"Size: {pkg.size_kb}")
        if pkg.rel.depends:
            lines.append("Depends: " + ", ".join(_render_clause(c) for c in pkg.rel.depends))
        if pkg.rel.conflicts:
            lines.append("Conflicts: " + ", ".join(str(a) for a in pkg.rel.conflicts))
        if pkg.rel.provides:
            lines.append("Provides: " + ", ".join(str(p) for p in pkg.rel.provides))
        if pkg.files:
            lines.append("Files: " + ", ".join(pkg.files))
        if pkg.conffiles:
            lines.append("Conffiles: " + ", ".join(sorted(pkg.conffiles)))
        for key, hook in (("Preinst", "preinst"), ("Postinst", "postinst"),
                          ("Prerm", "prerm"), ("Postrm", "postrm")):
            value = pkg.script_for(hook)
            if value:
                lines.append(f"{key}: {value}")
        if pkg.conffile_syntax:
            lines.append("Conffile-Syntax: " + ", ".join(f"{p}={m}" for p, m in pkg.conffile_syntax))
        stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas) + ("\n" if stanzas else "")


def parse_status(text: str, universe: Universe) -> Status:
    """Parse an installed-status file; every entry must exist in the universe."""
    installed: set[PackageId] = set()
    for stanza in _split_stanzas(text):
        _fields, pid = _read_stanza(stanza, ("Package", "Version"), kind="status ")
        first = stanza[0][0]
        if pid not in universe:
            raise MetadataError(
                f"installed package {pid} unknown: status must be a subset of the universe", first)
        if pid in installed:
            raise MetadataError(f"package {pid} listed twice", first)
        installed.add(pid)
    return Status(frozenset(installed), derive_owned(universe, installed))


def serialize_status(status: Status) -> str:
    stanzas = [f"Package: {pid.name}\nVersion: {pid.version}"
               for pid in sorted(status.installed, key=lambda i: i.key)]
    return "\n\n".join(stanzas) + ("\n" if stanzas else "")
