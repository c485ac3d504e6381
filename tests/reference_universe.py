"""The metadata reader as it was before it was rewritten for speed, kept as
the reference that ``test_reader_oracle`` compares ``txpkg.universe`` with.

Everything below the imports is the earlier ``universe.py`` code verbatim:
the line grammar, the version key, the path rule, the stanza reader and
``parse_universe``/``parse_status``.  The model classes it builds are the
package's own, so the two readers' results compare with ``==``.  Do not
edit it to follow the reader: a difference is what the oracle looks for.
"""

from __future__ import annotations

import re

from txpkg.universe import (
    OPERATORS,
    RESERVED_DIR,
    SCRIPT_HOOKS,
    Atom,
    MetadataError,
    Package,
    PackageId,
    Provide,
    Relationship,
    Status,
    Universe,
    Version,
    VersionConstraint,
    derive_owned,
)

_NAME_RE = re.compile(r"[a-z0-9][a-z0-9.+-]*$")
_SEGMENT_RE = re.compile(r"[A-Za-z0-9+]+$")
_DIGITS_RE = re.compile(r"[0-9]+$")
_SPACE_RE = re.compile(r"\s")  # matches exactly the characters where str.isspace() holds
_KEY_LINE_RE = re.compile(r"([A-Za-z][A-Za-z0-9-]*):\s*(.*)$")
# a version never starts with an operator character; excluding them keeps a
# missing version ("b (>= )") from taking the operator's second character
_ATOM_RE = re.compile(
    r"([a-z0-9][a-z0-9.+-]*)\s*(?:\(\s*([<>=]{1,2})\s*([^\s()<>=][^\s()]*)\s*\))?$")


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


def check_rel_path(path: str, line: int | None = None) -> str:
    """Validate a sandbox-relative path: normalized, no traversal, no funny business."""
    if not path or path.startswith("/") or "\\" in path or _SPACE_RE.search(path):
        raise MetadataError(f"invalid relative path {path!r}", line)
    for part in path.split("/"):
        if part in ("", ".", ".."):
            raise MetadataError(f"invalid relative path {path!r}: segment {part!r}", line)
    if path.split("/", 1)[0] == RESERVED_DIR:
        raise MetadataError(f"invalid relative path {path!r}: reserved for engine state", line)
    return path


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

        scripts: dict[str, str] = {}
        for hook in SCRIPT_HOOKS:
            if hook.capitalize() in fields:
                line, value = fields[hook.capitalize()]
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
        packages.append(Package(
            id=pid, rel=Relationship(depends, conflicts, provides),
            size_kb=size, maintainer=maintainer, files=files, conffiles=conffiles,
            conffile_syntax=syntax, **scripts,
        ))
    return Universe(packages)


def parse_status(text: str, universe: Universe) -> Status:
    """Parse an installed-status file; every entry must exist in the universe,
    and no two entries may ship one path."""
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
    derive_owned(universe, installed)
    return Status(frozenset(installed))

