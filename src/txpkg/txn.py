"""Sandboxed filesystem store with copy-before-write journaling.

All engine mutations go through an open :class:`Transaction`, which records a
pre-image of every touched path before the first mutation (first touch wins).
Rolling back replays the journal in reverse, restoring the store byte for
byte.  Committing trims the journal (dropping entries whose pre-image equals
the final content) and persists it under ``.pkgdb/history/<id>/`` so whole
upgrades can be undone later with :meth:`Store.rollback_to`.

Nothing under ``.pkgdb`` is ever package-visible: it holds the status file,
the lock, the transaction serial, persisted history, and the pristine
conffile store.  Paths matching the store's ``preserve`` globs (by default
``var/log/**`` and ``home/**``) are journaled like everything else but are
skipped on restore, with a warning, so log-like data survives rollbacks.

``_sha`` is the engine's one content digest (hex SHA-256); the conffile and
script modules import it from here.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import shutil
import stat
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .universe import (
    MetadataError,
    RESERVED_DIR,
    Status,
    Universe,
    check_rel_path,
    decode_text,
    parse_status,
)

__all__ = [
    "DB_DIR",
    "DEFAULT_PRESERVE",
    "StoreError",
    "AlreadyLocked",
    "PathEscape",
    "CorruptedJournal",
    "GapInHistory",
    "JournalEntry",
    "HistoryRecord",
    "Store",
    "Transaction",
    "trim",
]

DB_DIR = RESERVED_DIR
DEFAULT_PRESERVE = ("var/log/**", "home/**")

_JOURNAL_MAGIC = b"TXJL1\n"
_KIND_CODES = {"created": 0, "modified": 1, "removed": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

_FILE_MODE = 0o644
_DIR_MODE = 0o755


class StoreError(Exception):
    """Base class for store and transaction failures."""


class AlreadyLocked(StoreError):
    """A transaction is already open on this store."""


class PathEscape(StoreError):
    """A path pointed outside the sandbox or into the engine's own state."""


class CorruptedJournal(StoreError):
    """Persisted journal does not match the store (tampering or damage)."""


class GapInHistory(StoreError):
    """A history record needed for rollback is missing."""


@dataclass
class JournalEntry:
    """Pre-image of one path, recorded before its first mutation.

    ``mode`` is the pre-state ``st_mode`` (type bits included) and is 0 for
    created paths; ``pre_image`` is None for created paths and empty for
    directories.
    """

    path: str
    kind: str  # created | modified | removed
    mode: int = 0
    pre_image: bytes | None = None


@dataclass
class HistoryRecord:
    id: int
    entries: list = field(default_factory=list)
    status_pre: bytes = b""
    post: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def journal_dump(entries) -> bytes:
    out = [_JOURNAL_MAGIC]
    for e in entries:
        raw_path = e.path.encode("utf-8")
        pre = e.pre_image if e.pre_image is not None else b""
        out.append(struct.pack(">I", len(raw_path)))
        out.append(raw_path)
        out.append(struct.pack(">BIBQ", _KIND_CODES[e.kind], e.mode,
                               1 if e.pre_image is not None else 0, len(pre)))
        out.append(pre)
    return b"".join(out)


def journal_load(data: bytes) -> list[JournalEntry]:
    if not data.startswith(_JOURNAL_MAGIC):
        raise CorruptedJournal("bad journal header")
    entries = []
    off = len(_JOURNAL_MAGIC)
    try:
        while off < len(data):
            (path_len,) = struct.unpack_from(">I", data, off)
            off += 4
            path = data[off:off + path_len].decode("utf-8")
            off += path_len
            kind_code, mode, has_pre, pre_len = struct.unpack_from(">BIBQ", data, off)
            off += struct.calcsize(">BIBQ")
            pre = data[off:off + pre_len]
            if len(pre) != pre_len:
                raise CorruptedJournal("truncated journal record")
            off += pre_len
            entries.append(JournalEntry(path, _KIND_NAMES[kind_code], mode,
                                        pre if has_pre else None))
    except (struct.error, KeyError, UnicodeDecodeError) as e:
        raise CorruptedJournal(f"unreadable journal: {e}") from None
    return entries


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Store:
    """A sandbox root plus the engine state underneath ``<root>/.pkgdb``."""

    def __init__(self, root, preserve=DEFAULT_PRESERVE):
        self.root = Path(root)
        if not self.root.is_dir():
            raise StoreError(f"store root {self.root} is not a directory")
        self.preserve = tuple(preserve)
        self._db = self.root / DB_DIR

    # -- path discipline -------------------------------------------------

    def resolve(self, rel: str) -> Path:
        """Map a sandbox-relative path to disk; rejects traversal and .pkgdb."""
        try:
            check_rel_path(rel)
        except MetadataError as e:
            raise PathEscape(str(e)) from None
        return self.root / rel

    def preserved(self, rel: str) -> bool:
        return any(fnmatch.fnmatchcase(rel, pattern) for pattern in self.preserve)

    # -- plain reads -----------------------------------------------------

    def exists(self, rel: str) -> bool:
        return self.resolve(rel).exists()

    def is_dir(self, rel: str) -> bool:
        return self.resolve(rel).is_dir()

    def read(self, rel: str) -> bytes:
        return self.resolve(rel).read_bytes()

    def read_optional(self, rel: str) -> bytes | None:
        p = self.resolve(rel)
        if not p.is_file():
            return None
        return p.read_bytes()

    def state(self, rel: str):
        """(kind, content, mode) with kind one of absent|dir|file."""
        p = self.resolve(rel)
        try:
            st = os.lstat(p)
        except FileNotFoundError:
            return ("absent", None, 0)
        if stat.S_ISDIR(st.st_mode):
            return ("dir", None, st.st_mode)
        return ("file", p.read_bytes(), st.st_mode)

    def state_token(self, rel: str):
        """Compact fingerprint of a path's current state: None, 'dir', or a sha."""
        kind, content, _mode = self.state(rel)
        if kind == "absent":
            return None
        if kind == "dir":
            return "dir"
        return _sha(content)

    def walk(self):
        """Sorted (relpath, kind) pairs for everything outside .pkgdb."""
        out = []
        base = str(self.root)
        for dirpath, dirnames, filenames in os.walk(self.root):
            rel_dir = os.path.relpath(dirpath, base)
            if rel_dir == ".":
                dirnames[:] = [d for d in dirnames if d != DB_DIR]
                rel_prefix = ""
            else:
                rel_prefix = rel_dir.replace(os.sep, "/") + "/"
                out.append((rel_prefix.rstrip("/"), "dir"))
            for name in filenames:
                out.append((rel_prefix + name, "file"))
        out.sort()
        return out

    def walk_files(self):
        return [rel for rel, kind in self.walk() if kind == "file"]

    def tree_hash(self) -> str:
        """Digest of the whole package-visible tree: paths, kinds, modes, contents."""
        h = hashlib.sha256()
        for rel, kind in self.walk():
            p = self.root / rel
            mode = os.lstat(p).st_mode & 0o7777
            digest = _sha(p.read_bytes()) if kind == "file" else "-"
            h.update(f"{rel}\0{kind}\0{mode:o}\0{digest}\n".encode())
        return h.hexdigest()

    # -- engine state ----------------------------------------------------

    def _ensure_db(self) -> None:
        (self._db / "history").mkdir(parents=True, exist_ok=True)

    @property
    def status_path(self) -> Path:
        return self._db / "status"

    def status_bytes(self) -> bytes:
        if self.status_path.is_file():
            return self.status_path.read_bytes()
        return b""

    def write_status_bytes(self, data: bytes) -> None:
        self._ensure_db()
        self.status_path.write_bytes(data)

    def load_status(self, universe: Universe) -> Status:
        return parse_status(decode_text(self.status_bytes(), self.status_path), universe)

    @property
    def lock_path(self) -> Path:
        return self._db / "lock"

    def _next_id(self) -> int:
        serial = self._db / "serial"
        text = serial.read_text() if serial.is_file() else "0"
        try:
            current = int(text)
        except ValueError:
            raise CorruptedJournal(
                f"{DB_DIR}/serial holds {text!r}, not a transaction id") from None
        serial.write_text(str(current + 1))
        return current + 1

    def begin(self) -> "Transaction":
        """Open the store's single transaction; fails if one is already open."""
        self._ensure_db()
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise AlreadyLocked(f"transaction already open on {self.root}") from None
        try:
            with os.fdopen(fd, "w") as lock:
                txn = Transaction(self, self._next_id())
                lock.write(str(txn.id))
        except BaseException:
            self._release_lock()
            raise
        return txn

    def _release_lock(self) -> None:
        self.lock_path.unlink(missing_ok=True)

    # -- history ---------------------------------------------------------

    @property
    def history_dir(self) -> Path:
        return self._db / "history"

    @property
    def archive_dir(self) -> Path:
        return self._db / "archive"

    def history_ids(self) -> list[int]:
        if not self.history_dir.is_dir():
            return []
        return sorted(int(p.name) for p in self.history_dir.iterdir() if p.name.isdigit())

    def read_history(self, hid: int) -> HistoryRecord:
        d = self.history_dir / str(hid)
        if not d.is_dir():
            raise GapInHistory(f"no history record {hid}")
        try:
            entries = journal_load((d / "journal").read_bytes())
            status_pre = (d / "status-pre").read_bytes()
            post = json.loads((d / "post").read_text())
            meta = json.loads((d / "meta").read_text())
        except FileNotFoundError as e:
            raise CorruptedJournal(f"history record {hid} incomplete: {e}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CorruptedJournal(f"history record {hid} unreadable: {e}") from None
        return HistoryRecord(hid, entries, status_pre, post, meta)

    def rollback_to(self, target: int, force: bool = False) -> list[str]:
        """Restore the store to the state just before transaction ``target``.

        Replays persisted journals newest first; every record from ``target``
        to the newest must still be present.  Reverted records are archived
        under ``.pkgdb/archive``, not deleted.  Returns the paths skipped
        because of the preserve globs.  Without ``force``, the current state
        of every journaled path must match what the recorded transaction left
        behind, otherwise :class:`CorruptedJournal` is raised before anything
        is touched.
        """
        if self.lock_path.exists():
            raise AlreadyLocked("cannot roll back history while a transaction is open")
        ids = self.history_ids()
        latest = ids[-1] if ids else 0
        if target == latest + 1:
            return []
        if target < 1 or target > latest + 1:
            raise GapInHistory(f"no history record {target}")
        needed = list(range(target, latest + 1))
        missing = [i for i in needed if i not in ids]
        if missing:
            raise GapInHistory(f"history record {missing[0]} is missing (archived or pruned)")
        records = [self.read_history(i) for i in needed]

        if not force:
            seen: set[str] = set()
            for rec in reversed(records):  # newest first
                for e in rec.entries:
                    if e.path in seen or self.preserved(e.path):
                        continue
                    seen.add(e.path)
                    expected = rec.post.get(e.path)
                    actual = self.state_token(e.path)
                    if actual != expected:
                        raise CorruptedJournal(
                            f"{e.path!r} was changed outside the engine since "
                            f"transaction {rec.id} (use force to restore anyway)")

        skipped: list[str] = []
        for rec in reversed(records):
            skipped.extend(_apply_reverse(self, rec.entries))
            self.write_status_bytes(rec.status_pre)
        self._archive(records)
        return skipped

    def _archive(self, records) -> None:
        self.archive_dir.mkdir(parents=True, exist_ok=True)
        reverted = {rec.id for rec in records}
        index = self._db / "pristine" / "index"
        if index.is_file():
            kept_lines, dropped = [], {}
            for line in index.read_text().splitlines():
                if not line.strip():
                    continue
                entry = json.loads(line)
                if entry.get("txn") in reverted:
                    dropped.setdefault(entry["txn"], []).append(line)
                else:
                    kept_lines.append(line)
            index.write_text("".join(l + "\n" for l in kept_lines))
            for rec in records:
                if rec.id in dropped:
                    target = self.history_dir / str(rec.id) / "pristine"
                    target.write_text("".join(l + "\n" for l in dropped[rec.id]))
        for rec in records:
            shutil.move(str(self.history_dir / str(rec.id)), str(self.archive_dir / str(rec.id)))

    def prune_history(self, keep: int) -> list[int]:
        """Delete the oldest history records beyond the newest ``keep``."""
        if keep < 0:
            raise ValueError("keep must be non-negative")
        ids = self.history_ids()
        doomed = ids[:max(0, len(ids) - keep)]
        for hid in doomed:
            shutil.rmtree(self.history_dir / str(hid))
        return doomed


def _apply_reverse(store: Store, entries) -> list[str]:
    """Undo journal entries in reverse order; returns preserve-skipped paths.

    Restores are lenient about already-reverted state (a mutation may have
    failed after its entry was journaled), but a created directory that still
    has children is skipped with a warning rather than force-deleted.
    """
    skipped: list[str] = []
    for e in reversed(list(entries)):
        if store.preserved(e.path):
            skipped.append(e.path)
            continue
        p = store.resolve(e.path)
        if e.kind == "created":
            if p.is_dir():
                try:
                    p.rmdir()
                except OSError:
                    skipped.append(e.path)
            elif p.exists():
                p.unlink()
        else:
            if stat.S_ISDIR(e.mode):
                p.mkdir(parents=True, exist_ok=True)
                os.chmod(p, stat.S_IMODE(e.mode))
            else:
                if p.is_dir():
                    raise CorruptedJournal(f"{e.path!r}: directory where file expected")
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_bytes(e.pre_image or b"")
                os.chmod(p, stat.S_IMODE(e.mode))
    return skipped


def trim(entries, store: Store) -> list[JournalEntry]:
    """Drop journal entries whose pre-image equals the path's current state.

    A rollback over the trimmed journal lands in the same place as over the
    full one, and the trimmed journal is never larger.
    """
    kept = []
    for e in entries:
        kind, content, mode = store.state(e.path)
        if e.kind == "created":
            unchanged = kind == "absent"
        elif stat.S_ISDIR(e.mode):
            unchanged = kind == "dir" and stat.S_IMODE(mode) == stat.S_IMODE(e.mode)
        else:
            unchanged = (kind == "file" and content == (e.pre_image or b"")
                         and stat.S_IMODE(mode) == stat.S_IMODE(e.mode))
        if not unchanged:
            kept.append(e)
    return kept


class Transaction:
    """One open journaled mutation of a store.

    Entries are recorded before the mutation they cover; at most one entry
    per path (the first touch wins, so rollback restores the original state
    no matter how often a path is rewritten).
    """

    def __init__(self, store: Store, txn_id: int):
        self.store = store
        self.id = txn_id
        self.state = "open"
        self._journal: dict[str, JournalEntry] = {}
        self._status_pre = store.status_bytes()
        self._pristine: list[tuple[dict, bytes]] = []

    # -- reads (delegated) -------------------------------------------------

    def read(self, rel: str) -> bytes:
        return self.store.read(rel)

    def read_optional(self, rel: str) -> bytes | None:
        return self.store.read_optional(rel)

    def exists(self, rel: str) -> bool:
        return self.store.exists(rel)

    def is_dir(self, rel: str) -> bool:
        return self.store.is_dir(rel)

    def walk_files(self):
        return self.store.walk_files()

    # -- journaled mutations ------------------------------------------------

    def _require_open(self) -> None:
        if self.state != "open":
            raise StoreError(f"transaction {self.id} is {self.state}")

    def _touch(self, rel: str, removing: bool) -> None:
        if rel in self._journal:
            return
        kind, content, mode = self.store.state(rel)
        if kind == "absent":
            entry = JournalEntry(rel, "created")
        elif kind == "dir":
            entry = JournalEntry(rel, "removed" if removing else "modified", mode, b"")
        else:
            entry = JournalEntry(rel, "removed" if removing else "modified", mode, content)
        self._journal[rel] = entry

    def journal_entries(self) -> list[JournalEntry]:
        return list(self._journal.values())

    def write_through(self, rel: str, data: bytes | None, mode: int | None = None) -> None:
        """Write ``data`` to a file (creating it if needed), or delete it when
        ``data`` is None.  The pre-image is journaled on first touch."""
        self._require_open()
        p = self.store.resolve(rel)
        if p.is_dir():
            raise IsADirectoryError(f"{rel!r} is a directory")
        if data is None:
            if not p.exists():
                raise FileNotFoundError(f"{rel!r} does not exist")
            self._touch(rel, removing=True)
            p.unlink()
            return
        existed = p.exists()
        self._touch(rel, removing=False)
        p.write_bytes(data)
        if mode is not None:
            os.chmod(p, stat.S_IMODE(mode))
        elif not existed:
            os.chmod(p, _FILE_MODE)

    def mkdir(self, rel: str) -> list[str]:
        """Create a directory, with missing parents; each created level is
        journaled.  Returns the created paths, outermost first.  The whole
        chain is validated before anything is created, so a failure leaves no
        half-made parents behind."""
        self._require_open()
        parts = rel.split("/")
        todo = []
        for i in range(1, len(parts) + 1):
            partial = "/".join(parts[:i])
            q = self.store.resolve(partial)
            if q.is_dir():
                continue
            if q.exists():
                raise FileExistsError(f"{partial!r} exists and is not a directory")
            todo.append(partial)
        for partial in todo:
            self._touch(partial, removing=False)
            q = self.store.resolve(partial)
            q.mkdir()
            os.chmod(q, _DIR_MODE)
        return todo

    def rmdir(self, rel: str) -> None:
        """Remove an empty directory (journaled)."""
        self._require_open()
        p = self.store.resolve(rel)
        if not p.is_dir():
            raise NotADirectoryError(f"{rel!r} is not a directory")
        if any(p.iterdir()):
            raise OSError(f"{rel!r} is not empty")
        self._touch(rel, removing=True)
        p.rmdir()

    def ensure_parent(self, rel: str) -> list[str]:
        """Create the parent directories of a file path; returns created dirs."""
        parent = rel.rsplit("/", 1)[0] if "/" in rel else ""
        if not parent:
            return []
        return self.mkdir(parent)

    def set_status(self, text: str) -> None:
        self._require_open()
        self.store.write_status_bytes(text.encode("utf-8"))

    def add_pristine(self, pkg_name: str, path: str, version_raw: str, content: bytes) -> None:
        """Queue a pristine conffile snapshot; flushed to disk at commit."""
        self._require_open()
        record = {"pkg": pkg_name, "path": path, "version": version_raw,
                  "sha": _sha(content), "txn": self.id}
        self._pristine.append((record, content))

    # -- outcomes ---------------------------------------------------------

    def rollback(self) -> list[str]:
        """Undo everything this transaction did; returns preserve-skipped paths."""
        self._require_open()
        skipped = _apply_reverse(self.store, self._journal.values())
        self.store.write_status_bytes(self._status_pre)
        self._pristine.clear()
        self.state = "rolled-back"
        self.store._release_lock()
        return skipped

    def commit(self, meta: dict | None = None, do_trim: bool = True) -> int:
        """Trim and persist the journal under history/<id>; returns the id."""
        self._require_open()
        entries = self.journal_entries()
        if do_trim:
            entries = trim(entries, self.store)
        record_dir = self.store.history_dir / str(self.id)
        record_dir.mkdir(parents=True, exist_ok=True)
        (record_dir / "journal").write_bytes(journal_dump(entries))
        (record_dir / "status-pre").write_bytes(self._status_pre)
        post = {e.path: self.store.state_token(e.path) for e in entries}
        (record_dir / "post").write_text(json.dumps(post, sort_keys=True, indent=0))
        info = {"timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "request": "", "outcome": "committed"}
        info.update(meta or {})
        (record_dir / "meta").write_text(json.dumps(info, sort_keys=True, indent=0))
        self._flush_pristine()
        self.state = "committed"
        self.store._release_lock()
        return self.id

    def _flush_pristine(self) -> None:
        if not self._pristine:
            return
        pristine_dir = self.store._db / "pristine"
        objects = pristine_dir / "objects"
        objects.mkdir(parents=True, exist_ok=True)
        index = pristine_dir / "index"
        with open(index, "a", encoding="utf-8") as fh:
            for record, content in self._pristine:
                obj = objects / record["sha"]
                if not obj.exists():
                    obj.write_bytes(content)
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._pristine.clear()
