"""Sandboxed filesystem store with copy-before-write journaling.

Two seams touch the disk.  ``Store.state(rel)`` reads a package-visible
path as ``(kind, content, mode)``: kind absent|dir|file, a file's bytes
(else None) and ``st_mode`` (0 when absent), the triple a journal entry
keeps as ``pre``.  ``Store.put(rel, state)`` makes the path hold
one: whatever stands there in another kind goes first, an empty directory
by ``rmdir`` and anything else, a link included, by ``unlink`` (OSError for
a non-empty directory); then missing parents are made and the permission
bits set.  Links in parent components are followed.  ``Store.scan(prefix)``
lists the directory a prefix names in one ``os.scandir`` pass.  Only
``state``, ``put``, ``read`` and ``scan`` map a path to disk, through
``Store.resolve``.
``Store.load(name)`` and ``Store.save(name, data)`` read (None when absent,
``UnreadableState`` when unreadable) and write the engine state under
``.pkgdb``.  ``put`` and ``save`` write a file by one rule, ``_overwrite``:
open it without ``O_TRUNC``, write the bytes in place and ``ftruncate`` it
to their length.  On ext4, whose default
``auto_da_alloc`` starts the writeback of a file truncated to zero and
written again when it is closed, a truncating overwrite costs many times
more.  Failure semantics are those of a truncating write: one that fails
part-way leaves a torn file (now the new prefix over the old tail), which
the journal restores, and nothing is promised against power loss (ROADMAP
item 7, an atomic ``save``).  Outside both on purpose: the
lock (``begin``'s ``O_EXCL`` create, which must fail rather than overwrite,
and ``_release_lock``); whole record directories (``history_ids``, the
rename that puts a record in place, the move into ``archive/`` and
``prune_history``); and ``Store.tree_hash``, the oracles' own reading.

An open :class:`Transaction` is the engine's one window on the root: its
reads ``state`` and ``render_files``, and its mutations ``write_through``,
``mkdir`` and ``rmdir``, which share one step with every restore, ``_set``:
journal the path's state on first touch, ``put`` the new one, keep every
memo current.  ``render_files`` is memoised per transaction: a sorted
listing per prefix (``walk_files``; a link placed in the root by hand can
make it stale), a sha per file (``digest``) and per ``(prefix, key)`` each
file's line, where ``_set`` records the paths it touches, so a later call
renders again only those, and the files ``digest`` does not memoise.
``set_status`` and ``add_pristine`` queue engine state;
``pristine`` (a :class:`PristineStore`) parses the conffile archive's index
on first use and keeps each record's line as read, so ``_close`` writes
kept lines verbatim and serialises only new snapshots.  Only this module
reads or writes that index, with one parser and one serializer.

``digest`` also keeps shas across transactions, in ``.pkgdb/digests``:
``_DIGESTS_CODEC``, the SHA-256 of the body, then the body, a marshalled
dict from path to ``(st_dev, st_ino, size, mtime_ns, ctime_ns, sha)``,
the key from the ``lstat`` of the listing's ``os.DirEntry``, taken before
the read.  The body's digest is checked before ``marshal``
reads it, since ``marshal`` trusts the sizes it reads.  It is loaded on
the first ``digest`` and rewritten by ``_close`` with only the entries the
transaction confirmed or hashed, so a deleted file leaves it.  Git's
racy-entry rule guards it: an entry is stored and trusted only when the
file is on the lock file's device and both its times are strictly older
than the lock's ctime, the filesystem's time when ``begin`` made the lock.
Any write of a file, through a hard link or a link to it included, moves
its ctime, so it is read again.  The index is only a cache: a damaged one,
or one in another format, means hashing again, never an error.

Every transaction id ends in one record, the directory ``history/<id>``
named ``str(id)`` as ``serial`` holds it (``_id_of`` alone reads an id),
written into ``history/.<id>.partial/`` and renamed into place, its
journal trimmed against the disk (entries whose ``pre`` equals the final
state go): committed by ``commit``, or aborted by ``rollback``, which
``put``s each entry's ``pre``, last first, and records what it could not
put back and any error.  ``_close`` writes all of a transaction's engine
state before that rename: a commit's queued status and pristine files, or
for an abort the status and index as ``begin`` found them, if a failed
commit wrote them.  :meth:`Store.rollback_to` is a transaction too, whose
record says ``"outcome": "rolled-back"``, which ids it undid and, as its
``pristine`` part, the index lines it dropped, like an ARIES compensation
record (Mohan et al., TODS 1992).
Paths matching the ``preserve`` globs (by default ``var/log/**`` and
``home/**``) are journaled but skipped on restore, with a warning, so
log-like data survives rollbacks.  ``_sha`` is the engine's one content
digest (hex SHA-256); the conffile and script modules import it from here.
"""

from __future__ import annotations

import bisect
import fnmatch
import hashlib
import json
import marshal
import os
import shutil
import stat
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .universe import RESERVED_DIR, Status, Universe, decode_text, parse_status

__all__ = [
    "DB_DIR",
    "DEFAULT_PRESERVE",
    "StoreError",
    "UnreadableState",
    "AlreadyLocked",
    "PathEscape",
    "CorruptedJournal",
    "GapInHistory",
    "ConfmergeError",
    "JournalEntry",
    "HistoryRecord",
    "Store",
    "PristineStore",
    "Transaction",
    "trim",
]

DB_DIR = RESERVED_DIR
DEFAULT_PRESERVE = ("var/log/**", "home/**")

_JOURNAL_MAGIC = b"TXJL1\n"
_DIGESTS_CODEC = b"txpkg-digests 1\n"

_FILE_MODE = 0o644
_DIR_MODE = 0o755
_ABSENT = ("absent", None, 0)
_PRISTINE_FIELDS = (("pkg", str), ("path", str), ("sha", str), ("txn", int))


class StoreError(Exception):
    """Base class for store and transaction failures."""


class UnreadableState(StoreError, OSError):
    """A file of engine state that exists but cannot be read; it is an
    OSError too, so the callers that read an I/O failure still do."""


class AlreadyLocked(StoreError):
    """A transaction is already open on this store."""


class PathEscape(StoreError):
    """A path pointed outside the sandbox or into the engine's own state."""


class CorruptedJournal(StoreError):
    """Persisted journal does not match the store (tampering or damage)."""


class GapInHistory(StoreError):
    """A history record needed for rollback is missing."""


class ConfmergeError(Exception):
    """Conffile bookkeeping errors (unregistered files, missing pristine data)."""


@dataclass
class JournalEntry:
    """Pre-image of one path, recorded before its first mutation: ``pre`` is
    the ``Store.state`` triple the path held."""

    path: str
    pre: tuple


@dataclass
class HistoryRecord:
    id: int
    entries: list = field(default_factory=list)
    status_pre: bytes = b""
    post: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def journal_dump(entries) -> bytes:
    """The one encoding of a journal: per entry the path, then a code (0 for
    an absent path, 1 for one that existed), ``st_mode``, a has-content flag
    and a file's bytes (none for a directory)."""
    out = [_JOURNAL_MAGIC]
    for e in entries:
        raw_path = e.path.encode("utf-8")
        kind, content, mode = e.pre
        existed = kind != "absent"
        out.append(struct.pack(">I", len(raw_path)))
        out.append(raw_path)
        out.append(struct.pack(">BIBQ", existed, mode, existed, len(content or b"")))
        out.append(content or b"")
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
            code, mode, has_content, size = struct.unpack_from(">BIBQ", data, off)
            off += struct.calcsize(">BIBQ")
            content = data[off:off + size]
            if len(content) != size:
                raise CorruptedJournal("truncated journal record")
            off += size
            if code == 0:
                pre = _ABSENT
            elif code > 2:  # earlier versions wrote 2 for a removed path
                raise CorruptedJournal(f"unknown journal entry code {code}")
            elif stat.S_ISDIR(mode):
                pre = ("dir", None, mode)
            else:
                pre = ("file", content if has_content else b"", mode)
            entries.append(JournalEntry(path, pre))
    except (struct.error, UnicodeDecodeError) as e:
        raise CorruptedJournal(f"unreadable journal: {e}") from None
    return entries


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stat_key(st: os.stat_result) -> tuple[int, int, int, int, int]:
    """The digest index's key of a file: (st_dev, st_ino, size, mtime_ns,
    ctime_ns).  Every write of the file, by any path to it, moves its ctime."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _overwrite(path: Path, data: bytes) -> None:
    """Make the file at ``path`` hold ``data``, following a link and creating
    an absent file with mode 0o666 less the umask: the bytes go over the old
    ones in place, short writes looped, then ``ftruncate`` cuts the file to
    their length.  Never ``O_TRUNC`` (see the module docstring)."""
    view = memoryview(data)  # a type error before the file is touched
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _pristine_load(data: bytes) -> tuple[list[dict], list[str]]:
    """The pristine index's records and their lines as read: each line a
    JSON object with ``pkg``, ``path`` and ``sha`` strings and a ``txn`` int."""
    try:
        lines = [line for line in data.decode("utf-8").splitlines() if line.strip()]
        records = [json.loads(line) for line in lines]
        if not all(type(r) is dict and all(type(r.get(k)) is t for k, t in _PRISTINE_FIELDS)
                   for r in records):
            raise ValueError("a record needs pkg, path and sha strings and a txn int")
    except (ValueError, RecursionError) as e:
        raise ConfmergeError(f"pristine index unreadable: {e}") from None
    return records, lines


def _pristine_dump(lines, records=()) -> bytes:
    """The pristine index holding ``lines`` as read, then a line per new
    record, ``json.dumps(record, sort_keys=True)``."""
    new = [json.dumps(r, sort_keys=True) for r in records]
    return "".join(line + "\n" for line in [*lines, *new]).encode()


def _find(files: list[str], rel: str) -> tuple[int, bool]:
    """Where ``rel`` stands or would stand in the sorted list ``files``, and
    whether it is there."""
    i = bisect.bisect_left(files, rel)
    return i, i < len(files) and files[i] == rel


def _id_of(text: str) -> int | None:
    """The id whose ``str`` is ``text``, or None (``int`` also takes "-3", "1_0", "007")."""
    return int(text) if text.isascii() and text.isdigit() and text[0] != "0" else None


def _token(state):
    """Compact fingerprint of a ``Store.state`` triple: None, 'dir', or a sha."""
    kind, content, _mode = state
    return None if kind == "absent" else "dir" if kind == "dir" else _sha(content)


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
        """Map a sandbox-relative path to disk; rejects absolute paths,
        traversal and .pkgdb, and accepts any file name (unlike metadata paths)."""
        parts = rel.split("/")
        if any(part in ("", ".", "..") for part in parts) or parts[0] == DB_DIR:
            raise PathEscape(f"not a package-visible path: {rel!r}")
        return self.root / rel

    def preserved(self, rel: str) -> bool:
        return any(fnmatch.fnmatchcase(rel, pattern) for pattern in self.preserve)

    # -- plain reads -----------------------------------------------------

    def read(self, rel: str) -> bytes:
        return self.resolve(rel).read_bytes()

    def state(self, rel: str):
        """(kind, content, mode) with kind one of absent|dir|file; a path
        under a file is absent."""
        p = self.resolve(rel)
        try:
            st = os.lstat(p)
        except (FileNotFoundError, NotADirectoryError):
            return _ABSENT
        if stat.S_ISDIR(st.st_mode):
            return ("dir", None, st.st_mode)
        return ("file", p.read_bytes(), st.st_mode)

    def put(self, rel: str, state) -> None:
        """Make a path hold a ``state`` triple; the one write of the root.
        Whatever stands at the path in another kind is removed first, a link
        included (never followed): an empty directory by ``rmdir``, anything
        else by ``unlink``.  OSError if a non-empty directory stands there."""
        kind, content, mode = state
        p = self.resolve(rel)
        if os.path.lexists(p):
            now = os.lstat(p).st_mode
            if kind != ("dir" if stat.S_ISDIR(now) else "file" if stat.S_ISREG(now) else "other"):
                (p.rmdir if stat.S_ISDIR(now) else p.unlink)()
        if kind == "absent":
            return
        if kind == "dir":
            p.mkdir(parents=True, exist_ok=True)
        else:
            p.parent.mkdir(parents=True, exist_ok=True)
            _overwrite(p, content)
        os.chmod(p, stat.S_IMODE(mode))

    def state_token(self, rel: str):
        """Compact fingerprint of a path's current state: None, 'dir', or a sha."""
        return _token(self.state(rel))

    def scan(self, prefix: str = ""):
        """Yield ``(relpath, is_dir, entry)`` for every package-visible path
        under the directory ``prefix`` names ("" for the root, else a path
        ending in "/"), in no order, with the ``os.DirEntry`` of the one
        ``os.scandir`` pass that listed it.  A directory is yielded and
        descended, a link to one neither; anything else is a file.  A prefix
        that ``resolve`` refuses, or with a link or a non-directory in it,
        yields nothing."""
        start = self.root
        if prefix:
            try:
                self.resolve(prefix[:-1])
            except PathEscape:
                return
            for part in prefix[:-1].split("/"):
                start = start / part
                try:
                    if not stat.S_ISDIR(os.lstat(start).st_mode):
                        return
                except OSError:
                    return
        todo = [(os.fspath(start), prefix)]
        while todo:
            path, rel_prefix = todo.pop()
            try:
                with os.scandir(path) as entries:
                    for entry in entries:
                        rel = rel_prefix + entry.name
                        try:
                            is_dir = entry.is_dir()
                        except OSError:
                            is_dir = False
                        if not is_dir:
                            yield rel, False, entry
                        elif not entry.is_symlink() and rel != DB_DIR:
                            yield rel, True, entry
                            todo.append((entry.path, rel + "/"))
            except OSError:  # an unreadable directory lists nothing, as in os.walk
                continue

    def walk(self):
        """Sorted (relpath, kind) pairs for everything outside .pkgdb."""
        return sorted((rel, "dir" if is_dir else "file") for rel, is_dir, _entry in self.scan())

    def tree_hash(self) -> str:
        """Digest of the whole package-visible tree: paths, kinds, modes, contents."""
        h = hashlib.sha256()
        for rel, kind in self.walk():
            p = self.root / rel
            mode = os.lstat(p).st_mode & 0o7777
            digest = _sha(p.read_bytes()) if kind == "file" else "-"
            line = f"{rel}\0{kind}\0{mode:o}\0{digest}\n"
            h.update(line.encode("utf-8", "surrogateescape"))
        return h.hexdigest()

    # -- engine state ----------------------------------------------------

    def load(self, name: str) -> bytes | None:
        """The bytes of ``.pkgdb/<name>``, or None when it is absent;
        :class:`UnreadableState` naming the path when it cannot be read."""
        try:
            return (self._db / name).read_bytes()
        except FileNotFoundError:
            return None
        except OSError as e:
            raise UnreadableState(f"cannot read {DB_DIR}/{name}: {e.strerror or e}") from None

    def save(self, name: str, data: bytes) -> None:
        """Write ``.pkgdb/<name>``, making missing parents."""
        p = self._db / name
        try:
            _overwrite(p, data)
        except FileNotFoundError:  # parents are made once, not checked on every write
            p.parent.mkdir(parents=True, exist_ok=True)
            _overwrite(p, data)

    @property
    def status_path(self) -> Path:
        return self._db / "status"

    def status_bytes(self) -> bytes:
        return self.load("status") or b""

    def load_status(self, universe: Universe) -> Status:
        return parse_status(decode_text(self.status_bytes(), self.status_path), universe)

    @property
    def lock_path(self) -> Path:
        return self._db / "lock"

    def _last_id(self) -> int:
        """The last transaction id handed out, 0 before the first."""
        data = self.load("serial")
        if data is None:
            return 0
        hid = _id_of(data.decode("latin-1"))  # any byte decodes; a non-ASCII one is refused
        if hid is None:
            raise CorruptedJournal(f"{DB_DIR}/serial holds {data!r}, not a transaction id")
        return hid

    def begin(self) -> "Transaction":
        """Open the store's single transaction; fails if one is already open."""
        self._db.mkdir(exist_ok=True)
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise AlreadyLocked(f"transaction already open on {self.root}") from None
        try:
            with os.fdopen(fd, "w") as lock:
                txn = Transaction(self, self._last_id() + 1, _stat_key(os.fstat(fd)))
                record = self.history_dir / str(txn.id)
                if record.is_dir():  # a record appears only by rename
                    raise CorruptedJournal(f"history record {txn.id} exists before its transaction")
                if os.path.lexists(record):  # the record's rename would fail on it
                    raise CorruptedJournal(f"{DB_DIR}/history/{txn.id} is a stray non-record "
                                           "at the next record's name")
                self.save("serial", str(txn.id).encode())
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
        ids = (_id_of(p.name) for p in self.history_dir.iterdir() if p.is_dir())
        return sorted(hid for hid in ids if hid is not None)

    def read_history(self, hid: int) -> HistoryRecord:
        if not (self.history_dir / str(hid)).is_dir():
            raise GapInHistory(f"no history record {hid}")
        try:
            parts = {name: self.load(f"history/{hid}/{name}")
                     for name in ("journal", "status-pre", "post", "meta")}
            missing = [name for name, data in parts.items() if data is None]
            if missing:
                raise CorruptedJournal(f"history record {hid} incomplete: no {missing[0]}")
            post, meta = json.loads(parts["post"]), json.loads(parts["meta"])
        except (OSError, ValueError) as e:  # a directory for a part, JSON, UTF-8
            raise CorruptedJournal(f"history record {hid} unreadable: {e}") from None
        undid = meta.get("undid") if type(meta) is dict else None
        pair = type(undid) is list and len(undid) == 2 and all(type(i) is int for i in undid)
        # rollback_to's walk goes on below undid[0], so the pair must name earlier ids
        if type(post) is not dict or type(meta) is not dict or undid is not None and not (
                pair and 0 < undid[0] <= undid[1] < hid):
            raise CorruptedJournal(f"history record {hid} malformed: post and meta must be "
                                   "JSON objects, and undid a pair of earlier ids")
        return HistoryRecord(hid, journal_load(parts["journal"]), parts["status-pre"], post, meta)

    def rollback_to(self, target: int, force: bool = False) -> list[str]:
        """Restore the store to the state just before transaction ``target``, in
        a transaction of its own; returns the preserve-skipped paths.  Walks
        the ids from the last down to ``target``, skipping each rollback record
        with the ids it undid (``lo`` on) and restoring every other record.
        :class:`GapInHistory` for a missing record or ``lo < target <= that
        rollback's id``; without ``force``, :class:`CorruptedJournal` for a
        journaled path its transaction did not leave so.  Refusals, and a walk
        with nothing to restore, use no id.  Its transaction queues the status
        from before ``target`` and the dropping of the restored ids' index
        lines; restored records are archived after its commit."""
        if self.lock_path.exists():
            raise AlreadyLocked("cannot roll back history while a transaction is open")
        ids = set(self.history_ids())
        last = max(self._last_id(), *ids, 0)
        if target < 1 or target > last + 1:
            raise GapInHistory(f"no history record {target}")
        records, hid = [], last  # newest first
        while hid >= target:
            if hid not in ids:
                raise GapInHistory(f"history record {hid} is missing "
                                   "(pruned, or its transaction never finished)")
            rec = self.read_history(hid)
            lo, hi = rec.meta.get("undid") or (hid, None)  # a rollback undid lo to hi
            if hi is None:
                records.append(rec)
            elif lo < target:
                raise GapInHistory(
                    f"the tree from before transaction {target} is gone: "
                    f"a rollback to {lo} undid transactions {lo} to {hi}")
            hid = lo - 1
        if not records:
            return []
        pristine = PristineStore(self)
        try:
            pristine.records()
        except ConfmergeError:
            raise CorruptedJournal(f"{DB_DIR}/pristine/index is unreadable") from None

        if not force:
            seen: set[str] = set()
            for rec in records:  # the newest record of each path decides
                for e in rec.entries:
                    if e.path in seen or self.preserved(e.path):
                        continue
                    seen.add(e.path)
                    try:
                        changed = self.state_token(e.path) != rec.post.get(e.path)
                    except OSError:  # unreadable, e.g. now a link to a directory
                        changed = True
                    if changed:
                        raise CorruptedJournal(
                            f"{e.path!r} was changed outside the engine since "
                            f"transaction {rec.id} (use force to restore anyway)")

        txn = self.begin()
        txn.pristine, txn._status = pristine, records[-1].status_pre
        txn._undone = {rec.id for rec in records}
        try:
            skipped = [path for rec in records for path in txn._restore(rec.entries)]
            txn.commit(meta={"request": f"rollback {target}", "outcome": "rolled-back",
                             "undid": [target, last]})
        except BaseException:  # the commit's record included: the transaction is still open
            txn.rollback()
            raise
        self.archive_dir.mkdir(parents=True, exist_ok=True)
        for rec in records:
            shutil.move(str(self.history_dir / str(rec.id)), str(self.archive_dir / str(rec.id)))
        return skipped

    def prune_history(self, keep: int) -> list[int]:
        """Delete the oldest history records beyond the newest ``keep``."""
        if keep < 0:
            raise ValueError("keep must be non-negative")
        ids = self.history_ids()
        doomed = ids[:max(0, len(ids) - keep)]
        for hid in doomed:
            shutil.rmtree(self.history_dir / str(hid))
        return doomed


class PristineStore:
    """The archive of unmodified conffile versions, whose index is read once."""

    def __init__(self, store: Store):
        self._store = store
        self._records: list[dict] | None = None
        self._lines: list[str] = []  # each record's line as read

    def records(self) -> list[dict]:
        """Every index record, oldest first; ConfmergeError when unreadable."""
        if self._records is None:
            self._records, self._lines = _pristine_load(self._store.load("pristine/index") or b"")
        return self._records

    def held(self) -> list[tuple[dict, str]]:
        """Every index record with its line as read, oldest first."""
        return list(zip(self.records(), self._lines))

    def entries(self, pkg_name: str, path: str) -> list[dict]:
        return [r for r in self.records() if r["pkg"] == pkg_name and r["path"] == path]

    def content(self, sha: str) -> bytes:
        data = self._store.load(f"pristine/objects/{sha}")
        if data is None:
            raise ConfmergeError(f"pristine object {sha} missing")
        return data


def trim(entries, states) -> list[JournalEntry]:
    """Drop journal entries whose ``pre`` equals the path's current state,
    given as ``states[path]``, in kind, content and permission bits.

    A rollback over the trimmed journal lands in the same place as over the
    full one, and the trimmed journal is never larger.
    """
    kept = []
    for e in entries:
        (kind, content, mode), now = e.pre, states[e.path]
        if (kind, content) != now[:2] or stat.S_IMODE(mode) != stat.S_IMODE(now[2]):
            kept.append(e)
    return kept


class Transaction:
    """One open journaled mutation of a store.

    Entries are recorded before the mutation they cover; at most one entry
    per path (the first touch wins, so rollback restores the original state
    no matter how often a path is rewritten).
    """

    def __init__(self, store: Store, txn_id: int, opened: tuple[int, ...]):
        self.store = store
        self.id = txn_id
        self.phase = "open"
        self._journal: dict[str, JournalEntry] = {}
        self._status_pre = store.status_bytes()
        self.pristine = PristineStore(store)
        self._status: bytes | None = None  # queued by set_status
        self._snapshots: list[tuple[dict, bytes]] = []  # queued by add_pristine
        self._undone: set[int] = set()  # ids whose index lines rollback_to drops
        self._written: set[str] = set()  # what a failed commit wrote, for its abort
        self._opened = opened  # the lock file's key, for _settled
        self._listings: dict[str, list[str]] = {}  # prefix -> the files under it, sorted
        self._entries: dict[str, os.DirEntry] = {}  # path -> its listing's entry
        self._digests: dict[str, tuple] = {}  # path -> (settled key or None, sha)
        # (prefix, key) -> (path -> rendered line, the paths to render again)
        self._caches: dict[tuple, tuple[dict[str, str], set[str]]] = {}
        self._index: dict | None = None  # .pkgdb/digests as read, on first use

    # -- reads -------------------------------------------------------------

    def state(self, rel: str):
        return self.store.state(rel)

    def walk_files(self, prefix: str = "") -> list[str]:
        """Sorted package-visible files under the directory ``prefix`` names
        ("" for the root, else ending in "/"); each prefix is listed once per
        open transaction, and each mutation keeps every listing current."""
        self._require_open()
        files = self._listings.get(prefix)
        if files is None:
            entries = {rel: entry for rel, is_dir, entry in self.store.scan(prefix) if not is_dir}
            self._entries.update(entries)
            files = self._listings[prefix] = sorted(entries)
        return list(files)

    def render_files(self, prefix: str, key, render) -> str:
        """``render(rel, digest)`` joined over ``walk_files(prefix)``, where
        ``digest`` is :meth:`digest` and ``render`` returns "" for a file it
        skips.  A later call with the same ``prefix`` and ``key`` in this
        transaction keeps every line but those of the paths ``_set`` touched
        under ``prefix`` since, and of the files whose ``digest`` is not
        memoised; ``render`` must give a file one line while its content
        does not change."""
        files = self.walk_files(prefix)
        lines, stale = self._caches.pop((prefix, key), ({}, None))  # dropped if render raises
        redo = files if stale is None else [rel for rel in stale if _find(files, rel)[1]]
        volatile = set()
        for rel in redo:
            line = lines[rel] = render(rel, self.digest)
            if line and rel not in self._digests:
                volatile.add(rel)
        self._caches[prefix, key] = lines, volatile
        return "".join(map(lines.__getitem__, files))

    def digest(self, rel: str) -> str:
        """``_sha`` of a file's content, found once per open transaction
        until a mutation sets the path.  Only a file that has no other name
        is memoised, since a write by another name would not reset the memo:
        a listed regular file with one link, or a file the transaction
        created.  A link, a hard-linked file or an unlisted path is read on
        every call.  A listed file whose key is settled is looked up in the
        digest index, read only when its key changed, and kept in the index
        the transaction writes back."""
        self._require_open()
        known = self._digests.get(rel)
        if known is not None:
            return known[1]
        entry = self._entries.get(rel)
        try:  # before the read
            st = None if entry is None else entry.stat(follow_symlinks=False)
        except OSError:
            st = None
        if st is None or not stat.S_ISREG(st.st_mode) or st.st_nlink != 1:
            return _sha(self.store.read(rel))
        known = self._digests[rel] = self._hash(rel, _stat_key(st))
        return known[1]

    def _hash(self, rel: str, key: tuple) -> tuple:
        index = self._load_index()
        if not self._settled(key):
            return None, _sha(self.store.read(rel))
        known = index.get(rel)
        if (type(known) is tuple and len(known) == 6 and known[:5] == key
                and type(known[5]) is str):
            return key, known[5]
        return key, _sha(self.store.read(rel))

    def _settled(self, key) -> bool:
        """Git's racy-entry rule: a file changed in the tick the lock was
        made could change again unseen, with the same key."""
        dev, ctime = self._opened[0], self._opened[4]
        return key[0] == dev and key[3] < ctime and key[4] < ctime

    def _load_index(self) -> dict:
        if self._index is None:
            try:  # the index is only a cache
                data = self.store.load("digests") or b""
            except OSError:
                data = b""
            head = len(_DIGESTS_CODEC) + 32
            body = memoryview(data)[head:]
            index = None
            if data[:head] == _DIGESTS_CODEC + hashlib.sha256(body).digest():
                try:  # marshal trusts the sizes it reads: the body is checked first
                    index = marshal.loads(body)
                except (ValueError, EOFError, TypeError):  # not written by this Python
                    pass
            self._index = index if type(index) is dict else {}
        return self._index

    def _forget(self) -> None:
        self._listings, self._entries, self._digests, self._caches = {}, {}, {}, {}

    # -- journaled mutations ------------------------------------------------

    def _require_open(self) -> None:
        if self.phase != "open":
            raise StoreError(f"transaction {self.id} is {self.phase}")

    def journal_entries(self) -> list[JournalEntry]:
        return list(self._journal.values())

    def _set(self, rel: str, old, new) -> None:
        """Journal ``old``, the path's state, on first touch (it is not read
        for a journaled path), ``put`` ``new`` and keep the memo current."""
        if rel not in self._journal:
            self._journal[rel] = JournalEntry(rel, old)
        self._digests.pop(rel, None)
        self._entries.pop(rel, None)
        # a put that raises part-way may have changed the disk: list it again
        listings, caches = self._listings, self._caches
        self._listings, self._caches = {}, {}
        self.store.put(rel, new)
        for prefix, files in listings.items():
            if rel.startswith(prefix):
                i, listed = _find(files, rel)  # insert, keep or drop it in place
                files[i:i + listed] = [rel] if new[0] == "file" else []
        for (prefix, _key), (_lines, redo) in caches.items():
            if rel.startswith(prefix):
                redo.add(rel)
        self._listings, self._caches = listings, caches

    def write_through(self, rel: str, data: bytes | None, mode: int | None = None) -> list[str]:
        """Write ``data`` to a file, creating it and its missing parent
        directories, or delete the file when ``data`` is None.  Pre-images
        are journaled on first touch, each created directory as ``mkdir``
        journals it.  Returns the created directories, outermost first."""
        self._require_open()
        kind, _content, st_mode = old = self.store.state(rel)
        if kind == "dir":
            raise IsADirectoryError(f"{rel!r} is a directory")
        if data is None:
            if kind == "absent":
                raise FileNotFoundError(f"{rel!r} does not exist")
            self._set(rel, old, _ABSENT)
            return []
        parent = rel.rpartition("/")[0]
        created = self.mkdir(parent) if kind == "absent" and parent else []
        if mode is None:
            mode = st_mode if kind == "file" else _FILE_MODE
        self._set(rel, old, ("file", data, mode))
        if kind == "absent":  # a created file has no other name
            self._digests[rel] = (None, _sha(data))
        return created

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
            kind = self.store.state(partial)[0]
            if kind == "file":
                raise FileExistsError(f"{partial!r} exists and is not a directory")
            if kind == "absent":
                todo.append(partial)
        for partial in todo:
            self._set(partial, _ABSENT, ("dir", None, _DIR_MODE))
        return todo

    def rmdir(self, rel: str) -> None:
        """Remove an empty directory (journaled); OSError if it is not empty."""
        self._require_open()
        old = self.store.state(rel)
        if old[0] != "dir":
            raise NotADirectoryError(f"{rel!r} is not a directory")
        self._set(rel, old, _ABSENT)

    def _restore(self, entries) -> list[str]:
        """``_set`` each entry's ``pre``, last entry first, leniently (a
        mutation may have failed after its entry was journaled).  Returns the
        skipped paths: preserved ones, and created directories that cannot be
        removed, say because they still have children (never force-deleted)."""
        skipped: list[str] = []
        for e in reversed(list(entries)):
            if self.store.preserved(e.path):
                skipped.append(e.path)
                continue
            try:
                old = None if e.path in self._journal else self.store.state(e.path)
            except OSError:  # a link to a directory, which no journal entry can hold
                old = _ABSENT
            try:
                self._set(e.path, old, e.pre)
            except OSError:
                if self.store.state(e.path)[0] != "dir":
                    raise
                if e.pre[0] != "absent":
                    raise CorruptedJournal(f"{e.path!r}: directory where file expected") from None
                skipped.append(e.path)
        return skipped

    def set_status(self, text: str) -> None:
        """Queue the status file's new text; written at commit."""
        self._require_open()
        self._status = text.encode("utf-8")

    def add_pristine(self, pkg_name: str, path: str, version_raw: str, content: bytes) -> None:
        """Queue a pristine conffile snapshot; flushed to disk at commit."""
        self._require_open()
        record = {"pkg": pkg_name, "path": path, "version": version_raw,
                  "sha": _sha(content), "txn": self.id}
        self._snapshots.append((record, content))

    # -- outcomes ---------------------------------------------------------

    def rollback(self) -> list[str]:
        """Undo everything this transaction did and end in an aborted record; a
        failed restore is raised after it.  Returns the preserve-skipped paths."""
        self._require_open()
        meta = {"outcome": "aborted"}
        try:
            return self._restore(self.journal_entries())
        except (OSError, StoreError) as e:
            meta["error"] = str(e)
            raise
        finally:
            self._close("aborted", meta)

    def commit(self, meta: dict | None = None) -> int:
        """End in a committed record and return the id."""
        self._require_open()
        self._close("committed", {"outcome": "committed", **(meta or {})})
        return self.id

    def _close(self, phase: str, meta: dict) -> None:
        """The one writer of records and engine state.  Each journaled path
        is read once, for both the trim and ``post``.  The lock is released in
        a ``finally``, unless a commit's record failed: that transaction stays
        open for its rollback."""
        indexed = {rel: (*key, sha) for rel, (key, sha) in self._digests.items()
                   if key is not None}
        self._forget()
        partial = self.store.history_dir / f".{self.id}.partial"
        ended = phase != "committed"
        try:
            entries = self.journal_entries()
            states = {e.path: self.store.state(e.path) for e in entries}
            entries = trim(entries, states)
            post = {e.path: _token(states[e.path]) for e in entries}
            info = {"timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    "request": "", **meta}
            if self._index is not None:
                body = marshal.dumps(indexed)
                try:
                    self.store.save("digests",
                                    _DIGESTS_CODEC + hashlib.sha256(body).digest() + body)
                except OSError:  # the index is only a cache
                    pass
            part = f"history/{partial.name}/"
            saves = {part + "journal": journal_dump(entries), part + "status-pre": self._status_pre,
                     part + "post": json.dumps(post, sort_keys=True, indent=0).encode(),
                     part + "meta": json.dumps(info, sort_keys=True, indent=0).encode()}
            if phase == "committed":
                held = self.pristine.held() if self._snapshots or self._undone else []
                dropped = [line for r, line in held if r["txn"] in self._undone]
                if dropped:
                    saves[part + "pristine"] = _pristine_dump(dropped)
                # an object that a line of the index names is never rewritten:
                # a save that failed half-way would tear that line's merge base
                named = {r["sha"] for r, _ in held}
                saves.update((f"pristine/objects/{r['sha']}", c) for r, c in self._snapshots
                             if r["sha"] not in named)
                if self._status is not None:
                    saves["status"] = self._status
                if dropped or self._snapshots:
                    saves["pristine/index"] = _pristine_dump(
                        [line for r, line in held if r["txn"] not in self._undone],
                        [r for r, _ in self._snapshots])
            else:  # an abort writes back what a failed commit wrote
                saves.update((name, self._status_pre if name == "status" else
                              _pristine_dump(line for _, line in self.pristine.held()))
                             for name in ("status", "pristine/index") if name in self._written)
            for name, data in saves.items():
                self._written.add(name)
                self.store.save(name, data)
            os.rename(partial, self.store.history_dir / str(self.id))
            ended = True
        except BaseException:
            shutil.rmtree(partial, ignore_errors=True)
            raise
        finally:
            if ended:
                self.phase = phase
                self.store._release_lock()
