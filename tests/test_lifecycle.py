"""Lifecycle oracle: random sequences of transactions, failed writes,
history rollbacks (some with a failing ``Store.put``), commits and history
rollbacks whose ``_close`` fails at one ``Store.save``, pruning and hand
edits, checked against a model.

The model holds every package-visible path as ``(kind, bytes, mode)``, the
status bytes, the pristine index as ``(pkg, path, sha, txn)`` lines, and one
record per transaction id: committed, aborted, or a rollback with the id
range it undid.  For each id it keeps the tree and status before the
transaction, the tree its record leaves (after a commit or an abort), and
whether the record was pruned or archived.  After every rule the disk, the
status file, the pristine index and ``history_ids()`` must equal the model
and ``.pkgdb/lock`` must be absent.  ``rollback_to(k)`` walks the ids from
the last down to ``k``: a rollback record is skipped together with the ids
it undid, ``lo`` onwards, and every other record is restored.  So it must
raise ``GapInHistory`` exactly when the walk meets a record that is gone,
or a rollback with ``lo < k`` (the tree from before ``k`` is gone, and a
rollback is never redone).  It must raise ``CorruptedJournal`` exactly when
a hand edit changed the token of a journaled, non-preserved path, and
otherwise restore the tree from before ``k``, except preserved paths and
paths edited by hand since ``k`` began, under a rollback record of its own.
It drops the index lines of the ids it restores, and its record's
``pristine`` part holds them.  An ``OSError`` from its k-th ``Store.put``
must leave the tree, the status, the index and the history as they were,
plus one aborted record; so must one from the k-th ``Store.save`` in the
``_close`` of a commit or of a history rollback (``begin``'s ``serial`` and
the ``digests`` cache aside), which writes half its bytes first.
"""

import contextlib
import errno
import hashlib
import json
import os
import shutil
import stat
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from txpkg.txn import CorruptedJournal, GapInHistory, Store

import support

FILES = ["etc/motd", "etc/app.conf", "usr/share/app/a.txt",
         "opt/x/new.txt", "opt/x/y/deep.txt", "srv/a/f", "var/log/app.log",
         "var/log/sub/b.log"]
DIRS = ["srv/a", "srv/b", "opt/x/y", "opt/z", "var/log/sub"]
RMDIRS = DIRS + ["opt/x", "opt", "srv", "var/log", "usr/share"]
MODES = [None, 0o600, 0o644, 0o755]

_bytes = st.binary(max_size=6)
_ops = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(FILES), _bytes, st.sampled_from(MODES)),
    st.tuples(st.just("delete"), st.sampled_from(FILES)),
    st.tuples(st.just("mkdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("rmdir"), st.sampled_from(RMDIRS)),
    st.tuples(st.just("status"), st.sampled_from(["", "a 1\n", "b 2\n", "a 1\nb 2\n"])),
    st.tuples(st.just("pristine"), st.sampled_from(["a", "b"]), _bytes),
)
CONFFILE = "etc/app.conf"


def disk_tree(root: Path) -> dict:
    """path -> (kind, bytes or None, permission bits), read with os.walk alone."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == str(root):
            dirnames[:] = [d for d in dirnames if d != ".pkgdb"]
        for name in dirnames + filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            mode = stat.S_IMODE(os.lstat(full).st_mode)
            if name in dirnames:
                out[rel] = ("dir", None, mode)
            else:
                out[rel] = ("file", Path(full).read_bytes(), mode)
    return out


def index_lines(data) -> list[tuple]:
    """``(pkg, path, sha, txn)`` for each line of a pristine index or part."""
    return [(r["pkg"], r["path"], r["sha"], r["txn"])
            for r in map(json.loads, (data or b"").splitlines())]


@contextlib.contextmanager
def failing_save(fault):
    """Make the ``fault``-th ``Store.save``, ``serial`` and ``digests`` aside,
    write half its bytes and raise OSError, as a disk that fills up does;
    yields the list of names it failed."""
    saves, hit, real_save = [0], [], Store.save

    def save(store, name, data):
        if name not in ("serial", "digests"):
            saves[0] += 1
            if saves[0] == fault:
                hit.append(name)
                real_save(store, name, data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "injected save failure", name)
        real_save(store, name, data)

    with mock.patch.object(Store, "save", save):
        yield hit


def _chain(rel: str) -> list[str]:
    """``rel`` and its ancestors, outermost first."""
    parts = rel.split("/")
    return ["/".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _kind(tree: dict, rel: str):
    return tree[rel][0] if rel in tree else None


def _token(state):
    """What ``Store.state_token`` sees: kind and bytes, not the mode."""
    return None if state is None else state[:2]


def model_mkdir(tree: dict, rel: str) -> None:
    if any(_kind(tree, p) == "file" for p in _chain(rel)):
        raise FileExistsError(rel)
    for p in _chain(rel):
        tree.setdefault(p, ("dir", None, 0o755))


def model_op(tree: dict, op: tuple) -> None:
    """Apply one transaction call to ``tree``, or raise what the store raises."""
    name, rel = op[0], op[1]
    if name == "write":
        data, mode = op[2], op[3]
        current = tree.get(rel)
        if _kind(tree, rel) == "dir":
            raise IsADirectoryError(rel)
        if current is None and "/" in rel:
            model_mkdir(tree, rel.rpartition("/")[0])
        if mode is None:
            mode = current[2] if current else 0o644
        tree[rel] = ("file", data, mode)
    elif name == "delete":
        if _kind(tree, rel) != "file":
            raise FileNotFoundError(rel)
        del tree[rel]
    elif name == "mkdir":
        model_mkdir(tree, rel)
    elif name == "rmdir":
        if _kind(tree, rel) != "dir":
            raise NotADirectoryError(rel)
        if any(p.startswith(rel + "/") for p in tree):
            raise OSError(rel)
        del tree[rel]


def changed(before: dict, after: dict) -> set:
    """The paths a committed transaction journals after trimming."""
    return {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}


class Lifecycle(RuleBasedStateMachine):
    @initialize()
    def seed(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="txpkg-lifecycle-"))
        self.store = support.new_store(self.tmp)
        support.seed_tree(self.store.root)
        self.tree = disk_tree(self.store.root)
        self.status = b""
        self.index: list[tuple] = []  # the pristine index's lines
        self.queued: list[tuple] = []  # the open transaction's snapshots
        self.last = 0  # the last id handed out
        self.kind: dict[int, str] = {}  # id -> committed | aborted | rollback
        self.undid: dict[int, tuple] = {}  # rollback id -> (lo, hi) it undid
        self.gone: dict[int, str] = {}  # id -> pruned | archived
        self.pre: dict[int, tuple] = {}  # id -> (tree, status) before the transaction
        self.post: dict[int, dict] = {}  # committed or aborted id -> tree its record leaves
        # the last id used when a hand edit last changed the tree:
        # ``rollback_to(k)`` gives the tree from before ``k`` if k is later
        self.hand_edited_after = 0

    def teardown(self):
        if hasattr(self, "tmp"):
            shutil.rmtree(self.tmp, ignore_errors=True)

    # -- helpers ------------------------------------------------------------

    def _preserved(self, rel: str) -> bool:
        return self.store.preserved(rel)

    def _restore(self, targets: dict, kept=None) -> None:
        """Put each non-preserved path of ``targets`` back to its state (None:
        absent), as both rollbacks do; a directory in ``kept`` (path to
        state), or one that would go but still holds something, stays."""
        current, new = self.tree, dict(self.tree)
        for p, state in targets.items():
            if self._preserved(p):
                continue
            if state is None:
                new.pop(p, None)
            else:
                new[p] = state
        new.update(kept or {})
        for p in sorted(targets, key=lambda p: -p.count("/")):
            if (targets[p] is None and not self._preserved(p) and _kind(current, p) == "dir"
                    and any(q.startswith(p + "/") for q in new)):
                new[p] = current[p]
        self.tree = new

    def _run(self, txn, op) -> None:
        expected, error = dict(self.tree), None
        try:
            if op[0] not in ("status", "pristine"):
                model_op(expected, op)
        except OSError as e:
            error = type(e)
        try:
            if op[0] == "write":
                txn.write_through(op[1], op[2], mode=op[3])
            elif op[0] == "delete":
                txn.write_through(op[1], None)
            elif op[0] == "mkdir":
                txn.mkdir(op[1])
            elif op[0] == "rmdir":
                txn.rmdir(op[1])
            elif op[0] == "status":
                txn.set_status(op[1])
                self.status = op[1].encode()
            else:
                txn.add_pristine(op[1], CONFFILE, "1", op[2])
                self.queued.append((op[1], CONFFILE, hashlib.sha256(op[2]).hexdigest(), txn.id))
        except OSError as e:
            assert type(e) is error, f"{op}: raised {e!r}, the model expects {error}"
        else:
            assert error is None, f"{op}: the model expects {error}"
            self.tree = expected
        assert disk_tree(self.store.root) == self.tree, op

    def _new_id(self, kind: str) -> int:
        self.last += 1
        self.kind[self.last] = kind
        self.pre[self.last] = (dict(self.tree), self.status)
        return self.last

    def _begin(self):
        txn = self.store.begin()
        assert txn.id == self._new_id("committed")
        self.queued = []
        return txn

    def _aborted(self, hid: int) -> None:
        """Record ``hid`` as aborted, leaving the model's tree; its restore put
        everything back, so its record names no error."""
        self.kind[hid], self.post[hid] = "aborted", dict(self.tree)
        meta = self.store.read_history(hid).meta
        assert meta["outcome"] == "aborted" and "error" not in meta, meta

    def _rolled_back(self, txn) -> None:
        pre_tree, pre_status = self.pre[txn.id]
        txn.rollback()
        self._restore({p: pre_tree.get(p) for p in changed(pre_tree, self.tree)})
        self.status = pre_status
        self._aborted(txn.id)

    # -- rules --------------------------------------------------------------

    @rule(ops=st.lists(_ops, min_size=1, max_size=4), commit=st.booleans(),
          fault=st.none() | st.integers(0, 63))
    def transaction(self, ops, commit, fault):
        """Run ``ops``, then commit, or roll back.  With ``fault``, one save
        of the commit's ``_close`` raises, chosen among those it makes: the
        record's four parts, the status when one is queued, and each pristine
        object and the index when snapshots are queued."""
        txn = self._begin()
        for op in ops:
            self._run(txn, op)
        if commit and fault is not None:
            shas = {line[2] for line in self.queued}
            saves = 4 + any(op[0] == "status" for op in ops) + len(shas) + bool(shas)
            with pytest.raises(OSError, match="injected"), failing_save(saves - fault % saves):
                txn.commit()
            assert txn.phase == "open", "a commit whose save failed ended"
        if commit and fault is None:
            txn.commit()
            self.post[txn.id] = dict(self.tree)
            self.index += self.queued
        else:
            self._rolled_back(txn)

    @rule(ops=st.lists(_ops, max_size=2), rel=st.sampled_from(FILES),
          data=st.binary(min_size=2, max_size=8))
    def failed_write(self, ops, rel, data):
        txn = self._begin()
        for op in ops:
            self._run(txn, op)

        would_write = dict(self.tree)
        try:
            model_op(would_write, ("write", rel, data, None))
        except OSError:
            would_write = self.tree
        with support.disk_full_halfway(), pytest.raises(OSError):
            txn.write_through(rel, data)
        # the torn write leaves ``rel`` and its new parents in some state
        torn = disk_tree(self.store.root)
        assert changed(would_write, torn) <= {rel}
        self.tree = torn
        self._rolled_back(txn)

    @rule(back=st.integers(-1, 5), force=st.booleans())
    def history_rollback(self, back, force):
        """``rollback_to(last + 1 - back)``: a target past the end, the no-op
        ``last + 1``, a recent transaction, or one before the first."""
        self._rollback_to(back, force)

    @rule(ops=st.lists(_ops, min_size=1, max_size=4), back=st.integers(1, 3),
          fault=st.integers(0, 63), seam=st.sampled_from(["put", "save"]))
    def failed_history_rollback(self, ops, back, fault, seam):
        """Commit ``ops``, then roll back, with force, to one of the last
        three transactions; one ``Store.put`` of the rollback, or one
        ``Store.save`` of its ``_close``, chosen by ``fault`` among those it
        makes, raises OSError."""
        self.transaction(ops, commit=True, fault=None)
        self._rollback_to(back, True, fault, seam)

    def _rollback_to(self, back, force, fault=None, seam="put"):
        last = self.last
        hid = last + 1 - back
        gap = hid < 1 or hid > last + 1
        records, i = [], last  # the records the walk restores, newest first
        while not gap and i >= hid:
            if i in self.gone:
                gap = True
            elif self.kind[i] == "rollback":
                gap, i = self.undid[i][0] < hid, self.undid[i][0] - 1
            else:
                records.append(i)
                i -= 1
        tampered = None
        if not gap and not force:
            seen = set()
            for i in records:  # the newest record of each path decides
                for p in sorted(changed(self.pre[i][0], self.post[i])):
                    if p in seen or self._preserved(p):
                        continue
                    seen.add(p)
                    if _token(self.tree.get(p)) != _token(self.post[i].get(p)):
                        tampered = tampered or p
        dropped = [line for line in self.index if line[3] in records]
        save_fault = None
        if fault is not None and seam == "save":
            # its commit saves the record's four parts and the status, and the
            # record's pristine part and the index when it drops index lines
            saves = 5 + 2 * bool(dropped)
            fault, save_fault = None, saves - fault % saves
        elif fault is not None:  # the rollback puts each non-preserved entry once
            entries = sum(not self._preserved(p) for i in records
                          for p in changed(self.pre[i][0], self.post[i]))
            fault = 1 + fault % entries if entries else None
        puts, hit = [0], []
        real_put = Store.put

        def put(store, rel, state):
            puts[0] += 1
            if puts[0] == fault:
                hit.append((rel, state))
                raise OSError(errno.EIO, "injected put failure", rel)
            real_put(store, rel, state)

        try:
            with mock.patch.object(Store, "put", put), failing_save(save_fault) as saved:
                skipped = self.store.rollback_to(hid, force=force)
        except GapInHistory:
            assert gap, f"rollback_to({hid}) refused a gap the model does not see"
            return
        except CorruptedJournal:
            assert tampered, f"rollback_to({hid}) saw a hand edit the model does not"
            return
        except OSError as e:
            assert (hit or saved) and "injected" in str(e), f"rollback_to({hid}) raised {e!r}"
            # the rollback's transaction put back the tree it found
            self._aborted(self._new_id("aborted"))
            return
        assert save_fault is None or not records, f"rollback_to({hid}) ended though a save failed"
        assert not gap, f"rollback_to({hid}) missed a gap"
        assert not tampered, f"rollback_to({hid}) missed the hand edit of {tampered!r}"
        # an injected fault that removing a created directory absorbed: the
        # directory stays, like one that still holds something (its mode is
        # read back, since which record's restore made it is not modelled)
        disk = disk_tree(self.store.root)
        for rel, state in hit:
            assert state[0] == "absent" and rel in skipped and _kind(disk, rel) == "dir", rel
        kept = {rel: disk[rel] for rel, _state in hit}
        targets = {}
        for i in records:  # the oldest pre-image of each path wins
            for p in changed(self.pre[i][0], self.post[i]):
                targets[p] = self.pre[i][0].get(p)
        if records:
            rollback = self._new_id("rollback")
            self.undid[rollback] = (hid, last)
            meta = self.store.read_history(rollback).meta
            assert (meta["outcome"], meta["undid"]) == ("rolled-back", [hid, last]), meta
            assert index_lines(self.store.load(f"history/{rollback}/pristine")) == dropped
            self.index = [line for line in self.index if line[3] not in records]
        self._restore(targets, kept)
        if records:
            self.status = self.pre[records[-1]][1]
        for i in records:
            self.gone[i] = "archived"
        if hid in self.pre and self.hand_edited_after < hid:
            # the paper's promise: every file from before ``hid`` and nothing
            # else, bar preserved paths; directories that held preserved
            # files may stay
            def visible(tree, kind):
                return {p: v for p, v in tree.items()
                        if v[0] == kind and not self._preserved(p)}
            before = self.pre[hid][0]
            assert visible(self.tree, "file") == visible(before, "file")
            assert visible(before, "dir").items() <= visible(self.tree, "dir").items()

    @rule(keep=st.integers(0, 3))
    def prune(self, keep):
        kept = self._history()
        doomed = kept[:max(0, len(kept) - keep)]
        assert self.store.prune_history(keep) == doomed
        for i in doomed:
            self.gone[i] = "pruned"

    @rule(rel=st.sampled_from(FILES), data=st.none() | _bytes, mode=st.sampled_from(MODES))
    def hand_edit(self, rel, data, mode):
        """Overwrite, chmod or delete a file by hand, or create one under var/log."""
        path = self.store.root / rel
        if _kind(self.tree, rel) == "file":
            if data is None and mode is None:
                path.unlink()
                del self.tree[rel]
            else:
                if data is not None:
                    path.write_bytes(data)
                if mode is not None:
                    os.chmod(path, mode)
                self.tree[rel] = ("file", path.read_bytes(), stat.S_IMODE(path.stat().st_mode))
        elif rel.startswith("var/log/") and data is not None:
            try:
                model_mkdir(self.tree, rel.rpartition("/")[0])
            except FileExistsError:
                return
            for p in _chain(rel)[:-1]:
                if not (self.store.root / p).is_dir():
                    (self.store.root / p).mkdir()
                    os.chmod(self.store.root / p, 0o755)
            path.write_bytes(data)
            os.chmod(path, 0o644)
            self.tree[rel] = ("file", data, 0o644)
        else:
            return
        self.hand_edited_after = self.last

    def _history(self) -> list[int]:
        """The ids whose records are in ``history/``: every id that is not gone."""
        return [i for i in sorted(self.kind) if i not in self.gone]

    # -- invariants -----------------------------------------------------------

    @invariant()
    def store_matches_model(self):
        if not hasattr(self, "store"):
            return
        assert disk_tree(self.store.root) == self.tree
        assert self.store.status_bytes() == self.status
        assert index_lines(self.store.load("pristine/index")) == self.index
        assert self.store.history_ids() == self._history()
        assert not self.store.lock_path.exists()


Lifecycle.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, derandomize=True, database=None,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
TestLifecycle = Lifecycle.TestCase
