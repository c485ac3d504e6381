"""DSL parsing, execution, compensation-based undo, and its equivalence with
journal rollback."""

import errno
import random

import pytest

from txpkg.mscript import (
    CorruptedLog,
    ScriptEnv,
    ScriptFailure,
    ScriptSyntaxError,
    classify,
    execute,
    parse_script,
    undo,
)
from txpkg.txn import Store, Transaction

import support

ENV = ScriptEnv(package="demo", old_version="1.0", new_version="2.0")


@pytest.fixture
def store(tmp_path):
    s = support.new_store(tmp_path)
    support.seed_tree(s.root)
    return s


# --- parsing -----------------------------------------------------------------


def test_parse_single_mkdir():
    program = parse_script("mkdir etc/aterm\n")
    assert len(program.steps) == 1
    assert program.steps[0].op == "mkdir"
    assert program.steps[0].args == ("etc/aterm",)


def test_parse_update_cache():
    program = parse_script("update-cache var/cache/fonts.idx usr/share/fonts/*\n")
    assert program.steps[0].op == "update-cache"
    assert program.steps[0].args == ("var/cache/fonts.idx", "usr/share/fonts/*")


def test_parse_unknown_primitive():
    with pytest.raises(ScriptSyntaxError, match="line 1"):
        parse_script("frobnicate x\n")


def test_parse_arity_checks_and_comments():
    with pytest.raises(ScriptSyntaxError, match="argument"):
        parse_script("copy onlyone\n")
    with pytest.raises(ScriptSyntaxError, match="argument"):
        parse_script("mkdir a b\n")
    program = parse_script("# a comment\n\nappend etc/motd two words here\n")
    assert len(program.steps) == 1
    assert program.steps[0].args == ("etc/motd", "two words here")


def test_parse_rejects_traversal_paths():
    with pytest.raises(ScriptSyntaxError):
        parse_script("remove ../outside\n")
    with pytest.raises(ScriptSyntaxError):
        parse_script("mkdir /abs\n")


# --- classify ------------------------------------------------------------------


def test_classify_cache_updater():
    assert classify(parse_script("update-cache var/c.idx usr/*\n")) == "cache-updater"
    assert classify(parse_script("mkdir var/cache\nupdate-cache var/c.idx usr/*\n")) == "cache-updater"


def test_classify_empty_program_is_cache_updater():
    assert classify(parse_script("")) == "cache-updater"


def test_classify_general():
    assert classify(parse_script("append etc/motd hi\n")) == "general"


# --- execution ------------------------------------------------------------------


def test_append_twice_appends_twice(store):
    txn = store.begin()
    program = parse_script("append etc/motd hello\n")
    log1 = execute(program, txn, ENV)
    log2 = execute(program, txn, ENV)
    assert store.read("etc/motd") == b"welcome\nhello\nhello\n"
    assert len(log1) == len(log2) == 1
    txn.rollback()


def test_update_cache_idempotent(store):
    txn = store.begin()
    program = parse_script("update-cache var/cache/app.idx usr/share/app/*\n")
    execute(program, txn, ENV)
    first = store.read("var/cache/app.idx")
    execute(program, txn, ENV)
    assert store.read("var/cache/app.idx") == first
    assert b"usr/share/app/a.txt" in first
    txn.rollback()


def test_cache_updater_class_program_is_idempotent(store):
    txn = store.begin()
    program = parse_script("mkdir var/cache\nupdate-cache var/cache/app.idx usr/share/app/*\n")
    assert classify(program) == "cache-updater"
    execute(program, txn, ENV)
    once = store.tree_hash()
    log = execute(program, txn, ENV)
    assert store.tree_hash() == once  # same store, only the log duplicates
    assert len(log) == 2
    txn.rollback()


def test_fail_raises_with_prior_log(store):
    txn = store.begin()
    program = parse_script("append etc/motd one\nappend etc/motd two\nfail boom\n")
    with pytest.raises(ScriptFailure) as info:
        execute(program, txn, ENV)
    assert info.value.step_index == 2
    assert info.value.message == "boom"
    assert len(info.value.log) == 2
    txn.rollback()


def test_variable_substitution(store):
    txn = store.begin()
    execute(parse_script("append etc/motd $PKG $OLD->$NEW\n"), txn, ENV)
    assert store.read("etc/motd").endswith(b"demo 1.0->2.0\n")
    with pytest.raises(ScriptFailure, match="OLD"):
        execute(parse_script("append etc/motd $OLD\n"), txn,
                ScriptEnv(package="demo", old_version=None, new_version="2.0"))
    txn.rollback()


def test_substituted_path_revalidated(store):
    txn = store.begin()
    env = ScriptEnv(package="demo", old_version="..", new_version="2.0")
    with pytest.raises(ScriptFailure):
        execute(parse_script("mkdir etc/$OLD/evil\n"), txn, env)
    txn.rollback()


def test_setkey_sorted_unique_and_delkey(store):
    txn = store.begin()
    execute(parse_script("setkey etc/app.conf zebra 1\nsetkey etc/app.conf color blue\n"),
            txn, ENV)
    assert store.read("etc/app.conf") == b"color=blue\nport=80\nzebra=1\n"
    execute(parse_script("delkey etc/app.conf port\n"), txn, ENV)
    assert store.read("etc/app.conf") == b"color=blue\nzebra=1\n"
    # deleting an absent key is a logged no-op
    before = store.read("etc/app.conf")
    log = execute(parse_script("delkey etc/app.conf nosuch\n"), txn, ENV)
    assert len(log) == 1 and store.read("etc/app.conf") == before
    txn.rollback()


def test_setkey_rejects_non_kv_file(store):
    txn = store.begin()
    with pytest.raises(ScriptFailure, match="key=value"):
        execute(parse_script("setkey etc/motd color red\n"), txn, ENV)
    txn.rollback()


def test_adduser_deluser_roundtrip(store):
    txn = store.begin()
    execute(parse_script("adduser zoe\nadduser amy\n"), txn, ENV)
    assert store.read("etc/users.db") == b"amy\nzoe\n"
    execute(parse_script("deluser amy\n"), txn, ENV)
    assert store.read("etc/users.db") == b"zoe\n"
    txn.rollback()


def test_copy_requires_existing_source(store):
    txn = store.begin()
    with pytest.raises(ScriptFailure, match="not a file"):
        execute(parse_script("copy nope/missing etc/x\n"), txn, ENV)
    txn.rollback()


@pytest.mark.parametrize("line, target", [
    ("copy etc/motd etc/motd.copy", "etc/motd.copy"),
    ("append etc/motd hi", "etc/motd"),
    ("setkey etc/app.conf color blue", "etc/app.conf"),
    ("delkey etc/app.conf port", "etc/app.conf"),
    ("update-cache var/cache/app.idx usr/share/app/*", "var/cache/app.idx"),
    ("adduser zoe", "etc/users.db"),
    ("deluser amy", "etc/users.db"),
])
def test_writing_step_reads_its_target_once(store, monkeypatch, line, target):
    reads = []
    original = Transaction.state

    def counting_state(self, rel):
        reads.append(rel)
        return original(self, rel)

    monkeypatch.setattr(Transaction, "state", counting_state)
    txn = store.begin()
    execute(parse_script(line + "\n"), txn, ENV)
    assert reads.count(target) == 1
    txn.rollback()


@pytest.mark.parametrize("line", [
    "adduser amy",
    "setkey etc/app.conf color red",
    "delkey etc/app.conf nosuch",
    "update-cache var/cache/app.idx usr/share/app/*",
])
def test_step_that_keeps_its_pre_image_writes_nothing(store, line):
    program = parse_script(line + "\n")
    if line.startswith("update-cache"):  # the repeated run is the one that keeps it
        txn = store.begin()
        execute(program, txn, ENV)
        txn.commit()
    before = store.tree_hash()
    txn = store.begin()
    log = execute(program, txn, ENV)
    assert len(log) == 1
    assert txn.journal_entries() == []
    assert store.tree_hash() == before
    undo(log, txn)
    assert txn.journal_entries() == []
    txn.commit()
    assert store.tree_hash() == before


@pytest.mark.parametrize("text, index, message", [
    ("mkdir srv/d\ncopy nope/missing srv/d", 1, "source 'nope/missing' is not a file"),
    ("remove etc", 0, "'etc' is not a file"),
    ("append etc hi", 0, "'etc' is a directory"),
    ("setkey etc a=b c", 0, "key 'a=b' may not contain '='"),
    ("delkey etc/none.conf k", 0, "'etc/none.conf' does not exist"),
    ("setkey etc/motd color red", 0, "'etc/motd' is not a key=value file"),
    ("adduser zoe", 0, "etc/users.db: not UTF-8 text (invalid start byte at byte 4)"),
    ("update-cache etc usr/*", 0, "'etc' is a directory"),
])
def test_failing_steps_report_text_and_index(store, text, index, message):
    (store.root / "etc/users.db").write_bytes(b"amy\n\xff\n")
    before = store.tree_hash()
    txn = store.begin()
    with pytest.raises(ScriptFailure) as info:
        execute(parse_script(text + "\n"), txn, ENV)
    assert (info.value.step_index, info.value.message) == (index, message)
    assert len(info.value.log) == index
    txn.rollback()
    assert store.tree_hash() == before


def test_mkdir_over_a_file_is_refused_and_writes_nothing(store):
    before = store.tree_hash()
    txn = store.begin()
    with pytest.raises(ScriptFailure) as info:
        execute(parse_script("mkdir etc/motd\n"), txn, ENV)
    assert (info.value.step_index, info.value.message, info.value.log) == (
        0, "'etc/motd' exists and is not a directory", [])
    assert txn.journal_entries() == [] and store.tree_hash() == before
    txn.rollback()


def test_an_os_error_inside_a_step_is_an_io_error_with_the_partial_log(store, monkeypatch):
    before = store.tree_hash()
    put = Store.put

    def failing_put(self, rel, state):
        if rel == "etc/app.conf":
            raise OSError(errno.ENOSPC, "No space left on device")
        put(self, rel, state)

    monkeypatch.setattr(Store, "put", failing_put)
    txn = store.begin()
    with pytest.raises(ScriptFailure) as info:
        execute(parse_script("append etc/motd hi\nsetkey etc/app.conf color blue\n"
                             "append etc/motd never\n"), txn, ENV)
    assert (info.value.step_index, info.value.message) == (
        1, "io error: [Errno 28] No space left on device")
    assert [eff.path for eff in info.value.log] == ["etc/motd"]
    assert store.read("etc/app.conf") == b"color=red\nport=80\n"
    undo(info.value.log, txn)
    hid = txn.commit()
    assert store.tree_hash() == before
    assert store.read_history(hid).entries == []


# --- undo ------------------------------------------------------------------------


def test_execute_then_undo_restores_tree(store, tmp_path):
    baseline = store.tree_hash()
    rng = random.Random(99)
    for i in range(30):
        txn = store.begin()
        program = parse_script(support.random_program_text(rng, max_len=10))
        log = execute(program, txn, ENV)
        undo(log, txn)
        txn.commit()
        assert store.tree_hash() == baseline, f"iteration {i}: {program}"


def test_undo_of_empty_log_is_noop(store):
    txn = store.begin()
    before = store.tree_hash()
    undo([], txn)
    assert store.tree_hash() == before
    txn.rollback()


def test_undo_composes(store):
    baseline = store.tree_hash()
    txn = store.begin()
    log_p = execute(parse_script("append etc/motd p\nmkdir srv/site\n"), txn, ENV)
    log_q = execute(parse_script("setkey etc/app.conf mode q\nadduser zoe\n"), txn, ENV)
    undo(log_q, txn)
    undo(log_p, txn)
    txn.commit()
    assert store.tree_hash() == baseline


def test_crash_consistency_at_every_failure_position(store, tmp_path):
    rng = random.Random(3)
    baseline = store.tree_hash()
    for _ in range(10):
        text = support.random_program_text(rng, max_len=6)
        lines = [l for l in text.splitlines() if l.strip()]
        for k in range(len(lines) + 1):
            injected = "\n".join(lines[:k] + ["fail injected"] + lines[k:]) + "\n"
            txn = store.begin()
            with pytest.raises(ScriptFailure) as info:
                execute(parse_script(injected), txn, ENV)
            assert info.value.step_index == k
            undo(info.value.log, txn)
            txn.commit()
            assert store.tree_hash() == baseline


def test_compensation_equals_journal_rollback(store, tmp_path):
    rng = random.Random(21)
    for i in range(15):
        text = support.random_program_text(rng, max_len=8)
        a = support.copy_store(store, tmp_path / f"a{i}")
        b = support.copy_store(store, tmp_path / f"b{i}")
        txn_a = a.begin()
        log = execute(parse_script(text), txn_a, ENV)
        undo(log, txn_a)
        txn_a.commit()
        txn_b = b.begin()
        execute(parse_script(text), txn_b, ENV)
        txn_b.rollback()
        assert a.tree_hash() == b.tree_hash() == store.tree_hash()


def test_undo_detects_external_tampering(store):
    txn = store.begin()
    log = execute(parse_script("append etc/motd hello\n"), txn, ENV)
    (store.root / "etc/motd").write_bytes(b"tampered\n")  # bypasses the engine
    with pytest.raises(CorruptedLog):
        undo(log, txn)
    txn.rollback()
    # a directory where a step deleted a file is a change too, not a target to write
    (store.root / "etc/f").write_bytes(b"f\n")
    txn = store.begin()
    log = execute(parse_script("remove etc/f\n"), txn, ENV)
    (store.root / "etc/f").mkdir()
    with pytest.raises(CorruptedLog, match="etc/f"):
        undo(log, txn)
    assert (store.root / "etc/f").is_dir()
    txn.rollback()


@pytest.mark.parametrize("users", [b"bob\nalice\n", b"alice\n\nbob\n", b"alice"])
@pytest.mark.parametrize("line", ["adduser alice", "deluser carol", "adduser zoe"])
def test_undo_restores_user_db_bytes(store, tmp_path, users, line):
    # none of these files is in the sorted one-name-per-line form the step writes
    (store.root / "etc/users.db").write_bytes(users)
    baseline = store.tree_hash()
    other = support.copy_store(store, tmp_path / "other")
    txn = store.begin()
    undo(execute(parse_script(line + "\n"), txn, ENV), txn)
    hid = txn.commit()
    assert store.read("etc/users.db") == users
    assert store.tree_hash() == baseline
    assert store.read_history(hid).entries == []
    txn_b = other.begin()
    execute(parse_script(line + "\n"), txn_b, ENV)
    txn_b.rollback()
    assert other.tree_hash() == baseline


def test_undo_refuses_a_created_directory_that_is_not_empty(store):
    txn = store.begin()
    log = execute(parse_script("mkdir srv/d\n"), txn, ENV)
    (store.root / "srv/d/x").write_bytes(b"x\n")  # bypasses the engine
    entries, tree = txn.journal_entries(), store.tree_hash()
    with pytest.raises(CorruptedLog, match="^step 0: directory 'srv/d' is not empty$"):
        undo(log, txn)
    assert txn.journal_entries() == entries and store.tree_hash() == tree
    txn.rollback()


@pytest.mark.parametrize("made", [True, False])
def test_undo_of_a_mkdir_whose_directory_vanished_is_refused(store, made):
    if not made:  # the step finds its directory in place and creates nothing
        (store.root / "srv/d").mkdir(parents=True)
    txn = store.begin()
    log = execute(parse_script("mkdir srv/d\n"), txn, ENV)
    assert log[0].created_dirs == (("srv", "srv/d") if made else ())
    (store.root / "srv/d").rmdir()  # bypasses the engine
    tree = store.tree_hash()
    with pytest.raises(CorruptedLog, match=r"^step 0: 'srv/d' changed since execution "
                                           r"\(have None, logged dir\)$"):
        undo(log, txn)
    assert store.tree_hash() == tree
    txn.rollback()
