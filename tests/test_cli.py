"""Command line contract: subcommands, exit codes, reports."""

import errno
import hashlib
import json
import os
import shutil
import tempfile

import pytest

from txpkg.cli import main
from txpkg.planner import payload_dir
from txpkg.sat import DpllSolver
from txpkg.txn import JournalEntry, Store, Transaction, journal_dump
from txpkg.universe import PackageId, Version, parse_universe

import support


@pytest.fixture
def setup(tmp_path):
    repo = support.aterm_repo(tmp_path)
    store = support.new_store(tmp_path)
    return store, repo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ------------------------------------------------------------------


def test_check_healthy_universe_exits_zero(setup, capsys):
    store, repo = setup
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo), "check")
    assert code == 0
    assert "0 broken of 2" in out


def test_check_broken_dependency_exits_one_with_witness(tmp_path, capsys):
    repo = support.write_repo(tmp_path / "repo",
                              "Package: a\nVersion: 1\nDepends: nosuch\n", {})
    store = support.new_store(tmp_path)
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo), "check")
    assert code == 1
    assert "broken: a 1" in out and "nosuch" in out


def test_check_malformed_metadata_exits_two(tmp_path, capsys):
    repo = support.write_repo(tmp_path / "repo", "Package only garbage\n", {})
    store = support.new_store(tmp_path)
    code, _, err = run(capsys, "--root", str(store.root), "--repo", str(repo), "check")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", [["check"], ["solve", "install a"]])
def test_a_path_repeated_in_files_exits_two(tmp_path, capsys, command):
    # apply would find the path owned twice only after solve had promised it
    repo = support.write_repo(tmp_path / "repo", "Package: a\nVersion: 1\nFiles: usr/f, usr/f\n",
                              {"a_1": {"usr/f": b"f\n"}})
    store = support.new_store(tmp_path)
    code, _, err = run(capsys, "--root", str(store.root), "--repo", str(repo), *command)
    assert code == 2
    assert "line 3: Files repeats path 'usr/f'" in err


# --- solve -------------------------------------------------------------------


def test_solve_prints_transcript(setup, capsys):
    store, repo = setup
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "solve", "install aterm")
    assert code == 0
    assert "2 newly installed" in out
    assert "386kB" in out


def test_solve_unsatisfiable_exits_one(setup, capsys):
    store, repo = setup
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "solve", "install ghost")
    assert code == 1
    assert "no solution" in out


def test_solve_bad_request_exits_two(setup, capsys):
    store, repo = setup
    code, _, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "solve", "summon aterm")
    assert code == 2


def test_dry_run_apply_equals_solve_output(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    code1, out1, _ = run(capsys, *base, "solve", "install aterm")
    code2, out2, _ = run(capsys, *base, "apply", "install aterm", "--dry-run")
    assert (code1, out1) == (code2, out2)
    assert store.history_ids() == []  # dry run never touches the store


# --- apply -------------------------------------------------------------------


def test_apply_success_updates_status(setup, capsys):
    store, repo = setup
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 0
    assert "applied as transaction 1" in out
    u = parse_universe(support.ATERM_META)
    assert len(store.load_status(u).installed) == 2


def test_apply_of_a_met_request_says_nothing_to_do_once(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install aterm")[0] == 0
    baseline = store.tree_hash()
    assert run(capsys, *base, "apply", "install aterm") == (0, "nothing to do\n", "")
    assert store.tree_hash() == baseline and store.history_ids() == [1]


def test_an_invalid_model_is_refused_before_the_store_is_touched(setup, capsys, monkeypatch):
    store, repo = setup
    baseline = store.tree_hash()
    monkeypatch.setattr(DpllSolver, "minimize", lambda self, *args, **kwargs: set())
    with pytest.raises(RuntimeError, match="^optimizer produced an invalid status: "):
        run(capsys, "--root", str(store.root), "--repo", str(repo), "apply", "install aterm")
    assert store.tree_hash() == baseline and _engine_state(store) == {}


def test_apply_script_failure_exits_three_store_restored(setup, capsys):
    store, repo = setup
    u = parse_universe(support.ATERM_META)
    payload = payload_dir(repo, u.get(PackageId("aterm", Version("1.0.1-4"))))
    (payload / "hooks/postinst").write_bytes(b"fail boom\n")
    baseline = store.tree_hash()
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 3
    assert "store restored" in out
    assert store.tree_hash() == baseline


def test_apply_missing_payload_exits_four(setup, capsys):
    store, repo = setup
    import shutil
    u = parse_universe(support.ATERM_META)
    shutil.rmtree(payload_dir(repo, u.get(PackageId("libafterimage0", Version("2.2.8-2")))))
    baseline = store.tree_hash()
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 4
    assert store.tree_hash() == baseline


def test_apply_needs_no_temporary_directory(setup, capsys, monkeypatch, tmp_path):
    store, repo = setup
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "no-such-dir"))
    failing = support.copy_store(store, tmp_path / "failing")
    repo_listing = sorted(repo.rglob("*"))
    code, out, _ = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 0 and "applied as transaction 1" in out
    assert sorted(repo.rglob("*")) == repo_listing
    u = parse_universe(support.ATERM_META)
    payload = payload_dir(repo, u.get(PackageId("aterm", Version("1.0.1-4"))))
    (payload / "hooks/postinst").write_bytes(b"fail boom\n")
    baseline = failing.tree_hash()
    code, out, _ = run(capsys, "--root", str(failing.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 3 and "store restored" in out
    assert failing.tree_hash() == baseline
    assert not (tmp_path / "no-such-dir").exists()


def test_apply_keep_prunes_history(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install libafterimage0")[0] == 0
    code, _, _ = run(capsys, *base, "--prefs=-removed,-changed,-new,-download",
                     "apply", "install aterm", "--keep", "1")
    assert code == 0
    assert store.history_ids() == [2]


def test_apply_negative_keep_rejected_before_store_is_touched(setup, capsys):
    store, repo = setup
    baseline = store.tree_hash()
    code, _, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm", "--keep", "-1")
    assert code == 2
    assert err.startswith("error:") and "--keep" in err
    assert store.history_ids() == []
    assert store.tree_hash() == baseline


def test_apply_json_outcome(setup, capsys):
    store, repo = setup
    code, out, _ = run(capsys, "--json", "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 0
    record = json.loads(out)
    assert record["result"] == "success"
    assert record["history_id"] == 1
    assert record["conffile_conflicts"] == []


# --- rollback / history ---------------------------------------------------------


def test_rollback_after_apply_restores_tree(setup, capsys):
    store, repo = setup
    baseline = store.tree_hash()
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install aterm")[0] == 0
    assert store.tree_hash() != baseline
    code, out, _ = run(capsys, "--root", str(store.root), "rollback", "1")
    assert code == 0
    assert store.tree_hash() == baseline


def test_rollback_unknown_id_exits_one(setup, capsys):
    store, _repo = setup
    code, out, _ = run(capsys, "--root", str(store.root), "rollback", "99")
    assert code == 1
    assert "no history record 99" in out


def test_rollback_tampered_file_needs_force(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install aterm")[0] == 0
    (store.root / "usr/bin/aterm").write_bytes(b"hand edited")
    code, out, _ = run(capsys, "--root", str(store.root), "rollback", "1")
    assert code == 1
    assert "outside the engine" in out
    code, _, _ = run(capsys, "--root", str(store.root), "rollback", "1", "--force")
    assert code == 0


@pytest.mark.parametrize("json_flag", [False, True])
def test_rollback_refuses_a_journaled_file_replaced_by_a_directory_link(tmp_path, capsys,
                                                                        json_flag):
    store = support.new_store(tmp_path)
    (store.root / "usr").mkdir()
    txn = store.begin()
    txn.write_through("etc/motd", b"hi\n")
    assert txn.commit() == 1
    motd = store.root / "etc/motd"
    motd.unlink()
    motd.symlink_to("../usr")
    flags = ["--json"] if json_flag else []
    code, out, _ = run(capsys, "--root", str(store.root), *flags, "rollback", "1")
    assert code == 1
    if json_flag:
        report = json.loads(out)
        assert report["result"] == "corrupted-journal"
        assert "'etc/motd' was changed outside the engine since transaction 1" in report["detail"]
    else:
        assert out.startswith("error: 'etc/motd' was changed outside the engine since "
                              "transaction 1 (")
    assert os.readlink(motd) == "../usr"  # nothing touched
    assert store.history_ids() == [1]
    assert (store.root / ".pkgdb/serial").read_bytes() == b"1"  # the refusal used no id


def _snapshot(path):
    """A link target's bytes, or every file under it with its bytes."""
    if path.is_file():
        return path.read_bytes()
    return sorted((str(f.relative_to(path)), f.read_bytes())
                  for f in path.rglob("*") if f.is_file())


@pytest.mark.parametrize("target", ["outside file", "directory"])
def test_forced_rollback_replaces_a_link_and_leaves_its_target(tmp_path, capsys, target):
    store = support.new_store(tmp_path)
    support.seed_tree(store.root)
    before = store.tree_hash()
    txn = store.begin()
    txn.write_through("etc/motd", b"hi\n")
    txn.write_through("etc/other", b"new\n")
    assert txn.commit() == 1
    if target == "outside file":
        dest = tmp_path / "outside"
        dest.write_bytes(b"not the engine's\n")
        link = str(dest)
    else:
        dest, link = store.root / "usr", "../usr"
    motd = store.root / "etc/motd"
    motd.unlink()
    motd.symlink_to(link)
    kept = _snapshot(dest)
    code, out, _ = run(capsys, "--root", str(store.root), "rollback", "1", "--force")
    assert code == 0, out
    assert store.tree_hash() == before
    assert not motd.is_symlink() and motd.read_bytes() == b"welcome\n"
    assert _snapshot(dest) == kept


def _motd_and_other(tmp_path):
    """A seeded root where transaction 1 rewrote etc/motd and created etc/other."""
    store = support.new_store(tmp_path)
    support.seed_tree(store.root)
    txn = store.begin()
    txn.write_through("etc/motd", b"hi\n")
    txn.write_through("etc/other", b"new\n")
    assert txn.commit() == 1
    return store


def test_forced_rollback_over_a_directory_changes_nothing(tmp_path, capsys):
    store = _motd_and_other(tmp_path)
    motd = store.root / "etc/motd"
    motd.unlink()
    motd.mkdir()
    (motd / "child").write_bytes(b"c\n")
    before = (store.tree_hash(), store.status_bytes())
    code, out, err = run(capsys, "--root", str(store.root), "rollback", "1", "--force")
    assert code == 1
    assert out == "error: 'etc/motd': directory where file expected\n"
    assert "Traceback" not in out + err
    assert (store.tree_hash(), store.status_bytes()) == before
    assert store.read("etc/other") == b"new\n"
    assert store.history_ids() == [1, 2] and not store.lock_path.exists()
    assert store.read_history(2).meta["outcome"] == "aborted"


def test_forced_rollback_that_cannot_write_is_an_io_failure(tmp_path, capsys):
    store = _motd_and_other(tmp_path)
    shutil.rmtree(store.root / "etc")
    (store.root / "etc").write_bytes(b"a file where etc/ was\n")
    before = (store.tree_hash(), store.status_bytes())
    code, out, err = run(capsys, "--root", str(store.root), "--json", "rollback", "1", "--force")
    assert code == 4
    report = json.loads(out)
    assert report["result"] == "io-failure" and "File exists" in report["detail"]
    assert "Traceback" not in out + err
    assert (store.tree_hash(), store.status_bytes()) == before
    assert store.history_ids() == [1, 2] and not store.lock_path.exists()


def test_failing_commit_leaves_an_aborted_record_and_no_partial_one(setup, capsys, monkeypatch):
    store, repo = setup
    baseline = (store.tree_hash(), store.status_bytes())
    real_save, failed = Store.save, []

    def save(self, name, data):
        if name.endswith("/meta") and not failed:  # the commit's record, not the abort's
            failed.append(name)
            raise OSError(errno.ENOSPC, "No space left on device", name)
        real_save(self, name, data)

    monkeypatch.setattr(Store, "save", save)
    base = ["--root", str(store.root), "--repo", str(repo)]
    code, out, _ = run(capsys, *base, "--json", "apply", "install aterm")
    assert code == 4 and json.loads(out)["result"] == "io-failure"
    assert (store.tree_hash(), store.status_bytes()) == baseline
    assert sorted(p.name for p in store.history_dir.iterdir()) == ["1"]
    assert not store.lock_path.exists()
    code, out, _ = run(capsys, *base, "history")
    assert code == 0 and out.split("\t")[::2] == ["1", "aborted"]
    code, out, _ = run(capsys, *base, "rollback", "1")
    assert code == 0 and (store.tree_hash(), store.status_bytes()) == baseline


@pytest.mark.parametrize("command", [["history"], ["rollback", "1"]])
def test_a_directory_in_place_of_a_record_part_is_reported(setup, capsys, command):
    store, repo = setup
    assert run(capsys, "--root", str(store.root), "--repo", str(repo),
               "apply", "install aterm")[0] == 0
    meta = store.history_dir / "1" / "meta"
    meta.unlink()
    meta.mkdir()
    code, out, err = run(capsys, "--root", str(store.root), *command)
    assert code == 1
    assert "error: history record 1 unreadable: " in out + err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", [["history"], ["rollback", "1"]])
@pytest.mark.parametrize("part, data", [("meta", b"[]"), ("post", b'"x"'),
                                        ("meta", b'{"undid": [1]}')])
def test_a_record_part_of_the_wrong_shape_is_reported(setup, capsys, command, part, data):
    store, repo = setup
    assert run(capsys, "--root", str(store.root), "--repo", str(repo),
               "apply", "install aterm")[0] == 0
    (store.history_dir / "1" / part).write_bytes(data)
    code, out, err = run(capsys, "--root", str(store.root), *command)
    assert code == 1
    assert "error: history record 1 malformed: " in out + err
    assert "Traceback" not in out + err


def test_apply_whose_aborted_record_cannot_be_written_is_an_io_failure(setup, capsys,
                                                                      monkeypatch):
    store, repo = setup
    u = parse_universe(support.ATERM_META)
    payload = payload_dir(repo, u.get(PackageId("aterm", Version("1.0.1-4"))))
    (payload / "hooks/postinst").write_bytes(b"fail boom\n")
    baseline = (store.tree_hash(), store.status_bytes())
    real_save = Store.save

    def save(self, name, data):
        if name.startswith("history/"):
            raise OSError(errno.ENOSPC, "No space left on device", name)
        real_save(self, name, data)

    monkeypatch.setattr(Store, "save", save)
    code, out, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                         "--json", "apply", "install aterm")
    assert code == 4, out + err
    report = json.loads(out)
    assert report["result"] == "io-failure"
    assert "boom" in report["failing"] and "No space left on device" in report["failing"]
    assert "Traceback" not in out + err
    assert (store.tree_hash(), store.status_bytes()) == baseline
    assert store.history_ids() == [] and not store.lock_path.exists()


def test_apply_whose_restore_fails_does_not_claim_the_store_restored(setup, capsys,
                                                                    monkeypatch):
    store, repo = setup
    u = parse_universe(support.ATERM_META)
    payload = payload_dir(repo, u.get(PackageId("aterm", Version("1.0.1-4"))))
    (payload / "hooks/postinst").write_bytes(b"fail boom\n")
    real_put, real_restore, restoring = Store.put, Transaction._restore, []

    def put(self, rel, state):
        if restoring:
            raise OSError(errno.EIO, "Input/output error", rel)
        real_put(self, rel, state)

    monkeypatch.setattr(Store, "put", put)
    monkeypatch.setattr(Transaction, "_restore",
                        lambda self, entries: restoring.append(1) or real_restore(self, entries))
    code, out, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                         "apply", "install aterm")
    assert code == 4, out + err
    assert "boom; then the rollback failed: [Errno 5]" in out
    assert "the store may differ from its previous state" in out
    assert "store restored" not in out and not store.lock_path.exists()


def test_rollback_steps_over_a_failed_apply(tmp_path, capsys):
    meta = ("Package: a\nVersion: 1\nFiles: usr/share/a\n\n"
            "Package: b\nVersion: 1\nFiles: usr/share/b\nPostinst: hooks/postinst\n\n"
            "Package: c\nVersion: 1\nFiles: usr/share/c\n")
    repo = support.write_repo(tmp_path / "repo", meta, {
        "a_1": {"usr/share/a": b"a\n"},
        "b_1": {"usr/share/b": b"b\n", "hooks/postinst": b"fail broken postinst\n"},
        "c_1": {"usr/share/c": b"c\n"},
    })
    store = support.new_store(tmp_path)
    base = ["--root", str(store.root), "--repo", str(repo)]
    before = {1: (store.tree_hash(), store.status_bytes())}
    assert run(capsys, *base, "apply", "install a")[0] == 0
    before[2] = (store.tree_hash(), store.status_bytes())
    assert run(capsys, *base, "apply", "install b")[0] == 3
    assert (store.tree_hash(), store.status_bytes()) == before[2]
    code, out, _ = run(capsys, *base, "apply", "install c")
    assert code == 0 and "applied as transaction 3" in out
    code, out, _ = run(capsys, *base, "history")
    assert [line.split("\t")[::2] for line in out.splitlines()] == [
        ["1", "success"], ["2", "aborted"], ["3", "success"]]
    for hid in (1, 2):
        copy = support.copy_store(store, tmp_path / f"copy{hid}")
        code, out, _ = run(capsys, "--root", str(copy.root), "rollback", str(hid))
        assert code == 0, out
        assert (copy.tree_hash(), copy.status_bytes()) == before[hid]


def test_failed_upgrade_that_turns_a_file_into_a_directory_is_rolled_back(tmp_path, capsys):
    meta = ("Package: a\nVersion: 1\nFiles: usr/share/a\n\n"
            "Package: a\nVersion: 2\nConflicts: a (<< 2)\nFiles: usr/share/a/data\n"
            "Postinst: hooks/postinst\n")
    repo = support.write_repo(tmp_path / "repo", meta, {
        "a_1": {"usr/share/a": b"a\n"},
        "a_2": {"usr/share/a/data": b"d\n", "hooks/postinst": b"fail broken postinst\n"},
    })
    store = support.new_store(tmp_path)
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install a (= 1)")[0] == 0
    before = (store.tree_hash(), store.status_bytes())
    code, out, err = run(capsys, *base, "apply", "upgrade a (>= 2)")
    assert code == 3, out + err
    assert (store.tree_hash(), store.status_bytes()) == before
    assert store.read("usr/share/a") == b"a\n"
    assert not store.lock_path.exists()


def test_update_cache_lists_a_hand_placed_file_with_a_space(tmp_path, capsys):
    meta = "Package: a\nVersion: 1\nFiles: usr/share/a\nPostinst: hooks/postinst\n"
    repo = support.write_repo(tmp_path / "repo", meta, {"a_1": {
        "usr/share/a": b"a\n",
        "hooks/postinst": b"update-cache var/cache/index usr/share/**\n"}})
    store = support.new_store(tmp_path)
    (store.root / "usr/share/doc").mkdir(parents=True)
    (store.root / "usr/share/doc/my notes").write_bytes(b"notes\n")
    code, out, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                         "apply", "install a")
    assert code == 0, out + err
    sha = hashlib.sha256(b"notes\n").hexdigest()
    assert f"usr/share/doc/my notes {sha}\n" in store.read("var/cache/index").decode()


def test_update_cache_lists_a_hand_placed_file_whose_name_is_not_utf8(tmp_path, capsys):
    meta = "Package: a\nVersion: 1\nFiles: usr/share/a.txt\nPostinst: hooks/postinst\n"
    repo = support.write_repo(tmp_path / "repo", meta, {"a_1": {
        "usr/share/a.txt": b"a\n",
        "hooks/postinst": b"update-cache var/cache/idx usr/share/*\n"}})
    store = support.new_store(tmp_path)
    (store.root / "usr/share").mkdir(parents=True)
    with open(os.path.join(os.fsencode(store.root), b"usr/share/\xff"), "wb") as fh:
        fh.write(b"raw\n")
    code, out, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                         "apply", "install a")
    assert code == 0, out + err
    sha_a, sha_raw = (hashlib.sha256(data).hexdigest().encode() for data in (b"a\n", b"raw\n"))
    assert store.read("var/cache/idx") == (b"usr/share/a.txt " + sha_a + b"\n"
                                           + b"usr/share/\xff " + sha_raw + b"\n")


@pytest.mark.parametrize("name", ["\u00b2", "\u0663"])  # a superscript two, an Arabic-Indic three
def test_history_lists_only_records_named_in_ascii_digits(setup, capsys, name):
    store, repo = setup
    assert run(capsys, "--root", str(store.root), "--repo", str(repo),
               "apply", "install aterm")[0] == 0
    (store.history_dir / name).mkdir()
    code, out, err = run(capsys, "--root", str(store.root), "history")
    assert code == 0, out + err
    assert [line.split("\t")[0] for line in out.splitlines()] == ["1"]
    assert store.history_ids() == [1]


def test_a_zero_padded_record_name_is_no_record(setup, capsys):
    store, repo = setup
    assert run(capsys, "--root", str(store.root), "--repo", str(repo),
               "apply", "install aterm")[0] == 0
    (store.history_dir / "01").mkdir()
    assert store.history_ids() == [1]
    code, out, err = run(capsys, "--root", str(store.root), "history")
    assert code == 0, out + err
    assert [line.split("\t")[0] for line in out.splitlines()] == ["1"]
    assert store.prune_history(0) == [1]
    assert [p.name for p in store.history_dir.iterdir()] == ["01"]


def test_a_stray_file_in_history_is_no_record(setup, capsys):
    store, repo = setup
    baseline = store.tree_hash()
    assert run(capsys, "--root", str(store.root), "--repo", str(repo),
               "apply", "install aterm")[0] == 0
    (store.history_dir / "7").write_bytes(b"stray\n")
    code, out, err = run(capsys, "--root", str(store.root), "history")
    assert code == 0, out + err
    assert [line.split("\t")[0] for line in out.splitlines()] == ["1"]
    code, out, err = run(capsys, "--root", str(store.root), "rollback", "1")
    assert code == 0, out + err
    assert store.tree_hash() == baseline
    assert store.prune_history(0) == [2]
    assert (store.history_dir / "7").read_bytes() == b"stray\n"


def test_a_stray_file_at_the_next_record_name_is_named(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install libafterimage0")[0] == 0
    (store.history_dir / "2").write_bytes(b"stray\n")
    baseline, state = store.tree_hash(), _engine_state(store)
    message = "error: .pkgdb/history/2 is a stray non-record at the next record's name\n"
    assert run(capsys, *base, "apply", "install aterm") == (1, "", message)
    assert run(capsys, "--root", str(store.root), "rollback", "1") == (1, message, "")
    assert store.tree_hash() == baseline and _engine_state(store) == state
    assert not store.lock_path.exists()
    assert store.history_ids() == [1]


def test_history_empty_then_lists_records(setup, capsys):
    store, repo = setup
    code, out, _ = run(capsys, "--root", str(store.root), "history")
    assert code == 0 and "no history" in out
    assert run(capsys, "--root", str(store.root), "--repo", str(repo),
               "apply", "install aterm")[0] == 0
    code, out, _ = run(capsys, "--root", str(store.root), "history")
    assert code == 0
    assert out.startswith("1\t")
    assert "install aterm" in out
    code, out, _ = run(capsys, "--json", "--root", str(store.root), "history")
    records = json.loads(out)["records"]
    assert records[0]["id"] == 1 and records[0]["outcome"] == "success"


# --- merge-config / lint-script ---------------------------------------------------


def test_merge_config_clean_and_conflict(tmp_path, capsys):
    base = tmp_path / "base"
    local = tmp_path / "local"
    incoming = tmp_path / "incoming"
    out_file = tmp_path / "merged"
    base.write_bytes(b"a\nb\nc\n")
    local.write_bytes(b"A\nb\nc\n")
    incoming.write_bytes(b"a\nb\nC\n")
    code, _, err = run(capsys, "merge-config", str(base), str(local), str(incoming),
                       "-o", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == b"A\nb\nC\n"
    assert "merge: merged" in err
    local.write_bytes(b"x\nb\nc\n")
    incoming.write_bytes(b"y\nb\nc\n")
    code, _, err = run(capsys, "merge-config", str(base), str(local), str(incoming),
                       "-o", str(out_file))
    assert code == 1
    assert "merge: conflict" in err
    assert b"<<<<<<< local" in out_file.read_bytes()


def test_merge_config_keyvalue_mode(tmp_path, capsys):
    base = tmp_path / "base"
    local = tmp_path / "local"
    incoming = tmp_path / "incoming"
    base.write_bytes(b"a=1\nb=2\n")
    local.write_bytes(b"b=2\na=1\n")
    incoming.write_bytes(b"a=9\nb=2\n")
    code, out, _ = run(capsys, "merge-config", str(base), str(local), str(incoming),
                       "--syntax", "keyvalue")
    assert code == 0
    assert "a=9" in out



def test_merge_config_missing_output_directory_exits_two(tmp_path, capsys):
    inputs = []
    for name in ("base", "local", "incoming"):
        (tmp_path / name).write_bytes(b"a\n")
        inputs.append(str(tmp_path / name))
    out_file = tmp_path / "nodir" / "out"
    code, out, err = run(capsys, "merge-config", *inputs, "-o", str(out_file))
    assert code == 2
    assert err.startswith("error: ") and str(out_file) in err
    assert "Traceback" not in out + err
    assert not out_file.parent.exists()

def test_lint_script_classifies(tmp_path, capsys):
    script = tmp_path / "postinst"
    script.write_text("mkdir var/cache/app\nupdate-cache var/cache/app/idx usr/share/*\n")
    code, out, _ = run(capsys, "lint-script", str(script))
    assert code == 0
    assert "class: cache-updater" in out
    script.write_text("append etc/motd hi\n")
    code, out, _ = run(capsys, "lint-script", str(script))
    assert code == 0
    assert "class: general" in out


def test_lint_script_syntax_error_exits_two(tmp_path, capsys):
    script = tmp_path / "bad"
    script.write_text("explode everything\n")
    code, _, err = run(capsys, "lint-script", str(script))
    assert code == 2
    assert "unknown primitive" in err


# --- configuration validation ---------------------------------------------------------


def test_root_and_repo_must_be_distinct(tmp_path, capsys):
    d = tmp_path / "same"
    d.mkdir()
    (d / "Packages").write_text("")
    code, _, err = run(capsys, "--root", str(d), "--repo", str(d), "check")
    assert code == 2
    assert "distinct" in err


def test_missing_root_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "--root", str(tmp_path / "nope"), "history")
    assert code == 2


def test_preserve_flag_reaches_rollback(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo), "--preserve", "usr/bin/*"]
    assert run(capsys, *base, "apply", "install aterm")[0] == 0
    code, out, _ = run(capsys, *base, "rollback", "1")
    assert code == 0
    assert "preserved (not restored): usr/bin/aterm" in out
    assert store.state("usr/bin/aterm")[0] == "file"  # skipped on restore per the glob


@pytest.mark.parametrize("failing_preinst", [False, True])
def test_apply_sharing_a_path_exits_four_before_the_transaction(tmp_path, capsys,
                                                                failing_preinst):
    # a preinst that would fail first does not matter: the overlap is found
    # before any script runs
    meta = ("Package: a\nVersion: 1\nFiles: usr/f\n\n"
            "Package: b\nVersion: 1\nFiles: usr/f\n"
            + ("Preinst: hooks/preinst\n" if failing_preinst else ""))
    repo = support.write_repo(tmp_path / "repo", meta, {
        "a_1": {"usr/f": b"a\n"},
        "b_1": {"usr/f": b"b\n", "hooks/preinst": b"fail broken preinst\n"},
    })
    store = support.new_store(tmp_path)
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install a")[0] == 0
    db = store.root / ".pkgdb"
    before = (store.tree_hash(), store.status_bytes(), (db / "serial").read_bytes())
    code, out, _ = run(capsys, *base, "--json", "apply", "install b")
    assert code == 4
    report = json.loads(out)
    assert report["result"] == "io-failure"
    assert report["failing"] == "path 'usr/f' owned by both a 1 and b 1"
    assert (store.tree_hash(), store.status_bytes(), (db / "serial").read_bytes()) == before
    assert not store.lock_path.exists()
    assert store.history_ids() == [1]
    assert run(capsys, *base, "solve", "install a")[0] == 0  # the root still loads


def test_corrupt_serial_apply_reports_error_without_traceback(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install aterm")[0] == 0
    for serial in (b"garbage", b"\xff\xfe"):
        (store.lock_path.parent / "serial").write_bytes(serial)
        code, out, err = run(capsys, *base, "apply", "remove aterm")
        assert code == 1
        assert err.startswith("error: ") and ".pkgdb/serial" in err
        assert "Traceback" not in out + err
        assert not store.lock_path.exists()


@pytest.mark.parametrize("name", ["serial"])
def test_undecodable_counter_rollback_reports_error(setup, capsys, name):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install aterm")[0] == 0
    (store.lock_path.parent / name).write_bytes(b"\xff\xfe 1\n")
    before = store.tree_hash()
    code, out, err = run(capsys, "--root", str(store.root), "rollback", "1")
    assert code == 1
    assert out.startswith("error: ") and f".pkgdb/{name}" in out
    assert "Traceback" not in out + err
    assert store.tree_hash() == before and store.history_ids() == [1]


# --- input that is not UTF-8 ---------------------------------------------------------


@pytest.mark.parametrize("command,target", [
    ("check", "Packages"), ("solve", "Packages"), ("apply", "Packages"),
    ("solve", "status"), ("apply", "status"),
])
def test_non_utf8_input_file_exits_two(setup, capsys, command, target):
    store, repo = setup
    if target == "Packages":
        path = repo / "Packages"
        path.write_bytes(support.ATERM_META.replace("aterm-team", "caf\xe9").encode("latin-1"))
    else:
        path = store.status_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"Package: libafterimage0\nVersion: 2.2.8-2\xff\n")
    baseline = store.tree_hash()
    argv = ["--root", str(store.root), "--repo", str(repo), command]
    code, out, err = run(capsys, *argv, *(["install aterm"] if command != "check" else []))
    assert code == 2
    assert err.startswith("error: ") and str(path) in err and "not UTF-8" in err
    assert "Traceback" not in out + err
    assert store.tree_hash() == baseline and store.history_ids() == []


def test_lint_script_non_utf8_exits_two(tmp_path, capsys):
    script = tmp_path / "postinst"
    script.write_bytes(b"append etc/motd caf\xe9\n")
    code, _, err = run(capsys, "lint-script", str(script))
    assert code == 2
    assert err.startswith("error: ") and "not UTF-8" in err


def test_apply_non_utf8_hook_script_is_an_io_failure(setup, capsys):
    store, repo = setup
    u = parse_universe(support.ATERM_META)
    payload = payload_dir(repo, u.get(PackageId("aterm", Version("1.0.1-4"))))
    (payload / "hooks/postinst").write_bytes(b"append etc/motd caf\xe9\n")
    baseline = store.tree_hash()
    code, out, _ = run(capsys, "--json", "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 4
    record = json.loads(out)
    assert record["result"] == "io-failure"
    assert "hooks/postinst" in record["failing"] and "not UTF-8" in record["failing"]
    assert store.tree_hash() == baseline and store.history_ids() == []
    assert not store.lock_path.exists()



def test_apply_non_utf8_user_db_is_a_script_failure(setup, capsys):
    store, repo = setup
    u = parse_universe(support.ATERM_META)
    payload = payload_dir(repo, u.get(PackageId("aterm", Version("1.0.1-4"))))
    (payload / "hooks/postinst").write_bytes(b"adduser alice\n")
    (store.root / "etc").mkdir()
    (store.root / "etc/users.db").write_bytes(b"caf\xe9\n")
    baseline = store.tree_hash()
    code, out, _ = run(capsys, "--json", "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 3
    record = json.loads(out)
    assert record["result"] == "script-failure"
    assert "etc/users.db" in record["failing"] and "not UTF-8" in record["failing"]
    assert store.tree_hash() == baseline and store.history_ids() == [1]
    assert store.read_history(1).meta["outcome"] == "aborted"
    assert not store.lock_path.exists()

def test_locked_store_apply_exits_four(setup, capsys):
    store, repo = setup
    store.begin()  # leave a transaction open
    code, _, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 4
    assert "already open" in err


def _conffile_root(tmp_path, capsys):
    """A root with ``a 1`` and its conffile installed, and a repository offering ``a 2``."""
    meta = ("Package: a\nVersion: 1\nFiles: etc/a.conf\nConffiles: etc/a.conf\n\n"
            "Package: a\nVersion: 2\nConflicts: a (<< 2)\nFiles: etc/a.conf\n"
            "Conffiles: etc/a.conf\n")
    repo = support.write_repo(tmp_path / "repo", meta, {
        "a_1": {"etc/a.conf": b"k=1\n"},
        "a_2": {"etc/a.conf": b"k=2\n"},
    })
    store = support.new_store(tmp_path)
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install a (= 1)")[0] == 0
    return store, base


def test_apply_missing_pristine_object_is_an_io_failure(tmp_path, capsys):
    store, base = _conffile_root(tmp_path, capsys)
    (store.root / "etc/a.conf").write_bytes(b"k=1\nlocal=yes\n")
    for obj in (store.root / ".pkgdb" / "pristine" / "objects").iterdir():
        obj.unlink()
    baseline, status = store.tree_hash(), store.status_bytes()
    code, out, err = run(capsys, *base, "apply", "upgrade a (>= 2)")
    assert code == 4
    assert "failed (io-failure): unpack a 2: pristine object " in out
    assert "Traceback" not in out + err
    assert store.tree_hash() == baseline and store.status_bytes() == status
    assert not store.lock_path.exists()


def test_upgrade_over_a_directory_in_place_of_a_conffile_is_an_io_failure(tmp_path, capsys):
    """A directory reads with None content, which is no local deletion."""
    store, base = _conffile_root(tmp_path, capsys)
    (store.root / "etc/a.conf").unlink()
    (store.root / "etc/a.conf").mkdir()
    (store.root / "etc/a.conf/local").write_bytes(b"mine\n")
    baseline, status = store.tree_hash(), store.status_bytes()
    code, out, err = run(capsys, *base, "apply", "upgrade a (>= 2)")
    assert code == 4
    assert "failed (io-failure): unpack a 2: 'etc/a.conf' is a directory" in out
    assert "Traceback" not in out + err
    assert store.tree_hash() == baseline and store.status_bytes() == status
    assert not store.lock_path.exists()


def _engine_state(store):
    db = store.root / ".pkgdb"
    return {str(p.relative_to(db)): p.read_bytes() for p in sorted(db.rglob("*")) if p.is_file()}


def test_apply_with_an_unparseable_pristine_index_is_an_io_failure(tmp_path, capsys):
    store, base = _conffile_root(tmp_path, capsys)
    (store.root / ".pkgdb" / "pristine" / "index").write_bytes(b"{not json\n")
    baseline, status = store.tree_hash(), store.status_bytes()
    code, out, err = run(capsys, *base, "apply", "upgrade a (>= 2)")
    assert code == 4
    assert "failed (io-failure): unpack a 2: pristine index unreadable" in out
    assert "Traceback" not in out + err
    assert store.tree_hash() == baseline and store.status_bytes() == status
    assert not store.lock_path.exists()


def _counting_conffile_root(tmp_path, capsys, monkeypatch):
    """A root, the arguments naming it and a repository offering ``a``, ``b`` and
    ``c`` at versions 1 and 2, each with two conffiles, and a function that runs
    a command and returns how often it loaded the pristine index."""
    names = ("a", "b", "c")
    meta = "\n".join(
        f"Package: {n}\nVersion: {v}\n" + (f"Conflicts: {n} (<< 2)\n" if v == 2 else "")
        + f"Files: etc/{n}/x.conf, etc/{n}/y.conf\nConffiles: etc/{n}/x.conf, etc/{n}/y.conf\n"
        for n in names for v in (1, 2))
    repo = support.write_repo(tmp_path / "repo", meta, {
        f"{n}_{v}": {f"etc/{n}/{f}.conf": f"{f}={v}\n".encode() for f in "xy"}
        for n in names for v in (1, 2)})
    store = support.new_store(tmp_path)
    loads = []
    real_load = Store.load
    monkeypatch.setattr(Store, "load",
                        lambda self, name: loads.append(name) or real_load(self, name))

    def index_loads(*argv):
        loads.clear()
        assert run(capsys, *argv)[0] == 0
        return loads.count("pristine/index")
    return store, ["--root", str(store.root), "--repo", str(repo)], index_loads


def test_a_fresh_install_reads_the_pristine_index_once(tmp_path, capsys, monkeypatch):
    _store, base, index_loads = _counting_conffile_root(tmp_path, capsys, monkeypatch)
    assert index_loads(*base, "apply", "install a (= 1), install b (= 1), install c (= 1)") == 1


def test_an_upgrade_and_its_rollback_read_the_pristine_index_once(tmp_path, capsys, monkeypatch):
    store, base, index_loads = _counting_conffile_root(tmp_path, capsys, monkeypatch)
    index_loads(*base, "apply", "install a (= 1), install b (= 1), install c (= 1)")
    (store.root / "etc/a/x.conf").write_bytes(b"x=1\nlocal=yes\n")  # merged with its base
    assert index_loads(*base, "apply", "upgrade a (>= 2), upgrade b (>= 2)") == 1
    assert store.read("etc/a/x.conf.pkgnew") == b"x=2\n" and store.read("etc/b/y.conf") == b"y=2\n"
    assert index_loads("--root", str(store.root), "rollback", "2") == 1


def test_rollback_with_an_unparseable_pristine_index_touches_nothing(tmp_path, capsys):
    store, _base = _conffile_root(tmp_path, capsys)
    (store.root / ".pkgdb" / "pristine" / "index").write_bytes(b"{not json\n")
    baseline, state = store.tree_hash(), _engine_state(store)
    code, out, err = run(capsys, "--root", str(store.root), "rollback", "1")
    assert code == 1
    assert out.startswith("error: ") and ".pkgdb/pristine/index" in out
    assert "Traceback" not in out + err
    assert store.tree_hash() == baseline and _engine_state(store) == state


def test_apply_with_a_pristine_record_without_txn_is_an_io_failure(tmp_path, capsys):
    store, base = _conffile_root(tmp_path, capsys)
    index = store.root / ".pkgdb" / "pristine" / "index"
    (record,) = map(json.loads, index.read_text().splitlines())
    del record["txn"]
    index.write_text(json.dumps(record) + "\n")
    baseline, status = store.tree_hash(), store.status_bytes()
    code, out, err = run(capsys, *base, "apply", "upgrade a (>= 2)")
    assert code == 4
    assert ("failed (io-failure): unpack a 2: pristine index unreadable: a record needs "
            "pkg, path and sha strings and a txn int") in out
    assert "Traceback" not in out + err
    assert store.tree_hash() == baseline and store.status_bytes() == status
    assert not store.lock_path.exists()


_ENTRY = journal_dump([JournalEntry("etc/a.conf", ("file", b"k=0\n", 0o100644))])


@pytest.mark.parametrize("journal, message", [
    (_ENTRY[:-1], "truncated journal record"),
    # the path's first byte follows the 6-byte header and the 4-byte path length
    (_ENTRY[:10] + b"\xff" + _ENTRY[11:],
     "unreadable journal: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    (None, "history record 1 incomplete: no journal"),
], ids=["truncated", "not-utf8", "no-journal"])
def test_rollback_over_a_damaged_record_touches_nothing(tmp_path, capsys, journal, message):
    store, _base = _conffile_root(tmp_path, capsys)
    record = store.history_dir / "1"
    if journal is None:
        (record / "journal").unlink()
    else:
        (record / "journal").write_bytes(journal)
    baseline, state = store.tree_hash(), _engine_state(store)
    code, out, err = run(capsys, "--root", str(store.root), "rollback", "1")
    assert (code, out, err) == (1, f"error: {message}\n", "")
    assert store.tree_hash() == baseline and _engine_state(store) == state
    assert not store.lock_path.exists()


def test_rollback_whose_pristine_index_cannot_be_written_is_an_io_failure(tmp_path, capsys,
                                                                          monkeypatch):
    store, base = _conffile_root(tmp_path, capsys)
    assert run(capsys, *base, "apply", "upgrade a (>= 2)")[0] == 0
    before = (store.tree_hash(), store.status_bytes(), store.load("pristine/index"))
    real_save, failed = Store.save, []

    def save(self, name, data):
        if name == "pristine/index" and not failed:
            failed.append(name)
            raise OSError(errno.ENOSPC, "No space left on device", name)
        real_save(self, name, data)

    monkeypatch.setattr(Store, "save", save)
    code, out, err = run(capsys, "--root", str(store.root), "rollback", "2")
    assert code == 4 and failed, out + err
    assert out.startswith("error: ") and "Traceback" not in out + err
    assert (store.tree_hash(), store.status_bytes(), store.load("pristine/index")) == before
    assert store.history_ids() == [1, 2, 3] and not store.lock_path.exists()
    assert store.read_history(3).meta["outcome"] == "aborted"
