"""Command line contract: subcommands, exit codes, reports."""

import json

import pytest

from txpkg.cli import main
from txpkg.planner import payload_dir
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
    assert store.exists("usr/bin/aterm")  # skipped on restore per the glob


def test_corrupt_serial_apply_reports_error_without_traceback(setup, capsys):
    store, repo = setup
    base = ["--root", str(store.root), "--repo", str(repo)]
    assert run(capsys, *base, "apply", "install aterm")[0] == 0
    (store.lock_path.parent / "serial").write_text("garbage")
    code, out, err = run(capsys, *base, "apply", "remove aterm")
    assert code == 1
    assert err.startswith("error: ") and ".pkgdb/serial" in err
    assert "Traceback" not in out + err
    assert not store.lock_path.exists()


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


def test_locked_store_apply_exits_four(setup, capsys):
    store, repo = setup
    store.begin()  # leave a transaction open
    code, _, err = run(capsys, "--root", str(store.root), "--repo", str(repo),
                       "apply", "install aterm")
    assert code == 4
    assert "already open" in err
