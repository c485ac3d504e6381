"""Plan construction, retrieval, atomic execution, and dry-run rendering."""

import json

import pytest

from txpkg.cli import main
from txpkg.planner import (
    MissingPayload,
    Outcome,
    ResolutionFailure,
    execute_plan,
    payload_dir,
    plan,
    retrieve,
    simulate,
)
from txpkg.preferences import parse_prefs
from txpkg.resolver import parse_request
from txpkg.universe import (
    PackageId,
    Status,
    Version,
    derive_owned,
    parse_universe,
    serialize_status,
)

import support

PREFS = parse_prefs("-removed,-changed,-new,-download")
ATERM = parse_universe(support.ATERM_META)
ATERM_ID = PackageId("aterm", Version("1.0.1-4"))
LIB_ID = PackageId("libafterimage0", Version("2.2.8-2"))


@pytest.fixture
def repo(tmp_path):
    return support.aterm_repo(tmp_path)


@pytest.fixture
def store(tmp_path):
    return support.new_store(tmp_path)


def _plan_install(request="install aterm", s0=Status()):
    return plan(ATERM, s0, parse_request(request), PREFS)


# --- plan ---------------------------------------------------------------------


def test_fixture_plan_summary_and_actions(repo):
    p = _plan_install()
    assert (len(p.diff.changed), len(p.diff.new), len(p.diff.removed)) == (0, 2, 0)
    assert p.diff.download_kb == 386
    retrieves = [a for a in p.actions if a.kind == "retrieve"]
    assert {a.pkg for a in retrieves} == {ATERM_ID, LIB_ID}
    assert p.actions.index(retrieves[0]) < min(
        i for i, a in enumerate(p.actions) if a.kind != "retrieve")


def test_dependency_configured_before_dependent(repo):
    p = _plan_install()
    order = [a.pkg for a in p.actions if a.kind == "postinst"]
    assert order.index(LIB_ID) < order.index(ATERM_ID)


def test_satisfied_request_yields_empty_plan():
    s0 = Status(frozenset({ATERM_ID, LIB_ID}))
    p = _plan_install(s0=s0)
    assert p.actions == ()
    assert (len(p.diff.changed), len(p.diff.new), len(p.diff.removed)) == (0, 0, 0)
    assert p.diff.download_kb == 0


def test_unsolvable_request_raises_resolution_failure():
    with pytest.raises(ResolutionFailure, match="no solution"):
        _plan_install("install ghost")


def test_per_package_action_order(repo):
    p = _plan_install()
    kinds = [(a.kind, a.pkg) for a in p.actions if a.pkg == ATERM_ID]
    assert kinds == [("retrieve", ATERM_ID), ("preinst", ATERM_ID),
                     ("unpack", ATERM_ID), ("postinst", ATERM_ID)]


def test_summary_matches_set_difference_oracle():
    import random as _random
    rng = _random.Random(47)
    checked = 0
    for _ in range(150):
        u = support.random_universe(rng, max_size=8)
        s0 = support.random_status(rng, u)
        r = support.random_request(rng, u)
        try:
            p = plan(u, s0, r, PREFS)
        except ResolutionFailure:
            continue
        checked += 1
        s = p.solution.status
        names0 = {pid.name: set(s0.versions_of(pid.name)) for pid in s0.installed}
        names_s = {pid.name: set(s.versions_of(pid.name)) for pid in s.installed}
        assert len(p.diff.removed) == sum(1 for n in names0 if n not in names_s)
        assert len(p.diff.new) == sum(1 for n in names_s if n not in names0)
        assert len(p.diff.changed) == sum(
            1 for n in names0 if n in names_s and names0[n] != names_s[n])
        assert p.diff.download_kb == sum(
            u.get(pid).size_kb for pid in s.installed - s0.installed)
    assert checked > 20


def test_dependency_cycles_break_deterministically():
    meta = ("Package: a\nVersion: 1\nDepends: b\n\n"
            "Package: b\nVersion: 1\nDepends: a\n")
    u = parse_universe(meta)
    p1 = plan(u, Status(), parse_request("install a"), PREFS)
    p2 = plan(u, Status(), parse_request("install a"), PREFS)
    order = [a.pkg.name for a in p1.actions if a.kind == "postinst"]
    # the smallest edge (a -> b) is dropped, freeing b to configure first
    assert order == ["b", "a"]
    assert p1.actions == p2.actions


# --- retrieve ------------------------------------------------------------------


def _tree_bytes(top):
    return {str(f.relative_to(top)): f.read_bytes() for f in sorted(top.rglob("*")) if f.is_file()}


def test_retrieve_stages_payload(repo, tmp_path):
    staging = tmp_path / "staging"
    staged = retrieve(ATERM.get(ATERM_ID), repo, staging)
    assert staged == staging / "aterm_1.0.1-4"
    first = _tree_bytes(staged)
    assert first == _tree_bytes(payload_dir(repo, ATERM.get(ATERM_ID)))
    assert retrieve(ATERM.get(ATERM_ID), repo, staging) == staged
    assert _tree_bytes(staged) == first  # idempotent


def test_retrieve_missing_payload_raises(tmp_path):
    with pytest.raises(MissingPayload, match="payload directory"):
        retrieve(ATERM.get(ATERM_ID), tmp_path / "empty-repo", tmp_path / "staging")


def test_retrieve_missing_manifest_file_raises(repo, tmp_path):
    (payload_dir(repo, ATERM.get(ATERM_ID)) / "usr/bin/aterm").unlink()
    with pytest.raises(MissingPayload, match="payload file"):
        retrieve(ATERM.get(ATERM_ID), repo, tmp_path / "staging")


# --- execute_plan -----------------------------------------------------------------


def test_apply_install_success(repo, store):
    p = _plan_install()
    out = execute_plan(p, store, repo)
    assert out.result == "success"
    assert out.history_id == 1
    assert store.read("usr/bin/aterm") == b"#!ELF aterm binary\n"
    assert store.read("etc/aterm/atermrc") == b"background=black\nforeground=white\n"
    # the postinst ran: cache dir and log exist
    assert store.read("var/cache/aterm/setup.log") == b"configured aterm 1.0.1-4\n"
    status = store.load_status(ATERM)
    assert status.installed == {ATERM_ID, LIB_ID}
    assert derive_owned(ATERM, status.installed)["usr/bin/aterm"] == ATERM_ID


def test_empty_plan_executes_without_transaction(repo, store):
    s0 = Status(frozenset({ATERM_ID, LIB_ID}))
    out = execute_plan(plan(ATERM, s0, parse_request("install aterm"), PREFS), store, repo)
    assert out.result == "success"
    assert out.history_id is None
    assert out.notes == ("nothing to do",)
    assert store.history_ids() == []


def test_script_failure_rolls_back_everything(repo, store):
    payload = payload_dir(repo, ATERM.get(ATERM_ID))
    (payload / "hooks/postinst").write_bytes(b"append etc/half.done started\nfail boom\n")
    baseline = store.tree_hash()
    status_before = store.status_bytes()
    out = execute_plan(_plan_install(), store, repo)
    assert out.result == "script-failure"
    assert "boom" in out.failing
    assert store.tree_hash() == baseline
    assert store.status_bytes() == status_before
    assert store.history_ids() == [1]
    assert store.read_history(1).meta["outcome"] == "aborted"
    assert store.read_history(1).entries == []  # everything was put back


def test_missing_payload_aborts_before_any_mutation(repo, store):
    import shutil
    shutil.rmtree(payload_dir(repo, ATERM.get(LIB_ID)))
    baseline = store.tree_hash()
    out = execute_plan(_plan_install(), store, repo)
    assert out.result == "io-failure"
    assert "payload" in out.failing
    assert store.tree_hash() == baseline
    assert not store.lock_path.exists()


@pytest.mark.parametrize("rel, message", [
    ("usr/bin/aterm", "aterm 1.0.1-4: payload file 'usr/bin/aterm' missing"),
    ("hooks/postinst", "aterm 1.0.1-4: payload file 'hooks/postinst' missing"),
])
def test_missing_payload_file_fails_before_the_transaction_opens(repo, store, rel, message):
    lib_only = plan(ATERM, Status(), parse_request("install libafterimage0"), PREFS)
    assert execute_plan(lib_only, store, repo).result == "success"
    serial = store.root / ".pkgdb/serial"
    serial_before = serial.read_bytes()
    (payload_dir(repo, ATERM.get(ATERM_ID)) / rel).unlink()
    baseline = store.tree_hash()
    p = plan(ATERM, store.load_status(ATERM), parse_request("install aterm"), PREFS)
    assert execute_plan(p, store, repo) == Outcome("io-failure", failing=message)
    assert serial.read_bytes() == serial_before  # no transaction was opened
    assert store.tree_hash() == baseline
    assert store.history_ids() == [1]


def test_payload_that_vanishes_during_apply_is_an_io_failure(repo, store, tmp_path):
    p = _plan_install()
    events = []
    execute_plan(p, support.copy_store(store, tmp_path / "probe"), repo,
                 io_fault=events.append)
    assert len(events) == 3
    payloads = {str(pid): payload_dir(repo, ATERM.get(pid)) for pid in (ATERM_ID, LIB_ID)}
    baseline, status_before = store.tree_hash(), store.status_bytes()
    for position, event in enumerate(events):
        target = support.copy_store(store, tmp_path / f"case{position}")

        def vanish(seen, at=event):
            if seen == at:  # the file about to be unpacked leaves the repository
                _, pid, rel = seen.split(":", 2)
                (payloads[pid] / rel).unlink()

        out = execute_plan(p, target, repo, io_fault=vanish)
        assert out.result == "io-failure"
        assert out.failing.startswith(f"unpack {event.split(':')[1]}: ")
        assert (target.tree_hash(), target.status_bytes()) == (baseline, status_before)
        assert not target.lock_path.exists()
        assert target.history_ids() == [1]
        assert target.read_history(1).meta["outcome"] == "aborted"
        support.aterm_repo(tmp_path)  # put the payload back


def test_removal_runs_without_payload_when_no_removal_hooks(repo, store):
    out = execute_plan(_plan_install(), store, repo)
    assert out.result == "success"
    import shutil
    shutil.rmtree(payload_dir(repo, ATERM.get(ATERM_ID)))
    baseline = store.tree_hash()
    p = plan(ATERM, store.load_status(ATERM), parse_request("remove aterm"), PREFS)
    out = execute_plan(p, store, repo)
    # aterm declares only a postinst, which removals never run, so the
    # missing payload does not matter
    assert out.result == "success"
    assert store.tree_hash() != baseline


def test_missing_removal_hook_payload_aborts_before_any_mutation(tmp_path, store):
    meta = "Package: svc\nVersion: 1\nFiles: usr/svc\nPrerm: hooks/prerm\n"
    payloads = {"svc_1": {"usr/svc": b"svc", "hooks/prerm": b"append var/rm.log bye\n"}}
    repo = support.write_repo(tmp_path / "repo", meta, payloads)
    u = parse_universe(meta)
    out = execute_plan(plan(u, Status(), parse_request("install svc"), PREFS), store, repo)
    assert out.result == "success"
    import shutil
    shutil.rmtree(payload_dir(repo, u.by_name("svc")[0]))
    baseline = store.tree_hash()
    p = plan(u, store.load_status(u), parse_request("remove svc"), PREFS)
    out = execute_plan(p, store, repo)
    assert out.result == "io-failure"
    assert "payload" in out.failing
    assert store.tree_hash() == baseline


def test_io_fault_injection_is_atomic(repo, store, tmp_path):
    p = _plan_install()
    baseline = store.tree_hash()
    events = []
    execute_plan(p, support.copy_store(store, tmp_path / "probe"), repo,
                 io_fault=events.append)
    assert len(events) == 3  # three files unpack in this plan
    for position in range(len(events)):
        target = support.copy_store(store, tmp_path / f"case{position}")
        countdown = [position]

        def fault(_event):
            if countdown[0] == 0:
                raise OSError("injected disk failure")
            countdown[0] -= 1

        out = execute_plan(p, target, repo, io_fault=fault)
        assert out.result == "io-failure"
        assert "injected" in out.failing
        assert target.tree_hash() == baseline
        assert not target.lock_path.exists()


def test_removal_keeps_conffiles_unless_purged(repo, store, tmp_path):
    assert execute_plan(_plan_install(), store, repo).result == "success"
    p = plan(ATERM, store.load_status(ATERM), parse_request("remove aterm"), PREFS)
    removed = support.copy_store(store, tmp_path / "removed")
    out = execute_plan(p, removed, repo)
    assert out.result == "success"
    assert removed.state("usr/bin/aterm")[0] == "absent"
    assert removed.state("etc/aterm/atermrc")[0] == "file"  # conffile preserved
    assert removed.load_status(ATERM).installed == {LIB_ID}
    purged = support.copy_store(store, tmp_path / "purged")
    out = execute_plan(p, purged, repo, purge=True)
    assert out.result == "success"
    assert purged.state("etc/aterm/atermrc")[0] == "absent"


UPGRADE_PREFS = parse_prefs("-notuptodate,-removed,-changed,-new,-download")


def test_upgrade_flow_with_conffile_merge(tmp_path, store):
    # versions exclude each other, the usual packaging idiom
    meta = """\
Package: app
Version: 1
Size: 5
Files: usr/app/bin, usr/app/old-only, etc/app.conf
Conffiles: etc/app.conf
Conflicts: app (>> 1)

Package: app
Version: 2
Size: 6
Files: usr/app/bin, usr/app/new-only, etc/app.conf
Conffiles: etc/app.conf
Conflicts: app (<< 2)
"""
    payloads = {
        "app_1": {"usr/app/bin": b"v1", "usr/app/old-only": b"old",
                  "etc/app.conf": b"top\nmid\nbot\n"},
        "app_2": {"usr/app/bin": b"v2", "usr/app/new-only": b"new",
                  "etc/app.conf": b"top\nmid\nBOT\n"},
    }
    repo = support.write_repo(tmp_path / "repo", meta, payloads)
    u = parse_universe(meta)
    out = execute_plan(plan(u, Status(), parse_request("install app (= 1)"), PREFS),
                       store, repo)
    assert out.result == "success"
    # local edit in a different region than the upstream change
    (store.root / "etc/app.conf").write_bytes(b"TOP\nmid\nbot\n")
    p = plan(u, store.load_status(u), parse_request("upgrade app"), UPGRADE_PREFS)
    assert len(p.diff.changed) == 1 and len(p.diff.new) == 0
    out = execute_plan(p, store, repo)
    assert out.result == "success"
    assert out.conffile_conflicts == ()
    assert store.read("usr/app/bin") == b"v2"
    assert store.read("usr/app/new-only") == b"new"
    assert store.state("usr/app/old-only")[0] == "absent"
    assert store.read("etc/app.conf") == b"TOP\nmid\nBOT\n"  # both edits
    assert store.load_status(u).installed == {PackageId("app", Version("2"))}


def test_hooks_see_old_and_new_versions(tmp_path, store):
    # a prerm or postrm runs for the outgoing package, every other hook for the incoming
    meta = """\
Package: app
Version: 1
Files: usr/app/bin
Prerm: hooks/prerm
Conflicts: app (>> 1)

Package: app
Version: 2
Files: usr/app/bin
Preinst: hooks/preinst
Postinst: hooks/postinst
Prerm: hooks/prerm
Postrm: hooks/postrm
Conflicts: app (<< 2)
"""
    log = "append var/log/app.log"
    repo = support.write_repo(tmp_path / "repo", meta, {
        "app_1": {"usr/app/bin": b"v1", "hooks/prerm": f"{log} prerm $PKG $OLD $NEW\n".encode()},
        "app_2": {"usr/app/bin": b"v2"} | {
            f"hooks/{hook}": f"{log} {hook} $PKG $OLD{tail}\n".encode()
            for hook, tail in (("preinst", " $NEW"), ("postinst", " $NEW"),
                               ("prerm", ""), ("postrm", ""))},
    })
    u = parse_universe(meta)
    assert execute_plan(plan(u, Status(), parse_request("install app (= 1)"), PREFS),
                        store, repo).result == "success"
    assert store.state("var/log/app.log")[0] == "absent"  # app 1 has no install hooks
    p = plan(u, store.load_status(u), parse_request("upgrade app"), UPGRADE_PREFS)
    assert execute_plan(p, store, repo).result == "success"
    assert store.read("var/log/app.log") == b"prerm app 1 2\npreinst app 1 2\npostinst app 1 2\n"
    p = plan(u, store.load_status(u), parse_request("remove app"), PREFS)
    assert execute_plan(p, store, repo).result == "success"
    assert store.read("var/log/app.log").endswith(b"postinst app 1 2\nprerm app 2\npostrm app 2\n")


def test_conffile_conflict_reported_but_plan_succeeds(tmp_path, store):
    meta = """\
Package: app
Version: 1
Files: etc/app.conf
Conffiles: etc/app.conf
Conflicts: app (>> 1)

Package: app
Version: 2
Files: etc/app.conf
Conffiles: etc/app.conf
Conflicts: app (<< 2)
"""
    payloads = {
        "app_1": {"etc/app.conf": b"value=1\n"},
        "app_2": {"etc/app.conf": b"value=2\n"},
    }
    repo = support.write_repo(tmp_path / "repo", meta, payloads)
    u = parse_universe(meta)
    execute_plan(plan(u, Status(), parse_request("install app (= 1)"), PREFS), store, repo)
    (store.root / "etc/app.conf").write_bytes(b"value=mine\n")
    out = execute_plan(
        plan(u, store.load_status(u), parse_request("upgrade app"), UPGRADE_PREFS),
        store, repo)
    assert out.result == "success"
    assert out.conffile_conflicts == ("etc/app.conf",)
    assert store.read("etc/app.conf") == b"value=mine\n"
    assert store.read("etc/app.conf.pkgnew") == b"value=2\n"


def test_path_ownership_conflict_fails_atomically(tmp_path, store):
    meta = ("Package: one\nVersion: 1\nFiles: usr/shared\n\n"
            "Package: two\nVersion: 1\nFiles: usr/shared\n")
    payloads = {"one_1": {"usr/shared": b"1"}, "two_1": {"usr/shared": b"2"}}
    repo = support.write_repo(tmp_path / "repo", meta, payloads)
    u = parse_universe(meta)
    baseline = store.tree_hash()
    p = plan(u, Status(), parse_request("install one, install two"), PREFS)
    out = execute_plan(p, store, repo)
    assert out.result == "io-failure"
    assert "owned by" in out.failing
    assert store.tree_hash() == baseline


SHARED_META = ("Package: a\nVersion: 1\nFiles: usr/f\n\n"
               "Package: b\nVersion: 1\nFiles: usr/f\n")


@pytest.mark.parametrize("hand_made", [False, True])
def test_shared_path_is_refused_before_the_transaction_opens(tmp_path, store, hand_made):
    # a 1 is installed and b 1 ships its path: equal statuses plan alike
    repo = support.write_repo(tmp_path / "repo", SHARED_META,
                              {"a_1": {"usr/f": b"a\n"}, "b_1": {"usr/f": b"b\n"}})
    u = parse_universe(SHARED_META)
    assert execute_plan(plan(u, Status(), parse_request("install a"), PREFS),
                        store, repo).result == "success"
    db = store.root / ".pkgdb"
    before = (store.tree_hash(), store.status_bytes(), (db / "serial").read_bytes())
    s0 = store.load_status(u)
    if hand_made:
        s0 = Status(s0.installed)
    out = execute_plan(plan(u, s0, parse_request("install b"), PREFS), store, repo)
    assert out == Outcome("io-failure", failing="path 'usr/f' owned by both a 1 and b 1")
    assert (store.tree_hash(), store.status_bytes(), (db / "serial").read_bytes()) == before
    assert not store.lock_path.exists()
    assert store.history_ids() == [1]
    assert store.load_status(u) == s0


@pytest.mark.parametrize("purge,hand_made", [(False, False), (True, False), (False, True),
                                             (True, True)],
                         ids=["False", "True", "False-hand-made", "True-hand-made"])
def test_path_handed_over_in_one_plan_keeps_new_owners_bytes(tmp_path, store, purge,
                                                             hand_made):
    # q takes usr/f over from x 1 before x's block removes the files x 2 drops
    meta = ("Package: x\nVersion: 1\nFiles: usr/f, usr/x1\n\n"
            "Package: x\nVersion: 2\nConflicts: x (<< 2)\nFiles: usr/x2\n\n"
            "Package: q\nVersion: 1\nFiles: usr/f\n")
    payloads = {"x_1": {"usr/f": b"x1 f\n", "usr/x1": b"x1\n"}, "x_2": {"usr/x2": b"x2\n"},
                "q_1": {"usr/f": b"q f\n"}}
    repo = support.write_repo(tmp_path / "repo", meta, payloads)
    u = parse_universe(meta)
    first = execute_plan(plan(u, Status(), parse_request("install x (= 1)"), PREFS), store, repo)
    assert first.result == "success"
    (store.root / "usr/f.pkgnew").write_bytes(b"parked\n")
    baseline = store.tree_hash()
    s0 = store.load_status(u)
    if hand_made:
        s0 = Status(s0.installed)
    p = plan(u, s0, parse_request("install q, upgrade x (>= 2)"), PREFS)
    out = execute_plan(p, store, repo, purge=purge)
    assert out.result == "success"
    assert store.read("usr/f") == b"q f\n"
    assert store.read("usr/f.pkgnew") == b"parked\n"
    assert not (store.root / "usr/x1").exists()
    owners = derive_owned(u, store.load_status(u).installed)
    assert owners["usr/f"] == PackageId("q", Version("1"))
    store.rollback_to(out.history_id)
    assert store.tree_hash() == baseline


# --- simulate -----------------------------------------------------------------------


def test_simulate_fixture_transcript(repo):
    text = simulate(_plan_install())
    assert "2 newly installed" in text
    assert "386kB" in text
    assert "libafterimage0" in text.split("extra packages will be installed:")[1]


def test_simulate_empty_plan(repo):
    s0 = Status(frozenset({ATERM_ID, LIB_ID}))
    assert simulate(_plan_install(s0=s0)) == "nothing to do\n"


def test_simulate_removals_listed_before_installs(tmp_path):
    meta = ("Package: gone\nVersion: 1\nFiles: usr/gone\n\n"
            "Package: fresh\nVersion: 1\nFiles: usr/fresh\n")
    u = parse_universe(meta)
    s0 = Status(frozenset({PackageId("gone", Version("1"))}))
    p = plan(u, s0, parse_request("remove gone, install fresh"), PREFS)
    text = simulate(p)
    assert text.index("REMOVED") < text.index("NEW packages")
    assert "1 upgraded" not in text
    assert "1 newly installed" in text and "1 to remove" in text


MIXED_META = """\
Package: app
Version: 1
Size: 5

Package: app
Version: 2
Size: 7
Conflicts: app (<< 2), old

Package: old
Version: 1
Size: 3

Package: tool
Version: 1
Size: 11
Depends: helper

Package: helper
Version: 1
Size: 13
"""

MIXED_TRANSCRIPT = """\
The following packages will be REMOVED:
  old
The following packages will be upgraded:
  app
The following extra packages will be installed:
  helper
The following NEW packages will be installed:
  helper tool
1 upgraded, 2 newly installed, 1 to remove.
Need to get 31kB of archives.
"""


def test_simulate_and_solve_json_pin_every_section(tmp_path, capsys):
    # one plan with a forced removal, a version change, a requested new
    # package and an extra new one: every transcript section and count
    u = parse_universe(MIXED_META)
    s0 = Status(frozenset({PackageId("app", Version("1")), PackageId("old", Version("1"))}))
    request = "upgrade app (>= 2), install tool"
    assert simulate(plan(u, s0, parse_request(request), PREFS)) == MIXED_TRANSCRIPT

    repo = support.write_repo(tmp_path / "repo", MIXED_META, {})
    store = support.new_store(tmp_path)
    store.save("status", serialize_status(s0).encode())
    code = main(["--root", str(store.root), "--repo", str(repo), "--json", "solve", request])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "result": "plan",
        "summary": {"upgraded": 1, "new": 2, "removed": 1, "download_kb": 31},
        "transcript": MIXED_TRANSCRIPT,
    }
