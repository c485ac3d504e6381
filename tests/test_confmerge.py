"""Three-way merge, structured key=value merge, and pristine conffile tracking."""

import errno
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpkg.confmerge import (
    ConfmergeError,
    PristineStore,
    merge3,
    structured_merge,
    upgrade_conffile,
)
from txpkg.txn import Store
from txpkg.universe import PackageId, parse_universe

import support


# --- merge3 ---------------------------------------------------------------------


def test_one_sided_change_takes_incoming():
    base = b"a\nb\nc\n"
    incoming = b"a\nB\nc\n"
    out = merge3(base, base, incoming)
    assert out.kind == "took-new" and out.content == incoming


def test_one_sided_change_keeps_local():
    base = b"a\nb\nc\n"
    local = b"a\nx\nc\n"
    out = merge3(base, local, base)
    assert out.kind == "kept-local" and out.content == local


def test_disjoint_edits_merge_cleanly():
    base = b"top\nmiddle\nbottom\n"
    local = b"TOP\nmiddle\nbottom\n"
    incoming = b"top\nmiddle\nBOTTOM\n"
    out = merge3(base, local, incoming)
    assert out.kind == "merged"
    assert out.content == b"TOP\nmiddle\nBOTTOM\n"
    assert out.conflict_hunks == ()


def test_same_change_on_both_sides_is_clean():
    base = b"a\nb\n"
    both = b"a\nc\n"
    out = merge3(base, both, both)
    assert out.kind == "merged" and out.content == both


def test_overlapping_edits_conflict_with_markers():
    base = b"line\n"
    out = merge3(base, b"local line\n", b"incoming line\n")
    assert out.kind == "conflict"
    assert len(out.conflict_hunks) == 1
    assert out.conflict_hunks[0] == (b"line\n", b"local line\n", b"incoming line\n")
    assert b"<<<<<<< local\n" in out.content and b">>>>>>> incoming\n" in out.content


def test_binary_input_is_whole_file_conflict():
    out = merge3(b"\x00bin", b"\x00bin2", b"\x00bin3")
    assert out.kind == "conflict"


def test_additions_at_both_ends_merge():
    base = b"core\n"
    local = b"prefix\ncore\n"
    incoming = b"core\nsuffix\n"
    out = merge3(base, local, incoming)
    assert out.kind == "merged"
    assert out.content == b"prefix\ncore\nsuffix\n"


_texts = st.lists(st.sampled_from([b"a\n", b"b\n", b"c\n", b"d\n"]), max_size=4).map(b"".join)


@settings(max_examples=200)
@given(_texts, _texts, _texts)
def test_merge3_one_sided_identities(b, l, i):
    took = merge3(b, b, i)
    assert took.content == i
    if i != b:
        assert took.kind == "took-new"
    kept = merge3(b, l, b)
    assert kept.content == l
    if l != b:
        assert kept.kind == "kept-local"


@settings(max_examples=200)
@given(_texts, _texts, _texts)
def test_merge3_conflict_symmetry(b, l, i):
    assert (merge3(b, l, i).kind == "conflict") == (merge3(b, i, l).kind == "conflict")


def test_single_line_substitution_oracle():
    # independent oracle: over bases of distinct lines (unambiguous
    # alignment), two single-line substitutions merge to base with both
    # applied when separated by at least one untouched line, and collide
    # when adjacent
    rng = random.Random(13)
    alphabet = [b"p\n", b"q\n", b"r\n", b"s\n", b"t\n", b"u\n", b"v\n"]
    for _ in range(300):
        n = rng.randint(3, len(alphabet))
        base_lines = rng.sample(alphabet, k=n)
        li, ii = rng.sample(range(n), k=2)
        local_lines = list(base_lines)
        local_lines[li] = b"LOCAL\n"
        inc_lines = list(base_lines)
        inc_lines[ii] = b"INCOMING\n"
        expected = list(base_lines)
        expected[li] = b"LOCAL\n"
        expected[ii] = b"INCOMING\n"
        out = merge3(b"".join(base_lines), b"".join(local_lines), b"".join(inc_lines))
        if abs(li - ii) == 1:
            assert out.kind == "conflict"
        else:
            assert out.kind == "merged"
            assert out.content == b"".join(expected)


# --- structured merge --------------------------------------------------------------


def test_keyvalue_reorder_is_never_a_conflict():
    base = b"a=1\nb=2\n"
    local = b"b=2\na=1\n"          # same keys reordered locally
    incoming = b"a=1\nb=3\n"       # value changed upstream
    out = structured_merge(base, local, incoming, syntax="keyvalue")
    assert out.kind in ("merged", "took-new")
    assert out.content == b"a=1\nb=3\n"


def test_keyvalue_same_key_both_sides_conflicts_only_there():
    base = b"a=1\nb=2\n"
    local = b"a=local\nb=2\nc=3\n"
    incoming = b"a=incoming\nb=2\nd=4\n"
    out = structured_merge(base, local, incoming, syntax="keyvalue")
    assert out.kind == "conflict"
    assert len(out.conflict_hunks) == 1
    assert out.conflict_hunks[0] == (b"a=1\n", b"a=local\n", b"a=incoming\n")
    # the other keys merged fine around the conflict block
    assert b"c=3\n" in out.content and b"d=4\n" in out.content


def test_keyvalue_disjoint_additions_union():
    out = structured_merge(b"", b"x=1\n", b"y=2\n", syntax="keyvalue")
    assert out.kind == "merged"
    assert out.content == b"x=1\ny=2\n"


def test_keyvalue_deletion_one_side():
    base = b"a=1\nb=2\n"
    local = b"b=2\n"            # local deleted a
    incoming = b"a=1\nb=9\n"    # upstream changed b
    out = structured_merge(base, local, incoming, syntax="keyvalue")
    assert out.kind == "merged"
    assert out.content == b"b=9\n"


def test_keyvalue_parse_failure_falls_back_to_lines():
    out = structured_merge(b"not kv at all", b"not kv at all", b"x=1\n", syntax="keyvalue")
    assert out.fell_back
    assert out.content == b"x=1\n"


def test_keyvalue_permutation_invariance():
    rng = random.Random(31)
    keys = ["a", "b", "c", "d", "e"]
    for _ in range(80):
        def kv(r):
            chosen = [k for k in keys if r.random() < 0.7]
            return {k: str(r.randint(0, 3)) for k in chosen}

        b_map, l_map, i_map = kv(rng), kv(rng), kv(rng)

        def render(mapping, order):
            ks = list(mapping)
            order.shuffle(ks)
            return "".join(f"{k}={mapping[k]}\n" for k in ks).encode()

        shuffler = random.Random(rng.randint(0, 999))
        first = structured_merge(render(b_map, shuffler), render(l_map, shuffler),
                                 render(i_map, shuffler), syntax="keyvalue")
        second = structured_merge(render(b_map, shuffler), render(l_map, shuffler),
                                  render(i_map, shuffler), syntax="keyvalue")
        assert first.kind == second.kind
        assert first.content == second.content


def test_unknown_syntax_rejected():
    with pytest.raises(ValueError):
        structured_merge(b"", b"", b"", syntax="xml")


# --- pristine store and conffile upgrades ---------------------------------------------


CONF_META_V1 = """\
Package: app
Version: 1
Files: etc/app/main.conf
Conffiles: etc/app/main.conf
"""

CONF_META_V2 = CONF_META_V1 + """
Package: app
Version: 2
Files: etc/app/main.conf
Conffiles: etc/app/main.conf
"""


@pytest.fixture
def store(tmp_path):
    return support.new_store(tmp_path)


def _install_v1(store, content=b"a=1\nb=2\n"):
    u = parse_universe(CONF_META_V2)
    pkg1 = u.get(PackageId("app", __import__("txpkg").universe.Version("1")))
    txn = store.begin()
    out = upgrade_conffile(txn, pkg1, "etc/app/main.conf", content)
    assert out.kind == "took-new"
    txn.commit()
    return u


def test_unmodified_conffile_takes_incoming(store):
    u = _install_v1(store)
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    out = upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"a=1\nb=3\n")
    txn.commit()
    assert out.kind == "took-new"
    assert store.read("etc/app/main.conf") == b"a=1\nb=3\n"
    assert store.state("etc/app/main.conf.pkgnew")[0] == "absent"


def test_nonoverlapping_local_edit_merges(store):
    u = _install_v1(store, b"top\nmid\nbot\n")
    (store.root / "etc/app/main.conf").write_bytes(b"TOP\nmid\nbot\n")  # user edit
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    out = upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"top\nmid\nBOT\n")
    txn.commit()
    assert out.kind == "merged"
    assert store.read("etc/app/main.conf") == b"TOP\nmid\nBOT\n"
    assert store.state("etc/app/main.conf.pkgnew")[0] == "absent"


def test_overlapping_edit_surfaces_conflict_without_aborting(store):
    u = _install_v1(store, b"value=1\n")
    (store.root / "etc/app/main.conf").write_bytes(b"value=local\n")
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    out = upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"value=incoming\n")
    txn.commit()
    assert out.kind == "conflict"
    assert store.read("etc/app/main.conf") == b"value=local\n"   # local kept
    assert store.read("etc/app/main.conf.pkgnew") == b"value=incoming\n"


def test_locally_deleted_conffile_stays_deleted(store):
    u = _install_v1(store, b"x\n")
    (store.root / "etc/app/main.conf").unlink()
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    out = upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"new\n")
    txn.commit()
    assert out.kind == "kept-local"
    assert store.state("etc/app/main.conf")[0] == "absent"


def test_structured_hint_used_for_conffile(store):
    meta = """\
Package: app
Version: 1
Files: etc/app/main.conf
Conffiles: etc/app/main.conf

Package: app
Version: 2
Files: etc/app/main.conf
Conffiles: etc/app/main.conf
Conffile-Syntax: etc/app/main.conf=keyvalue
"""
    u = parse_universe(meta)
    pkg1, pkg2 = u.by_name("app")
    txn = store.begin()
    upgrade_conffile(txn, pkg1, "etc/app/main.conf", b"a=1\nb=2\n")
    txn.commit()
    # reorder locally; change a value upstream: keyvalue mode merges cleanly
    (store.root / "etc/app/main.conf").write_bytes(b"b=2\na=1\n")
    txn = store.begin()
    out = upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"a=9\nb=2\n")
    txn.commit()
    assert out.kind in ("merged", "took-new")
    assert store.read("etc/app/main.conf") == b"a=9\nb=2\n"


def test_local_modification_is_a_content_hash_compare(store):
    u = _install_v1(store, b"pristine\n")
    pkg2 = u.by_name("app")[1]
    path = store.root / "etc/app/main.conf"
    path.write_bytes(b"pristine\nextra\n")
    txn = store.begin()
    assert upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n").kind == "conflict"
    txn.rollback()
    path.write_bytes(b"pristine\n")  # reverted byte-exactly: unmodified again
    txn = store.begin()
    assert upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n").kind == "took-new"
    txn.rollback()


def test_unregistered_conffile_is_an_error(store):
    u = _install_v1(store, b"v1\n")
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    with pytest.raises(ConfmergeError, match="not a conffile"):
        upgrade_conffile(txn, pkg2, "etc/other", b"x\n")
    # a modified conffile cannot be merged once its pristine base is gone
    (store.root / "etc/app/main.conf").write_bytes(b"edited\n")
    for obj in (store.root / ".pkgdb" / "pristine" / "objects").iterdir():
        obj.unlink()
    with pytest.raises(ConfmergeError, match="pristine"):
        upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n")
    txn.rollback()


def test_pristine_history_appends_per_version(store):
    u = _install_v1(store, b"v1\n")
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n")
    txn.commit()
    entries = PristineStore(store).entries("app", "etc/app/main.conf")
    assert [e["version"] for e in entries] == ["1", "2"]
    assert PristineStore(store).content(entries[0]["sha"]) == b"v1\n"


def test_pristine_rolls_back_with_the_transaction(store):
    u = _install_v1(store, b"v1\n")
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n")
    txn.rollback()
    entries = PristineStore(store).entries("app", "etc/app/main.conf")
    assert [e["version"] for e in entries] == ["1"]


def test_conffile_writes_are_journaled(store):
    u = _install_v1(store, b"v1\n")
    baseline = store.tree_hash()
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n")
    txn.rollback()
    assert store.tree_hash() == baseline


def test_history_rollback_prunes_pristine_entries(store):
    u = _install_v1(store, b"v1\n")
    pkg2 = u.by_name("app")[1]
    txn = store.begin()
    upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n")
    txn.commit()
    store.rollback_to(2)
    entries = PristineStore(store).entries("app", "etc/app/main.conf")
    assert [e["version"] for e in entries] == ["1"]


def test_commit_whose_record_cannot_be_renamed_leaves_no_pristine_lines(store, monkeypatch):
    u = parse_universe(CONF_META_V2 + "\nPackage: app\nVersion: 3\n"
                       "Files: etc/app/main.conf\nConffiles: etc/app/main.conf\n")
    _install_v1(store, b"v1\n")
    pkg2, pkg3 = u.by_name("app")[1:]
    real_rename, failed = os.rename, []

    def rename(src, dst):
        if str(src).endswith(".2.partial") and not failed:
            failed.append(src)
            raise OSError(errno.ENOSPC, "No space left on device", str(src))
        real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename)
    txn = store.begin()
    upgrade_conffile(txn, pkg2, "etc/app/main.conf", b"v2\n")
    with pytest.raises(OSError):
        txn.commit()
    txn.rollback()
    assert failed and store.read_history(2).meta["outcome"] == "aborted"
    assert store.read("etc/app/main.conf") == b"v1\n"
    assert [e["txn"] for e in PristineStore(store).entries("app", "etc/app/main.conf")] == [1]
    # the untouched file is still unmodified against its pristine base
    txn = store.begin()
    assert upgrade_conffile(txn, pkg3, "etc/app/main.conf", b"v3\n").kind == "took-new"
    txn.commit()
    assert store.read("etc/app/main.conf") == b"v3\n"
    assert store.state("etc/app/main.conf.pkgnew")[0] == "absent"


def test_a_full_disk_does_not_tear_an_archived_pristine_object(store, monkeypatch):
    # transaction 2 snapshots the bytes that transaction 1 archived, and the
    # disk fills during its commit: the first pristine write is cut in half
    content = b"k=1\nj=2\n"
    u = _install_v1(store, content)
    sha = PristineStore(store).entries("app", "etc/app/main.conf")[0]["sha"]
    real_save, torn = Store.save, []

    def save(self, name, data):
        if name.startswith("pristine/") and not torn:
            torn.append(name)
            real_save(self, name, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device", name)
        real_save(self, name, data)

    monkeypatch.setattr(Store, "save", save)
    txn = store.begin()
    upgrade_conffile(txn, u.by_name("app")[1], "etc/app/main.conf", content)
    with pytest.raises(OSError):
        txn.commit()
    txn.rollback()
    assert torn and store.read_history(2).meta["outcome"] == "aborted"
    assert [e["txn"] for e in PristineStore(store).entries("app", "etc/app/main.conf")] == [1]
    assert PristineStore(store).content(sha) == content
