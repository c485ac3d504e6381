"""The parsed-universe cache: the codec round trip, the blob under
``.pkgdb/universe`` that only a committed ``apply`` writes and every other
command only reads, and the misses that leave every report as a fresh parse
gives it."""

import dataclasses
import json
import marshal
import random
import shutil
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import txpkg.cli
from txpkg.cli import main
from txpkg.txn import Store
from txpkg.universe import _CODEC, Package, PackageId, Version, dump, load, parse_universe

import support
from test_reader_oracle import texts

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import check  # noqa: E402  (the benchmark's generators)
import resolve  # noqa: E402
import upgrade  # noqa: E402


def render(value):
    """``value`` as plain data, every dataclass by all its fields in order and
    a version by its raw text, so that ``1.0`` and ``1.00`` stay apart."""
    if isinstance(value, Version):
        return ("version", value.raw)
    if isinstance(value, PackageId):
        return ("id", value.name, value.version.raw)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                *((f.name, render(getattr(value, f.name))) for f in dataclasses.fields(value)))
    if isinstance(value, frozenset):
        return ("frozenset", sorted(map(render, value)))
    if isinstance(value, tuple):
        return tuple(map(render, value))
    assert value is None or type(value) in (str, int), value
    return value


def assert_round_trip(u, packages: bytes):
    blob = dump(u, packages)
    rows = marshal.loads(blob[len(_CODEC) + 64:])[2]
    # one entry per Package field: a field added without a codec change fails
    assert all(len(row) == len(dataclasses.fields(Package)) for row in rows)
    loaded = load(blob, packages)
    assert [render(pid) for pid in loaded.ids] == [render(pid) for pid in u.ids]
    assert [render(p) for p in loaded] == [render(p) for p in u]


def assert_text_round_trip(text: str):
    assert_round_trip(parse_universe(text), text.encode())


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(case=texts())
def test_round_trip_of_the_reader_oracle_texts(case):
    assert_text_round_trip(case[0])


def test_round_trip_keeps_equal_versions_apart():
    assert_text_round_trip("Package: a\nVersion: 1.0\nDepends: b (>= 1.0), c (>= 1.00)\n\n"
                           "Package: b\nVersion: 1.00\nProvides: c (= 1.0)\n\n"
                           "Package: c\nVersion: 1.000\nConflicts: a (<< 1.00)\n")


def test_round_trip_of_the_support_fixtures(tmp_path):
    assert_text_round_trip(support.ATERM_META)
    for seed in range(20):
        assert_round_trip(support.random_universe(random.Random(seed), max_size=16), b"")
    for idx in range(6):  # both branches of the scenario generator
        _u, repo, *_rest = support.atomicity_scenario(random.Random(idx), tmp_path, idx)
        assert_text_round_trip((repo / "Packages").read_text())


def test_round_trip_of_the_benchmark_repositories():
    assert_text_round_trip(resolve.make_repository(random.Random(1), resolve.NAMES).meta)
    assert_text_round_trip(check.make_repository(random.Random(1)).meta)
    assert_text_round_trip(upgrade.make_repository(random.Random(1), 30).meta)


def test_a_blob_of_other_bytes_or_another_codec_is_a_miss():
    text = support.ATERM_META
    blob = dump(parse_universe(text), text.encode())
    assert load(blob, text.encode()) == parse_universe(text)
    assert load(blob, text.encode() + b"\n") is None
    assert load(b"txpkg-universe 0\n" + blob[len(_CODEC):], text.encode()) is None
    for cut in (0, 1, len(_CODEC), len(_CODEC) + 64, len(blob) - 1):
        assert load(blob[:cut], text.encode()) is None
    for at in (0, len(_CODEC), len(_CODEC) + 40, len(blob) - 1):
        flipped = bytearray(blob)
        flipped[at] ^= 1
        assert load(bytes(flipped), text.encode()) is None


# --- the cache through the CLI ------------------------------------------------

#: The fixture with other sizes for both packages: its blob is as long as the
#: fixture's, and a torn save of it over the fixture's mixes the two.
OTHER_META = support.ATERM_META.replace("Size: 46", "Size: 47").replace("Size: 340", "Size: 341")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def engine_state(root: Path) -> dict:
    """Every path under ``root/.pkgdb``: a file's bytes, or None for a directory."""
    db = root / ".pkgdb"
    return {str(p.relative_to(db)): None if p.is_dir() else p.read_bytes()
            for p in sorted(db.rglob("*"))}


@pytest.fixture
def applied(tmp_path, capsys):
    """A repository and a root where one apply committed: the root holds the blob."""
    repo = support.aterm_repo(tmp_path)
    root = support.new_store(tmp_path).root
    assert run(capsys, "--root", str(root), "--repo", str(repo), "apply", "install aterm")[0] == 0
    assert load((root / ".pkgdb" / "universe").read_bytes(), (repo / "Packages").read_bytes())
    return repo, root


@pytest.fixture
def parses(monkeypatch):
    """Counts the parses of ``Packages`` that the CLI makes."""
    calls = []

    def counting(text):
        calls.append(text)
        return parse_universe(text)

    monkeypatch.setattr(txpkg.cli, "parse_universe", counting)
    return calls


COMMANDS = [["check"], ["solve", "remove aterm"], ["apply", "--dry-run", "remove aterm"]]


def outputs(capsys, repo, root):
    base = ["--root", str(root), "--repo", str(repo)]
    return [run(capsys, *base, *json_flag, *command)
            for command in COMMANDS for json_flag in ([], ["--json"])]


def test_a_hit_parses_nothing_and_reports_as_a_parse(applied, tmp_path, capsys, parses):
    repo, root = applied
    fresh = tmp_path / "fresh"
    shutil.copytree(root, fresh)
    (fresh / ".pkgdb" / "universe").unlink()
    expected = outputs(capsys, repo, fresh)
    assert len(parses) == len(expected)
    assert outputs(capsys, repo, root) == expected
    assert len(parses) == len(expected)  # the root's blob answered every command


def damage(root: Path, how: str) -> None:
    blob = root / ".pkgdb" / "universe"
    data = blob.read_bytes()
    if how == "other Packages":
        blob.write_bytes(dump(parse_universe(OTHER_META), OTHER_META.encode()))
    elif how == "other codec":
        blob.write_bytes(b"txpkg-universe 0\n" + data[len(_CODEC):])
    elif how == "truncated":
        blob.write_bytes(data[:len(data) // 2])
    elif how == "flipped":
        blob.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    elif how == "directory":
        blob.unlink()
        blob.mkdir()


@pytest.mark.parametrize("how", ["other Packages", "other codec", "truncated", "flipped",
                                 "directory"])
def test_a_damaged_blob_is_a_miss(applied, tmp_path, capsys, parses, how):
    repo, root = applied
    fresh = tmp_path / "fresh"
    shutil.copytree(root, fresh)
    (fresh / ".pkgdb" / "universe").unlink()
    expected = outputs(capsys, repo, fresh)
    damage(root, how)
    del parses[:]
    assert outputs(capsys, repo, root) == expected
    assert len(parses) == len(expected)


def test_a_blob_of_other_packages_is_a_miss_then_replaced(applied, capsys, parses):
    repo, root = applied
    base = ["--root", str(root), "--repo", str(repo)]
    (repo / "Packages").write_text(OTHER_META)
    assert run(capsys, *base, "solve", "remove aterm")[0] == 0
    assert len(parses) == 1
    assert run(capsys, *base, "apply", "remove aterm")[0] == 0
    assert run(capsys, *base, "solve", "install aterm")[0] == 0
    assert len(parses) == 2
    assert load((root / ".pkgdb" / "universe").read_bytes(), OTHER_META.encode())


def test_check_with_a_root_that_is_no_directory_is_a_miss(applied, tmp_path, capsys, parses):
    repo, _root = applied
    not_a_dir = tmp_path / "file"
    not_a_dir.write_bytes(b"")
    for json_flag in ([], ["--json"]):
        expected = run(capsys, "--repo", str(repo), *json_flag, "check")
        assert run(capsys, "--root", str(not_a_dir), "--repo", str(repo), *json_flag,
                   "check") == expected
        assert run(capsys, "--root", str(tmp_path / "absent"), "--repo", str(repo), *json_flag,
                   "check") == expected
    assert len(parses) == 6


def failing_blob_save(fault):
    """A patch that makes the save of ``.pkgdb/universe`` fail: ``"torn"``
    writes half its bytes over the old file and then fails, as on a disk
    that fills part-way; ``"directory"`` finds a directory at its name."""
    real = Store.save

    def save(self, name, data):
        if name != "universe":
            return real(self, name, data)
        if fault == "directory":
            (self.root / ".pkgdb" / "universe").unlink()
            (self.root / ".pkgdb" / "universe").mkdir()
            return real(self, name, data)
        with support.disk_full_halfway():
            return real(self, name, data)

    return mock.patch.object(Store, "save", save)


@pytest.mark.parametrize("fault", ["torn", "directory"])
def test_a_failed_save_changes_no_report_and_reads_as_a_miss(applied, tmp_path, capsys,
                                                             parses, fault):
    repo, root = applied
    (repo / "Packages").write_text(OTHER_META)  # the next apply parses and saves
    twin = tmp_path / "twin"
    shutil.copytree(root, twin)
    request = ["--json", "apply", "remove aterm"]
    expected = run(capsys, "--root", str(twin), "--repo", str(repo), *request)
    assert expected[0] == 0 and json.loads(expected[1])["history_id"] == 2
    with failing_blob_save(fault):
        assert run(capsys, "--root", str(root), "--repo", str(repo), *request) == expected
    del parses[:]
    assert outputs(capsys, repo, root) == outputs(capsys, repo, twin)
    assert len(parses) == len(COMMANDS) * 2  # the twin's blob answered its half


# --- the read-only gate -------------------------------------------------------

#: Commands that must leave the engine state as they found it: ``(argv,
#: exit code)``; the last is refused, since the request cannot be met.
READ_ONLY = [(["check"], 0), (["solve", "remove aterm"], 0),
             (["apply", "--dry-run", "remove aterm"], 0), (["history"], 0),
             (["apply", "install aterm, remove libafterimage0"], 1)]


def argv_id(value):
    return " ".join(value) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("argv, code", READ_ONLY, ids=argv_id)
@pytest.mark.parametrize("blob", [True, False], ids=["with blob", "without blob"])
def test_read_only_commands_leave_the_engine_state_as_it_was(applied, capsys, argv, code, blob):
    repo, root = applied
    if not blob:
        (root / ".pkgdb" / "universe").unlink()
    before = engine_state(root)
    for json_flag in ([], ["--json"]):
        assert run(capsys, "--root", str(root), "--repo", str(repo), *json_flag,
                   *argv)[0] == code
        assert engine_state(root) == before


# in a fresh root, "remove aterm" is met already: that apply has nothing to do
@pytest.mark.parametrize("argv, code", READ_ONLY + [(["apply", "remove aterm"], 0)], ids=argv_id)
def test_read_only_commands_make_no_engine_state_in_a_fresh_root(tmp_path, capsys, argv, code):
    repo = support.aterm_repo(tmp_path)
    root = support.new_store(tmp_path).root
    assert run(capsys, "--root", str(root), "--repo", str(repo), *argv)[0] == code
    assert not (root / ".pkgdb").exists()


# --- unreadable engine state --------------------------------------------------

@pytest.mark.parametrize("argv", [["solve", "install aterm"], ["apply", "install aterm"]])
def test_a_directory_in_place_of_the_status_is_a_named_error(applied, capsys, argv):
    repo, root = applied
    status = root / ".pkgdb" / "status"
    status.unlink()
    status.mkdir()
    before = engine_state(root)
    code, out, err = run(capsys, "--root", str(root), "--repo", str(repo), *argv)
    assert (code, out) == (1, "")
    assert err == "error: cannot read .pkgdb/status: Is a directory\n"
    assert engine_state(root) == before
