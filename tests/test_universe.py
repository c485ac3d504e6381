"""Metadata model: version order, parsing, satisfaction, round-trips."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpkg.universe import (
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
    compare_versions,
    derive_owned,
    parse_dependency_atom,
    parse_status,
    parse_universe,
    satisfies,
    serialize_status,
)

import support


# --- versions --------------------------------------------------------------


def test_compare_aterm_fixture_versions():
    assert compare_versions(Version("1.0.1-4"), Version("2.2.8-2")) == -1


def test_compare_equal_raw():
    assert compare_versions(Version("1.0"), Version("1.0")) == 0


def test_numeric_segments_compare_as_integers():
    # oracle: split on '.'/'-' and compare numeric segments as ints
    def oracle(a, b):
        sa = [int(x) for x in a.replace("-", ".").split(".")]
        sb = [int(x) for x in b.replace("-", ".").split(".")]
        return (sa > sb) - (sa < sb)

    cases = [("1.9", "1.10"), ("1.10", "1.9"), ("2.0-1", "2.0-2"), ("10.0", "9.9")]
    for a, b in cases:
        assert compare_versions(Version(a), Version(b)) == oracle(a, b)


def test_equal_under_segmenting_rules():
    assert Version("1.00") == Version("1.0")
    assert Version("1-0") == Version("1.0")
    assert hash(Version("1.00")) == hash(Version("1.0"))
    a, b = PackageId("a", Version("1.0")), PackageId("a", Version("1.00"))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_missing_segment_sorts_first():
    assert Version("1.0") < Version("1.0.1")


def test_numeric_before_alphanumeric():
    assert Version("1.2") < Version("1.abc")


def test_invalid_versions_rejected():
    for bad in ("", "1 .0", "1..2", ".1", "1.", "1.0~rc", "1:0"):
        with pytest.raises(MetadataError):
            Version(bad)


_segment = st.one_of(
    st.integers(0, 999).map(str),
    st.text(alphabet="abzABZ019+", min_size=1, max_size=4),
)


@st.composite
def version_strings(draw):
    segs = draw(st.lists(_segment, min_size=1, max_size=5))
    seps = [draw(st.sampled_from(".-")) for _ in range(len(segs) - 1)]
    out = segs[0]
    for sep, seg in zip(seps, segs[1:]):
        out += sep + seg
    return out


@settings(max_examples=300)
@given(version_strings(), version_strings(), version_strings())
def test_version_total_order(a, b, c):
    va, vb, vc = Version(a), Version(b), Version(c)
    # totality: exactly one of <, ==, > holds
    assert (va < vb) + (va == vb) + (va > vb) == 1
    # antisymmetry
    if va < vb:
        assert not vb < va
    # transitivity
    if va <= vb and vb <= vc:
        assert va <= vc


# --- satisfies --------------------------------------------------------------


def _pkg(name, version, provides=(), depends=(), conflicts=(), **kw):
    return Package(id=PackageId(name, Version(version)),
                   rel=Relationship(tuple(depends), tuple(conflicts), tuple(provides)), **kw)


def test_satisfies_plain_name():
    lib = _pkg("libafterimage0", "2.2.8-2")
    assert satisfies(Atom("libafterimage0"), lib)


def test_satisfies_versioned_constraint_violated():
    foo = _pkg("foo", "1.0")
    assert not satisfies(Atom("foo", VersionConstraint(">=", Version("2"))), foo)


def test_satisfies_via_provides():
    exim = _pkg("exim", "4.92", provides=(Provide("mail-agent"),))
    assert satisfies(Atom("mail-agent"), exim)
    # and the provider index agrees
    u = Universe([exim])
    assert u.providers_of("mail-agent") == ((exim, None),)


def test_versioned_provides_rules():
    pkg = _pkg("impl", "3", provides=(Provide("api", Version("2")),))
    bare = _pkg("impl2", "3", provides=(Provide("api"),))
    versioned_atom = Atom("api", VersionConstraint(">=", Version("2")))
    assert satisfies(versioned_atom, pkg)
    assert not satisfies(versioned_atom, bare)  # bare provides only match unversioned atoms
    assert satisfies(Atom("api"), bare)
    assert not satisfies(Atom("api", VersionConstraint(">=", Version("3"))), pkg)


# --- parse_universe ----------------------------------------------------------


def test_parse_two_stanza_fixture():
    u = parse_universe(support.ATERM_META)
    assert len(u) == 2
    aterm = u.by_name("aterm")[0]
    assert len(aterm.rel.depends) == 1
    assert aterm.rel.depends[0] == (Atom("libafterimage0"),)
    assert aterm.size_kb == 46
    assert u.by_name("libafterimage0")[0].size_kb == 340


def test_parse_empty_universe():
    u = parse_universe("")
    assert len(u) == 0


def test_provides_builds_index():
    u = parse_universe("Package: exim\nVersion: 4.92\nProvides: mail-agent\n")
    assert [(p.id, v) for p, v in u.providers_of("mail-agent")] == [
        (PackageId("exim", Version("4.92")), None)]


def test_duplicate_package_rejected():
    text = "Package: a\nVersion: 1.0\n\nPackage: a\nVersion: 1.00\n"
    with pytest.raises(MetadataError, match="duplicate"):
        parse_universe(text)


def test_syntax_error_carries_line_number():
    with pytest.raises(MetadataError, match="line 2"):
        parse_universe("Package: a\nnot a key line\n")


def test_unknown_key_rejected():
    with pytest.raises(MetadataError, match="unknown key"):
        parse_universe("Package: a\nVersion: 1\nColour: blue\n")


def test_ambiguous_operators_rejected():
    with pytest.raises(MetadataError, match="<<"):
        parse_universe("Package: a\nVersion: 1\nDepends: b (< 2)\n")
    with pytest.raises(MetadataError, match=r"bad operator '>'.*<< or >>"):
        parse_dependency_atom("b (> 1)")


@pytest.mark.parametrize("atom", ["b (>= )", "b (= )", "b (>>)"])
def test_missing_version_is_a_bad_atom(atom):
    with pytest.raises(MetadataError, match=r"line 3: bad atom") as info:
        parse_universe(f"Package: a\nVersion: 1\nDepends: {atom}\n")
    assert "operator" not in str(info.value)


def test_conffiles_must_be_subset_of_files():
    text = "Package: a\nVersion: 1\nFiles: etc/a\nConffiles: etc/b\n"
    with pytest.raises(MetadataError, match="subset"):
        parse_universe(text)


@pytest.mark.parametrize("field, error", [
    ("Files: usr/f, usr/g, usr/f\n", "line 3: Files repeats path 'usr/f'"),
    ("Files: etc/a\nConffiles: etc/a, etc/a\n", "line 4: Conffiles repeats path 'etc/a'"),
    ("Files: etc/a\nConffiles: etc/a\nConffile-Syntax: etc/a=lines, etc/a=keyvalue\n",
     "line 5: Conffile-Syntax repeats path 'etc/a'"),
])
def test_a_path_repeated_in_one_field_is_rejected(field, error):
    with pytest.raises(MetadataError) as info:
        parse_universe("Package: a\nVersion: 1\n" + field)
    assert str(info.value) == error


@pytest.mark.parametrize("size", ["+5", "1_000", "\u0661\u0662"])
def test_size_is_ascii_digits(size):
    with pytest.raises(MetadataError) as info:
        parse_universe(f"Package: a\nVersion: 1\nSize: {size}\n")
    assert str(info.value) == f"line 3: bad Size {size!r}"


def test_paths_with_traversal_rejected():
    with pytest.raises(MetadataError):
        parse_universe("Package: a\nVersion: 1\nFiles: ../etc/passwd\n")


def test_self_conflict_dropped_but_cross_version_kept():
    text = ("Package: a\nVersion: 1\nConflicts: a, b\n\n"
            "Package: a\nVersion: 2\nConflicts: a (>= 2)\n")
    u = parse_universe(text)
    v1 = u.get(PackageId("a", Version("1")))
    v2 = u.get(PackageId("a", Version("2")))
    # unconstrained self-name atom dropped; constrained one not admitting own
    # version stays and can exclude other versions
    assert v1.rel.conflicts == (Atom("b"),)
    assert v2.rel.conflicts == ()
    text2 = "Package: a\nVersion: 1\nConflicts: a (>= 2)\n"
    v = parse_universe(text2).by_name("a")[0]
    assert v.rel.conflicts == (Atom("a", VersionConstraint(">=", Version("2"))),)


def test_dependency_grammar_alternatives():
    atom = parse_dependency_atom("bash (>= 4.0)")
    assert atom == Atom("bash", VersionConstraint(">=", Version("4.0")))
    u = parse_universe("Package: a\nVersion: 1\nDepends: b | c (= 2), d\n")
    deps = u.by_name("a")[0].rel.depends
    assert deps == ((Atom("b"), Atom("c", VersionConstraint("=", Version("2")))), (Atom("d"),))


# --- status ------------------------------------------------------------------


def test_parse_status_simple():
    u = parse_universe("Package: libc\nVersion: 2.7\nFiles: lib/libc.so\n")
    st = parse_status("Package: libc\nVersion: 2.7\n", u)
    assert st.installed == {PackageId("libc", Version("2.7"))}
    assert derive_owned(u, st.installed) == {"lib/libc.so": PackageId("libc", Version("2.7"))}


def test_parse_status_empty():
    u = parse_universe("")
    assert parse_status("", u).installed == frozenset()


def test_status_must_be_subset_of_universe():
    u = parse_universe("Package: a\nVersion: 1\n")
    with pytest.raises(MetadataError, match="subset"):
        parse_status("Package: b\nVersion: 1\n", u)


def test_status_ownership_conflict_detected():
    text = ("Package: a\nVersion: 1\nFiles: usr/shared\n\n"
            "Package: b\nVersion: 1\nFiles: usr/shared\n")
    u = parse_universe(text)
    with pytest.raises(MetadataError, match="owned by both"):
        parse_status("Package: a\nVersion: 1\n\nPackage: b\nVersion: 1\n", u)


def test_status_round_trip():
    u = parse_universe(support.ATERM_META)
    st = parse_status("Package: aterm\nVersion: 1.0.1-4\n", u)
    assert parse_status(serialize_status(st), u) == st


# --- round-trips and index invariants ------------------------------------------


def test_universe_round_trip_random():
    rng = random.Random(7)
    for _ in range(40):
        u = support.random_universe(rng, max_size=10)
        # provider index equals a from-scratch rebuild
        rebuilt = {}
        for pkg in u:
            for prov in pkg.rel.provides:
                rebuilt.setdefault(prov.name, set()).add((pkg.id, prov.version))
        for name, providers in rebuilt.items():
            assert {(p.id, v) for p, v in u.providers_of(name)} == providers


def test_status_is_its_installed_set():
    # path ownership is computed from the installed set, never stored
    assert [f.name for f in dataclasses.fields(Status)] == ["installed"]
