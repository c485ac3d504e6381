"""The metadata reader against its earlier version, kept in ``reference_universe``.

Hypothesis writes ``Packages`` and status texts: valid ones, and ones with
exactly one planted fault.  Both readers must return equal results or raise
a ``MetadataError`` with the same text.  The exceptions are the two
rejections the current reader adds, a path repeated within one field and a
``Size`` that is not ASCII digits: the earlier reader accepts those texts,
and the generator predicts the current reader's error.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_universe as ref
from txpkg import universe
from txpkg.universe import OPERATORS, SCRIPT_HOOKS, MetadataError, Universe, Version

NAMES = ("a", "b", "lib-c", "d0.1")
VERSIONS = ("1", "2", "1.0", "2-1", "10", "1.a", "3+b")
PATHS = ("usr/bin/a", "usr/share/a", "etc/a.conf", "etc/b", "hooks/postinst", "x")
SPACE = st.sampled_from(["", " ", "  ", "\t"])

FAULTS = ("repeated id", "unknown key", "duplicate key", "no colon", "bad key",
          "bad version", "no Version", "bad name", "bad operator", "bad atom",
          "empty clause", "bad pin", "bad path", "reserved path", "negative Size",
          "not a subset", "bad syntax entry", "repeated Files path",
          "repeated Conffiles path", "repeated Conffile-Syntax path", "Size digits")

# each fault kind is a test case of its own, so that every kind is drawn
ORACLE = settings(max_examples=25, derandomize=True, database=None, deadline=None)


def outcome(parse, *args):
    try:
        return parse(*args)
    except MetadataError as e:
        return f"error: {e}"


@st.composite
def atoms(draw):
    name = draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        return name
    op, version = draw(st.sampled_from(OPERATORS)), draw(st.sampled_from(VERSIONS))
    a, b, c, d = (draw(SPACE) for _ in range(4))
    return f"{name}{a}({b}{op}{c}{version}{d})"


def joined(draw, items, sep):
    return sep.join(f"{draw(SPACE)}{item}{draw(SPACE)}" for item in items).strip()


@st.composite
def stanzas(draw, name, version):
    """One valid stanza as ``[key, value]`` pairs, Package and Version first."""
    fields = []
    if draw(st.booleans()):
        clauses = draw(st.lists(st.lists(atoms(), min_size=1, max_size=3), min_size=1,
                                max_size=3))
        fields.append(["Depends", joined(draw, [joined(draw, c, "|") for c in clauses], ",")])
    if draw(st.booleans()):
        conflicts = draw(st.lists(atoms(), min_size=1, max_size=3))  # may name itself
        fields.append(["Conflicts", joined(draw, conflicts, ",")])
    if draw(st.booleans()):
        provides = [f"{p} (= {draw(st.sampled_from(VERSIONS))})" if draw(st.booleans()) else p
                    for p in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2))]
        fields.append(["Provides", joined(draw, provides, ",")])
    if draw(st.booleans()):
        fields.append(["Size", draw(st.sampled_from(["0", "7", "046", "1200", "-0"]))])
    if draw(st.booleans()):
        fields.append(["Maintainer", draw(st.sampled_from(["Jo <jo@example.org>", "x: y"]))])
    files = draw(st.lists(st.sampled_from(PATHS), unique=True, max_size=4))
    if files:
        fields.append(["Files", joined(draw, files, ",")])
    conffiles = draw(st.lists(st.sampled_from(files), unique=True)) if files else []
    if conffiles:
        fields.append(["Conffiles", joined(draw, conffiles, ",")])
    for hook in SCRIPT_HOOKS:
        if draw(st.integers(0, 3)) == 0:
            fields.append([hook.capitalize(), draw(st.sampled_from(PATHS))])
    syntax = draw(st.lists(st.sampled_from(conffiles), unique=True)) if conffiles else []
    if syntax:
        modes = st.sampled_from(["lines", "keyvalue"])
        fields.append(["Conffile-Syntax", joined(draw, [f"{p}={draw(modes)}" for p in syntax],
                                                 ",")])
    return [["Package", name], ["Version", version]] + draw(st.permutations(fields))


def value_of(fields, key):
    return next((value for k, value in fields if k == key), None)


def replace(fields, key, value):
    fields[:] = [f for f in fields if f[0] != key] + [[key, value]]


def plant(draw, body, at, kind):
    """Plant one fault of ``kind`` in stanza ``at`` of ``body``.  For the two
    new rejections, returns the index of the line the error names and the
    error's text; else None."""
    fields = body[at]
    anywhere = st.integers(0, len(fields))
    if kind == "repeated id":
        body.insert(at, [["Package", fields[0][1]], ["Version", fields[1][1]]])
    elif kind == "unknown key":
        fields.insert(draw(anywhere), ["Colour", "blue"])
    elif kind == "duplicate key":
        fields.insert(draw(anywhere), [draw(st.sampled_from([k for k, _ in fields])), "2"])
    elif kind == "no colon":
        fields.insert(draw(anywhere), [None, "Package only garbage"])
    elif kind == "bad key":
        bad = draw(st.sampled_from(["1st", "Pack age", "-x", "a_b", "\u00dcber", " Files", ""]))
        fields.insert(draw(anywhere), [bad, "y"])
    elif kind == "bad version":
        fields[1][1] = draw(st.sampled_from(["1..2", "1 .0", ".1", "1.0~rc", "1:0", "-", ""]))
    elif kind == "no Version":
        del fields[1]
    elif kind == "bad name":
        fields[0][1] = draw(st.sampled_from(["A", "-a", "a_b", "", "a b"]))
    elif kind == "bad operator":
        op = draw(st.sampled_from(["<", ">", "=>", "=<", "==", "><"]))
        replace(fields, "Depends", f"a, b ({op} 2)")
    elif kind == "bad atom":
        replace(fields, draw(st.sampled_from(["Depends", "Conflicts", "Provides"])),
                draw(st.sampled_from(["b (>= )", "B", "b (>= 1", "(a)", "b (>= 1 2)"])))
    elif kind == "empty clause":
        replace(fields, "Depends", draw(st.sampled_from(["a, , b", "a,", "a |, b"])))
    elif kind == "bad pin":
        replace(fields, "Provides", draw(st.sampled_from(["a (>= 1)", "b, c (<< 2)"])))
    elif kind in ("bad path", "reserved path"):
        bad = draw(st.sampled_from(
            ["../etc/passwd", "/abs", "a//b", "a/./b", "a\\b", "a b", "a/", "."]
            if kind == "bad path" else [".pkgdb", ".pkgdb/status", ".pkgdb/x/y"]))
        if draw(st.booleans()):
            replace(fields, "Files", f"{draw(st.sampled_from(PATHS))}, {bad}")
        else:
            replace(fields, draw(st.sampled_from(SCRIPT_HOOKS)).capitalize(), bad)
    elif kind == "negative Size":
        replace(fields, "Size", draw(st.sampled_from(["-5", "-01"])))
    elif kind == "not a subset":
        files = value_of(fields, "Files")
        replace(fields, "Conffiles", "etc/elsewhere" + (f", {files}" if files else ""))
    elif kind == "bad syntax entry":
        replace(fields, "Files", "etc/a")
        replace(fields, "Conffiles", "etc/a")
        replace(fields, "Conffile-Syntax",
                draw(st.sampled_from(["etc/a", "etc/a=ini", "etc/b=lines", "etc/a =lines"])))
    elif kind.startswith("repeated "):
        key = kind.split()[1]
        if value_of(fields, key) is None:
            replace(fields, "Files", "etc/a, usr/f")
            replace(fields, "Conffiles", "etc/a")
            replace(fields, "Conffile-Syntax", "etc/a=lines")
        target = next(f for f in fields if f[0] == key)
        path = target[1].split(",")[0].strip().partition("=")[0]
        again = f"{path}={draw(st.sampled_from(['lines', 'keyvalue']))}" \
            if key == "Conffile-Syntax" else path
        target[1] += f",{draw(SPACE)}{again}"
        return fields.index(target), f"{key} repeats path {path!r}"
    elif kind == "Size digits":
        value = draw(st.sampled_from(["+5", "1_000", "\u0661\u0662", "+0", "0_1", "\uff17"]))
        replace(fields, "Size", value)
        return len(fields) - 1, f"bad Size {value!r}"
    return None


@st.composite
def texts(draw, kind=None):
    """``(text, predicted)``: a ``Packages`` text with a fault of ``kind``
    planted, and the current reader's error when that is one of its new
    rejections, else None."""
    ids = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(VERSIONS)),
                        min_size=1, max_size=5,
                        unique_by=lambda i: (i[0], Version(i[1]).key)))
    body = [draw(stanzas(name, version)) for name, version in ids]
    at = draw(st.integers(0, len(body) - 1))
    predicted = None if kind is None else plant(draw, body, at, kind)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [""] * draw(st.integers(0, 1))
    line_of = {}
    for i, fields in enumerate(body):
        if i:
            lines += draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=2))
        for j, (key, value) in enumerate(fields):
            line_of[i, j] = len(lines) + 1
            lines.append(value if key is None else f"{key}:{draw(SPACE)}{value}{draw(SPACE)}")
    text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
    if predicted is not None:
        j, message = predicted
        predicted = f"error: line {line_of[at, j]}: {message}"
    return text, predicted


@pytest.mark.parametrize("kind", (None,) + FAULTS)
@ORACLE
@given(data=st.data())
def test_parse_universe_agrees_with_the_reference(kind, data):
    text, predicted = data.draw(texts(kind))
    expected = outcome(ref.parse_universe, text)
    if predicted is not None:
        assert isinstance(expected, Universe)  # the earlier reader let it through
        expected = predicted
    assert outcome(universe.parse_universe, text) == expected


STATUS_FAULTS = {"unknown key": ["Status", "installed"], "duplicate key": ["Package", "a"],
                 "no colon": [None, "garbage"], "bad version": ["Version", "1..0"]}


@st.composite
def statuses(draw, kind):
    """A universe and a status text over it with a fault of ``kind`` planted;
    two installed packages that ship one path are a fault found by itself."""
    text, _ = draw(texts())
    u = universe.parse_universe(text)
    entries = [[["Package", pid.name], ["Version", str(pid.version)]]
               for pid in draw(st.lists(st.sampled_from(u.ids), unique=True))]
    if kind == "unknown id":
        entries.append([["Package", draw(st.sampled_from(NAMES))], ["Version", "99"]])
    elif kind is not None and not entries:
        entries.append([STATUS_FAULTS.get(kind, ["Package", "a"])])
    elif kind == "listed twice":
        entries.append(draw(st.sampled_from(entries)))
    elif kind == "no Version":
        del draw(st.sampled_from(entries))[1]
    elif kind is not None:
        draw(st.sampled_from(entries)).insert(draw(st.integers(0, 2)), STATUS_FAULTS[kind])
    draw(st.randoms()).shuffle(entries)
    lines = []
    for stanza in entries:
        lines += [value if key is None else f"{key}: {value}" for key, value in stanza] + [""]
    return u, "\n".join(lines)


@pytest.mark.parametrize("kind", (None, "unknown id", "listed twice", "no Version",
                                  *STATUS_FAULTS))
@ORACLE
@given(data=st.data())
def test_parse_status_agrees_with_the_reference(kind, data):
    u, text = data.draw(statuses(kind))
    assert outcome(universe.parse_status, text, u) == outcome(ref.parse_status, text, u)


@settings(max_examples=300, derandomize=True, database=None)
@given(st.text(alphabet="0123456789azAZ+.-~: \u00b2\u0661", max_size=8))
def test_version_grammar_and_key_are_the_references(raw):
    assert outcome(lambda r: Version(r).key, raw) == outcome(ref._version_key, raw)


PATH_PARTS = ("a", ".", "/", "\\", " ", "\x1c", "\u00a0", "\u2028", ".pkgdb")


def agrees_on_path(path):
    accepted = outcome(ref.check_rel_path, path) == path
    return ((universe._REL_PATH_RE.fullmatch(path) is not None) == accepted
            and outcome(universe.check_rel_path, path, 3) == outcome(ref.check_rel_path, path, 3))


def test_the_path_pattern_is_the_documented_rule_on_every_short_path():
    for n in range(5):
        for parts in itertools.product(PATH_PARTS, repeat=n):
            assert agrees_on_path("".join(parts)), parts


@settings(max_examples=500, derandomize=True, database=None)
@given(st.lists(st.sampled_from(PATH_PARTS), min_size=5, max_size=12).map("".join))
def test_the_path_pattern_is_the_documented_rule(path):
    assert agrees_on_path(path)
