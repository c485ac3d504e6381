"""Lexicographic scoring and complete optimization."""

import random

import pytest

from txpkg import preferences
from txpkg.preferences import (
    DEFAULT_PREFS,
    Criterion,
    PreferenceError,
    PreferenceSpec,
    eval_criteria,
    optimize,
    parse_prefs,
)
from txpkg.resolver import Solution, Unsat, parse_request, solve
from txpkg.sat import DpllSolver
from txpkg.universe import PackageId, Status, Version, parse_universe, status_diff

import support


ATERM = parse_universe(support.ATERM_META)
ATERM_ID = PackageId("aterm", Version("1.0.1-4"))
LIB_ID = PackageId("libafterimage0", Version("2.2.8-2"))

ALL_KINDS = ("removed", "changed", "new", "download", "notuptodate")


def _random_spec(rng):
    kinds = list(ALL_KINDS)
    rng.shuffle(kinds)
    chosen = kinds[: rng.randint(1, len(kinds))]
    crits = [Criterion(k) for k in chosen]
    if rng.random() < 0.4:
        pattern = rng.choice(["maint:evil*", "name:alpha*", "br*"])
        crits.insert(rng.randrange(len(crits) + 1), Criterion("blacklist", pattern))
    return PreferenceSpec(tuple(crits))


# --- spec parsing -----------------------------------------------------------


def test_parse_prefs_order_and_blacklist():
    spec = parse_prefs("-removed,-changed,-new,-download")
    assert [c.kind for c in spec.criteria] == ["removed", "changed", "new", "download"]
    spec = parse_prefs("-blacklist:maint:evil*,-notuptodate")
    assert spec.criteria[0] == Criterion("blacklist", "maint:evil*")


def test_parse_prefs_rejections():
    with pytest.raises(PreferenceError):
        parse_prefs("")
    with pytest.raises(PreferenceError, match="must start"):
        parse_prefs("removed")
    with pytest.raises(PreferenceError, match="unknown"):
        parse_prefs("-popularity")
    with pytest.raises(PreferenceError, match="duplicate"):
        parse_prefs("-new,-new")
    with pytest.raises(PreferenceError, match="pattern"):
        parse_prefs("-blacklist:")


# --- eval_criteria ------------------------------------------------------------


def test_fixture_vector_new_and_download():
    s = Status(frozenset({ATERM_ID, LIB_ID}))
    assert eval_criteria(ATERM, Status(), s, parse_prefs("-new,-download")) == (2, 386)


def test_no_change_vector_is_zero():
    s = Status(frozenset({ATERM_ID, LIB_ID}))
    spec = parse_prefs("-removed,-changed,-new,-download")
    assert eval_criteria(ATERM, s, s, spec) == (0, 0, 0, 0)


def _moves(s0, s):
    """(removed, changed, new) name sets, recounted straight from the definitions."""
    names0 = {pid.name for pid in s0.installed}
    names_s = {pid.name for pid in s.installed}
    changed = set()
    for name in names0 & names_s:
        v0 = {p.version for p in s0.installed if p.name == name}
        v1 = {p.version for p in s.installed if p.name == name}
        if v0 != v1:
            changed.add(name)
    return names0 - names_s, changed, names_s - names0


def _recount(u, s0, s, spec):
    """Independent recount straight from the definitions."""
    names_s = {pid.name for pid in s.installed}
    removed, changed, new = _moves(s0, s)
    vals = []
    for crit in spec.criteria:
        if crit.kind == "removed":
            vals.append(len(removed))
        elif crit.kind == "changed":
            vals.append(len(changed))
        elif crit.kind == "new":
            vals.append(len(new))
        elif crit.kind == "download":
            vals.append(sum(u.get(p).size_kb for p in s.installed if p not in s0.installed))
        elif crit.kind == "notuptodate":
            count = 0
            for name in names_s:
                best = max(u.versions_of(name))
                have = max(p.version for p in s.installed if p.name == name)
                count += have < best
            vals.append(count)
        else:
            from txpkg.preferences import _matches
            vals.append(sum(_matches(u.get(p), crit.pattern) for p in s.installed))
    return tuple(vals)


def _restrict(status, name):
    return Status(frozenset(pid for pid in status.installed if pid.name == name))


def test_criteria_add_up_name_by_name():
    # optimize bounds a node by summing eval_criteria over names; a
    # criterion that is not a sum over names fails here
    rng = random.Random(53)
    for _ in range(80):
        u = support.random_universe(rng, max_size=10)
        s0 = support.random_status(rng, u)
        kinds = list(ALL_KINDS)
        rng.shuffle(kinds)
        blacklist = Criterion("blacklist", rng.choice(["maint:evil*", "name:alpha*", "br*"]))
        crits = [Criterion(k) for k in kinds]
        crits.insert(rng.randrange(len(crits) + 1), blacklist)
        spec = PreferenceSpec(tuple(crits))
        names = sorted({pid.name for pid in u.ids})
        for _ in range(6):
            pool = [pid for pid in u.ids if rng.random() < 0.7]
            lo = Status(frozenset(pid for pid in pool if rng.random() < 0.4))
            for upper in (None, Status(frozenset(pool))):
                parts = [eval_criteria(u, _restrict(s0, n), _restrict(lo, n), spec,
                                       upper and _restrict(upper, n)) for n in names]
                assert eval_criteria(u, s0, lo, spec, upper) == tuple(map(sum, zip(*parts)))


def test_eval_matches_independent_recount():
    rng = random.Random(5)
    for _ in range(60):
        u = support.random_universe(rng, max_size=9)
        s0 = support.random_status(rng, u)
        s = support.random_status(rng, u)
        spec = _random_spec(rng)
        assert eval_criteria(u, s0, s, spec) == _recount(u, s0, s, spec)


# --- optimize -----------------------------------------------------------------


def test_notuptodate_prefers_newest_version():
    text = ("Package: a\nVersion: 1\nDepends: b\n\n"
            "Package: b\nVersion: 1.0\nSize: 10\n\nPackage: b\nVersion: 2.0\nSize: 10\n")
    u = parse_universe(text)
    res = optimize(u, Status(), parse_request("install a"),
                   parse_prefs("-notuptodate,-download"))
    assert isinstance(res, Solution)
    assert PackageId("b", Version("2.0")) in res.status.installed
    assert PackageId("b", Version("1.0")) not in res.status.installed
    # both versions of b satisfy a's clause; enumeration agrees 2.0 wins
    expected = _oracle_best(u, Status(), parse_request("install a"),
                            parse_prefs("-notuptodate,-download"))
    assert res.status == expected[1]


def test_singleton_solution_set_equals_solve():
    u = ATERM
    r = parse_request("install aterm, install libafterimage0")
    spec = parse_prefs("-new")
    best = optimize(u, Status(), r, spec)
    plain = solve(u, Status(), r)
    # the whole universe is forced; both routes land on the same status
    assert isinstance(best, Solution) and isinstance(plain, Solution)
    assert best.status == plain.status


def test_blacklist_avoids_untrusted_maintainer():
    text = ("Package: app\nVersion: 1\nDepends: svc\n\n"
            "Package: goodd\nVersion: 1\nMaintainer: carol\nProvides: svc\n\n"
            "Package: badd\nVersion: 1\nMaintainer: evil-eve\nProvides: svc\n")
    u = parse_universe(text)
    res = optimize(u, Status(), parse_request("install app"),
                   parse_prefs("-blacklist:maint:evil*,-new"))
    assert isinstance(res, Solution)
    names = {pid.name for pid in res.status.installed}
    assert "goodd" in names and "badd" not in names


def test_optimize_unsat_passthrough():
    res = optimize(ATERM, Status(), parse_request("install ghost"), parse_prefs("-new"))
    assert isinstance(res, Unsat)


def _oracle_best(u, s0, r, spec):
    """Lexicographic minimum over the enumerated solution set, with the
    sorted-id-list tie-break; None when unsatisfiable."""
    best = None
    for st in support.oracle_statuses(u, s0, r):
        key = (eval_criteria(u, s0, st, spec),
               tuple(sorted(pid.key for pid in st.installed)))
        if best is None or key < best[0]:
            best = (key, st)
    return best


def _pulling_spec(rng):
    """A spec whose first criterion pulls away from the baseline status."""
    first = rng.choice([Criterion("notuptodate"),
                        Criterion("blacklist", rng.choice(["maint:evil*", "name:alpha*", "br*"]))])
    rest = [Criterion(k) for k in ALL_KINDS if k != first.kind]
    rng.shuffle(rest)
    return PreferenceSpec((first,) + tuple(rest[: rng.randint(0, len(rest))]))


def _matches_oracle(u, s0, r, spec):
    """Assert that optimize finds the oracle's optimum; False when unsatisfiable."""
    expected = _oracle_best(u, s0, r, spec)
    got = optimize(u, s0, r, spec)
    if expected is None:
        assert isinstance(got, Unsat)
        return False
    assert isinstance(got, Solution)
    got_key = (eval_criteria(u, s0, got.status, spec),
               tuple(sorted(pid.key for pid in got.status.installed)))
    assert got_key == expected[0]
    assert got.status == expected[1]
    return True


def test_optimize_matches_oracle_vector_and_tiebreak():
    rng = random.Random(17)
    checked = 0
    for _ in range(90):
        u = support.random_universe(rng, max_size=8)
        s0 = support.random_status(rng, u)
        r = support.random_request(rng, u)
        checked += _matches_oracle(u, s0, r, _random_spec(rng))
    assert checked > 15
    # the search starts each name at its best state, which moves away from
    # s0 when the first criterion pulls that way
    pulled = 0
    for seed in (3, 31, 59, 83):
        rng = random.Random(seed)
        for _ in range(60):
            u = support.random_universe(rng, max_size=8)
            s0 = support.random_status(rng, u)
            r = support.random_request(rng, u)
            pulled += _matches_oracle(u, s0, r, _pulling_spec(rng))
    assert pulled > 40


def _layered_universe(rng, n):
    """Names p00.. at versions 1 and 2; each version depends on earlier names,
    and version 2 conflicts with version 1 of its own name."""
    stanzas = []
    for i in range(n):
        for v in (1, 2):
            lines = [f"Package: p{i:02d}", f"Version: {v}", f"Size: {rng.randint(1, 50)}"]
            deps = [f"p{j:02d}" + (" (>= 2)" if v == 2 and rng.random() < 0.3 else "")
                    for j in rng.sample(range(i), min(i, rng.randint(0, 2)))]
            if deps:
                lines.append("Depends: " + ", ".join(deps))
            if v == 2:
                lines.append(f"Conflicts: p{i:02d} (<< 2)")
            stanzas.append("\n".join(lines) + "\n")
    return parse_universe("\n".join(stanzas))


def test_optimize_scores_per_model_and_memo_entry_not_per_node(monkeypatch):
    # the bound reads a memo of per-name vectors, so eval_criteria runs once
    # per model and once per (name, partial state), never once per node
    u = _layered_universe(random.Random(3), 14)
    s0 = Status(frozenset(pid for pid in u.ids
                          if pid.version == Version("1") and int(pid.name[1:]) % 3 == 0))
    counts = {"nodes": 0, "models": 0}
    bounded, exact = [], []

    search = DpllSolver.search

    def counting_search(self, polarity=None, on_model=None, prune=None):
        def counting_prune(assign):
            counts["nodes"] += 1
            return prune(assign)

        def counting_on_model(model):
            counts["models"] += 1
            return on_model(model)

        return search(self, polarity, counting_on_model, counting_prune)

    def recording_eval(u, s0, s, spec, upper=None):
        (exact if upper is None else bounded).append(s)
        return eval_criteria(u, s0, s, spec, upper)

    tables = []

    class RecordingTable(preferences._NameTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(DpllSolver, "search", counting_search)
    monkeypatch.setattr(preferences, "eval_criteria", recording_eval)
    monkeypatch.setattr(preferences, "_NameTable", RecordingTable)
    res = optimize(u, s0, parse_request("install p13"), parse_prefs(DEFAULT_PREFS))
    assert isinstance(res, Solution)
    assert counts["nodes"] >= 1000
    (table,) = tables
    assert len(bounded) == len(table.memo)  # each memo entry is scored once
    assert len(exact) + len(bounded) <= counts["models"] + len(table.memo)


def test_constraint_tightening_is_monotone():
    # fixing the first k criteria at their optima only ever shrinks the set
    rng = random.Random(29)
    for _ in range(15):
        u = support.random_universe(rng, max_size=7)
        s0 = support.random_status(rng, u)
        r = support.random_request(rng, u)
        spec = _random_spec(rng)
        sols = support.oracle_statuses(u, s0, r)
        if not sols:
            continue
        vectors = {id(st): eval_criteria(u, s0, st, spec) for st in sols}
        current = list(sols)
        previous_ids = {id(st) for st in current}
        for k in range(len(spec.criteria)):
            best_k = min(vectors[id(st)][k] for st in current)
            current = [st for st in current if vectors[id(st)][k] == best_k]
            assert {id(st) for st in current} <= previous_ids
            previous_ids = {id(st) for st in current}


def test_partial_diff_and_bound_are_the_least_over_every_status_between():
    # status_diff(u, s0, lo, hi) and eval_criteria(..., hi) must be the least
    # that every status t with lo <= t <= hi gives: a weaker bound or an
    # unsound one fails here
    rng = random.Random(41)
    for _ in range(60):
        u = support.random_universe(rng, max_size=8)
        s0 = support.random_status(rng, u)
        pattern = rng.choice(["maint:evil*", "name:alpha*", "br*"])
        kinds = list(ALL_KINDS)
        rng.shuffle(kinds)
        spec = PreferenceSpec(tuple(Criterion(k) for k in kinds)
                              + (Criterion("blacklist", pattern),))
        for _ in range(8):
            pool = [pid for pid in u.ids if rng.random() < 0.7]
            lo = Status(frozenset(pid for pid in pool if rng.random() < 0.4))
            hi = Status(frozenset(pool))
            free = [pid for pid in pool if pid not in lo.installed]
            between = [Status(lo.installed | {free[i] for i in range(len(free)) if m >> i & 1})
                       for m in range(1 << len(free))]
            diff = status_diff(u, s0, lo, hi)
            moves = [_moves(s0, t) for t in between]
            for k, name in enumerate(("removed", "changed", "new")):
                common = set.intersection(*(m[k] for m in moves))
                assert getattr(diff, name) == tuple(sorted(common)), name
            assert diff.download_kb == min(
                sum(u.get(p).size_kb for p in t.installed - s0.installed) for t in between)
            vectors = [_recount(u, s0, t, spec) for t in between]
            assert eval_criteria(u, s0, lo, spec, hi) == tuple(map(min, zip(*vectors)))
            for t in (lo, hi):
                assert status_diff(u, s0, t, t) == status_diff(u, s0, t)
                assert eval_criteria(u, s0, t, spec, t) == eval_criteria(u, s0, t, spec)
