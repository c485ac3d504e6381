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
from txpkg.resolver import Solution, Unsat, encode, parse_request, solve
from txpkg.sat import DpllSolver
from txpkg.universe import PackageId, Status, Version, parse_universe

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
            s = Status(frozenset(pid for pid in u.ids if rng.random() < 0.4))
            parts = [eval_criteria(u, _restrict(s0, n), _restrict(s, n), spec) for n in names]
            assert eval_criteria(u, s0, s, spec) == tuple(map(sum, zip(*parts)))


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


def _no_settling(monkeypatch):
    """Patch settling out, so that the search runs over every name."""
    monkeypatch.setattr(preferences, "_settled", lambda u, s0, spec, cnf: [])


def _settling_spec(rng):
    """A spec that counts removed, changed and new, in random order among
    random other criteria."""
    crits = [Criterion(k) for k in ALL_KINDS if k in ("removed", "changed", "new")
             or rng.random() < 0.5]
    if rng.random() < 0.4:
        crits.append(Criterion("blacklist", rng.choice(["maint:evil*", "name:alpha*", "br*"])))
    rng.shuffle(crits)
    return PreferenceSpec(tuple(crits))


def test_settling_keeps_every_optimum(monkeypatch):
    # optimize with the settled names fixed, optimize without settling and
    # the brute-force optimum agree.  Settling under a spec that lacks
    # removed, changed or new changes the tie-break winner, and a settled
    # set that is not shrunk to an autarky cuts optima or every model
    rng = random.Random(26)
    settled = broken = 0
    for _ in range(500):
        u = support.random_universe(rng, max_size=9)
        s0 = (support.random_status(rng, u) if rng.random() < 0.5
              else Status(frozenset(pid for pid in u.ids if rng.random() < 0.7)))
        r = support.random_request(rng, u)
        spec = rng.choice((_random_spec, _settling_spec))(rng)
        cnf = encode(u, s0, r)
        lits = preferences._settled(u, s0, spec, cnf)
        settled += bool(lits)
        # the baseline status leaves a clause of the encoding unsatisfied
        broken += bool(lits) and any(
            not any((lit > 0) == (cnf.ids[abs(lit) - 1] in s0.installed) for lit in clause)
            for clause in cnf.clauses)
        with monkeypatch.context() as patch:
            _no_settling(patch)
            plain = optimize(u, s0, r, spec)
        assert optimize(u, s0, r, spec) == plain
        _matches_oracle(u, s0, r, spec)
    assert settled > 150
    assert broken > 100


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


def _layered_status(u):
    """Version 1 of every third name installed."""
    return Status(frozenset(pid for pid in u.ids
                            if pid.version == Version("1") and int(pid.name[1:]) % 3 == 0))


def _count_search(monkeypatch):
    """Patch the solver to count the search's nodes (prune calls) and models."""
    counts = {"nodes": 0, "models": 0}
    search = DpllSolver.search

    def counting_search(self, polarity=None, on_model=None, prune=None):
        def counting_prune(assign):
            counts["nodes"] += 1
            return prune(assign)

        def counting_on_model(model):
            counts["models"] += 1
            return on_model(model)

        return search(self, polarity, counting_on_model, counting_prune)

    monkeypatch.setattr(DpllSolver, "search", counting_search)
    return counts


def test_optimize_scores_per_model_and_memo_entry_not_per_node(monkeypatch):
    # the bound reads a memo of per-name vectors, so eval_criteria runs once
    # per model and at most once per candidate of each (name, part) entry,
    # never once per node; settling scores the baseline once, against itself
    u = _layered_universe(random.Random(3), 14)
    s0 = _layered_status(u)
    counts = _count_search(monkeypatch)
    settle_evals, model_evals, entry_evals, tables = [], [], [], []

    def recording_eval(u, base, s, spec):
        (settle_evals if s is base else model_evals if base is s0 else entry_evals).append(s)
        return eval_criteria(u, base, s, spec)

    class RecordingTable(preferences._NameTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(preferences, "eval_criteria", recording_eval)
    monkeypatch.setattr(preferences, "_NameTable", RecordingTable)
    res = optimize(u, s0, parse_request("install p13"), parse_prefs(DEFAULT_PREFS))
    assert isinstance(res, Solution)
    (table,) = tables
    assert settle_evals == [s0]
    assert len(model_evals) == counts["models"]
    # a part's candidates: its true packages, those plus one undecided
    # package, and the baseline state
    assert len(entry_evals) <= sum(part.count(0) + 2 for _g, part in table.memo)
    assert 2 * (len(model_evals) + len(entry_evals)) < counts["nodes"]


def test_exact_name_bound_cuts_the_layered_search(monkeypatch):
    # a name whose installed version is false and whose other version is
    # open costs removed or changed in every completion; a bound that takes
    # each criterion's least on its own reads 0 there and searches 2,805
    # nodes on this request
    u = _layered_universe(random.Random(3), 14)
    counts = _count_search(monkeypatch)
    res = optimize(u, _layered_status(u), parse_request("install p13"),
                   parse_prefs(DEFAULT_PREFS))
    assert isinstance(res, Solution)
    assert counts["nodes"] <= 500


def test_running_total_follows_the_trail(monkeypatch):
    # at every node the running total equals the sum of every name's vector
    # recomputed from scratch; a trail mark that backtracking does not lower
    # leaves the undone names counted in their old state and fails here.
    # Settling leaves few nodes, so the problems run without it first and
    # then again with it, whose settled variables sit on the root trail
    checked = [0]

    class CheckedTable(preferences._NameTable):
        def running_vector(self, solver):
            running = super().running_vector(solver)

            def checked_running(assign):
                total = running(assign)
                parts = [self.least(g, tuple(assign[first:end]))[0]
                         for g, (first, end, _run, _base) in enumerate(self.runs)]
                assert total == tuple(map(sum, zip(*parts)))
                checked[0] += 1
                return total

            return checked_running

    monkeypatch.setattr(preferences, "_NameTable", CheckedTable)
    u = _layered_universe(random.Random(3), 14)
    problems = [(u, _layered_status(u), parse_request("install p13"), parse_prefs(DEFAULT_PREFS))]
    rng = random.Random(71)
    for _ in range(200):
        u = support.random_universe(rng, max_size=10)
        problems.append((u, support.random_status(rng, u), support.random_request(rng, u),
                         _random_spec(rng)))
    with monkeypatch.context() as patch:
        _no_settling(patch)
        for problem in problems:
            optimize(*problem)
    assert checked[0] > 500
    unsettled = checked[0]
    for problem in problems:
        optimize(*problem)
    assert checked[0] - unsettled > 400


def _upgrade_universe(rng, n):
    """Names p000.. at versions 1 and 2, version 2 conflicting with version 1;
    both versions of a name depend on the same zero to two earlier names."""
    stanzas = []
    for i in range(n):
        count = rng.choice((0, 0, 1, 2)) if i else 0
        deps = sorted({f"p{rng.randrange(i):03d}" for _ in range(count)})
        for v in (1, 2):
            lines = [f"Package: p{i:03d}", f"Version: {v}", f"Size: {rng.randint(5, 400)}"]
            if deps:
                lines.append("Depends: " + ", ".join(deps))
            if v == 2:
                lines.append(f"Conflicts: p{i:03d} (<< 2)")
            stanzas.append("\n".join(lines) + "\n")
    return parse_universe("\n".join(stanzas))


def test_a_node_reads_only_the_names_that_moved(monkeypatch):
    # the bound reads a name's part as the slice of its variables; at each
    # node it reads only the names of the variables assigned or unassigned
    # since the previous node that read the bound, not all 150 names (the
    # search reads no bound before its first model).  Settling would leave
    # 18 nodes here, so it is patched out
    _no_settling(monkeypatch)
    rng = random.Random(13)
    u = _upgrade_universe(rng, 150)
    name_of = [None] + [pid.name for pid in u.ids]
    stats = {"nodes": 0, "moved": 0}

    class ReadLog(list):
        def __getitem__(self, key):
            if isinstance(key, slice):
                self.read.update(name_of[v] for v in range(*key.indices(len(self))) if v)
            return super().__getitem__(key)

    search = DpllSolver.search

    def watched_search(self, polarity=None, on_model=None, prune=None):
        before, models = [], [0]

        def watched_on_model(model):
            models[0] += 1
            return on_model(model)

        def watched_prune(assign):
            log = ReadLog(assign)
            log.read = set()
            if not models[0]:
                return prune(log)
            now = [(v, assign[v]) for v in self.trail]
            same = next((i for i, (a, b) in enumerate(zip(before, now)) if a != b),
                        min(len(before), len(now)))
            moved = {name_of[v] for v, _ in before[same:] + now[same:]}
            before[:] = now
            cut = prune(log)
            assert log.read <= moved
            stats["nodes"] += 1
            stats["moved"] += len(moved)
            return cut

        return search(self, polarity, watched_on_model, watched_prune)

    monkeypatch.setattr(DpllSolver, "search", watched_search)
    s0 = Status(frozenset(pid for pid in u.ids if pid.version == Version("1")))
    for _ in range(4):
        request = ", ".join(f"upgrade p{i:03d} (>= 2)" for i in rng.sample(range(150), 4))
        assert isinstance(optimize(u, s0, parse_request(request), parse_prefs(DEFAULT_PREFS)),
                          Solution)
    assert stats["nodes"] > 100
    assert stats["moved"] < 10 * stats["nodes"]


def test_an_upgrade_searches_only_its_cone(monkeypatch):
    # a 4-name upgrade of 150 installed names settles every name the request
    # cannot move; without settling each of these requests searches 293
    # nodes and scores about 590 states
    rng = random.Random(13)
    u = _upgrade_universe(rng, 150)
    s0 = Status(frozenset(pid for pid in u.ids if pid.version == Version("1")))
    counts = _count_search(monkeypatch)
    scored = [0]

    def counting_eval(*args):
        scored[0] += 1
        return eval_criteria(*args)

    monkeypatch.setattr(preferences, "eval_criteria", counting_eval)
    for _ in range(8):
        request = ", ".join(f"upgrade p{i:03d} (>= 2)" for i in rng.sample(range(150), 4))
        counts["nodes"] = scored[0] = 0
        assert isinstance(optimize(u, s0, parse_request(request), parse_prefs(DEFAULT_PREFS)),
                          Solution)
        assert counts["nodes"] <= 60
        assert scored[0] <= 120


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
    # a name's vector in the optimiser's bound must be the least vector over
    # every state of the name between its true packages and its not-false
    # ones, recounted from the definitions: a weaker bound or an unsound one
    # fails here, and so does one that leaves out the baseline state
    rng = random.Random(41)
    for _ in range(300):
        u = support.random_universe(rng, max_size=24, names=support.NAMES[:3])
        s0 = Status(frozenset(pid for pid in u.ids if rng.random() < 0.5))
        spec = _random_spec(rng)
        table = preferences._NameTable(u, s0, spec, u.ids)
        for g, (_first, _end, run, _base) in enumerate(table.runs):
            base = _restrict(s0, run[0].name)
            for _ in range(4):
                if rng.random() < 0.5:  # a part the baseline state completes
                    part = tuple(rng.choice((1, 0, 0) if pid in base.installed else (-1, 0))
                                 for pid in run)
                else:
                    part = tuple(rng.choice((1, -1, -1, 0, 0)) for _ in run)
                lo = {pid for pid, x in zip(run, part) if x > 0}
                free = [pid for pid, x in zip(run, part) if not x][:10]
                between = [Status(frozenset(lo | {free[i] for i in range(len(free)) if m >> i & 1}))
                           for m in range(1 << len(free))]
                part = tuple(0 if pid in free else x or -1 for pid, x in zip(run, part))
                assert table.least(g, part)[0] == min(_recount(u, base, t, spec) for t in between)
