"""Request parsing, condition checking, CNF encoding, and complete solving."""

import random

import pytest

import txpkg.resolver
from txpkg.resolver import (
    Request,
    RequestAtom,
    RequestError,
    Solution,
    Unsat,
    Verdict,
    Violation,
    check_solution,
    encode,
    explain_unsat,
    health_check,
    parse_request,
    solve,
)
from txpkg.sat import DpllSolver
from txpkg.universe import (
    Atom,
    PackageId,
    Status,
    Version,
    VersionConstraint,
    parse_universe,
)

import support


ATERM = parse_universe(support.ATERM_META)
ATERM_ID = PackageId("aterm", Version("1.0.1-4"))
LIB_ID = PackageId("libafterimage0", Version("2.2.8-2"))


# --- parse_request ---------------------------------------------------------


def test_parse_single_install():
    assert parse_request("install aterm") == Request((RequestAtom("install", "aterm"),))


def test_parse_two_atoms_with_constraint():
    r = parse_request("remove aterm, install bash (>= 4.0)")
    assert r.atoms == (
        RequestAtom("remove", "aterm"),
        RequestAtom("install", "bash", VersionConstraint(">=", Version("4.0"))),
    )
    at_least_one = VersionConstraint(">=", Version("1"))
    assert parse_request("install a(>=1)").atoms == (RequestAtom("install", "a", at_least_one),)
    assert parse_request("upgrade a ( >= 1 )").atoms == (
        RequestAtom("upgrade", "a", at_least_one),)


def test_parse_contradictory_actions_rejected():
    with pytest.raises(RequestError, match="contradictory"):
        parse_request("install x, remove x")
    with pytest.raises(RequestError, match="contradictory"):
        parse_request("upgrade x, remove x")
    with pytest.raises(RequestError, match="contradictory"):
        parse_request("install x (>= 1), remove x (<< 1)")


def test_parse_rejects_garbage_and_empty():
    with pytest.raises(RequestError):
        parse_request("destroy x")
    with pytest.raises(RequestError):
        parse_request("   ")
    with pytest.raises(RequestError, match="operator"):
        parse_request("install x (> 1)")
    with pytest.raises(RequestError, match=r"'install a \(< 1\)'.*operator"):
        parse_request("install a (< 1)")
    with pytest.raises(RequestError, match="'frobnicate a'"):
        parse_request("frobnicate a")
    with pytest.raises(RequestError, match="'install'"):
        parse_request("install")
    with pytest.raises(RequestError, match=r"'install b \(>= \)'.*bad atom"):
        parse_request("install b (>= )")


# --- check_solution ---------------------------------------------------------


def test_check_fixture_solution_ok():
    s = Status(frozenset({ATERM_ID, LIB_ID}))
    verdict = check_solution(ATERM, s, parse_request("install aterm"))
    assert verdict.ok and verdict.violations == ()


def test_check_remove_vacuously_ok_on_empty_status():
    verdict = check_solution(ATERM, Status(), parse_request("remove anything"))
    assert verdict.ok


def test_check_missing_dependency_violation():
    u = parse_universe("Package: a\nVersion: 1\nDepends: b\n")
    s = Status(frozenset({PackageId("a", Version("1"))}))
    verdict = check_solution(u, s, parse_request("install a"))
    assert not verdict.ok
    assert any(v.condition == "b" and "a 1" in v.witness for v in verdict.violations)


def test_check_conflict_violation_and_provider_hit():
    text = ("Package: a\nVersion: 1\nConflicts: virt\n\n"
            "Package: b\nVersion: 1\nProvides: virt\n")
    u = parse_universe(text)
    s = Status(frozenset({PackageId("a", Version("1")), PackageId("b", Version("1"))}))
    verdict = check_solution(u, s, parse_request("install a, install b"))
    assert any(v.condition == "c" for v in verdict.violations)


def test_check_status_not_subset_raises():
    with pytest.raises(ValueError, match="subset"):
        check_solution(ATERM, Status(frozenset({PackageId("ghost", Version("1"))})),
                       parse_request("install aterm"))


def test_check_upgrade_needs_at_least_installed_version():
    u = parse_universe("Package: a\nVersion: 1\n\nPackage: a\nVersion: 2\n")
    v1 = PackageId("a", Version("1"))
    v2 = PackageId("a", Version("2"))
    s0 = Status(frozenset({v1}))
    r = parse_request("upgrade a")
    assert check_solution(u, Status(frozenset({v2})), r, s0).ok
    assert check_solution(u, Status(frozenset({v1})), r, s0).ok  # same version still >= max
    assert not check_solution(u, Status(), r, s0).ok


# --- encode -------------------------------------------------------------------


def test_encode_fixture_formula_exact():
    cnf = encode(ATERM, Status(), parse_request("install aterm"))
    va, vl = cnf.var_of[ATERM_ID], cnf.var_of[LIB_ID]
    assert set(cnf.clauses) == {tuple(sorted((-va, vl))), (va,)}


def test_encode_empty_request_empty_model_valid():
    cnf = encode(ATERM, Status(), Request(()))
    # no request clauses; the all-false assignment satisfies what remains
    assert all(any(lit < 0 for lit in clause) for clause in cnf.clauses)


def test_encode_requested_conflict_pair_unsat():
    text = "Package: a\nVersion: 1\nConflicts: b\n\nPackage: b\nVersion: 1\n"
    u = parse_universe(text)
    res = solve(u, Status(), parse_request("install a, install b"))
    assert isinstance(res, Unsat)


def test_encode_unknown_install_atom_trivially_false():
    cnf = encode(ATERM, Status(), parse_request("install ghost"))
    assert () in cnf.clauses


# --- solve ---------------------------------------------------------------------


def test_solve_fixture_install():
    res = solve(ATERM, Status(), parse_request("install aterm"))
    assert isinstance(res, Solution)
    assert res.status.installed == {ATERM_ID, LIB_ID}


def test_solve_remove_absent_is_satisfiable():
    res = solve(ATERM, Status(frozenset({LIB_ID})), parse_request("remove aterm"))
    assert isinstance(res, Solution)
    assert check_solution(ATERM, res.status, parse_request("remove aterm")).ok


def test_solve_conflict_dependency_knot_unsat():
    text = ("Package: a\nVersion: 1\nConflicts: b\n\n"
            "Package: b\nVersion: 1\nDepends: a\n")
    u = parse_universe(text)
    res = solve(u, Status(), parse_request("install b"))
    assert isinstance(res, Unsat)
    # exhaustive enumeration over all four subsets agrees
    assert support.oracle_statuses(u, Status(), parse_request("install b")) == []


def test_unsat_stub_flags_doomed_atoms():
    res = solve(ATERM, Status(), parse_request("install ghost"))
    assert isinstance(res, Unsat)
    assert [a.name for a in res.doomed_atoms] == ["ghost"]
    assert any("no candidate" in w for w in res.witnesses)


def test_unsat_stub_flags_uninstallable_candidates():
    u = parse_universe("Package: a\nVersion: 1\nDepends: missing\n")
    res = solve(u, Status(), parse_request("install a"))
    assert isinstance(res, Unsat)
    assert any("no candidate is installable" in w for w in res.witnesses)


def test_request_candidates_policy():
    # a versioned install atom is answered only by real packages, a versioned
    # dependency also by a versioned provide, an unversioned atom by both
    u = parse_universe("Package: x\nVersion: 1\n\n"
                       "Package: p\nVersion: 1\nProvides: x (= 2)\n\n"
                       "Package: q\nVersion: 1\nDepends: x (>= 2)\n")
    r = parse_request("install x (>= 2)")
    assert solve(u, Status(), r) == Unsat(
        r, r.atoms, ("'install x (>= 2)': no candidate in the universe",))
    p1, q1 = PackageId("p", Version("1")), PackageId("q", Version("1"))
    assert solve(u, Status(), parse_request("install q")) == Solution(
        Status(frozenset({p1, q1})))
    cands = txpkg.resolver._request_candidates(u, Status(), RequestAtom("install", "x"))
    assert cands == u.satisfiers(Atom("x"))
    assert [pkg.id for pkg in cands] == [p1, PackageId("x", Version("1"))]


def test_solve_deterministic():
    rng = random.Random(3)
    for _ in range(20):
        u = support.random_universe(rng, max_size=8)
        s0 = support.random_status(rng, u)
        r = support.random_request(rng, u)
        first = solve(u, s0, r)
        second = solve(u, s0, r)
        if isinstance(first, Solution):
            assert isinstance(second, Solution)
            assert first.status == second.status
        else:
            assert isinstance(second, Unsat)


def test_solve_agrees_with_oracle_small():
    rng = random.Random(11)
    for _ in range(60):
        u = support.random_universe(rng, max_size=7)
        s0 = support.random_status(rng, u)
        r = support.random_request(rng, u)
        oracle = support.oracle_statuses(u, s0, r)
        res = solve(u, s0, r)
        if oracle:
            assert isinstance(res, Solution), f"missed solution for {r} on {len(u)} pkgs"
            assert check_solution(u, res.status, r, s0).ok
        else:
            assert isinstance(res, Unsat)


def test_encoding_model_set_matches_oracle():
    rng = random.Random(23)
    for _ in range(20):
        u = support.random_universe(rng, max_size=10)
        s0 = support.random_status(rng, u)
        r = support.random_request(rng, u)
        cnf = encode(u, s0, r)
        n = len(cnf.ids)
        models = set()
        for mask in range(1 << n):
            assign = [(mask >> i) & 1 == 1 for i in range(n)]
            ok = all(any(assign[abs(lit) - 1] == (lit > 0) for lit in clause)
                     for clause in cnf.clauses)
            if ok:
                models.add(frozenset(cnf.ids[i] for i in range(n) if assign[i]))
        oracle = {st.installed for st in support.oracle_statuses(u, s0, r)}
        assert models == oracle


# --- health check ---------------------------------------------------------------


def test_health_fixture_all_installable():
    results = health_check(ATERM)
    assert all(verdict.ok for _pid, verdict in results)
    assert len(results) == 2


def test_health_missing_dependency_witness():
    u = parse_universe("Package: a\nVersion: 1\nDepends: b\n")
    results = health_check(u)
    (pid, verdict), = results
    assert not verdict.ok
    assert verdict.violations[0].condition == "b"
    assert "no candidates" in verdict.violations[0].witness


def test_health_agrees_with_oracle_on_random_universes():
    rng = random.Random(31)
    for _ in range(25):
        u = support.random_universe(rng, max_size=7)
        results = dict(health_check(u))
        for pid in u.ids:
            r = Request((RequestAtom("install", pid.name,
                                     VersionConstraint("=", pid.version)),))
            expected = bool(support.oracle_statuses(u, Status(), r))
            assert results[pid].ok == expected


def _satisfies(model, clauses):
    return all(any((lit > 0) == (abs(lit) in model) for lit in clause) for clause in clauses)


def reference_health_check(u):
    """One fresh encoding and one fresh solver per package, pinned by its request;
    ``search`` shares no decision rule with the goal-directed ``solve``."""
    out = []
    for pid in u.ids:
        r = Request((RequestAtom("install", pid.name, VersionConstraint("=", pid.version)),))
        cnf = encode(u, Status(), r)
        if DpllSolver(len(cnf.ids), cnf.clauses).search() is not None:
            out.append((pid, Verdict(True)))
            continue
        witness = Violation("c", f"{pid}: no conflict-free dependency closure exists")
        for clause in u.get(pid).rel.depends:
            if not any(u.satisfiers(atom) for atom in clause):
                rendered = " | ".join(str(a) for a in clause)
                witness = Violation("b", f"{pid}: dependency clause '{rendered}' has no candidates")
                break
        out.append((pid, Verdict(False, (witness,))))
    return out


def count_flips(monkeypatch):
    """Patch the solver to count flips: a decision undone, then its negation enqueued.

    A decision literal is the first one on the trail above its mark, so a flip
    is an ``_undo_to(mark)`` followed by an ``_enqueue`` of the negation of
    what ``trail[mark]`` held.  Returns the one-element flip counter and the
    one-element slot holding the literal that would count as the next flip.
    """
    flips, expected = [0], [None]
    real_undo, real_enqueue = DpllSolver._undo_to, DpllSolver._enqueue

    def undo_to(self, mark):
        if mark < len(self.trail):
            v = self.trail[mark]
            expected[0] = -v if self.assign[v] > 0 else v
        real_undo(self, mark)

    def enqueue(self, lit):
        flips[0] += lit == expected[0]
        expected[0] = None
        return real_enqueue(self, lit)

    monkeypatch.setattr(DpllSolver, "_undo_to", undo_to)
    monkeypatch.setattr(DpllSolver, "_enqueue", enqueue)
    return flips, expected


def test_health_agrees_with_fresh_solver_reference_on_large_universes(monkeypatch):
    real_solve = DpllSolver.solve
    flips, expected = count_flips(monkeypatch)
    solve_flips = [0]

    def checked_solve(self, *args, **kwargs):
        # a goal-directed model, with every undecided variable false, must be
        # a model of the whole formula
        expected[0], before = None, flips[0]
        model = real_solve(self, *args, **kwargs)
        assert model is None or _satisfies(model, self.clauses)
        solve_flips[0] += flips[0] - before
        return model

    monkeypatch.setattr(DpllSolver, "solve", checked_solve)
    names = [f"pkg{i:02d}" for i in range(40)]
    rng = random.Random(37)
    for _ in range(6):
        u = support.random_universe(rng, min_size=60, max_size=180, names=names)
        assert health_check(u) == reference_health_check(u)
    assert solve_flips[0] >= 1  # some solve backtracked


def test_health_encodes_once_and_builds_one_solver(monkeypatch):
    calls = {"encode": 0, "solver": 0}
    real_encode, real_init = txpkg.resolver.encode, DpllSolver.__init__

    def counting_encode(*args):
        calls["encode"] += 1
        return real_encode(*args)

    def counting_init(self, *args):
        calls["solver"] += 1
        real_init(self, *args)

    monkeypatch.setattr(txpkg.resolver, "encode", counting_encode)
    monkeypatch.setattr(DpllSolver, "__init__", counting_init)
    u = support.random_universe(random.Random(41), min_size=100, max_size=100)
    assert len(health_check(u)) == len(u) == 100
    assert calls == {"encode": 1, "solver": 1}

    calls.update(encode=0, solver=0)
    atoms = tuple(RequestAtom("install", name) for name in sorted({p.name for p in u}))
    assert sum(len(u.by_name(a.name)) for a in atoms) == 100
    explain_unsat(u, Status(), Request(atoms))
    assert calls == {"encode": 1, "solver": 1}


def _health_universe(rng, n, name=lambda i: f"h{i:03d}"):
    """Names ``name(0)``.. at versions 1 and 2 over ``2 * n + 4`` ids.
    Dependencies point at earlier names: plain, versioned, ``|`` alternatives
    and features, each of which an earlier version-2 package provides.
    Version 2 conflicts with version 1 of its own name.  A missing dependency
    and a conflicting pair are planted."""
    stanzas = []
    for i in range(n):
        for v in (1, 2):
            lines = [f"Package: {name(i)}", f"Version: {v}"]
            deps = []
            for _ in range(rng.randint(0, 2) if i else 0):
                a, b = rng.randrange(i), rng.randrange(i)
                deps.append(rng.choice([name(a), f"{name(a)} (>= 2)",
                                        f"{name(a)} | {name(b)}", f"feat{a // 10 % 4}"]))
            if deps:
                lines.append("Depends: " + ", ".join(dict.fromkeys(deps)))
            if v == 2:
                lines.append(f"Conflicts: {name(i)} (<< 2)")
                if i % 10 == 0:
                    lines.append(f"Provides: feat{i // 10 % 4}")
            stanzas.append("\n".join(lines) + "\n")
    stanzas += ["Package: ghost\nVersion: 1\nDepends: missing\n",
                "Package: clasha\nVersion: 1\nConflicts: clashb\n",
                "Package: clashb\nVersion: 1\n",
                "Package: pair\nVersion: 1\nDepends: clasha, clashb\n"]
    return parse_universe("\n".join(stanzas))


def count_enqueues(monkeypatch):
    """Patch the solver to count enqueued literals; returns the one-element counter."""
    enqueues = [0]
    real_enqueue = DpllSolver._enqueue

    def counting_enqueue(self, lit):
        enqueues[0] += 1
        return real_enqueue(self, lit)

    monkeypatch.setattr(DpllSolver, "_enqueue", counting_enqueue)
    return enqueues


def test_health_check_work_is_bounded_by_the_goal(monkeypatch):
    # a solve decides only satisfiers of unmet dependency clauses, so it
    # assigns a few dozen variables, not its whole dependency cone (and, by
    # propagation, much of the universe), and a goal pass decides the shared
    # dependencies of its goals once.  This takes 3,842 enqueues; one solve
    # per package that no earlier model holds takes 9,225, and deciding
    # every cone variable false first takes 396,997.
    u = _health_universe(random.Random(47), 498)
    assert len(u) == 1000
    enqueues = count_enqueues(monkeypatch)
    results = dict(health_check(u))
    broken = {str(pid) for pid, verdict in results.items() if not verdict.ok}
    assert broken == {"ghost 1", "pair 1"}
    assert enqueues[0] <= 4000


@pytest.mark.parametrize("name", [lambda i: f"h{i:03d}", lambda i: f"h{997 - i:03d}"],
                         ids=["deps-sort-first", "deps-sort-last"])
def test_health_check_solves_once_per_closure(monkeypatch, name):
    # every member of a model is installable, and two goal passes over every
    # id, roots first, answer all but a few dozen ids, which are solved
    # alone: 97 and 89 solves.  One solve per id is 1,000, and one per id that
    # no earlier model holds is 620 and 569.  The order comes from the
    # dependency edges, not from names: the second universe is the first with
    # names sorting against them.
    u = _health_universe(random.Random(47), 498, name)
    assert len(u) == 1000
    solves = [0]
    real_solve = DpllSolver.solve

    def counting_solve(self, *args, **kwargs):
        solves[0] += 1
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(DpllSolver, "solve", counting_solve)
    results = health_check(u)
    assert {str(pid) for pid, verdict in results if not verdict.ok} == {"ghost 1", "pair 1"}
    assert solves[0] <= 100


def test_health_check_tries_each_package_at_most_three_times(monkeypatch):
    # every badK needs clash and a lib, and every lib conflicts with clash, so
    # the badKs are broken.  They come first, and pass 1 loses each of them
    # before it takes any goal, which settles them.  Each aK needs azK, which
    # conflicts with ayK, so it needs axK, and the axK conflict pairwise: a
    # pass takes one aK and loses the others, and they are left to one solve
    # each.  That takes 3,277 enqueues.  Solving alone every badK but the
    # first took 4,853, and passes repeated until every goal is settled take
    # one pass per aK, 6,792.
    libs = " | ".join(f"lib{i}" for i in range(5))
    rivals = ", ".join(f"ax{k}" for k in range(40))
    u = parse_universe("\n".join(
        ["Package: clash\nVersion: 1\n"]
        + [f"Package: lib{i}\nVersion: 1\nConflicts: clash\n" for i in range(5)]
        + [f"Package: bad{k}\nVersion: 1\nDepends: clash, {libs}\n" for k in range(100)]
        + [f"Package: a{k}\nVersion: 1\nDepends: ax{k} | ay{k}, az{k}\n\n"
           f"Package: ax{k}\nVersion: 1\nConflicts: {rivals}\n\n"
           f"Package: ay{k}\nVersion: 1\n\n"
           f"Package: az{k}\nVersion: 1\nConflicts: ay{k}\n" for k in range(40)]))
    assert len(u) == 266
    enqueues = count_enqueues(monkeypatch)
    results = health_check(u)
    assert enqueues[0] <= 3_277
    assert results == reference_health_check(u)
    assert {pid.name for pid, verdict in results if not verdict.ok} == {
        f"bad{k}" for k in range(100)}


# Shapes that random universes rarely hold, each against the model memo.
MEMO_UNIVERSES = {
    # a cycle, one reached from outside it, and one with a broken member
    "cycle": ("Package: a\nVersion: 1\nDepends: b\n\n"
              "Package: b\nVersion: 1\nDepends: a\n\n"
              "Package: c\nVersion: 1\nDepends: a\n\n"
              "Package: d\nVersion: 1\nDepends: e\n\n"
              "Package: e\nVersion: 1\nDepends: d, missing\n"),
    # app's model takes lib-x; lib-y is installable only without lib-x, and
    # the alternative lib-z not at all
    "untaken-alternative": ("Package: app\nVersion: 1\nDepends: lib-x | lib-y | lib-z\n\n"
                            "Package: lib-x\nVersion: 1\n\n"
                            "Package: lib-y\nVersion: 1\nDepends: helper\n\n"
                            "Package: helper\nVersion: 1\nConflicts: lib-x\n\n"
                            "Package: lib-z\nVersion: 1\nDepends: missing\n"),
    # broken packages, solved first, that need a healthy one
    "broken-on-healthy": ("Package: base\nVersion: 1\n\n"
                          "Package: ghost\nVersion: 1\nDepends: base, missing\n\n"
                          "Package: rival\nVersion: 1\nDepends: base\nConflicts: base\n"),
    # the first pass takes z and x first; b then loses, since both ways to
    # meet its clauses without the u1/v1 conflict need u2 or v2, which
    # conflict with x.  Alone, b installs with u1 and v2.  w needs u1 and v1.
    "lost-in-pass": ("Package: z\nVersion: 1\nDepends: x\n\n"
                     "Package: x\nVersion: 1\n\n"
                     "Package: b\nVersion: 1\nDepends: u1 | u2, v1 | v2\n\n"
                     "Package: w\nVersion: 1\nDepends: u1, v1\n\n"
                     "Package: u1\nVersion: 1\nConflicts: v1\n\n"
                     "Package: u2\nVersion: 1\nConflicts: x\n\n"
                     "Package: v1\nVersion: 1\n\n"
                     "Package: v2\nVersion: 1\nConflicts: x\n"),
}


@pytest.mark.parametrize("text", MEMO_UNIVERSES.values(), ids=MEMO_UNIVERSES.keys())
def test_health_memo_agrees_with_fresh_solver_reference(text):
    u = parse_universe(text)
    results = health_check(u)
    assert results == reference_health_check(u)
    assert any(verdict.ok for _pid, verdict in results)
    assert not all(verdict.ok for _pid, verdict in results)


def test_health_goal_lost_in_a_pass_is_tried_again():
    # pass 2 takes b again, after w, without x on the trail
    results = {str(pid): verdict for pid, verdict in
               health_check(parse_universe(MEMO_UNIVERSES["lost-in-pass"]))}
    assert results["b 1"].ok
    assert not results["w 1"].ok


def test_explain_unsat_with_doomed_atoms_sharing_a_closure():
    # top's model answers for lib2; x's and y's candidates all need the broken base
    u = parse_universe("Package: top\nVersion: 1\nDepends: lib, lib2\n\n"
                       "Package: lib\nVersion: 1\n\n"
                       "Package: lib2\nVersion: 1\n\n"
                       "Package: base\nVersion: 1\nDepends: missing\n\n"
                       "Package: x\nVersion: 1\nDepends: base\n\n"
                       "Package: x\nVersion: 2\nDepends: base, lib\n\n"
                       "Package: y\nVersion: 1\nDepends: x | base\n")
    r = parse_request("install top, install x, install lib2, install y, install nothing, remove lib")
    assert explain_unsat(u, Status(), r) == Unsat(
        r, (r.atoms[1], r.atoms[3], r.atoms[4]),
        ("'install x': no candidate is installable",
         "'install y': no candidate is installable",
         "'install nothing': no candidate in the universe"))
    assert isinstance(solve(u, Status(), r), Unsat)


def test_solve_returns_the_least_acceptable_status_in_sorted_id_order():
    # "lowest id first, not installed before installed": over the sorted ids,
    # the first status in lexicographic order, absent ranking before present
    rng = random.Random(53)
    found = 0
    for _ in range(300):
        u = support.random_universe(rng, max_size=8)
        s0 = support.random_status(rng, u)
        r = support.random_request(rng, u)
        oracle = support.oracle_statuses(u, s0, r)
        res = solve(u, s0, r)
        if not oracle:
            assert isinstance(res, Unsat)
            continue
        least = min(oracle, key=lambda st: [pid in st.installed for pid in u.ids])
        assert isinstance(res, Solution) and res.status == least
        found += 1
    assert found >= 80


# --- the reusable solver ------------------------------------------------------------


def test_reusable_solver_agrees_with_fresh_solvers():
    rng = random.Random(43)
    formulas = []
    for _ in range(30):
        u = support.random_universe(rng, max_size=10)
        formulas.append(encode(u, Status(), Request(())))
        formulas.append(encode(u, support.random_status(rng, u), support.random_request(rng, u)))
    interleaved = 0
    for cnf in formulas:
        n = len(cnf.ids)
        literals = [sign * v for v in range(1, n + 1) for sign in (1, -1)]
        rng.shuffle(literals)
        fresh = {lit: DpllSolver(n, cnf.clauses + [(lit,)]).solve() for lit in literals}
        sat = [lit for lit in literals if fresh[lit] is not None]
        unsat = [lit for lit in literals if fresh[lit] is None]
        # alternate SAT and UNSAT calls for as long as both kinds remain
        calls = [lit for pair in zip(sat, unsat) for lit in pair]
        calls += sat[len(unsat):] + unsat[len(sat):]
        interleaved += bool(sat and unsat)
        solver = DpllSolver(n, cnf.clauses)
        for lit in calls:
            model = solver.solve(assumptions=[lit])
            assert model == fresh[lit]
            if model is not None:
                assert _satisfies(model, cnf.clauses + [(lit,)])
    assert interleaved >= 20


def test_minimize_twice_on_one_instance_agrees_with_a_fresh_instance():
    # the largest installable set, ties broken by the sorted id list
    def model_key(model):
        return (n - len(model), tuple(sorted(model)))

    def bound_key(assign):
        # ids decided false so far: a prefix no extension's key sorts below
        return (sum(1 for value in assign[1:] if value < 0),)

    rng = random.Random(44)
    nontrivial = 0
    for _ in range(30):
        u = support.random_universe(rng, max_size=10)
        cnf = encode(u, Status(), Request(()))
        n = len(cnf.ids)
        fresh = DpllSolver(n, cnf.clauses).minimize(model_key, bound_key)
        solver = DpllSolver(n, cnf.clauses)
        assert solver.minimize(model_key, bound_key) == fresh
        assert solver.minimize(model_key, bound_key) == fresh
        nontrivial += 1 < len(fresh) < n
    assert nontrivial >= 10


def _random_cnf(rng):
    """A CNF over at most 12 variables mixing dependency-shaped clauses,
    positive-only ones, clauses with two or more negative literals, and units."""
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.randrange(4)
        if kind == 0:  # (not p) or s1 or ... or sk
            clauses.append((-rng.randint(1, n),)
                           + tuple(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))))
        elif kind == 1:  # positive-only
            clauses.append(tuple(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))))
        elif kind == 2 and n >= 2:  # two or more negative literals, maybe positives
            negs = rng.sample(range(1, n + 1), rng.randint(2, min(n, 3)))
            poss = rng.sample(range(1, n + 1), rng.randint(0, min(n, 2)))
            clauses.append(tuple(-v for v in negs) + tuple(poss))
        else:  # unit
            clauses.append((rng.choice((1, -1)) * rng.randint(1, n),))
    return n, clauses


def test_goal_directed_solve_agrees_with_brute_force():
    rng = random.Random(59)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        n, clauses = _random_cnf(rng)
        assumptions = [rng.choice((1, -1)) * v
                       for v in rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))]
        wanted = clauses + [(lit,) for lit in assumptions]
        # each clause as (positive mask, negative mask) over bit v - 1
        masks = [(sum(1 << (l - 1) for l in c if l > 0), sum(1 << (-l - 1) for l in c if l < 0))
                 for c in wanted]
        exists = any(all(m & pos or ~m & neg for pos, neg in masks) for m in range(1 << n))
        model = DpllSolver(n, clauses).solve(assumptions)
        assert (model is not None) == exists, (clauses, assumptions)
        if model is not None:
            assert _satisfies(model, wanted), (clauses, assumptions, model)
        outcomes[exists] += 1
    assert min(outcomes.values()) >= 300


def test_solve_refuses_a_model_that_check_solution_rejects(monkeypatch):
    u = parse_universe(support.ATERM_META)
    monkeypatch.setattr(DpllSolver, "search", lambda self, *args, **kwargs: set())
    with pytest.raises(RuntimeError, match="^solver produced an invalid status: "):
        solve(u, Status(), parse_request("install aterm"))
