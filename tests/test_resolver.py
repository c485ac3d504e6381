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
    """One fresh encoding and one fresh solver per package, pinned by its request."""
    out = []
    for pid in u.ids:
        r = Request((RequestAtom("install", pid.name, VersionConstraint("=", pid.version)),))
        cnf = encode(u, Status(), r)
        if DpllSolver(len(cnf.ids), cnf.clauses).solve() is not None:
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


def test_health_agrees_with_fresh_solver_reference_on_large_universes(monkeypatch):
    real_solve = DpllSolver.solve

    def checked_solve(self, *args, **kwargs):
        # a model found over a dependency cone must be a model of the whole formula
        model = real_solve(self, *args, **kwargs)
        assert model is None or _satisfies(model, self.clauses)
        return model

    monkeypatch.setattr(DpllSolver, "solve", checked_solve)
    names = [f"pkg{i:02d}" for i in range(40)]
    rng = random.Random(37)
    for _ in range(6):
        u = support.random_universe(rng, min_size=60, max_size=180, names=names)
        assert health_check(u) == reference_health_check(u)


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
