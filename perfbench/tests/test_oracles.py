"""The expected answers the benchmark checks against are right.

- ``resolve``: the reference optimiser agrees with brute-force subset
  enumeration on small instances from the same generator.
- ``check``: every healthy package has a construction witness that
  ``check_solution`` accepts, and the planted packages are broken for the
  reason they were planted, as in acceptance criterion 8.
- ``upgrade``: the tree model predicts the seeded root and each cycle.
"""

import random

import pytest
from txpkg.preferences import eval_criteria, parse_prefs
from txpkg.resolver import Request, RequestAtom, check_solution, parse_request
from txpkg.universe import Status, VersionConstraint, parse_universe

import check
import resolve
import upgrade


def _brute_force(u, s0, request, spec):
    ids = list(u.ids)
    var_of = {pid: i + 1 for i, pid in enumerate(ids)}
    best = None
    for mask in range(1 << len(ids)):
        status = Status(frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1))
        if check_solution(u, status, request, s0).ok:
            key = (eval_criteria(u, s0, status, spec), sorted(var_of[p] for p in status.installed))
            if best is None or key < best[0]:
                best = (key, status.installed)
    return None if best is None else best[1]


def test_reference_optimum_matches_brute_force():
    cases = unsat = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        repo = resolve.make_repository(rng, n)
        u = parse_universe(repo.meta)
        s0 = resolve.installed_at_1(u, repo.installed)
        assert check_solution(u, s0, Request(()), s0).ok  # the installed set is healthy
        for kind, prefs in resolve.request_deck(rng, 6):
            request = parse_request(resolve.make_request(rng, repo, n, kind))
            spec = parse_prefs(prefs)
            expected = _brute_force(u, s0, request, spec)
            assert resolve.reference_optimum(u, s0, request, spec) == expected, (seed, request)
            cases += 1
            unsat += expected is None
    assert cases == 240 and 10 <= unsat < cases // 2


@pytest.mark.parametrize("seed", range(8))
def test_check_plant_confirmed_by_witnesses(seed):
    repo = check.make_repository(random.Random(seed), check.NAMES)
    u = parse_universe(repo.meta)
    # each feature has exactly its providers, and only planted packages are broken
    for feature in check.FEATURES:
        assert len(u.providers_of(feature)) == check.PROVIDERS
    healthy = [pid for pid in u.ids if str(pid) not in repo.broken]
    for pid in healthy:
        request = Request((RequestAtom("install", pid.name, VersionConstraint("=", pid.version)),))
        witness = check.witness(u, pid) if pid.name.startswith("h") else frozenset({pid})
        assert check_solution(u, Status(witness), request).ok, pid
    for pid in u.ids:
        if str(pid) not in repo.broken:
            continue
        deps = u.get(pid).rel.depends
        if pid.name.startswith("ghost") or pid.name.startswith("toonew"):
            assert u.satisfiers(deps[0][0]) == ()
        elif pid.name.startswith("pair"):
            assert [tuple(q.id.name for q in u.satisfiers(c[0])) for c in deps] == [
                ("clasha",), ("clashb",)]
            assert any(a.name == "clashb" for a in u.by_name("clasha")[0].rel.conflicts)
        else:
            assert f"{deps[0][0].name} 1" in repo.broken  # chainK depends on a broken root


def test_check_workload_reports_the_plant(tmp_path, monkeypatch):
    monkeypatch.setattr(check, "NAMES", 30)
    w = check.CheckWorkload(2, tmp_path)
    w.setup(0)
    [(kind, _seconds, ok)] = list(w.run(w.prepare()[0]))
    assert kind == "check" and ok


def test_upgrade_model_predicts_every_cycle(tmp_path, monkeypatch):
    monkeypatch.setattr(upgrade, "NAMES", 24)
    monkeypatch.setattr(upgrade, "CYCLES", 10)
    w = upgrade.UpgradeWorkload(3, tmp_path)
    w.setup(0)
    cycles = w.prepare()  # raises unless the seeded root matches the model
    assert any(c.fails for c in cycles)
    outcomes = [(kind, ok) for c in cycles for kind, _s, ok in w.run(c)]
    assert all(ok for _kind, ok in outcomes), outcomes
    assert sum(kind == "rollback" for kind, _ok in outcomes) == sum(not c.fails for c in cycles)
    assert sum(w.conflicts) > 0  # some conffile upgrades conflicted


def test_upgrade_gate_catches_a_wrong_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(upgrade, "NAMES", 20)
    monkeypatch.setattr(upgrade, "CYCLES", 3)
    w = upgrade.UpgradeWorkload(4, tmp_path)
    w.setup(0)
    cycle = next(c for c in w.prepare() if not c.fails)
    (w.root / "usr/bin/stray").write_bytes(b"not from any package\n")
    assert [ok for _kind, _s, ok in w.run(cycle)] == [False, False]
