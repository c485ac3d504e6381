"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear.
"""

import random
import time
from contextlib import contextmanager

from txpkg.cli import main as cli_main
from txpkg.confmerge import merge3, structured_merge
from txpkg.mscript import ScriptEnv, execute, parse_script, undo
from txpkg.planner import execute_plan, payload_dir, plan
from txpkg.preferences import Criterion, PreferenceSpec, eval_criteria, optimize, parse_prefs
from txpkg.resolver import Solution, Unsat, check_solution, parse_request, solve
from txpkg.universe import Status, parse_universe

import support


@contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"\nacceptance {number} ({name}): FAIL (took {elapsed:.1f}s, budget {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"\nacceptance {number} ({name}): PASS ({elapsed:.1f}s)")


def test_criterion_1_two_package_transcript(tmp_path, capsys):
    with criterion(1, "two-package install transcript", budget_s=1.0):
        repo = support.aterm_repo(tmp_path)
        store = support.new_store(tmp_path)
        code = cli_main(["--root", str(store.root), "--repo", str(repo),
                         "solve", "install aterm"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 upgraded, 2 newly installed, 0 to remove." in out
        assert "Need to get 386kB of archives." in out
        p = plan(parse_universe(support.ATERM_META), Status(),
                 parse_request("install aterm"),
                 parse_prefs("-removed,-changed,-new,-download"))
        assert (len(p.diff.changed), len(p.diff.new),
                len(p.diff.removed), p.diff.download_kb) == (0, 2, 0, 386)


def test_criterion_2_resolver_complete_and_sound():
    with criterion(2, "resolver vs exhaustive oracle, 1000 universes", budget_s=300):
        rng = random.Random(20240201)
        sat_cases = unsat_cases = 0
        for i in range(1000):
            u = support.random_universe(rng, max_size=12)
            s0 = support.random_status(rng, u)
            r = support.random_request(rng, u)
            oracle_says_sat = bool(support.oracle_statuses(u, s0, r))
            result = solve(u, s0, r)
            if oracle_says_sat:
                assert isinstance(result, Solution), f"case {i}: solver missed a solution"
                verdict = check_solution(u, result.status, r, s0)
                assert verdict.ok, f"case {i}: unsound solution: {verdict.violations}"
                sat_cases += 1
            else:
                assert isinstance(result, Unsat), f"case {i}: solver invented a solution"
                unsat_cases += 1
        assert sat_cases > 100 and unsat_cases > 100  # the sample exercised both sides


def _random_spec(rng):
    kinds = ["removed", "changed", "new", "download", "notuptodate"]
    rng.shuffle(kinds)
    crits = [Criterion(k) for k in kinds[: rng.randint(1, len(kinds))]]
    if rng.random() < 0.4:
        crits.insert(rng.randrange(len(crits) + 1),
                     Criterion("blacklist", rng.choice(["maint:evil*", "name:a*", "b*"])))
    return PreferenceSpec(tuple(crits))


def test_criterion_3_preference_optimality():
    with criterion(3, "lexicographic optimality vs oracle, 400 instances", budget_s=300):
        rng = random.Random(20240301)
        optimal_cases = 0
        for i in range(400):
            u = support.random_universe(rng, max_size=10)
            s0 = support.random_status(rng, u)
            r = support.random_request(rng, u)
            spec = _random_spec(rng)
            solutions = support.oracle_statuses(u, s0, r)
            result = optimize(u, s0, r, spec)
            if not solutions:
                assert isinstance(result, Unsat), f"case {i}"
                continue
            assert isinstance(result, Solution), f"case {i}"
            best_vector = min(eval_criteria(u, s0, st, spec) for st in solutions)
            got_vector = eval_criteria(u, s0, result.status, spec)
            assert got_vector == best_vector, (
                f"case {i}: vector {got_vector} != oracle minimum {best_vector}")
            optimal_cases += 1
        assert optimal_cases > 100


def test_criterion_4_atomicity_under_failure(tmp_path):
    with criterion(4, "whole-plan atomicity across every failure point"):
        rng = random.Random(20240401)
        clean_runs = failed_runs = 0
        for idx in range(100):
            u, repo, template, request_text, prefs_text = support.atomicity_scenario(
                rng, tmp_path, idx)
            r = parse_request(request_text)
            spec = parse_prefs(prefs_text)
            s0 = template.load_status(u)
            p = plan(u, s0, r, spec)
            initial_hash = template.tree_hash()
            initial_status = template.status_bytes()

            events = []
            first = support.copy_store(template, tmp_path / "clean-a")
            out = execute_plan(p, first, repo, io_fault=events.append)
            assert out.result == "success", f"scenario {idx}: {out}"
            final_hash = first.tree_hash()
            second = support.copy_store(template, tmp_path / "clean-b")
            out = execute_plan(p, second, repo)
            assert out.result == "success"
            assert second.tree_hash() == final_hash, f"scenario {idx}: nondeterministic"
            clean_runs += 2

            # inject a failing step at every script position
            for action in p.actions:
                if action.kind not in ("prerm", "preinst", "postrm", "postinst"):
                    continue
                pkg = u.get(action.pkg)
                rel = pkg.script_for(action.kind)
                if rel is None:
                    continue
                script_file = payload_dir(repo, pkg) / rel
                original = script_file.read_bytes()
                lines = original.decode().splitlines()
                for k in range(len(lines) + 1):
                    injected = lines[:k] + ["fail injected-abort"] + lines[k:]
                    script_file.write_text("\n".join(injected) + "\n")
                    target = support.copy_store(template, tmp_path / "probe")
                    out = execute_plan(p, target, repo)
                    assert out.result == "script-failure", f"scenario {idx}: {out}"
                    assert target.tree_hash() == initial_hash, (
                        f"scenario {idx}: store not restored after script failure at "
                        f"{action.kind} {action.pkg} step {k}")
                    assert target.status_bytes() == initial_status
                    failed_runs += 1
                script_file.write_bytes(original)

            # inject a simulated I/O failure at every unpack position
            for position in range(len(events)):
                countdown = [position]

                def fault(_event):
                    if countdown[0] == 0:
                        raise OSError("injected disk failure")
                    countdown[0] -= 1

                target = support.copy_store(template, tmp_path / "probe")
                out = execute_plan(p, target, repo, io_fault=fault)
                assert out.result == "io-failure", f"scenario {idx}: {out}"
                assert target.tree_hash() == initial_hash, (
                    f"scenario {idx}: store not restored after io failure at {position}")
                assert target.status_bytes() == initial_status
                failed_runs += 1
        assert clean_runs == 200 and failed_runs >= 300
        print(f"  ({clean_runs} clean runs, {failed_runs} injected failures)", end="")


def test_criterion_5_dsl_undo_identity(tmp_path):
    with criterion(5, "execute;undo identity and undo-mechanism equivalence, 1000 programs"):
        rng = random.Random(20240501)
        a = support.new_store(tmp_path, "undo-a")
        b = support.new_store(tmp_path, "undo-b")
        support.seed_tree(a.root)
        support.seed_tree(b.root)
        baseline = a.tree_hash()
        assert b.tree_hash() == baseline
        env = ScriptEnv(package="demo", old_version="1", new_version="2")
        for i in range(1000):
            program = parse_script(support.random_program_text(rng, max_len=20))
            txn_a = a.begin()
            log = execute(program, txn_a, env)
            undo(log, txn_a)
            hid = txn_a.commit()
            assert a.read_history(hid).entries == [], "undone txn should trim to nothing"
            assert a.tree_hash() == baseline, f"program {i} broke undo identity"

            txn_b = b.begin()
            execute(program, txn_b, env)
            txn_b.rollback()
            assert b.tree_hash() == baseline, f"program {i} broke journal rollback"
        assert a.tree_hash() == b.tree_hash() == baseline


def test_criterion_6_trim_soundness(tmp_path):
    with criterion(6, "rollback invariant under trim, 200 transactions"):
        rng = random.Random(20240601)
        trimmed = support.new_store(tmp_path, "trimmed")
        full = support.new_store(tmp_path, "full")
        support.seed_tree(trimmed.root)
        support.seed_tree(full.root)
        pool = ["etc/motd", "etc/app.conf", "opt/scratch", "usr/share/app/a.txt",
                "usr/share/app/new.bin"]
        for i in range(200):
            before = trimmed.tree_hash()
            assert full.tree_hash() == before
            writes = []
            for _ in range(rng.randint(1, 6)):
                rel = rng.choice(pool)
                writes.append((rel, rng.choice([None, rng.randbytes(8), b"welcome\n"])))
            tid = None
            for store, do_trim in ((trimmed, True), (full, False)):
                txn = store.begin()
                tid = txn.id
                for rel, data in writes:
                    if data is None:
                        if txn.state(rel)[0] != "absent":
                            txn.write_through(rel, None)
                    else:
                        txn.write_through(rel, data)
                if do_trim:
                    txn.commit()
                else:
                    support.commit_untrimmed(txn)
            assert trimmed.tree_hash() == full.tree_hash()
            trimmed.rollback_to(tid)
            full.rollback_to(tid)
            assert trimmed.tree_hash() == full.tree_hash() == before, f"txn {i}"
            size_trimmed = (trimmed.archive_dir / str(tid) / "journal").stat().st_size
            size_full = (full.archive_dir / str(tid) / "journal").stat().st_size
            assert size_trimmed <= size_full, f"txn {i}: trim grew the journal"


def test_criterion_7_merge_properties():
    with criterion(7, "merge identities and keyvalue permutation invariance"):
        rng = random.Random(20240701)
        lines_pool = [b"alpha\n", b"beta\n", b"gamma\n", b"delta\n", b"epsilon\n", b"zeta\n"]

        def random_text():
            return b"".join(rng.choice(lines_pool) for _ in range(rng.randint(0, 6)))

        for i in range(1000):
            base, other = random_text(), random_text()
            took = merge3(base, base, other)
            assert took.content == other, f"case {i}"
            if other != base:
                assert took.kind == "took-new"
            kept = merge3(base, other, base)
            assert kept.content == other, f"case {i}"
            if other != base:
                assert kept.kind == "kept-local"

        keys = ["a", "b", "c", "d", "e"]
        for i in range(500):
            def random_kv():
                return {k: str(rng.randint(0, 3)) for k in keys if rng.random() < 0.7}

            maps = [random_kv() for _ in range(3)]

            def render(mapping, shuffle_rng):
                ks = list(mapping)
                shuffle_rng.shuffle(ks)
                return "".join(f"{k}={mapping[k]}\n" for k in ks).encode()

            canonical = structured_merge(*(render(m, random.Random(0)) for m in maps),
                                         syntax="keyvalue")
            shuffled = structured_merge(
                *(render(m, random.Random(rng.randint(1, 10**6))) for m in maps),
                syntax="keyvalue")
            assert shuffled.kind == canonical.kind, f"case {i}"
            assert shuffled.content == canonical.content, f"case {i}"


def test_criterion_8_health_check_flags_planted_breakage(tmp_path, capsys):
    with criterion(8, "200-package health check finds exactly the planted set",
                   budget_s=30):
        rng = random.Random(20240801)
        healthy = [f"h{i:03d}" for i in range(186)]
        stanzas = []
        closure: dict[str, set] = {}
        for i, name in enumerate(healthy):
            deps = sorted({healthy[rng.randrange(i)] for _ in range(rng.randint(0, 2))
                           if i > 0})
            closure[name] = {name}
            for d in deps:
                closure[name] |= closure[d]
            stanza = f"Package: {name}\nVersion: 1\n"
            if deps:
                stanza += "Depends: " + ", ".join(deps) + "\n"
            stanzas.append(stanza)
        stanzas.append("Package: clasha\nVersion: 1\nConflicts: clashb\n")
        stanzas.append("Package: clashb\nVersion: 1\n")
        closure["clasha"] = {"clasha"}
        closure["clashb"] = {"clashb"}
        planted = []
        for i in range(6):
            stanzas.append(f"Package: badghost{i}\nVersion: 1\nDepends: ghost{i}\n")
            planted.append(f"badghost{i}")
        for i in range(6):
            stanzas.append(f"Package: badpair{i}\nVersion: 1\nDepends: clasha, clashb\n")
            planted.append(f"badpair{i}")
        meta = "\n".join(stanzas)
        u = parse_universe(meta)
        assert len(u) == 200

        # oracle verification of the plant:
        # - each healthy package's dependency closure is a conflict-free
        #   witness of installability
        for name, members in closure.items():
            witness = Status(frozenset(pkg.id for pkg in u if pkg.name in members))
            assert check_solution(u, witness, parse_request(f"install {name}")).ok
        # - ghost dependencies have no satisfier at all
        for i in range(6):
            pkg = u.by_name(f"badghost{i}")[0]
            assert u.satisfiers(pkg.rel.depends[0][0]) == ()
        # - the pair-dependents require both members of a conflicting pair
        for i in range(6):
            pkg = u.by_name(f"badpair{i}")[0]
            sats = [tuple(q.id.name for q in u.satisfiers(clause[0]))
                    for clause in pkg.rel.depends]
            assert sats == [("clasha",), ("clashb",)]
            assert any(a.name == "clashb" for a in u.by_name("clasha")[0].rel.conflicts)

        repo = support.write_repo(tmp_path / "repo", meta, {})
        store = support.new_store(tmp_path)
        code = cli_main(["--root", str(store.root), "--repo", str(repo), "check"])
        out = capsys.readouterr().out
        assert code == 1
        flagged = {line.split(":")[1].strip().split(" ")[0]
                   for line in out.splitlines() if line.startswith("broken:")}
        assert flagged == set(planted)
