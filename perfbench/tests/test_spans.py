"""The traced run: outcomes equal the untraced run's, missing callables are
reported absent, counters repeat exactly, and the layers add up."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import resolve
import run
import spans
import upgrade

BENCH = Path(__file__).resolve().parent.parent


def _small(monkeypatch):
    monkeypatch.setattr(resolve, "REPOS", 3)
    monkeypatch.setattr(check, "NAMES", 30)
    monkeypatch.setattr(upgrade, "NAMES", 20)
    monkeypatch.setattr(upgrade, "CYCLES", 10)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_outcomes_match(name, tmp_path, monkeypatch):
    _small(monkeypatch)
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = run._workload(name, 5)
    workload.setup(0)
    ops = workload.prepare()
    plain = [(kind, ok) for op in ops for kind, _s, ok in workload.run(op)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [(kind, ok) for op in ops for kind, _s, ok in workload.run(op, tracer)]
    finally:
        tracer.uninstall()
    assert traced == plain and all(ok for _kind, ok in plain)
    assert not tracer.absent
    layers = sum(tracer.times[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert layers > 0


def test_uninstall_restores_every_callable():
    import txpkg.cli
    import txpkg.sat
    before = (txpkg.cli.main, txpkg.sat.DpllSolver.__dict__["search"])
    tracer = spans.Tracer()
    tracer.install()
    assert txpkg.cli.main is not before[0]
    tracer.uninstall()
    assert (txpkg.cli.main, txpkg.sat.DpllSolver.__dict__["search"]) == before


def test_missing_callable_is_reported_absent(monkeypatch):
    import txpkg.sat
    monkeypatch.delattr(txpkg.sat.DpllSolver, "minimize")
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = tracer.report(1)
    finally:
        tracer.uninstall()
    assert tracer.absent == {"sat.minimize_ms"}
    assert report["sat.minimize_ms"] is None and report["sat.solve_ms"] == 0.0


def test_spans_nest_into_self_times():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "k", "sat")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "k", "planner", "planner.plan_ms",
                        self_time=True)
    outer()
    assert tracer.times["sat.self_ms"] > 0
    assert tracer.times["planner.plan_ms"] == tracer.times["planner.self_ms"]
    assert not tracer._stack


_COUNTERS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import common
common.import_engine()
import check, resolve, run, upgrade
from pathlib import Path
resolve.REPOS, check.NAMES, upgrade.NAMES, upgrade.CYCLES = 3, 30, 20, 10
out = {{}}
for name in run.WORKLOADS:
    workload = run._workload(name, 9)
    workload.work = Path({work!r}) / name
    result, detail = run.measure_traced(workload, 0)
    out[name] = {{"noisy": detail["noisy_counters"],
                 "counts": {{k: m["value"] for k, m in result["metrics"].items()
                            if m["unit"] != "ms"}}}}
print(json.dumps(out, sort_keys=True))
"""


def test_work_counters_repeat_across_hash_seeds(tmp_path):
    outputs = []
    for hash_seed in ("0", "4242"):
        code = _COUNTERS.format(src=str(BENCH.parent / "src"), bench=str(BENCH),
                                work=str(tmp_path / hash_seed))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed}, timeout=600,
                              check=True)
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = outputs
    for name in run.WORKLOADS:
        assert first[name]["noisy"] == [] and second[name]["noisy"] == []
    assert first == second
    assert first["resolve"]["counts"]["sat.nodes"] > 0
    assert first["check"]["counts"]["resolver.clauses"] > 0
    assert first["upgrade"]["counts"]["txn.journal_entries"] > 0
    assert first["upgrade"]["counts"]["mscript.cache_files_hashed"] > 0


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "resolve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
