"""Benchmark of the ``txpkg`` commands ``solve``, ``check``, ``apply`` and ``rollback``.

    python3 perfbench/run.py --workload resolve|check|upgrade --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One closed-loop client drives ``txpkg.cli.main([... "--json", ...])`` in this
process, one command at a time and without threads: the store admits one
transaction at a time.  Set-up runs several times and its median is
reported.  A run then makes passes over the workload's distinct operations
until ``--seconds`` have gone by, always finishing the pass it is in.  A
fixed calibration runs between commands, and the guarded times are
converted by it to a fixed reference speed (see ``op_ms``).  Every operation's output
is checked; one that differs from the expected outcome counts as failed.

The last line of standard output is the result: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(see ``spans.py``).  The line before it holds the details: the named
metrics of each workload, their tails and sample counts, and for a traced
run the tracing overhead and the layer times of each command.  ``--all``
runs every workload untraced, each in a fresh process, and prints each one's
detail line.  See ``WORKLOADS.md`` for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

from common import WORK, BenchError, at_reference, calibrate, fresh_dir, import_engine, \
    latency_metrics, peak_rss_mb, timed_setups

WORKLOADS = ("resolve", "check", "upgrade")
END_TO_END = {"op_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _workload(name: str, seed: int):
    if name == "resolve":
        from resolve import ResolveWorkload as cls
    elif name == "check":
        from check import CheckWorkload as cls
    else:
        from upgrade import UpgradeWorkload as cls
    return cls(seed, WORK)


class Run:
    """Counts outcomes and latencies over passes of one workload's operations.

    A calibration (:func:`common.calibrate`) runs before the first command
    and after every command.  Each command's time is also kept converted to
    the reference speed by the two calibrations around it.
    """

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.attempted = self.failed = 0
        self.calibrations = [calibrate()]

    def one_pass(self, tracer=None, by_kind=None):
        """Run every operation once; returns (latencies by command kind,
        (seconds, seconds at the reference speed) of each operation's
        primary command)."""
        samples, primary = defaultdict(list), []
        for op in self.ops:
            mark = dict(tracer.times) if tracer else None
            for kind, seconds, ok in self.workload.run(op, tracer):
                self.calibrations.append(calibrate())
                before, after = self.calibrations[-2:]
                self.attempted += 1
                self.failed += not ok
                samples[kind].append(seconds)
                if kind == self.workload.primary:
                    primary.append((seconds, at_reference(seconds, before, after)))
                if tracer is not None:
                    now = dict(tracer.times)
                    layers = by_kind.setdefault(kind, defaultdict(float))
                    for key, value in now.items():
                        layers[key] += value - mark.get(key, 0.0)
                    layers["#commands"] += 1
                    layers["#seconds"] += seconds
                    mark = now
        return samples, primary


def per_operation(per_pass: list[list[tuple]], which: int, stat=statistics.median) -> float:
    """Mean over distinct operations of ``stat`` of each one's samples over the
    passes, in ms: ``which`` 0 picks seconds on the clock, 1 seconds at the
    reference speed."""
    return statistics.mean(stat([sample[which] for sample in op]) for op in zip(*per_pass)) * 1e3


def op_ms(per_pass) -> float:
    """The guarded latency: per operation, the median over passes of its time
    at the reference speed; then the mean over operations.

    On a shared 2-vCPU x86-64 host, single-thread speed drifted by up to 2x
    over minutes, and identical commands spread by 50% (IQR over median)
    within one minute.  The calibration slows with the host and not with
    the engine, so a time over the calibrations around it cancels the drift:
    over ten 15-second windows of ``check``, this figure spread by 5%, the
    per-operation fastest time on the clock by 11% and the median on the
    clock by 32%.
    """
    return per_operation(per_pass, 1)


def measure(workload, seconds: float) -> tuple[dict, dict]:
    setup_s, setup_wall_s = timed_setups(workload.setup, workload.setups)
    rss = {"setup": peak_rss_mb()}
    run = Run(workload, workload.prepare())
    rss["prepare"] = peak_rss_mb()
    start, passes = time.perf_counter(), []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run.one_pass())
    rss["passes"] = peak_rss_mb()
    samples = defaultdict(list)
    for pass_samples, _primary in passes:
        for kind, values in pass_samples.items():
            samples[kind] += values
    primary = [p for _s, p in passes]
    metrics = {"op_ms": op_ms(primary), "setup_s": setup_s, "peak_rss_mb": rss["passes"]}
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
             "setup_wall_s": {"value": setup_wall_s, "unit": "s"},
             "failed_frac": {"value": run.failed / max(run.attempted, 1), "unit": "ratio"},
             "op_wall_ms_median": {"value": per_operation(primary, 0), "unit": "ms"},
             "op_wall_ms_fastest": {"value": per_operation(primary, 0, min), "unit": "ms"},
             "calibration_ms": {"value": statistics.median(run.calibrations) * 1e3, "unit": "ms"}}
    for kind, values in samples.items():
        named.update(latency_metrics(kind, values))
    named.update(workload.named())
    detail = {"passes": len(passes), "operations": len(run.ops), "named": named,
              "peak_rss_mb_after": rss}
    return {"attempted": run.attempted, "failed": run.failed, "metrics": metrics}, detail


def measure_traced(workload, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, so that drift in the machine's
    speed falls on both sides of the tracing overhead alike."""
    from spans import LAYERS, METRICS, RATIOS, Tracer
    timed_setups(workload.setup, 1)
    run = Run(workload, workload.prepare())
    tracer = Tracer()
    by_kind: dict = {}
    plain = defaultdict(list)
    counts, untraced, traced = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        samples, primary = run.one_pass()
        untraced.append(primary)
        for kind, values in samples.items():
            plain[kind] += values
        tracer.install()
        try:
            traced.append(run.one_pass(tracer, by_kind)[1])
        finally:
            tracer.uninstall()
        tracer.close_transactions()
        counts.append(dict(tracer.counts))
    per_pass = [counts[0]] + [{k: c.get(k, 0) - prev.get(k, 0) for k in c}
                              for prev, c in zip(counts, counts[1:])]
    noisy = sorted(k for k in set().union(*per_pass)
                   if len({p.get(k, 0) for p in per_pass}) > 1)
    values = tracer.report(len(traced) * len(run.ops))
    metrics = {}
    for name, (unit, _meaning) in METRICS.items():
        metrics[name] = {"value": values[name], "unit": unit}
        if values[name] is None:
            metrics[name]["absent"] = True
        if any(source in noisy for source in RATIOS.get(name, (name,))):
            metrics[name]["noisy"] = True
    commands = {}
    for kind, acc in by_kind.items():
        n = acc["#commands"]
        layers = {layer: acc.get(f"{layer}.self_ms", 0.0) * 1e3 / n for layer in LAYERS}
        commands[kind] = {"traced_ms": acc["#seconds"] * 1e3 / n,
                          "untraced_ms": statistics.mean(plain[kind]) * 1e3,
                          "layer_self_ms": layers, "layer_sum_ms": sum(layers.values()),
                          "bookkeeping_ms": acc.get("trace.bookkeeping_ms", 0.0) * 1e3 / n}
    detail = {"untraced_op_ms": op_ms(untraced), "traced_op_ms": op_ms(traced),
              "tracing_overhead_ms": op_ms(traced) - op_ms(untraced),
              "untraced_op_wall_ms": per_operation(untraced, 0),
              "traced_op_wall_ms": per_operation(traced, 0),
              "traced_passes": len(traced),
              "commands": commands, "noisy_counters": noisy, "absent": sorted(tracer.absent)}
    return {"attempted": run.attempted, "failed": run.failed, "metrics": metrics}, detail


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, each in its own process; prints each detail line."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, "exit": proc.returncode,
                          **(json.loads(lines[-2]) if len(lines) >= 2 else {}),
                          **(json.loads(lines[-1]) if lines else {})}, sort_keys=True))
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, int(args.seconds))
    if args.workload is None:
        parser.error("--workload is required without --all")
    try:
        import_engine()
        workload = _workload(args.workload, args.seed)
        # the engine stages payloads in a temporary directory: keep it in the checkout
        tempfile.tempdir = str(fresh_dir(WORK / "tmp"))
        result, detail = (measure_traced if args.trace else measure)(workload, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": detail}, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
