"""Pieces shared by the three workloads: the engine import, the in-process
command call, the work directory, the calibration and the latency summaries."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every file the benchmark writes lives under here; run.py removes it on exit.
WORK = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, the engine sources are missing)."""


def import_engine():
    """Import ``txpkg`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "txpkg" / "__init__.py").is_file():
        raise BenchError(f"engine sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import txpkg
    if Path(txpkg.__file__).resolve().parent != SRC / "txpkg":
        raise BenchError(f"txpkg imported from {txpkg.__file__}, not from {SRC}")
    return txpkg


def deck(rng, items, count: int) -> list:
    """``count`` draws from shuffled copies of ``items``, one copy after another.

    Every whole copy holds the items in their exact proportions, so a
    quantity drawn from a deck (a share of request kinds, a number of
    dependency clauses) varies far less from seed to seed than one drawn
    item by item.
    """
    out: list = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out += block
    return out[:count]


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def flush_tree(path: Path) -> None:
    """Write every file under ``path`` through to the disk.

    Set-up calls it on the files it has just written, before it times the
    engine on them.  Left to the kernel's background writeback, those writes
    ran during the engine's own file work and slowed it at random: over five
    processes, the median of three seedings of the ``upgrade`` root read from
    3.2 s to 4.9 s at the reference speed, and from 3.7 s to 4.2 s with the
    repository flushed first.
    """
    for f in path.rglob("*"):
        if f.is_file():
            fd = os.open(f, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one ``txpkg`` command in-process; returns (exit code, stdout, seconds).

    The command's module is looked up at call time, so a traced run's
    wrapper around ``txpkg.cli.main`` is the one that runs.
    """
    from txpkg import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # the command line itself was refused
            code = e.code
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def json_report(stdout: str):
    """The last line a ``--json`` command printed, decoded; None if absent or garbled."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(p, value) for the highest whole percentile p with at least ten samples
    beyond it, where percentile p reads the sample at rank ceil(p/100 * n).
    None when there are too few samples for any percentile to qualify."""
    n, ordered, best = len(samples), sorted(samples), None
    for p in range(50, 100):
        rank = -(-p * n // 100)  # ceil
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def latency_metrics(kind: str, samples: list[float]) -> dict:
    """``<kind>_p50_ms`` and ``<kind>_tail_ms``, with their sample counts."""
    t = tail(samples)
    return {f"{kind}_p50_ms": {"value": statistics.median(samples) * 1e3, "unit": "ms",
                               "samples": len(samples)},
            f"{kind}_tail_ms": {"value": t[1] * 1e3 if t else None, "unit": "ms",
                                "percentile": t[0] if t else None, "samples": len(samples)}}


def calibration_work(rounds: int = 12, packages: int = 300) -> str:
    """A fixed piece of pure-Python work of the engine's kind, about 20 ms on
    a 2-vCPU x86-64 host: parse stanzas into dicts, union frozensets along
    dependencies, sort and hash.  It uses no engine code, so no change to
    the engine changes its cost, and it works in small rounds, so that its
    memory stays well below the engine's."""
    digest = hashlib.sha256()
    for r in range(rounds):
        index: dict[str, list] = {}
        for i in range(1, packages):
            stanza = (f"Package: c{i:04d}\nVersion: {(i + r) % 3 + 1}\n"
                      f"Depends: c{i * 7 % i:04d} | c{i // 2:04d}\n")
            fields = dict(line.split(": ", 1) for line in stanza.splitlines())
            deps = [frozenset(a.strip() for a in clause.split("|"))
                    for clause in fields["Depends"].split(",")]
            index.setdefault(fields["Package"], []).append((int(fields["Version"]), deps))
        reach: dict[str, frozenset] = {}
        for name in sorted(index):
            seen: set = set()
            for _version, deps in index[name]:
                for clause in deps:
                    seen |= clause
                    seen |= reach.get(min(clause), frozenset())
            reach[name] = frozenset(seen)
        digest.update("".join(sorted(reach, key=lambda n: (len(reach[n]), n))).encode())
    return digest.hexdigest()


def calibrate() -> float:
    """Seconds that :func:`calibration_work` takes now.

    Run next to every timed command: a command's time over the mean of the
    calibrations on either side of it is its cost in units of this
    machine's speed at that moment.  The garbage collector is off while it
    runs, so that the objects a command leaves behind do not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: What :func:`calibration_work` takes on the host the benchmark was built on
#: (a shared 2-vCPU x86-64 machine) in its quiet spells: the median of its
#: calibrations over thirty runs was 20-25 ms.  The guarded times are reported
#: at this speed; the number is fixed so that every run, and every commit,
#: uses the same scale.
REFERENCE_CALIBRATION_S = 0.020


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibrations ``before`` and ``after``,
    converted to seconds on a machine whose calibration takes
    :data:`REFERENCE_CALIBRATION_S`."""
    return 2 * seconds / (before + after) * REFERENCE_CALIBRATION_S


def calibrated_call(argv: list[str]) -> tuple[int, str, float]:
    """:func:`call_cli` between two calibrations; returns (exit code, stdout,
    seconds at the reference speed)."""
    before = calibrate()
    code, out, seconds = call_cli(argv)
    return code, out, at_reference(seconds, before, calibrate())


def timed_setups(setup, count: int) -> tuple[float, float]:
    """Run ``setup(i)`` ``count`` times; returns (median of the engine seconds
    at the reference speed that each ``setup(i)`` returns, median seconds of
    the whole set-up on the clock).

    Set-up is repeated so that a median, not one noisy sample, is reported.
    """
    engine, wall = [], []
    for i in range(count):
        start = time.perf_counter()
        engine.append(setup(i))
        wall.append(time.perf_counter() - start)
    return statistics.median(engine), statistics.median(wall)
