"""Per-layer spans and counters, recorded by wrappers the benchmark installs
around the engine's public callables.  No engine file changes.

Each wrapper replaces a callable where its caller looks it up (for example
``txpkg.cli.plan``, which ``cli`` calls, rather than ``txpkg.planner.plan``)
and records a span: its layer, its duration, and the time its child spans
cover.  A layer's self time is the sum of its spans' durations minus their
children's.  The wrapper's own bookkeeping after the call is charged to no
layer; it is summed as ``trace.bookkeeping_ms``.

Callables are found by name.  One that is missing (a refactor removed or
renamed it) makes the metrics only it feeds *absent*; the run carries on.

No layer waits on a queue or lock in this benchmark (one client, one
process), so no wait time is recorded.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "universe", "resolver", "sat", "preferences", "planner", "mscript",
          "confmerge", "txn")

#: Per-layer metrics, in report order: name -> (unit, meaning).
METRICS = {
    **{f"{layer}.self_ms": ("ms", f"self time of the {layer} layer") for layer in LAYERS},
    "universe.parse_ms": ("ms", "parse_universe"),
    "universe.packages": ("count", "packages parsed"),
    "resolver.encode_ms": ("ms", "encode"),
    "resolver.encode_calls": ("count", "encode calls"),
    "resolver.clauses": ("count", "clauses in the returned Cnf"),
    "resolver.check_solution_ms": ("ms", "check_solution"),
    "resolver.explain_unsat_ms": ("ms", "explain_unsat"),
    "sat.solver_calls": ("count", "DpllSolver instances constructed"),
    "sat.init_ms": ("ms", "DpllSolver.__init__"),
    "sat.solve_ms": ("ms", "DpllSolver.solve"),
    "sat.minimize_ms": ("ms", "DpllSolver.minimize"),
    "sat.nodes": ("count", "calls to the prune callback handed to search"),
    "sat.models": ("count", "calls to the on_model callback"),
    "sat.pruned_frac": ("ratio", "prune calls that cut, over prune calls"),
    "preferences.optimize_ms": ("ms", "optimize, self time"),
    "preferences.models_scored": ("count", "eval_criteria calls"),
    "planner.plan_ms": ("ms", "plan, self time (the action layout)"),
    "planner.actions": ("count", "actions in the returned plan"),
    "planner.retrieve_ms": ("ms", "retrieve"),
    "planner.retrieve_bytes": ("bytes", "bytes staged by retrieve"),
    "planner.execute_ms": ("ms", "execute_plan, self time"),
    "mscript.execute_ms": ("ms", "execute"),
    "mscript.steps": ("count", "effect-log records"),
    "mscript.compute_cache_ms": ("ms", "compute_cache"),
    "mscript.cache_files_hashed": ("count", "lines in the returned caches"),
    "mscript.cache_superseded_frac": ("ratio",
                                      "caches computed again later in the same transaction"),
    "confmerge.upgrade_conffile_ms": ("ms", "upgrade_conffile"),
    "confmerge.merge_ms": ("ms", "structured_merge"),
    "confmerge.pristine_lookups": ("count", "PristineStore.entries calls"),
    "confmerge.conflicts": ("count", "conffile upgrades that conflicted"),
    "txn.write_through_ms": ("ms", "Transaction.write_through"),
    "txn.writes": ("count", "write_through calls"),
    "txn.bytes_written": ("bytes", "bytes passed to write_through"),
    "txn.journal_entries": ("count", "journal entries at commit"),
    "txn.trim_kept_frac": ("ratio", "trim output over its input"),
    "txn.commit_ms": ("ms", "Transaction.commit"),
    "txn.rollback_ms": ("ms", "Transaction.rollback (in-transaction)"),
    "txn.rollbacks": ("count", "Transaction.rollback calls"),
    "txn.rollback_to_ms": ("ms", "Store.rollback_to"),
    "txn.state_token_calls": ("count", "Store.state_token calls"),
    "trace.bookkeeping_ms": ("ms", "time the wrappers spent outside every span"),
}

#: Ratios: metric -> (numerator counter, denominator counter).
RATIOS = {
    "sat.pruned_frac": ("sat.prunes_cut", "sat.nodes"),
    "txn.trim_kept_frac": ("txn.trim_kept", "txn.trim_input"),
    "mscript.cache_superseded_frac": ("mscript.caches_superseded", "mscript.caches"),
}


class Tracer:
    """Accumulates span times and counters; one instance per traced run."""

    def __init__(self):
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self.times: dict[str, float] = defaultdict(float)  # seconds, by metric name
        self.counts: dict[str, int] = defaultdict(int)
        self._caches: dict[int, list[str]] = defaultdict(list)  # transaction -> cache paths
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        #: Last value each wrapped callable returned, by "module:path".
        self.last: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, key: str, layer: str, metric: str | None = None,
             self_time: bool = False, after=None, prepare=None):
        """A wrapper recording a ``layer`` span around ``fn``.

        ``metric`` gets the span's duration, or its self time with
        ``self_time``.  ``after(result, error, args, kwargs)`` updates
        counters once the span has closed.  ``prepare(fn, args, kwargs)``
        may replace the arguments (to count calls of a callback).
        """
        stack, times, last = self._stack, self.times, self.last

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(fn, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            result = error = None
            try:
                result = last[key] = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                own = t1 - t0 - frame[0]
                times[f"{layer}.self_ms"] += own
                if metric:
                    times[metric] += own if self_time else t1 - t0
                if after is not None:
                    after(result, error, args, kwargs)
                t2 = time.perf_counter()
                times["trace.bookkeeping_ms"] += t2 - t1
                if stack:
                    stack[-1][0] += t2 - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every target found; record the metrics of missing ones as absent."""
        fed: dict[str, bool] = {}
        for module, path, layer, metric, self_time, after, feeds, *prepare in _targets(self):
            owner, name = _lookup(module, path)
            found = owner is not None
            for m in ((metric,) if metric else ()) + feeds:
                fed[m] = fed.get(m, False) or found
            if not found:
                continue
            original = inspect.getattr_static(owner, name)
            self._patches.append((owner, name, original))
            setattr(owner, name, self.wrap(getattr(owner, name), f"{module}:{path}", layer,
                                           metric, self_time, after, *prepare))
        self.absent = {m for m, ok in fed.items() if not ok}

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def close_transactions(self) -> None:
        """Count cache results superseded within each finished transaction."""
        for paths in self._caches.values():
            self.counts["mscript.caches"] += len(paths)
            self.counts["mscript.caches_superseded"] += sum(
                1 for i, p in enumerate(paths) if p in paths[i + 1:])
        self._caches.clear()

    def report(self, ops: int) -> dict:
        """Every per-layer metric per operation, or None when absent."""
        self.close_transactions()
        out = {}
        for name, (unit, _meaning) in METRICS.items():
            if name in self.absent:
                out[name] = None
            elif name in RATIOS:
                num, den = RATIOS[name]
                d = self.counts.get(den, 0)
                out[name] = self.counts.get(num, 0) / d if d else 0.0
            elif unit == "ms":
                out[name] = self.times.get(name, 0.0) * 1e3 / ops
            else:
                out[name] = self.counts.get(name, 0) / ops
        return out


def _lookup(module: str, path: str):
    """(object owning the last name, that name), or (None, None) if any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return (owner, name) if hasattr(owner, name) else (None, None)


def _targets(tr: Tracer):
    """(module, attribute path, layer, metric, self time?, after hook, other metrics
    fed[, argument hook])."""

    def counter(name, measure=lambda result, args, kwargs: 1):
        def after(result, error, args, kwargs):
            if error is None:
                tr.count(name, measure(result, args, kwargs))
        return after

    def chain(*hooks):
        def after(*a):
            for hook in hooks:
                hook(*a)
        return after

    def counted_callbacks(fn, args, kwargs):
        """Count the search's calls of its ``prune`` and ``on_model`` callbacks."""
        bound = inspect.signature(fn).bind(*args, **kwargs)
        prune, on_model = bound.arguments.get("prune"), bound.arguments.get("on_model")
        if prune is not None:
            def counting_prune(assign):
                cut = prune(assign)
                tr.counts["sat.nodes"] += 1
                tr.counts["sat.prunes_cut"] += bool(cut)
                return cut
            bound.arguments["prune"] = counting_prune
        if on_model is not None:
            def counting_on_model(model):
                tr.counts["sat.models"] += 1
                return on_model(model)
            bound.arguments["on_model"] = counting_on_model
        return bound.args, bound.kwargs

    def staged_bytes(result, args, kwargs):
        pkg, _repo, staging = args[:3]
        staged = Path(staging) / f"{pkg.name}_{pkg.version}"
        return sum(f.stat().st_size for f in staged.rglob("*") if f.is_file())

    def steps(result, error, args, kwargs):
        if error is None:
            tr.count("mscript.steps", len(result))
        elif hasattr(error, "log"):
            tr.count("mscript.steps", len(error.log))

    def cache(result, error, args, kwargs):
        if error is None:
            txn, path = args[:2]
            tr._caches[id(txn)].append(path)
            tr.count("mscript.cache_files_hashed", result.count(b"\n"))

    def written(result, error, args, kwargs):
        if error is None:
            tr.count("txn.writes")
            data = args[2] if len(args) > 2 else kwargs.get("data")
            tr.count("txn.bytes_written", len(data) if data is not None else 0)

    def trimmed(result, error, args, kwargs):
        if error is None:
            tr.count("txn.trim_input", len(args[0]))
            tr.count("txn.trim_kept", len(result))

    def committed(result, error, args, kwargs):
        if error is None:
            tr.count("txn.journal_entries", len(args[0].journal_entries()))
            tr.close_transactions()

    def conflicted(result, error, args, kwargs):
        if error is None and result.kind == "conflict":
            tr.count("confmerge.conflicts")

    return [
        ("txpkg.cli", "main", "cli", None, False, None, ()),
        ("txpkg.cli", "parse_universe", "universe", "universe.parse_ms", False,
         counter("universe.packages", lambda r, a, k: len(r)), ("universe.packages",)),
        ("txpkg.txn", "parse_status", "universe", None, False, None, ()),
        ("txpkg.cli", "health_check", "resolver", None, False, None, ()),
        *[(mod, "encode", "resolver", "resolver.encode_ms", False,
           chain(counter("resolver.encode_calls"),
                 counter("resolver.clauses", lambda r, a, k: len(r.clauses))),
           ("resolver.encode_calls", "resolver.clauses"))
          for mod in ("txpkg.resolver", "txpkg.preferences")],
        *[(mod, "check_solution", "resolver", "resolver.check_solution_ms", False, None, ())
          for mod in ("txpkg.resolver", "txpkg.preferences")],
        *[(mod, "explain_unsat", "resolver", "resolver.explain_unsat_ms", False, None, ())
          for mod in ("txpkg.resolver", "txpkg.preferences")],
        ("txpkg.sat", "DpllSolver.__init__", "sat", "sat.init_ms", False,
         counter("sat.solver_calls"), ("sat.solver_calls",)),
        ("txpkg.sat", "DpllSolver.solve", "sat", "sat.solve_ms", False, None, ()),
        ("txpkg.sat", "DpllSolver.minimize", "sat", "sat.minimize_ms", False, None, ()),
        ("txpkg.sat", "DpllSolver.search", "sat", None, False, None,
         ("sat.nodes", "sat.models", "sat.pruned_frac"), counted_callbacks),
        ("txpkg.planner", "optimize", "preferences", "preferences.optimize_ms", True, None, ()),
        ("txpkg.preferences", "eval_criteria", "preferences", None, False,
         counter("preferences.models_scored"), ("preferences.models_scored",)),
        ("txpkg.cli", "plan", "planner", "planner.plan_ms", True,
         counter("planner.actions", lambda r, a, k: len(r.actions)), ("planner.actions",)),
        ("txpkg.cli", "execute_plan", "planner", "planner.execute_ms", True, None, ()),
        ("txpkg.planner", "retrieve", "planner", "planner.retrieve_ms", False,
         counter("planner.retrieve_bytes", staged_bytes), ("planner.retrieve_bytes",)),
        ("txpkg.mscript", "parse_script", "mscript", None, False, None, ()),
        ("txpkg.mscript", "execute", "mscript", "mscript.execute_ms", False, steps,
         ("mscript.steps",)),
        ("txpkg.mscript", "compute_cache", "mscript", "mscript.compute_cache_ms", False, cache,
         ("mscript.cache_files_hashed", "mscript.cache_superseded_frac")),
        ("txpkg.confmerge", "upgrade_conffile", "confmerge", "confmerge.upgrade_conffile_ms",
         False, conflicted, ("confmerge.conflicts",)),
        ("txpkg.confmerge", "structured_merge", "confmerge", "confmerge.merge_ms", False, None, ()),
        ("txpkg.confmerge", "PristineStore.entries", "confmerge", None, False,
         counter("confmerge.pristine_lookups"), ("confmerge.pristine_lookups",)),
        ("txpkg.txn", "Transaction.write_through", "txn", "txn.write_through_ms", False, written,
         ("txn.writes", "txn.bytes_written")),
        ("txpkg.txn", "Transaction.mkdir", "txn", None, False, None, ()),
        ("txpkg.txn", "trim", "txn", None, False, trimmed, ("txn.trim_kept_frac",)),
        ("txpkg.txn", "Transaction.commit", "txn", "txn.commit_ms", False, committed,
         ("txn.journal_entries",)),
        ("txpkg.txn", "Transaction.rollback", "txn", "txn.rollback_ms", False,
         chain(counter("txn.rollbacks"), lambda *a: tr.close_transactions()), ("txn.rollbacks",)),
        ("txpkg.txn", "Store.begin", "txn", None, False, None, ()),
        ("txpkg.txn", "Store.load_status", "txn", None, False, None, ()),
        ("txpkg.txn", "Store.rollback_to", "txn", "txn.rollback_to_ms", False, None, ()),
        ("txpkg.txn", "Store.state_token", "txn", None, False,
         counter("txn.state_token_calls"), ("txn.state_token_calls",)),
    ]
