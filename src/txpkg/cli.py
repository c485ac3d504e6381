"""Command line front end.

One executable, apt-style subcommands::

    txpkg --root R --repo P check
    txpkg --root R --repo P solve   "install aterm"
    txpkg --root R --repo P apply   "install aterm" [--dry-run] [--purge] [--keep N]
    txpkg --root R rollback ID [--force]
    txpkg --root R history
    txpkg merge-config BASE LOCAL INCOMING [--syntax lines|keyvalue] [-o OUT]
    txpkg lint-script FILE

Exit codes are a stable contract: 0 success, 1 domain failure (unsolvable
request, unhealthy packages, missing history, merge conflict), 2 malformed
input or configuration, 3 script failure during apply (store restored),
4 I/O failure during apply (store restored).  ``--json`` switches reports to
machine-readable records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .confmerge import structured_merge
from .mscript import ScriptSyntaxError, classify, parse_script
from .planner import ResolutionFailure, execute_plan, plan, simulate
from .preferences import DEFAULT_PREFS, PreferenceError, parse_prefs
from .resolver import RequestError, health_check, parse_request
from .txn import (
    DEFAULT_PRESERVE,
    AlreadyLocked,
    CorruptedJournal,
    GapInHistory,
    Store,
    StoreError,
)
from .universe import MetadataError, decode_text, parse_universe

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SCRIPT = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txpkg",
        description="Transactional package manager over a sandboxed root.")
    parser.add_argument("--version", action="version", version=f"txpkg {__version__}")
    parser.add_argument("--root", help="sandbox root directory")
    parser.add_argument("--repo", help="repository directory (Packages file plus payloads)")
    parser.add_argument("--prefs", default=DEFAULT_PREFS,
                        help=f"preference criteria (default: {DEFAULT_PREFS})")
    parser.add_argument("--preserve", action="append", default=None, metavar="GLOB",
                        help="path glob to skip on rollback (repeatable; "
                             "default: var/log/**, home/**)")
    parser.add_argument("--json", action="store_true", help="emit machine-readable reports")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="report packages that can never be installed")

    p_solve = sub.add_parser("solve", help="resolve a request and print the plan")
    p_solve.add_argument("request")

    p_apply = sub.add_parser("apply", help="resolve and execute a request")
    p_apply.add_argument("request")
    p_apply.add_argument("--dry-run", action="store_true",
                         help="print the plan without touching the store")
    p_apply.add_argument("--purge", action="store_true",
                         help="also delete conffiles of removed packages")
    p_apply.add_argument("--keep", type=int, default=None, metavar="N",
                         help="prune history to the newest N records after success")

    p_roll = sub.add_parser("rollback", help="restore the state before a past transaction")
    p_roll.add_argument("history_id", type=int)
    p_roll.add_argument("--force", action="store_true",
                        help="restore even if files changed outside the engine")

    sub.add_parser("history", help="list committed transactions")

    p_merge = sub.add_parser("merge-config", help="three-way merge of arbitrary files")
    p_merge.add_argument("base")
    p_merge.add_argument("local")
    p_merge.add_argument("incoming")
    p_merge.add_argument("--syntax", choices=("lines", "keyvalue"), default="lines")
    p_merge.add_argument("-o", "--output", help="write the merged content here (default stdout)")

    p_lint = sub.add_parser("lint-script", help="parse and classify a maintainer script")
    p_lint.add_argument("file")
    return parser


def _store(args) -> Store:
    if not args.root:
        raise ConfigError("--root is required for this command")
    root = Path(args.root)
    if not root.is_dir():
        raise ConfigError(f"root {args.root!r} is not a directory")
    preserve = tuple(args.preserve) if args.preserve is not None else DEFAULT_PRESERVE
    return Store(root, preserve=preserve)


def _repo_universe(args):
    if not args.repo:
        raise ConfigError("--repo is required for this command")
    repo = Path(args.repo)
    if not repo.is_dir():
        raise ConfigError(f"repo {args.repo!r} is not a directory")
    if args.root and Path(args.root).resolve() == repo.resolve():
        raise ConfigError("--root and --repo must be distinct directories")
    index = repo / "Packages"
    if not index.is_file():
        raise ConfigError(f"repo has no Packages file: {index}")
    return repo, parse_universe(decode_text(index.read_bytes(), index))


def _emit(args, report: dict, text: str) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True))
    elif text:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_check(args) -> int:
    _repo, universe = _repo_universe(args)
    results = health_check(universe)
    broken = [(pid, verdict) for pid, verdict in results if not verdict.ok]
    lines = [f"broken: {pid}: {verdict.violations[0].witness}" for pid, verdict in broken]
    lines.append(f"{len(broken)} broken of {len(results)} packages")
    _emit(args, {"broken": [{"package": str(pid), "witness": v.violations[0].witness}
                            for pid, v in broken],
                 "total": len(results)},
          "\n".join(lines))
    return EXIT_OK if not broken else EXIT_FAILURE


def _make_plan(args):
    repo, universe = _repo_universe(args)
    store = _store(args)
    status = store.load_status(universe)
    request = parse_request(args.request)
    spec = parse_prefs(args.prefs)
    return repo, universe, store, plan(universe, status, request, spec)


def cmd_solve(args) -> int:
    _repo, _universe, _store_, plan_ = _make_plan(args)
    diff = plan_.diff
    transcript = simulate(plan_)
    _emit(args, {"result": "plan",
                 "summary": {"upgraded": len(diff.changed), "new": len(diff.new),
                             "removed": len(diff.removed), "download_kb": diff.download_kb},
                 "transcript": transcript},
          transcript)
    return EXIT_OK


def cmd_apply(args) -> int:
    if args.keep is not None and args.keep < 0:
        raise ConfigError(f"--keep must be non-negative, got {args.keep}")
    if args.dry_run:
        return cmd_solve(args)
    repo, _universe, store, plan_ = _make_plan(args)
    outcome = execute_plan(plan_, store, repo, purge=args.purge)
    if outcome.result == "success" and args.keep is not None:
        store.prune_history(args.keep)
    report = {
        "result": outcome.result,
        "failing": outcome.failing,
        "conffile_conflicts": list(outcome.conffile_conflicts),
        "history_id": outcome.history_id,
        "notes": list(outcome.notes),
    }
    lines = [simulate(plan_).rstrip("\n")]
    for path in outcome.conffile_conflicts:
        lines.append(f"conffile conflict: {path} (incoming kept as {path}.pkgnew)")
    if outcome.result == "success":
        if outcome.history_id is not None:
            lines.append(f"applied as transaction {outcome.history_id}")
        else:
            lines.append("nothing to do")
        _emit(args, report, "\n".join(lines))
        return EXIT_OK
    lines.append(f"failed ({outcome.result}): {outcome.failing}")
    lines.append("store restored to its previous state")
    _emit(args, report, "\n".join(lines))
    return EXIT_SCRIPT if outcome.result == "script-failure" else EXIT_IO


def cmd_rollback(args) -> int:
    store = _store(args)
    try:
        skipped = store.rollback_to(args.history_id, force=args.force)
    except GapInHistory as e:
        _emit(args, {"result": "gap-in-history", "detail": str(e)}, f"error: {e}")
        return EXIT_FAILURE
    except CorruptedJournal as e:
        _emit(args, {"result": "corrupted-journal", "detail": str(e)}, f"error: {e}")
        return EXIT_FAILURE
    lines = [f"preserved (not restored): {path}" for path in skipped]
    lines.append(f"store restored to before transaction {args.history_id}")
    _emit(args, {"result": "rolled-back", "target": args.history_id, "preserved": skipped},
          "\n".join(lines))
    return EXIT_OK


def cmd_history(args) -> int:
    store = _store(args)
    records = [store.read_history(hid) for hid in store.history_ids()]
    report = [{"id": rec.id, "timestamp": rec.meta.get("timestamp", ""),
               "outcome": rec.meta.get("outcome", ""), "request": rec.meta.get("request", "")}
              for rec in records]
    lines = [f"{rec.id}\t{rec.meta.get('timestamp', '')}\t{rec.meta.get('outcome', '')}"
             f"\t{rec.meta.get('request', '')}" for rec in records]
    if not lines:
        lines = ["no history"]
    _emit(args, {"records": report}, "\n".join(lines))
    return EXIT_OK


def cmd_merge_config(args) -> int:
    paths = [Path(args.base), Path(args.local), Path(args.incoming)]
    for p in paths:
        if not p.is_file():
            raise ConfigError(f"{p} is not a file")
    base, local, incoming = (p.read_bytes() for p in paths)
    outcome = structured_merge(base, local, incoming, syntax=args.syntax)
    if args.output:
        Path(args.output).write_bytes(outcome.content)
    if args.json:
        print(json.dumps({"kind": outcome.kind, "fell_back": outcome.fell_back,
                          "conflicts": len(outcome.conflict_hunks)}, sort_keys=True))
    else:
        if not args.output:
            sys.stdout.buffer.write(outcome.content)
        print(f"merge: {outcome.kind}"
              + (" (fell back to line merge)" if outcome.fell_back else ""),
              file=sys.stderr)
    return EXIT_OK if outcome.kind != "conflict" else EXIT_FAILURE


def cmd_lint_script(args) -> int:
    path = Path(args.file)
    if not path.is_file():
        raise ConfigError(f"{path} is not a file")
    program = parse_script(decode_text(path.read_bytes(), path), str(path))
    kind = classify(program)
    _emit(args, {"steps": len(program.steps), "class": kind},
          f"ok: {len(program.steps)} steps, class: {kind}")
    return EXIT_OK


_HANDLERS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "apply": cmd_apply,
    "rollback": cmd_rollback,
    "history": cmd_history,
    "merge-config": cmd_merge_config,
    "lint-script": cmd_lint_script,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ResolutionFailure as e:  # from solve and apply
        _emit(args, {"result": "resolution-failure", "detail": str(e)}, f"error: {e}")
        return EXIT_FAILURE
    except (ConfigError, MetadataError, RequestError, PreferenceError, ScriptSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except AlreadyLocked as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except StoreError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
