"""Upgrade orchestration: plan, retrieve, deploy, configure, recover.

A plan turns the optimizer's chosen status into an ordered action list:

- removal:  prerm -> remove-files -> postrm
- install:  retrieve -> preinst -> unpack -> postinst
- upgrade:  retrieve(new) -> prerm(old) -> preinst(new) ->
            remove-files(old minus new) -> unpack(new) -> postinst(new)

Retrieval happens before the transaction opens, so a missing payload costs
nothing to undo.  Everything after ``begin`` runs through the journal: on any
script or I/O failure the transaction is rolled back wholesale and the store
is byte-identical to its initial state.  Configuration order is topological
over the dependencies installed in the same plan (a package is set up after
the packages it depends on), with cycles broken deterministically at the
smallest edge.  The summary counts and the dry-run transcript both come from
``txpkg.universe.status_diff``, the rule the preference criteria count by.
"""

from __future__ import annotations

import hashlib
import shutil
import stat
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import confmerge, mscript
from .mscript import ScriptEnv, ScriptFailure
from .preferences import PreferenceSpec, optimize
from .resolver import Request, Solution, Unsat
from .txn import Store
from .universe import (
    MetadataError,
    Package,
    PackageId,
    Status,
    StatusDiff,
    Universe,
    decode_text,
    serialize_status,
    status_diff,
)

__all__ = [
    "PlanError",
    "MissingPayload",
    "ResolutionFailure",
    "Action",
    "Plan",
    "Outcome",
    "plan",
    "retrieve",
    "execute_plan",
    "simulate",
    "payload_dir",
]

SCRIPT_HOOKS = ("prerm", "preinst", "postrm", "postinst")


class PlanError(Exception):
    pass


class MissingPayload(PlanError):
    """A payload directory, payload file, or declared script is absent."""


class ResolutionFailure(PlanError):
    """The request has no acceptable solution; wraps the solver's Unsat stub."""

    def __init__(self, unsat: Unsat):
        detail = "; ".join(unsat.witnesses) or "request atoms clash in combination"
        super().__init__(f"no solution: {detail}")
        self.unsat = unsat


@dataclass(frozen=True)
class Action:
    """One plan step.  ``counterpart`` carries the other half of an upgrade
    pair (the old id on new-package actions and vice versa)."""

    kind: str  # retrieve | prerm | preinst | remove-files | unpack | postrm | postinst
    pkg: PackageId
    counterpart: PackageId | None = None

    def __str__(self):
        return f"{self.kind} {self.pkg}"


@dataclass(frozen=True)
class Plan:
    solution: Solution
    actions: tuple[Action, ...]
    diff: StatusDiff
    request: Request
    s0: Status
    universe: Universe


@dataclass(frozen=True)
class Outcome:
    """What an execution did.  On any non-success result after the transaction
    opened, the store is back in its initial state."""

    result: str  # success | resolution-failure | script-failure | io-failure
    failing: str | None = None
    conffile_conflicts: tuple[str, ...] = ()
    history_id: int | None = None
    notes: tuple[str, ...] = ()


def payload_dir(repo_dir, pkg: Package) -> Path:
    return Path(repo_dir) / f"{pkg.name}_{pkg.version}"


def _classify(s0: Status, s: Status):
    """Per-name movement between two statuses: (removals, installs, upgrades).

    ``upgrades`` pairs the highest outgoing with the highest incoming version
    of a name moving on both sides; any other same-name movement degrades to
    plain removals/installs.
    """
    olds: dict[str, list[PackageId]] = {}
    news: dict[str, list[PackageId]] = {}
    for pid in sorted(s0.installed - s.installed, key=lambda i: i.key):
        olds.setdefault(pid.name, []).append(pid)
    for pid in sorted(s.installed - s0.installed, key=lambda i: i.key):
        news.setdefault(pid.name, []).append(pid)
    removals: list[PackageId] = []
    installs: list[PackageId] = []
    upgrades: list[tuple[PackageId, PackageId]] = []
    for name in sorted(set(olds) | set(news)):
        out_ids = olds.get(name, [])
        in_ids = news.get(name, [])
        if out_ids and in_ids:
            upgrades.append((out_ids[-1], in_ids[-1]))
            removals.extend(out_ids[:-1])
            installs.extend(in_ids[:-1])
        else:
            removals.extend(out_ids)
            installs.extend(in_ids)
    return sorted(removals, key=lambda i: i.key), sorted(installs, key=lambda i: i.key), upgrades


def _config_order(nodes: list[PackageId], u: Universe, installed: frozenset) -> list[PackageId]:
    """Topological order (dependencies first) over the plan's incoming ids.

    When a dependency cycle leaves no node ready, the lexicographically
    smallest (source, target) edge is dropped and the sort continues.
    """
    node_set = set(nodes)
    preds: dict[PackageId, set[PackageId]] = {n: set() for n in nodes}
    for pid in nodes:
        for clause in u.get(pid).rel.depends:
            for atom in clause:
                for q in u.satisfiers(atom):
                    if q.id != pid and q.id in node_set and q.id in installed:
                        preds[pid].add(q.id)
    remaining = set(nodes)
    order: list[PackageId] = []
    while remaining:
        ready = sorted((n for n in remaining if not (preds[n] & remaining)),
                       key=lambda i: i.key)
        if ready:
            order.append(ready[0])
            remaining.remove(ready[0])
            continue
        edges = sorted(((src, dst) for dst in remaining for src in preds[dst]
                        if src in remaining), key=lambda e: (e[0].key, e[1].key))
        src, dst = edges[0]
        preds[dst].discard(src)
    return order


def plan(u: Universe, s0: Status, r: Request, spec: PreferenceSpec) -> Plan:
    """Resolve the request under the preference spec and lay out the actions.

    Raises :class:`ResolutionFailure` when no acceptable status exists.
    """
    result = optimize(u, s0, r, spec)
    if isinstance(result, Unsat):
        raise ResolutionFailure(result)
    s = result.status
    removals, installs, upgrades = _classify(s0, s)

    incoming = sorted(installs + [new for _old, new in upgrades], key=lambda i: i.key)
    actions: list[Action] = [Action("retrieve", pid) for pid in incoming]
    for pid in removals:
        actions += [Action("prerm", pid), Action("remove-files", pid), Action("postrm", pid)]
    old_of = {new: old for old, new in upgrades}
    for pid in _config_order(incoming, u, s.installed):
        old = old_of.get(pid)
        if old is None:
            actions += [Action("preinst", pid), Action("unpack", pid), Action("postinst", pid)]
        else:
            actions += [
                Action("prerm", old, pid),
                Action("preinst", pid, old),
                Action("remove-files", old, pid),
                Action("unpack", pid, old),
                Action("postinst", pid, old),
            ]
    return Plan(result, tuple(actions), status_diff(u, s0, s), r, s0, u)


def retrieve(pkg: Package, repo_dir, staging_dir) -> str:
    """Copy one package payload into the staging area and fingerprint it.

    The payload directory must hold every manifest file and every declared
    script; anything missing raises :class:`MissingPayload` (nothing has
    touched the store at that point).  Returns a digest over the staged
    content, stable under re-retrieval.
    """
    src = payload_dir(repo_dir, pkg)
    if not src.is_dir():
        raise MissingPayload(f"{pkg.id}: payload directory {src} missing")
    wanted = list(pkg.files) + [p for p in (pkg.preinst, pkg.postinst, pkg.prerm, pkg.postrm) if p]
    dest = Path(staging_dir) / src.name
    digest = hashlib.sha256()
    for rel in sorted(set(wanted)):
        src_file = src / rel
        if not src_file.is_file():
            raise MissingPayload(f"{pkg.id}: payload file {rel!r} missing")
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src_file, target)
        digest.update(f"{rel}\0".encode())
        digest.update(src_file.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class _DeployError(OSError):
    """Deployment-level inconsistency, e.g. two owners for one path."""


def _script_env(action: Action) -> ScriptEnv:
    pure_removal = action.counterpart is None and action.kind in ("prerm", "postrm")
    if pure_removal:
        return ScriptEnv(package=action.pkg.name, old_version=str(action.pkg.version),
                         new_version=None, hook=action.kind)
    if action.kind == "prerm":  # upgrade: the action carries the old id
        return ScriptEnv(package=action.pkg.name, old_version=str(action.pkg.version),
                         new_version=str(action.counterpart.version), hook=action.kind)
    old = str(action.counterpart.version) if action.counterpart else None
    return ScriptEnv(package=action.pkg.name, old_version=old,
                     new_version=str(action.pkg.version), hook=action.kind)


def _preflight(plan_: Plan, repo_dir, staging: Path):
    """Stage payloads and parse every needed script before the store is touched."""
    universe = plan_.universe
    staged: dict[PackageId, Path] = {}
    scripts: dict[tuple[str, PackageId], mscript.ScriptProgram | None] = {}
    for action in plan_.actions:
        pkg = universe.get(action.pkg)
        if action.kind == "retrieve":
            retrieve(pkg, repo_dir, staging)
            staged[action.pkg] = payload_dir(staging, pkg)
        elif action.kind in SCRIPT_HOOKS:
            key = (action.kind, action.pkg)
            rel = pkg.script_for(action.kind)
            if rel is None:
                scripts[key] = None
                continue
            base = staged.get(action.pkg, payload_dir(repo_dir, pkg))
            script_file = base / rel
            if not script_file.is_file():
                raise MissingPayload(f"{pkg.id}: script {rel!r} missing from payload")
            try:
                scripts[key] = mscript.parse_script(
                    decode_text(script_file.read_bytes(), script_file), str(script_file))
            except (mscript.ScriptSyntaxError, MetadataError) as e:
                raise MissingPayload(f"{pkg.id}: script {rel!r} invalid: {e}") from None
    return staged, scripts


def _remove_files(txn, universe: Universe, action: Action, owned: dict, purge: bool) -> None:
    old = universe.get(action.pkg)
    keep: set[str] = set()
    if action.counterpart is not None:
        keep = set(universe.get(action.counterpart).files)
    for rel in sorted(set(old.files) - keep):
        if owned.get(rel) == action.pkg:
            owned.pop(rel)
        if rel in old.conffiles and not purge:
            continue  # conffiles survive removal unless purging
        if txn.exists(rel) and not txn.is_dir(rel):
            txn.write_through(rel, None)
        pkgnew = rel + confmerge.PKGNEW_SUFFIX
        if purge and txn.exists(pkgnew) and not txn.is_dir(pkgnew):
            txn.write_through(pkgnew, None)


def simulate(plan_: Plan) -> str:
    """Human-readable dry run: what would be removed, upgraded, and installed,
    plus the summary counts and download size.  Never touches a store."""
    if not plan_.actions:
        return "nothing to do\n"
    diff = plan_.diff
    requested = {a.name for a in plan_.request.atoms if a.action in ("install", "upgrade")}
    extra = [n for n in diff.new if n not in requested]

    lines = []
    if diff.removed:
        lines.append("The following packages will be REMOVED:")
        lines.append("  " + " ".join(diff.removed))
    if diff.changed:
        lines.append("The following packages will be upgraded:")
        lines.append("  " + " ".join(diff.changed))
    if extra:
        lines.append("The following extra packages will be installed:")
        lines.append("  " + " ".join(extra))
    if diff.new:
        lines.append("The following NEW packages will be installed:")
        lines.append("  " + " ".join(diff.new))
    lines.append(f"{len(diff.changed)} upgraded, {len(diff.new)} newly installed, "
                 f"{len(diff.removed)} to remove.")
    lines.append(f"Need to get {diff.download_kb}kB of archives.")
    return "\n".join(lines) + "\n"


def execute_plan(plan_: Plan, store: Store, repo_dir, *, purge: bool = False,
                 io_fault=None) -> Outcome:
    """Run a plan against the store.

    ``io_fault``, when given, is called as ``io_fault(event)`` before every
    unpack file write (event ``"unpack:<id>:<path>"``); raising OSError from
    it simulates an I/O failure at that point.  On success the status file is
    updated and the journal committed; the outcome carries the new history id
    and any conffile conflicts.  On script or I/O failure the transaction is
    rolled back and the outcome names the failing step.
    """
    if not plan_.actions:
        return Outcome("success", notes=("nothing to do",))
    universe = plan_.universe

    staging = Path(tempfile.mkdtemp(prefix="txpkg-staging-"))
    try:
        try:
            staged, scripts = _preflight(plan_, repo_dir, staging)
        except MissingPayload as e:
            return Outcome("io-failure", failing=str(e))

        txn = store.begin()
        conflicts: list[str] = []
        current: Action | None = None
        final_installed = plan_.solution.status.installed
        try:
            owned = dict(plan_.s0.owned_files)
            for action in plan_.actions:
                current = action
                if action.kind == "retrieve":
                    continue
                if action.kind == "remove-files":
                    _remove_files(txn, universe, action, owned, purge)
                elif action.kind == "unpack":
                    pkg = universe.get(action.pkg)
                    payload = staged[action.pkg]
                    for rel in sorted(pkg.files):
                        if io_fault is not None:
                            io_fault(f"unpack:{pkg.id}:{rel}")
                        owner = owned.get(rel)
                        # a path may change hands only when its current owner
                        # is on the way out of the installed set
                        if owner is not None and owner != pkg.id and owner in final_installed:
                            raise _DeployError(
                                f"path {rel!r} is owned by {owner}, cannot unpack {pkg.id}")
                        data = (payload / rel).read_bytes()
                        mode = stat.S_IMODE((payload / rel).stat().st_mode)
                        if rel in pkg.conffiles:
                            outcome = confmerge.upgrade_conffile(store, txn, pkg, rel, data)
                            if outcome.kind == "conflict":
                                conflicts.append(rel)
                        else:
                            txn.ensure_parent(rel)
                            txn.write_through(rel, data, mode=mode)
                        owned[rel] = pkg.id
                else:
                    program = scripts.get((action.kind, action.pkg))
                    if program is not None:
                        mscript.execute(program, txn, _script_env(action))
            new_status = Status(plan_.solution.status.installed, owned)
            txn.set_status(serialize_status(new_status))
            hid = txn.commit(meta={"request": str(plan_.request), "outcome": "success"})
            return Outcome("success", conffile_conflicts=tuple(conflicts), history_id=hid)
        except ScriptFailure as failure:
            txn.rollback()
            return Outcome("script-failure", failing=f"{current}: {failure}",
                           conffile_conflicts=tuple(conflicts))
        except OSError as failure:
            txn.rollback()
            return Outcome("io-failure", failing=f"{current}: {failure}",
                           conffile_conflicts=tuple(conflicts))
        except BaseException:
            if txn.state == "open":
                txn.rollback()
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
