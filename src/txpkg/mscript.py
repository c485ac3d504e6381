"""Maintainer scripts in a small DSL where every step can be undone.

The language is deliberately not Turing-complete: no loops, no conditionals,
no external commands.  One primitive per line; ``#`` starts a comment and
blank lines are ignored.  ``$PKG``, ``$OLD`` and ``$NEW`` in any argument are
substituted from the script environment at execution time.

Primitives::

    mkdir PATH                 create a directory (missing parents included)
    copy SRC DST               copy a store file over/onto DST
    remove PATH                delete a file
    append FILE LINE           append one line (file created if missing)
    setkey FILE KEY VALUE      set KEY in a key=value file (sorted, unique keys;
                               the codec of txpkg.confmerge)
    delkey FILE KEY            drop KEY from a key=value file
    update-cache CACHE GLOB    rewrite CACHE as the sorted "path sha256" listing
                               of store files matching GLOB (idempotent)
    adduser NAME               add NAME to the user database (etc/users.db)
    deluser NAME               remove NAME from the user database
    fail MESSAGE               always fails (for testing failure handling)

Executing a program yields an effect log with one record per executed step:
the target's ``Store.state`` triple as the step read it, a fingerprint of
what the step left there, and the directories it created.  Every step
follows one rule: after the checks that do not read its target (``fail``,
``copy``'s source, a key holding ``=``), it reads its target (the last path
argument, or the user database for ``adduser``/``deluser``) once and leaves
one state there.  ``mkdir`` leaves a directory, ``remove`` leaves no file, and
every other primitive leaves the new content computed from that pre-image;
each writes only when the state differs.  ``undo`` has one rule for every
primitive: walking the log in reverse, it puts each target back as it was
and removes the directories the step created, so execute-then-undo restores
the pre-execution store byte for byte.  Every step reads the store only
through the open transaction's ``state`` (plus ``render_files`` for
``update-cache``, which lists only the directory its glob's literal prefix
names, once per transaction, and reads a file only when its stat moved since
a transaction last hashed it) and mutates it only through ``write_through``,
``mkdir`` and ``rmdir``, so a journal rollback is always an equivalent
alternative to compensation.  A later ``update-cache`` of the same cache and
glob in a transaction matches and digests again only the files written under
the glob's prefix since, and links and hard-linked files; it keeps the other
lines.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass

from .confmerge import dump_kv, parse_kv
from .txn import Transaction, _sha, _token
from .universe import MetadataError, check_rel_path, decode_text

__all__ = [
    "ScriptSyntaxError",
    "ScriptFailure",
    "CorruptedLog",
    "Step",
    "ScriptProgram",
    "ScriptEnv",
    "StepEffect",
    "parse_script",
    "execute",
    "undo",
    "classify",
    "compute_cache",
    "USER_DB",
]

USER_DB = "etc/users.db"
_GLOB_SPECIAL = re.compile(r"[*?[]")

# op -> (argument count, does the last argument swallow the rest of the line,
#        positions of path arguments); every step's target is its last path
#        argument, or USER_DB for adduser/deluser
_OPS = {
    "mkdir": (1, False, (0,)),
    "copy": (2, False, (0, 1)),
    "remove": (1, False, (0,)),
    "append": (2, True, (0,)),
    "setkey": (3, True, (0,)),
    "delkey": (2, False, (0,)),
    "update-cache": (2, False, (0,)),
    "adduser": (1, False, ()),
    "deluser": (1, False, ()),
    "fail": (1, True, ()),
}


class ScriptSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CorruptedLog(Exception):
    """The store no longer matches what the effect log says a step left behind."""


class ScriptFailure(Exception):
    """A step failed; carries the effect log of the steps that did run."""

    def __init__(self, step_index: int, message: str, log=None):
        super().__init__(message)
        self.step_index = step_index
        self.message = message
        self.log = list(log) if log else []

    def __str__(self):
        return f"step {self.step_index}: {self.message}"


@dataclass(frozen=True)
class Step:
    op: str
    args: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class ScriptProgram:
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class ScriptEnv:
    """Values exposed to the script as $PKG, $OLD, and $NEW."""

    package: str
    old_version: str | None = None
    new_version: str | None = None


@dataclass
class StepEffect:
    """Everything needed to compensate one executed step.

    ``pre`` is the target's ``Store.state`` triple as the step read it, so
    putting it back undoes the step.  ``post_sha`` is the ``txn._token`` of
    the target after the step (a file's sha, None when the step deleted it,
    ``"dir"`` for the directory a ``mkdir`` left) so undo can detect external
    tampering; ``created_dirs`` lists directories the step created
    (outermost first).
    """

    index: int
    path: str
    pre: tuple
    post_sha: str | None = None
    created_dirs: tuple[str, ...] = ()


def parse_script(text: str) -> ScriptProgram:
    """Parse DSL text; rejects unknown primitives and arity mismatches."""
    steps = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        op = line.split(None, 1)[0]
        if op not in _OPS:
            raise ScriptSyntaxError(f"unknown primitive {op!r}", no)
        count, greedy, paths = _OPS[op]
        if greedy:
            parts = line.split(None, count)
        else:
            parts = line.split()
        args = tuple(parts[1:])
        if len(args) != count:
            raise ScriptSyntaxError(
                f"{op} takes {count} argument{'s' if count != 1 else ''}, got {len(args)}", no)
        for pos in paths:
            if "$" not in args[pos]:  # substituted paths are re-checked at run time
                try:
                    check_rel_path(args[pos])
                except MetadataError as e:
                    raise ScriptSyntaxError(str(e), no) from None
        steps.append(Step(op, args, no))
    return ScriptProgram(tuple(steps))


def classify(program: ScriptProgram) -> str:
    """'cache-updater' when every step only refreshes caches or makes
    directories (the idempotent class), else 'general'."""
    if all(step.op in ("update-cache", "mkdir") for step in program.steps):
        return "cache-updater"
    return "general"


def _subst(token: str, env: ScriptEnv, index: int) -> str:
    out = token.replace("$PKG", env.package)
    for var, value in (("$OLD", env.old_version), ("$NEW", env.new_version)):
        if var in out:
            if value is None:
                raise ScriptFailure(index, f"{var} is not set for this hook")
            out = out.replace(var, value)
    return out


def compute_cache(txn: Transaction, cache_path: str, pattern: str) -> bytes:
    """Deterministic cache content: one ``path sha256`` line per matching file,
    sorted by path, each name in its own bytes, escaped as GNU ``sha256sum``
    does: a name holding ``\\`` or a newline starts its line with ``\\`` and
    has those written as ``\\\\`` and ``\\n``.  The cache file itself never
    matches its own glob.  Only the directory named by the glob's literal
    prefix (up to its last "/" before the first ``*``, ``?`` or ``[``) is
    listed: no file outside it can match.  The glob is matched by the
    regex ``fnmatch.fnmatchcase`` uses, compiled once per call."""
    literal = _GLOB_SPECIAL.split(pattern, 1)[0]
    match = re.compile(fnmatch.translate(pattern)).match

    def line(rel, digest):
        if rel == cache_path or not match(rel):
            return ""
        name = rel.replace("\\", "\\\\").replace("\n", "\\n")
        return ("" if name == rel else "\\") + f"{name} {digest(rel)}\n"

    text = txn.render_files(literal[:literal.rfind("/") + 1], (cache_path, pattern), line)
    return text.encode("utf-8", "surrogateescape")


def _parse_users(pre: bytes | None) -> set[str]:
    try:
        text = decode_text(pre or b"", USER_DB)
    except MetadataError as e:
        raise ScriptFailure(-1, str(e)) from None
    return {line.strip() for line in text.splitlines() if line.strip()}


def _dump_users(names: set[str]) -> bytes:
    return "".join(f"{n}\n" for n in sorted(names)).encode("utf-8")


def _rewrite(op: str, args: tuple[str, ...], pre: bytes | None, txn: Transaction) -> bytes | None:
    """The new content of a step's file target, given its pre-image (None
    when absent; a new content of None deletes the target); ``copy`` is not
    here, its content is the source's, nor ``mkdir``, which leaves a directory."""
    if op == "remove":
        return None
    if op == "append":
        return (pre or b"") + args[1].encode("utf-8") + b"\n"
    if op == "update-cache":
        return compute_cache(txn, args[0], args[1])
    if op in ("adduser", "deluser"):
        names = _parse_users(pre)
        if op == "adduser":
            names.add(args[0])
        else:
            names.discard(args[0])
        return _dump_users(names)
    target, key = args[0], args[1]  # setkey, delkey
    if op == "delkey" and pre is None:
        raise ScriptFailure(-1, f"{target!r} does not exist")
    mapping = parse_kv(pre) if pre is not None else {}
    if mapping is None:
        raise ScriptFailure(-1, f"{target!r} is not a key=value file")
    if op == "setkey":
        mapping[key] = args[2]
    elif key in mapping:
        del mapping[key]
    else:
        return pre
    return dump_kv(mapping)


def _run_step(index: int, step: Step, txn: Transaction, env: ScriptEnv) -> StepEffect:
    op = step.op
    paths = _OPS[op][2]
    args = tuple(_subst(a, env, index) for a in step.args)
    for pos in paths:
        try:
            check_rel_path(args[pos])
        except MetadataError as e:
            raise ScriptFailure(index, str(e)) from None

    # checks that do not read the target, then its one read and one new state
    if op == "fail":
        raise ScriptFailure(index, args[0])
    if op == "copy":
        kind, source, _mode = txn.state(args[0])
        if kind != "file":
            raise ScriptFailure(index, f"source {args[0]!r} is not a file")
    elif op in ("setkey", "delkey") and "=" in args[1]:
        raise ScriptFailure(index, f"key {args[1]!r} may not contain '='")
    target = args[paths[-1]] if paths else USER_DB
    pre = txn.state(target)
    kind, content, _mode = pre
    if op == "mkdir":
        if kind == "file":
            raise ScriptFailure(index, f"{target!r} exists and is not a directory")
        post_sha, created_dirs = "dir", tuple(txn.mkdir(target))
    else:
        if op == "remove" and kind != "file":
            raise ScriptFailure(index, f"{target!r} is not a file")
        if kind == "dir":
            raise ScriptFailure(index, f"{target!r} is a directory")
        data = source if op == "copy" else _rewrite(op, args, content, txn)
        post_sha = None if data is None else _sha(data)
        created_dirs = () if data == content else tuple(txn.write_through(target, data))
    return StepEffect(index=index, path=target, pre=pre, post_sha=post_sha,
                      created_dirs=created_dirs)


def execute(program: ScriptProgram, txn: Transaction, env: ScriptEnv) -> list[StepEffect]:
    """Run the program in order inside the open transaction.

    Returns the effect log (one record per executed step).  On failure raises
    :class:`ScriptFailure` carrying the partial log of the steps that did run,
    so the caller can compensate (or just roll the transaction back).
    """
    log: list[StepEffect] = []
    for index, step in enumerate(program.steps):
        try:
            effect = _run_step(index, step, txn, env)
        except ScriptFailure as failure:
            failure.step_index = index
            failure.log = list(log)
            raise
        except OSError as e:
            raise ScriptFailure(index, f"io error: {e}", log) from e
        log.append(effect)
    return log


def _verify_post(eff: StepEffect, txn: Transaction) -> None:
    current = _token(txn.state(eff.path))
    if current != eff.post_sha:
        raise CorruptedLog(
            f"step {eff.index}: {eff.path!r} changed since execution "
            f"(have {current}, logged {eff.post_sha})")


def undo(log, txn: Transaction) -> None:
    """Compensate the logged steps, last first, so that execute-then-undo is
    the identity on the store.

    Every step gets the same rule: check that its target's ``txn._token``
    is still the one the step left, put back the target's ``pre`` state (an
    absent one deletes the target; a target the step created as a directory
    is left to the next rule, and a ``pre`` with that token needs no write),
    then remove the directories the step created.
    Raises :class:`CorruptedLog` when the store does not match the logged
    post-state or a created directory is no longer empty.
    """
    for eff in reversed(list(log)):
        _verify_post(eff, txn)
        _kind, content, mode = eff.pre
        kept = _token(eff.pre) == eff.post_sha
        if not kept and eff.path not in eff.created_dirs:
            txn.write_through(eff.path, content, mode=mode)
        for d in reversed(eff.created_dirs):
            if txn.state(d)[0] == "dir":
                try:
                    txn.rmdir(d)
                except OSError:
                    raise CorruptedLog(
                        f"step {eff.index}: directory {d!r} is not empty") from None
