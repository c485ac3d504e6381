"""Configuration file tracking and three-way merge.

Every conffile version a package ships is archived verbatim in the pristine
store (``txn.PristineStore``, re-exported here with the ``ConfmergeError``
it raises).  On upgrade, the pristine copy of the installed version serves
as the merge base: unmodified files simply take the incoming version,
locally modified ones get a line-oriented three-way merge (or a per-key
merge for ``key=value`` files), and overlapping edits surface as a conflict
with the incoming version parked next to the file as ``<path>.pkgnew``.  A
conflict never aborts the upgrade.  :func:`upgrade_conffile` reads with the
transaction's ``state`` and ``pristine`` and writes with ``write_through``
(which creates missing parents) and ``add_pristine``.

``parse_kv``/``dump_kv`` are the engine's one ``key=value`` codec; the
script DSL's ``setkey``/``delkey`` use it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher

from .txn import ConfmergeError, PristineStore, Transaction, _sha
from .universe import Package

__all__ = [
    "ConfmergeError",
    "MergeOutcome",
    "PristineStore",
    "merge3",
    "structured_merge",
    "parse_kv",
    "dump_kv",
    "upgrade_conffile",
    "PKGNEW_SUFFIX",
]

PKGNEW_SUFFIX = ".pkgnew"


@dataclass(frozen=True)
class MergeOutcome:
    """Result of a merge.

    kind is one of ``kept-local``, ``took-new``, ``merged``, ``conflict``;
    ``conflict_hunks`` is non-empty exactly for conflicts and carries
    (base, local, incoming) byte triples; ``fell_back`` marks a structured
    merge that had to drop to plain line merging because an input did not
    parse.
    """

    kind: str
    content: bytes
    conflict_hunks: tuple = ()
    fell_back: bool = False


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def _is_text(data: bytes) -> bool:
    if b"\x00" in data:
        return False
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _sync_regions(base, local, incoming):
    """Regions where all three texts agree, as (base_lo, base_hi, local_lo, inc_lo)."""
    blocks_l = SequenceMatcher(None, base, local, autojunk=False).get_matching_blocks()
    blocks_i = SequenceMatcher(None, base, incoming, autojunk=False).get_matching_blocks()
    regions = []
    x = y = 0
    while x < len(blocks_l) and y < len(blocks_i):
        bl, ll, sl = blocks_l[x]
        bi, li, si = blocks_i[y]
        lo = max(bl, bi)
        hi = min(bl + sl, bi + si)
        if lo < hi:
            regions.append((lo, hi, ll + (lo - bl), li + (lo - bi)))
        if bl + sl < bi + si:
            x += 1
        elif bl + sl > bi + si:
            y += 1
        else:
            x += 1
            y += 1
    return regions


def _conflict_block(local: bytes, incoming: bytes) -> bytes:
    """Both sides of one conflict between the markers, local first."""
    return b"<<<<<<< local\n" + local + b"=======\n" + incoming + b">>>>>>> incoming\n"


def _three_way(base, local, incoming):
    """The one three-way choice, over a file, a run of lines, a map or a
    value: ``(kind, the side kept)``, with None kept for a conflict."""
    if local == base:
        return "took-new", incoming
    if incoming == base:
        return "kept-local", local
    if local == incoming:
        return "merged", local
    return "conflict", None


def merge3(base: bytes, local: bytes, incoming: bytes) -> MergeOutcome:
    """Line-oriented three-way merge.

    Changes relative to the base coming from exactly one side apply cleanly;
    regions changed differently on both sides become conflict hunks, rendered
    with conflict markers in the content.  Non-text input (NUL bytes or
    invalid UTF-8) is a whole-file conflict.
    """
    kind, kept = _three_way(base, local, incoming)
    if kind != "conflict":
        return MergeOutcome(kind, kept)
    if not (_is_text(base) and _is_text(local) and _is_text(incoming)):
        return MergeOutcome("conflict", _conflict_block(local, incoming),
                            ((base, local, incoming),))

    b, l, i = _lines(base), _lines(local), _lines(incoming)
    out: list[bytes] = []
    hunks: list[tuple[bytes, bytes, bytes]] = []
    pb = pl = pi = 0
    # the zero-width sentinel region flushes whatever trails the last real
    # sync region
    regions = _sync_regions(b, l, i) + [(len(b), len(b), len(l), len(i))]
    for base_lo, base_hi, local_lo, inc_lo in regions:
        base_chunk = b[pb:base_lo]
        local_chunk = l[pl:local_lo]
        inc_chunk = i[pi:inc_lo]
        kind, kept = _three_way(base_chunk, local_chunk, inc_chunk)
        if kind != "conflict":
            out.extend(kept)
        else:
            hunk = (b"".join(base_chunk), b"".join(local_chunk), b"".join(inc_chunk))
            hunks.append(hunk)
            out.append(_conflict_block(*hunk[1:]))
        out.extend(b[base_lo:base_hi])
        pb, pl, pi = base_hi, local_lo + (base_hi - base_lo), inc_lo + (base_hi - base_lo)
    content = b"".join(out)
    if hunks:
        return MergeOutcome("conflict", content, tuple(hunks))
    return MergeOutcome("merged", content)


def parse_kv(data: bytes):
    """key=value lines -> dict, or None when the data is not in that shape."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    out: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep or not key or any(c.isspace() for c in key):
            return None
        if key in out:
            return None
        out[key] = value
    return out


def structured_merge(base: bytes, local: bytes, incoming: bytes,
                     syntax: str = "lines") -> MergeOutcome:
    """Merge with syntax awareness.

    ``lines`` is plain :func:`merge3`.  ``keyvalue`` merges per key over
    ``key=value`` files, so reordering lines is never a conflict; only the
    same key edited differently on both sides conflicts.  Output is always
    the canonical sorted rendering.  If any input fails to parse the merge
    falls back to lines mode with ``fell_back`` set.
    """
    if syntax == "lines":
        return merge3(base, local, incoming)
    if syntax != "keyvalue":
        raise ValueError(f"unknown merge syntax {syntax!r}")
    parsed_b, parsed_l, parsed_i = parse_kv(base), parse_kv(local), parse_kv(incoming)
    if parsed_b is None or parsed_l is None or parsed_i is None:
        out = merge3(base, local, incoming)
        return MergeOutcome(out.kind, out.content, out.conflict_hunks, fell_back=True)

    kind, kept = _three_way(parsed_b, parsed_l, parsed_i)
    if kind != "conflict":
        return MergeOutcome(kind, dump_kv(kept))

    merged: dict[str, str] = {}
    conflicts: dict[str, tuple[bytes, bytes, bytes]] = {}  # key -> base/local/incoming
    for key in sorted(set(parsed_b) | set(parsed_l) | set(parsed_i)):
        vb, vl, vi = parsed_b.get(key), parsed_l.get(key), parsed_i.get(key)
        kind, chosen = _three_way(vb, vl, vi)
        if kind == "conflict":
            conflicts[key] = tuple(
                b"" if v is None else f"{key}={v}\n".encode("utf-8") for v in (vb, vl, vi))
        elif chosen is not None:  # None: the key is gone
            merged[key] = chosen

    if not conflicts:
        return MergeOutcome("merged", dump_kv(merged))
    rendered = [_conflict_block(*conflicts[key][1:]) if key in conflicts
                else f"{key}={merged[key]}\n".encode("utf-8")
                for key in sorted(set(merged) | set(conflicts))]
    return MergeOutcome("conflict", b"".join(rendered), tuple(conflicts.values()))


def dump_kv(mapping: dict) -> bytes:
    """The canonical rendering of a key=value mapping: one line per key, sorted."""
    return "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping)).encode("utf-8")


def upgrade_conffile(txn: Transaction, pkg: Package, path: str,
                     incoming: bytes) -> MergeOutcome:
    """Bring one conffile to the incoming version inside an open transaction.

    An unmodified (or never-seen) file takes the incoming content; a modified
    one is three-way merged against the pristine copy of the installed
    version, and a locally deleted one stays deleted; a directory at the
    path is an IsADirectoryError.  The file counts as unmodified when its
    content hash equals the latest pristine record's.
    On conflict the file keeps its local content and the incoming version is
    written alongside as ``<path>.pkgnew``; the transaction carries on.
    Whatever happens, the incoming content is registered as the new pristine
    version and every write is journaled.
    """
    if path not in pkg.conffiles:
        raise ConfmergeError(f"{path!r} is not a conffile of {pkg.id}")
    found = txn.pristine.entries(pkg.name, path)
    latest = found[-1] if found else None
    kind, current, _mode = txn.state(path)
    if kind == "dir":  # its None content is no local deletion: refuse as write_through does
        raise IsADirectoryError(f"{path!r} is a directory")
    if latest is None:  # an unowned file may already sit where a fresh conffile goes
        outcome = (MergeOutcome("took-new", incoming) if current in (None, incoming) else
                   MergeOutcome("conflict", current, ((b"", current, incoming),)))
    elif current is None:  # locally deleted conffiles stay deleted
        outcome = MergeOutcome("kept-local", b"")
    elif _sha(current) == latest["sha"]:
        outcome = MergeOutcome("took-new", incoming)
    else:
        base = txn.pristine.content(latest["sha"])
        outcome = structured_merge(base, current, incoming, pkg.syntax_for(path))
    if outcome.kind == "conflict":
        txn.write_through(path + PKGNEW_SUFFIX, incoming)
    elif current is not None or latest is None:
        txn.write_through(path, outcome.content)
    txn.add_pristine(pkg.name, path, str(pkg.version), incoming)
    return outcome
