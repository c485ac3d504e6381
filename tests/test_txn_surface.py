"""The open transaction is the engine's one window on the root.

``mscript``, ``confmerge`` and ``planner`` may call only the transaction's
read and mutation surface on ``txn``, and reach nothing through
``txn.store``, neither by a call nor by handing the store on; the pristine
conffile store is read as ``txn.pristine``.  An in-memory overlay with the
same surface can then stand in for the transaction.  Inside ``txn``, only
the filesystem seam (``Store.state``, ``put``, ``read`` and ``scan``, which
checks the directory a listing starts from) maps a package-visible path to
disk with ``resolve``, so a no-follow resolution has one place to go.  Only
``Transaction._set`` calls ``Store.put``, so every write of the root, the
restores of both rollbacks included, is journaled first, and an overlay has
one write to take over.  Only the two seams, ``tree_hash``, the lock in
``begin`` and ``_overwrite``, the one file write, which only ``put`` and
``save`` call, read or write a file at all, so every file under ``.pkgdb``
goes through ``Store.load`` and ``save``, where an atomic write or an
overlay has one place to go, and every file write follows one rule;
``confmerge`` reads or writes no file itself.  Only ``txn`` names the
pristine index and objects, so their format has one home.  Only
``Transaction._close`` saves a transaction's engine state (the status, the
pristine files and the record's parts), so all of it is written with the
record, before the rename that puts the record in place.  Only
``Transaction._set`` and ``journal_load`` build a ``JournalEntry``, so an
entry holds what ``Store.state`` read or what the codec decoded.
"""

import ast
from pathlib import Path

import txpkg

SRC = Path(txpkg.__file__).resolve().parent
ENGINE = ("mscript", "confmerge", "planner")
SURFACE = {"state", "render_files", "write_through", "mkdir", "rmdir",
           "add_pristine", "set_status", "commit", "rollback"}
SEAM = {"state", "put", "read", "scan"}
FILE_IO = {"read_bytes", "write_bytes", "read_text", "write_text", "open"}
FILE_SEAM = SEAM | {"load", "save", "tree_hash", "begin", "_overwrite"}
WRITERS = {"put", "save"}  # the only callers of ``_overwrite``, the one file write
ENGINE_STATE = ("status", "pristine/", "history/")


def _is_txn(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "txn"


def _is_txn_store(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "store" and _is_txn(node.value)


def surface_violations(src: Path, modules=ENGINE) -> list[str]:
    """``module:line txn...method`` for each call outside the surface, and
    ``module:line txn.store`` for each other use of the store."""
    out = []
    for module in modules:
        nodes = list(ast.walk(ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))))
        calls = [n for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)]
        for node in calls:
            owner, method = node.func.value, node.func.attr
            if _is_txn(owner) and method not in SURFACE:
                out.append(f"{module}:{node.lineno} txn.{method}")
            elif _is_txn_store(owner):
                out.append(f"{module}:{node.lineno} txn.store.{method}")
        owners = {id(n.func.value) for n in calls}
        out.extend(f"{module}:{n.lineno} txn.store" for n in nodes
                   if _is_txn_store(n) and id(n) not in owners)
    return sorted(out)


def test_engine_uses_only_the_transaction_surface():
    assert surface_violations(SRC) == []


def test_only_txn_names_the_pristine_files():
    for literal in ("pristine/index", "pristine/objects"):
        assert [path.name for path in sorted(SRC.glob("*.py"))
                if literal in path.read_text(encoding="utf-8")] == ["txn.py"], literal


def test_detector_reports_calls_off_the_surface(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(txn, other):\n"
        "    txn.state('a')\n"
        "    txn.exists('a')\n"
        "    txn.store.read('a')\n"
        "    other.exists('a')\n"
        "    g(txn.store)\n")
    assert surface_violations(tmp_path, ("m",)) == [
        "m:3 txn.exists", "m:4 txn.store.read", "m:6 txn.store"]


def callers(path: Path, names, allowed=frozenset()) -> list[str]:
    """``line function`` for each call of a function or method in ``names``
    (``resolve`` in ``self.resolve``, ``open`` in ``os.open``) made in a
    function outside ``allowed``."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name not in allowed:
            out.extend(f"{node.lineno} {fn.name}" for node in ast.walk(fn)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "attr", getattr(node.func, "id", None)) in names)
    return sorted(out)


def test_only_the_seam_resolves_paths():
    assert callers(SRC / "txn.py", {"resolve"}, SEAM) == []


def test_only_the_transaction_writes_the_root():
    assert [call.split()[1] for call in callers(SRC / "txn.py", {"put"})] == ["_set"]
    for path in sorted(SRC.glob("*.py")):
        if path.name != "txn.py":
            assert callers(path, {"put"}) == [], path.name


def test_detector_reports_resolve_outside_the_seam(tmp_path):
    (tmp_path / "m.py").write_text(
        "class S:\n"
        "    def state(self, rel):\n"
        "        return self.resolve(rel)\n"
        "    def rollback(self, rel):\n"
        "        def undo():\n"
        "            return self.resolve(rel)\n"
        "        return undo\n")
    assert callers(tmp_path / "m.py", {"resolve"}, SEAM) == ["6 rollback", "6 undo"]


def test_only_the_seams_touch_files():
    assert callers(SRC / "txn.py", FILE_IO, FILE_SEAM) == []
    assert callers(SRC / "confmerge.py", FILE_IO) == []
    assert {call.split()[1] for call in callers(SRC / "txn.py", {"_overwrite"})} == WRITERS
    for path in sorted(SRC.glob("*.py")):
        if path.name != "txn.py":
            assert callers(path, {"_overwrite"}) == [], path.name


def test_detector_reports_file_io_outside_the_seams(tmp_path):
    (tmp_path / "m.py").write_text(
        "class S:\n"
        "    def load(self, name):\n"
        "        return (self.db / name).read_bytes()\n"
        "    def commit(self):\n"
        "        (self.db / 'meta').write_text('{}')\n"
        "        with open(self.db / 'index', 'a') as fh:\n"
        "            fh.write('x')\n"
        "        os.open(self.db / 'lock', 0)\n"
        "    def save(self, name, data):\n"
        "        _overwrite(self.db / name, data)\n"
        "    def _close(self):\n"
        "        _overwrite(self.db / 'meta', b'{}')\n"
        "def _overwrite(path, data):\n"
        "    fd = os.open(path, 0)\n")
    assert callers(tmp_path / "m.py", FILE_IO, FILE_SEAM) == ["5 commit", "6 commit", "8 commit"]
    assert callers(tmp_path / "m.py", FILE_IO) == [
        "14 _overwrite", "3 load", "5 commit", "6 commit", "8 commit"]
    assert callers(tmp_path / "m.py", {"_overwrite"}, WRITERS) == ["12 _close"]


def state_writers(path: Path) -> list[str]:
    """``line function`` for each ``save`` call outside ``_close`` that may
    write a transaction's engine state: its name is not a literal, or starts
    with one of ``ENGINE_STATE``."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name != "_close":
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "save"):
                    continue
                name = node.args[0] if node.args else None
                if isinstance(name, ast.JoinedStr) and name.values:  # an f-string's head
                    name = name.values[0]
                if not (isinstance(name, ast.Constant) and isinstance(name.value, str)
                        and not name.value.startswith(ENGINE_STATE)):
                    out.append(f"{node.lineno} {fn.name}")
    return sorted(out)


def test_only_close_writes_the_engine_state_of_a_transaction():
    for path in sorted(SRC.glob("*.py")):
        assert state_writers(path) == [], path.name


def test_detector_reports_engine_state_writes_outside_close(tmp_path):
    (tmp_path / "m.py").write_text(
        "class T:\n"
        "    def _close(self, name):\n"
        "        self.store.save(name, b'')\n"
        "    def begin(self):\n"
        "        self.save('serial', b'1')\n"
        "    def set_status(self, text):\n"
        "        self.store.save('status', text)\n"
        "    def append(self, sha, name):\n"
        "        self.store.save(f'pristine/objects/{sha}', b'')\n"
        "        self.store.save(name, b'')\n")
    assert state_writers(tmp_path / "m.py") == ["10 append", "7 set_status", "9 append"]



def test_only_set_and_the_codec_build_journal_entries():
    assert callers(SRC / "txn.py", {"JournalEntry"}, {"_set", "journal_load"}) == []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "txn.py":
            assert callers(path, {"JournalEntry"}) == [], path.name


def test_detector_reports_journal_entries_built_elsewhere(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Transaction:\n"
        "    def _set(self, rel, old):\n"
        "        self._journal[rel] = JournalEntry(rel, old)\n"
        "    def _restore(self, e):\n"
        "        return txn.JournalEntry(e.path, ('absent', None, 0))\n"
        "def journal_load(data):\n"
        "    return [JournalEntry(p, data) for p in data]\n"
        "def undo(log):\n"
        "    return [JournalEntry(e.path, e.pre) for e in log]\n")
    assert callers(tmp_path / "m.py", {"JournalEntry"}, {"_set", "journal_load"}) == [
        "5 _restore", "9 undo"]
