"""Only the engine keeps engine code alive: every definition in ``src/txpkg`` is
reached from the ``txpkg`` command.

The gate builds a name-reference graph of ``src/txpkg/*.py`` (``__init__.py``
aside) from the syntax trees:

- nodes are top-level functions and classes, and each method as
  ``Class.method``;
- the roots are ``cli.main`` and ``cli.run`` (the ``[project.scripts]`` entry)
  and every module-level statement other than imports and ``__all__``, which
  covers dispatch tables such as ``cli._HANDLERS`` and ``mscript._OPS``;
- a ``Name`` reaches the top-level definitions of that name in every module;
- an ``Attribute`` reaches every method of that name, and, read off a module
  name (``mscript.execute``), that module's top-level definition;
- a class reaches its dunder methods, its bases, its decorators and its
  class-level statements.

The graph matches by name, not by type, so it over-approximates: a method is
alive as soon as any attribute of its name is read anywhere (for example
``Status.max_version`` keeps ``Universe.max_version`` alive).  It misses no
call the engine makes except through ``getattr`` with a computed name.

A definition that nothing reaches must be deleted, or named in ``ALLOWED``
with its reason.  Allowed names are roots too.  An entry goes stale, and the
gate fails, when its definition is gone or the engine starts reaching it.
"""

import ast
from collections import defaultdict
from pathlib import Path

import txpkg

SRC = Path(txpkg.__file__).resolve().parent

ENTRY = ("cli.main", "cli.run")

#: Definitions that only tests or the benchmark reach, each with its reason.
ALLOWED = {
    "resolver.solve": "acceptance criterion 2 checks it against brute force",
    "mscript.undo": "acceptance criterion 5 undoes every step with it "
                    "(it keeps _verify_post and CorruptedLog alive)",
    "txn.Store.tree_hash": "the oracles' own reading of the tree (it keeps Store.walk alive)",
    "planner.retrieve": "perfbench/spans.py patches it to time staging; "
                        "ROADMAP item 1 deletes it with planner.retrieve_ms",
}


def _refs(nodes, modules: set[str]):
    """(kind, name) for each name read in ``nodes``: ("name", n), ("attr", n),
    or ("def", "mod.n") for an attribute read off a module name."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield "name", sub.id
            elif isinstance(sub, ast.Attribute):
                yield "attr", sub.attr
                if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                    yield "def", f"{sub.value.id}.{sub.attr}"


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _graph(src: Path):
    """(definition -> the references it makes, the roots' references,
    reference -> the definitions it reaches)."""
    paths = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    modules = {p.stem for p in paths}
    refs: dict[str, list] = {}
    roots: list = []
    targets: dict[tuple, list[str]] = defaultdict(list)

    def define(name: str, key: tuple, made: list) -> None:
        refs[name] = made
        targets[key].append(name)
        targets["def", name].append(name)

    for path in paths:
        mod = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define(f"{mod}.{stmt.name}", ("name", stmt.name), list(_refs([stmt], modules)))
            elif isinstance(stmt, ast.ClassDef):
                cls = f"{mod}.{stmt.name}"
                own, dunders = [*stmt.bases, *stmt.keywords, *stmt.decorator_list], []
                for item in stmt.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        own.append(item)
                        continue
                    method = f"{cls}.{item.name}"
                    define(method, ("attr", item.name), list(_refs([item], modules)))
                    if item.name.startswith("__") and item.name.endswith("__"):
                        dunders.append(("def", method))
                define(cls, ("name", stmt.name), [*_refs(own, modules), *dunders])
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)) and not _is_all(stmt):
                roots += _refs([stmt], modules)
    return refs, roots, targets


def _reach(refs, targets, todo: list) -> set[str]:
    seen: set[str] = set()
    while todo:
        for target in targets.get(todo.pop(), ()):
            if target not in seen:
                seen.add(target)
                todo += refs[target]
    return seen


def audit(src: Path, entry=ENTRY, allowed=ALLOWED) -> tuple[list[str], list[str]]:
    """(definitions nothing reaches, stale allow-list entries).

    An entry is stale when no such definition exists or when the engine's own
    roots reach it.
    """
    refs, roots, targets = _graph(src)
    alive = _reach(refs, targets, [("def", name) for name in entry] + roots)
    stale = sorted(name for name in allowed if name not in refs or name in alive)
    alive |= _reach(refs, targets, [("def", name) for name in allowed])
    return sorted(set(refs) - alive), stale


def test_every_definition_is_reached_from_the_command():
    assert audit(SRC) == ([], [])


_ENGINE = '''
def main(argv):
    return _HANDLERS[argv[0]](argv)

def run():
    main(["x"])

def _do_x(argv):
    return Box().size()

_HANDLERS = {"x": _do_x}

class Box:
    def __init__(self):
        self.n = 1

    def size(self):
        return self.n

    def unused(self):
        return 0
'''


def test_gate_reports_unreached_code_and_stale_entries(tmp_path):
    (tmp_path / "cli.py").write_text(_ENGINE + "\ndef _helper():\n    return 1\n")
    (tmp_path / "__init__.py").write_text("from .cli import _helper\n")
    # A planted helper and an unread method are reported; a handler reached only
    # through the dispatch table, and a method reached only as an attribute, are not.
    assert audit(tmp_path, allowed={}) == (["cli.Box.unused", "cli._helper"], [])
    assert audit(tmp_path, allowed={"cli._helper": "", "cli.Box.unused": ""}) == ([], [])
    # An entry whose definition is gone, or that the engine reaches, is stale.
    stale = {"cli._helper": "", "cli.gone": "", "cli._do_x": ""}
    assert audit(tmp_path, allowed=stale) == (["cli.Box.unused"], ["cli._do_x", "cli.gone"])


def test_attribute_off_a_module_name_reaches_its_function(tmp_path):
    (tmp_path / "cli.py").write_text("from . import ops\n\n"
                                     "def main():\n    return ops.go()\n\n"
                                     "def run():\n    main()\n")
    (tmp_path / "ops.py").write_text("def go():\n    return 1\n\ndef stay():\n    return 2\n")
    assert audit(tmp_path, allowed={}) == (["ops.stay"], [])
