"""Each rule has one implementation: no module-level function is defined twice.

Two module-level functions in ``src/txpkg`` count as the same when their
names, arguments and bodies are equal as syntax trees, docstrings aside.
"""

import ast
from collections import defaultdict
from pathlib import Path

import txpkg

SRC = Path(txpkg.__file__).resolve().parent


def _fingerprint(fn: ast.FunctionDef) -> tuple:
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return (fn.name, ast.dump(fn.args), tuple(ast.dump(stmt) for stmt in body))


def duplicate_functions(src: Path) -> dict[str, list[str]]:
    """name -> modules, for each function defined identically in two or more modules."""
    seen: dict[tuple, list[str]] = defaultdict(list)
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen[_fingerprint(node)].append(path.stem)
    return {key[0]: modules for key, modules in seen.items() if len(modules) > 1}


def test_no_function_is_defined_twice():
    assert duplicate_functions(SRC) == {}


def test_detector_finds_a_copy_up_to_its_docstring(tmp_path):
    (tmp_path / "a.py").write_text('def f(x):\n    """One."""\n    return x + 1\n')
    (tmp_path / "b.py").write_text("def f(x):\n    return x + 1\n\n"
                                   "def g(x):\n    return x + 1\n")
    (tmp_path / "c.py").write_text("def f(y):\n    return y + 1\n")
    assert duplicate_functions(tmp_path) == {"f": ["a", "b"]}
