"""The package holds no test-only code.

Every top-level function or class in ``src/graphlap`` is exported in
``graphlap.__all__`` or named as a word somewhere in the program outside its
own definition: in ``src/``, ``scripts/`` or a non-test module of
``perfbench/``.  A helper that only the tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

import graphlap as gl

ROOT = Path(__file__).resolve().parents[1]


def program_files():
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield from sorted((ROOT / "scripts").rglob("*.py"))
    yield from (p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_"))


def top_level_definitions():
    """(file, name, first line, last line) of each top-level def and class,
    decorators included."""
    for path in sorted((ROOT / "src" / "graphlap").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno


def test_every_top_level_definition_is_exported_or_used_by_the_program():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in program_files()}
    definitions = list(top_level_definitions())
    assert "solve" in {name for _, name, _, _ in definitions}
    orphans = []
    for home, name, first, last in definitions:
        if name in gl.__all__:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for path, text in lines.items() for i, line in enumerate(text, 1)
                   if not (path == home and first <= i <= last)):
            orphans.append(f"{home.name}:{first} {name}")
    assert not orphans, f"defined in src/graphlap but named only by tests: {orphans}"
