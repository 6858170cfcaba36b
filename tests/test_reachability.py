"""Every public top-level name in multipat has a reader.

A public def, class or assignment of a src/multipat module (other than the
package __init__) must appear as a word outside its own definition: in the
package source, in a perfbench/*.py script, or in tests/test_acceptance.py.
Unit tests do not count, so code that only they reach shows up here.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multipat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = {
    p: p.read_text()
    for p in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
              ROOT / "tests" / "test_acceptance.py"]
}


def public_definitions(source: str):
    """(name, first line, last line) of each public top-level def, class and
    assignment target in source, lines 1-based, decorators included."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            if not name.startswith("_"):
                yield name, first, node.end_lineno


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_name_has_a_reader(module):
    source = READERS[module]
    lines = source.splitlines(keepends=True)
    others = [text for path, text in READERS.items() if path != module]
    unread = []
    for name, first, last in public_definitions(source):
        rest = "".join(lines[: first - 1] + lines[last:])
        if not any(re.search(rf"\b{name}\b", text) for text in [rest, *others]):
            unread.append(name)
    assert not unread, f"{module.name}: no reader outside unit tests for {unread}"
