"""Every top-level name in multipat has a reader.

A def, class or assignment of a src/multipat module (other than the
package __init__), public or private but not a dunder, must appear as a
word outside its own definition: in the package source, in a
perfbench/*.py script, or in tests/test_acceptance.py. Unit tests do not
count, so code that only they reach, or a helper left behind when its
caller went, shows up here.
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


def top_level_definitions(source: str):
    """(name, first line, last line) of each top-level def, class and
    assignment target in source other than dunders, lines 1-based,
    decorators included."""
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
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def unread_names(module: Path, private: bool) -> list[str]:
    """The public (or private) top-level names of module with no reader."""
    source = READERS[module]
    lines = source.splitlines(keepends=True)
    others = [text for path, text in READERS.items() if path != module]
    unread = []
    for name, first, last in top_level_definitions(source):
        if name.startswith("_") != private:
            continue
        rest = "".join(lines[: first - 1] + lines[last:])
        if not any(re.search(rf"\b{name}\b", text) for text in [rest, *others]):
            unread.append(name)
    return unread


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_name_has_a_reader(module):
    unread = unread_names(module, private=False)
    assert not unread, f"{module.name}: no reader outside unit tests for {unread}"


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_name_has_a_reader(module):
    unread = unread_names(module, private=True)
    assert not unread, f"{module.name}: no reader outside unit tests for {unread}"
