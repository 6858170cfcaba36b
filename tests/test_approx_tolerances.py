"""Every tight pytest.approx states its absolute tolerance.

pytest.approx(x, rel=r) without abs keeps the default absolute tolerance
1e-12, so with r <= 1e-12 a value below 1 is checked more loosely than r
says. An AST scan of tests/*.py and perfbench/*.py lists each approx(...)
call with a literal rel <= 1e-12 and no abs, as file:line.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
TIGHT_REL = 1e-12


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def loose_approx_calls(source: str):
    """Line numbers of the approx(expected, rel, abs, ...) calls in source
    whose rel is a literal number <= TIGHT_REL and that give no abs."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "approx":
            continue
        given = dict(zip(["expected", "rel", "abs"], node.args))
        given.update((k.arg, k.value) for k in node.keywords)
        rel = _literal(given["rel"]) if "rel" in given else None
        if isinstance(rel, (int, float)) and rel <= TIGHT_REL and "abs" not in given:
            yield node.lineno


def test_scan_finds_a_tight_rel_without_abs():
    source = "pytest.approx(a, rel=1e-14)\napprox(b, 1e-13)\napprox(c, rel=1e-14, abs=0.0)\n"
    source += "approx(d, rel=1e-6)\napprox(e, rel=tol)\n"
    assert list(loose_approx_calls(source)) == [1, 2]


def test_every_tight_approx_states_abs():
    loose = [f"{path.relative_to(ROOT)}:{line}"
             for path in SOURCES for line in loose_approx_calls(path.read_text())]
    assert not loose, f"approx with rel <= {TIGHT_REL} and no abs: {loose}"
