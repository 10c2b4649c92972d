import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qscat"


def test_src_holds_no_assert_statement():
    """`python -O` strips assert statements, so no check in the program
    may be one: each raises a QscatError (or another exception) instead."""
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and found == []
