"""Source-level rules for the package."""

import ast
import pathlib

import priestley

PACKAGE = pathlib.Path(priestley.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # an assert vanishes under python -O, and the check with it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_public_name_resolves():
    missing = [name for name in priestley.__all__ if not hasattr(priestley, name)]
    assert missing == []
