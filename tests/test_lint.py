"""Source-level rules for the package."""

import ast
import pathlib
import re

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


def test_engine_contract_resolves_on_every_engine():
    # the contract is listed once, in spectrum's module docstring; every
    # name it lists must exist on the finite engine and each fan engine
    from priestley import spectrum
    from priestley.fans import FAMILIES, engine_for
    from priestley.poset import build_poset

    doc = spectrum.__doc__
    listed = doc[doc.index("The engine contract"):doc.index("The oracle's exhaustive")]
    names = re.findall(r"``([a-z_]\w*)``", listed)  # not ``None``
    assert len(names) > 20, names
    engines = [spectrum.FiniteEngine(build_poset(["a", "b"], [("a", "b")]))]
    engines += [engine_for(fam) for fam in FAMILIES]
    missing = [
        (type(E).__name__, name)
        for E in engines for name in names if not hasattr(E, name)
    ]
    assert missing == []
