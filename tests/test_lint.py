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


def test_fan_family_names_appear_only_in_the_shape_table_and_engines():
    # which regions a family has is declared once, in fans._SHAPE; code
    # that tests a family's name (a name set, a == "...") would restate it
    from priestley import fans

    tree = ast.parse(pathlib.Path(fans.__file__).read_text(encoding="utf-8"))
    def assigns(node, name):
        return (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])

    allowed = set()
    for node in ast.walk(tree):
        if assigns(node, "_SHAPE"):
            allowed.update(map(id, node.value.keys))
        if isinstance(node, ast.ClassDef):
            allowed.update(id(s.value) for s in node.body if assigns(s, "family"))
    found = [
        f"fans.py:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in fans.FAMILIES
        and id(node) not in allowed
    ]
    assert found == []
    assert tuple(fans._ENGINES) == fans.FAMILIES


def test_tame_sets_are_built_only_by_the_constructor_and_the_algebra():
    # make_tame establishes canonical form and the four operations
    # preserve it; any other TameSet in fans.py has to come through them
    from priestley import fans

    def builders(node, owner):
        """The enclosing function (or class) of each TameSet(...) call."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "TameSet":
                yield owner
            scope = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            yield from builders(child, child.name if scope else owner)

    tree = ast.parse(pathlib.Path(fans.__file__).read_text(encoding="utf-8"))
    found = set(builders(tree, "<module>"))
    assert found == {"make_tame", "_combine", "tame_complement", "tame_closure"}


def rule_loop_sites(source, engines):
    """Sites in the named engine classes' methods, the samplers aside,
    that walk fans one at a time: a for or while statement, a call of
    ``_fan_region``, or ``dict(<set>.fan_exc)`` passed on."""
    found = []
    for cls in ast.parse(source).body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in engines):
            continue
        for method in cls.body:
            if (not isinstance(method, ast.FunctionDef)
                    or method.name == "sample_clopen_upsets"):
                continue
            for node in ast.walk(method):
                call = node.func if isinstance(node, ast.Call) else None
                if isinstance(node, (ast.For, ast.While)):
                    what = type(node).__name__.lower()
                elif getattr(call, "attr", getattr(call, "id", None)) == "_fan_region":
                    what = "_fan_region"
                elif (getattr(call, "id", None) == "dict" and len(node.args) == 1
                      and getattr(node.args[0], "attr", None) == "fan_exc"):
                    what = "dict(fan_exc)"
                else:
                    continue
                found.append(f"{cls.name}.{method.name}:{node.lineno} {what}")
    return found


def test_engine_rules_do_not_walk_the_fans():
    # the order, core and Scott rules are index-region arithmetic: a
    # loop over fan indices or a rebuilt exception dict is a second,
    # slower statement of a rule that the masks already give
    from priestley import fans

    source = pathlib.Path(fans.__file__).read_text(encoding="utf-8")
    engines = {cls.__name__ for cls in fans._ENGINES.values()}
    assert len(engines) == 4
    assert rule_loop_sites(source, engines) == []
    # and the lint sees each kind of site
    planted = ("class E:\n"
               "    def core(self, u):\n"
               "        for i in u: pass\n"
               "        return u._fan_region(0), dict(u.fan_exc)\n")
    assert rule_loop_sites(planted, {"E"}) == [
        "E.core:3 for", "E.core:4 _fan_region", "E.core:4 dict(fan_exc)"]


MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def module_level_containers(source):
    """Names bound at module level to a mutable container (a display, a
    comprehension or a container constructor), and module-level
    functions memoized by ``functools.cache`` or ``lru_cache``."""
    def name(node):
        return getattr(node, "attr", getattr(node, "id", None))

    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, MUTABLE_NODES) or (
                    isinstance(value, ast.Call) and name(value.func) in MUTABLE_CALLS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [name(t) for t in targets]
        elif isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                if name(dec.func if isinstance(dec, ast.Call) else dec) in (
                        "cache", "lru_cache"):
                    found.append(node.name)
    return found


def test_the_oracle_keeps_instance_data_only_per_run():
    # engines, Y_d, d tables and nuclei are shared within one run_suite
    # call and dropped after it; a module-level cache would let a fault
    # planted in a later run read a clean value from an earlier one
    from priestley import oracle

    source = pathlib.Path(oracle.__file__).read_text(encoding="utf-8")
    assert sorted(module_level_containers(source)) == sorted(
        ["CHECKS", "MUTATIONS", "_POSET_MEMO", "_EXPECTED_FIGURES"])
    # and the lint sees each kind of container
    planted = ("import functools\n"
               "A = {}\nB: list = []\nC = set()\nD = {k: 1 for k in 'ab'}\n"
               "E = (1, 2)\nF = frozenset()\n"
               "@functools.lru_cache(maxsize=None)\ndef g(x): return x\n"
               "@functools.cache\ndef h(x): return x\n")
    assert module_level_containers(planted) == ["A", "B", "C", "D", "g", "h"]
