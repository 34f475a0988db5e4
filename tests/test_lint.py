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


def classes_in_functions(tree):
    """The line of each class statement inside a function body."""
    lines = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(n.lineno for n in ast.walk(fn) if isinstance(n, ast.ClassDef))
    return sorted(lines)


def test_no_class_is_defined_inside_a_function():
    # a class made in a function body is a new subclass per call, the
    # shape of a planted fault; the package's types are all module-level
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in classes_in_functions(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    # and the lint sees a class in a method and one two functions deep,
    # each once, but not a class at module level
    planted = ast.parse("class A:\n    def f(self):\n        class B: pass\n"
                        "def g():\n    def h():\n        class C: pass\n")
    assert classes_in_functions(planted) == [3, 6]


def test_every_public_name_resolves():
    missing = [name for name in priestley.__all__ if not hasattr(priestley, name)]
    assert missing == []


def contract_names():
    """The names the engine contract in spectrum's module docstring
    lists, and the names its line of engine-kind extras lists."""
    from priestley import spectrum

    doc = spectrum.__doc__
    start, extras = doc.index("The engine contract"), doc.index("The oracle's exhaustive")

    def names(text):
        return re.findall(r"``([a-z_]\w*)``", text)  # not ``None``

    return names(doc[start:extras]), names(doc[extras:])


def every_engine():
    from priestley import spectrum
    from priestley.fans import FAMILIES, engine_for
    from priestley.poset import build_poset

    engines = [spectrum.FiniteEngine(build_poset(["a", "b"], [("a", "b")]))]
    return engines + [engine_for(fam) for fam in FAMILIES]


def test_engine_contract_resolves_on_every_engine():
    # the contract is listed once, in spectrum's module docstring; every
    # name it lists must exist on the finite engine and each fan engine
    names, _ = contract_names()
    assert len(names) == 22, names
    missing = [
        (type(E).__name__, name)
        for E in every_engine() for name in names if not hasattr(E, name)
    ]
    assert missing == []


def unread_names(names, trees):
    """The names that no tree reads as an attribute outside a class
    body; inside one, an engine's own methods read its attributes."""
    read = set()

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                read.add(child.attr)
            walk(child)

    for tree in trees:
        walk(tree)
    return [name for name in names if name not in read]


def unlisted_attributes(engines, listed):
    """The public attributes of each engine that ``listed`` lacks."""
    return [f"{type(E).__name__}.{name}" for E in engines
            for name in dir(E) if not name.startswith("_") and name not in listed]


def test_engine_contract_is_read_and_complete():
    # each listed name has a caller among the modules that drive the
    # engines, and an engine has no public attribute the lists omit: a
    # method only a test calls would be a second statement of a rule
    names, extras = contract_names()
    trees = [ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
             for module in ("spectrum", "oracle", "cli")]
    assert unread_names(names + extras, trees) == []
    assert unlisted_attributes(every_engine(), names + extras) == []
    # and the lint sees each kind of gap
    planted = ast.parse("def f(E):\n    return E.meet(E.full, E.empty)\n"
                        "class G:\n    def g(self):\n        return self.up\n")
    assert unread_names(["meet", "full", "up", "down"], [planted]) == ["up", "down"]
    engine = every_engine()[0]

    class Planted(type(engine)):
        def helper(self):
            return self.full

    assert unlisted_attributes([Planted(engine.poset)], names + extras) == [
        "Planted.helper"]


def stray_family_names(module, source):
    """Where a package module spells a fan family's name, as
    ``module:line 'name'``, outside the places that declare the families:
    the keys of ``fans._SHAPE``, each engine class's ``family``, and the
    keys of ``oracle._EXPECTED_FIGURES``, the paper's table."""
    from priestley.fans import FAMILIES

    tree = ast.parse(source)
    def assigns(node, name):
        return (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])

    table = {"fans.py": "_SHAPE", "oracle.py": "_EXPECTED_FIGURES"}.get(module)
    allowed = set()
    for node in ast.walk(tree):
        if table and assigns(node, table):
            allowed.update(map(id, node.value.keys))
        if module == "fans.py" and isinstance(node, ast.ClassDef):
            allowed.update(id(s.value) for s in node.body if assigns(s, "family"))
    return [
        f"{module}:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in FAMILIES
        and id(node) not in allowed
    ]


def test_fan_family_names_appear_only_in_the_shape_table_and_engines():
    # which regions a family has is declared once, in fans._SHAPE; code
    # that tests a family's name (a name set, a == "...", a table keyed
    # by family) would restate it
    from priestley import fans

    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in stray_family_names(path.name, path.read_text(encoding="utf-8"))]
    assert found == []
    assert tuple(fans._ENGINES) == fans.FAMILIES
    # and the lint fires: a table keyed by family outside fans.py, or a
    # family's name outside the paper's table in oracle.py
    planted = 'EDGES = {\n    "omega_fans": [],\n}\n_EXPECTED_FIGURES = {"bare_fan": 1}\n'
    assert stray_family_names("cli.py", planted) == [
        "cli.py:2 'omega_fans'", "cli.py:4 'bare_fan'"]
    assert stray_family_names("oracle.py", planted) == ["oracle.py:2 'omega_fans'"]


BITWISE = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift, ast.Invert)
FINITE_ONLY = {"poset", "n", "all_upsets"}


def finite_only_sites(source, functions):
    """Where the bodies of the named functions use a bitwise operator or
    read ``poset``, ``n`` or ``all_upsets``, as ``function:line what``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in functions:
            continue
        for node in ast.walk(fn):
            op = getattr(node, "op", None)
            name = getattr(node, "attr", getattr(node, "id", None))
            if isinstance(op, BITWISE):
                found.append((node.lineno, node.col_offset, fn.name, type(op).__name__))
            elif isinstance(node, (ast.Attribute, ast.Name)) and name in FINITE_ONLY:
                found.append((node.lineno, node.col_offset, fn.name, name))
    return [f"{fn}:{line} {what}" for line, _, fn, what in sorted(found)]


def test_the_shared_laws_are_engine_generic():
    # the nucleus and core laws run on finite and fan engines alike: an
    # int operator or a finite engine's extra name would tie them to one
    from priestley import oracle

    laws = ("_nucleus_laws", "_core_laws")
    source = pathlib.Path(oracle.__file__).read_text(encoding="utf-8")
    assert all(hasattr(oracle, fn) for fn in laws)
    assert finite_only_sites(source, laws) == []
    # and the lint sees each kind of breach, in the named functions only
    planted = ("def _core_laws(E, ups):\n    a = ups[0] & ~E.full\n    a |= 1 << E.n\n"
               "    return E.poset, all_upsets\n"
               "def other(E):\n    return E.full & E.n\n")
    assert finite_only_sites(planted, laws) == [
        "_core_laws:2 BitAnd", "_core_laws:2 Invert", "_core_laws:3 BitOr",
        "_core_laws:3 LShift", "_core_laws:3 n", "_core_laws:4 poset",
        "_core_laws:4 all_upsets"]


def sites(node, match, owner="<module>"):
    """The enclosing function (or class) of each node that ``match``
    accepts, in the tree under node."""
    for child in ast.iter_child_nodes(node):
        if match(child):
            yield owner
        scope = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from sites(child, match, child.name if scope else owner)


def callers(node, name):
    """The enclosing function (or class) of each ``name(...)`` call."""
    return sites(node, lambda n: isinstance(n, ast.Call)
                 and getattr(n.func, "id", None) == name)


def test_tame_sets_are_built_only_by_the_constructor_and_the_algebra():
    # make_tame establishes canonical form and the four operations
    # preserve it; any other TameSet in fans.py has to come through them
    from priestley import fans

    tree = ast.parse(pathlib.Path(fans.__file__).read_text(encoding="utf-8"))
    found = set(callers(tree, "TameSet"))
    assert found == {"make_tame", "_combine", "tame_complement", "tame_closure"}


def calls_any(node, names):
    """Whether the tree under node calls a function named in ``names``."""
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) in names
               for n in ast.walk(node))


def class_slots(cls):
    """The ``__slots__`` a class body declares, or None."""
    for s in cls.body:
        if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "__slots__":
            return set(ast.literal_eval(s.value))
    return None


def poset_slots(tree):
    """The ``__slots__`` of the ``FinitePoset`` class of a module tree."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "FinitePoset"
            for name in class_slots(node) or ()}


def is_table(node):
    """Whether a function is a table of its poset, built by ``_table``."""
    return any(getattr(d, "id", getattr(d, "attr", None)) == "_table"
               for d in node.decorator_list)


def frozenset_caches(trees):
    """Caches of a poset, in any of the module trees, that make
    frozensets: assignments of such a value to a slot of
    ``FinitePoset`` or an entry of its ``_tables``, and ``_table``
    builders that make one.  A value or builder makes frozensets when it
    calls ``frozenset``, ``set_of``, or a function of the trees whose
    body calls ``set_of``."""
    makers, slots = {"frozenset", "set_of"}, set()
    for tree in trees.values():
        slots |= poset_slots(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and calls_any(node, {"set_of"}):
                makers.add(node.name)
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and calls_any(node.value, makers):
                found += [(module, node.lineno, t.attr) for t in node.targets
                          if getattr(t, "attr", None) in slots]
                found += [(module, node.lineno, "_tables[]") for t in node.targets
                          if getattr(getattr(t, "value", None), "attr", None) == "_tables"]
            elif (isinstance(node, ast.FunctionDef) and is_table(node)
                  and calls_any(node, makers)):
                found.append((module, node.lineno, node.name))
    return [f"{module}:{line} {name}" for module, line, name in sorted(found)]


def test_frozensets_are_made_only_at_the_boundary():
    # point sets are int masks inside the package; poset.set_of is the
    # one place a frozenset is built, and a poset caches no frozensets
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = [f"{module}:{owner}" for module, tree in trees.items()
             for owner in callers(tree, "frozenset")]
    assert found == ["poset.py:set_of"]
    assert frozenset_caches(trees) == []
    # and the lint sees each kind of cache
    planted = ast.parse("class FinitePoset:\n"
                        "    __slots__ = ('up', '_a', '_b', '_c')\n"
                        "def set_of(m): return frozenset(m)\n"
                        "def views(P): return [set_of(m) for m in P.up]\n"
                        "def fill(P):\n"
                        "    P._a = tuple(set_of(m) for m in P.up)\n"
                        "    P._b = {m: frozenset() for m in P.up}\n"
                        "    P._c = views(P)\n"
                        "    P._d = frozenset()\n"
                        "    P.up = tuple(P.up)\n"
                        "@_table\n"
                        "def _e(P): return tuple(views(P))\n"
                        "@_table\n"
                        "def _f(P): return P.up\n"
                        "def _g(P): return views(P)\n"
                        "def seed(P, key):\n"
                        "    P._tables[key] = views(P)\n"
                        "    P._tables[key] = tuple(P.up)\n")
    assert frozenset_caches({"m": planted}) == [
        "m:6 _a", "m:7 _b", "m:8 _c", "m:12 _e", "m:17 _tables[]"]


def attribute_writes(node):
    """Each attribute node assigned or deleted under node."""
    for n in ast.walk(node):
        if isinstance(n, (ast.Assign, ast.Delete)):
            targets = n.targets
        elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
            targets = [n.target]
        else:
            continue
        yield from (t for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Attribute) and not isinstance(t.ctx, ast.Load))


def writes_after_construction(trees):
    """Attribute writes in any of the module trees other than a class's
    own ``__init__`` setting an attribute of ``self`` (one of its slots,
    where the class declares them), and every ``setattr`` or
    ``delattr`` call: so no poset, engine, lattice or nucleus is written
    after its constructor."""
    found = []
    for module, tree in trees.items():
        init = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            slots = class_slots(cls)
            for f in cls.body:
                if getattr(f, "name", None) == "__init__":
                    init.update(t for t in attribute_writes(f)
                                if getattr(t.value, "id", None) == "self"
                                and (slots is None or t.attr in slots))
        for t in attribute_writes(tree):
            if t not in init:
                name = getattr(t.value, "id", getattr(t.value, "attr", None))
                found.append((module, t.lineno, f"{name}.{t.attr}"))
        found += [(module, n.lineno, n.func.id) for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "id", None) in ("setattr", "delattr")]
    return [f"{module}:{line} {what}" for module, line, what in sorted(found)]


def memo_writes(trees):
    """Assignments and deletions of ``<expr>._tables[...]`` in any of the
    module trees other than poset.py's: only the module that defines
    ``_table`` writes an object's memo."""
    found = []
    for module, tree in trees.items():
        if module == "poset.py":
            continue
        for n in ast.walk(tree):
            if (isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)
                    and isinstance(n.value, ast.Attribute) and n.value.attr == "_tables"):
                owner = n.value.value
                name = getattr(owner, "id", getattr(owner, "attr", None))
                found.append(f"{module}:{n.lineno} {name}._tables[]")
    return found


def default_getattr_reads(trees):
    """Calls of ``getattr`` with a default, in any of the module trees:
    the read of a cache kept in an attribute that may not be set yet."""
    return [f"{module}:{n.lineno} getattr" for module, tree in trees.items()
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
            and len(n.args) + len(n.keywords) > 2]


def test_a_poset_keeps_its_tables_in_one_memo():
    # everything derived from an order lives in P._tables, which
    # poset.drop_tables empties in one call, and everything derived from
    # an engine or a lattice lives in its own _tables, through
    # poset._table: no object has another slot to cache in, no code
    # sets an attribute of an object after its constructor, none outside
    # poset.py writes into a memo, and none reads a cache through
    # getattr(obj, name, default)
    from priestley import spectrum
    from priestley.birkhoff import DistLattice
    from priestley.nuclei import Nucleus
    from priestley.poset import FinitePoset

    assert FinitePoset.__slots__ == ("labels", "up", "down", "_index", "_tables")
    assert DistLattice.__slots__[-1] == "_tables" and "_table" not in Nucleus.__slots__
    assert not hasattr(FinitePoset(["a"], [1]), "__dict__")
    for E in every_engine():
        attributes = set(vars(E))
        spectrum.spectrum_report(E)
        assert set(vars(E)) == attributes and E._tables
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert writes_after_construction(trees) == []
    assert memo_writes(trees) == []
    assert default_getattr_reads(trees) == []
    # and the lint sees each kind of write and read, and none of the
    # allowed ones
    planted = ast.parse("class FinitePoset:\n"
                        "    __slots__ = ('up', '_tables')\n"
                        "    def __init__(self, up):\n"
                        "        self.up = up\n"
                        "        self._tables = {}\n"
                        "        self._extra = None\n"
                        "    def grow(self):\n"
                        "        self.up = ()\n"
                        "def seed(P, E, key):\n"
                        "    P._tables[key] = 1\n"
                        "    P._canon = key\n"
                        "    E.poset._x, n = 1, 2\n"
                        "    E.name = 'e'\n"
                        "    del P._tables\n"
                        "    P.n += 1\n"
                        "class Nucleus:\n"
                        "    def __init__(self, masks):\n"
                        "        self.masks = masks\n"
                        "    def table(self):\n"
                        "        self._table = dict(self.masks)\n"
                        "        setattr(self, 'masks', None)\n"
                        "def read(E, r, k):\n"
                        "    return getattr(E, '_yd', None), getattr(r, k)\n"
                        "def seed_memo(E, key):\n"
                        "    E.poset._tables[key], n = 1, 2\n")
    assert writes_after_construction({"m": planted}) == [
        "m:6 self._extra", "m:8 self.up", "m:11 P._canon", "m:12 poset._x",
        "m:13 E.name", "m:14 P._tables", "m:15 P.n", "m:20 self._table",
        "m:21 setattr"]
    assert default_getattr_reads({"m": planted}) == ["m:23 getattr"]
    allowed = ast.parse("def seed(P, key):\n    P._tables[key] = 1\n")
    assert memo_writes({"m": planted, "poset.py": allowed}) == [
        "m:10 P._tables[]", "m:25 poset._tables[]"]


def rule_loop_sites(source, engines):
    """Sites in the methods of the named engine classes that walk fans
    one at a time: a for or while statement, a call of ``_fan_region``,
    or ``dict(<set>.fan_exc)`` passed on.  ``engines`` maps a class name
    to the names of the methods to search, or to None for every method
    but the sample draw."""
    found = []
    for cls in ast.parse(source).body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in engines):
            continue
        rules = engines[cls.name]
        for method in cls.body:
            if (not isinstance(method, ast.FunctionDef) or method.name == "_draw"
                    or rules is not None and method.name not in rules):
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


SHARED_RULES = ("up", "down", "core", "points_with_up_inside")


def test_engine_rules_do_not_walk_the_fans():
    # the order, core and Scott rules are index-region arithmetic: a
    # loop over fan indices or a rebuilt exception dict is a second,
    # slower statement of a rule that the masks already give
    from priestley import fans

    source = pathlib.Path(fans.__file__).read_text(encoding="utf-8")
    engines = dict.fromkeys(cls.__name__ for cls in fans._ENGINES.values())
    assert len(engines) == 4
    # the shared engine's rules, not its rendering and point walks
    engines["FanEngine"] = SHARED_RULES
    assert rule_loop_sites(source, engines) == []
    # and the lint sees each kind of site, in the searched methods only
    planted = ("class E:\n"
               "    def core(self, u):\n"
               "        for i in u: pass\n"
               "        return u._fan_region(0), dict(u.fan_exc)\n"
               "    def describe_set(self, u):\n"
               "        for i in u: pass\n")
    assert rule_loop_sites(planted, {"E": None}) == [
        "E.core:3 for", "E.core:4 _fan_region", "E.core:4 dict(fan_exc)",
        "E.describe_set:6 for"]
    assert rule_loop_sites(planted, {"E": SHARED_RULES}) == [
        "E.core:3 for", "E.core:4 _fan_region", "E.core:4 dict(fan_exc)"]


def definers(source, name):
    """The classes of a module whose body defines or assigns ``name``."""
    def binds(node):
        if isinstance(node, ast.FunctionDef):
            return node.name == name
        return isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == name for t in node.targets)

    return [cls.name for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) and any(map(binds, cls.body))]


def bulk_index_sites(node):
    """The enclosing function of each representative index computed in
    a tree: a ``.bit_length()`` of an expression that calls ``_exc`` or
    ``_fan_indices`` (a bulk past its exceptions, or the fresh index)."""
    return sites(node, lambda n: isinstance(n, ast.Call)
                 and getattr(n.func, "attr", None) == "bit_length"
                 and calls_any(n.func.value, {"_exc", "_fan_indices"}))


def test_each_derived_fan_rule_is_stated_once():
    # the core and the pointwise d-core follow from each family's order;
    # FanEngine states them once, and only chain_fans, whose spine
    # descends, has a d-core of its own.  The localic part is one table
    # in spectrum, for every engine, and the representative of each
    # piece of a tame set is fixed by one walk, which member_reps and
    # select both read
    from priestley import fans, spectrum

    source = pathlib.Path(fans.__file__).read_text(encoding="utf-8")
    assert definers(source, "core") == ["FanEngine"]
    assert definers(source, "points_with_up_inside") == [
        "FanEngine", "ChainFansEngine"]
    for module in (fans, spectrum):
        assert definers(pathlib.Path(module.__file__).read_text(encoding="utf-8"),
                         "localic_part") == [], module.__name__
    assert set(bulk_index_sites(ast.parse(source))) == {"_walk"}
    # and the lint sees a rule restated by a method or an alias
    planted = ("class A:\n    def core(self, u): return u\n"
               "class B(A):\n    core = A.core\n"
               "class C(A):\n    def up(self, u): return u\n"
               "    def localic_part(self): return self.full\n")
    assert definers(planted, "core") == ["A", "B"]
    assert definers(planted, "localic_part") == ["C"]
    # and a bulk or fresh index computed outside the walk
    planted = ("def _walk(a):\n    yield _exc(a.spine).bit_length()\n"
               "class E:\n    def member_reps(self, a):\n"
               "        return (_fan_indices(a) | _exc(a.spine)).bit_length()\n"
               "    def select(self, a, pred):\n"
               "        def bulk(r): return _exc(r).bit_length()\n"
               "        return a.spine.bits.bit_length()\n")
    assert list(bulk_index_sites(ast.parse(planted))) == ["_walk", "member_reps", "bulk"]


def named(node, name):
    """Whether node is the name or the attribute ``name``."""
    return getattr(node, "attr", getattr(node, "id", None)) == name


def and_not(node):
    """The two sides of ``a & ~b`` as (a, b), or None."""
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.Invert)):
        return node.left, node.right.operand
    return None


def engine_pseudocomplement(node):
    """``E.diff(E.full, E.down(a))`` or ``E.full & ~E.down(a)``."""
    if isinstance(node, ast.Call) and named(node.func, "diff") and len(node.args) == 2:
        sides = node.args
    else:
        sides = and_not(node)
    return (sides is not None and named(sides[0], "full")
            and isinstance(sides[1], ast.Call) and named(sides[1].func, "down"))


def mask_pseudocomplement(node):
    """``m & ~down[a]``: the complement of a downset row, on masks."""
    sides = and_not(node)
    return (sides is not None and isinstance(sides[1], ast.Subscript)
            and named(sides[1].value, "down"))


def union_of_moves(node):
    """``moved |= v & ~u``: the points an entry U -> jU moves, gathered."""
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
            and and_not(node.value) is not None)


def test_the_nuclear_set_rules_are_coded_once():
    # j_N U = X - down(N - U) is spectrum.pseudocomplement on the engine
    # contract and birkhoff.implies_set on masks, where nucleus_of_nuclear
    # keeps it inline for speed and the meet splits take X - down(m) of a
    # point; N_j, the points no entry of j moves, is nuclei.unmoved_points
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}

    def found(match):
        return sorted({f"{module}.{owner}" for module, tree in trees.items()
                       for owner in sites(tree, match)})

    assert found(engine_pseudocomplement) == ["spectrum.pseudocomplement"]
    assert found(mask_pseudocomplement) == [
        "birkhoff.implies_set", "nuclei.nucleus_of_nuclear", "poset.upset_meet_splits"]
    assert found(union_of_moves) == ["nuclei.unmoved_points"]
    # and the lint sees each form of each rule, in a method or a lambda too
    planted = ast.parse(
        "def a(E, u):\n    return E.diff(E.full, E.down(u))\n"
        "class B:\n    def b(self, u):\n        f = lambda v: self.full & ~self.down(v)\n"
        "def c(E, u):\n    return E.diff(E.full, E.up(u)), E.full & ~E.up(u)\n"
        "def d(X, full, u):\n    return full & ~closure_tables(X).down[u]\n"
        "def e(down, u):\n    return u & down[u], u & ~down\n"
        "def f(table):\n    moved = 0\n    for u, v in table.items():\n"
        "        moved |= v & ~u\n    return moved\n")
    assert list(sites(planted, engine_pseudocomplement)) == ["a", "b"]
    assert list(sites(planted, mask_pseudocomplement)) == ["d"]
    assert list(sites(planted, union_of_moves)) == ["f"]


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
    # engines, Y_d, d tables and nuclei are built for one poset's checks
    # in a run_suite call and dropped after them; a module-level cache,
    # in any module, would let a fault planted in a later run read a
    # clean value from an earlier one.  The containers left are declared
    # tables, and the oracle's enumeration memo
    found = {path.name: module_level_containers(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: sorted(names) for module, names in found.items() if names} == {
        "__init__.py": ["__all__"],
        "fans.py": ["_ENGINES", "_SHAPE"],
        "oracle.py": sorted(["CHECKS", "KINDS", "_POSET_MEMO", "_EXPECTED_FIGURES"]),
        "spectrum.py": ["MIN_YD_CLASSES"],
    }
    # and the lint sees each kind of container
    planted = ("import functools\n"
               "A = {}\nB: list = []\nC = set()\nD = {k: 1 for k in 'ab'}\n"
               "E = (1, 2)\nF = frozenset()\n"
               "@functools.lru_cache(maxsize=None)\ndef g(x): return x\n"
               "@functools.cache\ndef h(x): return x\n")
    assert module_level_containers(planted) == ["A", "B", "C", "D", "g", "h"]


def names_by_owner(tree):
    """Each name a module's code reads (a name, an attribute, or a part
    of a dotted string such as ``"poset.extrema"``), with the
    module-level function it is read in, or None outside one."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"\w+(\.\w+)*", node.value)):
                out += [(part, owner) for part in node.value.split(".")]
    return out


def unnamed_functions(package, others, exported):
    """The module-level functions of the ``package`` trees that no code
    names outside their own def, in the package or the ``others`` trees,
    that are not registered through ``_register`` and not ``exported``."""
    named = {}
    for module, tree in {**package, **others}.items():
        for name, owner in names_by_owner(tree):
            named.setdefault(name, set()).add((module, owner))
    return [f"{module}:{node.name}"
            for module, tree in package.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not any(getattr(getattr(d, "func", None), "id", None) == "_register"
                        for d in node.decorator_list)
            and node.name not in exported
            and not named.get(node.name, set()) - {(module, node.name)}]


def test_every_package_function_has_a_caller():
    # a function that only tests call (a reader of a format no command
    # reads, a wrapper nothing wraps) is surface to keep for nobody:
    # each one is named by the package, the demos or the benchmarks,
    # registered as a check, or exported
    root = PACKAGE.parents[1]

    def trees(paths):
        return {f"{p.parent.name}/{p.name}": ast.parse(p.read_text(encoding="utf-8"))
                for p in paths}

    package = trees(sorted(PACKAGE.glob("*.py")))
    others = trees(p for d in ("demos", "benchmarks")
                   for p in sorted((root / d).glob("*.py"))
                   if not p.name.startswith("test_"))
    assert "demos/04_theorem_sweep.py" in others and "benchmarks/spec.py" in others
    assert unnamed_functions(package, others, set(priestley.__all__)) == []
    # and the lint sees a function named only by itself or by a string
    # that is not a dotted name, and none of the ways of being reached
    planted = {"m.py": ast.parse(
        "def alone(n): return alone(n - 1)\n"
        "def shown(): 'shown'\n"
        "def helper(): return 1\n"
        "def used(): return helper()\n"
        "def traced(): pass\n"
        "def exported(): pass\n"
        "@_register('id', None)\ndef check(): pass\n")}
    reached = {"b.py": ast.parse("used()\nBOUNDARIES = ('m.traced',)\n"
                                 "'no alone here'\n")}
    assert unnamed_functions(planted, reached, {"exported"}) == ["m.py:alone", "m.py:shown"]
