"""Finite duality: lattice validation, duals, Stone map, Heyting ops."""

import pytest

from priestley import (
    ClopenUpset,
    DistLattice,
    FinitePoset,
    birkhoff,
    build_poset,
    clopen_upset_lattice,
    enumerate_upsets,
    heyting,
    lattice_from_json,
    oracle,
    poset_from_json,
    priestley_dual,
    stone_map,
    validate_lattice,
)
from priestley.birkhoff import implies_set, pseudocomplement_set
from priestley.errors import (
    NotALattice,
    NotAnUpset,
    NotDistributive,
    SpaceMismatch,
    Unbounded,
    UnknownElement,
    UnknownLabel,
)
from priestley.oracle import enumerate_posets
from priestley.poset import mask_of, order_closure, set_of, upset_masks
from test_golden import _boolean


def three_chain_lattice():
    return validate_lattice(build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")]))


def boolean_two():
    # powerset of a two-element set
    P = build_poset(["0", "x", "y", "1"],
                    [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    return validate_lattice(P)


def test_three_chain_validates():
    D = three_chain_lattice()
    assert D.labels[D.bottom] == "0" and D.labels[D.top] == "1"


def test_boolean_validates():
    boolean_two()


def test_m3_not_distributive():
    P = build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )
    with pytest.raises(NotDistributive) as e:
        validate_lattice(P)
    assert len(e.value.triple) == 3


def test_vee_not_a_lattice():
    P = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    with pytest.raises(NotALattice):
        validate_lattice(P)


def test_empty_unbounded():
    with pytest.raises(Unbounded):
        validate_lattice(build_poset([], []))


def test_dual_of_three_chain_is_two_chain():
    D = three_chain_lattice()
    X = priestley_dual(D)
    assert X.n == 2
    # exactly one strict relation
    assert sum(X.le(i, j) for i in range(2) for j in range(2) if i != j) == 1


def test_dual_of_boolean_is_antichain():
    D = boolean_two()
    X = priestley_dual(D)
    assert X.n == 2
    assert not X.le(0, 1) and not X.le(1, 0)


def test_dual_of_two_element_lattice_is_point():
    D = validate_lattice(build_poset(["0", "1"], [("0", "1")]))
    assert priestley_dual(D).n == 1


def test_stone_map_three_chain():
    D = three_chain_lattice()
    X = priestley_dual(D)
    phi_a = stone_map(D, "a")
    top_point = next(i for i in range(2) if order_closure(X, {i}, "up") == {i})
    assert phi_a.members == {top_point}
    assert stone_map(D, D.top).members == frozenset(range(X.n))
    assert stone_map(D, D.bottom).members == frozenset()


@pytest.mark.parametrize("a", [1.5, None, True, [0], b"a"])
def test_stone_map_rejects_what_is_neither_label_nor_index(a):
    with pytest.raises(UnknownElement):
        stone_map(three_chain_lattice(), a)


def test_stone_map_is_order_embedding():
    for D in (three_chain_lattice(), boolean_two()):
        for a in range(D.n):
            for b in range(D.n):
                assert D.le(a, b) == (stone_map(D, a).members <= stone_map(D, b).members)


def test_clopen_upset_lattice_shapes():
    two_chain = build_poset(["x1", "x2"], [("x1", "x2")])
    D = clopen_upset_lattice(two_chain)
    assert D.n == 3  # three-chain lattice
    anti = build_poset(["a", "b"], [])
    assert clopen_upset_lattice(anti).n == 4
    point = build_poset(["a"], [])
    assert clopen_upset_lattice(point).n == 2


def test_round_trip_via_stone_map():
    # phi is a lattice isomorphism onto ClopUp(dual), with exactly
    # matching order, meet, and join tables
    for D in (three_chain_lattice(), boolean_two()):
        X = priestley_dual(D)
        E = clopen_upset_lattice(X)
        idx = {u: i for i, u in enumerate(enumerate_upsets(X))}
        send = [idx[stone_map(D, a).members] for a in range(D.n)]
        assert sorted(send) == list(range(E.n))  # bijection
        for a in range(D.n):
            for b in range(D.n):
                assert D.le(a, b) == E.le(send[a], send[b])
                assert send[D.meet[a][b]] == E.meet[send[a]][send[b]]
                assert send[D.join[a][b]] == E.join[send[a]][send[b]]


def test_dual_satisfies_priestley_separation():
    for D in (three_chain_lattice(), boolean_two()):
        X = priestley_dual(D)
        for x in range(X.n):
            for y in range(X.n):
                if not X.le(x, y):
                    up = order_closure(X, {x}, "up")
                    assert x in up and y not in up


def test_heyting_examples():
    two_chain = build_poset(["x1", "x2"], [("x1", "x2")])
    U = ClopenUpset(two_chain, frozenset({1}))
    star = heyting(two_chain, U)
    assert star.members == frozenset()
    empty = ClopenUpset(two_chain, frozenset())
    assert heyting(two_chain, empty).members == {0, 1}
    anti = build_poset(["a", "b"], [])
    a = ClopenUpset(anti, frozenset({0}))
    b = ClopenUpset(anti, frozenset({1}))
    assert heyting(anti, a, b).members == {1}


def test_heyting_adjunction_and_join_meet_formulas():
    # W & U <= V  iff  W <= (U -> V); U* is the union of the upsets
    # disjoint from U; and the frame join/meet formulas collapse to
    # union/intersection (closure and interior are identities on finite
    # spaces)
    for P in (
        build_poset(["x1", "x2"], [("x1", "x2")]),
        build_poset(["a", "b"], []),
        build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")]),
    ):
        ups = enumerate_upsets(P)
        full = frozenset(range(P.n))
        for u in ups:
            m = mask_of(P, u)
            disjoint = 0
            for w in upset_masks(P):
                if w & m == 0:
                    disjoint |= w
            assert pseudocomplement_set(P, m) == disjoint
            for v in ups:
                imp = set_of(implies_set(P, mask_of(P, u), mask_of(P, v)))
                for w in ups:
                    assert ((w & u) <= v) == (w <= imp)
                # literal join formula: cl of the union (cl = identity)
                assert (u | v) in ups
                # literal meet formula: X \ down(X \ int(intersection))
                lit = full - order_closure(P, full - (u & v), "down")
                assert lit == u & v


def test_heyting_space_mismatch():
    X = build_poset(["a"], [])
    Y = build_poset(["b"], [])
    with pytest.raises(SpaceMismatch):
        heyting(Y, ClopenUpset(X, frozenset({0})))
    with pytest.raises(SpaceMismatch):
        heyting(Y, ClopenUpset(Y, frozenset({0})), ClopenUpset(X, frozenset({0})))


def test_clopen_upset_rejects_non_upset():
    two_chain = build_poset(["x1", "x2"], [("x1", "x2")])
    with pytest.raises(NotAnUpset):
        ClopenUpset(two_chain, frozenset({0}))


def test_lattice_from_json():
    D = lattice_from_json({
        "points": ["0", "a", "1"],
        "covers": [["0", "a"], ["a", "1"]],
        "bottom": "0",
        "top": "1",
    })
    assert D.n == 3
    with pytest.raises(Unbounded):
        lattice_from_json({
            "points": ["0", "a", "1"],
            "covers": [["0", "a"], ["a", "1"]],
            "bottom": "a",
        })


@pytest.mark.parametrize("obj, field", [
    ({"points": "ab"}, "points"),
    ({"points": ["a", 1]}, "points.1"),
    ({"points": ["a", "b"], "covers": "ab"}, "covers"),
    ({"points": ["a", "b"], "covers": [["a", "b"], ["a"]]}, "covers.1"),
    ({"points": ["a", "b"], "covers": [["a", "b", "a"]]}, "covers.0"),
    ({"points": ["a", "b"], "covers": [["a", ["b"]]]}, "covers.0"),
    ({"points": ["a", "b"], "covers": ["ab"]}, "covers.0"),
    ({"covers": []}, "points"),
    (["a", "b"], "points"),
])
def test_json_readers_name_the_field_at_fault(obj, field):
    for read in (poset_from_json, lattice_from_json):
        with pytest.raises(UnknownLabel) as info:
            read(obj)
        assert str(info.value).startswith(field + ":"), info.value


@pytest.mark.parametrize("field, value", [("bottom", ["0"]), ("top", 1)])
def test_lattice_from_json_rejects_a_bound_that_is_not_a_label(field, value):
    obj = {"points": ["0", "1"], "covers": [["0", "1"]], field: value}
    with pytest.raises(UnknownLabel) as info:
        lattice_from_json(obj)
    assert str(info.value).startswith(field + ":"), info.value


def _literal_verdict(P):
    """The first missing meet or join (pair order) or failing
    distributive law (triple order), straight from the definitions, or
    None; and the glb and lub tables as tuples of int tuples, or None
    when a pair has no meet or join."""
    n, le, lab = P.n, P.le, P.labels
    meet, join = {}, {}
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if le(c, a) and le(c, b)]
            glb = [c for c in lower if all(le(d, c) for d in lower)]
            if not glb:
                return f"no meet for pair {(lab[a], lab[b])}", None, None
            upper = [c for c in range(n) if le(a, c) and le(b, c)]
            lub = [c for c in upper if all(le(c, d) for d in upper)]
            if not lub:
                return f"no join for pair {(lab[a], lab[b])}", None, None
            meet[a, b], join[a, b] = glb[0], lub[0]
    tables = [tuple(tuple(t[a, b] for b in range(n)) for a in range(n))
              for t in (meet, join)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]:
                    return (f"distributivity fails at triple {(lab[a], lab[b], lab[c])}",
                            *tables)
    return None, *tables


def test_validation_witnesses_match_the_definitions():
    # and an accepted lattice's tables, built on first read, are the
    # glb and lub tables
    verdicts = set()
    for n in range(1, 7):
        for P in enumerate_posets(n):
            expected, meet, join = _literal_verdict(P)
            try:
                D = validate_lattice(P)
            except (NotALattice, NotDistributive) as e:
                got = str(e)
            else:
                got = None
                assert D.meet == meet and D.join == join, repr(P)
            assert got == expected, repr(P)
            verdicts.add(expected.split()[0] if expected else "ok")
    assert verdicts == {"no", "distributivity", "ok"}


def test_join_irreducibles_are_the_points_with_one_lower_cover():
    # on every order, lattice or not, of up to 5 points
    for n in range(1, 6):
        for P in enumerate_posets(n):
            lt = [[P.le(i, j) and i != j for j in range(n)] for i in range(n)]
            covers_below = [
                sum(lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
                    for i in range(n))
                for j in range(n)
            ]
            expected = sum(1 << j for j in range(n) if covers_below[j] == 1)
            assert birkhoff._join_irreducible_mask(P.down) == expected, repr(P)


def _upset_lattices(max_points):
    """Up(P), as a bare poset, for every poset P of up to max_points points."""
    for n in range(1, max_points + 1):
        for P in enumerate_posets(n):
            L = clopen_upset_lattice(P)
            yield FinitePoset(L.labels, L.up)


def test_accepted_lattices_never_reach_the_witness_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("a witness scan ran on an accept")

    monkeypatch.setattr(birkhoff, "_distributivity_witness", scan)
    monkeypatch.setattr(birkhoff, "_operation_tables", scan)
    for P in [*_upset_lattices(5), poset_from_json(_boolean(7))]:
        validate_lattice(P)


_TABLES = (DistLattice.meet.fget, DistLattice.join.fget)


def test_the_accept_path_builds_no_meet_or_join_table(monkeypatch):
    D = lattice_from_json(_boolean(7))
    priestley_dual(D)
    for a in range(D.n):
        stone_map(D, a)
    assert not set(_TABLES) & set(D._tables)
    # nor does the space round trip build them on the upset lattices
    used = []

    def kept(P, fn=oracle.clopen_upset_lattice):
        used.append(fn(P))
        return used[-1]

    monkeypatch.setattr(oracle, "clopen_upset_lattice", kept)
    cases = oracle.run_suite(["duality-round-trip"], bound=4)
    assert all(c.ok() for c in cases) and len(used) == len(cases) == 24
    assert not any(set(_TABLES) & set(L._tables) for L in used)
    # and the tables, once read, are kept
    assert D.meet is D.meet and set(D._tables) >= {_TABLES[0]}


# M3 and N5 on a low point "lo" and a high point "hi"; gluing identifies
# one of them with the top or the bottom of a distributive lattice
_PIECES = {
    "M3": [("lo", "pa"), ("lo", "pb"), ("lo", "pc"),
           ("pa", "hi"), ("pb", "hi"), ("pc", "hi")],
    "N5": [("lo", "pa"), ("pa", "pb"), ("pb", "hi"), ("lo", "pc"), ("pc", "hi")],
}


@pytest.mark.parametrize("piece", sorted(_PIECES))
def test_glued_non_distributive_pieces_give_the_literal_witness(piece):
    for L in _upset_lattices(4):
        labels = list(L.labels)
        covers = [(labels[i], labels[j]) for i, j in L.covers()]
        bottom, top = labels[0], labels[-1]
        for glue in ({"lo": top, "hi": "pz"}, {"lo": "pz", "hi": bottom}):
            P = build_poset(
                labels + ["pa", "pb", "pc", "pz"],
                covers + [(glue.get(x, x), glue.get(y, y)) for x, y in _PIECES[piece]],
            )
            with pytest.raises(NotDistributive) as info:
                validate_lattice(P)
            assert str(info.value) == _literal_verdict(P)[0], repr(P)


def test_the_boolean_lattice_on_eight_atoms_validates_and_dualizes():
    D = lattice_from_json(_boolean(8))
    assert D.n == 256
    X = priestley_dual(D)
    assert X.n == 8
    assert all(not X.le(i, j) for i in range(8) for j in range(8) if i != j)
