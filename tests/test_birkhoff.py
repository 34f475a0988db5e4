"""Finite duality: lattice validation, duals, Stone map, Heyting ops."""

import pytest

from priestley import (
    ClopenUpset,
    build_poset,
    clopen_upset_lattice,
    enumerate_upsets,
    heyting,
    lattice_from_json,
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
)
from priestley.oracle import enumerate_posets
from priestley.poset import order_closure


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
    top_point = next(i for i in range(2) if X.up_set(i) == {i})
    assert phi_a.members == {top_point}
    assert stone_map(D, D.top).members == frozenset(range(X.n))
    assert stone_map(D, D.bottom).members == frozenset()


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
        idx = {u: i for i, u in enumerate(E.member_sets)}
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
                    up = X.up_set(x)
                    assert x in up and y not in up


def test_heyting_examples():
    two_chain = build_poset(["x1", "x2"], [("x1", "x2")])
    U = ClopenUpset(two_chain, frozenset({1}))
    star = heyting(two_chain, U, op="pseudocomplement")
    assert star.members == frozenset()
    empty = ClopenUpset(two_chain, frozenset())
    assert heyting(two_chain, empty, op="pseudocomplement").members == {0, 1}
    anti = build_poset(["a", "b"], [])
    a = ClopenUpset(anti, frozenset({0}))
    b = ClopenUpset(anti, frozenset({1}))
    assert heyting(anti, a, b, op="implies").members == {1}


def test_heyting_adjunction_and_join_meet_formulas():
    # W & U <= V  iff  W <= (U -> V); U* = U -> empty; and the frame
    # join/meet formulas collapse to union/intersection (closure and
    # interior are identities on finite spaces)
    for P in (
        build_poset(["x1", "x2"], [("x1", "x2")]),
        build_poset(["a", "b"], []),
        build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")]),
    ):
        ups = enumerate_upsets(P)
        full = frozenset(range(P.n))
        for u in ups:
            assert pseudocomplement_set(P, u) == implies_set(P, u, frozenset())
            for v in ups:
                imp = implies_set(P, u, v)
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
        heyting(Y, ClopenUpset(X, frozenset({0})), op="pseudocomplement")


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


def _literal_verdict(P):
    """The first missing meet or join (pair order) or failing
    distributive law (triple order), straight from the definitions."""
    n, le, lab = P.n, P.le, P.labels
    meet, join = {}, {}
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if le(c, a) and le(c, b)]
            glb = [c for c in lower if all(le(d, c) for d in lower)]
            if not glb:
                return f"no meet for pair {(lab[a], lab[b])}"
            upper = [c for c in range(n) if le(a, c) and le(b, c)]
            lub = [c for c in upper if all(le(c, d) for d in upper)]
            if not lub:
                return f"no join for pair {(lab[a], lab[b])}"
            meet[a, b], join[a, b] = glb[0], lub[0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]:
                    return f"distributivity fails at triple {(lab[a], lab[b], lab[c])}"
    return None


def test_validation_witnesses_match_the_definitions():
    verdicts = set()
    for n in range(1, 7):
        for P in enumerate_posets(n):
            try:
                D = validate_lattice(P)
            except (NotALattice, NotDistributive) as e:
                got = str(e)
            else:
                got = None
                for a in range(n):
                    for b in range(n):
                        assert P.le(D.meet[a][b], a) and P.le(a, D.join[a][b])
            expected = _literal_verdict(P)
            assert got == expected, repr(P)
            verdicts.add(expected.split()[0] if expected else "ok")
    assert verdicts == {"no", "distributivity", "ok"}
