"""Poset substrate: construction, closures, extrema, upset enumeration."""

import itertools

import pytest

from priestley import (
    ClopenUpset,
    FinitePoset,
    NuclearSet,
    Nucleus,
    build_poset,
    canonical_form,
    enumerate_upsets,
    extrema,
    heyting,
    order_closure,
    poset_from_json,
    poset_to_json,
    validate_nucleus,
)
from priestley.errors import (
    CycleDetected,
    DuplicateLabel,
    NotAnUpset,
    UnknownLabel,
    UnknownPoint,
)
from priestley.poset import relabel_canonically


def two_chain():
    return build_poset(["x1", "x2"], [("x1", "x2")])


def two_antichain():
    return build_poset(["a", "b"], [])


def vee():
    return build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])


def test_build_two_chain():
    P = two_chain()
    assert P.n == 2
    assert P.le(0, 1) and not P.le(1, 0)


def test_build_single_point():
    P = build_poset(["a"], [])
    assert P.n == 1
    assert P.le(0, 0)


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_rejects_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_poset(["a", "a"], [])


def test_build_rejects_unknown_label():
    with pytest.raises(UnknownLabel):
        build_poset(["a"], [("a", "b")])


@pytest.mark.parametrize("row", [True, 1.0, "1", None, [1]],
                         ids=["bool", "float", "str", "none", "list"])
def test_rows_must_be_ints(row):
    # a bool is an int to Python but not a row of bits; anything else
    # would reach the shift and fail with a bare TypeError
    with pytest.raises(ValueError, match="up must be 1 rows of 1 bits"):
        FinitePoset(["a"], [row])
    with pytest.raises(ValueError, match="up must be 2 rows of 2 bits"):
        FinitePoset(["a", "b"], [0b11, row])


def test_rows_are_accepted_exactly_when_they_are_a_partial_order():
    # every reflexive relation on 3 points, against the definitions; a
    # relation with a cycle is refused as a cycle even when intransitive
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    accepted = 0
    for bits in range(1 << len(pairs)):
        rel = {(i, i) for i in range(3)} | {p for k, p in enumerate(pairs) if bits >> k & 1}
        rows = [sum(1 << j for j in range(3) if (i, j) in rel) for i in range(3)]
        cyclic = any((j, i) in rel for i, j in rel if i != j)
        transitive = all((i, k) in rel for i, j in rel for j2, k in rel if j == j2)
        if cyclic:
            with pytest.raises(CycleDetected):
                FinitePoset("abc", rows)
        elif not transitive:
            with pytest.raises(ValueError, match="order is not transitive"):
                FinitePoset("abc", rows)
        else:
            assert FinitePoset("abc", rows).down == tuple(
                sum(1 << i for i in range(3) if (i, j) in rel) for j in range(3))
            accepted += 1
    assert accepted == 19  # the labelled posets on 3 points (OEIS A001035)
    with pytest.raises(ValueError, match="order is not reflexive"):
        FinitePoset("ab", [0b01, 0b00])


def test_transitive_closure_applied():
    P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert P.le(0, 2)


def test_order_closure_examples():
    P = two_chain()
    assert order_closure(P, {0}, "up") == {0, 1}
    assert order_closure(P, {1}, "down") == {0, 1}
    A = two_antichain()
    assert order_closure(A, {0}, "up") == {0}


def test_order_closure_rejects_unknown_point():
    with pytest.raises(UnknownPoint):
        order_closure(two_chain(), {5}, "up")


def test_order_closure_laws():
    # idempotent, monotone, extensive; up/down dual under reversal
    for P in (two_chain(), two_antichain(), vee()):
        subsets = [frozenset(s) for k in range(P.n + 1)
                   for s in itertools.combinations(range(P.n), k)]
        for s in subsets:
            for d in ("up", "down"):
                c = order_closure(P, s, d)
                assert s <= c
                assert order_closure(P, c, d) == c
            for t in subsets:
                if s <= t:
                    assert order_closure(P, s, "up") <= order_closure(P, t, "up")


# every public entry that reads a point set from outside, given one point
ENTRIES = {
    "order_closure": lambda P, pts: order_closure(P, pts, "up"),
    "extrema": lambda P, pts: extrema(P, [*pts, 0], "max"),
    "ClopenUpset": ClopenUpset,
    "NuclearSet": NuclearSet,
    "validate_nucleus": lambda P, pts: validate_nucleus(
        P, {u: (*u, *pts) for u in enumerate_upsets(P)}),
    "j(U)": lambda P, pts: Nucleus.identity(P)(pts),
}


@pytest.mark.parametrize("point", [True, False, -1, 2, "a"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_rejects_what_is_not_a_point_index(entry, point):
    # a bool is an int to isinstance, but True is no name for point 1
    with pytest.raises(UnknownPoint):
        ENTRIES[entry](two_chain(), [point])


def labelled_posets(max_points):
    """Every partial order on 0..n-1 for n up to max_points, labelled."""
    for n in range(max_points + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for chosen in range(1 << len(pairs)):
            le = {(i, i) for i in range(n)}
            le |= {p for k, p in enumerate(pairs) if chosen >> k & 1}
            if any((j, i) in le for i, j in le if i != j):
                continue
            if any((i, k) not in le for i, j in le for j2, k in le if j == j2):
                continue
            yield FinitePoset([f"p{i}" for i in range(n)],
                              [sum(1 << j for j in range(n) if (i, j) in le)
                               for i in range(n)])


def test_public_point_sets_match_their_definitions():
    # each frozenset the public API reads or returns, against its
    # definition computed here from P.le alone, on every labelled poset
    # of up to four points and every subset (or pair of upsets)
    count = 0
    for P in labelled_posets(4):
        count += 1
        pts = range(P.n)
        subsets = [frozenset(i for i in pts if bits >> i & 1)
                   for bits in range(1 << P.n)]
        upsets = [s for s in subsets
                  if all(y in s for x in s for y in pts if P.le(x, y))]
        for s in subsets:
            assert order_closure(P, s, "up") == {y for y in pts for x in s if P.le(x, y)}
            assert order_closure(P, s, "down") == {y for y in pts for x in s if P.le(y, x)}
            assert extrema(P, s, "min") == {x for x in s if not any(
                y != x and P.le(y, x) for y in s)}
            assert extrema(P, s, "max") == {x for x in s if not any(
                y != x and P.le(x, y) for y in s)}
            assert NuclearSet(P, s).members == s
            if s in upsets:
                assert ClopenUpset(P, s).members == s
            else:
                with pytest.raises(NotAnUpset):
                    ClopenUpset(P, s)
        assert enumerate_upsets(P) == sorted(upsets, key=lambda s: (len(s), sorted(s)))
        for u in upsets:
            U = ClopenUpset(P, u)
            # U* is the largest upset disjoint from U, U -> V the largest
            # upset whose meet with U lies in V
            assert heyting(P, U).members == frozenset().union(
                *(w for w in upsets if not w & u))
            for v in upsets:
                assert heyting(P, U, ClopenUpset(P, v)).members == frozenset().union(
                    *(w for w in upsets if w & u <= v))
    assert count == 1 + 1 + 3 + 19 + 219


def test_extrema_examples():
    P = two_chain()
    assert extrema(P, {0, 1}, "max") == {1}
    assert extrema(P, frozenset(), "min") == frozenset()
    V = vee()
    assert extrema(V, {0, 1, 2}, "min") == {0, 1}


def test_extrema_every_point_dominated():
    for P in (two_chain(), vee()):
        full = frozenset(range(P.n))
        mins = extrema(P, full, "min")
        assert mins <= full
        for s in full:
            assert any(P.le(m, s) for m in mins)


def test_enumerate_upsets_examples():
    P = two_chain()
    assert enumerate_upsets(P) == [frozenset(), frozenset({1}), frozenset({0, 1})]
    A = two_antichain()
    assert enumerate_upsets(A) == [
        frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})
    ]
    single = build_poset(["a"], [])
    assert enumerate_upsets(single) == [frozenset(), frozenset({0})]


def test_upset_counts_chain_and_antichain():
    for n in range(1, 6):
        chain = build_poset([f"c{i}" for i in range(n)],
                            [(f"c{i}", f"c{i+1}") for i in range(n - 1)])
        assert len(enumerate_upsets(chain)) == n + 1
        anti = build_poset([f"a{i}" for i in range(n)], [])
        assert len(enumerate_upsets(anti)) == 2 ** n


def test_canonical_form_invariance():
    P = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    Q = build_poset(["z", "y", "x"], [("x", "z"), ("y", "z")])
    R = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert canonical_form(P) == canonical_form(Q)
    assert canonical_form(P) != canonical_form(R)
    assert canonical_form(relabel_canonically(P)) == canonical_form(P)


def test_json_round_trip():
    P = vee()
    again = poset_from_json(poset_to_json(P))
    assert again == P


def test_json_applies_closure():
    P = poset_from_json({"points": ["a", "b", "c"],
                         "covers": [["a", "b"], ["b", "c"]]})
    assert P.le(0, 2)
