"""The nucleus/nuclear-set dictionary on small finite frames."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from priestley import (
    NuclearSet,
    Nucleus,
    admissible_upset,
    booleanization,
    build_poset,
    density_check,
    double_negation,
    enumerate_upsets,
    extrema,
    nuclear_join,
    nuclear_of_nucleus,
    nucleus_of_nuclear,
    order_closure,
    validate_nucleus,
)
from priestley import spectrum as sp
from priestley.birkhoff import implies_set
from priestley.errors import (
    NotAnUpset,
    NotInflationary,
    SpaceMismatch,
    UnknownPoint,
)
from priestley.nuclei import (
    all_nuclei,
    nucleus_of_sublocale,
    sublocale_of_nucleus,
    unmoved_points,
)
from priestley.oracle import posets_up_to
from priestley.poset import upset_masks


def two_chain():
    return build_poset(["x1", "x2"], [("x1", "x2")])


def spaces_up_to_three():
    return [
        build_poset(["a"], []),
        two_chain(),
        build_poset(["a", "b"], []),
        build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")]),
        build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")]),
        build_poset(["a", "b", "c"], []),
    ]


def all_subsets(P):
    for bits in range(1 << P.n):
        yield frozenset(i for i in range(P.n) if bits >> i & 1)


def test_identity_and_constant_top_validate():
    P = two_chain()
    Nucleus.identity(P)
    Nucleus.constant_top(P)


def test_swap_table_not_inflationary():
    P = two_chain()
    full = frozenset({0, 1})
    tbl = {frozenset(): full, frozenset({1}): frozenset({1}), full: frozenset()}
    with pytest.raises(NotInflationary):
        validate_nucleus(P, tbl)


def test_validate_nucleus_rejects_unknown_points():
    P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(UnknownPoint):
        validate_nucleus(P, {u: u | {9} for u in enumerate_upsets(P)})
    with pytest.raises(UnknownPoint):
        validate_nucleus(P, {u | {-1}: u for u in enumerate_upsets(P)})


def test_applying_a_nucleus_checks_its_argument():
    P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    j = Nucleus.identity(P)
    assert j({1, 2}) == frozenset({1, 2})
    with pytest.raises(NotAnUpset):
        j({0, 1})
    with pytest.raises(UnknownPoint):
        j({5})


def test_nuclear_of_double_negation_two_chain():
    P = two_chain()
    j = double_negation(P)
    assert j.table[frozenset({1})] == frozenset({0, 1})
    assert nuclear_of_nucleus(j).members == {1}


def test_nuclear_of_identity_and_constant_top():
    P = two_chain()
    assert nuclear_of_nucleus(Nucleus.identity(P)).members == {0, 1}
    assert nuclear_of_nucleus(Nucleus.constant_top(P)).members == frozenset()


def test_nucleus_of_nuclear_examples():
    P = two_chain()
    j = nucleus_of_nuclear(NuclearSet(P, frozenset({0})))
    assert j.table[frozenset()] == frozenset({1})
    assert nucleus_of_nuclear(NuclearSet(P, frozenset({0, 1}))) == Nucleus.identity(P)
    assert nucleus_of_nuclear(NuclearSet(P, frozenset())) == Nucleus.constant_top(P)


def test_admissible_upset_examples():
    P = two_chain()
    assert admissible_upset(double_negation(P)) == {1}
    assert admissible_upset(Nucleus.identity(P)) == {0, 1}
    assert admissible_upset(Nucleus.constant_top(P)) == frozenset()


def test_double_negation_tables():
    P = two_chain()
    j = double_negation(P)
    assert j.table[frozenset()] == frozenset()
    assert j.table[frozenset({0, 1})] == frozenset({0, 1})
    anti = build_poset(["a", "b"], [])
    k = double_negation(anti)
    assert k.table[frozenset({0})] == frozenset({0})  # Boolean frame


def test_booleanization_examples():
    P = two_chain()
    full = frozenset({0, 1})
    assert booleanization(P) == [frozenset(), full]
    anti = build_poset(["a", "b"], [])
    assert len(booleanization(anti)) == 4
    chain3 = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert booleanization(chain3) == [frozenset(), frozenset({0, 1, 2})]


def test_density_check_examples():
    P = two_chain()
    assert density_check(double_negation(P)) == {"dense": True, "cofinal": True}
    j = nucleus_of_nuclear(NuclearSet(P, frozenset({0})))
    assert density_check(j) == {"dense": False, "cofinal": False}
    assert density_check(Nucleus.identity(P)) == {"dense": True, "cofinal": True}


def test_nuclear_join():
    P = two_chain()
    a = NuclearSet(P, frozenset({0}))
    b = NuclearSet(P, frozenset({1}))
    assert nuclear_join([a, b]).members == {0, 1}
    assert nuclear_join([a, NuclearSet(P, frozenset())]).members == a.members
    singles = [NuclearSet(P, frozenset({i})) for i in range(P.n)]
    assert nuclear_join(singles).members == frozenset(range(P.n))
    Q = build_poset(["z"], [])
    with pytest.raises(SpaceMismatch):
        nuclear_join([a, NuclearSet(Q, frozenset())])


def test_every_subset_is_nuclear():
    for P in spaces_up_to_three():
        for s in all_subsets(P):
            assert NuclearSet(P, s).members == s


def test_galois_correspondence_exhaustive():
    for P in spaces_up_to_three():
        for s in all_subsets(P):
            N = NuclearSet(P, s)
            assert nuclear_of_nucleus(nucleus_of_nuclear(N)).members == s
        for j in all_nuclei(P):
            assert nucleus_of_nuclear(nuclear_of_nucleus(j)) == j


def test_order_reversal():
    for P in spaces_up_to_three():
        subsets = list(all_subsets(P))
        for a in subsets:
            for b in subsets:
                ja = nucleus_of_nuclear(NuclearSet(P, a))
                jb = nucleus_of_nuclear(NuclearSet(P, b))
                assert (a <= b) == jb.leq(ja)


def test_admissible_equals_up_closure_of_nuclear():
    for P in spaces_up_to_three():
        for j in all_nuclei(P):
            h = admissible_upset(j)
            assert h == order_closure(P, nuclear_of_nucleus(j).members, "up")


def test_isbell_density():
    # fixpoints of double negation sit inside the fixpoints of every
    # dense nucleus; equivalently max X is the least cofinal nuclear set
    for P in spaces_up_to_three():
        booleans = set(booleanization(P))
        maxx = extrema(P, frozenset(range(P.n)), "max")
        for j in all_nuclei(P):
            if density_check(j)["dense"]:
                fix = {u for u in j.table if j.table[u] == u}
                assert booleans <= fix
                assert maxx <= nuclear_of_nucleus(j).members


def test_stone_restriction_lemma():
    # U & N_j equals jU & N_j for every upset U
    for P in spaces_up_to_three():
        for j in all_nuclei(P):
            nj = nuclear_of_nucleus(j).members
            for u in enumerate_upsets(P):
                assert u & nj == j.table[u] & nj


def test_the_dictionary_is_one_rule_each_way():
    # j_N U = N -> U, whichever of the three codings computes it, and
    # N_j = the points no entry of j moves, which gives N back
    for P in posets_up_to(4):
        E = sp.FiniteEngine(P)
        full = (1 << P.n) - 1
        for members in range(1 << P.n):
            j = nucleus_of_nuclear(NuclearSet._of_mask(P, members))
            for u in upset_masks(P):
                assert (j.masks[u] == implies_set(P, members, u)
                        == sp.implies(E, members, u)), (repr(P), members, u)
            assert nuclear_of_nucleus(j).mask == unmoved_points(j.masks, full) == members


def test_sublocale_round_trip():
    for P in spaces_up_to_three():
        for j in all_nuclei(P):
            S = sublocale_of_nucleus(j)
            assert nucleus_of_sublocale(P, S) == j


def test_booleanization_checks_survive_optimized_mode():
    # a broken implication must still be caught when asserts are stripped;
    # U -> empty, the pseudocomplement double negation reads, stays right
    script = textwrap.dedent("""
        import sys
        import priestley.birkhoff as birkhoff
        from priestley import booleanization, build_poset
        from priestley.errors import InternalAssertionError

        implies_set = birkhoff.implies_set
        birkhoff.implies_set = lambda X, u, v: u if v else implies_set(X, u, v)
        P = build_poset(["x1", "x2"], [("x1", "x2")])
        try:
            booleanization(P)
        except InternalAssertionError as e:
            print(sys.flags.optimize, "raised:", e)
        else:
            print(sys.flags.optimize, "no error")
    """)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == (
        "1 raised: fixpoints not closed under Heyting implication")
