"""The table kernels under the finite checks, each against its literal
U^2 (or per-point) form, which is kept here as the reference."""

import random
from itertools import combinations

import pytest

from priestley import Nucleus, build_poset, oracle
from priestley import nuclei
from priestley import spectrum as sp
from priestley.birkhoff import clopen_upset_lattice
from priestley.errors import WorkbenchError
from priestley.nuclei import all_nuclei, double_negation
from priestley.poset import (_mask_union, closure_tables, sub_upset_unions,
                             upset_masks)

SMALL = oracle.posets_up_to(5)


def random_order(rng, n):
    """A random partial order on n points, as labels and cover pairs."""
    labels = [f"x{i}" for i in range(n)]
    p = rng.uniform(0.1, 0.6)
    covers = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n)
              if rng.random() < p]
    return build_poset(labels, covers)


def spaces_with(rng, n, count):
    """A random order on n points with exactly ``count`` upsets."""
    while True:
        P = random_order(rng, n)
        if len(upset_masks(P)) == count:
            return P


# the sizes of the nuclei spaces of the duality benchmark: 5 points with
# 12 upsets and 6 points with 20
DUALITY_SIZED = [spaces_with(random.Random(seed), n, count)
                 for seed, (n, count) in enumerate([(5, 12), (6, 20)] * 3)]


def test_closure_tables_match_the_mask_union_on_every_mask():
    for P in SMALL:
        t = closure_tables(P)
        strict_up = [r & ~(1 << i) for i, r in enumerate(P.up)]
        strict_down = [r & ~(1 << i) for i, r in enumerate(P.down)]
        for m in range(1 << P.n):
            assert t.up[m] == _mask_union(P.up, m), (P, m)
            assert t.down[m] == _mask_union(P.down, m), (P, m)
            assert t.strict_up[m] == _mask_union(strict_up, m), (P, m)
            assert t.strict_down[m] == _mask_union(strict_down, m), (P, m)


def literal_sub_upset_unions(P, values):
    ups = upset_masks(P)
    out = []
    for u in ups:
        acc = 0
        for v, f in zip(ups, values):
            if v & ~u == 0:
                acc |= f
        out.append(acc)
    return out


def test_sub_upset_unions_match_the_literal_union_for_any_values():
    # arbitrary ints, not only monotone images: the kernel is a union
    rng = random.Random(12)
    for P in SMALL:
        values = [rng.getrandbits(16) for _ in upset_masks(P)]
        assert sub_upset_unions(P, values) == literal_sub_upset_unions(P, values), P


def literal_d_table(E):
    ups = E.all_upsets()
    negs = [(v, sp.double_neg(E, v)) for v in ups]
    table = {}
    for u in ups:
        acc = 0
        for v, nn in negs:
            if v & ~u == 0:
                acc |= nn
        table[u] = E.closure(acc)
    return table


def literal_core_d_forms(E):
    ok, witness = True, None
    ups = E.all_upsets()
    table = oracle._d_table(E)
    for u in ups:
        union = 0
        for v in ups:
            if v & ~u == 0:
                union |= table[v]
        if union != sp.core_d(E, u):
            ok, witness = False, E.describe_set(u)
    return ok, witness


def scrambled_double_neg(E, u):
    """Not monotone and not an upset: a union kernel that leans on
    monotonicity would miss terms."""
    return (u * 5 + 3) & E.full


@pytest.mark.parametrize("planted", [False, True], ids=["sound", "scrambled"])
def test_d_table_and_core_d_forms_match_the_literal_union(monkeypatch, planted):
    if planted:
        monkeypatch.setattr(sp, "double_neg", scrambled_double_neg)
    failed = 0
    for P in SMALL:
        E = sp.FiniteEngine(P)
        assert oracle._d_table(E) == literal_d_table(E), P
        got = oracle.check_core_d_forms.__wrapped__(E)
        assert got == literal_core_d_forms(E), P
        failed += not got[0]
    assert (failed > 0) == planted


class Tables:
    """Stands in for a nucleus: only ``masks`` is read by the check."""

    def __init__(self, masks):
        self.masks = masks


def literal_inductive_core_collapse(P, tables):
    ok, witness = True, None
    ups = upset_masks(P)
    for members, j in tables:
        for f in ups:
            lifted = _mask_union(P.up, f & members)
            if _mask_union(P.up, lifted) != lifted:
                ok, witness = False, f"{list(oracle._bits(members))}, F={list(oracle._bits(f))}"
        for u in ups:
            union = 0
            for v in ups:
                if v & ~u == 0:
                    union |= j.masks[v]
            if union != j.masks[u]:
                ok, witness = False, f"{list(oracle._bits(members))}, U={list(oracle._bits(u))}"
    return ok, witness


@pytest.mark.parametrize("planted", [False, True], ids=["nuclei", "random-tables"])
def test_inductive_core_collapse_matches_the_literal_union(planted):
    rng = random.Random(5)
    failed = 0
    for P in SMALL:
        if planted:
            tables = [(m, Tables({u: rng.getrandbits(P.n) | u for u in upset_masks(P)}))
                      for m in range(1 << P.n)]
        else:
            tables = oracle._nuclei_of_subsets(P)
        got = oracle.check_inductive_core_collapse.__wrapped__(P, lambda: tables)
        assert got == literal_inductive_core_collapse(P, tables), P
        failed += not got[0]
    assert (failed > 0) == planted


def literal_validation(P, masks):
    """The class name and carried upsets of the first failing nucleus law,
    checked in order with the pair scan over ``combinations``; None when
    every law holds."""
    ups = upset_masks(P)
    views = {u: frozenset(i for i in range(P.n) if u >> i & 1) for u in ups}
    if set(masks) != set(ups):
        return "ValueError", None
    for u in ups:
        if masks[u] not in views:
            return "ValueError", None
    for u in ups:
        if u & ~masks[u]:
            return "NotInflationary", views[u]
    for u in ups:
        if masks[masks[u]] != masks[u]:
            return "NotIdempotent", views[u]
    for u, v in combinations(ups, 2):
        if masks[u & v] != masks[u] & masks[v]:
            return "NotMeetPreserving", (views[u], views[v])
    return None


def validation(P, masks):
    try:
        Nucleus(P, masks)
    except (WorkbenchError, ValueError) as e:
        return type(e).__name__, getattr(e, "upset", getattr(e, "pair", None))
    return None


def test_accepted_nuclei_never_reach_the_pair_scan(monkeypatch):
    def scan(ups, masks):
        raise AssertionError("the pair scan ran on an accepted table")

    monkeypatch.setattr(nuclei, "_first_unmet_pair", scan)
    for P in oracle.posets_up_to(4) + DUALITY_SIZED:
        for j in all_nuclei(P):
            Nucleus(P, j.masks)
        double_negation(P)


def closure_of_family(P, family):
    """j(U) = the meet of the members of ``family`` above U: inflationary,
    idempotent and monotone, but as a rule not meet-preserving."""
    full = (1 << P.n) - 1
    out = {}
    for u in upset_masks(P):
        img = full
        for s in family:
            if u & ~s == 0:
                img &= s
        out[u] = img
    return out


def random_tables(rng, P):
    ups = upset_masks(P)
    full = (1 << P.n) - 1
    for _ in range(40):
        family = {full} | {u for u in ups if rng.random() < 0.4}
        yield closure_of_family(P, family)
    for _ in range(10):
        # upset images, inflationary, usually not idempotent
        yield {u: rng.choice([v for v in ups if u & ~v == 0]) for u in ups}


def test_rejections_match_the_literal_scan():
    rng = random.Random(2024)
    verdicts = set()
    for P in oracle.posets_up_to(4) + DUALITY_SIZED:
        for masks in random_tables(rng, P):
            expected = literal_validation(P, masks)
            assert validation(P, masks) == expected, (P, masks)
            verdicts.add(expected and expected[0])
    assert verdicts == {None, "NotIdempotent", "NotMeetPreserving"}


def literal_upset_lattice_rows(X):
    masks = upset_masks(X)
    up = tuple(sum(1 << j for j, v in enumerate(masks) if u & ~v == 0) for u in masks)
    down = tuple(sum(1 << j for j, v in enumerate(masks) if v & ~u == 0) for u in masks)
    return up, down


def test_clopen_upset_lattice_rows_match_the_generator_sums():
    for X in SMALL + DUALITY_SIZED:
        L = clopen_upset_lattice(X)
        assert (L.up, L.down) == literal_upset_lattice_rows(X), X
