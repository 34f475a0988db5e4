"""The table kernels under the finite checks, each against its literal
U^2 (or per-point) form, which is kept here as the reference."""

import random
from itertools import combinations, permutations, product

import pytest

from priestley import Nucleus, build_poset, oracle
from priestley import nuclei
from priestley import spectrum as sp
from priestley.birkhoff import clopen_upset_lattice
from priestley.errors import WorkbenchError
from priestley.nuclei import all_nuclei, double_negation
from priestley.poset import (FinitePoset, _bits, _mask_union, canonical_rows,
                             closure_tables, sub_upset_unions, upset_lower_covers,
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


def literal_warshall(labels, covers):
    """``build_poset`` with the order closed by Warshall's n^3 loop."""
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    up = [1 << i for i in range(n)]
    for a, b in covers:
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return FinitePoset(labels, up)


def built(build, labels, covers):
    """The rows of the built poset, or the class and text of the error."""
    try:
        return build(labels, covers).up
    except (WorkbenchError, ValueError) as e:
        return type(e).__name__, str(e)


def test_the_closure_matches_warshall_on_random_digraphs():
    # half the digraphs follow a shuffled order of the points, so are
    # acyclic without their pairs running from lower to higher indices;
    # the other half draw every pair, loops included, and mostly cycle
    rng = random.Random(33)
    outcomes = set()
    for trial in range(2000):
        n = rng.randint(1, 12)
        labels = [f"x{i}" for i in range(n)]
        rank = rng.sample(range(n), n)
        p = rng.uniform(0.02, 0.4)
        pairs = [(labels[a], labels[b]) for a in range(n) for b in range(n)
                 if rng.random() < p and (trial % 2 or rank[a] < rank[b])]
        expected = built(literal_warshall, labels, pairs)
        assert built(build_poset, labels, pairs) == expected, (labels, pairs)
        outcomes.add(expected[0] if isinstance(expected[0], str) else "poset")
    assert outcomes == {"poset", "CycleDetected"}


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


def literal_lower_covers(P):
    """For each upset U, the positions of the upsets U minus one point,
    the point ascending."""
    index = {u: k for k, u in enumerate(upset_masks(P))}
    return tuple(
        tuple(index[u ^ 1 << m] for m in range(P.n) if u >> m & 1 and u ^ 1 << m in index)
        for u in upset_masks(P)
    )


def test_upset_lower_covers_match_the_literal_covers():
    for P in oracle.posets_up_to(6):
        assert upset_lower_covers(P) == literal_lower_covers(P), P


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
    ups = E.all_upsets()
    table = oracle._d_table(E)
    for u in ups:
        union = 0
        for v in ups:
            if v & ~u == 0:
                union |= table[v]
        if union != sp.core_d(E, u):
            return E.describe_set(u)


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
        got = oracle.check_core_d_forms(E)
        assert got == literal_core_d_forms(E), P
        failed += got is not None
    assert (failed > 0) == planted


class Tables:
    """Stands in for a nucleus: only ``masks`` is read by the check."""

    def __init__(self, masks):
        self.masks = masks


def literal_inductive_core_collapse(P, tables):
    ups = upset_masks(P)
    for members, j in tables:
        for f in ups:
            lifted = _mask_union(P.up, f & members)
            if _mask_union(P.up, lifted) != lifted:
                return f"{list(oracle._bits(members))}, F={list(oracle._bits(f))}"
        for u in ups:
            union = 0
            for v in ups:
                if v & ~u == 0:
                    union |= j.masks[v]
            if union != j.masks[u]:
                return f"{list(oracle._bits(members))}, U={list(oracle._bits(u))}"


@pytest.mark.parametrize("planted", [False, True], ids=["nuclei", "random-tables"])
def test_inductive_core_collapse_matches_the_literal_union(planted, monkeypatch):
    rng = random.Random(5)
    failed = 0
    # the real tables are built by the table's builder, so no poset of
    # the enumeration memo keeps them; the check reads the patched ones
    real = oracle._nuclei_of_subsets.__wrapped__
    tables = {}
    monkeypatch.setattr(oracle, "_nuclei_of_subsets", tables.__getitem__)
    for P in SMALL:
        if planted:
            tables[P] = [(m, Tables({u: rng.getrandbits(P.n) | u for u in upset_masks(P)}))
                         for m in range(1 << P.n)]
        else:
            tables[P] = real(P)
        got = oracle.check_inductive_core_collapse(P)
        assert got == literal_inductive_core_collapse(P, tables[P]), P
        failed += got is not None
    assert (failed > 0) == planted


def literal_validation(P, masks):
    """The class name and carried upsets (a ``ValueError``'s message) of
    the first failing nucleus law, checked in order with the pair scan
    over ``combinations``; None when every law holds."""
    ups = upset_masks(P)
    views = {u: frozenset(i for i in range(P.n) if u >> i & 1) for u in ups}
    if set(masks) != set(ups):
        return "ValueError", "table must be total on the upsets of the space"
    for u in ups:
        if masks[u] not in views:
            return "ValueError", f"image of {sorted(views[u])} is not an upset"
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
    except WorkbenchError as e:
        return type(e).__name__, getattr(e, "upset", getattr(e, "pair", None))
    except ValueError as e:
        return type(e).__name__, str(e)
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


def with_entry(rng, masks, pick, image):
    """A copy of the table with one entry U, chosen among the upsets
    ``pick`` accepts (the table itself when none does), sent to
    ``image(U)``."""
    keys = [u for u in masks if pick(u)]
    if not keys:
        return masks
    u = rng.choice(keys)
    return {**masks, u: image(u)}


def random_tables(rng, P):
    ups = upset_masks(P)
    full = (1 << P.n) - 1
    others = [m for m in range(1 << P.n) if m not in set(ups)]
    for _ in range(40):
        family = {full} | {u for u in ups if rng.random() < 0.4}
        yield closure_of_family(P, family)
    for _ in range(10):
        # upset images, inflationary, usually not idempotent
        yield {u: rng.choice([v for v in ups if u & ~v == 0]) for u in ups}
    for _ in range(10):
        # those with one entry sent below itself: a non-inflationary
        # entry before or after the idempotence failures
        masks = {u: rng.choice([v for v in ups if u & ~v == 0]) for u in ups}
        shrunk = with_entry(rng, masks, lambda u: u,
                            lambda u: rng.choice([v for v in ups if u & ~v]))
        yield shrunk
        if others:
            # and then one entry, after the shrunk one or not, sent to a
            # mask that is not an upset
            yield with_entry(rng, shrunk, lambda u: True, lambda u: rng.choice(others))
            # a nucleus but for one image that is not an upset
            yield with_entry(rng, closure_of_family(P, {full}), lambda u: True,
                             lambda u: rng.choice(others))
    # the same table with its keys in reverse order
    yield dict(reversed(closure_of_family(P, {full} | set(ups[:2])).items()))


def test_rejections_match_the_literal_scan():
    rng = random.Random(2024)
    verdicts = set()
    orders = set()
    for P in oracle.posets_up_to(4) + DUALITY_SIZED:
        ups = upset_masks(P)
        for masks in random_tables(rng, P):
            expected = literal_validation(P, masks)
            assert validation(P, masks) == expected, (P, masks)
            verdicts.add(expected and expected[0])
            # where the first entry of each failing kind lies
            shrunk = [k for k, u in enumerate(ups) if u & ~masks[u]]
            unfixed = [k for k, u in enumerate(ups) if masks.get(masks[u]) != masks[u]]
            outside = [k for k, u in enumerate(ups) if masks[u] not in masks]
            if shrunk and outside:
                orders.add(("inflation", "upset", shrunk[0] < outside[0]))
            elif shrunk and unfixed:
                orders.add(("inflation", "idempotence", shrunk[0] < unfixed[0]))
    assert verdicts == {None, "ValueError", "NotInflationary", "NotIdempotent",
                        "NotMeetPreserving"}
    # each failing kind came both before and after the other in the
    # table's order, and the earlier law still named its entry
    assert orders == {(first, then, before) for first, then in
                      (("inflation", "upset"), ("inflation", "idempotence"))
                      for before in (True, False)}


def test_a_nucleus_keeps_its_own_table():
    # the constructor copies the dict it is given, in upset order or
    # not, so a caller's later writes leave the nucleus as it was
    for P in DUALITY_SIZED:
        j = double_negation(P)
        for masks in (dict(j.masks), dict(reversed(j.masks.items()))):
            k = Nucleus(P, masks)
            masks.update((u, 0) for u in masks)
            assert k == j


def literal_upset_lattice_rows(X):
    masks = upset_masks(X)
    up = tuple(sum(1 << j for j, v in enumerate(masks) if u & ~v == 0) for u in masks)
    down = tuple(sum(1 << j for j, v in enumerate(masks) if v & ~u == 0) for u in masks)
    return up, down


def test_clopen_upset_lattice_rows_match_the_generator_sums():
    for X in SMALL + DUALITY_SIZED:
        L = clopen_upset_lattice(X)
        assert (L.up, L.down) == literal_upset_lattice_rows(X), X


def literal_canonical(P):
    """The canonical key with refinement run until a round gives back
    the very colours it was given."""
    n = P.n
    up = P.up
    below = [list(_bits(P.down[i] & ~(1 << i))) for i in range(n)]
    above = [list(_bits(up[i] & ~(1 << i))) for i in range(n)]
    colors = [(d.bit_count(), u.bit_count()) for d, u in zip(P.down, up)]
    for _ in range(n):
        new = [
            (colors[i],
             tuple(sorted([colors[j] for j in below[i]])),
             tuple(sorted([colors[j] for j in above[i]])))
            for i in range(n)
        ]
        ranking = {c: r for r, c in enumerate(sorted(set(new)))}
        new = [(ranking[c],) for c in new]
        if new == colors:
            break
        colors = new
    groups = {}
    for i in range(n):
        groups.setdefault(colors[i], []).append(i)
    ordered_groups = [groups[c] for c in sorted(groups)]
    best = None
    for perm_parts in product(*(permutations(g) for g in ordered_groups)):
        perm = [i for part in perm_parts for i in part]
        key = tuple([up[x] >> y & 1 == 1 for x in perm for y in perm])
        if best is None or key < best:
            best = key
    return n, best


def literal_upset_masks(P):
    """Every mask closed under the union of its points' upsets."""
    found = [m for m in range(1 << P.n) if _mask_union(P.up, m) == m]
    found.sort(key=lambda m: (m.bit_count(), list(_bits(m))))
    return tuple(found)


def test_canonical_rows_match_the_literal_refinement_on_every_candidate():
    # every one-point extension the enumerator labels, sizes 1-7, each
    # with the down rows the enumerator hands over; a second split in
    # refinement first happens at size 7
    checked = 0
    for n in range(1, 8):
        top = 1 << (n - 1)
        parents = oracle.enumerate_posets(n - 1) if n > 1 else [FinitePoset([], [])]
        for Q in parents:
            for u in upset_masks(Q):
                rows = [r if u >> i & 1 else r | top for i, r in enumerate(Q.up)]
                rows.append(top)
                P = FinitePoset([f"p{i}" for i in range(n)], rows)
                assert (*Q.down, (top - 1) & ~u | top) == P.down, (Q, u)
                assert canonical_rows(P.up, P.down) == literal_canonical(P), (Q, u)
                checked += 1
    assert checked == 1 + sum(len(upset_masks(Q)) for Q in oracle.posets_up_to(6))


def test_upset_masks_match_the_mask_filter_on_every_small_poset():
    for P in oracle.posets_up_to(6) + DUALITY_SIZED:
        assert upset_masks(P) == literal_upset_masks(P), P
