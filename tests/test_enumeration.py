"""Poset enumeration and canonical forms, against independent references:
the natural-order brute force and, where it is installed, networkx
isomorphism."""

import random

import pytest

from priestley import oracle, poset
from priestley.poset import (FinitePoset, _bits, canonical_form, relabel_canonically,
                             upset_masks)


def natural_order_posets(n):
    """Every poset on p0..p{n-1} whose order is contained in the natural
    order of the indices.  Every isomorphism class has such a labelling
    (a linear extension), so this covers all n-point posets, with
    repeats."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rows[i] |= 1 << j
        if any(rows[j] & ~rows[i] for i in range(n) for j in _bits(rows[i])):
            continue
        yield FinitePoset([f"p{i}" for i in range(n)],
                          [rows[i] | 1 << i for i in range(n)])


def brute_force_posets(n):
    """The reference enumerator: dedupe the natural-order posets by
    canonical form, keep canonical labels, sort by canonical key."""
    found = {}
    for P in natural_order_posets(n):
        key = canonical_form(P)
        if key not in found:
            found[key] = relabel_canonically(P)
    return [P for _, P in sorted(found.items())]


def strict_graph(nx, P):
    G = nx.DiGraph()
    G.add_nodes_from(range(P.n))
    G.add_edges_from((i, j) for i in range(P.n) for j in _bits(P.up[i]) if i != j)
    return G


def relabelled(P, perm):
    """P with point i moved to index perm[i] (and its label with it)."""
    inv = {new: old for old, new in enumerate(perm)}
    labels = [P.labels[inv[k]] for k in range(P.n)]
    rows = [sum(1 << perm[j] for j in _bits(P.up[inv[k]])) for k in range(P.n)]
    return FinitePoset(labels, rows)


@pytest.mark.parametrize("n", range(1, 6))
def test_extension_matches_brute_force(n):
    assert ([repr(P) for P in oracle.enumerate_posets(n)]
            == [repr(P) for P in brute_force_posets(n)])


def test_canonical_form_invariant_under_relabelling():
    rng = random.Random(6)
    for P in oracle.posets_up_to(5):
        for _ in range(4):
            perm = list(range(P.n))
            rng.shuffle(perm)
            Q = relabelled(P, perm)
            assert all(P.le(i, j) == Q.le(perm[i], perm[j])
                       for i in range(P.n) for j in range(P.n))
            assert canonical_form(Q) == canonical_form(P), (repr(P), perm)
            # the canonical poset is a function of the key alone, so no
            # permutation needs to be kept to build it
            assert relabel_canonically(Q) == relabel_canonically(P), (repr(P), perm)


@pytest.mark.parametrize("n", range(1, 5))
def test_canonical_form_separates_exactly_the_isomorphism_classes(n):
    nx = pytest.importorskip("networkx")
    posets = list(natural_order_posets(n))
    graphs = [strict_graph(nx, P) for P in posets]
    keys = [canonical_form(P) for P in posets]
    for a in range(len(posets)):
        for b in range(a + 1, len(posets)):
            assert (keys[a] == keys[b]) == nx.is_isomorphic(graphs[a], graphs[b]), (
                repr(posets[a]), repr(posets[b]))


def test_enumeration_labels_each_candidate_once(monkeypatch):
    # one canonical labelling per candidate, from its rows, and none
    # after it; a FinitePoset only for the first candidate of each
    # class, which keeps its key for canonical_form and
    # relabel_canonically, and one more for each relabelled copy; all
    # reached through poset.py's names
    labelled, built, keyed, kept = [], [], [], []

    def spy(name, seen):
        fn = getattr(poset, name)

        def wrapper(*args):
            out = fn(*args)
            seen.append((args, out))
            return out
        monkeypatch.setattr(poset, name, wrapper)

    spy("canonical_rows", labelled)
    spy("FinitePoset", built)
    spy("canonical_form", keyed)
    spy("relabel_canonically", kept)
    monkeypatch.setattr(oracle, "_POSET_MEMO", {})
    oracle.posets_up_to(5)
    candidates = 1 + sum(len(upset_masks(Q)) for Q in oracle.posets_up_to(4))
    assert candidates == 173
    assert len(labelled) == candidates
    assert len({tuple(map(tuple, rows)) for rows, _ in labelled}) == candidates
    posets = oracle.posets_up_to(5)
    assert len(keyed) == len(kept) == len(posets) == 87
    # the posets keyed are the ones relabelled, the relabelled copies
    # are the posets enumerated, and nothing else was built
    firsts = {id(P) for (P,), _ in keyed}
    assert {id(P) for (P,), _ in kept} == firsts
    assert [id(P) for _, P in kept] == [id(P) for P in posets]
    assert len(built) == 2 * 87
    assert {id(P) for _, P in built} == firsts | {id(P) for P in posets}
