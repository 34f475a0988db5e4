"""Poset enumeration and canonical forms, against independent references:
the natural-order brute force and networkx isomorphism."""

import random

import pytest

from priestley import oracle, poset
from priestley.poset import (FinitePoset, _bits, canonical_form, relabel_canonically,
                             upset_masks)

nx = pytest.importorskip("networkx")


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


def strict_graph(P):
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
            assert nx.is_isomorphic(strict_graph(P), strict_graph(Q))
            assert canonical_form(Q) == canonical_form(P), (repr(P), perm)


@pytest.mark.parametrize("n", range(1, 5))
def test_canonical_form_separates_exactly_the_isomorphism_classes(n):
    posets = list(natural_order_posets(n))
    graphs = [strict_graph(P) for P in posets]
    keys = [canonical_form(P) for P in posets]
    for a in range(len(posets)):
        for b in range(a + 1, len(posets)):
            assert (keys[a] == keys[b]) == nx.is_isomorphic(graphs[a], graphs[b]), (
                repr(posets[a]), repr(posets[b]))


def test_enumeration_labels_each_candidate_once(monkeypatch):
    # one canonical labelling per candidate, shared by canonical_form and
    # relabel_canonically, both reached through oracle's names
    labelled, keyed, kept = [], [], []
    canonical = poset._canonical

    def counted(P):
        labelled.append(P)
        return canonical(P)

    def spy(fn, seen):
        def wrapper(P):
            seen.append(P)
            return fn(P)
        return wrapper

    monkeypatch.setattr(poset, "_canonical", counted)
    monkeypatch.setattr(oracle, "canonical_form", spy(oracle.canonical_form, keyed))
    monkeypatch.setattr(oracle, "relabel_canonically",
                        spy(oracle.relabel_canonically, kept))
    monkeypatch.setattr(oracle, "_POSET_MEMO", {})
    oracle.posets_up_to(5)
    candidates = 1 + sum(len(upset_masks(Q)) for Q in oracle.posets_up_to(4))
    assert candidates == 173
    assert len(labelled) == len(keyed) == candidates
    assert all(P is Q for P, Q in zip(labelled, keyed))
    assert len(kept) == len(oracle.posets_up_to(5)) == 87
