"""Finite posets: the substrate for every finite Priestley-space computation.

Points carry opaque string labels but are addressed by dense integer
indices everywhere else.  The order is stored as read-only bitmask rows
(bit j of ``up[i]`` is set iff point i lies below point j, and ``down``
is the transpose), validated for reflexivity, antisymmetry and
transitivity at construction.  Point sets in the public API are exact
``frozenset``s of indices, cached per poset; equality is always exact,
never tolerance-based.  Iteration orders are deterministic so
downstream reports are byte-identical across runs.
"""

from __future__ import annotations

import itertools

from .errors import (
    CycleDetected,
    DuplicateLabel,
    UnknownLabel,
    UnknownPoint,
)


def _bits(mask):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(members):
    out = 0
    for i in members:
        out |= 1 << i
    return out


class FinitePoset:
    """Immutable finite partial order.

    ``up[i]`` and ``down[i]`` are the principal upset and downset of
    point i as bitmasks.  In the finite Priestley picture the topology is
    discrete, so the order carries all the structure.
    """

    __slots__ = ("labels", "up", "down", "_index", "_up_sets", "_upsets",
                 "_upset_masks", "_covers", "_canon")

    def __init__(self, labels, up):
        labels = tuple(labels)
        up = tuple(up)
        n = len(labels)
        if len(set(labels)) != n:
            raise DuplicateLabel(f"labels are not unique: {labels}")
        if len(up) != n or any(r >> n for r in up):
            raise ValueError(f"up must be {n} rows of {n} bits")
        if any(not up[i] >> i & 1 for i in range(n)):
            raise ValueError("order is not reflexive")
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                j = next(_bits(both))
                raise CycleDetected(f"{labels[i]} and {labels[j]} lie below each other")
        if any(up[j] & ~up[i] for i in range(n) for j in _bits(up[i])):
            raise ValueError("order is not transitive")
        self.labels = labels
        self.up = up
        self.down = tuple(down)
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._up_sets = None
        self._upsets = None
        self._upset_masks = None
        self._covers = None
        self._canon = None

    # -- basic accessors --------------------------------------------

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown point label {label!r}") from None

    def le(self, i, j):
        return bool(self.up[i] >> j & 1)

    def up_set(self, i):
        if self._up_sets is None:
            self._up_sets = tuple(frozenset(_bits(m)) for m in self.up)
        return self._up_sets[i]

    def covers(self):
        """Cover pairs (i, j) with j covering i, for Hasse diagrams."""
        if self._covers is None:
            strict = [m & ~(1 << i) for i, m in enumerate(self.up)]
            self._covers = tuple(
                (i, j)
                for i, m in enumerate(strict)
                for j in _bits(m & ~_mask_union(strict, m))
            )
        return self._covers

    def is_upset(self, members):
        m = _mask(members)
        return _mask_union(self.up, m) == m

    def _check_points(self, members):
        n = len(self.labels)
        for i in members:
            if not (isinstance(i, int) and 0 <= i < n):
                raise UnknownPoint(f"point index {i!r} out of range")

    # -- equality / hashing -----------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return f"FinitePoset({list(self.labels)}, covers={[(self.labels[i], self.labels[j]) for i, j in self.covers()]})"


def _mask_union(rows, members):
    """The union of ``rows[i]`` over the points i of a mask."""
    out = 0
    while members:  # _bits inlined: the finite engine's hottest loop
        low = members & -members
        out |= rows[low.bit_length() - 1]
        members ^= low
    return out


# -- construction -----------------------------------------------------


def build_poset(labels, covers):
    """Build a poset from labels and generating pairs.

    The order is the reflexive-transitive closure of ``covers``; cycles
    are rejected (antisymmetry would fail).
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        seen = set()
        for lab in labels:
            if lab in seen:
                raise DuplicateLabel(f"duplicate label {lab!r}")
            seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    up = [1 << i for i in range(n)]
    for a, b in covers:
        if a not in index:
            raise UnknownLabel(f"unknown point label {a!r}")
        if b not in index:
            raise UnknownLabel(f"unknown point label {b!r}")
        up[index[a]] |= 1 << index[b]
    # Warshall closure
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return FinitePoset(labels, up)


def order_closure(P, members, direction):
    """Upward or downward closure of a point set."""
    members = frozenset(members)
    P._check_points(members)
    if direction == "up":
        rows = P.up
    elif direction == "down":
        rows = P.down
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    out = 0
    for i in members:  # no mask round trip: the nuclei path's hottest call
        out |= rows[i]
    return frozenset(_bits(out))


def extrema(P, members, which):
    """Minimal or maximal elements of a subset in the induced order."""
    members = frozenset(members)
    P._check_points(members)
    if which == "min":
        rows = P.down
    elif which == "max":
        rows = P.up
    else:
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    m = _mask(members)
    return frozenset(i for i in members if rows[i] & m == 1 << i)


def upset_masks(P):
    """All upsets as bitmasks, in the order of :func:`enumerate_upsets`."""
    if P._upset_masks is None:
        found = [m for m in range(1 << P.n) if _mask_union(P.up, m) == m]
        found.sort(key=lambda m: (m.bit_count(), list(_bits(m))))
        P._upset_masks = tuple(found)
    return P._upset_masks


def upset_views(P):
    """Upset mask -> the same upset as a frozenset, cached per poset, in
    the order of :func:`upset_masks`."""
    if P._upsets is None:
        P._upsets = {m: frozenset(_bits(m)) for m in upset_masks(P)}
    return P._upsets


def enumerate_upsets(P):
    """All upward-closed subsets, sorted by size then lexicographically.

    In the finite case every upset is clopen, so this is the full frame
    of clopen upsets of the space.
    """
    return list(upset_views(P).values())


# -- canonical forms ---------------------------------------------------


def _canonical(P):
    """Return (key, perm): the minimal relabelled order matrix and a
    permutation realizing it.

    Iterated invariant refinement first, then a minimum over the
    refinement-respecting relabelings only, which keeps the search tiny
    for every poset of workbench size.
    """
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
    best_perm = None
    for perm_parts in itertools.product(
        *(itertools.permutations(g) for g in ordered_groups)
    ):
        perm = [i for part in perm_parts for i in part]
        key = tuple([up[x] >> y & 1 == 1 for x in perm for y in perm])
        if best is None or key < best:
            best = key
            best_perm = perm
    return (n, best), best_perm


def _labelling(P):
    """The (key, perm) of :func:`_canonical`, computed once per poset."""
    if P._canon is None:
        P._canon = _canonical(P)
    return P._canon


def canonical_form(P):
    """A label-independent key: equal iff the posets are isomorphic.

    Used only for deduplication during enumeration, not as a general
    isomorphism service.
    """
    key, _ = _labelling(P)
    return key


def relabel_canonically(P):
    """Return an isomorphic copy with labels p0..p{n-1} in canonical order."""
    _, perm = _labelling(P)
    return FinitePoset([f"p{i}" for i in range(P.n)], _restrict(P, perm))


def _restrict(P, points):
    """Up rows of the order induced on ``points``, numbered in list order."""
    return [_mask(b for b, y in enumerate(points) if P.up[x] >> y & 1)
            for x in points]


# -- JSON interchange ---------------------------------------------------


def poset_to_json(P):
    return {
        "points": list(P.labels),
        "covers": [[P.labels[i], P.labels[j]] for i, j in P.covers()],
    }


def poset_from_json(obj):
    """Read {"points": [...], "covers": [[a,b],...]}; closure is applied."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise UnknownLabel("poset JSON must have a 'points' field")
    return build_poset(obj["points"], [tuple(c) for c in obj.get("covers", [])])

