"""Finite posets: the substrate for every finite Priestley-space computation.

Points carry opaque string labels but are addressed by dense integer
indices everywhere else.  The order is stored as read-only bitmask rows
(bit j of ``up[i]`` is set iff point i lies below point j, and ``down``
is the transpose), validated for reflexivity, antisymmetry and
transitivity at construction.  Point sets are int masks too (bit i for
point i); the public API takes and returns ``frozenset``s of indices,
converted at the boundary by :func:`mask_of` and :func:`set_of` alone.
Equality is always exact, never tolerance-based.  Iteration orders are
deterministic so downstream reports are byte-identical across runs.

Whatever is derived from an order is a table of the poset (a function
under ``_table``), built on first use and kept in its one memo,
``P._tables``, which :func:`drop_tables` empties: the upset masks (grown
a size at a time, each from a smaller upset plus a point maximal
outside it) and their index, the up- and down-closure of a point mask
(:func:`closure_tables`), the lower covers of each upset in the upset
lattice (:func:`upset_lower_covers`, which turns a union over all
sub-upsets into U*n steps), one meet split per upset
(:func:`upset_meet_splits`, which nucleus validation reads), the cover
pairs and the canonical key.

The canonical labelling (:func:`canonical_rows`) reads only the up and
down rows of an order and gives its canonical key, the least order
matrix over the relabellings it searches; the canonical poset is read
off that key, so no permutation is kept.  One-point extension
(:func:`one_point_extensions`, which enumeration runs a size at a time)
labels each candidate from its rows before it builds any
:class:`FinitePoset`, and builds one only for the first candidate of
each isomorphism class, its key seeded in its memo.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

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


class _Frozen:
    """The package's immutable values, mixed in before a ``namedtuple``
    of the fields: assigning or deleting any attribute raises
    ``FrozenInstanceError``, ``<`` and its kin raise ``TypeError``
    instead of comparing the field tuples, and ``in`` is not the tuple's
    element test.  ``==``, ``!=``, ``hash`` and the repr are the
    namedtuple's, so a value also equals the plain tuple of its fields.
    The error's module is imported only to raise it: imported up front,
    it would load ``inspect`` and ``ast`` into every run."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __contains__(self, item):
        raise TypeError(f"{type(self).__name__} is not a container")

    # Python-level order methods send == and != through a slot lookup
    # too, about 0.1 us more per compare; the sweeps do not show it
    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


def _table(build):
    """A table of an object: ``build(obj)`` is kept in ``obj._tables``
    (keyed by the returned function) the first time it is asked for.
    This is the package's one lazy cache.  A poset, an engine and a
    lattice each make their own empty ``_tables`` in their constructor,
    so a table never outlives, nor is shared beyond, its object."""
    def table(obj):
        try:
            return obj._tables[table]
        except KeyError:
            out = obj._tables[table] = build(obj)
            return out
    return functools.update_wrapper(table, build)


def drop_tables(P):
    """Forget every table of P; each is built again on its next use."""
    P._tables.clear()


class FinitePoset:
    """Immutable finite partial order.

    ``up[i]`` and ``down[i]`` are the principal upset and downset of
    point i as bitmasks.  In the finite Priestley picture the topology is
    discrete, so the order carries all the structure.
    """

    __slots__ = ("labels", "up", "down", "_index", "_tables")

    def __init__(self, labels, up):
        labels = tuple(labels)
        up = tuple(up)
        n = len(labels)
        if len(set(labels)) != n:
            raise DuplicateLabel(f"labels are not unique: {labels}")
        if len(up) != n or any(not isinstance(r, int) or isinstance(r, bool) or r >> n
                               for r in up):
            raise ValueError(f"up must be {n} rows of {n} bits")
        if any(not r >> i & 1 for i, r in enumerate(up)):
            raise ValueError("order is not reflexive")
        # one pass over the pairs i <= j: the transpose, and whether the
        # principal upsets of the points above i lie in up[i] (transitivity)
        down = [0] * n
        transitive = True
        for i, r in enumerate(up):
            reach = 0
            m = r
            while m:  # _bits inlined
                low = m & -m
                j = low.bit_length() - 1
                reach |= up[j]
                down[j] |= 1 << i
                m ^= low
            if reach != r:
                transitive = False
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                j = next(_bits(both))
                raise CycleDetected(f"{labels[i]} and {labels[j]} lie below each other")
        if not transitive:
            raise ValueError("order is not transitive")
        self.labels = labels
        self.up = up
        self.down = tuple(down)
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._tables = {}

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

    @_table
    def covers(self):
        """Cover pairs (i, j) with j covering i, for Hasse diagrams."""
        strict = [m & ~(1 << i) for i, m in enumerate(self.up)]
        return tuple(
            (i, j)
            for i, m in enumerate(strict)
            for j in _bits(m & ~_mask_union(strict, m))
        )

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
    are rejected (antisymmetry would fail).  The closure takes each row
    in a depth-first postorder of the generating pairs and unions into
    it the rows of its points, which are then closed already unless a
    cycle runs through them.  So one pass closes an acyclic input in
    O(n + pairs) row unions; on a cyclic one the passes repeat until no
    row grows, which makes the rows exact for ``FinitePoset`` to name the
    cycle.
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
    order, visited, cyclic = [], 0, False
    for root in range(n):
        if visited >> root & 1:
            continue
        visited |= 1 << root
        on_path = 1 << root
        stack = [(root, up[root] & ~(1 << root))]
        while stack:
            i, rest = stack[-1]
            if rest & on_path:  # a point on the path is reached again
                cyclic = True
            rest &= ~visited
            if rest:
                low = rest & -rest
                j = low.bit_length() - 1
                stack[-1] = (i, rest ^ low)
                visited |= low
                on_path |= low
                stack.append((j, up[j] & ~low))
            else:
                stack.pop()
                on_path ^= 1 << i
                up[i] = _mask_union(up, up[i])
                order.append(i)
    grew = cyclic
    while grew:
        grew = False
        for i in order:
            row = _mask_union(up, up[i])
            if row != up[i]:
                up[i] = row
                grew = True
    return FinitePoset(labels, up)


# -- point sets at the public boundary --------------------------------


def mask_of(P, members):
    """The mask of a point set given from outside; each point must be an
    index of P (an int, not a bool, in range)."""
    n = P.n
    out = 0
    for i in members:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
            raise UnknownPoint(f"point index {i!r} out of range")
        out |= 1 << i
    return out


def set_of(mask):
    """The points of a mask as a frozenset of indices, the one form in
    which the package hands a point set out."""
    return frozenset(_bits(mask))


def order_closure(P, members, direction):
    """Upward or downward closure of a point set."""
    m = mask_of(P, members)
    if direction == "up":
        table = closure_tables(P).up
    elif direction == "down":
        table = closure_tables(P).down
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return set_of(table[m])


def extrema(P, members, which):
    """Minimal or maximal elements of a subset in the induced order."""
    m = mask_of(P, members)
    if which == "min":
        rows = P.down
    elif which == "max":
        rows = P.up
    else:
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    return set_of(_mask(i for i in _bits(m) if rows[i] & m == 1 << i))


@_table
def upset_masks(P):
    """All upsets as bitmasks, in the order of :func:`enumerate_upsets`.

    They are grown a size at a time: an upset of k+1 points is an upset
    of k points plus one point maximal outside it (U minus a minimal
    point of U is an upset), so no mask that is not an upset is tried.
    Each size is then sorted by its points, as a list.
    """
    up = P.up
    points = range(P.n)
    level = [0]
    found = [0]
    for _ in points:
        # up[m] holds m, so this also says that m lies outside u
        grown = {u | 1 << m for u in level for m in points if up[m] & ~u == 1 << m}
        level = sorted(grown, key=lambda m: list(_bits(m)))
        found += level
    return tuple(found)


@_table
def upset_index(P):
    """Upset mask -> its position in :func:`upset_masks`."""
    return {u: k for k, u in enumerate(upset_masks(P))}


class _ClosureTable(dict):
    """Point mask -> the union of ``rows[i]`` over its points.  An entry
    is computed the first time its mask is asked for and kept, so a
    table never holds more than the masks its poset was asked about."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, mask):
        out = self[mask] = _mask_union(self.rows, mask)
        return out


class ClosureTables(_Frozen, namedtuple("ClosureTables", "up down strict_up strict_down")):
    """The closure tables of one poset, each a :class:`_ClosureTable`:
    mask -> the union over its points of their principal upsets,
    downsets, and both without the point."""

    __slots__ = ()


@_table
def closure_tables(P):
    """The :class:`ClosureTables` of a poset."""
    strict_up = [m & ~(1 << i) for i, m in enumerate(P.up)]
    strict_down = [m & ~(1 << i) for i, m in enumerate(P.down)]
    return ClosureTables(*map(_ClosureTable, (P.up, P.down, strict_up, strict_down)))


@_table
def upset_lower_covers(P):
    """For each upset U, in :func:`upset_masks` order, the indices of its
    lower covers in the upset lattice: U minus one minimal point of U.

    Every proper sub-upset of U lies inside one of them (Davey &
    Priestley, *Introduction to Lattices and Order*, 2nd ed., 2002), and
    each comes before U in size order.
    """
    index = upset_index(P)
    down = P.down
    return tuple(
        tuple(index[u ^ 1 << m] for m in _bits(u) if down[m] & u == 1 << m)
        for u in upset_masks(P)
    )


def sub_upset_unions(P, values):
    """For each upset U, the union of ``values[k]`` over the upsets V_k
    inside U (``values`` parallel to :func:`upset_masks`), in U*n steps:
    ``acc[U] = values[U] | OR acc[U - m]`` over the lower covers U - m."""
    acc = []
    for f, covers in zip(values, upset_lower_covers(P)):
        for c in covers:
            f |= acc[c]
        acc.append(f)
    return acc


@_table
def upset_meet_splits(P):
    """For each upset U other than the whole space, in :func:`upset_masks`
    order, a triple (U, V, M) of upset masks with U = V & M: V is U plus
    m, for the lowest-index maximal point m outside U (an upper cover of
    U), and M is the meet-irreducible upset X minus down(m).

    Every upset U is the meet of the M over the points outside it, and
    the splits chain U to the whole space through them.
    """
    full = (1 << P.n) - 1
    up, down = P.up, P.down
    splits = []
    for u in upset_masks(P)[:-1]:
        rest = bits = full & ~u
        low = bits & -bits
        while up[low.bit_length() - 1] & rest != low:  # _bits inlined
            bits ^= low
            low = bits & -bits
        splits.append((u, u | low, full & ~down[low.bit_length() - 1]))
    return tuple(splits)


def enumerate_upsets(P):
    """All upward-closed subsets, sorted by size then lexicographically.

    In the finite case every upset is clopen, so this is the full frame
    of clopen upsets of the space.
    """
    return [set_of(u) for u in upset_masks(P)]


# -- canonical forms ---------------------------------------------------


def canonical_rows(up, down):
    """The canonical key of the order with these up and down rows: its
    size and the least order matrix, read row by row, over the
    relabellings that keep the colour classes in order.  Row i of the
    canonical order is entries i*n .. i*n+n-1 of the key, so the key
    alone names the canonical poset.

    The points are coloured by (|down|, |up|), and the colours refined by
    the sorted colours below and above each point until a round splits
    no class or every point has a colour of its own (so refinement is
    skipped when the first colours are already all distinct).  A colour
    leads its own signature, so a further round would only rename the
    classes in the same order (the partition is equitable: McKay &
    Piperno, "Practical graph isomorphism II", 2014).
    The search over the relabellings inside the classes stays tiny for
    every poset of workbench size.
    """
    n = len(up)
    colors = [(d.bit_count(), u.bit_count()) for d, u in zip(down, up)]
    classes = len(set(colors))
    if classes < n:
        below = [list(_bits(down[i] & ~(1 << i))) for i in range(n)]
        above = [list(_bits(up[i] & ~(1 << i))) for i in range(n)]
        while classes < n:
            new = [
                (colors[i],
                 tuple(sorted([colors[j] for j in below[i]])),
                 tuple(sorted([colors[j] for j in above[i]])))
                for i in range(n)
            ]
            ranks = sorted(set(new))
            ranking = {c: r for r, c in enumerate(ranks)}
            colors = [ranking[c] for c in new]
            if len(ranks) == classes:
                break
            classes = len(ranks)
    groups = {}
    for i in range(n):
        groups.setdefault(colors[i], []).append(i)
    relabellings = itertools.product(
        *(itertools.permutations(groups[c]) for c in sorted(groups)))
    return n, min(tuple([up[x] >> y & 1 == 1 for x in order for y in order])
                  for order in (sum(parts, ()) for parts in relabellings))


@_table
def _labelling(P):
    """The canonical key of :func:`canonical_rows` for a poset."""
    return canonical_rows(P.up, P.down)


def canonical_form(P):
    """A label-independent key: equal iff the posets are isomorphic.

    Used only for deduplication during enumeration, not as a general
    isomorphism service.
    """
    return _labelling(P)


def relabel_canonically(P):
    """Return an isomorphic copy with labels p0..p{n-1} in canonical order,
    its up rows read off the canonical key."""
    n, key = _labelling(P)
    return FinitePoset([f"p{i}" for i in range(n)],
                       [_mask(itertools.compress(range(n), key[i * n:i * n + n]))
                        for i in range(n)])


def one_point_extensions(smaller):
    """The posets of one point more than the posets ``smaller`` (all of
    one size, one per isomorphism class), up to isomorphism: canonically
    labelled, sorted by canonical key.  Given no posets, the one-point
    poset, the extension of the empty order.

    One-point extension (McKay, "Isomorph-free exhaustive generation",
    1998; Brinkmann & McKay, "Posets on up to 16 points", 2002): every
    n-point poset is an (n-1)-point poset Q plus a new maximal point
    whose strict downset is a downset of Q, i.e. the complement of one
    of Q's upsets.  Each such candidate is labelled canonically from its
    rows (:func:`canonical_rows`): the old points keep Q's down rows,
    since the new point lies above none of them.  A candidate is kept
    when its key is missing from a dict of every key seen so far, not by
    McKay's local canonical-augmentation test, so memory grows with the
    number of classes.  Only the first candidate of each class becomes
    a :class:`FinitePoset`, validated, keeping that key, and is
    canonically relabelled; a later one has the same key, so it is a
    relabelling of that validated order.
    """
    parents = [(Q.up, Q.down, upset_masks(Q)) for Q in smaller] or [((), (), (0,))]
    n = len(parents[0][0]) + 1
    labels = [f"p{i}" for i in range(n)]
    top = 1 << (n - 1)
    found = {}
    for up, down, upsets in parents:
        for u in upsets:
            rows = [r if u >> i & 1 else r | top for i, r in enumerate(up)]
            rows.append(top)
            key = canonical_rows(rows, (*down, (top - 1) & ~u | top))
            if key not in found:
                P = found[key] = FinitePoset(labels, rows)
                P._tables[_labelling] = key  # just computed from its rows
    return tuple(map(relabel_canonically, sorted(found.values(), key=canonical_form)))


# -- JSON interchange ---------------------------------------------------


def poset_to_json(P):
    return {
        "points": list(P.labels),
        "covers": [[P.labels[i], P.labels[j]] for i, j in P.covers()],
    }


def poset_from_json(obj):
    """Read {"points": [...], "covers": [[a,b],...]}; closure is applied.

    A malformed document raises :class:`UnknownLabel` naming the field at
    fault (``points``, ``points.2``, ``covers``, ``covers.3``).
    """
    if not isinstance(obj, dict) or "points" not in obj:
        raise UnknownLabel("points: JSON must be an object with a 'points' field")
    points, covers = obj["points"], obj.get("covers", [])
    if not isinstance(points, list):
        raise UnknownLabel(f"points: expected a list of labels, got {points!r}")
    for k, lab in enumerate(points):
        if not isinstance(lab, str):
            raise UnknownLabel(f"points.{k}: a label must be a string, got {lab!r}")
    if not isinstance(covers, list):
        raise UnknownLabel(f"covers: expected a list of label pairs, got {covers!r}")
    for k, c in enumerate(covers):
        if not (isinstance(c, list) and len(c) == 2
                and all(isinstance(lab, str) for lab in c)):
            raise UnknownLabel(f"covers.{k}: expected a list of two labels, got {c!r}")
    return build_poset(points, covers)
