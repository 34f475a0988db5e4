"""Finite Priestley/Birkhoff duality.

Lattice side: finite bounded distributive lattices with explicit meet
and join tables.  Distributivity is decided by join-primeness: a finite
lattice is distributive iff every join-irreducible is join-prime
(Davey & Priestley, *Introduction to Lattices and Order*, 2nd ed.,
2002, ch. 10), which takes n^2 mask compares; the n^3 scan over triples
runs only to name the witness of a rejection.  Space side: the dual
poset of prime filters, realized through join-irreducible elements
(every prime filter of a finite distributive lattice is the principal
upset of a unique join-irreducible).  The Stone map sends an element to
the set of prime filters containing it; with the dual ordered by filter
inclusion the image is always an upset, no orientation flip needed.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter, ne

from .errors import (
    InternalAssertionError,
    NotALattice,
    NotAnUpset,
    NotDistributive,
    SpaceMismatch,
    Unbounded,
    UnknownElement,
    UnknownLabel,
)
from .poset import (
    FinitePoset,
    _bits,
    _Frozen,
    _mask,
    _mask_union,
    closure_tables,
    mask_of,
    poset_from_json,
    set_of,
    sub_upset_unions,
    upset_index,
    upset_lower_covers,
    upset_masks,
)


class DistLattice:
    """Finite bounded distributive lattice with validated operation tables.

    ``up`` and ``down`` are the principal upsets and downsets as bitmask
    rows; ``meet[a][b]`` and ``join[a][b]`` are element indices.
    """

    __slots__ = ("labels", "up", "down", "meet", "join", "bottom", "top",
                 "space", "_index", "_dual")

    def __init__(self, labels, up, down, meet, join, bottom, top):
        self.labels = tuple(labels)
        self.up = up
        self.down = down
        self.meet = meet
        self.join = join
        self.bottom = int(bottom)
        self.top = int(top)
        self.space = None  # set by clopen_upset_lattice
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._dual = None

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"unknown lattice element {label!r}") from None

    def le(self, a, b):
        return bool(self.up[a] >> b & 1)

    def __repr__(self):
        return f"DistLattice({self.n} elements, bottom={self.labels[self.bottom]!r}, top={self.labels[self.top]!r})"


class ClopenUpset(_Frozen, namedtuple("ClopenUpset", "space mask")):
    """An upward-closed point set of a finite Priestley space, built
    from the ``space`` and its points.

    ``mask`` holds the points (bit i for point i); ``members`` is the
    same set as a frozenset.
    """

    __slots__ = ()

    def __new__(cls, space, members):
        mask = mask_of(space, members)
        if _mask_union(space.up, mask) != mask:
            raise NotAnUpset(f"{list(_bits(mask))} is not an upset")
        return tuple.__new__(cls, (space, mask))

    def __getnewargs__(self):
        # copy and pickle rebuild through the constructor, which takes points
        return self.space, self.members

    @property
    def members(self):
        return set_of(self.mask)

    def labels(self):
        return sorted(self.space.labels[i] for i in _bits(self.mask))


def validate_lattice(P, bottom=None, top=None):
    r"""Check that a finite poset is a bounded distributive lattice.

    Fills the meet/join tables; on failure the error names a witness
    pair (missing meet or join) or triple (distributivity).  Checks run
    in that order: tables, then bounds, then distributivity.

    A finite lattice is distributive iff every join-irreducible j is
    join-prime, i.e. j <= a \/ b implies j <= a or j <= b (Davey &
    Priestley, *Introduction to Lattices and Order*, 2nd ed., 2002,
    ch. 10).  So the test is that the join-irreducibles below a \/ b
    are those below a or below b: n^2 mask compares.  Only a rejected
    lattice pays for the n^3 scan that names the first failing triple.
    """
    n = P.n
    if n == 0:
        raise Unbounded("empty order has no bounds")
    up, down = P.up, P.down
    # the common lower bounds of a and b have a greatest element c
    # exactly when they form the principal downset of c
    by_down = {m: c for c, m in enumerate(down)}
    by_up = {m: c for c, m in enumerate(up)}
    meet, join = [], []
    for a in range(n):
        da, ua = down[a], up[a]
        meet_row = [by_down.get(da & m) for m in down]
        join_row = [by_up.get(ua & m) for m in up]
        if None in meet_row or None in join_row:
            b = min(row.index(None) for row in (meet_row, join_row)
                    if None in row)
            kind = "meet" if meet_row[b] is None else "join"
            raise NotALattice(kind, (P.labels[a], P.labels[b]))
        meet.append(tuple(meet_row))
        join.append(tuple(join_row))
    full = (1 << n) - 1
    bot, top_ = by_up.get(full), by_down.get(full)
    if bot is None or top_ is None:
        raise Unbounded("order lacks a unique bottom or top")
    if bottom is not None and P.index(bottom) != bot:
        raise Unbounded(f"declared bottom {bottom!r} is not the least element")
    if top is not None and P.index(top) != top_:
        raise Unbounded(f"declared top {top!r} is not the greatest element")
    ji = _join_irreducible_mask(down)
    jd = [m & ji for m in down]
    # jd[a \/ b] == jd[a] | jd[b] for every b, without building the rows
    if any(any(map(ne, map(jd.__getitem__, join[a]), map(jd[a].__or__, jd)))
           for a in range(n)):
        raise NotDistributive(_distributivity_witness(P.labels, meet, join))
    return DistLattice(P.labels, up, down, tuple(meet), tuple(join), bot, top_)


def _distributivity_witness(labels, meet, join):
    r"""The first triple (a, b, c) with a /\ (b \/ c) != (a /\ b) \/ (a /\ c)."""
    n = len(labels)
    # compared row by row over c, then c found in the first failing row
    meet_at = [itemgetter(*row) for row in meet]
    join_at = [itemgetter(*row) for row in join]
    for a in range(n):
        for b in range(n):
            if join_at[b](meet[a]) != meet_at[a](join[meet[a][b]]):
                c = next(c for c in range(n)
                         if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]])
                return labels[a], labels[b], labels[c]
    raise InternalAssertionError("join-primeness fails but every triple distributes")


def _join_irreducible_mask(down):
    """Mask of the elements with exactly one lower cover, from the
    principal downsets as bitmask rows.  In a finite order j has exactly
    one lower cover c iff its strict downset is the principal downset of
    c; the bottom's strict downset is empty, which no principal downset is.
    """
    principal = set(down)
    return _mask(j for j, m in enumerate(down) if m & ~(1 << j) in principal)


def priestley_dual(D):
    """The dual poset of prime filters, ordered by inclusion.

    Prime filters of a finite distributive lattice are exactly the
    principal upsets of join-irreducibles; filter inclusion reverses the
    lattice order on the irreducibles.
    """
    if D._dual is not None:
        return D._dual[0]
    ji = list(_bits(_join_irreducible_mask(D.down)))
    # up(p) included in up(q)  iff  q <= p
    up = [sum(1 << j for j, q in enumerate(ji) if D.le(q, p)) for p in ji]
    space = FinitePoset([D.labels[p] for p in ji], up)
    D._dual = (space, ji)
    return space


def stone_map(D, a):
    """phi(a): the prime filters containing a, as an upset of the dual."""
    if isinstance(a, str):
        a = D.index(a)
    elif not isinstance(a, int) or isinstance(a, bool):
        raise UnknownElement(f"element {a!r} is neither a label nor an index")
    if not 0 <= a < D.n:
        raise UnknownElement(f"element index {a} out of range")
    space = priestley_dual(D)
    ji = D._dual[1]
    return ClopenUpset(space, (i for i, p in enumerate(ji) if D.le(p, a)))


def clopen_upset_lattice(X):
    """The finite frame of all upsets of X under intersection and union.

    The order rows come from the lower covers of the upset lattice
    (:func:`~priestley.poset.upset_lower_covers`) in U*n steps, not from
    U^2 comparisons: ``down[k]``, the upsets inside U_k, is the union of
    the lower covers' rows plus U_k itself, and ``up[k]``, the upsets
    above U_k, is built the same way downward from the largest upset.
    """
    masks = upset_masks(X)
    index = upset_index(X)
    down = sub_upset_unions(X, [1 << k for k in range(len(masks))])
    up = [1 << k for k in range(len(masks))]
    lower = upset_lower_covers(X)
    for k in reversed(range(len(masks))):
        for c in lower[k]:
            up[c] |= up[k]
    meet = tuple(tuple(index[u & v] for v in masks) for u in masks)
    join = tuple(tuple(index[u | v] for v in masks) for u in masks)
    labels = [_upset_label(X, u) for u in masks]
    D = DistLattice(labels, tuple(up), tuple(down), meet, join, index[0],
                    index[(1 << X.n) - 1])
    D.space = X
    return D


def _upset_label(X, mask):
    return "{" + ",".join(sorted(X.labels[i] for i in _bits(mask))) + "}"


# -- Heyting structure on upsets ---------------------------------------


def pseudocomplement_set(X, u):
    """U* = X minus the downset of U, for the upset mask u."""
    return (1 << X.n) - 1 & ~closure_tables(X).down[u]


def implies_set(X, u, v):
    """U -> V = X minus the downset of (U minus V), for upset masks."""
    return (1 << X.n) - 1 & ~closure_tables(X).down[u & ~v]


def heyting(X, U, V=None):
    """Heyting operations on clopen upsets of a finite space: U -> V,
    or the pseudocomplement U* when V is not given."""
    if U.space is not X:
        raise SpaceMismatch("U lives on a different space")
    if V is None:
        return ClopenUpset(X, _bits(pseudocomplement_set(X, U.mask)))
    if V.space is not X:
        raise SpaceMismatch("V lives on a different space")
    return ClopenUpset(X, _bits(implies_set(X, U.mask, V.mask)))


# -- JSON interchange ---------------------------------------------------


def lattice_from_json(obj):
    """Read a lattice presented like a poset (see :func:`poset_from_json`),
    with optional ``bottom``/``top`` labels."""
    P = poset_from_json(obj)
    bounds = {field: obj.get(field) for field in ("bottom", "top")}
    for field, lab in bounds.items():
        if lab is not None and not isinstance(lab, str):
            raise UnknownLabel(f"{field}: a label must be a string, got {lab!r}")
    return validate_lattice(P, **bounds)
