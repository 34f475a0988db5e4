"""Finite Priestley/Birkhoff duality.

Lattice side: finite bounded distributive lattices, kept as their order
rows; the meet and join tables are built from the rows on first read.
A finite poset is accepted by Birkhoff's representation theorem: it is
a distributive lattice exactly when a -> J & down(a), for J its
join-irreducibles, is an order isomorphism onto the downsets of J
(Davey & Priestley, *Introduction to Lattices and Order*, 2nd ed.,
2002, ch. 5), which takes n*|J| steps.  Only a rejected poset pays for
the pair scan and the triple scan that name its witness.  Space side:
the dual poset of prime filters, realized through join-irreducible
elements (every prime filter of a finite distributive lattice is the
principal upset of a unique join-irreducible).  The Stone map sends an
element to the set of prime filters containing it; with the dual
ordered by filter inclusion the image is always an upset, no
orientation flip needed.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

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
    _table,
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
    """Finite bounded distributive lattice, validated from its order rows.

    ``up`` and ``down`` are the principal upsets and downsets as bitmask
    rows; ``meet[a][b]`` and ``join[a][b]`` are element indices, in
    tables built from the rows on first read.  Its dual is a table of
    the lattice (:func:`prime_filters`).
    """

    __slots__ = ("labels", "up", "down", "bottom", "top", "_index", "_tables")

    def __init__(self, labels, up, down, bottom, top):
        self.labels = tuple(labels)
        self.up = up
        self.down = down
        self.bottom = int(bottom)
        self.top = int(top)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._tables = {}

    @property
    @_table
    def meet(self):
        return _bound_table(self.down)

    @property
    @_table
    def join(self):
        return _bound_table(self.up)

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
    """Check that a finite poset is a bounded distributive lattice.

    The accept path is Birkhoff's test (:func:`_is_distributive_lattice`),
    n*|J| steps for the join-irreducibles J, and builds no table.  A
    rejection names a witness pair (missing meet or join) or triple
    (distributivity), with checks in that order: tables, then bounds,
    then distributivity.  Only a rejected poset pays for the pair scan
    that builds the tables and the scan that names the first failing
    triple.
    """
    n = P.n
    if n == 0:
        raise Unbounded("empty order has no bounds")
    up, down = P.up, P.down
    accepted = _is_distributive_lattice(up, down)
    if not accepted:
        meet, join = _operation_tables(P)
    full = (1 << n) - 1
    if full not in up or full not in down:
        raise Unbounded("order lacks a unique bottom or top")
    bot, top_ = up.index(full), down.index(full)
    if bottom is not None and P.index(bottom) != bot:
        raise Unbounded(f"declared bottom {bottom!r} is not the least element")
    if top is not None and P.index(top) != top_:
        raise Unbounded(f"declared top {top!r} is not the greatest element")
    if not accepted:
        raise NotDistributive(_distributivity_witness(P.labels, meet, join))
    return DistLattice(P.labels, up, down, bot, top_)


def _is_distributive_lattice(up, down):
    """Birkhoff's test on the order rows of a finite poset.

    With J the join-irreducibles and jd(a) = down(a) & J, the poset is
    a distributive lattice exactly when jd is an order isomorphism onto
    the downsets of J.  jd is an order embedding when up(a) is the
    meet of up(j) over the j in jd(a) (every point when jd(a) is
    empty): then jd(a) <= jd(b) puts b in up(a).  An embedding whose
    images are downsets of J is onto them when there are exactly n.
    """
    ji = _join_irreducible_mask(down)
    full = (1 << len(up)) - 1
    for a, d in enumerate(down):
        above = full
        for j in _bits(d & ji):
            above &= up[j]
        if above != up[a]:
            return False
    return _downset_count(down, ji, len(up) + 1) == len(up)


def _downset_count(down, members, stop):
    """The number of downsets of the points of ``members`` in the order
    of the ``down`` rows, or a number of at least ``stop`` once the
    count reaches it: each size is grown from the last by adding a
    point whose strict downset is inside."""
    below = [(1 << j, down[j] & members & ~(1 << j)) for j in _bits(members)]
    level, count = {0}, 1
    while level and count < stop:
        level = {d | bit for d in level for bit, lower in below
                 if not d & bit and not lower & ~d}
        count += len(level)
    return count


def _operation_tables(P):
    """The meet and join tables of P, or :class:`NotALattice` naming the
    first pair (a, b) without a meet or a join, a meet first."""
    meet, join = _bound_table(P.down), _bound_table(P.up)
    for a, (meet_row, join_row) in enumerate(zip(meet, join)):
        if None in meet_row or None in join_row:
            b = min(row.index(None) for row in (meet_row, join_row)
                    if None in row)
            kind = "meet" if meet_row[b] is None else "join"
            raise NotALattice(kind, (P.labels[a], P.labels[b]))
    return meet, join


def _bound_table(rows):
    """The table of the c with ``rows[c] == rows[a] & rows[b]``, or None:
    the common lower bounds of a and b have a greatest element c exactly
    when they are the downset of c.  So it holds the meets of a lattice
    from its downset rows, the joins from its upset rows."""
    at = {m: c for c, m in enumerate(rows)}.get
    return tuple(tuple(map(at, map(r.__and__, rows))) for r in rows)


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
    raise InternalAssertionError("Birkhoff's test fails but every triple distributes")


def _join_irreducible_mask(down):
    """Mask of the elements with exactly one lower cover, from the
    principal downsets as bitmask rows.  In a finite order j has exactly
    one lower cover c iff its strict downset is the principal downset of
    c; the bottom's strict downset is empty, which no principal downset is.
    """
    principal = set(down)
    return _mask(j for j, m in enumerate(down) if m & ~(1 << j) in principal)


@_table
def prime_filters(D):
    """The dual poset of prime filters, ordered by inclusion, and the
    join-irreducible whose principal upset each of its points is.

    Prime filters of a finite distributive lattice are exactly the
    principal upsets of join-irreducibles; filter inclusion reverses the
    lattice order on the irreducibles.
    """
    ji = list(_bits(_join_irreducible_mask(D.down)))
    # up(p) included in up(q)  iff  q <= p
    up = [sum(1 << j for j, q in enumerate(ji) if D.le(q, p)) for p in ji]
    return FinitePoset([D.labels[p] for p in ji], up), ji


def priestley_dual(D):
    """The dual poset of prime filters, ordered by inclusion."""
    return prime_filters(D)[0]


def stone_map(D, a):
    """phi(a): the prime filters containing a, as an upset of the dual."""
    if isinstance(a, str):
        a = D.index(a)
    elif not isinstance(a, int) or isinstance(a, bool):
        raise UnknownElement(f"element {a!r} is neither a label nor an index")
    if not 0 <= a < D.n:
        raise UnknownElement(f"element index {a} out of range")
    space, ji = prime_filters(D)
    return ClopenUpset(space, (i for i, p in enumerate(ji) if D.le(p, a)))


def clopen_upset_lattice(X):
    """The finite frame of all upsets of X under intersection and union.

    The order rows come from the lower covers of the upset lattice
    (:func:`~priestley.poset.upset_lower_covers`) in U*n steps, not from
    U^2 comparisons: ``down[k]``, the upsets inside U_k, is the union of
    the lower covers' rows plus U_k itself, and ``up[k]``, the upsets
    above U_k, is built the same way downward from the largest upset.
    The meet and join tables, U x U each, are built only when read.
    """
    masks = upset_masks(X)
    index = upset_index(X)
    down = sub_upset_unions(X, [1 << k for k in range(len(masks))])
    up = [1 << k for k in range(len(masks))]
    lower = upset_lower_covers(X)
    for k in reversed(range(len(masks))):
        for c in lower[k]:
            up[c] |= up[k]
    labels = [_upset_label(X, u) for u in masks]
    return DistLattice(labels, tuple(up), tuple(down), index[0],
                       index[(1 << X.n) - 1])


def _upset_label(X, mask):
    return "{" + ",".join(sorted(X.labels[i] for i in _bits(mask))) + "}"


# -- Heyting structure on upsets ---------------------------------------


def implies_set(X, u, v):
    """U -> V = X minus down(U minus V) on masks; j_N V for a point set N as U."""
    return (1 << X.n) - 1 & ~closure_tables(X).down[u & ~v]


def pseudocomplement_set(X, u):
    """U* = U -> empty, for the upset mask u."""
    return implies_set(X, u, 0)


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
