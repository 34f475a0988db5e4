"""Finite Priestley/Birkhoff duality.

Lattice side: finite bounded distributive lattices with explicit meet
and join tables, validated triple by triple.  Space side: the dual
poset of prime filters, realized through join-irreducible elements
(every prime filter of a finite distributive lattice is the principal
upset of a unique join-irreducible).  The Stone map sends an element to
the set of prime filters containing it; with the dual ordered by filter
inclusion the image is always an upset, no orientation flip needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import (
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
    _mask_union,
    build_poset,
    enumerate_upsets,
    order_closure,
    upset_masks,
)


class DistLattice:
    """Finite bounded distributive lattice with validated operation tables.

    ``up`` and ``down`` are the principal upsets and downsets as bitmask
    rows; ``meet[a][b]`` and ``join[a][b]`` are element indices.
    """

    __slots__ = ("labels", "up", "down", "meet", "join", "bottom", "top",
                 "space", "member_sets", "_index", "_dual")

    def __init__(self, labels, up, down, meet, join, bottom, top):
        self.labels = tuple(labels)
        self.up = up
        self.down = down
        self.meet = meet
        self.join = join
        self.bottom = int(bottom)
        self.top = int(top)
        self.space = None        # set by clopen_upset_lattice
        self.member_sets = None  # parallel tuple of frozensets, same source
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


@dataclass(frozen=True)
class ClopenUpset:
    """An upward-closed point set of a finite Priestley space."""

    space: FinitePoset
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        self.space._check_points(self.members)
        if not self.space.is_upset(self.members):
            raise NotAnUpset(f"{sorted(self.members)} is not an upset")

    def labels(self):
        return sorted(self.space.labels[i] for i in self.members)


def validate_lattice(P, bottom=None, top=None):
    """Check that a finite poset is a bounded distributive lattice.

    Fills the meet/join tables; on failure the error names a witness
    pair (missing meet or join) or triple (distributivity).
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
        meet_row, join_row = [], []
        for b in range(n):
            c = by_down.get(down[a] & down[b])
            if c is None:
                raise NotALattice("meet", (P.labels[a], P.labels[b]))
            meet_row.append(c)
            c = by_up.get(up[a] & up[b])
            if c is None:
                raise NotALattice("join", (P.labels[a], P.labels[b]))
            join_row.append(c)
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
    # a /\ (b \/ c) == (a /\ b) \/ (a /\ c), row by row over c
    meet_at = [itemgetter(*row) for row in meet]
    join_at = [itemgetter(*row) for row in join]
    for a in range(n):
        for b in range(n):
            lhs = join_at[b](meet[a])
            rhs = meet_at[a](join[meet[a][b]])
            if lhs != rhs:
                c = next(c for c in range(n)
                         if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]])
                raise NotDistributive((P.labels[a], P.labels[b], P.labels[c]))
    return DistLattice(P.labels, up, down, tuple(meet), tuple(join), bot, top_)


def _join_irreducibles(D):
    """Elements with exactly one lower cover (excludes the bottom)."""
    strict = [m & ~(1 << j) for j, m in enumerate(D.down)]
    return [
        j for j, m in enumerate(strict)
        if (m & ~_mask_union(strict, m)).bit_count() == 1
    ]


def priestley_dual(D):
    """The dual poset of prime filters, ordered by inclusion.

    Prime filters of a finite distributive lattice are exactly the
    principal upsets of join-irreducibles; filter inclusion reverses the
    lattice order on the irreducibles.
    """
    if D._dual is not None:
        return D._dual[0]
    ji = _join_irreducibles(D)
    # up(p) included in up(q)  iff  q <= p
    up = [sum(1 << j for j, q in enumerate(ji) if D.le(q, p)) for p in ji]
    space = FinitePoset([D.labels[p] for p in ji], up)
    D._dual = (space, ji)
    return space


def stone_map(D, a):
    """phi(a): the prime filters containing a, as an upset of the dual."""
    if isinstance(a, str):
        a = D.index(a)
    if not 0 <= a < D.n:
        raise UnknownElement(f"element index {a} out of range")
    space = priestley_dual(D)
    ji = D._dual[1]
    members = frozenset(i for i, p in enumerate(ji) if D.le(p, a))
    return ClopenUpset(space, members)


def clopen_upset_lattice(X):
    """The finite frame of all upsets of X under intersection and union."""
    masks = upset_masks(X)
    index = {u: i for i, u in enumerate(masks)}
    up = tuple(sum(1 << j for j, v in enumerate(masks) if u & ~v == 0)
               for u in masks)
    down = tuple(sum(1 << j for j, v in enumerate(masks) if v & ~u == 0)
                 for u in masks)
    meet = tuple(tuple(index[u & v] for v in masks) for u in masks)
    join = tuple(tuple(index[u | v] for v in masks) for u in masks)
    member_sets = tuple(enumerate_upsets(X))
    labels = [_upset_label(X, u) for u in member_sets]
    D = DistLattice(labels, up, down, meet, join, index[0],
                    index[(1 << X.n) - 1])
    D.space = X
    D.member_sets = member_sets
    return D


def _upset_label(X, members):
    if not members:
        return "{}"
    return "{" + ",".join(sorted(X.labels[i] for i in members)) + "}"


# -- Heyting structure on upsets ---------------------------------------


def pseudocomplement_set(X, members):
    """U* = X minus the downset of U (as index sets)."""
    full = frozenset(range(X.n))
    return full - order_closure(X, members, "down")


def implies_set(X, u, v):
    """U -> V = X minus the downset of (U minus V)."""
    full = frozenset(range(X.n))
    return full - order_closure(X, u - v, "down")


def heyting(X, U, V=None, op="implies"):
    """Heyting operations on clopen upsets of a finite space.

    ``op='pseudocomplement'`` ignores V and returns U*; ``op='implies'``
    returns U -> V.
    """
    if U.space is not X:
        raise SpaceMismatch("U lives on a different space")
    if op == "pseudocomplement":
        return ClopenUpset(X, pseudocomplement_set(X, U.members))
    if op == "implies":
        if V is None or V.space is not X:
            raise SpaceMismatch("V missing or on a different space")
        return ClopenUpset(X, implies_set(X, U.members, V.members))
    raise ValueError(f"unknown Heyting op {op!r}")


# -- JSON interchange ---------------------------------------------------


def lattice_from_json(obj):
    """Read a lattice presented like a poset, with optional bottom/top."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise UnknownLabel("lattice JSON must have a 'points' field")
    P = build_poset(obj["points"], [tuple(c) for c in obj.get("covers", [])])
    return validate_lattice(P, bottom=obj.get("bottom"), top=obj.get("top"))
