"""Nuclei on finite frames of upsets, and their dual nuclear subsets.

A nucleus j is an inflationary, idempotent, meet-preserving self-map of
the frame; here frames are the upset lattices of finite posets and a
nucleus is stored as an explicit table.  The dictionary runs both ways:

* the nuclear set of a nucleus collects the points x with
  ``x in jU  implies  x in U`` for every upset U;
* a point set N induces the nucleus ``jU = X \\ down(N \\ U)``.

On finite spaces every subset is a nuclear set and the two directions
are mutually inverse, which is what the exhaustive sweeps in the oracle
lean on.  Sublocales are represented by their fixpoint sets.

Every table is validated, law by law: totality, upset images,
inflation, idempotence, meets.  Meets take one lookup per upset, through
its split into an upper cover and a meet-irreducible upset
(:func:`~priestley.poset.upset_meet_splits`), not a scan over all pairs
of upsets; the pair scan runs only to name the first failing pair of a
rejected table.

Point sets are int bitmasks here (bit i for point i): a nucleus holds
``masks``, upset mask -> image mask in ``upset_masks`` order, and a
nuclear set holds ``mask``.  Point sets from outside pass through
:func:`~priestley.poset.mask_of` once (``validate_nucleus``, ``j(U)``,
``NuclearSet``); frozensets are made by
:func:`~priestley.poset.set_of` only on the way out (``j(U)``,
``.members``, ``j.table``, ``admissible_upset``, ``booleanization``,
the errors).  Nothing here caches a frozenset: ``j.table`` builds its
view on each read.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import birkhoff
from .errors import (
    InternalAssertionError,
    NotAnUpset,
    NotIdempotent,
    NotInflationary,
    NotMeetPreserving,
    SpaceMismatch,
)
from .poset import (_bits, _Frozen, _mask, closure_tables, enumerate_upsets,
                    extrema, mask_of, order_closure, set_of, upset_index,
                    upset_masks, upset_meet_splits)


class Nucleus:
    """A validated nucleus table on the upset frame of a finite space.

    ``masks`` maps every upset mask to its image mask; the first failing
    law raises with the offending upset(s) as frozensets.  The laws are
    checked in the order totality, upset images, inflation, idempotence,
    meets.

    Meets are decided through meet-irreducibles.  Each upset U other
    than the whole space X is the meet of the upsets X - down(x) over the
    points x outside it (Davey & Priestley, *Introduction to Lattices and
    Order*, 2nd ed., 2002, ch. 10), and U = V & M for the upper cover
    V = U + m and M = X - down(m), m maximal outside U.  Given jX = X
    (inflation), j preserves binary meets iff jU = jV & jM for one such
    split of every U.  If every split holds, then by induction on the size
    of X - U, jU is the meet of j(X - down(x)) over the points x outside
    U, and a point lies outside U & W iff it lies outside U or outside W,
    so j(U & W) = jU & jW.  That is U lookups; only a rejected table pays
    for the scan over pairs that names the first failing one.
    """

    __slots__ = ("space", "masks")

    def __init__(self, space, masks):
        ups = upset_masks(space)
        index = upset_index(space)
        if masks.keys() != index.keys():
            raise ValueError("table must be total on the upsets of the space")
        masks = {u: masks[u] for u in ups}
        for u, v in masks.items():
            if v not in index:
                raise ValueError(f"image of {list(_bits(u))} is not an upset")
        for u, v in masks.items():
            if u & ~v:
                raise NotInflationary(set_of(u))
        for u, v in masks.items():
            if masks[v] != v:
                raise NotIdempotent(set_of(u))
        if not _meets_preserved(space, masks):
            u, v = _first_unmet_pair(ups, masks)
            raise NotMeetPreserving(set_of(u), set_of(v))
        self.space = space
        self.masks = masks

    @property
    def table(self):
        """The table as upset frozenset -> image frozenset, built anew
        on each read."""
        return {set_of(u): set_of(v) for u, v in self.masks.items()}

    def __call__(self, u):
        m = mask_of(self.space, u)
        if m not in self.masks:
            raise NotAnUpset(f"{list(_bits(m))} is not an upset")
        return set_of(self.masks[m])

    def __eq__(self, other):
        return (
            isinstance(other, Nucleus)
            and self.space == other.space
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.space, tuple(self.masks.values())))

    def leq(self, other):
        """Pointwise order on nuclei: self(U) contained in other(U) for all U."""
        theirs = other.masks
        for u, v in self.masks.items():
            if v & ~theirs[u]:
                return False
        return True

    @classmethod
    def identity(cls, space):
        return cls(space, {u: u for u in upset_masks(space)})

    @classmethod
    def constant_top(cls, space):
        full = (1 << space.n) - 1
        return cls(space, {u: full for u in upset_masks(space)})


def _meets_preserved(space, masks):
    """Whether j(U) == j(V) & j(M) for the split U = V & M of each upset
    U other than the whole space (:func:`~priestley.poset.upset_meet_splits`)."""
    for u, v, m in upset_meet_splits(space):
        if masks[u] != masks[v] & masks[m]:
            return False
    return True


def _first_unmet_pair(ups, masks):
    """The first pair (U, V), in ``combinations`` order, with
    j(U & V) != jU & jV."""
    for u, v in combinations(ups, 2):
        if masks[u & v] != masks[u] & masks[v]:
            return u, v
    raise InternalAssertionError("a split fails but every pair preserves meets")


class NuclearSet(_Frozen, namedtuple("NuclearSet", "space mask")):
    """A point subset of a finite space, in its role as a nuclear set,
    built from the ``space`` and its points.

    Every subset of a finite Priestley space is nuclear: all subsets are
    closed and down(U & N) is clopen.  ``members`` is the subset
    ``mask`` as a frozenset.
    """

    __slots__ = ()

    def __new__(cls, space, members):
        return tuple.__new__(cls, (space, mask_of(space, members)))

    @classmethod
    def _of_mask(cls, space, mask):
        return tuple.__new__(cls, (space, mask))

    def __getnewargs__(self):
        # copy and pickle rebuild through the constructor, which takes points
        return self.space, self.members

    @property
    def members(self):
        return set_of(self.mask)


def validate_nucleus(space, raw_table):
    """Table of point sets in, Nucleus out; errors carry the first
    violating upset(s)."""
    return Nucleus(space, {mask_of(space, u): mask_of(space, v)
                           for u, v in raw_table.items()})


def unmoved_points(table, full):
    """The nuclear-set rule on masks: the points of ``full`` that no
    entry U -> jU of ``table`` moves, that is, in no jU \\ U."""
    moved = 0
    for u, v in table.items():
        moved |= v & ~u
    return full & ~moved


def nuclear_of_nucleus(j):
    """N_j: the points that cannot tell jU from U."""
    return NuclearSet._of_mask(j.space, unmoved_points(j.masks, (1 << j.space.n) - 1))


def nucleus_of_nuclear(N):
    """j_N U = X \\ down(N \\ U); always passes validation."""
    space = N.space
    full = (1 << space.n) - 1
    down = closure_tables(space).down
    # birkhoff.implies_set's rule N -> U, inline: a call per entry slows all_nuclei
    return Nucleus(space, {
        u: full & ~down[N.mask & ~u] for u in upset_masks(space)
    })


def admissible_upset(j):
    """The intersection of the j-dense upsets; equals up(N_j).

    An upset U is j-dense when jU is the whole space.  The returned set
    is asserted against the up-closure of the nuclear set.
    """
    space = j.space
    full = (1 << space.n) - 1
    h = full
    for u, v in j.masks.items():
        if v == full:
            h &= u
    h = set_of(h)
    if h != order_closure(space, _bits(unmoved_points(j.masks, full)), "up"):
        raise InternalAssertionError("admissible upset differs from up(N_j)")
    return h


def _maximal_mask(space):
    return _mask(extrema(space, range(space.n), "max"))


def double_negation(space):
    """The nucleus U |-> U**; its nuclear set is max X."""
    pc = birkhoff.pseudocomplement_set
    j = Nucleus(space, {u: pc(space, pc(space, u)) for u in upset_masks(space)})
    if unmoved_points(j.masks, (1 << space.n) - 1) != _maximal_mask(space):
        raise InternalAssertionError("double negation nuclear set is not max X")
    return j


def booleanization(space):
    """Fixpoints of double negation, with the sublocale laws asserted."""
    j = double_negation(space)
    fix = [u for u, v in j.masks.items() if u == v]
    fixset = set(fix)
    # closed under arbitrary meets: in a finite frame meets are
    # intersections, so binary closure plus the empty meet (the top)
    # already gives closure under all of them
    if (1 << space.n) - 1 not in fixset:
        raise InternalAssertionError("the top is not a fixpoint")
    for u, v in combinations(fix, 2):
        if u & v not in fixset:
            raise InternalAssertionError("fixpoints not closed under meets")
    # a -> s stays a fixpoint for every upset a
    for a in upset_masks(space):
        for s in fix:
            if birkhoff.implies_set(space, a, s) not in fixset:
                raise InternalAssertionError(
                    "fixpoints not closed under Heyting implication"
                )
    return [s for s, (u, v) in zip(enumerate_upsets(space), j.masks.items())
            if u == v]


def density_check(j):
    """dense: j(empty) = empty; cofinal: max X inside N_j; always equal."""
    dense = j.masks[0] == 0
    cofinal = _maximal_mask(j.space) & ~unmoved_points(j.masks, (1 << j.space.n) - 1) == 0
    if dense != cofinal:
        raise InternalAssertionError("density and cofinality disagree")
    return {"dense": dense, "cofinal": cofinal}


def nuclear_join(sets):
    """Join of nuclear sets: the union (finite closure is the identity)."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one nuclear set")
    space = sets[0].space
    mask = 0
    for s in sets:
        if s.space != space:
            raise SpaceMismatch("nuclear sets live on different spaces")
        mask |= s.mask
    return NuclearSet._of_mask(space, mask)


def sublocale_of_nucleus(j):
    """The fixpoint set j[L], representing the sublocale, as upset masks."""
    return set(j.masks.values())


def nucleus_of_sublocale(space, fixpoints):
    """j_S(U) = meet of the members of S above U; inverse to j |-> j[L].

    ``fixpoints`` are upset masks, as :func:`sublocale_of_nucleus` gives.
    """
    fixpoints = list(fixpoints)
    full = (1 << space.n) - 1
    masks = {}
    for u in upset_masks(space):
        img = full
        for s in fixpoints:
            if u & ~s == 0:
                img &= s
        masks[u] = img
    return Nucleus(space, masks)


def all_nuclei(space):
    """Every nucleus on the frame of the space, via the nuclear-set bijection.

    Iterating over point subsets and applying nucleus_of_nuclear is a
    bijection onto all nuclei, which is far cheaper than filtering
    monotone tables.
    """
    for mask in range(1 << space.n):
        yield nucleus_of_nuclear(NuclearSet._of_mask(space, mask))
