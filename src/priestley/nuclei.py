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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    InternalAssertionError,
    NotIdempotent,
    NotInflationary,
    NotMeetPreserving,
    SpaceMismatch,
)
from .poset import FinitePoset, _bits, enumerate_upsets, extrema, order_closure


class Nucleus:
    """A validated nucleus table on the upset frame of a finite space."""

    __slots__ = ("space", "table")

    def __init__(self, space, table):
        upsets = enumerate_upsets(space)
        table = {frozenset(k): frozenset(v) for k, v in table.items()}
        if set(table) != set(upsets):
            raise ValueError("table must be total on the upsets of the space")
        for u in upsets:
            if not space.is_upset(table[u]):
                raise ValueError(f"image of {sorted(u)} is not an upset")
        for u in upsets:
            if not u <= table[u]:
                raise NotInflationary(u)
        for u in upsets:
            if table[table[u]] != table[u]:
                raise NotIdempotent(u)
        for u, v in combinations(upsets, 2):
            if table[u & v] != table[u] & table[v]:
                raise NotMeetPreserving(u, v)
        self.space = space
        self.table = table

    def __call__(self, u):
        return self.table[frozenset(u)]

    def __eq__(self, other):
        return (
            isinstance(other, Nucleus)
            and self.space == other.space
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.table.items(),
                                              key=lambda kv: (len(kv[0]), sorted(kv[0]))))))

    def leq(self, other):
        """Pointwise order on nuclei: self(U) contained in other(U) for all U."""
        return all(self.table[u] <= other.table[u] for u in self.table)

    @classmethod
    def identity(cls, space):
        return cls(space, {u: u for u in enumerate_upsets(space)})

    @classmethod
    def constant_top(cls, space):
        full = frozenset(range(space.n))
        return cls(space, {u: full for u in enumerate_upsets(space)})


@dataclass(frozen=True)
class NuclearSet:
    """A point subset of a finite space, in its role as a nuclear set.

    Every subset of a finite Priestley space is nuclear: all subsets are
    closed and down(U & N) is clopen; ``sanity_check`` asserts exactly
    that definition once.
    """

    space: FinitePoset
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        self.space._check_points(self.members)

    def sanity_check(self):
        for u in enumerate_upsets(self.space):
            order_closure(self.space, u & self.members, "down")
        return True


def validate_nucleus(space, raw_table):
    """Table in, Nucleus out; errors carry the first violating upset(s)."""
    return Nucleus(space, raw_table)


def nuclear_of_nucleus(j):
    """N_j: the points that cannot tell jU from U."""
    upsets = enumerate_upsets(j.space)
    members = frozenset(
        x for x in range(j.space.n)
        if all(x in u for u in upsets if x in j.table[u])
    )
    return NuclearSet(j.space, members)


def nucleus_of_nuclear(N):
    """j_N U = X \\ down(N \\ U); always passes validation."""
    space = N.space
    full = frozenset(range(space.n))
    table = {
        u: full - order_closure(space, N.members - u, "down")
        for u in enumerate_upsets(space)
    }
    return Nucleus(space, table)


def admissible_upset(j):
    """The intersection of the j-dense upsets; equals up(N_j).

    An upset U is j-dense when jU is the whole space.  The returned set
    is asserted against the up-closure of the nuclear set.
    """
    space = j.space
    full = frozenset(range(space.n))
    h = full
    for u in enumerate_upsets(space):
        if j.table[u] == full:
            h &= u
    expected = order_closure(space, nuclear_of_nucleus(j).members, "up")
    if h != expected:
        raise InternalAssertionError("admissible upset differs from up(N_j)")
    return h


def double_negation(space):
    """The nucleus U |-> U**; its nuclear set is max X."""
    from .birkhoff import pseudocomplement_set

    table = {
        u: pseudocomplement_set(space, pseudocomplement_set(space, u))
        for u in enumerate_upsets(space)
    }
    j = Nucleus(space, table)
    full = frozenset(range(space.n))
    if nuclear_of_nucleus(j).members != extrema(space, full, "max"):
        raise InternalAssertionError("double negation nuclear set is not max X")
    return j


def booleanization(space):
    """Fixpoints of double negation, with the sublocale laws asserted."""
    from .birkhoff import implies_set

    j = double_negation(space)
    fix = [u for u in enumerate_upsets(space) if j.table[u] == u]
    fixset = set(fix)
    # closed under arbitrary meets: in a finite frame meets are
    # intersections, so binary closure plus the empty meet (the top)
    # already gives closure under all of them
    full = frozenset(range(space.n))
    if full not in fixset:
        raise InternalAssertionError("the top is not a fixpoint")
    for u, v in combinations(fix, 2):
        if u & v not in fixset:
            raise InternalAssertionError("fixpoints not closed under meets")
    # a -> s stays a fixpoint for every upset a
    for a in enumerate_upsets(space):
        for s in fix:
            if implies_set(space, a, s) not in fixset:
                raise InternalAssertionError(
                    "fixpoints not closed under Heyting implication"
                )
    return fix


def density_check(j):
    """dense: j(empty) = empty; cofinal: max X inside N_j; always equal."""
    space = j.space
    full = frozenset(range(space.n))
    dense = j.table[frozenset()] == frozenset()
    cofinal = extrema(space, full, "max") <= nuclear_of_nucleus(j).members
    if dense != cofinal:
        raise InternalAssertionError("density and cofinality disagree")
    return {"dense": dense, "cofinal": cofinal}


def nuclear_join(sets):
    """Join of nuclear sets: the union (finite closure is the identity)."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one nuclear set")
    space = sets[0].space
    members = set()
    for s in sets:
        if s.space != space:
            raise SpaceMismatch("nuclear sets live on different spaces")
        members |= s.members
    return NuclearSet(space, frozenset(members))


def sublocale_of_nucleus(j):
    """The fixpoint set j[L], representing the sublocale."""
    return frozenset(j.table[u] for u in j.table)


def nucleus_of_sublocale(space, fixpoints):
    """j_S(U) = meet of the members of S above U; inverse to j |-> j[L]."""
    fixpoints = [frozenset(s) for s in fixpoints]
    full = frozenset(range(space.n))
    table = {}
    for u in enumerate_upsets(space):
        img = full
        for s in fixpoints:
            if u <= s:
                img &= s
        table[u] = img
    return Nucleus(space, table)


def all_nuclei(space):
    """Every nucleus on the frame of the space, via the nuclear-set bijection.

    Iterating over point subsets and applying nucleus_of_nuclear is a
    bijection onto all nuclei, which is far cheaper than filtering
    monotone tables.
    """
    for bits in range(1 << space.n):
        members = frozenset(_bits(bits))
        yield nucleus_of_nuclear(NuclearSet(space, members))


# -- JSON interchange ---------------------------------------------------


def nucleus_to_json(j):
    def render(u):
        return sorted(j.space.labels[i] for i in u)

    return [[render(u), render(j.table[u])]
            for u in enumerate_upsets(j.space)]


def nucleus_from_json(space, obj):
    table = {}
    for pair in obj:
        u = frozenset(space.index(lab) for lab in pair[0])
        v = frozenset(space.index(lab) for lab in pair[1])
        table[u] = v
    return validate_nucleus(space, table)
