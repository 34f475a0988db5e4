"""Symbolic engines for four countable Priestley spaces built from fans.

Each space is assembled from copies of the natural numbers ("fans"),
their one-point star blobs (the remainder of each fan's compactification
collapsed to a single indivisible class), an optional spine of bottom
points, an optional limit point omega on the spine, and an optional
top blob above omega.  Only the finite/cofinite fragment of each
region's clopen algebra is represented; that fragment is closed under
all the operations below and suffices for every analysis the engines
perform.

Families
--------
``bare_fan``
    One fan plus its star blob, trivially ordered.  Dual of the full
    powerset of the naturals: every point is maximal and minimal.

``fan_plus_bottom``
    One fan plus star, with a single isolated bottom point y below
    everything.  The localic part is the fan points plus y; y is in Y_d
    but not maximal in Y, which is exactly the regularity failure this
    family exists to exhibit.

``omega_fans``
    Countably many fans, each with a bottom spine point y_i; omega sits
    above every y_i, and the top blob sits above omega.  min Y_d is the
    spine with the cofinite topology: T1 and compact but not Hausdorff,
    even though the space has a unit (the whole space is a cofinal
    clopen Scott upset).

``chain_fans``
    Same regions as omega_fans but the spine descends: y_0 > y_1 > ...,
    each y_i below all of fan i (hence below fans 0..i once transitivity
    is applied), omega below every y_i and below the top blob, and no
    other relations.  Y_d is the fans plus the spine, an infinite
    descending chain with no minimal points, so min Y_d is empty; the
    top blob has no localic point below it, which refutes every
    candidate unit.

Representation
--------------
``_SHAPE`` declares once which regions each family has: countably many
fans or fan 0 alone, a spine carrier (empty for ``bare_fan``, y alone
for ``fan_plus_bottom``, the whole spine with omega otherwise), and the
top blob or not.  A :class:`TameSet` stores one :class:`Region` per fan
(finite support over a default), a spine region inside the carrier in
every family, and a flag for the top blob; its complement is taken
within those regions.  A region is a finite or a cofinite subset of
that region's copy of the naturals, held as one Python int ``bits``
(bit k set iff k is a member), plus a flag for the attached limit class
(the star blob for a fan, omega for the spine).  A finite set is a
non-negative int; a cofinite set is negative, ``~m`` for the mask m of
its non-members.  Meet, join and complement of regions are therefore
``&``, ``|`` and ``~``, and the fan-index sets computed by the engines
(which fans have content, which are full) use the same encoding.  Every
int has exactly one value, so canonical forms are unique: two tame sets
are semantically equal iff their canonical representations are
identical.  A canonical tame set lists its exception fans in index
order, none equal to the default, with the spine inside the carrier
and the blob only where the family has one.  :func:`make_tame`
establishes that form at the boundary, for every set built from
arbitrary fields; meet, join, complement and closure preserve it, and
build their results from canonical operands directly.  The JSON form
keeps a mode field plus the sorted exception list, and omits the spine
and the blob where the family has none.

:class:`Region`, :class:`TameSet` and :class:`SymbolicPoint` are
immutable values, declared as every value class of the package is: a
``namedtuple`` of the fields in order under the frozen, unordered
mixin :class:`~priestley.poset._Frozen`.  Fields are read by name
and, on the hot path, by index.  Building one is a single
``tuple.__new__``, and ``==``, ``!=`` and ``hash`` are the tuple's, in
C, so a tame set is hashed without rebuilding a field tuple.
``pt in u`` asks whether the tame set u holds the point, as
``u.member(pt)`` does.

Topology of a region: a finite part is clopen; a cofinite part is open
and closed only when its limit flag is set; a limit-only part is
closed, not open.  Closure therefore sets the star on cofinite fan
parts and omega on cofinite spine parts; the top blob is added when
almost every fan closes up to its star (the blob is a limit of the
fans as a whole).  Interior is the de Morgan dual.

Closed-form rules (each stated once, validated in the test suite
against the finite oracle analogues and against each family's
published facts).  A family states only its order (``strict_up``,
``strict_down``), its clopen-Scott-upset test and its sample draw;
:class:`FanEngine` derives the rest from them:

* ``core U`` is the meet of U with the stars-over-bottoms mask: fan i
  whole over a bottom y_i of U (in a clopen upset y_i forces the whole
  upset of y_i), its points alone elsewhere, the localic spine points,
  and the blob only with a localic omega in U;
* the d-core of D is the pointwise ``{x : up(x) inside D}``: up(y_i)
  is y_i, fan i, omega and the blob, and up(omega) the last two, each
  where the family has it.  ``chain_fans``, whose spine descends,
  overrides it with its own order;
* for ``omega_fans`` the clopen Scott upsets are the finite sets of fan
  points, and the upsets with cofinite spine whose trace on every fan
  with excluded bottom is finite.

The rules are index-region arithmetic, with no walk over fan indices:
``_fans_over`` spreads an index mask over the fans, and
``_fan_pred_region`` gathers the fans that pass a test into one.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import partial

from .errors import FamilyMismatch, NotRepresentable
from .poset import _bits, _Frozen, _mask

# ---------------------------------------------------------------------
# regions: finite/cofinite subsets of one copy of N, plus a limit flag
# ---------------------------------------------------------------------


class Region(_Frozen, namedtuple("Region", "bits flag")):
    """A finite or cofinite subset of one copy of N, plus a limit flag:
    bit k of ``bits`` is set iff k is a member (negative = cofinite),
    and ``flag`` is the region's limit class (star / omega)."""

    __slots__ = ()

    def __new__(cls, bits, flag=False):
        self = tuple.__new__(cls, (bits, flag))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace would skip the bits check
        return cls(*iterable)

    def __post_init__(self):
        if type(self[0]) is not int:
            raise TypeError(f"region bits must be an int, not {self[0]!r}")

    def member(self, k):
        return self[0] >> k & 1 == 1

    def has_points(self):
        return self[0] != 0

    def is_empty(self):
        bits, flag = self
        return bits == 0 and not flag

    def is_full(self):
        """All points of the region and its limit class."""
        bits, flag = self
        return bits == -1 and flag


EMPTY_REGION = Region(0)
FULL_REGION = Region(-1, True)
POINTS_REGION = Region(-1)

# family -> (multi_fan, spine_carrier, blob): countably many fans or
# fan 0 alone, the spine region the family has, and the top blob
_SHAPE = {
    "bare_fan": (False, EMPTY_REGION, False),
    "fan_plus_bottom": (False, Region(1), False),
    "omega_fans": (True, FULL_REGION, True),
    "chain_fans": (True, FULL_REGION, True),
}
FAMILIES = tuple(_SHAPE)


def _exc(r):
    """The exceptions of a region as a non-negative mask: its members
    when finite, its non-members when cofinite.  ``_bits`` of a negative
    int would never end, so every walk over a region goes through here."""
    bits = r[0]
    return ~bits if bits < 0 else bits


def region_meet(a, b):
    # an operand that already is the result is returned as it is: most
    # meets and joins in the engines leave one side unchanged
    abits, aflag = a
    bbits, bflag = b
    bits, flag = abits & bbits, aflag and bflag
    if bits == abits and flag == aflag:
        return a
    if bits == bbits and flag == bflag:
        return b
    return Region(bits, flag)


def region_join(a, b):
    abits, aflag = a
    bbits, bflag = b
    bits, flag = abits | bbits, aflag or bflag
    if bits == abits and flag == aflag:
        return a
    if bits == bbits and flag == bflag:
        return b
    return Region(bits, flag)


def region_complement(a):
    bits, flag = a
    return Region(~bits, not flag)


def region_subset(a, b):
    return region_meet(a, b) == a


# ---------------------------------------------------------------------
# symbolic points
# ---------------------------------------------------------------------


class SymbolicPoint(_Frozen, namedtuple("SymbolicPoint", "kind i k", defaults=(-1, -1))):
    """One point of a fan space, by ``kind`` ("fan" | "star" | "spine" |
    "omega" | "omega_star"): fan point k of fan i, the star of fan i,
    spine point i, omega, or the top blob; an unused index is -1."""

    __slots__ = ()

    def __repr__(self):
        kind, i, k = self
        if kind == "fan":
            return f"x({i},{k})"
        if kind == "star":
            return f"X*({i})"
        if kind == "spine":
            return f"y({i})"
        if kind == "omega":
            return "omega"
        return "X_omega*"


def fan_point(i, k):
    return SymbolicPoint("fan", i, k)


def fan_star(i):
    return SymbolicPoint("star", i)


def spine_point(i):
    return SymbolicPoint("spine", i)


OMEGA = SymbolicPoint("omega")
OMEGA_STAR = SymbolicPoint("omega_star")


# ---------------------------------------------------------------------
# tame sets
# ---------------------------------------------------------------------


class TameSet(_Frozen, namedtuple(
        "TameSet", "family fan_default fan_exc spine omega_star")):
    """Canonical symbolic subset of one catalog space: the Region of
    every fan not in ``fan_exc``, the sorted ``((i, Region), ...)`` of
    the others (every value != ``fan_default``), the ``spine`` Region
    inside the family's carrier, and whether the top blob is in."""

    __slots__ = ()

    def member(self, pt):
        kind, i, k = pt
        if kind == "fan":
            return self._fan_region(i).member(k)
        if kind == "star":
            return self._fan_region(i)[1]
        if kind == "spine":
            return self[3].member(i)
        if kind == "omega":
            return self[3][1]
        if kind == "omega_star":
            return self[4]
        raise ValueError(f"unknown point kind {kind!r}")

    __contains__ = member

    def _fan_region(self, i):
        for j, r in self[2]:
            if j == i:
                return r
        return self[1]

    def is_empty_set(self):
        return (
            self.fan_default.is_empty()
            and all(r.is_empty() for _, r in self.fan_exc)
            and self.spine.is_empty()
            and not self.omega_star
        )


def _leaves(spine, carrier):
    """Whether a spine region has a point or omega outside the carrier."""
    return spine[0] & ~carrier[0] or spine[1] > carrier[1]


def make_tame(family, fan_default=EMPTY_REGION, fan_exc=None,
              spine=EMPTY_REGION, omega_star=False):
    """Build a tame set from arbitrary fields, in canonical form.

    This is the boundary: the engines' rules, the samplers,
    ``point_set`` and the JSON reader all build through here.  It checks
    the family, the fan indices, the spine carrier and the blob, folds a
    single-fan family's exceptions into the default, sorts the
    exceptions and drops those equal to the default.  The four algebra
    operations below take canonical operands and build canonical results
    directly, without coming back through here.
    """
    if family not in _SHAPE:
        raise FamilyMismatch(f"unknown family {family!r}")
    multi_fan, carrier, blob = _SHAPE[family]
    items = ()
    if fan_exc:
        exc = dict(fan_exc)
        if not multi_fan:
            # single fan: everything lives in the default slot
            if set(exc) - {0}:
                raise NotRepresentable("single-fan family has only fan 0")
            fan_default = exc.pop(0)
        # a plain loop: a generator expression here raised peak memory by ~1 MB
        items = []
        for i in sorted(exc):
            r = exc[i]
            if r != fan_default:
                items.append((i, r))
        items = tuple(items)
        if items and items[0][0] < 0:
            raise NotRepresentable("fan indices must be non-negative")
    # meet with the carrier only when the spine leaves it: one more
    # Region per call costs the symbolic sweeps measurably
    if _leaves(spine, carrier):
        if carrier.is_empty():
            raise NotRepresentable(f"{family} has no spine")
        spine = region_meet(spine, carrier)
    if omega_star and not blob:
        raise NotRepresentable(f"{family} has no top blob")
    return TameSet(family, fan_default, items, spine, bool(omega_star))


def tame_empty(family):
    return make_tame(family)


def tame_full(family):
    return tame_complement(make_tame(family))


def _combine(a, b, rop, omega_star):
    """Meet or join of two canonical tame sets, canonical again: the
    sorted exception lists are merged, an index missing on one side
    reads that side's default, and only the entries equal to the new
    default are dropped.  rop of two in-carrier spines stays in the
    carrier, and the blob flag is whatever the caller computed from two
    valid operands, so nothing needs checking again."""
    family, da, xa, sa, _ = a
    other, db, xb, sb, _ = b
    if family != other:
        raise FamilyMismatch(f"{family} vs {other}")
    default = rop(da, db)
    na, nb = len(xa), len(xb)
    # plain loops throughout: generator expressions here grow peak memory
    items = []
    p = q = 0
    while p < na and q < nb:
        i, r = xa[p]
        j, s = xb[q]
        if i < j:
            r = rop(r, db)
            p += 1
        elif j < i:
            i, r = j, rop(da, s)
            q += 1
        else:
            r = rop(r, s)
            p += 1
            q += 1
        if r != default:
            items.append((i, r))
    # the rest of one side, or all of it when the other has no exceptions
    for i, r in xa[p:]:
        r = rop(r, db)
        if r != default:
            items.append((i, r))
    for i, r in xb[q:]:
        r = rop(da, r)
        if r != default:
            items.append((i, r))
    return TameSet(family, default, tuple(items), rop(sa, sb), omega_star)


def tame_meet(a, b):
    return _combine(a, b, region_meet, a[4] and b[4])


def tame_join(a, b):
    return _combine(a, b, region_join, a[4] or b[4])


def tame_complement(a):
    """The complement within the family's regions: the spine within its
    carrier, the blob only where the family has one.  r != d exactly
    when ~r != ~d, so the complemented exceptions need no filter."""
    family, default, exc, (sbits, sflag), omega_star = a
    _, (cbits, cflag), blob = _SHAPE[family]
    items = []
    for i, r in exc:
        items.append((i, region_complement(r)))
    return TameSet(family, region_complement(default), tuple(items),
                   Region(~sbits & cbits, cflag and not sflag),
                   blob and not omega_star)


def tame_diff(a, b):
    return tame_meet(a, tame_complement(b))


def _close_region(r):
    bits, flag = r
    if flag or bits >= 0:
        return r
    return Region(bits, True)


def tame_closure(a):
    """Add the star over cofinite fan parts, omega over a cofinite spine,
    and the top blob when almost every fan closes up to its star.  Only
    a carrier with omega holds a cofinite spine, so the closed spine
    stays in the carrier; closing can make an exception equal to the
    closed default, and only those are dropped."""
    family, default, exc, spine, omega_star = a
    default = _close_region(default)
    items = []
    for i, r in exc:
        r = _close_region(r)
        if r != default:
            items.append((i, r))
    os = omega_star or (_SHAPE[family][2] and default[1])
    return TameSet(family, default, tuple(items), _close_region(spine), os)


def _regions(a):
    regions = [a[1], a[3]]
    for _, r in a[2]:
        regions.append(r)
    return regions


def tame_is_open(a):
    # a limit class is open only with almost all of its region
    for bits, flag in _regions(a):
        if flag and bits >= 0:
            return False
    # a neighbourhood of the top blob must eventually contain almost all
    # of almost every closed fan; exception fans are finitely many and
    # do not matter
    bits, flag = a[1]
    return not a[4] or (flag and bits < 0)


def tame_is_closed(a):
    # a cofinite part is closed only with its limit class
    for bits, flag in _regions(a):
        if bits < 0 and not flag:
            return False
    # the top blob is a limit of the default fans once they close up to
    # their stars
    bits, flag = a[1]
    return not _SHAPE[a[0]][2] or a[4] or not (flag or bits < 0)


# ---------------------------------------------------------------------
# index predicates with finite support (which fans satisfy something)
# ---------------------------------------------------------------------


def _fan_indices(a):
    """The indices of a's exception fans, as a mask; its
    ``bit_length()`` is a fan that the default governs."""
    return _mask(i for i, _ in a.fan_exc)


def _fresh_index(a):
    """The index that stands for the default fans and for the cofinite
    bulk of the spine: above every fan and spine exception index, or 0
    where fan 0 is the only fan (such a spine is never cofinite)."""
    if not _SHAPE[a.family][0]:
        return 0
    return (_fan_indices(a) | _exc(a.spine)).bit_length()


def _fan_pred_region(a, pred):
    """Indices of fans whose region satisfies pred, as an index region:
    the exception fans that pass, and every other fan if the default
    passes."""
    passed = seen = 0
    for i, r in a[2]:
        seen |= 1 << i
        if pred(r):
            passed |= 1 << i
    if pred(a[1]):
        passed |= ~seen
    return Region(passed)


def _fans_over(idx, inside, outside):
    """Fan regions as (default, exceptions): inside over the fans in the
    index mask idx (negative when cofinite), outside over the others."""
    if idx < 0:
        return inside, dict.fromkeys(_bits(~idx), outside)
    return outside, dict.fromkeys(_bits(idx), inside)


# ---------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------


class FanEngine:
    """Shared machinery: Boolean algebra, topology, points, reps, the
    core and d-core rules, and the sampling loop.

    Subclasses supply the order (strict up/down), the clopen-Scott-upset
    test, one sample draw (``_draw``), and the topology class of an
    infinite min Y_d, one family each.
    """

    family = None

    def __init__(self):
        self.name = self.family
        self.full = tame_full(self.family)
        self.empty = tame_empty(self.family)
        self._localic = None
        self._yd_cache = None

    # -- Boolean / topology -------------------------------------------

    def meet(self, a, b):
        return tame_meet(a, b)

    def diff(self, a, b):
        return tame_diff(a, b)

    def closure(self, a):
        return tame_closure(a)

    def is_open(self, a):
        return tame_is_open(a)

    def is_closed(self, a):
        return tame_is_closed(a)

    def is_representable(self, a):
        return isinstance(a, TameSet) and a.family == self.family

    # -- order ----------------------------------------------------------

    def up(self, a):
        return tame_join(a, self.strict_up(a))

    def down(self, a):
        return tame_join(a, self.strict_down(a))

    def _content_region(self, a):
        """Which fans have points or star, as an index region."""
        # the tuple's own !=, in C: a region has content iff it is not empty
        return _fan_pred_region(a, EMPTY_REGION.__ne__)

    # -- points ----------------------------------------------------------

    def point_set(self, pt):
        fam = self.family
        carrier = _SHAPE[fam][1]
        if pt.kind == "fan":
            if pt.k < 0:
                raise NotRepresentable(f"{pt!r}: point indices must be non-negative")
            return make_tame(fam, fan_exc={pt.i: Region(1 << pt.k)})
        if pt.kind == "star":
            return make_tame(fam, fan_exc={pt.i: Region(0, True)})
        if pt.kind == "spine":
            if pt.i < 0 or not carrier.member(pt.i):
                raise NotRepresentable(f"{fam} has no spine point {pt.i}")
            return make_tame(fam, spine=Region(1 << pt.i))
        if pt.kind == "omega":
            if not carrier.flag:
                raise NotRepresentable(f"{fam} has no omega point")
            return make_tame(fam, spine=Region(0, True))
        if pt.kind == "omega_star":
            return make_tame(fam, omega_star=True)
        raise ValueError(f"unknown point kind {pt.kind!r}")

    def member_reps(self, a):
        """Deterministic representative points covering every piece of a.

        Within one region the points outside the exception set behave
        identically, so one fresh representative stands for the bulk;
        the same convention covers the fans governed by the default.
        """
        reps = []
        fresh_i = _fresh_index(a)

        def region_reps(i, r):
            if r.bits < 0:
                out = [fan_point(i, _exc(r).bit_length())]
            else:
                out = [fan_point(i, k) for k in _bits(r.bits)]
            if r.flag:
                out.append(fan_star(i))
            return out

        for i, r in a.fan_exc:
            reps.extend(region_reps(i, r))
        if not a.fan_default.is_empty():
            reps.extend(region_reps(fresh_i, a.fan_default))
        if a.spine.bits < 0:
            reps.append(spine_point(fresh_i))
        else:
            reps.extend(map(spine_point, _bits(a.spine.bits)))
        if a.spine.flag:
            reps.append(OMEGA)
        if a.omega_star:
            reps.append(OMEGA_STAR)
        return reps

    def select(self, a, pred):
        """Subset of a whose pieces pass pred.

        Assumes pred is uniform across the bulk of each region and
        across default fans; used only with predicates built from
        exception-free structural sets (the localic part, max X).
        """
        fresh_i = _fresh_index(a)

        def kept(bits, point, fresh):
            # a cofinite bulk passes or fails as a whole, at one fresh point
            if bits < 0:
                return bits if pred(point(fresh)) else 0
            return _mask(k for k in _bits(bits) if pred(point(k)))

        def filter_region(i, r):
            pts = kept(r.bits, partial(fan_point, i), _exc(r).bit_length())
            return Region(pts, r.flag and pred(fan_star(i)))

        exc = {i: filter_region(i, r) for i, r in a.fan_exc}
        default = EMPTY_REGION
        if not a.fan_default.is_empty():
            default = filter_region(fresh_i, a.fan_default)
        pts = kept(a.spine.bits, spine_point, fresh_i)
        spine = Region(pts, a.spine.flag and pred(OMEGA))
        os = a.omega_star and pred(OMEGA_STAR)
        return make_tame(self.family, default, exc, spine, os)

    # -- localic part ----------------------------------------------------

    def localic_part(self):
        """Points with clopen principal downset, assembled per class type.

        Star and top blobs are never localic: their individual points
        are non-isolated limit points, so their principal downsets are
        closed but not open.  The singleton classes are tested directly.
        """
        if self._localic is not None:
            return self._localic

        def clopen_down(pt):
            d = self.down(self.point_set(pt))
            return tame_is_open(d) and tame_is_closed(d)

        fan_ok = clopen_down(fan_point(0, 0))
        default = POINTS_REGION if fan_ok else EMPTY_REGION
        carrier = _SHAPE[self.family][1]
        spine = EMPTY_REGION
        if carrier.has_points():
            spine_ok = clopen_down(spine_point(0))
            spine = Region(carrier.bits if spine_ok else 0,
                           carrier.flag and clopen_down(OMEGA))
        self._localic = make_tame(self.family, default, spine=spine)
        return self._localic

    # -- rules derived from the order ------------------------------------

    def core(self, u):
        """The meet of u with the stars-over-bottoms mask."""
        L = self.localic_part()
        stars = make_tame(
            self.family, *_fans_over(u.spine.bits, FULL_REGION, POINTS_REGION),
            spine=L.spine, omega_star=u.spine.flag and L.spine.flag,
        )
        return tame_meet(u, stars)

    def points_with_up_inside(self, d):
        """``{x : up(x) inside d}`` with each bottom under its own fan."""
        full = self.full
        omega = d.spine.flag == full.spine.flag and d.omega_star == full.omega_star
        # only the spine can shrink: y_i stays when fan i is whole in d
        ups_ok = 0
        if omega and d.spine.bits:
            ups_ok = _fan_pred_region(d, Region.is_full).bits
        spine = region_meet(d.spine, Region(ups_ok, omega))
        if spine == d.spine:
            return d
        return tame_meet(d, make_tame(self.family, FULL_REGION, spine=spine,
                                      omega_star=full.omega_star))

    # -- sampling --------------------------------------------------------

    def sample_clopen_upsets(self, count, seed=0):
        """``count`` clopen upsets, the same for the same seed: the empty
        and the full set, then the family's draws from one generator."""
        rng = random.Random(seed)
        out = [self.empty, self.full]
        while len(out) < count:
            out.append(self._draw(rng))
        return out[:count]

    # -- rendering -------------------------------------------------------

    def is_finite_set(self, a):
        if a.fan_default.bits < 0 or any(r.bits < 0 for _, r in a.fan_exc):
            return False
        if _SHAPE[self.family][0] and not a.fan_default.is_empty():
            return False
        return a.spine.bits >= 0

    def describe_set(self, a):
        if a.is_empty_set():
            return "(empty)"

        def region_str(r, limit_name):
            parts = []
            exc = "{" + ",".join(map(str, _bits(_exc(r)))) + "}"
            if r.bits == -1:
                parts.append("all points")
            elif r.bits < 0:
                parts.append("all points except " + exc)
            elif r.bits:
                parts.append("points " + exc)
            if r.flag:
                parts.append(limit_name)
            return " + ".join(parts) if parts else "nothing"

        multi_fan, carrier, _ = _SHAPE[self.family]
        bits = []
        if not a.fan_default.is_empty():
            scope = "every other fan" if a.fan_exc else (
                "every fan" if multi_fan else "fan 0"
            )
            bits.append(f"{scope}: {region_str(a.fan_default, 'star')}")
        for i, r in a.fan_exc:
            if not r.is_empty():
                bits.append(f"fan {i}: {region_str(r, 'star')}")
        if not a.spine.is_empty():
            # a one-point carrier is the bottom point y
            name = "y" if carrier.bits == 1 else "spine"
            bits.append(f"{name}: {region_str(a.spine, 'omega')}")
        if a.omega_star:
            bits.append("top blob")
        return "; ".join(bits)

    def describe_family(self, descriptions):
        return " | ".join(
            f"complement of the downset of each min Y_d class, e.g. {d}"
            for d in descriptions
        )


class BareFanEngine(FanEngine):
    """Trivially ordered fan plus star: the dual of the full powerset.
    Order closures are identities."""

    family = "bare_fan"
    infinite_min_yd_class = "discrete"

    def strict_up(self, a):
        return self.empty

    def strict_down(self, a):
        return self.empty

    def clop_sup_test(self, u):
        return u.fan_default.bits >= 0 and not u.fan_default.flag

    def _draw(self, rng):
        if rng.random() < 0.5:
            r = Region(_mask(rng.sample(range(12), rng.randint(0, 4))))
        else:
            r = Region(~_mask(rng.sample(range(12), rng.randint(0, 4))), True)
        return make_tame(self.family, r)


class FanPlusBottomEngine(FanEngine):
    """One fan with an isolated bottom point y below every other point."""

    family = "fan_plus_bottom"
    infinite_min_yd_class = None  # min Y_d = {y}

    def strict_up(self, a):
        if a.spine.member(0):
            # everything except y itself
            return make_tame(self.family, FULL_REGION)
        return self.empty

    def strict_down(self, a):
        content = a.fan_default.has_points() or a.fan_default.flag
        if content:
            return make_tame(self.family, spine=Region(1))
        return self.empty

    def clop_sup_test(self, u):
        if u.spine.member(0):
            return u == self.full
        return BareFanEngine.clop_sup_test(self, u)

    _draw = BareFanEngine._draw


class OmegaFansEngine(FanEngine):
    """Countably many fans over a spine compactified by omega, topped by
    the blob above omega.

    Order: y_i below fan i and its star; every y_i below omega; omega
    below the blob.
    """

    family = "omega_fans"
    # a clopen upset containing any bottom point has cofinite spine,
    # so the realizable traces on min Y_d are the empty and the
    # cofinite ones: the cofinite topology on the spine
    infinite_min_yd_class = "cofinite"

    def strict_down(self, a):
        spine_pts = self._content_region(a)
        if a.spine.flag or a.omega_star:
            spine_pts = region_join(spine_pts, POINTS_REGION)
        return make_tame(self.family, spine=Region(spine_pts.bits, a.omega_star))

    def strict_up(self, a):
        s = a.spine
        any_member = s.has_points()
        # the fans over the spine's members are full, the others empty
        return make_tame(
            self.family, *_fans_over(s.bits, FULL_REGION, EMPTY_REGION),
            spine=Region(0, any_member), omega_star=any_member or s.flag,
        )

    def clop_sup_test(self, u):
        """Finite set of fan points, or cofinite spine with finite fan
        traces wherever the bottom point is excluded."""
        spine = u.spine
        cofinite = spine.bits < 0 and spine.flag
        if not cofinite and (u.omega_star or not spine.is_empty()):
            return False
        # the fans over the excluded bottoms: each finite without its
        # star, and almost all empty when there is no spine at all
        out = ~spine.bits
        wild = _fan_pred_region(u, lambda r: r.bits < 0 or r.flag).bits
        return out & wild == 0 and (out >= 0 or u.fan_default.is_empty())

    def _draw(self, rng):
        def clopen_region(full_ok=True):
            if full_ok and rng.random() < 0.35:
                return FULL_REGION
            if rng.random() < 0.6:
                return Region(_mask(rng.sample(range(9), rng.randint(0, 3))))
            return Region(~_mask(rng.sample(range(9), rng.randint(0, 3))), True)

        style = rng.random()
        if style < 0.3:
            # finite sets of fan points
            exc = {
                i: Region(_mask(rng.sample(range(8), rng.randint(1, 3))))
                for i in rng.sample(range(6), rng.randint(1, 3))
            }
            return make_tame(self.family, EMPTY_REGION, exc)
        if style < 0.75:
            # cofinite spine: excluded bottoms get clopen traces,
            # everything else is forced full by the upset condition
            excluded = _mask(rng.sample(range(6), rng.randint(0, 3)))
            exc = {i: clopen_region(full_ok=False) for i in _bits(excluded)}
            return make_tame(
                self.family, FULL_REGION, exc,
                spine=Region(~excluded, True), omega_star=True,
            )
        # full fans only, no spine, with the blob
        exc = {
            i: clopen_region() for i in rng.sample(range(6), rng.randint(0, 2))
        }
        return make_tame(self.family, FULL_REGION, exc, omega_star=True)


class ChainFansEngine(FanEngine):
    """Fans over a strictly descending spine with omega at the very
    bottom, blob above omega only.

    Order: y_{i+1} < y_i; y_i below fans/stars 0..i; omega below every
    point; the blob above omega and nothing else.  The reconstruction
    reproduces the published facts for this space: the localic part is
    the fans plus the spine without omega, min Y_d is empty, the blob
    has no localic point below it, and N_d fails to be d-initial.
    """

    family = "chain_fans"
    infinite_min_yd_class = None  # min Y_d is empty

    def strict_down(self, a):
        content = self._content_region(a).bits
        spine = a.spine.bits
        # -(b & -b) is every index from b's lowest member up (0 when b
        # is empty): fan i lies above y_j for j >= i, y_i above y_j for j > i
        pts = -(content & -content) | (-(spine & -spine) << 1)
        any_member = content != 0 or spine != 0 or a.omega_star
        return make_tame(self.family, spine=Region(pts, any_member))

    def strict_up(self, a):
        s = a.spine
        # fans 0..m and y_0..y_{m-1} lie above y_m; unbounded members
        # put every fan and spine point above, omega the blob too
        heads = -1 if s.flag or s.bits < 0 else (1 << s.bits.bit_length()) - 1
        return make_tame(
            self.family, *_fans_over(heads, FULL_REGION, EMPTY_REGION),
            spine=Region(heads >> 1), omega_star=s.flag,
        )

    def points_with_up_inside(self, d):
        # up(y_i) is y_0..y_i and fans 0..i: the initial run of the
        # indices with y_i in d and fan i whole; up(omega) is everything
        ok = d.spine.bits & _fan_pred_region(d, Region.is_full).bits
        spine = Region(ok & ~(ok + 1), d == self.full)  # ok's trailing ones
        mask = make_tame(self.family, FULL_REGION, spine=spine, omega_star=True)
        return tame_meet(d, mask)

    def clop_sup_test(self, u):
        if u.spine.flag or u.omega_star:
            return False
        stars = _fan_pred_region(u, lambda r: r.flag)
        # every star needs its bottom point inside u
        return region_subset(stars, Region(u.spine.bits))

    def _draw(self, rng):
        def clopen_region():
            if rng.random() < 0.5:
                return Region(_mask(rng.sample(range(9), rng.randint(0, 3))))
            return Region(~_mask(rng.sample(range(9), rng.randint(0, 3))), True)

        style = rng.random()
        if 0.45 <= style < 0.8:
            # no spine at all: arbitrary clopen fan regions, maybe blob
            os = rng.random() < 0.5
            default = FULL_REGION if os else EMPTY_REGION
            exc = {
                i: clopen_region() for i in rng.sample(range(6), rng.randint(0, 3))
            }
            return make_tame(self.family, default, exc, omega_star=os)
        # spine head 0..m with fans up to m full and the rest clopen;
        # with the blob, which needs almost all fans full, m stops at 3
        blob = style >= 0.8
        m = rng.randint(0, 3 if blob else 4)
        exc = {i: FULL_REGION for i in range(m + 1)}
        for i in range(m + 1, m + 1 + rng.randint(0, 2)):
            exc[i] = clopen_region()
        return make_tame(
            self.family, FULL_REGION if blob else EMPTY_REGION, exc,
            spine=Region((1 << (m + 1)) - 1), omega_star=blob,
        )


_ENGINES = {
    cls.family: cls
    for cls in (BareFanEngine, FanPlusBottomEngine, OmegaFansEngine, ChainFansEngine)
}


def engine_for(family):
    """A fresh engine for the named family."""
    if family not in _ENGINES:
        raise FamilyMismatch(f"unknown family {family!r}")
    return _ENGINES[family]()


# ---------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------


def _region_to_json(r, limit_key):
    mode = "cofin" if r.bits < 0 else "fin"
    return {"mode": mode, "set": list(_bits(_exc(r))), limit_key: r.flag}


def tame_to_json(a):
    _, carrier, blob = _SHAPE[a.family]
    default = a.fan_default
    if default == EMPTY_REGION:
        default_json = "empty"
    elif default == FULL_REGION:
        default_json = "full"
    else:
        default_json = _region_to_json(default, "star")
    out = {"fans": {
        "default": default_json,
        "exceptions": {str(i): _region_to_json(r, "star") for i, r in a.fan_exc},
    }}
    if not carrier.is_empty():
        out["spine"] = _region_to_json(a.spine, "omega")
    if blob:
        out["omega_star"] = a.omega_star
    return out
