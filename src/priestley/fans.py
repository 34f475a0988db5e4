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
A :class:`TameSet` stores one :class:`Region` per fan (finite support
over a default), a spine region, and a flag for the top blob.  A region
is a finite or a cofinite subset of that region's copy of the naturals,
held as one Python int ``bits`` (bit k set iff k is a member), plus a
flag for the attached limit class (the star blob for a fan, omega for
the spine).  A finite set is a non-negative int; a cofinite set is
negative, ``~m`` for the mask m of its non-members.  Meet, join and
complement of regions are therefore ``&``, ``|`` and ``~``, and the
fan-index sets computed by the engines (which fans have content, which
are full) use the same encoding.  Every int has exactly one value, so
canonical forms are unique: two tame sets are semantically equal iff
their canonical representations are identical.  The JSON form keeps a
mode field plus the sorted exception list.

Topology of a region: a finite part is clopen; a cofinite part is open
and closed only when its limit flag is set; a limit-only part is
closed, not open.  Closure therefore sets the star on cofinite fan
parts and omega on cofinite spine parts; the top blob is added when
almost every fan closes up to its star (the blob is a limit of the
fans as a whole).  Interior is the de Morgan dual.

Closed-form rules (derived once, validated in the test suite against
the finite oracle analogues and against each family's published facts):

* clopen Scott upsets of ``omega_fans`` are the finite sets of fan
  points, and the upsets with cofinite spine whose trace on every fan
  with excluded bottom is finite;
* ``core U`` keeps the fan points of U, keeps star i and spine point i
  exactly when the whole upset of spine point i lies inside U, and
  keeps omega / the top blob when the spine of U is cofinite with the
  matching flags (conditions that are automatic for clopen upsets once
  the relevant bottom point is present);
* membership of the d-core is the pointwise criterion
  ``up(x) inside down(core U)``, evaluated region by region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .errors import FamilyMismatch, NotRepresentable
from .poset import _bits, _mask

FAMILIES = ("bare_fan", "fan_plus_bottom", "omega_fans", "chain_fans")

_MULTI_FAN = {"omega_fans", "chain_fans"}
_HAS_SPINE = {"fan_plus_bottom", "omega_fans", "chain_fans"}
_HAS_OMEGA = {"omega_fans", "chain_fans"}       # spine limit point
_HAS_OMEGA_STAR = {"omega_fans", "chain_fans"}  # top blob


# ---------------------------------------------------------------------
# regions: finite/cofinite subsets of one copy of N, plus a limit flag
# ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Region:
    bits: int            # bit k set iff k is a member; negative = cofinite
    flag: bool = False   # the region's limit class (star / omega)

    def __post_init__(self):
        if type(self.bits) is not int:
            raise TypeError(f"region bits must be an int, not {self.bits!r}")

    def member(self, k):
        return self.bits >> k & 1 == 1

    def has_points(self):
        return self.bits != 0

    def is_empty(self):
        return self.bits == 0 and not self.flag

    def is_full(self):
        """All points of the region and its limit class."""
        return self.bits == -1 and self.flag


EMPTY_REGION = Region(0)
FULL_REGION = Region(-1, True)
POINTS_REGION = Region(-1)


def _exc(r):
    """The exceptions of a region as a non-negative mask: its members
    when finite, its non-members when cofinite.  ``_bits`` of a negative
    int would never end, so every walk over a region goes through here."""
    return ~r.bits if r.bits < 0 else r.bits


def region_meet(a, b):
    return Region(a.bits & b.bits, a.flag and b.flag)


def region_join(a, b):
    return Region(a.bits | b.bits, a.flag or b.flag)


def region_complement(a):
    return Region(~a.bits, not a.flag)


def region_subset(a, b):
    return region_meet(a, b) == a


# ---------------------------------------------------------------------
# symbolic points
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicPoint:
    kind: str  # "fan" | "star" | "spine" | "omega" | "omega_star"
    i: int = -1
    k: int = -1

    def __repr__(self):
        if self.kind == "fan":
            return f"x({self.i},{self.k})"
        if self.kind == "star":
            return f"X*({self.i})"
        if self.kind == "spine":
            return f"y({self.i})"
        if self.kind == "omega":
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


@dataclass(frozen=True, slots=True)
class TameSet:
    """Canonical symbolic subset of one catalog space."""

    family: str
    fan_default: Region
    fan_exc: tuple  # sorted ((i, Region), ...), every value != fan_default
    spine: Region | None
    omega_star: bool

    def member(self, pt):
        if pt.kind == "fan":
            return self._fan_region(pt.i).member(pt.k)
        if pt.kind == "star":
            return self._fan_region(pt.i).flag
        if pt.kind == "spine":
            return self.spine is not None and self.spine.member(pt.i)
        if pt.kind == "omega":
            return self.spine is not None and self.spine.flag
        if pt.kind == "omega_star":
            return self.omega_star
        raise ValueError(f"unknown point kind {pt.kind!r}")

    def _fan_region(self, i):
        for j, r in self.fan_exc:
            if j == i:
                return r
        return self.fan_default

    def is_empty_set(self):
        return (
            self.fan_default.is_empty()
            and all(r.is_empty() for _, r in self.fan_exc)
            and (self.spine is None or self.spine.is_empty())
            and not self.omega_star
        )


def make_tame(family, fan_default=EMPTY_REGION, fan_exc=None, spine=None,
              omega_star=False):
    """Canonicalizing constructor; the only sanctioned way to build one."""
    if family not in FAMILIES:
        raise FamilyMismatch(f"unknown family {family!r}")
    exc = dict(fan_exc or {})
    if family not in _MULTI_FAN:
        # single fan: everything lives in the default slot
        if exc:
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
    if family in _HAS_SPINE:
        if spine is None:
            spine = EMPTY_REGION
        if family == "fan_plus_bottom":
            # one spine point, no limit: normalize to a finite region
            spine = Region(spine.bits & 1)
    else:
        if spine is not None and not spine.is_empty():
            raise NotRepresentable(f"{family} has no spine")
        spine = None
    if omega_star and family not in _HAS_OMEGA_STAR:
        raise NotRepresentable(f"{family} has no top blob")
    return TameSet(family, fan_default, items, spine, bool(omega_star))


def tame_empty(family):
    return make_tame(family)


def tame_full(family):
    spine = None
    if family == "fan_plus_bottom":
        spine = Region(1)
    elif family in _HAS_OMEGA:
        spine = FULL_REGION
    return make_tame(
        family,
        fan_default=FULL_REGION,
        spine=spine,
        omega_star=family in _HAS_OMEGA_STAR,
    )


def _combine(a, b, rop, osop):
    if a.family != b.family:
        raise FamilyMismatch(f"{a.family} vs {b.family}")
    da, db = a.fan_default, b.fan_default
    default = rop(da, db)
    ea, eb = dict(a.fan_exc), dict(b.fan_exc)
    exc = {i: rop(ea.get(i, da), eb.get(i, db)) for i in ea.keys() | eb.keys()}
    spine = None
    if a.spine is not None:
        spine = rop(a.spine, b.spine)
    os = osop(a.omega_star, b.omega_star)
    return make_tame(a.family, default, exc, spine, os)


def tame_meet(a, b):
    return _combine(a, b, region_meet, lambda x, y: x and y)


def tame_join(a, b):
    return _combine(a, b, region_join, lambda x, y: x or y)


def tame_complement(a):
    default = region_complement(a.fan_default)
    exc = {i: region_complement(r) for i, r in a.fan_exc}
    spine = region_complement(a.spine) if a.spine is not None else None
    os = not a.omega_star if a.family in _HAS_OMEGA_STAR else False
    return make_tame(a.family, default, exc, spine, os)


def tame_diff(a, b):
    return tame_meet(a, tame_complement(b))


def tame_closure(a):
    """Add the star over cofinite fan parts, omega over a cofinite spine,
    and the top blob when almost every fan closes up to its star."""
    def close_region(r):
        return Region(r.bits, r.flag or r.bits < 0)

    default = close_region(a.fan_default)
    exc = {i: close_region(r) for i, r in a.fan_exc}
    spine = a.spine
    if spine is not None and a.family in _HAS_OMEGA:
        spine = close_region(spine)
    os = a.omega_star
    if a.family in _HAS_OMEGA_STAR and default.flag:
        os = True
    return make_tame(a.family, default, exc, spine, os)


def tame_is_open(a):
    def region_open(r):
        return not (r.flag and r.bits >= 0)

    if not region_open(a.fan_default):
        return False
    if not all(region_open(r) for _, r in a.fan_exc):
        return False
    if a.spine is not None and a.family in _HAS_OMEGA:
        if not region_open(a.spine):
            return False
    if a.omega_star:
        # a neighbourhood of the top blob must eventually contain
        # almost all of almost every closed fan; exception fans are
        # finitely many and do not matter
        if not (a.fan_default.flag and a.fan_default.bits < 0):
            return False
    return True


def tame_is_closed(a):
    def region_closed(r):
        return r.bits >= 0 or r.flag

    if not region_closed(a.fan_default):
        return False
    if not all(region_closed(r) for _, r in a.fan_exc):
        return False
    if a.spine is not None and a.family in _HAS_OMEGA:
        if not region_closed(a.spine):
            return False
    if a.family in _HAS_OMEGA_STAR and not a.omega_star:
        # the top blob is a limit of the default fans once they close
        # up to their stars
        if a.fan_default.flag or a.fan_default.bits < 0:
            return False
    return True


# ---------------------------------------------------------------------
# index predicates with finite support (which fans satisfy something)
# ---------------------------------------------------------------------


def _fan_indices(a):
    """The indices of a's exception fans, as a mask; its
    ``bit_length()`` is a fan that the default governs."""
    return _mask(i for i, _ in a.fan_exc)


def _fresh_index(a):
    """The index that stands for the default fans and for the cofinite
    bulk of the spine: above every fan and spine exception index."""
    spine_exc = _exc(a.spine) if a.spine is not None else 0
    return (_fan_indices(a) | spine_exc).bit_length()


def _fan_pred_region(a, pred):
    """Indices of fans whose region satisfies pred, as an index region:
    the exception fans that pass, and every other fan if the default
    passes."""
    passed = _mask(i for i, r in a.fan_exc if pred(r))
    if pred(a.fan_default):
        passed |= ~_fan_indices(a)
    return Region(passed)


def _stars_over_bottoms(u):
    """The fan regions of u with star i kept only over a bottom point
    y_i of u, as (default, exceptions): the star rule of the spine
    families' cores."""
    spine = u.spine
    fans = dict(u.fan_exc)

    def keep(i, r):
        if not r.flag or spine.member(i):
            return r
        return Region(r.bits)

    d = u.fan_default
    exc = {i: keep(i, fans.get(i, d)) for i in fans.keys() | _bits(_exc(spine))}
    if d.flag and spine.bits >= 0:
        d = Region(d.bits)
    return d, exc


# ---------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------


class FanEngine:
    """Shared machinery: Boolean algebra, topology, points, reps.

    Subclasses supply the order (strict up/down), the core rule, the
    pointwise d-core rule, the clopen-Scott-upset test, sampling, and
    the closed-form topology verdicts (class attributes), one family
    each.
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
        return _fan_pred_region(a, lambda r: r.has_points() or r.flag)

    # -- points ----------------------------------------------------------

    def point_set(self, pt):
        fam = self.family
        if pt.kind in ("fan", "star") and fam not in _MULTI_FAN and pt.i != 0:
            raise NotRepresentable("single-fan family has only fan 0")
        if pt.kind == "fan":
            return make_tame(fam, fan_exc={pt.i: Region(1 << pt.k)})
        if pt.kind == "star":
            return make_tame(fam, fan_exc={pt.i: Region(0, True)})
        if pt.kind == "spine":
            if fam not in _HAS_SPINE:
                raise NotRepresentable(f"{fam} has no spine")
            return make_tame(fam, spine=Region(1 << pt.i))
        if pt.kind == "omega":
            if fam not in _HAS_OMEGA:
                raise NotRepresentable(f"{fam} has no omega point")
            return make_tame(fam, spine=Region(0, True))
        if pt.kind == "omega_star":
            if fam not in _HAS_OMEGA_STAR:
                raise NotRepresentable(f"{fam} has no top blob")
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
            i = fresh_i if self.family in _MULTI_FAN else 0
            reps.extend(region_reps(i, a.fan_default))
        if a.spine is not None:
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
            i = fresh_i if self.family in _MULTI_FAN else 0
            default = filter_region(i, a.fan_default)
        spine = None
        if a.spine is not None:
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
        spine = None
        if self.family == "fan_plus_bottom":
            spine = Region(1 if clopen_down(spine_point(0)) else 0)
        elif self.family in _HAS_OMEGA:
            spine_ok = clopen_down(spine_point(0))
            spine = Region(-1 if spine_ok else 0, clopen_down(OMEGA))
        self._localic = make_tame(self.family, default, spine=spine)
        return self._localic

    # -- hooks ----------------------------------------------------------

    # never called: benchmarks/tracing.py finds the engine classes by it
    def sample_clopen_upsets(self, count, seed=0):  # pragma: no cover
        raise NotImplementedError

    # -- rendering -------------------------------------------------------

    def is_finite_set(self, a):
        if a.fan_default.bits < 0 or any(r.bits < 0 for _, r in a.fan_exc):
            return False
        if self.family in _MULTI_FAN and not a.fan_default.is_empty():
            return False
        if a.spine is not None and a.spine.bits < 0:
            return False
        return True

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

        bits = []
        if not a.fan_default.is_empty():
            scope = "every other fan" if a.fan_exc else (
                "every fan" if self.family in _MULTI_FAN else "fan 0"
            )
            bits.append(f"{scope}: {region_str(a.fan_default, 'star')}")
        for i, r in a.fan_exc:
            if not r.is_empty():
                bits.append(f"fan {i}: {region_str(r, 'star')}")
        if a.spine is not None and not a.spine.is_empty():
            name = "y" if self.family == "fan_plus_bottom" else "spine"
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

    Order closures are identities, the core of a clopen upset strips the
    star (the star blob is never inside a Scott upset: its points are
    minimal but not localic), and d fixes every clopen upset.
    """

    family = "bare_fan"
    infinite_min_yd_class = "discrete"
    # an infinite discrete space
    min_yd_space_flags = {"locally_compact": True, "sober": True, "coherent": True}

    def strict_up(self, a):
        return self.empty

    def strict_down(self, a):
        return self.empty

    def core(self, u):
        return make_tame(self.family, Region(u.fan_default.bits))

    def points_with_up_inside(self, d):
        # identity order: up(x) = {x} for every class
        return d

    def clop_sup_test(self, u):
        return u.fan_default.bits >= 0 and not u.fan_default.flag

    def sample_clopen_upsets(self, count, seed=0):
        rng = random.Random(seed)
        out = [self.empty, self.full]
        while len(out) < count:
            if rng.random() < 0.5:
                r = Region(_mask(rng.sample(range(12), rng.randint(0, 4))))
            else:
                r = Region(~_mask(rng.sample(range(12), rng.randint(0, 4))), True)
            out.append(make_tame(self.family, r))
        return out[:count]


class FanPlusBottomEngine(FanEngine):
    """One fan with an isolated bottom point y below every other point."""

    family = "fan_plus_bottom"
    infinite_min_yd_class = None  # min Y_d = {y}
    min_yd_space_flags = {"locally_compact": True, "sober": True, "coherent": True}

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

    def core(self, u):
        if u.spine.member(0):
            # an upset containing y is the whole space, itself Scott
            return u
        return make_tame(self.family, Region(u.fan_default.bits))

    def points_with_up_inside(self, d):
        spine = Region(1 if d == self.full else 0)
        return make_tame(self.family, d.fan_default, spine=spine)

    def clop_sup_test(self, u):
        if u.spine.member(0):
            return u == self.full
        return u.fan_default.bits >= 0 and not u.fan_default.flag

    sample_clopen_upsets = BareFanEngine.sample_clopen_upsets


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
    # cofinite topology on a countable set: every subset is compact
    # (locally compact, coherent), but the whole space is an
    # irreducible closed set with no generic point (not sober)
    min_yd_space_flags = {"locally_compact": True, "sober": False, "coherent": True}

    def strict_down(self, a):
        spine_pts = self._content_region(a)
        if a.spine.flag or a.omega_star:
            spine_pts = region_join(spine_pts, POINTS_REGION)
        return make_tame(self.family, spine=Region(spine_pts.bits, a.omega_star))

    def strict_up(self, a):
        s = a.spine
        any_member = s.has_points()
        # the fans over the spine's members are full, the others empty
        if s.bits < 0:
            default, over = FULL_REGION, EMPTY_REGION
        else:
            default, over = EMPTY_REGION, FULL_REGION
        exc = dict.fromkeys(_bits(_exc(s)), over)
        return make_tame(
            self.family, default, exc,
            spine=Region(0, any_member), omega_star=any_member or s.flag,
        )

    def core(self, u):
        """Keep the fan points; keep star i only over a bottom point of u;
        keep omega and the blob only together.

        For a clopen upset, y_i in u already forces the whole upset of
        y_i inside u and a cofinite spine with omega, so the published
        conditions collapse to membership of the relevant bottoms: stars
        survive exactly over bottoms of u, spine points survive as they
        are, omega survives as it is, and the blob survives exactly when
        omega is present (every clopen Scott upset through the blob runs
        through omega).
        """
        default, exc = _stars_over_bottoms(u)
        return make_tame(
            self.family, default, exc,
            spine=u.spine, omega_star=u.omega_star and u.spine.flag,
        )

    def points_with_up_inside(self, d):
        omega = d.spine.flag and d.omega_star
        ups_ok = 0
        if omega:
            ups_ok = d.spine.bits & _fan_pred_region(d, Region.is_full).bits
        return make_tame(
            self.family, d.fan_default, dict(d.fan_exc),
            spine=Region(ups_ok, omega), omega_star=d.omega_star,
        )

    def clop_sup_test(self, u):
        """Finite set of fan points, or cofinite spine with finite fan
        traces wherever the bottom point is excluded."""
        spine = u.spine
        if spine.is_empty() and not u.omega_star:
            return (
                u.fan_default.is_empty()
                and all(r.bits >= 0 and not r.flag for _, r in u.fan_exc)
            )
        if spine.bits >= 0 or not spine.flag:
            return False
        for i in _bits(~spine.bits):  # the excluded bottoms
            r = u._fan_region(i)
            if r.bits < 0 or r.flag:
                return False
        return True

    def sample_clopen_upsets(self, count, seed=0):
        rng = random.Random(seed)
        out = [self.empty, self.full]

        def clopen_region(full_ok=True):
            if full_ok and rng.random() < 0.35:
                return FULL_REGION
            if rng.random() < 0.6:
                return Region(_mask(rng.sample(range(9), rng.randint(0, 3))))
            return Region(~_mask(rng.sample(range(9), rng.randint(0, 3))), True)

        while len(out) < count:
            style = rng.random()
            if style < 0.3:
                # finite sets of fan points
                exc = {
                    i: Region(_mask(rng.sample(range(8), rng.randint(1, 3))))
                    for i in rng.sample(range(6), rng.randint(1, 3))
                }
                out.append(make_tame(self.family, EMPTY_REGION, exc))
            elif style < 0.75:
                # cofinite spine: excluded bottoms get clopen traces,
                # everything else is forced full by the upset condition
                excluded = _mask(rng.sample(range(6), rng.randint(0, 3)))
                exc = {i: clopen_region(full_ok=False) for i in _bits(excluded)}
                out.append(make_tame(
                    self.family, FULL_REGION, exc,
                    spine=Region(~excluded, True), omega_star=True,
                ))
            else:
                # full fans only, no spine, with the blob
                exc = {
                    i: clopen_region() for i in rng.sample(range(6), rng.randint(0, 2))
                }
                out.append(make_tame(
                    self.family, FULL_REGION, exc, omega_star=True,
                ))
        return out[:count]


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
    # the empty space is vacuously stably locally compact
    min_yd_space_flags = {"locally_compact": True, "sober": True, "coherent": True}

    def strict_down(self, a):
        content = self._content_region(a).bits
        spine = a.spine.bits
        # -(b & -b) is every index from b's lowest member up (0 when b
        # is empty): fan i lies above y_j for j >= i, y_i above y_j for j > i
        pts = -(content & -content) | (-(spine & -spine) << 1)
        any_member = content != 0 or spine != 0 or a.omega_star
        return make_tame(self.family, spine=Region(pts, any_member))

    def strict_up(self, a):
        spine = a.spine
        if spine.flag:  # omega lies strictly below everything else
            return make_tame(
                self.family, FULL_REGION, spine=POINTS_REGION, omega_star=True,
            )
        if spine.bits < 0:
            # unbounded members: heads exhaust the spine and the fans
            return make_tame(self.family, FULL_REGION, spine=POINTS_REGION)
        if not spine.bits:
            return self.empty
        m = spine.bits.bit_length() - 1
        exc = {i: FULL_REGION for i in range(m + 1)}
        return make_tame(
            self.family, EMPTY_REGION, exc, spine=Region((1 << m) - 1),
        )

    def _spine_up_inside(self, u):
        """Initial segment of i with up(y_i) inside u: bottoms 0..i in u
        and fans 0..i full; either a finite run or the whole spine."""
        spine = u.spine

        def ok(i):
            return spine.member(i) and u._fan_region(i).is_full()

        horizon = (_fan_indices(u) | _exc(spine)).bit_length() + 1
        for i in range(horizon):
            if not ok(i):
                return Region((1 << i) - 1)
        # beyond the horizon everything is governed by the defaults
        if spine.bits < 0 and u.fan_default.is_full():
            return POINTS_REGION
        return Region((1 << horizon) - 1)

    def core(self, u):
        """Keep the fan points and spine points; keep star i only over a
        bottom point of u; omega and the blob are never in any Scott
        upset here (omega is the global minimum and it is not localic).

        For a clopen upset, y_i in u forces the whole upset of y_i
        inside u, which is what the star rule really requires.
        """
        default, exc = _stars_over_bottoms(u)
        return make_tame(
            self.family, default, exc,
            spine=Region(u.spine.bits), omega_star=False,
        )

    def points_with_up_inside(self, d):
        spine_ok = self._spine_up_inside(d)
        omega = d == self.full
        return make_tame(
            self.family, d.fan_default, dict(d.fan_exc),
            spine=Region(spine_ok.bits, omega),
            omega_star=d.omega_star,
        )

    def clop_sup_test(self, u):
        if u.spine.flag or u.omega_star:
            return False
        stars = _fan_pred_region(u, lambda r: r.flag)
        # every star needs its bottom point inside u
        return region_subset(stars, Region(u.spine.bits))

    def sample_clopen_upsets(self, count, seed=0):
        rng = random.Random(seed)
        out = [self.empty, self.full]

        def clopen_region():
            if rng.random() < 0.5:
                return Region(_mask(rng.sample(range(9), rng.randint(0, 3))))
            return Region(~_mask(rng.sample(range(9), rng.randint(0, 3))), True)

        while len(out) < count:
            style = rng.random()
            if style < 0.45:
                # spine head 0..m, fans up to m full, the rest clopen
                m = rng.randint(0, 4)
                exc = {i: FULL_REGION for i in range(m + 1)}
                for i in range(m + 1, m + 1 + rng.randint(0, 2)):
                    exc[i] = clopen_region()
                out.append(make_tame(
                    self.family, EMPTY_REGION, exc,
                    spine=Region((1 << (m + 1)) - 1),
                ))
            elif style < 0.8:
                # no spine at all: arbitrary clopen fan regions, maybe blob
                os = rng.random() < 0.5
                default = FULL_REGION if os else EMPTY_REGION
                exc = {
                    i: clopen_region() for i in rng.sample(range(6), rng.randint(0, 3))
                }
                out.append(make_tame(self.family, default, exc, omega_star=os))
            else:
                # head plus blob: the blob needs almost all fans full
                m = rng.randint(0, 3)
                exc = {i: FULL_REGION for i in range(m + 1)}
                for i in range(m + 1, m + 1 + rng.randint(0, 2)):
                    exc[i] = clopen_region()
                out.append(make_tame(
                    self.family, FULL_REGION, exc,
                    spine=Region((1 << (m + 1)) - 1), omega_star=True,
                ))
        return out[:count]


_ENGINES = {
    "bare_fan": BareFanEngine,
    "fan_plus_bottom": FanPlusBottomEngine,
    "omega_fans": OmegaFansEngine,
    "chain_fans": ChainFansEngine,
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


def _region_from_json(obj, limit_key):
    if obj == "empty":
        return EMPTY_REGION
    if obj == "full":
        return FULL_REGION
    mode = obj["mode"]
    if mode not in ("fin", "cofin"):
        raise ValueError(f"bad region mode {mode!r}")
    exc = _mask(obj.get("set", ()))
    return Region(~exc if mode == "cofin" else exc, bool(obj.get(limit_key, False)))


def tame_to_json(a):
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
    if a.spine is not None:
        out["spine"] = _region_to_json(a.spine, "omega")
    if a.family in _HAS_OMEGA_STAR:
        out["omega_star"] = a.omega_star
    return out


def tame_from_json(family, obj):
    fans = obj.get("fans", {})
    default = _region_from_json(fans.get("default", "empty"), "star")
    exc = {
        int(i): _region_from_json(r, "star")
        for i, r in fans.get("exceptions", {}).items()
    }
    spine = None
    if "spine" in obj:
        spine = _region_from_json(obj["spine"], "omega")
    return make_tame(family, default, exc, spine, bool(obj.get("omega_star", False)))
