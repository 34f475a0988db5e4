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
is either a finite or a cofinite subset of that region's copy of the
naturals, plus a flag for the attached limit class (the star blob for a
fan, omega for the spine).  Canonical forms are unique: two tame sets
are semantically equal iff their canonical representations are
identical.

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

import json
import random
from dataclasses import dataclass

from .errors import (
    FamilyMismatch,
    InternalAssertionError,
    NotClopenUpset,
    NotRepresentable,
)

FAMILIES = ("bare_fan", "fan_plus_bottom", "omega_fans", "chain_fans")

_MULTI_FAN = {"omega_fans", "chain_fans"}
_HAS_SPINE = {"fan_plus_bottom", "omega_fans", "chain_fans"}
_HAS_OMEGA = {"omega_fans", "chain_fans"}       # spine limit point
_HAS_OMEGA_STAR = {"omega_fans", "chain_fans"}  # top blob


# ---------------------------------------------------------------------
# regions: finite/cofinite subsets of one copy of N, plus a limit flag
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    mode: str            # "fin" | "cofin"
    exc: frozenset       # members (fin) or non-members (cofin)
    flag: bool = False   # the region's limit class (star / omega)

    def __post_init__(self):
        if self.mode not in ("fin", "cofin"):
            raise ValueError(f"bad region mode {self.mode!r}")
        object.__setattr__(self, "exc", frozenset(self.exc))

    def member(self, k):
        return (k in self.exc) if self.mode == "fin" else (k not in self.exc)

    def has_points(self):
        return self.mode == "cofin" or bool(self.exc)

    def is_empty(self):
        return self.mode == "fin" and not self.exc and not self.flag

    def is_full(self):
        """All points of the region and its limit class."""
        return self.mode == "cofin" and not self.exc and self.flag

    def all_points(self):
        """All points, regardless of the limit flag."""
        return self.mode == "cofin" and not self.exc


EMPTY_REGION = Region("fin", frozenset(), False)
FULL_REGION = Region("cofin", frozenset(), True)
POINTS_REGION = Region("cofin", frozenset(), False)


def region_meet(a, b):
    if a.mode == "fin" and b.mode == "fin":
        mode, exc = "fin", a.exc & b.exc
    elif a.mode == "fin":
        mode, exc = "fin", a.exc - b.exc
    elif b.mode == "fin":
        mode, exc = "fin", b.exc - a.exc
    else:
        mode, exc = "cofin", a.exc | b.exc
    return Region(mode, exc, a.flag and b.flag)


def region_join(a, b):
    if a.mode == "fin" and b.mode == "fin":
        mode, exc = "fin", a.exc | b.exc
    elif a.mode == "fin":
        mode, exc = "cofin", b.exc - a.exc
    elif b.mode == "fin":
        mode, exc = "cofin", a.exc - b.exc
    else:
        mode, exc = "cofin", a.exc & b.exc
    return Region(mode, exc, a.flag or b.flag)


def region_complement(a):
    return Region("cofin" if a.mode == "fin" else "fin", a.exc, not a.flag)


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


@dataclass(frozen=True)
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

    def fan_indices(self):
        """Exception fan indices, sorted."""
        return [i for i, _ in self.fan_exc]

    def is_empty_set(self):
        return (
            self.fan_default.is_empty()
            and all(r.is_empty() for _, r in self.fan_exc)
            and (self.spine is None or (self.spine.is_empty() and not self.spine.flag))
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
    items = tuple(sorted((i, r) for i, r in exc.items() if r != fan_default))
    if any(i < 0 for i, _ in items):
        raise NotRepresentable("fan indices must be non-negative")
    if family in _HAS_SPINE:
        if spine is None:
            spine = EMPTY_REGION
        if family == "fan_plus_bottom":
            # one spine point, no limit: normalize to a finite region
            member = spine.member(0)
            spine = Region("fin", frozenset({0}) if member else frozenset(), False)
        elif family not in _HAS_OMEGA and spine.flag:
            raise NotRepresentable(f"{family} has no omega point")
    else:
        if spine is not None and not (spine.is_empty() and not spine.flag):
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
        spine = Region("fin", frozenset({0}), False)
    elif family in _HAS_OMEGA:
        spine = Region("cofin", frozenset(), True)
    return make_tame(
        family,
        fan_default=FULL_REGION,
        spine=spine,
        omega_star=family in _HAS_OMEGA_STAR,
    )


def _zip_fans(a, b):
    """Pairs of fan regions of a and b over every relevant index."""
    idx = sorted(set(a.fan_indices()) | set(b.fan_indices()))
    return idx


def _combine(a, b, rop, sop=None, osop=None):
    if a.family != b.family:
        raise FamilyMismatch(f"{a.family} vs {b.family}")
    sop = sop or rop
    default = rop(a.fan_default, b.fan_default)
    exc = {}
    for i in _zip_fans(a, b):
        exc[i] = rop(a._fan_region(i), b._fan_region(i))
    spine = None
    if a.spine is not None:
        spine = sop(a.spine, b.spine)
    os = osop(a.omega_star, b.omega_star)
    return make_tame(a.family, default, exc, spine, os)


def tame_meet(a, b):
    return _combine(a, b, region_meet, osop=lambda x, y: x and y)


def tame_join(a, b):
    return _combine(a, b, region_join, osop=lambda x, y: x or y)


def tame_complement(a):
    default = region_complement(a.fan_default)
    exc = {i: region_complement(r) for i, r in a.fan_exc}
    spine = region_complement(a.spine) if a.spine is not None else None
    os = not a.omega_star if a.family in _HAS_OMEGA_STAR else False
    return make_tame(a.family, default, exc, spine, os)


def tame_diff(a, b):
    return tame_meet(a, tame_complement(b))


def tame_op(a, b, op):
    """Dispatcher: meet | join | complement | diff."""
    if op == "meet":
        return tame_meet(a, b)
    if op == "join":
        return tame_join(a, b)
    if op == "diff":
        return tame_diff(a, b)
    if op == "complement":
        return tame_complement(a)
    raise ValueError(f"unknown op {op!r}")


def tame_closure(a):
    """Add the star over cofinite fan parts, omega over a cofinite spine,
    and the top blob when almost every fan closes up to its star."""
    def close_region(r):
        return Region(r.mode, r.exc, r.flag or r.mode == "cofin")

    default = close_region(a.fan_default)
    exc = {i: close_region(r) for i, r in a.fan_exc}
    spine = a.spine
    if spine is not None and a.family in _HAS_OMEGA:
        spine = close_region(spine)
    os = a.omega_star
    if a.family in _HAS_OMEGA_STAR and default.flag:
        os = True
    return make_tame(a.family, default, exc, spine, os)


def tame_interior(a):
    return tame_complement(tame_closure(tame_complement(a)))


def closure_interior(a, which):
    """Dispatcher matching the two-sided operation name."""
    if which == "cl":
        return tame_closure(a)
    if which == "int":
        return tame_interior(a)
    raise ValueError(f"which must be 'cl' or 'int', got {which!r}")


def tame_is_open(a):
    def region_open(r):
        return not (r.flag and r.mode == "fin")

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
        if not (a.fan_default.flag and a.fan_default.mode == "cofin"):
            return False
    return True


def tame_is_closed(a):
    def region_closed(r):
        return r.mode == "fin" or r.flag

    if not region_closed(a.fan_default):
        return False
    if not all(region_closed(r) for _, r in a.fan_exc):
        return False
    if a.spine is not None and a.family in _HAS_OMEGA:
        if not region_closed(a.spine):
            return False
    if a.family in _HAS_OMEGA_STAR and not a.omega_star:
        closed_default = Region(
            a.fan_default.mode, a.fan_default.exc,
            a.fan_default.flag or a.fan_default.mode == "cofin",
        )
        if closed_default.flag:
            return False
    return True


# ---------------------------------------------------------------------
# index predicates with finite support (which fans satisfy something)
# ---------------------------------------------------------------------


def _index_region(default, exc_bools):
    """Region over fan indices from a default truth value plus exceptions."""
    if default:
        return Region("cofin", frozenset(i for i, v in exc_bools.items() if not v))
    return Region("fin", frozenset(i for i, v in exc_bools.items() if v))


def _fan_pred_region(a, pred):
    """Indices of fans whose region satisfies pred, as an index region."""
    return _index_region(
        pred(a.fan_default), {i: pred(r) for i, r in a.fan_exc}
    )


def _first_absent(exc):
    k = 0
    while k in exc:
        k += 1
    return k


def _region_min_member(r):
    """Smallest member index of a region, or None."""
    if r.mode == "fin":
        return min(r.exc) if r.exc else None
    return _first_absent(r.exc)


def _fresh_index(*excs):
    mx = -1
    for e in excs:
        for i in e:
            mx = max(mx, i)
    return mx + 1


# ---------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------


class FanEngine:
    """Shared machinery: Boolean algebra, topology, points, reps.

    Subclasses supply the order (strict up/down), the core rule, the
    pointwise d-core rule, the clopen-Scott-upset test, sampling, and
    the closed-form topology verdicts, one family each.
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

    def join(self, a, b):
        return tame_join(a, b)

    def complement(self, a):
        return tame_complement(a)

    def diff(self, a, b):
        return tame_diff(a, b)

    def closure(self, a):
        return tame_closure(a)

    def interior(self, a):
        return tame_interior(a)

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

    def strict_up(self, a):  # pragma: no cover - abstract
        raise NotImplementedError

    def strict_down(self, a):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- points ----------------------------------------------------------

    def point_set(self, pt):
        fam = self.family
        if pt.kind in ("fan", "star") and fam not in _MULTI_FAN and pt.i != 0:
            raise NotRepresentable("single-fan family has only fan 0")
        if pt.kind == "fan":
            return make_tame(fam, fan_exc={pt.i: Region("fin", frozenset({pt.k}))})
        if pt.kind == "star":
            return make_tame(fam, fan_exc={pt.i: Region("fin", frozenset(), True)})
        if pt.kind == "spine":
            if fam not in _HAS_SPINE:
                raise NotRepresentable(f"{fam} has no spine")
            return make_tame(fam, spine=Region("fin", frozenset({pt.i})))
        if pt.kind == "omega":
            if fam not in _HAS_OMEGA:
                raise NotRepresentable(f"{fam} has no omega point")
            return make_tame(fam, spine=Region("fin", frozenset(), True))
        if pt.kind == "omega_star":
            if fam not in _HAS_OMEGA_STAR:
                raise NotRepresentable(f"{fam} has no top blob")
            return make_tame(fam, omega_star=True)
        raise ValueError(f"unknown point kind {pt.kind!r}")

    def contains(self, a, pt):
        return a.member(pt)

    def member_reps(self, a):
        """Deterministic representative points covering every piece of a.

        Within one region the points outside the exception set behave
        identically, so one fresh representative stands for the bulk;
        the same convention covers the fans governed by the default.
        """
        reps = []
        spine_exc = list(a.spine.exc) if a.spine is not None else []
        fresh_i = _fresh_index([i for i, _ in a.fan_exc], spine_exc)

        def region_reps(i, r):
            out = []
            if r.mode == "fin":
                for k in sorted(r.exc):
                    out.append(fan_point(i, k))
            else:
                out.append(fan_point(i, _fresh_index(r.exc)))
            if r.flag:
                out.append(fan_star(i))
            return out

        for i, r in a.fan_exc:
            reps.extend(region_reps(i, r))
        if self.family in _MULTI_FAN:
            if not a.fan_default.is_empty():
                reps.extend(region_reps(fresh_i, a.fan_default))
        elif not a.fan_default.is_empty():
            reps.extend(region_reps(0, a.fan_default))
        if a.spine is not None:
            if a.spine.mode == "fin":
                for i in sorted(a.spine.exc):
                    reps.append(spine_point(i))
            else:
                reps.append(spine_point(_fresh_index(a.spine.exc,
                                                     [i for i, _ in a.fan_exc])))
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
        spine_exc = list(a.spine.exc) if a.spine is not None else []
        fresh_i = _fresh_index([i for i, _ in a.fan_exc], spine_exc)

        def filter_region(i, r):
            if r.mode == "fin":
                kept = frozenset(k for k in r.exc if pred(fan_point(i, k)))
                mode = "fin"
            else:
                if pred(fan_point(i, _fresh_index(r.exc))):
                    kept, mode = r.exc, "cofin"
                else:
                    kept, mode = frozenset(), "fin"
            flag = r.flag and pred(fan_star(i))
            return Region(mode, kept, flag)

        exc = {i: filter_region(i, r) for i, r in a.fan_exc}
        if self.family in _MULTI_FAN:
            default = (
                filter_region(fresh_i, a.fan_default)
                if not a.fan_default.is_empty() else EMPTY_REGION
            )
        else:
            default = (
                filter_region(0, a.fan_default)
                if not a.fan_default.is_empty() else EMPTY_REGION
            )
        spine = None
        if a.spine is not None:
            if a.spine.mode == "fin":
                kept = frozenset(i for i in a.spine.exc if pred(spine_point(i)))
                mode = "fin"
            else:
                if pred(spine_point(_fresh_index(a.spine.exc,
                                                 [i for i, _ in a.fan_exc]))):
                    kept, mode = a.spine.exc, "cofin"
                else:
                    kept, mode = frozenset(), "fin"
            flag = a.spine.flag and pred(OMEGA)
            spine = Region(mode, kept, flag)
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
        if self.family in _HAS_SPINE:
            if self.family == "fan_plus_bottom":
                spine = Region(
                    "fin",
                    frozenset({0}) if clopen_down(spine_point(0)) else frozenset(),
                )
            else:
                spine_ok = clopen_down(spine_point(0))
                omega_ok = clopen_down(OMEGA) if self.family in _HAS_OMEGA else False
                spine = Region(
                    "cofin" if spine_ok else "fin", frozenset(), omega_ok
                )
        self._localic = make_tame(self.family, default, spine=spine)
        return self._localic

    # -- hooks ----------------------------------------------------------

    def core(self, u):  # pragma: no cover - abstract
        raise NotImplementedError

    def points_with_up_inside(self, d):  # pragma: no cover - abstract
        raise NotImplementedError

    def clop_sup_test(self, u):  # pragma: no cover - abstract
        raise NotImplementedError

    def sample_clopen_upsets(self, count, seed=0):  # pragma: no cover
        raise NotImplementedError

    def infinite_min_yd_class(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def min_yd_space_flags(self):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- rendering -------------------------------------------------------

    def is_finite_set(self, a):
        if a.fan_default.mode == "cofin" or any(
            r.mode == "cofin" for _, r in a.fan_exc
        ):
            return False
        if self.family in _MULTI_FAN and not a.fan_default.is_empty():
            return False
        if a.spine is not None and a.spine.mode == "cofin":
            return False
        return True

    def describe_set(self, a):
        if a.is_empty_set():
            return "(empty)"

        def region_str(r, limit_name):
            parts = []
            if r.mode == "fin":
                if r.exc:
                    parts.append("points {" + ",".join(map(str, sorted(r.exc))) + "}")
            else:
                if r.exc:
                    parts.append(
                        "all points except {" + ",".join(map(str, sorted(r.exc))) + "}"
                    )
                else:
                    parts.append("all points")
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
        if a.spine is not None and not (a.spine.is_empty() and not a.spine.flag):
            name = "y" if self.family == "fan_plus_bottom" else "spine"
            bits.append(f"{name}: {region_str(a.spine, 'omega')}")
        if a.omega_star:
            bits.append("top blob")
        return "; ".join(bits)

    def describe_family(self, descriptions, min_yd_empty=False):
        if min_yd_empty:
            return "empty family (min Y_d is empty)"
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

    def strict_up(self, a):
        return self.empty

    def strict_down(self, a):
        return self.empty

    def core(self, u):
        return make_tame(
            self.family, Region(u.fan_default.mode, u.fan_default.exc, False)
        )

    def points_with_up_inside(self, d):
        # identity order: up(x) = {x} for every class
        return d

    def clop_sup_test(self, u):
        return u.fan_default.mode == "fin" and not u.fan_default.flag

    def sample_clopen_upsets(self, count, seed=0):
        rng = random.Random(seed)
        out = [self.empty, self.full]
        while len(out) < count:
            if rng.random() < 0.5:
                r = Region("fin", frozenset(rng.sample(range(12), rng.randint(0, 4))))
            else:
                r = Region("cofin",
                           frozenset(rng.sample(range(12), rng.randint(0, 4))), True)
            out.append(make_tame(self.family, r))
        return out[:count]

    def infinite_min_yd_class(self):
        return "discrete"

    def min_yd_space_flags(self):
        # an infinite discrete space
        return {"locally_compact": True, "sober": True, "coherent": True}


class FanPlusBottomEngine(FanEngine):
    """One fan with an isolated bottom point y below every other point."""

    family = "fan_plus_bottom"

    def _has_y(self, a):
        return a.spine is not None and a.spine.member(0)

    def strict_up(self, a):
        if self._has_y(a):
            # everything except y itself
            return make_tame(self.family, FULL_REGION)
        return self.empty

    def strict_down(self, a):
        content = a.fan_default.has_points() or a.fan_default.flag
        if content:
            return make_tame(self.family, spine=Region("fin", frozenset({0})))
        return self.empty

    def core(self, u):
        if self._has_y(u):
            # an upset containing y is the whole space, itself Scott
            return u
        return make_tame(
            self.family, Region(u.fan_default.mode, u.fan_default.exc, False)
        )

    def points_with_up_inside(self, d):
        spine = Region(
            "fin", frozenset({0}) if d == self.full else frozenset()
        )
        return make_tame(self.family, d.fan_default, spine=spine)

    def clop_sup_test(self, u):
        if self._has_y(u):
            return u == self.full
        return u.fan_default.mode == "fin" and not u.fan_default.flag

    def sample_clopen_upsets(self, count, seed=0):
        rng = random.Random(seed)
        out = [self.empty, self.full]
        while len(out) < count:
            if rng.random() < 0.5:
                r = Region("fin", frozenset(rng.sample(range(12), rng.randint(0, 4))))
            else:
                r = Region("cofin",
                           frozenset(rng.sample(range(12), rng.randint(0, 4))), True)
            out.append(make_tame(self.family, r))
        return out[:count]

    def infinite_min_yd_class(self):  # pragma: no cover - min Y_d = {y}
        raise InternalAssertionError("min Y_d of this family is a single point")

    def min_yd_space_flags(self):
        return {"locally_compact": True, "sober": True, "coherent": True}


class OmegaFansEngine(FanEngine):
    """Countably many fans over a spine compactified by omega, topped by
    the blob above omega.

    Order: y_i below fan i and its star; every y_i below omega; omega
    below the blob.  ``_drop_spine_link`` severs the fan-to-spine edge
    of one fan; it exists purely as a fault-injection hook for the
    mutation tests and must stay None in real use.
    """

    family = "omega_fans"

    def __init__(self, _drop_spine_link=None):
        self._drop = _drop_spine_link
        super().__init__()

    def _content_region(self, a):
        """Which fans have points or star, as an index region."""
        reg = _fan_pred_region(a, lambda r: r.has_points() or r.flag)
        if self._drop is not None:
            reg = region_meet(reg, Region("cofin", frozenset({self._drop})))
        return reg

    def strict_down(self, a):
        spine_pts = self._content_region(a)
        omega_flag = a.omega_star
        if (a.spine is not None and a.spine.flag) or a.omega_star:
            spine_pts = region_join(spine_pts, POINTS_REGION)
        return make_tame(
            self.family,
            spine=Region(spine_pts.mode, spine_pts.exc, omega_flag),
        )

    def strict_up(self, a):
        s = a.spine if a.spine is not None else EMPTY_REGION
        any_member = s.has_points()
        if s.mode == "cofin":
            default = FULL_REGION
            exc = {i: EMPTY_REGION for i in s.exc}
        else:
            default = EMPTY_REGION
            exc = {i: FULL_REGION for i in s.exc}
        omega_flag = any_member
        os = any_member or s.flag
        return make_tame(
            self.family, default, exc,
            spine=Region("fin", frozenset(), omega_flag), omega_star=os,
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
        spine = u.spine
        bottoms = Region(spine.mode, spine.exc)

        def fan_rule(i, r):
            return Region(r.mode, r.exc, r.flag and bottoms.member(i))

        exc = {
            i: fan_rule(i, u._fan_region(i))
            for i in {j for j, _ in u.fan_exc} | spine.exc
        }
        default = Region(
            u.fan_default.mode, u.fan_default.exc,
            u.fan_default.flag and bottoms.mode == "cofin",
        )
        os = u.omega_star and spine.flag
        return make_tame(
            self.family, default, exc,
            spine=spine, omega_star=os,
        )

    def points_with_up_inside(self, d):
        spine = d.spine if d.spine is not None else EMPTY_REGION
        fans_full = _fan_pred_region(d, lambda r: r.is_full())
        ups_ok = (
            region_meet(Region(spine.mode, spine.exc), fans_full)
            if (spine.flag and d.omega_star) else Region("fin", frozenset())
        )
        omega = spine.flag and d.omega_star
        os = d.omega_star
        return make_tame(
            self.family, d.fan_default, dict(d.fan_exc),
            spine=Region(ups_ok.mode, ups_ok.exc, omega), omega_star=os,
        )

    def clop_sup_test(self, u):
        """Finite set of fan points, or cofinite spine with finite fan
        traces wherever the bottom point is excluded."""
        spine = u.spine if u.spine is not None else EMPTY_REGION
        if spine.is_empty() and not u.omega_star:
            return (
                u.fan_default.is_empty()
                and all(r.mode == "fin" and not r.flag for _, r in u.fan_exc)
            )
        if spine.mode != "cofin" or not spine.flag:
            return False
        for i in spine.exc:  # the excluded bottoms
            r = u._fan_region(i)
            if r.mode != "fin" or r.flag:
                return False
        return True

    def sample_clopen_upsets(self, count, seed=0):
        rng = random.Random(seed)
        out = [self.empty, self.full]

        def clopen_region(full_ok=True):
            if full_ok and rng.random() < 0.35:
                return FULL_REGION
            if rng.random() < 0.6:
                return Region("fin", frozenset(rng.sample(range(9), rng.randint(0, 3))))
            return Region(
                "cofin", frozenset(rng.sample(range(9), rng.randint(0, 3))), True
            )

        while len(out) < count:
            style = rng.random()
            if style < 0.3:
                # finite sets of fan points
                exc = {
                    i: Region("fin", frozenset(rng.sample(range(8), rng.randint(1, 3))))
                    for i in rng.sample(range(6), rng.randint(1, 3))
                }
                out.append(make_tame(self.family, EMPTY_REGION, exc))
            elif style < 0.75:
                # cofinite spine: excluded bottoms get clopen traces,
                # everything else is forced full by the upset condition
                excluded = frozenset(rng.sample(range(6), rng.randint(0, 3)))
                exc = {i: clopen_region(full_ok=False) for i in excluded}
                out.append(make_tame(
                    self.family, FULL_REGION, exc,
                    spine=Region("cofin", excluded, True), omega_star=True,
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

    def infinite_min_yd_class(self):
        # a clopen upset containing any bottom point has cofinite spine,
        # so the realizable traces on min Y_d are the empty and the
        # cofinite ones: the cofinite topology on the spine
        return "cofinite"

    def min_yd_space_flags(self):
        # cofinite topology on a countable set: every subset is compact
        # (locally compact, coherent), but the whole space is an
        # irreducible closed set with no generic point (not sober)
        return {"locally_compact": True, "sober": False, "coherent": True}


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

    def _min_content_index(self, a):
        """Smallest fan index with points or star, or None."""
        candidates = [
            i for i, r in a.fan_exc if r.has_points() or r.flag
        ]
        if a.fan_default.has_points() or a.fan_default.flag:
            candidates.append(_first_absent(frozenset(i for i, _ in a.fan_exc)))
        return min(candidates) if candidates else None

    def strict_down(self, a):
        spine = a.spine if a.spine is not None else EMPTY_REGION
        m1 = self._min_content_index(a)
        m2 = _region_min_member(spine)
        cutoffs = []
        if m1 is not None:
            cutoffs.append(m1)
        if m2 is not None:
            cutoffs.append(m2 + 1)
        if cutoffs:
            pts = Region("cofin", frozenset(range(min(cutoffs))))
        else:
            pts = Region("fin", frozenset())
        any_member = (
            m1 is not None or m2 is not None or a.omega_star
        )
        return make_tame(
            self.family, spine=Region(pts.mode, pts.exc, any_member)
        )

    def strict_up(self, a):
        spine = a.spine if a.spine is not None else EMPTY_REGION
        if spine.flag:  # omega lies strictly below everything else
            return make_tame(
                self.family, FULL_REGION,
                spine=Region("cofin", frozenset(), False), omega_star=True,
            )
        if spine.mode == "cofin":
            # unbounded members: heads exhaust the spine and the fans
            return make_tame(
                self.family, FULL_REGION,
                spine=Region("cofin", frozenset(), False),
            )
        if not spine.exc:
            return self.empty
        m = max(spine.exc)
        exc = {i: FULL_REGION for i in range(m + 1)}
        return make_tame(
            self.family, EMPTY_REGION, exc,
            spine=Region("fin", frozenset(range(m)), False),
        )

    def _spine_up_inside(self, u):
        """Initial segment of i with up(y_i) inside u: bottoms 0..i in u
        and fans 0..i full; either a finite run or the whole spine."""
        spine = u.spine if u.spine is not None else EMPTY_REGION

        def ok(i):
            return spine.member(i) and u._fan_region(i).is_full()

        relevant = {i for i, _ in u.fan_exc} | spine.exc
        horizon = (max(relevant) if relevant else -1) + 2
        i = 0
        while i < horizon:
            if not ok(i):
                return Region("fin", frozenset(range(i)))
            i += 1
        # beyond the horizon everything is governed by the defaults
        if spine.mode == "cofin" and u.fan_default.is_full():
            return Region("cofin", frozenset())
        return Region("fin", frozenset(range(horizon)))

    def core(self, u):
        """Keep the fan points and spine points; keep star i only over a
        bottom point of u; omega and the blob are never in any Scott
        upset here (omega is the global minimum and it is not localic).

        For a clopen upset, y_i in u forces the whole upset of y_i
        inside u, which is what the star rule really requires.
        """
        spine = u.spine
        bottoms = Region(spine.mode, spine.exc)

        def fan_rule(i, r):
            return Region(r.mode, r.exc, r.flag and bottoms.member(i))

        exc = {
            i: fan_rule(i, u._fan_region(i))
            for i in {j for j, _ in u.fan_exc} | spine.exc
        }
        default = Region(
            u.fan_default.mode, u.fan_default.exc,
            u.fan_default.flag and bottoms.mode == "cofin",
        )
        return make_tame(
            self.family, default, exc,
            spine=Region(spine.mode, spine.exc, False), omega_star=False,
        )

    def points_with_up_inside(self, d):
        spine_ok = self._spine_up_inside(d)
        omega = d == self.full
        return make_tame(
            self.family, d.fan_default, dict(d.fan_exc),
            spine=Region(spine_ok.mode, spine_ok.exc, omega),
            omega_star=d.omega_star,
        )

    def clop_sup_test(self, u):
        spine = u.spine if u.spine is not None else EMPTY_REGION
        if spine.flag or u.omega_star:
            return False
        stars = _fan_pred_region(u, lambda r: r.flag)
        members = Region(spine.mode, spine.exc)
        # every star needs its bottom point inside u
        return region_subset(stars, members)

    def sample_clopen_upsets(self, count, seed=0):
        rng = random.Random(seed)
        out = [self.empty, self.full]

        def clopen_region():
            if rng.random() < 0.5:
                return Region("fin", frozenset(rng.sample(range(9), rng.randint(0, 3))))
            return Region(
                "cofin", frozenset(rng.sample(range(9), rng.randint(0, 3))), True
            )

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
                    spine=Region("fin", frozenset(range(m + 1))),
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
                    spine=Region("fin", frozenset(range(m + 1))), omega_star=True,
                ))
        return out[:count]

    def infinite_min_yd_class(self):  # pragma: no cover - min Y_d is empty
        raise InternalAssertionError("min Y_d of this family is empty")

    def min_yd_space_flags(self):
        # the empty space is vacuously stably locally compact
        return {"locally_compact": True, "sober": True, "coherent": True}


_ENGINES = {
    "bare_fan": BareFanEngine,
    "fan_plus_bottom": FanPlusBottomEngine,
    "omega_fans": OmegaFansEngine,
    "chain_fans": ChainFansEngine,
}


@dataclass(frozen=True)
class FanSpaceDescriptor:
    family: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilyMismatch(f"unknown family {self.family!r}")


def engine_for(desc):
    """Engine for a descriptor ({'family': name}, FanSpaceDescriptor, or name)."""
    if isinstance(desc, FanSpaceDescriptor):
        family = desc.family
    elif isinstance(desc, dict):
        family = desc.get("family")
    else:
        family = desc
    if family not in _ENGINES:
        raise FamilyMismatch(f"unknown family {family!r}")
    return _ENGINES[family]()


# ---------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------


def _region_to_json(r, limit_key):
    return {"mode": r.mode, "set": sorted(r.exc), limit_key: r.flag}


def _region_from_json(obj, limit_key):
    if obj == "empty":
        return EMPTY_REGION
    if obj == "full":
        return FULL_REGION
    return Region(obj["mode"], frozenset(obj.get("set", ())),
                  bool(obj.get(limit_key, False)))


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


def updown(a, direction):
    """Order closure of a tame set in its own family's order."""
    E = engine_for(a.family)
    if direction == "up":
        return E.up(a)
    if direction == "down":
        return E.down(a)
    raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


def clop_sup_test(u):
    """Is a clopen tame upset a Scott upset? Guarded, family-dispatched."""
    E = engine_for(u.family)
    if not (tame_is_open(u) and tame_is_closed(u) and E.up(u) == u):
        raise NotClopenUpset(f"{E.describe_set(u)} is not a clopen upset")
    return E.clop_sup_test(u)


def load_descriptor(obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    return FanSpaceDescriptor(obj["family"])


# ---------------------------------------------------------------------
# fault-injection helpers (tests of the tests)
# ---------------------------------------------------------------------


def noncanonical_twin(a):
    """A semantically equal TameSet with a redundant exception entry.

    Bypasses the canonicalizing constructor on purpose: structural
    equality must now disagree with pointwise equality, and the
    canonical-form check in the verification suite has to flag it.
    """
    fresh = _fresh_index([i for i, _ in a.fan_exc])
    return TameSet(
        a.family, a.fan_default,
        tuple(sorted(list(a.fan_exc) + [(fresh, a.fan_default)])),
        a.spine, a.omega_star,
    )
