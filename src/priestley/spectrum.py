"""Engine-generic d-spectrum machinery.

Everything here is written against a small engine contract rather than
a concrete space.  An engine supplies representable sets with exact
Boolean/topological/order primitives plus decidable membership of
symbolic point classes; the functions below derive the rest:

* Scott upsets (closed upsets whose minimal points are localic),
* the core of a clopen upset and the pointwise d-core
  ``core_d U = {x : up(x) inside down(core U)}``,
* the d-operator ``dU = cl(core_d U)`` (legitimate because d is an
  inductive nucleus, so the closure of the d-core is the d-image),
* the localic part ``Y_d`` of the d-nuclear set, selected by the
  criterion: y belongs to Y_d exactly when ``{y} = max(down(x) & Y)``
  for some maximal point x,
* ``min Y_d``, its topology class, maximal d-upsets, the nucleus
  ``rho U = X \\ down(cl(min Y_d) \\ U)`` whose nuclear set is
  ``cl(min Y_d)``, d-initial sets, units, and the full analysis report.

Two engines implement the contract: :class:`FiniteEngine` below (point
sets as bitmasks, closure is the identity, every upset is clopen Scott)
and the symbolic fan engines in :mod:`priestley.fans`.  All set-level
identities reduce to membership at symbolic point classes, which is
exact; there are no tolerances anywhere.

The engine contract, listed once: what this module, the oracle and the
command line ask of an engine.

* sets: ``full``, ``empty``, ``meet``, ``diff``, ``closure``,
  ``is_open``, ``is_closed``, ``is_representable``, ``is_finite_set``;
* order: ``up``, ``down``, ``strict_up``, ``strict_down``;
* points: ``point_set``, ``member_reps``, ``select``, ``localic_part``;
* structure: ``core``, ``points_with_up_inside``;
* rendering: ``name``, ``describe_set``, ``describe_family``;
* class attribute: ``infinite_min_yd_class``, the topology class of an
  infinite min Y_d (``None`` where min Y_d is never infinite).

The oracle's exhaustive checks also read ``poset``, ``n`` and
``all_upsets`` of a :class:`FiniteEngine`, and ``family``,
``clop_sup_test`` and ``sample_clopen_upsets`` of a fan engine.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    InternalAssertionError,
    NotClopenUpset,
    NotLocalic,
    NotRepresentable,
)
from .poset import FinitePoset, _bits, _Frozen, closure_tables, upset_masks


# ---------------------------------------------------------------------
# generic helpers over the engine contract
# ---------------------------------------------------------------------


def subset(E, a, b):
    return E.meet(a, b) == a


def is_upset_flag(E, a):
    return E.up(a) == a


def minimal_of(E, a):
    """Members of a with nothing of a strictly below them."""
    return E.diff(a, E.strict_up(a))


def maximal_of(E, a):
    return E.diff(a, E.strict_down(a))


def max_set(E):
    return maximal_of(E, E.full)


def is_clopen_upset(E, u):
    return E.is_open(u) and E.is_closed(u) and is_upset_flag(E, u)


def _require_clopen_upset(E, u):
    if not is_clopen_upset(E, u):
        raise NotClopenUpset(f"{E.describe_set(u)} is not a clopen upset")


def scott_upset_flag(E, f):
    """Closed upset whose minimal points are all localic (no errors)."""
    return (
        E.is_closed(f)
        and is_upset_flag(E, f)
        and subset(E, minimal_of(E, f), E.localic_part())
    )


def core_d(E, u):
    """Pointwise d-core: x qualifies when up(x) lies inside down(core u).

    The membership test is evaluated by the engine region by region
    (``points_with_up_inside``), never by sampling: the answer for a fan
    point depends on the exception structure of the downset, which a
    uniform representative cannot see.
    """
    _require_clopen_upset(E, u)
    dc = E.down(E.core(u))
    return E.points_with_up_inside(dc)


def d_apply(E, u):
    """The d-operator, computed as the closure of the d-core."""
    return E.closure(core_d(E, u))


def double_neg(E, u):
    """u** with u* = X \\ down(u); used to cross-check d on Scott upsets."""
    comp = lambda a: E.diff(E.full, E.down(a))
    return comp(comp(u))


def yd_contains(E, y):
    """Membership of a localic point class in Y_d.

    Criterion: some maximal point x has {y} as the set of maximal
    localic points below it.  Candidates are drawn from the
    representative classes of up(y) meeting max X; for the blob classes
    every point of the blob gives the same answer because their
    downsets agree outside the blob.
    """
    Y = E.localic_part()
    ps = E.point_set(y)
    if not subset(E, ps, Y):
        raise NotLocalic(f"{y} is not a localic point class")
    candidates = E.member_reps(E.meet(E.up(ps), max_set(E)))
    for x in candidates:
        t = E.meet(E.down(E.point_set(x)), Y)
        if maximal_of(E, t) == ps:
            return True
    return False


def yd_set(E):
    """Y_d as a representable set, cached on the engine."""
    cached = getattr(E, "_yd_cache", None)
    if cached is None:
        cached = E.select(E.localic_part(), lambda y: yd_contains(E, y))
        E._yd_cache = cached
    return cached


def min_yd(E):
    return minimal_of(E, yd_set(E))


def nd_set(E):
    """N_d = cl(Y_d): the nuclear set of the d-nucleus."""
    return E.closure(yd_set(E))


def maximal_d_upsets(E):
    """The family {X \\ down(y) : y in min Y_d}, one set per member class.

    The family is produced from min Y_d; on finite engines the oracle
    additionally verifies maximality directly among proper d-fixed
    upsets.
    """
    m = min_yd(E)
    return [
        E.diff(E.full, E.down(E.point_set(y)))
        for y in E.member_reps(m)
    ]


def rho_apply(E, u):
    """rho u = X \\ down(cl(min Y_d) \\ u).

    This is the nucleus induced by the nuclear set cl(min Y_d); its
    fixpoints form the frame of opens of min Y_d.
    """
    _require_clopen_upset(E, u)
    return E.diff(E.full, E.down(E.diff(rho_nuclear(E), u)))


def rho_nuclear(E):
    return E.closure(min_yd(E))


def d_initial_check(E, z):
    """z & Y inside up(z & min Y_d)."""
    if not E.is_representable(z):
        raise NotRepresentable("set is not representable on this engine")
    return subset(E, E.meet(z, E.localic_part()), E.up(E.meet(z, min_yd(E))))


def max_bounded(E):
    """Every proper d-fixed upset sits below a maximal one iff N_d is d-initial."""
    return d_initial_check(E, nd_set(E))


def unit_search(E):
    """Find a cofinal clopen Scott upset, or a refutation certificate.

    The whole space is cofinal and clopen, so it is a unit whenever it
    is a Scott upset.  Otherwise a maximal point class whose downset
    misses the localic part refutes every candidate: a cofinal Scott
    upset would need a localic minimal point below that class.
    """
    if scott_upset_flag(E, E.full):
        return {"status": "witness", "witness": E.full,
                "description": "the whole space is a cofinal clopen Scott upset"}
    Y = E.localic_part()
    for pt in E.member_reps(max_set(E)):
        if E.meet(E.down(E.point_set(pt)), Y) == E.empty:
            return {
                "status": "refutation",
                "certificate": pt,
                "description": (
                    f"maximal class {pt} has no localic point below it, so no "
                    "cofinal clopen Scott upset exists"
                ),
            }
    raise InternalAssertionError(
        "unit search resolved neither a witness nor a certificate"
    )


def regularity_suite(E):
    """Antichain test for Y_d and max Y = Y_d.

    The two Boolean conditions are computed independently and asserted
    equal; either one is the L_d-regularity verdict (the regularity
    characterizations are equivalent), which the report reads from
    ``antichain``.
    """
    yd = yd_set(E)
    antichain = E.meet(E.strict_up(yd), yd) == E.empty
    Y = E.localic_part()
    maxy_eq = maximal_of(E, Y) == yd
    if antichain != maxy_eq:
        raise InternalAssertionError(
            "Y_d antichain test disagrees with max Y = Y_d"
        )
    return {
        "antichain": antichain,
        "max_y_equals_yd": maxy_eq,
    }


def topology_class(E):
    """Classify the subspace topology of min Y_d.

    Empty and finite cases are decided generically; infinite cases use
    the engine's derived classification (each catalog family documents
    the derivation in :mod:`priestley.fans`).
    """
    m = min_yd(E)
    if m == E.empty:
        return "empty"
    if E.is_finite_set(m):
        return "finite-discrete"
    if E.infinite_min_yd_class is None:
        raise InternalAssertionError(
            f"min Y_d of {E.name} is infinite, which its family rules out"
        )
    return E.infinite_min_yd_class


# The stable-local-compactness flags of min Y_d, per topology class.
MIN_YD_SPACE_FLAGS = {
    # the empty space is vacuously locally compact, sober and coherent
    "empty": {"locally_compact": True, "sober": True, "coherent": True},
    # a discrete space, finite or infinite: its points are compact
    # opens (locally compact), it is Hausdorff (sober), and its compact
    # sets are the finite ones, closed under meets (coherent)
    "finite-discrete": {"locally_compact": True, "sober": True, "coherent": True},
    "discrete": {"locally_compact": True, "sober": True, "coherent": True},
    # cofinite topology on a countable set: every subset is compact
    # (locally compact, coherent), but the whole space is an
    # irreducible closed set with no generic point (not sober)
    "cofinite": {"locally_compact": True, "sober": False, "coherent": True},
}


def spectrum_report(E):
    """The full d-spectrum verdict, with all consistency checks applied."""
    yd = yd_set(E)
    m = min_yd(E)
    Y = E.localic_part()
    klass = topology_class(E)
    compact = scott_upset_flag(E, E.up(m))
    unit = unit_search(E)
    has_unit = unit["status"] == "witness"
    hausdorff = klass in ("discrete", "finite-discrete", "empty")
    reg = regularity_suite(E)
    ndd = max_bounded(E)
    flags = dict(MIN_YD_SPACE_FLAGS[klass])

    # cross-checks: these hold structurally and failing any of them
    # indicates a bug, never expected input
    if has_unit and not compact:
        raise InternalAssertionError("unit found but min Y_d not compact")
    if ndd and (compact != has_unit):
        raise InternalAssertionError(
            "N_d is d-initial, so compactness must match unit existence"
        )
    if klass == "cofinite" and hausdorff:
        raise InternalAssertionError("cofinite on an infinite carrier is not Hausdorff")
    if all(flags.values()) and not hausdorff:
        raise InternalAssertionError(
            "stably locally compact min Y_d must be Hausdorff (it is T1)"
        )

    return AnalysisReport(
        space=E.name,
        localic_part=E.describe_set(Y),
        y_d=E.describe_set(yd),
        min_y_d=E.describe_set(m),
        topology_class=klass,
        t1=True,
        compact=compact,
        hausdorff=hausdorff,
        has_unit=has_unit,
        unit_witness=E.describe_set(unit["witness"]) if has_unit else None,
        unit_refutation=None if has_unit else {
            "class": str(unit["certificate"]),
            "violated": "no localic point below this maximal class",
        },
        l_d_regular=reg["antichain"],
        max_bounded=ndd,
        n_d_d_initial=ndd,
        maximal_d_upsets=(
            "empty family (min Y_d is empty)" if m == E.empty
            else E.describe_family([E.describe_set(s) for s in maximal_d_upsets(E)])
        ),
        min_yd_space_flags=flags,
    )


def _shown(name, label, flag=False, text=str):
    """A report field: its name, its text label (``None`` values are
    left out of the text), whether the JSON groups it under ``flags``,
    and its text rendering."""
    return name, label, flag, text


# The report's fields in order, each declared once: the namedtuple's
# fields, the text lines and the JSON keys are read from here.  Three
# flags are definitions rather than separate computations; the comment
# at each says why.
_LAYOUT = (
    _shown("space", "space"),
    _shown("localic_part", "localic part Y"),
    _shown("y_d", "Y_d"),
    _shown("min_y_d", "min Y_d"),
    _shown("topology_class", "topology class"),
    # True by definition: min Y_d is an antichain, so its specialization
    # order is trivial and the subspace is T1 (the registry's
    # ``t1-min-yd`` check separates its points on every finite space)
    _shown("t1", "T1", flag=True),
    _shown("compact", "compact", flag=True),
    _shown("hausdorff", "Hausdorff", flag=True),
    _shown("has_unit", "has unit", flag=True),
    _shown("unit_witness", "unit witness"),
    _shown("unit_refutation", "unit refutation",
           text=lambda r: f"{r['class']} ({r['violated']})"),
    # the antichain test of Y_d from :func:`regularity_suite`, which also
    # computes max Y = Y_d independently and raises when the two
    # disagree (``regularity-equivalences`` compares both with literal
    # L-regularity on finite spaces)
    _shown("l_d_regular", "L_d regular", flag=True),
    # the next field's value, carried through the theorem that the two
    # are equivalent (checked literally by ``max-bounded-iff-d-initial``
    # on finite spaces)
    _shown("max_bounded", "max-bounded", flag=True),
    # :func:`max_bounded`, the test that N_d = cl(Y_d) is d-initial
    _shown("n_d_d_initial", "N_d d-initial", flag=True),
    _shown("maximal_d_upsets", "maximal d-upsets"),
    _shown("min_yd_space_flags", "min Y_d flags",
           text=lambda f: ", ".join(f"{k}={v}" for k, v in sorted(f.items()))),
)


class AnalysisReport(_Frozen, namedtuple("AnalysisReport", [f[0] for f in _LAYOUT])):
    """The d-spectrum verdict for one space.

    ``_LAYOUT`` is the report's layout: ``to_text`` prints one labelled
    line per field in that order, and ``to_json_dict`` keeps each field
    at top level or under ``flags``.  A new field is one entry there and
    one keyword in :func:`spectrum_report`.
    """

    __slots__ = ()

    def to_json_dict(self):
        out = {}
        for (name, _, flag, _), value in zip(_LAYOUT, self):
            if isinstance(value, dict):
                value = dict(sorted(value.items()))
            (out.setdefault("flags", {}) if flag else out)[name] = value
        return out

    def to_text(self):
        return "\n".join(
            f"{label + ':':<18}{text(value)}"
            for (_, label, _, text), value in zip(_LAYOUT, self)
            if value is not None)


# ---------------------------------------------------------------------
# the finite engine
# ---------------------------------------------------------------------


class FiniteEngine:
    """Engine over a finite poset; point sets are integer bitmasks.

    A finite Priestley space is discrete, so closure is the identity,
    every subset is clopen, every point is localic, and every upset is
    a clopen Scott upset.  The d-operator collapses to double negation
    and Y_d to max X; both collapses are cross-checked in the oracle
    rather than assumed.
    """

    # finite spaces have no infinite min Y_d
    infinite_min_yd_class = None

    def __init__(self, poset: FinitePoset):
        self.poset = poset
        n = poset.n
        self.n = n
        self.full = (1 << n) - 1
        self.empty = 0
        self._up_masks = poset.up
        self._tables = closure_tables(poset)
        self.name = f"finite poset on {{{', '.join(poset.labels)}}}"

    # -- set primitives ----------------------------------------------

    def meet(self, a, b):
        return a & b

    def diff(self, a, b):
        return a & ~b

    def closure(self, a):
        return a

    def is_open(self, a):
        return True

    def is_closed(self, a):
        return True

    def is_representable(self, a):
        # a bool is an int, but not a point mask (as in poset.mask_of)
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a <= self.full

    def up(self, a):
        return self._tables.up[a]

    def down(self, a):
        return self._tables.down[a]

    def strict_up(self, a):
        return self._tables.strict_up[a]

    def strict_down(self, a):
        return self._tables.strict_down[a]

    # -- points and classes ------------------------------------------

    def point_set(self, pt):
        return 1 << pt

    def member_reps(self, a):
        return list(_bits(a))

    def select(self, a, pred):
        out = 0
        for i in _bits(a):
            if pred(i):
                out |= 1 << i
        return out

    def localic_part(self):
        return self.full

    # -- structure ----------------------------------------------------

    def core(self, u):
        # every upset of a finite space is a clopen Scott upset
        return u

    def points_with_up_inside(self, d):
        # a point whose upset lies in d lies in d: only d's points qualify
        out = 0
        rest = d
        while rest:
            low = rest & -rest
            if self._up_masks[low.bit_length() - 1] & ~d == 0:
                out |= low
            rest ^= low
        return out

    def all_upsets(self):
        return list(upset_masks(self.poset))

    def is_finite_set(self, a):
        return True

    def describe_set(self, a):
        labs = sorted(self.poset.labels[i] for i in _bits(a))
        return "{" + ", ".join(labs) + "}"

    def describe_family(self, descriptions):
        return "; ".join(descriptions)

