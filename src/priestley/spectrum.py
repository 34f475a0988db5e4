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
* structure: ``core``, ``points_with_up_inside``,
  ``sample_clopen_upsets``;
* rendering: ``name``, ``describe_set``, ``describe_family``;
* class attributes: ``infinite_min_yd_class``, the topology class of an
  infinite min Y_d (``None`` where min Y_d is never infinite), and
  ``min_yd_space_flags``, the stable-local-compactness flags of min Y_d.

The oracle's exhaustive checks also read ``poset``, ``n`` and
``all_upsets`` of a :class:`FiniteEngine`, and ``family`` and
``clop_sup_test`` of a fan engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InternalAssertionError,
    NotAnUpset,
    NotClopenUpset,
    NotClosed,
    NotLocalic,
    NotRepresentable,
)
from .poset import FinitePoset, _bits, _mask_union, upset_masks


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


def localic_points(E):
    """The localic part Y: points whose principal downset is clopen."""
    return E.localic_part()


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
        and subset(E, minimal_of(E, f), localic_points(E))
    )


def is_scott_upset(E, f):
    """Strict form: rejects non-upsets and non-closed sets."""
    if not is_upset_flag(E, f):
        raise NotAnUpset(f"{E.describe_set(f)} is not an upset")
    if not E.is_closed(f):
        raise NotClosed(f"{E.describe_set(f)} is not closed")
    return subset(E, minimal_of(E, f), localic_points(E))


def core(E, u):
    """Union of the clopen Scott upsets inside u."""
    _require_clopen_upset(E, u)
    return E.core(u)


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
    Y = localic_points(E)
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
        cached = E.select(localic_points(E), lambda y: yd_contains(E, y))
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
    return subset(E, E.meet(z, localic_points(E)), E.up(E.meet(z, min_yd(E))))


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
    Y = localic_points(E)
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
    """Antichain test for Y_d, max Y = Y_d, and the locally-Stone verdict.

    The two Boolean conditions are computed independently and asserted
    equal; the locally-Stone classification coincides with them (the
    regularity characterizations are equivalent), so it reports the
    same truth value.
    """
    yd = yd_set(E)
    antichain = E.meet(E.strict_up(yd), yd) == E.empty
    Y = localic_points(E)
    maxy_eq = maximal_of(E, Y) == yd
    if antichain != maxy_eq:
        raise InternalAssertionError(
            "Y_d antichain test disagrees with max Y = Y_d"
        )
    return {
        "antichain": antichain,
        "max_y_equals_yd": maxy_eq,
        "locally_stone": antichain,
    }


def classify_frame(E):
    """Algebraicity (cores dense) and arithmeticity (cores meet-stable).

    Finite engines check both exhaustively; symbolic engines validate
    the closed-form answer on a deterministic sample of clopen upsets.
    """
    samples = E.sample_clopen_upsets(24, seed=0)
    algebraic = True
    arithmetic = True
    for u in samples:
        if E.closure(E.core(u)) != u:
            algebraic = False
    for u in samples:
        for v in samples[: max(6, len(samples) // 4)]:
            lhs = E.meet(E.core(u), E.core(v))
            if lhs != E.core(E.meet(u, v)):
                arithmetic = False
    return {"algebraic": algebraic, "arithmetic": arithmetic}


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


def spectrum_report(E):
    """The full d-spectrum verdict, with all consistency checks applied."""
    yd = yd_set(E)
    m = min_yd(E)
    Y = localic_points(E)
    klass = topology_class(E)
    compact = scott_upset_flag(E, E.up(m))
    unit = unit_search(E)
    has_unit = unit["status"] == "witness"
    hausdorff = klass in ("discrete", "finite-discrete", "empty")
    reg = regularity_suite(E)
    ndd = max_bounded(E)
    flags = dict(E.min_yd_space_flags)

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
        l_d_regular=reg["locally_stone"],
        max_bounded=ndd,
        n_d_d_initial=ndd,
        maximal_d_upsets=(
            "empty family (min Y_d is empty)" if m == E.empty
            else E.describe_family([E.describe_set(s) for s in maximal_d_upsets(E)])
        ),
        min_yd_space_flags=flags,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """The d-spectrum verdict for one space.

    Three flags are definitions rather than separate computations:

    * ``t1`` is True by definition: min Y_d is an antichain, so its
      specialization order is trivial and the subspace is T1 (the
      registry's ``t1-min-yd`` check separates its points on every
      finite space).
    * ``n_d_d_initial`` is :func:`max_bounded`, the test that
      N_d = cl(Y_d) is d-initial, and ``max_bounded`` reports the same
      value through the theorem that the two are equivalent (checked
      literally by ``max-bounded-iff-d-initial`` on finite spaces).
    * ``l_d_regular`` is the antichain test of Y_d from
      :func:`regularity_suite`, which also computes max Y = Y_d
      independently and raises when the two disagree (the
      ``regularity-equivalences`` check compares both with literal
      L-regularity on finite spaces).
    """

    space: str
    localic_part: str
    y_d: str
    min_y_d: str
    topology_class: str
    t1: bool
    compact: bool
    hausdorff: bool
    has_unit: bool
    unit_witness: str | None
    unit_refutation: dict | None
    l_d_regular: bool
    max_bounded: bool
    n_d_d_initial: bool
    maximal_d_upsets: str
    min_yd_space_flags: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "space": self.space,
            "localic_part": self.localic_part,
            "y_d": self.y_d,
            "min_y_d": self.min_y_d,
            "topology_class": self.topology_class,
            "flags": {
                "t1": self.t1,
                "compact": self.compact,
                "hausdorff": self.hausdorff,
                "has_unit": self.has_unit,
                "l_d_regular": self.l_d_regular,
                "max_bounded": self.max_bounded,
                "n_d_d_initial": self.n_d_d_initial,
            },
            "unit_witness": self.unit_witness,
            "unit_refutation": self.unit_refutation,
            "maximal_d_upsets": self.maximal_d_upsets,
            "min_yd_space_flags": dict(sorted(self.min_yd_space_flags.items())),
        }

    def to_text(self):
        lines = [
            f"space:            {self.space}",
            f"localic part Y:   {self.localic_part}",
            f"Y_d:              {self.y_d}",
            f"min Y_d:          {self.min_y_d}",
            f"topology class:   {self.topology_class}",
            f"T1:               {self.t1}",
            f"compact:          {self.compact}",
            f"Hausdorff:        {self.hausdorff}",
            f"has unit:         {self.has_unit}",
        ]
        if self.unit_witness is not None:
            lines.append(f"unit witness:     {self.unit_witness}")
        if self.unit_refutation is not None:
            lines.append(
                f"unit refutation:  {self.unit_refutation['class']} "
                f"({self.unit_refutation['violated']})"
            )
        lines += [
            f"L_d regular:      {self.l_d_regular}",
            f"max-bounded:      {self.max_bounded}",
            f"N_d d-initial:    {self.n_d_d_initial}",
            f"maximal d-upsets: {self.maximal_d_upsets}",
            "min Y_d flags:    "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.min_yd_space_flags.items())),
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------
# the finite engine
# ---------------------------------------------------------------------


def _strict_union(rows, a):
    """The union of ``rows[i]`` without i itself, over the points i of a."""
    out = 0
    while a:
        low = a & -a
        out |= rows[low.bit_length() - 1] & ~low
        a ^= low
    return out


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
    # finite discrete space: locally compact, sober, coherent
    min_yd_space_flags = {"locally_compact": True, "sober": True, "coherent": True}

    def __init__(self, poset: FinitePoset):
        self.poset = poset
        n = poset.n
        self.n = n
        self.full = (1 << n) - 1
        self.empty = 0
        self._up_masks = poset.up
        self._down_masks = poset.down
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
        return isinstance(a, int) and 0 <= a <= self.full

    def up(self, a):
        return _mask_union(self._up_masks, a)

    def down(self, a):
        return _mask_union(self._down_masks, a)

    def strict_up(self, a):
        return _strict_union(self._up_masks, a)

    def strict_down(self, a):
        return _strict_union(self._down_masks, a)

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

    def sample_clopen_upsets(self, count, seed=0):
        return self.all_upsets()

    def is_finite_set(self, a):
        return True

    def describe_set(self, a):
        labs = sorted(self.poset.labels[i] for i in _bits(a))
        return "{" + ", ".join(labs) + "}"

    def describe_family(self, descriptions):
        return "; ".join(descriptions)

