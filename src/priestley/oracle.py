"""Exhaustive small-instance verifier for every structural identity.

Finite posets stand in for Priestley spaces, their upset lattices for
frames.  Every poset up to the bound (six points by default, seven at
most) is generated once per isomorphism class, each size from the one
below by adding a new maximal point (``poset.one_point_extensions``;
the oracle keeps each size in its memo), and each registered check
evaluates both sides of one identity on every instance: nothing is
assumed from theory, including the finite-case collapses (d = double
negation, Y_d = max X, every nuclear set inductive, L_d always
regular) — the collapsed form and the literal form are always computed
separately and compared.

Each check is written once, for one instance, and registered with its
theorem id and the kind of instance it takes.  It returns None when its
identity holds, or the witness of the first counterexample it meets;
one case loop turns instances into cases, and the runner goes one poset
at a time.  Checks over all nuclear subsets are capped at four points
(the object count is exponential squared); purely structural checks run
at the full bound.

The laws of d and of the core are coded once, on the engine contract
alone (:func:`_nucleus_laws`, :func:`_core_laws`), and run on both
kinds of engine: d-nucleus-laws and arithmetic-core-law over every
upset of a finite engine, fan-d-laws over the seeded samples of each
fan family.  Each engine check's docstring names its kind: (a) a law
of every arithmetic frame over its clopen (Scott) upsets, which any
finite family of them tests; (b) a finite collapse, false or empty on
a fan engine; (c) an extremal or existential statement, which needs
the whole space.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple
from itertools import product

from . import spectrum as sp
from .birkhoff import (
    clopen_upset_lattice,
    priestley_dual,
    prime_filters,
    stone_map,
    validate_lattice,
)
from .errors import (
    BoundExceeded,
    EmptySelection,
    InternalAssertionError,
    UnknownTheoremId,
    WorkbenchError,
)
from .fans import (
    FAMILIES,
    engine_for,
    tame_complement,
    tame_is_closed,
    tame_is_open,
    tame_join,
    tame_meet,
)
from .nuclei import (
    NuclearSet,
    Nucleus,
    _maximal_mask,
    admissible_upset,
    booleanization,
    density_check,
    double_negation,
    nuclear_of_nucleus,
    nucleus_of_nuclear,
    nucleus_of_sublocale,
    sublocale_of_nucleus,
    unmoved_points,
)
from .poset import (FinitePoset, _bits, _Frozen, _mask, _mask_union, _table,
                    closure_tables, drop_tables, one_point_extensions,
                    sub_upset_unions, upset_index, upset_masks,
                    upset_meet_splits)

DEFAULT_BOUND = 6
MAX_BOUND = 7
NUCLEI_BOUND = 4
SAMPLE_COUNT = 60
DEFAULT_SEED = 2024


class TheoremCase(_Frozen, namedtuple(
        "TheoremCase", "theorem_id instance status witness", defaults=(None,))):
    """One check on one instance: ``status`` is "verified" or "failed",
    and a failed case names its ``witness``."""

    __slots__ = ()

    def ok(self):
        return self.status == "verified"


# ---------------------------------------------------------------------
# poset enumeration
# ---------------------------------------------------------------------

_POSET_MEMO = {}


def enumerate_posets(n_points):
    """All posets with exactly n_points points, up to isomorphism.

    Each size is generated once, by one-point extension of the size
    below (:func:`poset.one_point_extensions`), and memoized.  Output is
    deterministic: canonical labels, sorted by canonical key.
    """
    if n_points > MAX_BOUND:
        raise BoundExceeded(f"{n_points} exceeds the configured bound {MAX_BOUND}")
    return list(_posets_of_size(n_points))


def _posets_of_size(n):
    """The n-point posets of :func:`enumerate_posets`, memoized for n >= 1."""
    if n <= 0:
        return ()
    if n not in _POSET_MEMO:
        _POSET_MEMO[n] = one_point_extensions(_posets_of_size(n - 1))
    return _POSET_MEMO[n]


def posets_up_to(bound):
    """All posets with 1..bound points, sizes ascending."""
    out = []
    for n in range(1, bound + 1):
        out.extend(enumerate_posets(n))
    return out


# ---------------------------------------------------------------------
# the case loop and the registry
# ---------------------------------------------------------------------

CHECKS = {}
KINDS = {}
INSTANCE_KINDS = ("poset", "lattice", "engine", "nuclei", "fan")


def _cases(tid, check, instances):
    """One case per (label, args) instance: verified when ``check(*args)``
    returns None, else failed with the returned witness.  An error raised
    while checking one instance fails that case with its message."""
    cases = []
    for label, args in instances:
        try:
            witness = check(*args)
        except (WorkbenchError, ValueError) as e:
            witness = str(e)
        status = "verified" if witness is None else "failed"
        cases.append(TheoremCase(tid, label, status, witness))
    return cases


def _register(tid, kind):
    """Register a check of one instance under ``tid``.  It returns None
    when the identity holds there, or the witness of the first
    counterexample it meets.  ``CHECKS[tid]`` maps a list of (label,
    args) instances to its cases, and ``KINDS[tid]``, one of
    ``INSTANCE_KINDS`` (another kind raises ValueError), says what
    :func:`run_suite` passes as args: the poset (``"poset"``), the
    poset as a ``DistLattice`` when it is one (``"lattice"``), its
    ``FiniteEngine`` (``"engine"``), a poset of at most
    ``NUCLEI_BOUND`` points, whose nuclei the check reads from
    :func:`_nuclei_of_subsets` (``"nuclei"``), or a fan engine and the
    sample seed (``"fan"``).  The check is returned unchanged."""
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r} for {tid!r}")

    def register(check):
        KINDS[tid] = kind
        CHECKS[tid] = functools.partial(_cases, tid, check)
        return check
    return register


def _instances(P, kinds):
    """The instances of the given kinds that poset P yields, by kind: a
    poset that is not a lattice yields no ``"lattice"`` instance."""
    label = repr(P)
    out = {"poset": [(label, (P,))]}
    if "lattice" in kinds:
        try:
            out["lattice"] = [(label, (validate_lattice(P),))]
        except WorkbenchError:
            pass
    if "engine" in kinds:
        E = sp.FiniteEngine(P)
        out["engine"] = [(label, (E,))]
    if "nuclei" in kinds and P.n <= NUCLEI_BOUND:
        out["nuclei"] = out["poset"]
    return out


# ---------------------------------------------------------------------
# finite checks
# ---------------------------------------------------------------------


@_register("duality-round-trip", "poset")
def check_duality_round_trip(P):
    """Space -> lattice -> space: x maps to the principal upset of x, an
    order isomorphism of P onto the prime filters of its upset lattice."""
    L = clopen_upset_lattice(P)
    X2, ji = prime_filters(L)
    member_index = upset_index(P)
    dual_index = {e: i for i, e in enumerate(ji)}
    send = [dual_index.get(member_index.get(P.up[x])) for x in range(P.n)]
    if X2.n != P.n or set(send) != set(range(P.n)):
        return "space round trip failed"
    for x in range(P.n):
        for y in range(P.n):
            if P.le(x, y) != X2.le(send[x], send[y]):
                return "space round trip failed"


@_register("stone-embedding", "lattice")
def check_stone_embedding(D):
    """Lattice -> space -> lattice: the Stone map is a lattice isomorphism
    of D onto the upsets of its dual (Birkhoff), onto them, order
    reflecting, and taking D's meet and join tables to intersections and
    unions."""
    images = [stone_map(D, a).mask for a in range(D.n)]
    if sorted(images) != sorted(upset_masks(priestley_dual(D))):
        return "stone map is not a bijection"
    meet, join = D.meet, D.join
    for a, phi_a in enumerate(images):
        for b, phi_b in enumerate(images):
            if D.le(a, b) != (phi_a & ~phi_b == 0):
                return f"elements {D.labels[a]},{D.labels[b]}"
            if (images[meet[a][b]] != phi_a & phi_b
                    or images[join[a][b]] != phi_a | phi_b):
                return f"table mismatch at {D.labels[a]},{D.labels[b]}"


@_register("priestley-separation", "poset")
def check_priestley_separation(P):
    """Points x not below y are told apart by an upset holding x and not
    y: the least upset holding x, the meet of the enumerated upsets that
    hold it (not the order row of x)."""
    ups = upset_masks(P)
    for x in range(P.n):
        least = functools.reduce(int.__and__, (u for u in ups if u >> x & 1), -1)
        for y in range(P.n):
            if not P.le(x, y) and (not least >> x & 1 or least >> y & 1):
                return f"{P.labels[x]} vs {P.labels[y]}"


@_register("join-meet-formulas", "engine")
def check_join_meet_formulas(E):
    """Frame joins are closures of unions and meets the interior formula;
    in the finite case both collapse to union and intersection.  Each
    formula is computed once per distinct argument mask and every pair
    compared by lookup.

    Kind (a): joins and meets of two clopen upsets, a law of every
    arithmetic frame, so any finite family of clopen upsets tests it."""
    ups = E.all_upsets()
    closure = {w: E.closure(w) for w in {u | v for u in ups for v in ups}}
    interior = {w: sp.implies(E, E.full, w) for w in {u & v for u in ups for v in ups}}
    for u in ups:
        for v in ups:
            if closure[u | v] != (u | v):
                return f"join formula at {E.describe_set(u)}, {E.describe_set(v)}"
            if interior[u & v] != u & v:
                return f"meet formula at {E.describe_set(u)}, {E.describe_set(v)}"


@_register("heyting-adjunction", "engine")
def check_heyting_adjunction(E):
    """W & U <= V iff W <= U -> V, for all upsets.  For each (U, V)
    both sides are computed as the whole set of W that satisfy them, a
    bitset over upset indices: ``avoiding[m]``, the upsets disjoint from
    the point mask m, is the AND of ``missing[p]`` (the upsets without
    point p) over the points of m, tabulated once for every m.  U* is
    compared with the largest upset disjoint from U, the union of the
    upsets in ``avoiding[U]``.

    Kind (a): every frame is a Heyting algebra.  One caveat: U -> V is
    X \\ down(U \\ V), a clopen upset, only where down of a clopen set
    is clopen; on a fan engine that is a property of the family's down
    rule, to be checked before the law is run there.  U* as the largest
    upset disjoint from U also reads every upset."""
    ups = E.all_upsets()
    missing = [0] * E.n
    for k, w in enumerate(ups):
        for p in _bits(E.full & ~w):
            missing[p] |= 1 << k
    avoiding = [(1 << len(ups)) - 1] * (1 << E.n)
    for m in range(1, 1 << E.n):
        low = m & -m
        avoiding[m] = avoiding[m ^ low] & missing[low.bit_length() - 1]

    # U -> V = (U \ V) -> empty: one implication per distinct difference
    implied = {w: sp.implies(E, w, E.empty) for w in {u & ~v for u in ups for v in ups}}
    for u in ups:
        if sp.pseudocomplement(E, u) != _mask_union(ups, avoiding[u]):
            return f"U* != U -> empty at {E.describe_set(u)}"
        for v in ups:
            if avoiding[u & ~v] != avoiding[E.full & ~implied[u & ~v]]:
                return f"adjunction at {E.describe_set(u)}, {E.describe_set(v)}"


@_table
def _nuclei_of_subsets(P):
    """(N, j_N) for every point subset N of P, as masks, ascending: a
    table of P, so the nuclei checks of one run share the list and only
    read it.  An error is not kept: each check that asks again fails its
    own case with it."""
    return [(members, nucleus_of_nuclear(NuclearSet._of_mask(P, members)))
            for members in range(1 << P.n)]


@_register("nuclei-galois", "nuclei")
def check_nuclei_galois(P):
    for members, j in _nuclei_of_subsets(P):
        if nuclear_of_nucleus(j).mask != members:
            return f"subset {list(_bits(members))}"
        if nucleus_of_nuclear(nuclear_of_nucleus(j)) != j:
            return f"nucleus of {list(_bits(members))}"


@_register("nuclei-order-reversal", "nuclei")
def check_nuclei_order_reversal(P):
    js = [j for _, j in _nuclei_of_subsets(P)]
    for a in range(1 << P.n):
        for b in range(1 << P.n):
            if (a & ~b == 0) != js[b].leq(js[a]):
                return f"{list(_bits(a))} vs {list(_bits(b))}"


@_register("upset-Nj-eq-Fj", "nuclei")
def check_upset_nj_eq_fj(P):
    """The admissible upset of a nucleus is the up-closure of its nuclear set."""
    up = closure_tables(P).up
    for members, j in _nuclei_of_subsets(P):
        try:
            h = admissible_upset(j)
        except InternalAssertionError:
            return f"subset {list(_bits(members))}"
        if _mask(h) != up[members]:
            return f"subset {list(_bits(members))}"


@_register("dense-iff-cofinal", "nuclei")
def check_dense_iff_cofinal(P):
    maxx = _maximal_mask(P)
    for members, j in _nuclei_of_subsets(P):
        dense = j.masks[0] == 0
        cofinal = maxx & ~members == 0
        if dense != cofinal:
            return f"subset {list(_bits(members))}"


@_register("max-least-cofinal", "nuclei")
def check_max_least_cofinal(P):
    """max X is a nuclear set, cofinal, and contained in every cofinal one."""
    maxx = _maximal_mask(P)
    if nuclear_of_nucleus(double_negation(P)).mask != maxx:
        return "double negation nuclear set"
    for members, j in _nuclei_of_subsets(P):
        if maxx & ~members == 0:
            continue
        # not cofinal: fine; cofinal ones must contain max X, which
        # is immediate from the definition, so check the dense side
        if density_check(j)["dense"]:
            return f"dense nucleus from {list(_bits(members))}"


@_register("booleanization-sublocale", "nuclei")
def check_booleanization(P):
    """Fixpoints of double negation form a sublocale inside every dense one."""
    try:
        booleans = {_mask(u) for u in booleanization(P)}
    except InternalAssertionError:
        return "sublocale laws"
    for members, j in _nuclei_of_subsets(P):
        if density_check(j)["dense"]:
            fix = {u for u, v in j.masks.items() if u == v}
            if not booleans <= fix:
                return f"dense nucleus from {list(_bits(members))}"


@_register("lemma-nj-restrict", "nuclei")
def check_lemma_nj_restrict(P):
    """U and jU agree when restricted to the nuclear set."""
    for members, j in _nuclei_of_subsets(P):
        for u, v in j.masks.items():
            if u & members != v & members:
                return f"{list(_bits(members))} at {list(_bits(u))}"


@_register("sublocale-roundtrip", "nuclei")
def check_sublocale_roundtrip(P):
    for members, j in _nuclei_of_subsets(P):
        if nucleus_of_sublocale(P, sublocale_of_nucleus(j)) != j:
            return f"subset {list(_bits(members))}"


@_register("inductive-core-collapse", "nuclei")
def check_inductive_core_collapse(P):
    """Every nuclear set of a finite space is inductive, witnessed on
    both sides: up(F & N) is a Scott upset for every Scott upset F, and
    jU equals the closure of the union of jV over upsets V inside U (a
    lower-cover union, :func:`sub_upset_unions`)."""
    ups = upset_masks(P)
    up = closure_tables(P).up
    for members, j in _nuclei_of_subsets(P):
        for f in ups:
            lifted = up[f & members]
            if up[lifted] != lifted:
                return f"{list(_bits(members))}, F={list(_bits(f))}"
        images = list(j.masks.values())
        for u, union, image in zip(ups, sub_upset_unions(P, images), images):
            if union != image:
                return f"{list(_bits(members))}, U={list(_bits(u))}"


# ---------------------------------------------------------------------
# the laws of d and of the core, on the engine contract
# ---------------------------------------------------------------------


def _nucleus_laws(E, d, universe, pairs):
    """The witness of the first nucleus law that ``d``, a function on
    the clopen upsets of engine E, breaks, or None: for each U of
    ``universe``, a list of clopen upsets, dU is a clopen upset holding
    U (tested when dU is not in the list) and d(dU) = dU; for each
    (U, V) of ``pairs`` d(U & V) = dU & dV; and d(empty) = empty (d is
    dense).  It reads only names of the engine contract, so it runs the
    same on finite and fan engines."""
    members = set(universe)
    for u in universe:
        du = d(u)
        if not sp.subset(E, u, du):
            return f"not inflationary at {E.describe_set(u)}"
        if du not in members and not sp.is_clopen_upset(E, du):
            return f"{E.describe_set(du)} is not a clopen upset"
        if d(du) != du:
            return f"not idempotent at {E.describe_set(u)}"
    meet = E.meet
    for u, v in pairs:
        if d(meet(u, v)) != meet(d(u), d(v)):
            return f"meet law at {E.describe_set(u)} & {E.describe_set(v)}"
    if d(E.empty) != E.empty:
        return "d is not dense"


def _core_laws(E, universe, head):
    """The witness of the first law of the core that fails on engine E,
    or None: for each U of ``universe`` core U is dense in U (its
    closure is U) and is the upset of its localic points, as a Scott
    upset is the upset of its minimal points, all localic; for each
    ordered pair U, V of ``head``, members of ``universe``, core(U & V)
    = core U & core V.  Each core is computed once, and only names of
    the engine contract are read."""
    cores = {u: E.core(u) for u in universe}
    Y = sp.localic_part(E)
    for u, cu in cores.items():
        if E.closure(cu) != u:
            return f"core not dense at {E.describe_set(u)}"
        if E.up(E.meet(cu, Y)) != cu:
            return f"core not generated by localic points at {E.describe_set(u)}"
    meet = E.meet
    with_cores = [(u, cores[u]) for u in head]
    for u, cu in with_cores:
        for v, cv in with_cores:
            uv = meet(u, v)
            try:
                core_uv = cores[uv]
            except KeyError:
                core_uv = cores[uv] = E.core(uv)
            if core_uv != meet(cu, cv):
                return f"core meet law at {E.describe_set(u)} & {E.describe_set(v)}"


@_table
def _d_table(E):
    """dU for every upset, via the closure-of-union-of-double-negations
    form (the union ranges over all upsets inside U: in the finite case
    every upset is a clopen Scott upset), taken over lower covers.  A
    table of the engine, like Y_d; callers only read it."""
    ups = E.all_upsets()
    unions = sub_upset_unions(E.poset, [sp.double_neg(E, v) for v in ups])
    return {u: E.closure(acc) for u, acc in zip(ups, unions)}


def _d_fixed_upsets(E, ups, table):
    """The proper d-fixed upsets and the maximal ones among them."""
    proper = [u for u in ups if table[u] == u and u != E.full]
    maximal = [
        u for u in proper
        if not any(u != v and u & ~v == 0 for v in proper)
    ]
    return proper, maximal


@_register("d-is-double-negation", "engine")
def check_d_is_double_negation(E):
    """The three computations of d agree: union form, U**, cl(core_d).

    Kind (b): dU = U** is the finite collapse; on a fan engine it holds
    on the clopen Scott upsets only (fan-d-laws checks it there)."""
    table = _d_table(E)
    for u in E.all_upsets():
        a, b, c = table[u], sp.double_neg(E, u), sp.d_apply(E, u)
        if not (a == b == c):
            return E.describe_set(u)


@_register("d-nucleus-laws", "engine")
def check_d_nucleus_laws(E):
    """The d table is a dense nucleus, by :func:`_nucleus_laws` over
    every upset.  Its meet law is read on the splits U = V & M of
    :func:`upset_meet_splits`, one pair per upset: once d(X) = X, which
    inflation gives, they decide it, by the induction in the docstring
    of :class:`~priestley.nuclei.Nucleus`.  The table must first be
    total, so that every lookup the laws make finds an image.

    Kind (a): the nucleus laws, which d obeys on every arithmetic frame;
    fan-d-laws runs the same :func:`_nucleus_laws` on tame samples."""
    table, ups = _d_table(E), E.all_upsets()
    if table.keys() != set(ups):
        return "table must be total on the upsets of the space"
    return _nucleus_laws(E, table.__getitem__, ups,
                         [(v, m) for _, v, m in upset_meet_splits(E.poset)])


@_register("core-d-forms", "engine")
def check_core_d_forms(E):
    """Pointwise d-core equals the union of dV over upsets V inside U.

    Kind (c): the union ranges over every upset inside U, an existential
    statement that only the whole space decides."""
    ups = E.all_upsets()
    table = _d_table(E)
    unions = sub_upset_unions(E.poset, [table[u] for u in ups])
    for u, union in zip(ups, unions):
        if union != sp.core_d(E, u):
            return E.describe_set(u)


@_register("eqv-conditions-rmax", "engine")
def check_eqv_conditions_rmax(E):
    """The four characterizations of Y_d select the same points.

    Kind (c): forms (1) to (3) quantify over every upset, so a sample
    cannot decide them."""
    ups = E.all_upsets()
    table = _d_table(E)
    # (1) points that cannot tell dU from U (the nuclear set, which
    # on the localic part is Y_d; here every point is localic)
    c1 = unmoved_points(table, E.full)
    # (2) membership of core_d U forces membership of U
    c2 = unmoved_points({u: sp.core_d(E, u) for u in ups}, E.full)
    # (3) every clopen Scott upset catching max(up(x)) catches x
    c3 = 0
    for x in range(E.n):
        mx = sp.maximal_of(E, E.up(1 << x))
        if all(not mx & ~v == 0 or v >> x & 1 for v in ups):
            c3 |= 1 << x
    # (4) singleton maximum below some maximal point
    c4 = sp.yd_set(E)
    if not c1 == c2 == c3 == c4:
        return (f"(1)={E.describe_set(c1)} (2)={E.describe_set(c2)} "
                f"(3)={E.describe_set(c3)} (4)={E.describe_set(c4)}")


@_register("max-y-in-yd", "engine")
def check_max_y_in_yd(E):
    """The maximal localic points lie in Y_d.

    Kind (c): an extremal statement, about the maximal points of Y."""
    maxy = sp.maximal_of(E, sp.localic_part(E))
    if maxy & ~sp.yd_set(E):
        return E.describe_set(maxy)


def _subposet(P, members):
    """Induced subposet on a subset of points."""
    members = sorted(members)
    return FinitePoset([P.labels[i] for i in members],
                       [_mask(b for b, y in enumerate(members) if P.up[x] >> y & 1)
                        for x in members])


@_register("regularity-equivalences", "engine")
def check_regularity_equivalences(E):
    """Y_d antichain, max Y = Y_d, and L-regularity of the d-nuclear
    subspace (the regular part of every upset is the upset itself).

    Kind (b): on a finite space L_d is always regular, so all three
    conditions hold; on the fans they take both values."""
    reg = sp.regularity_suite(E)
    sub = _subposet(E.poset, _bits(sp.nd_set(E)))
    lreg = True
    upsets = upset_masks(sub)
    down = closure_tables(sub).down
    for u in upsets:
        regpart = 0
        for v in upsets:
            if down[v] & ~u == 0:
                regpart |= v
        if regpart != u:
            lreg = False
    if not reg["antichain"] == reg["max_y_equals_yd"] == lreg:
        return f"suite={reg}, l_regular={lreg}"


@_register("min-yd-max-d-upsets", "engine")
def check_min_yd_max_d_upsets(E):
    """Maximal proper d-fixed upsets are exactly the complements of
    downsets of min Y_d points, bijectively.

    Kind (c): maximality among all proper d-fixed upsets is extremal."""
    _, maximal = _d_fixed_upsets(E, E.all_upsets(), _d_table(E))
    expected = sp.maximal_d_upsets(E)
    if sorted(maximal) != sorted(expected):
        return (f"maximal={[E.describe_set(u) for u in maximal]} "
                f"expected={[E.describe_set(u) for u in expected]}")
    if len(expected) != len(set(expected)) or len(expected) != bin(
        sp.min_yd(E)
    ).count("1"):
        return "not a bijection"


@_register("min-yd-homeomorphism", "engine")
def check_min_yd_homeomorphism(E):
    """The bijection transports the subspace topology of min Y_d onto
    the hull-kernel opens of the maximal d-fixed upsets.

    The sides share nothing: each maximal d-fixed upset w of the d table
    (:func:`_d_fixed_upsets`) is paired with the one maximal point y
    outside it, the hull-kernel open of u holds each y whose w does not
    hold u, and only the subspace opens ``u & min Y_d`` read min Y_d.

    Kind (c): both topologies are families over every upset, which
    only the whole space supplies."""
    m = sp.min_yd(E)
    ups = E.all_upsets()
    _, maximal = _d_fixed_upsets(E, ups, _d_table(E))
    pairs = []
    for w in maximal:
        outside = E.member_reps(sp.maximal_of(E, E.diff(E.full, w)))
        if len(outside) != 1:
            return f"{E.describe_set(w)} leaves out {len(outside)} maximal points"
        pairs.append((outside[0], w))
    subspace_opens = {u & m for u in ups}
    hull_kernel_opens = {_mask(y for y, w in pairs if u & ~w) for u in ups}
    if subspace_opens != hull_kernel_opens:
        return f"open families differ on {E.describe_set(m)}"


@_register("rho-forms", "engine")
def check_rho_forms(E):
    """Three computations of rho agree and its nuclear set is cl(min Y_d):
    the closure-of-union display, the nucleus of the nuclear set, and
    the meet over the maximal d-fixed upsets above the argument.

    Kind (c): the display is a union over every upset, and the meet
    form ranges over the maximal d-fixed upsets."""
    m = sp.min_yd(E)
    maxd = sp.maximal_d_upsets(E)
    ups = E.all_upsets()
    table = {}
    for u in ups:
        display = 0
        for v in ups:
            if v & m & ~u == 0:
                display |= v
        display = E.closure(display)
        via_nuclear = sp.rho_apply(E, u)
        meet_form = E.full
        for w in maxd:
            if u & ~w == 0:
                meet_form &= w
        if not (display == via_nuclear == meet_form):
            return E.describe_set(u)
        table[u] = via_nuclear
    if nuclear_of_nucleus(Nucleus(E.poset, table)).mask != E.closure(m):
        return "nuclear set of rho"


@_register("compacts-d-initial", "engine")
def check_compacts_d_initial(E):
    """Subsets of min Y_d (all compact here) correspond to d-initial
    Scott upsets by K -> up(K), an order isomorphism; the d-initial
    Scott upsets are enumerated independently.

    Kind (c): a bijection between two whole families, each enumerated
    over the space."""
    m = sp.min_yd(E)
    d_initial = [
        f for f in E.all_upsets()
        if sp.scott_upset_flag(E, f) and sp.d_initial_check(E, f)
    ]
    ks = []
    mbits = [i for i in range(E.n) if m >> i & 1]
    for bits in range(1 << len(mbits)):
        k = 0
        for pos, i in enumerate(mbits):
            if bits >> pos & 1:
                k |= 1 << i
        ks.append(k)
    images = [E.up(k) for k in ks]
    if sorted(images) != sorted(d_initial):
        return "families differ"
    pairs = list(zip(ks, images))
    for k, up_k in pairs:
        if up_k & m != k:
            return f"K={E.describe_set(k)}"
    for a, up_a in pairs:
        for b, up_b in pairs:
            if (a & ~b == 0) != (up_a & ~up_b == 0):
                return "order not preserved"


@_register("max-bounded-iff-d-initial", "engine")
def check_max_bounded_iff_d_initial(E):
    """Every proper d-fixed upset below a maximal one iff N_d is d-initial.

    Kind (c): an extremal statement, over the maximal d-fixed upsets."""
    proper, maximal = _d_fixed_upsets(E, E.all_upsets(), _d_table(E))
    literal = all(
        any(u & ~w == 0 for w in maximal) for u in proper
    )
    if literal != sp.max_bounded(E):
        return f"literal={literal}"


@_register("unit-criteria", "engine")
def check_unit_criteria(E):
    """Units: a cofinal clopen Scott upset exists iff one contains Y_d;
    both imply up(min Y_d) is a Scott upset; with N_d d-initial all the
    conditions coincide (always the case on finite spaces).

    Kind (c): the existence of a unit needs the whole space."""
    ups = E.all_upsets()
    maxx = sp.max_set(E)
    yd = sp.yd_set(E)
    cofinal_exists = any(
        maxx & ~u == 0 and sp.scott_upset_flag(E, u) for u in ups
    )
    over_yd_exists = any(
        yd & ~u == 0 and sp.scott_upset_flag(E, u) for u in ups
    )
    upmin_scott = sp.scott_upset_flag(E, E.up(sp.min_yd(E)))
    search = sp.unit_search(E)["status"] == "witness"
    ndd = sp.max_bounded(E)
    if not (cofinal_exists == over_yd_exists == search):
        return "unit characterizations disagree"
    if cofinal_exists and not upmin_scott:
        return "unit without compactness"
    if ndd and (upmin_scott != cofinal_exists):
        return "d-initial equivalence fails"


@_register("t1-min-yd", "engine")
def check_t1_min_yd(E):
    """Distinct points of min Y_d are separated by subspace opens.

    Kind (c): an existential statement, a separating upset for each
    pair of points."""
    ups = E.all_upsets()
    pts = E.member_reps(sp.min_yd(E))
    for a in pts:
        for b in pts:
            if a == b:
                continue
            if not any(u >> a & 1 and not u >> b & 1 for u in ups):
                return f"{a} vs {b}"


@_register("arithmetic-core-law", "engine")
def check_arithmetic_core_law(E):
    """The laws of the core, by :func:`_core_laws` over every upset and
    every pair of upsets (literal form).

    Kind (a): the core laws hold on every arithmetic frame; fan-d-laws
    runs the same :func:`_core_laws` on tame samples."""
    ups = E.all_upsets()
    return _core_laws(E, ups, ups)


# ---------------------------------------------------------------------
# symbolic-family checks
# ---------------------------------------------------------------------


@_register("fan-d-laws", "fan")
def check_fan_d_laws(E, seed):
    """The laws of d and of the core on deterministic tame samples of
    every family, by :func:`_nucleus_laws` and :func:`_core_laws` over
    the distinct samples and the pairs of the first twelve; then what
    only a fan engine shows: d agrees with the nuclear-set form, the
    family's Scott test with :func:`~priestley.spectrum.scott_upset_flag`,
    and dU = U** on clopen Scott upsets.  d of each distinct set is
    computed once: samples repeat, and d of a sample is often a sample."""
    samples = E.sample_clopen_upsets(SAMPLE_COUNT, seed=seed)
    distinct = list(dict.fromkeys(samples))
    head = samples[:12]
    d = functools.cache(lambda u: sp.d_apply(E, u))
    witness = (_nucleus_laws(E, d, distinct, product(head, repeat=2))
               or _core_laws(E, distinct, head))
    if witness:
        return witness
    nd = sp.nd_set(E)
    for u in distinct:
        if d(u) != sp.implies(E, nd, u):
            return f"nuclear form differs at {E.describe_set(u)}"
        scott = E.clop_sup_test(u)
        if scott != sp.scott_upset_flag(E, u):
            return f"Scott test differs at {E.describe_set(u)}"
        if scott and d(u) != sp.double_neg(E, u):
            return f"dU != U** at {E.describe_set(u)}"


_EXPECTED_FIGURES = {
    "bare_fan": {
        "topology_class": "discrete", "t1": True, "compact": False,
        "hausdorff": True, "has_unit": False, "l_d_regular": True,
        "max_bounded": True,
    },
    "fan_plus_bottom": {
        "topology_class": "finite-discrete", "t1": True, "compact": True,
        "hausdorff": True, "has_unit": True, "l_d_regular": False,
        "max_bounded": True,
    },
    "omega_fans": {
        "topology_class": "cofinite", "t1": True, "compact": True,
        "hausdorff": False, "has_unit": True, "l_d_regular": False,
        "max_bounded": True,
    },
    "chain_fans": {
        "topology_class": "empty", "t1": True, "compact": True,
        "hausdorff": True, "has_unit": False, "l_d_regular": False,
        "max_bounded": False,
    },
}


@_register("fan-figures", "fan")
def check_fan_figures(E, seed):
    """Exact Boolean reproduction of the published verdicts per family."""
    r = sp.spectrum_report(E)
    expected = _EXPECTED_FIGURES[E.family]
    diffs = {k: (getattr(r, k), v) for k, v in expected.items() if getattr(r, k) != v}
    if diffs:
        return f"got!=expected: {diffs}"


@_register("fan-tame-soundness", "fan")
def check_fan_tame_soundness(E, seed):
    """Canonical uniqueness plus pointwise soundness of the Boolean ops
    at every representative class of the operands."""
    samples = E.sample_clopen_upsets(SAMPLE_COUNT, seed=seed)
    full_reps = E.member_reps(E.full)
    for a in samples:
        twin = tame_meet(a, E.full)
        if twin != a and all(
            twin.member(p) == a.member(p)
            for p in full_reps + E.member_reps(a)
        ):
            return f"canonical forms differ for equal sets: {E.describe_set(a)}"
        if not tame_is_open(a) or not tame_is_closed(a):
            return f"sample not clopen: {E.describe_set(a)}"
    complements = {a: tame_complement(a) for a in dict.fromkeys(samples[:10])}
    # the classes of each operand and of its complement, with the
    # operand's membership there: finer than the classes of a join,
    # which may merge or drop the operands' pieces
    classes = {}
    for a, c in complements.items():
        classes[a] = [(p, a.member(p)) for p in E.member_reps(a) + E.member_reps(c)]
        for p, in_a in classes[a]:
            if c.member(p) == in_a:
                return f"complement at {p}"
    # joins repeat, so each distinct join's classes are listed once
    join_reps = {}
    for a in samples[:10]:
        c = complements[a]
        for b in samples[:10]:
            m = tame_meet(a, b)
            j = tame_join(a, b)
            if j not in join_reps:
                join_reps[j] = E.member_reps(j) + full_reps
            for p in join_reps[j]:
                in_a, in_b = a.member(p), b.member(p)
                if m.member(p) != (in_a and in_b):
                    return f"meet at {p}"
                if j.member(p) != (in_a or in_b):
                    return f"join at {p}"
                if c.member(p) == in_a:
                    return f"complement at {p}"
            for x, y in ((a, b), (b, a)):
                for p, in_x in classes[x]:
                    in_y = y.member(p)
                    if m.member(p) != (in_x and in_y):
                        return f"meet at {p}"
                    if j.member(p) != (in_x or in_y):
                        return f"join at {p}"


# ---------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------


def run_suite(theorem_ids=None, bound=DEFAULT_BOUND, seed=DEFAULT_SEED,
              stats=None):
    """Run the selected checks; deterministic case order.

    A bound outside 1..MAX_BOUND raises BoundExceeded, a bare string
    of ids TypeError, an empty selection EmptySelection and an unknown
    id UnknownTheoremId, all before any check runs.  A repeated id runs
    once, at its first place.  Given a dict as ``stats``, it is filled with
    ``enumerate_s``, the seconds poset enumeration took, and
    ``theorems``: id -> ``cases``, ``failed`` and ``seconds`` (summed
    over the posets, instance builds left out), in the selected order.

    The posets the selection reads are enumerated first (only to
    ``NUCLEI_BOUND`` for nuclei checks alone) and stay in
    ``_POSET_MEMO``.  Then, one poset at a time, the instances of the
    selected kinds are built from it, each selected check runs on its
    own, and the poset's tables are dropped: everything a run derives
    from a poset (its engine, Y_d, d table, nuclei, closure tables,
    splits, upset masks) lives only while that poset's checks run.  The
    fan checks share one engine per family.  Cases come in the selected
    order, each id's in poset order.
    """
    if bound > MAX_BOUND:
        raise BoundExceeded(f"bound {bound} exceeds the configured cap {MAX_BOUND}")
    if bound < 1:
        raise BoundExceeded(f"bound {bound} is below 1: no poset would be checked")
    if isinstance(theorem_ids, str):
        raise TypeError(f"theorem_ids must be a collection of ids, not the string {theorem_ids!r}")
    theorem_ids = sorted(CHECKS) if theorem_ids is None else list(dict.fromkeys(theorem_ids))
    if not theorem_ids:
        raise EmptySelection("no theorem id given: no case would be checked")
    for tid in theorem_ids:
        if tid not in CHECKS:
            raise UnknownTheoremId(f"unknown theorem id {tid!r}")
    kinds = {KINDS[tid] for tid in theorem_ids}
    top = (bound if kinds & {"poset", "lattice", "engine"}
           else NUCLEI_BOUND if "nuclei" in kinds else 0)
    t0 = time.perf_counter()
    posets = posets_up_to(min(bound, top))
    enumerate_s = time.perf_counter() - t0
    found = {tid: [] for tid in theorem_ids}
    seconds = dict.fromkeys(theorem_ids, 0.0)

    def run(instances):
        # CHECKS is read on every call: a caller may have rewrapped it
        for tid in theorem_ids:
            if KINDS[tid] in instances:
                t0 = time.perf_counter()
                found[tid] += CHECKS[tid](instances[KINDS[tid]])
                seconds[tid] += time.perf_counter() - t0

    for P in posets:
        run(_instances(P, kinds))
        drop_tables(P)
    if "fan" in kinds:
        run({"fan": [(E.name, (E, seed)) for E in map(engine_for, FAMILIES)]})
    if stats is not None:
        stats["enumerate_s"] = enumerate_s
        stats["theorems"] = {tid: {"cases": len(found[tid]),
                                   "failed": sum(not c.ok() for c in found[tid]),
                                   "seconds": seconds[tid]} for tid in theorem_ids}
    return [c for tid in theorem_ids for c in found[tid]]


def summarize(cases):
    verified = sum(1 for c in cases if c.ok())
    failed = [c for c in cases if not c.ok()]
    return {
        "total": len(cases),
        "verified": verified,
        "failed": len(failed),
        "failures": failed,
    }

