"""Exhaustive small-instance verifier for every structural identity.

Finite posets stand in for Priestley spaces, their upset lattices for
frames.  Every poset up to the bound (six points by default, seven at
most) is generated once per isomorphism class, each size from the one
below by adding a new maximal point, and each registered check
evaluates both sides of one identity on every instance: nothing is
assumed from theory, including the finite-case collapses (d = double
negation, Y_d = max X, every nuclear set inductive, L_d always
regular) — the collapsed form and the literal form are always computed
separately and compared.

Each check is written once, for one instance, and registered with its
theorem id and the kind of instance it takes; one case loop turns
instances into cases, and the runner goes one poset at a time.  Checks
over all nuclear subsets are capped at four points (the object count is
exponential squared); purely structural checks run at the full bound.  The mutations prove the suite can fail: each builds a
broken ingredient of its own (a finite or fan engine subclass) and runs
an unchanged registered check on it, which must produce at
least one failed case with a witness.
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
    OmegaFansEngine,
    Region,
    TameSet,
    _fan_indices,
    engine_for,
    region_meet,
    tame_complement,
    tame_is_closed,
    tame_is_open,
    tame_join,
    tame_meet,
)
from .nuclei import (
    NuclearSet,
    Nucleus,
    admissible_upset,
    booleanization,
    density_check,
    double_negation,
    nuclear_of_nucleus,
    nucleus_of_nuclear,
    nucleus_of_sublocale,
    sublocale_of_nucleus,
)
from .poset import (FinitePoset, _bits, _Frozen, _labelling, _mask, _mask_union,
                    _restrict, canonical_form, canonical_rows, closure_tables, drop_tables,
                    extrema, relabel_canonically, sub_upset_unions, upset_index,
                    upset_masks)

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
    below (:func:`_posets_of_size`), and memoized.  Output is
    deterministic: canonical labels, sorted by canonical key.
    """
    if n_points > MAX_BOUND:
        raise BoundExceeded(f"{n_points} exceeds the configured bound {MAX_BOUND}")
    return list(_posets_of_size(n_points))


def _posets_of_size(n):
    """The n-point posets of :func:`enumerate_posets`, by one-point
    extension (McKay, "Isomorph-free exhaustive generation", 1998;
    Brinkmann & McKay, "Posets on up to 16 points", 2002).

    Every n-point poset is an (n-1)-point poset Q plus a new maximal
    point whose strict downset is a downset of Q, i.e. the complement of
    one of Q's upsets.  Each such candidate is labelled canonically from
    its rows (:func:`canonical_rows`): the old points keep Q's down rows,
    since the new point lies above none of them.  Only the first
    candidate of each class becomes a :class:`FinitePoset`, validated,
    keeping that labelling, and is canonically relabelled; a later one
    has the same key, so it is a relabelling of that validated order.
    """
    if n in _POSET_MEMO:
        return _POSET_MEMO[n]
    if n <= 0:
        _POSET_MEMO[n] = ()
        return ()
    if n == 1:
        parents = [((), (), (0,))]  # the empty order and its one upset
    else:
        parents = [(Q.up, Q.down, upset_masks(Q)) for Q in _posets_of_size(n - 1)]
    labels = [f"p{i}" for i in range(n)]
    top = 1 << (n - 1)
    found = {}
    for up, down, upsets in parents:
        for u in upsets:
            rows = [r if u >> i & 1 else r | top for i, r in enumerate(up)]
            rows.append(top)
            key, perm = canonical_rows(rows, (*down, (top - 1) & ~u | top))
            if key not in found:
                P = found[key] = FinitePoset(labels, rows)
                P._tables[_labelling] = key, perm  # just computed from its rows
    result = tuple(map(relabel_canonically, sorted(found.values(), key=canonical_form)))
    _POSET_MEMO[n] = result
    return result


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


def _cases(tid, check, instances):
    """One case per (label, args) instance: ``check(*args)`` gives
    ``(ok, witness)``, or None for no case.  An error raised while
    checking one instance fails that case with the message as witness."""
    cases = []
    for label, args in instances:
        try:
            result = check(*args)
        except (WorkbenchError, ValueError) as e:
            result = False, str(e)
        if result is not None:
            ok, witness = result
            cases.append(TheoremCase(tid, label, "verified" if ok else "failed",
                                     None if ok else witness))
    return cases


def _register(tid, kind):
    """Register a per-instance check under ``tid``: ``CHECKS[tid]`` maps
    a list of (label, args) instances to the check's cases on them, and
    ``KINDS[tid]`` says what :func:`run_suite` passes as args: the poset
    (``"poset"``), its ``FiniteEngine`` (``"engine"``), a poset of at
    most ``NUCLEI_BOUND`` points with a thunk for its nuclei
    (``"nuclei"``), or a fan engine and the sample seed (``"fan"``).
    The check itself is returned unchanged."""
    def register(check):
        KINDS[tid] = kind
        CHECKS[tid] = functools.partial(_cases, tid, check)
        return check
    return register


def _instances(P, kinds):
    """The instances of the given kinds that poset P yields, by kind."""
    label = repr(P)
    out = {"poset": [(label, (P,))]}
    if "engine" in kinds:
        E = sp.FiniteEngine(P)
        out["engine"] = [(E.name, (E,))]
    if "nuclei" in kinds and P.n <= NUCLEI_BOUND:
        # the thunk keeps the list it built, but not an error: each check
        # that asks again fails its own case with it
        out["nuclei"] = [(label, (P, functools.cache(functools.partial(_nuclei_of_subsets, P))))]
    return out


# ---------------------------------------------------------------------
# finite checks
# ---------------------------------------------------------------------


@_register("duality-round-trip", "poset")
def check_duality_round_trip(P):
    """Both directions of the finite duality, with exact tables."""
    # space -> lattice -> space: x maps to the principal upset of x
    L = clopen_upset_lattice(P)
    X2 = priestley_dual(L)
    ji = L._dual[1]
    send = {}
    ok = X2.n == P.n
    if ok:
        member_index = upset_index(L.space)
        dual_index = {e: i for i, e in enumerate(ji)}
        for x in range(P.n):
            e = member_index.get(P.up[x])
            if e is None or e not in dual_index:
                ok = False
                break
            send[x] = dual_index[e]
        ok = ok and sorted(send.values()) == list(range(P.n))
    if ok:
        for x in range(P.n):
            for y in range(P.n):
                if P.le(x, y) != X2.le(send[x], send[y]):
                    ok = False
    if not ok:
        return False, "space round trip failed"
    # lattice -> space -> lattice, when the poset is a lattice
    try:
        D = validate_lattice(P)
    except WorkbenchError:
        return True, None
    E = clopen_upset_lattice(priestley_dual(D))
    idx = upset_index(E.space)
    try:
        snd = [idx[stone_map(D, a).mask] for a in range(D.n)]
    except KeyError:
        snd = None
    if snd is None or sorted(snd) != list(range(E.n)):
        return False, "stone map is not a bijection"
    witness = None
    for a in range(D.n):
        for b in range(D.n):
            if (
                D.le(a, b) != E.le(snd[a], snd[b])
                or snd[D.meet[a][b]] != E.meet[snd[a]][snd[b]]
                or snd[D.join[a][b]] != E.join[snd[a]][snd[b]]
            ):
                witness = f"table mismatch at {a},{b}"
    return witness is None, witness


@_register("stone-embedding", "poset")
def check_stone_embedding(P):
    """The Stone map of a lattice is an order embedding (no case for a
    poset that is not a lattice)."""
    try:
        D = validate_lattice(P)
    except WorkbenchError:
        return None
    ok, witness = True, None
    images = [stone_map(D, a).mask for a in range(D.n)]
    for a, phi_a in enumerate(images):
        for b, phi_b in enumerate(images):
            if D.le(a, b) != (phi_a & ~phi_b == 0):
                ok, witness = False, f"elements {D.labels[a]},{D.labels[b]}"
    return ok, witness


@_register("priestley-separation", "poset")
def check_priestley_separation(P):
    ok, witness = True, None
    for x in range(P.n):
        for y in range(P.n):
            if not P.le(x, y):
                u = P.up[x]
                if not u >> x & 1 or u >> y & 1:
                    ok, witness = False, f"{P.labels[x]} vs {P.labels[y]}"
    return ok, witness


@_register("join-meet-formulas", "engine")
def check_join_meet_formulas(E):
    """Frame joins are closures of unions and meets the interior formula;
    in the finite case both collapse to union and intersection.  Each
    formula is computed once per distinct argument mask and every pair
    compared by lookup."""
    ok, witness = True, None
    ups = E.all_upsets()
    closure = {w: E.closure(w) for w in {u | v for u in ups for v in ups}}
    interior = {w: E.full & ~E.down(E.full & ~w)
                for w in {u & v for u in ups for v in ups}}
    for u in ups:
        for v in ups:
            if closure[u | v] != (u | v):
                ok, witness = False, "join formula"
            if interior[u & v] != u & v:
                ok, witness = False, (
                    f"meet formula at {E.describe_set(u)}, {E.describe_set(v)}"
                )
    return ok, witness


@_register("heyting-adjunction", "engine")
def check_heyting_adjunction(E):
    """W & U <= V iff W <= U -> V, for all upsets.  For each (U, V)
    both sides are computed as the whole set of W that satisfy them, a
    bitset over upset indices: ``avoiding[m]``, the upsets disjoint from
    the point mask m, is the AND of ``missing[p]`` (the upsets without
    point p) over the points of m, tabulated once for every m.  U* is
    compared with the largest upset disjoint from U, the union of the
    upsets in ``avoiding[U]``."""
    ok, witness = True, None
    ups = E.all_upsets()
    pc = lambda a: E.full & ~E.down(a)
    imp = lambda a, b: E.full & ~E.down(a & ~b)
    missing = [0] * E.n
    for k, w in enumerate(ups):
        for p in _bits(E.full & ~w):
            missing[p] |= 1 << k
    avoiding = [(1 << len(ups)) - 1] * (1 << E.n)
    for m in range(1, 1 << E.n):
        low = m & -m
        avoiding[m] = avoiding[m ^ low] & missing[low.bit_length() - 1]

    # U -> V depends on U \ V alone: one implication per distinct difference
    implied = {w: imp(w, 0) for w in {u & ~v for u in ups for v in ups}}
    for u in ups:
        if pc(u) != _mask_union(ups, avoiding[u]):
            ok, witness = False, f"U* != U -> empty at {E.describe_set(u)}"
        for v in ups:
            if avoiding[u & ~v] != avoiding[E.full & ~implied[u & ~v]]:
                ok, witness = False, (
                    f"adjunction at {E.describe_set(u)}, {E.describe_set(v)}"
                )
    return ok, witness


def _nuclei_of_subsets(P):
    """(N, j_N) for every point subset N of P, as masks, ascending.
    The nuclei checks of one run share this list and only read it."""
    return [(members, nucleus_of_nuclear(NuclearSet._of_mask(P, members)))
            for members in range(1 << P.n)]


@_register("nuclei-galois", "nuclei")
def check_nuclei_galois(P, nuclei):
    ok, witness = True, None
    for members, j in nuclei():
        if nuclear_of_nucleus(j).mask != members:
            ok, witness = False, f"subset {list(_bits(members))}"
        if nucleus_of_nuclear(nuclear_of_nucleus(j)) != j:
            ok, witness = False, f"nucleus of {list(_bits(members))}"
    return ok, witness


@_register("nuclei-order-reversal", "nuclei")
def check_nuclei_order_reversal(P, nuclei):
    ok, witness = True, None
    js = [j for _, j in nuclei()]
    for a in range(1 << P.n):
        for b in range(1 << P.n):
            if (a & ~b == 0) != js[b].leq(js[a]):
                ok, witness = False, f"{list(_bits(a))} vs {list(_bits(b))}"
    return ok, witness


@_register("upset-Nj-eq-Fj", "nuclei")
def check_upset_nj_eq_fj(P, nuclei):
    """The admissible upset of a nucleus is the up-closure of its nuclear set."""
    ok, witness = True, None
    up = closure_tables(P).up
    for members, j in nuclei():
        try:
            h = admissible_upset(j)
        except InternalAssertionError:
            ok, witness = False, f"subset {list(_bits(members))}"
            continue
        if _mask(h) != up[members]:
            ok, witness = False, f"subset {list(_bits(members))}"
    return ok, witness


@_register("dense-iff-cofinal", "nuclei")
def check_dense_iff_cofinal(P, nuclei):
    ok, witness = True, None
    maxx = _mask(extrema(P, range(P.n), "max"))
    for members, j in nuclei():
        dense = j.masks[0] == 0
        cofinal = maxx & ~members == 0
        if dense != cofinal:
            ok, witness = False, f"subset {list(_bits(members))}"
    return ok, witness


@_register("max-least-cofinal", "nuclei")
def check_max_least_cofinal(P, nuclei):
    """max X is a nuclear set, cofinal, and contained in every cofinal one."""
    ok, witness = True, None
    maxx = _mask(extrema(P, range(P.n), "max"))
    if nuclear_of_nucleus(double_negation(P)).mask != maxx:
        ok, witness = False, "double negation nuclear set"
    for members, j in nuclei():
        if maxx & ~members == 0:
            continue
        # not cofinal: fine; cofinal ones must contain max X, which
        # is immediate from the definition, so check the dense side
        if density_check(j)["dense"]:
            ok, witness = False, f"dense nucleus from {list(_bits(members))}"
    return ok, witness


@_register("booleanization-sublocale", "nuclei")
def check_booleanization(P, nuclei):
    """Fixpoints of double negation form a sublocale inside every dense one."""
    try:
        booleans = {_mask(u) for u in booleanization(P)}
    except InternalAssertionError:
        return False, "sublocale laws"
    ok, witness = True, None
    for members, j in nuclei():
        if density_check(j)["dense"]:
            fix = {u for u, v in j.masks.items() if u == v}
            if not booleans <= fix:
                ok, witness = False, f"dense nucleus from {list(_bits(members))}"
    return ok, witness


@_register("lemma-nj-restrict", "nuclei")
def check_lemma_nj_restrict(P, nuclei):
    """U and jU agree when restricted to the nuclear set."""
    ok, witness = True, None
    for members, j in nuclei():
        for u, v in j.masks.items():
            if u & members != v & members:
                ok, witness = False, f"{list(_bits(members))} at {list(_bits(u))}"
    return ok, witness


@_register("sublocale-roundtrip", "nuclei")
def check_sublocale_roundtrip(P, nuclei):
    ok, witness = True, None
    for members, j in nuclei():
        if nucleus_of_sublocale(P, sublocale_of_nucleus(j)) != j:
            ok, witness = False, f"subset {list(_bits(members))}"
    return ok, witness


@_register("inductive-core-collapse", "nuclei")
def check_inductive_core_collapse(P, nuclei):
    """Every nuclear set of a finite space is inductive, witnessed on
    both sides: up(F & N) is a Scott upset for every Scott upset F, and
    jU equals the closure of the union of jV over upsets V inside U (a
    lower-cover union, :func:`sub_upset_unions`)."""
    ok, witness = True, None
    ups = upset_masks(P)
    up = closure_tables(P).up
    for members, j in nuclei():
        for f in ups:
            lifted = up[f & members]
            if up[lifted] != lifted:
                ok, witness = False, f"{list(_bits(members))}, F={list(_bits(f))}"
        images = list(j.masks.values())
        for u, union, image in zip(ups, sub_upset_unions(P, images), images):
            if union != image:
                ok, witness = False, f"{list(_bits(members))}, U={list(_bits(u))}"
    return ok, witness


def _d_table(E):
    """dU for every upset, via the closure-of-union-of-double-negations
    form (the union ranges over all upsets inside U: in the finite case
    every upset is a clopen Scott upset), taken over lower covers.
    Cached on the engine, like Y_d; callers only read the table."""
    table = getattr(E, "_d_table_cache", None)
    if table is None:
        ups = E.all_upsets()
        unions = sub_upset_unions(E.poset, [sp.double_neg(E, v) for v in ups])
        table = E._d_table_cache = {u: E.closure(acc) for u, acc in zip(ups, unions)}
    return table


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
    """The three computations of d agree: union form, U**, cl(core_d)."""
    ok, witness = True, None
    table = _d_table(E)
    for u in E.all_upsets():
        a, b, c = table[u], sp.double_neg(E, u), sp.d_apply(E, u)
        if not (a == b == c):
            ok, witness = False, E.describe_set(u)
    return ok, witness


@_register("d-nucleus-laws", "engine")
def check_d_nucleus_laws(E):
    """The d table is a dense nucleus (validated through the nucleus
    axioms, not assumed)."""
    return density_check(Nucleus(E.poset, _d_table(E)))["dense"], "d is not dense"


@_register("core-d-forms", "engine")
def check_core_d_forms(E):
    """Pointwise d-core equals the union of dV over upsets V inside U."""
    ok, witness = True, None
    ups = E.all_upsets()
    table = _d_table(E)
    unions = sub_upset_unions(E.poset, [table[u] for u in ups])
    for u, union in zip(ups, unions):
        if union != sp.core_d(E, u):
            ok, witness = False, E.describe_set(u)
    return ok, witness


@_register("eqv-conditions-rmax", "engine")
def check_eqv_conditions_rmax(E):
    """The four characterizations of Y_d select the same points."""
    ups = E.all_upsets()
    table = _d_table(E)
    # (1) points that cannot tell dU from U (the nuclear set, which
    # on the localic part is Y_d; here every point is localic)
    moved = 0
    for u in ups:
        moved |= table[u] & ~u
    c1 = E.full & ~moved
    # (2) membership of core_d U forces membership of U
    moved = 0
    for u in ups:
        moved |= sp.core_d(E, u) & ~u
    c2 = E.full & ~moved
    # (3) every clopen Scott upset catching max(up(x)) catches x
    c3 = 0
    for x in range(E.n):
        mx = sp.maximal_of(E, E.up(1 << x))
        if all(not mx & ~v == 0 or v >> x & 1 for v in ups):
            c3 |= 1 << x
    # (4) singleton maximum below some maximal point
    c4 = sp.yd_set(E)
    return c1 == c2 == c3 == c4, (
        f"(1)={E.describe_set(c1)} (2)={E.describe_set(c2)} "
        f"(3)={E.describe_set(c3)} (4)={E.describe_set(c4)}"
    )


@_register("max-y-in-yd", "engine")
def check_max_y_in_yd(E):
    maxy = sp.maximal_of(E, E.localic_part())
    return maxy & ~sp.yd_set(E) == 0, E.describe_set(maxy)


def _subposet(P, members):
    """Induced subposet on a subset of points."""
    members = sorted(members)
    return FinitePoset([P.labels[i] for i in members], _restrict(P, members))


@_register("regularity-equivalences", "engine")
def check_regularity_equivalences(E):
    """Y_d antichain, max Y = Y_d, and L-regularity of the d-nuclear
    subspace (the regular part of every upset is the upset itself)."""
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
    ok = reg["antichain"] == reg["max_y_equals_yd"] == lreg
    return ok, f"suite={reg}, l_regular={lreg}"


@_register("min-yd-max-d-upsets", "engine")
def check_min_yd_max_d_upsets(E):
    """Maximal proper d-fixed upsets are exactly the complements of
    downsets of min Y_d points, bijectively."""
    ok, witness = True, None
    _, maximal = _d_fixed_upsets(E, E.all_upsets(), _d_table(E))
    expected = sp.maximal_d_upsets(E)
    if sorted(maximal) != sorted(expected):
        ok, witness = False, (
            f"maximal={[E.describe_set(u) for u in maximal]} "
            f"expected={[E.describe_set(u) for u in expected]}"
        )
    if len(expected) != len(set(expected)) or len(expected) != bin(
        sp.min_yd(E)
    ).count("1"):
        ok, witness = False, "not a bijection"
    return ok, witness


@_register("min-yd-homeomorphism", "engine")
def check_min_yd_homeomorphism(E):
    """The bijection transports the subspace topology of min Y_d onto
    the hull-kernel opens of the maximal d-fixed upsets."""
    m = sp.min_yd(E)
    ups = E.all_upsets()
    points = E.member_reps(m)
    image = {y: E.diff(E.full, E.down(E.point_set(y))) for y in points}
    subspace_opens = {u & m for u in ups}
    hull_kernel_opens = {_mask(y for y in points if u & ~image[y] != 0) for u in ups}
    return (subspace_opens == hull_kernel_opens,
            f"open families differ on {E.describe_set(m)}")


@_register("rho-forms", "engine")
def check_rho_forms(E):
    """Three computations of rho agree and its nuclear set is cl(min Y_d):
    the closure-of-union display, the nucleus of the nuclear set, and
    the meet over the maximal d-fixed upsets above the argument."""
    ok, witness = True, None
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
            ok, witness = False, E.describe_set(u)
        table[u] = via_nuclear
    if not ok:
        return ok, witness
    j = Nucleus(E.poset, table)
    return nuclear_of_nucleus(j).mask == E.closure(m), "nuclear set of rho"


@_register("compacts-d-initial", "engine")
def check_compacts_d_initial(E):
    """Subsets of min Y_d (all compact here) correspond to d-initial
    Scott upsets by K -> up(K), an order isomorphism; the d-initial
    Scott upsets are enumerated independently."""
    ok, witness = True, None
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
        ok, witness = False, "families differ"
    pairs = list(zip(ks, images))
    for k, up_k in pairs:
        if up_k & m != k:
            ok, witness = False, f"K={E.describe_set(k)}"
    for a, up_a in pairs:
        for b, up_b in pairs:
            if (a & ~b == 0) != (up_a & ~up_b == 0):
                ok, witness = False, "order not preserved"
    return ok, witness


@_register("max-bounded-iff-d-initial", "engine")
def check_max_bounded_iff_d_initial(E):
    """Every proper d-fixed upset below a maximal one iff N_d is d-initial."""
    proper, maximal = _d_fixed_upsets(E, E.all_upsets(), _d_table(E))
    literal = all(
        any(u & ~w == 0 for w in maximal) for u in proper
    )
    return literal == sp.max_bounded(E), f"literal={literal}"


@_register("unit-criteria", "engine")
def check_unit_criteria(E):
    """Units: a cofinal clopen Scott upset exists iff one contains Y_d;
    both imply up(min Y_d) is a Scott upset; with N_d d-initial all the
    conditions coincide (always the case on finite spaces)."""
    ok, witness = True, None
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
        ok, witness = False, "unit characterizations disagree"
    if cofinal_exists and not upmin_scott:
        ok, witness = False, "unit without compactness"
    if ndd and (upmin_scott != cofinal_exists):
        ok, witness = False, "d-initial equivalence fails"
    return ok, witness


@_register("t1-min-yd", "engine")
def check_t1_min_yd(E):
    """Distinct points of min Y_d are separated by subspace opens."""
    ok, witness = True, None
    ups = E.all_upsets()
    pts = E.member_reps(sp.min_yd(E))
    for a in pts:
        for b in pts:
            if a == b:
                continue
            if not any(u >> a & 1 and not u >> b & 1 for u in ups):
                ok, witness = False, f"{a} vs {b}"
    return ok, witness


@_register("arithmetic-core-law", "engine")
def check_arithmetic_core_law(E):
    """Cores are dense and distribute over intersections (literal form)."""
    ok, witness = True, None
    ups = E.all_upsets()
    cores = [E.core(u) for u in ups]
    for u, core_u in zip(ups, cores):
        if E.closure(core_u) != u:
            ok, witness = False, E.describe_set(u)
        for v, core_v in zip(ups, cores):
            if core_u & core_v != E.core(u & v):
                ok, witness = False, "core meet law"
    return ok, witness


# ---------------------------------------------------------------------
# symbolic-family checks
# ---------------------------------------------------------------------


@_register("fan-d-laws", "fan")
def check_fan_d_laws(E, seed):
    """d-operator laws on deterministic tame samples of every family:
    nucleus axioms, density, agreement with the nuclear-set form, and
    dU = U** on clopen Scott upsets; then the laws of the core: dense,
    meet-stable, and inside the upset of its localic points."""
    samples = E.sample_clopen_upsets(SAMPLE_COUNT, seed=seed)
    nd = sp.nd_set(E)
    # d and the core of each distinct set, computed once: samples
    # repeat, d of a sample is often a sample, and so are many meets
    d, core = {}, {}

    def d_of(u):
        du = d.get(u)
        if du is None:
            du = d[u] = sp.d_apply(E, u)
        return du

    distinct = list(dict.fromkeys(samples))
    for u in distinct:
        du = d_of(u)
        if not sp.subset(E, u, du):
            return False, f"not inflationary at {E.describe_set(u)}"
        if d_of(du) != du:
            return False, f"not idempotent at {E.describe_set(u)}"
        if du != E.diff(E.full, E.down(E.diff(nd, u))):
            return False, f"nuclear form differs at {E.describe_set(u)}"
        scott = E.clop_sup_test(u)
        if scott != sp.scott_upset_flag(E, u):
            return False, f"Scott test differs at {E.describe_set(u)}"
        if scott and du != sp.double_neg(E, u):
            return False, f"dU != U** at {E.describe_set(u)}"
    head = samples[:12]
    pairs = [(u, v, E.meet(u, v)) for u in head for v in head]
    witness = None
    for (u, v, uv), (du, dv) in zip(pairs, product([d[u] for u in head], repeat=2)):
        if d_of(uv) != E.meet(du, dv):
            witness = f"meet law at {E.describe_set(u)} & {E.describe_set(v)}"
    if witness is not None:
        return False, witness
    if d_of(E.empty) != E.empty:
        return False, "d is not dense"
    # a Scott upset is the upset of its minimal points, all localic
    Y = E.localic_part()
    for u in distinct:
        cu = core[u] = E.core(u)
        if E.closure(cu) != u:
            return False, f"core not dense at {E.describe_set(u)}"
        if not sp.subset(E, cu, E.up(E.meet(cu, Y))):
            return False, f"core not generated by localic points at {E.describe_set(u)}"
    for (u, v, uv), (cu, cv) in zip(pairs, product([core[u] for u in head], repeat=2)):
        cuv = core.get(uv)
        if cuv is None:
            cuv = core[uv] = E.core(uv)
        if cuv != E.meet(cu, cv):
            return False, f"core meet law at {E.describe_set(u)} & {E.describe_set(v)}"
    return True, None


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
    return not diffs, f"got!=expected: {diffs}"


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
            return False, f"canonical forms differ for equal sets: {E.describe_set(a)}"
        if not tame_is_open(a) or not tame_is_closed(a):
            return False, f"sample not clopen: {E.describe_set(a)}"
    ok, witness = True, None
    complements = {a: tame_complement(a) for a in dict.fromkeys(samples[:10])}
    # the classes of each operand and of its complement, with the
    # operand's membership there: finer than the classes of a join,
    # which may merge or drop the operands' pieces
    classes = {}
    for a, c in complements.items():
        classes[a] = [(p, a.member(p)) for p in E.member_reps(a) + E.member_reps(c)]
        for p, in_a in classes[a]:
            if c.member(p) == in_a:
                ok, witness = False, f"complement at {p}"
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
                    ok, witness = False, f"meet at {p}"
                if j.member(p) != (in_a or in_b):
                    ok, witness = False, f"join at {p}"
                if c.member(p) == in_a:
                    ok, witness = False, f"complement at {p}"
            for x, y in ((a, b), (b, a)):
                for p, in_x in classes[x]:
                    in_y = y.member(p)
                    if m.member(p) != (in_x and in_y):
                        ok, witness = False, f"meet at {p}"
                    if j.member(p) != (in_x or in_y):
                        ok, witness = False, f"join at {p}"
    return ok, witness


# ---------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------


def run_suite(theorem_ids=None, bound=DEFAULT_BOUND, seed=DEFAULT_SEED,
              stats=None):
    """Run the selected checks; deterministic case order.

    A bound outside 1..MAX_BOUND raises BoundExceeded, an empty
    selection EmptySelection and an unknown id UnknownTheoremId, all
    before any check runs.  A repeated id runs once, at its first
    place.  Given a dict as ``stats``, it is filled with
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
    theorem_ids = sorted(CHECKS) if theorem_ids is None else list(dict.fromkeys(theorem_ids))
    if not theorem_ids:
        raise EmptySelection("no theorem id given: no case would be checked")
    for tid in theorem_ids:
        if tid not in CHECKS:
            raise UnknownTheoremId(f"unknown theorem id {tid!r}")
    kinds = {KINDS[tid] for tid in theorem_ids}
    top = bound if kinds & {"poset", "engine"} else NUCLEI_BOUND if "nuclei" in kinds else 0
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


# ---------------------------------------------------------------------
# mutations: the suite must be able to fail
# ---------------------------------------------------------------------


def mutation_corrupt_d_table():
    """Corrupt d on a finite engine through its closure, which sends the
    whole space to a smaller upset; d-is-double-negation must fail."""
    class WrongClosure(sp.FiniteEngine):
        def closure(self, a):
            return self.all_upsets()[1] if a == self.full else a

    broken = WrongClosure(posets_up_to(2)[-1])
    return CHECKS["d-is-double-negation"]([(broken.name, (broken,))])


def mutation_drop_spine_link():
    """Sever one fan-to-spine order pair in the omega family; the
    published verdicts can no longer be reproduced."""
    class DroppedSpineLink(OmegaFansEngine):
        def _content_region(self, a):
            # fan 0 no longer lies above its spine point
            return region_meet(super()._content_region(a), Region(~1))

    broken = DroppedSpineLink()
    return CHECKS["fan-figures"]([(broken.name, (broken, DEFAULT_SEED))])


def noncanonical_twin(a):
    """A semantically equal TameSet with a redundant exception entry.

    Bypasses the canonicalizing constructor on purpose: structural
    equality must now disagree with pointwise equality, and the
    canonical-form check in the verification suite has to flag it.
    """
    fresh = _fan_indices(a).bit_length()
    return TameSet(
        a.family, a.fan_default,
        tuple(sorted(list(a.fan_exc) + [(fresh, a.fan_default)])),
        a.spine, a.omega_star,
    )


def mutation_break_canonical_form():
    """Inject a non-canonical tame set; the uniqueness check must flag it."""
    class NoncanonicalSample(OmegaFansEngine):
        def sample_clopen_upsets(self, count, seed=0):
            samples = super().sample_clopen_upsets(count, seed=seed)
            return samples + [noncanonical_twin(samples[1])]

    broken = NoncanonicalSample()
    return CHECKS["fan-tame-soundness"]([(broken.name, (broken, DEFAULT_SEED))])


MUTATIONS = {
    "corrupt-d-table": mutation_corrupt_d_table,
    "drop-spine-link": mutation_drop_spine_link,
    "break-canonical-form": mutation_break_canonical_form,
}


def run_mutations():
    """Each shipped fault must produce at least one failed case with a
    witness; the result maps mutation name to (caught, cases)."""
    out = {}
    for name, fn in sorted(MUTATIONS.items()):
        cases = fn()
        caught = any(not c.ok() and c.witness for c in cases)
        out[name] = (caught, cases)
    return out
