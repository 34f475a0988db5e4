"""Exhaustive small-instance verifier for every structural identity.

Finite posets stand in for Priestley spaces, their upset lattices for
frames.  Up to six points every poset is enumerated (deduplicated up to
isomorphism), and each registered check evaluates both sides of one
identity on every instance: nothing is assumed from theory, including
the finite-case collapses (d = double negation, Y_d = max X, every
nuclear set inductive, L_d always regular) — the collapsed form and the
literal form are always computed separately and compared.

Checks over all nuclear subsets are capped at four points (the object
count is exponential squared); purely structural checks run at the full
bound.  Fault-injection hooks prove the suite can fail: each corrupts
one ingredient and must produce at least one failed case with a
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import spectrum as sp
from .birkhoff import (
    clopen_upset_lattice,
    priestley_dual,
    stone_map,
    validate_lattice,
)
from .errors import BoundExceeded, InternalAssertionError, UnknownTheoremId, WorkbenchError
from .fans import (
    FAMILIES,
    OmegaFansEngine,
    Region,
    engine_for,
    noncanonical_twin,
    region_meet,
    tame_is_closed,
    tame_is_open,
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
from .poset import (FinitePoset, _bits, _mask, _mask_union, _restrict, canonical_form,
                    extrema, relabel_canonically, upset_masks)

DEFAULT_BOUND = 6
NUCLEI_BOUND = 4
SAMPLE_COUNT = 60


@dataclass(frozen=True)
class TheoremCase:
    theorem_id: str
    instance: str
    status: str           # "verified" | "failed"
    witness: str | None = None

    def ok(self):
        return self.status == "verified"


# ---------------------------------------------------------------------
# poset enumeration
# ---------------------------------------------------------------------

_POSET_MEMO = {}


def enumerate_posets(n_points, cap=DEFAULT_BOUND):
    """All posets with exactly n_points points, up to isomorphism.

    Every isomorphism class has a labelling compatible with the natural
    order of the indices, so it suffices to enumerate strict orders
    contained in the natural order and deduplicate by canonical form.
    Output is deterministic: canonical labels, sorted by canonical key.
    """
    if n_points > cap:
        raise BoundExceeded(f"{n_points} exceeds the configured bound {cap}")
    if n_points in _POSET_MEMO:
        return list(_POSET_MEMO[n_points])
    n = n_points
    if n <= 0:
        _POSET_MEMO[n_points] = ()
        return []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = {}
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rows[i] |= 1 << j
        if any(rows[j] & ~rows[i] for i in range(n) for j in _bits(rows[i])):
            continue
        P = FinitePoset([f"p{i}" for i in range(n)],
                        [rows[i] | 1 << i for i in range(n)])
        key = canonical_form(P)
        if key not in found:
            found[key] = relabel_canonically(P)
    result = tuple(P for _, P in sorted(found.items()))
    _POSET_MEMO[n_points] = result
    return list(result)


def posets_up_to(bound, cap=DEFAULT_BOUND):
    """All posets with 1..bound points, sizes ascending."""
    out = []
    for n in range(1, bound + 1):
        out.extend(enumerate_posets(n, cap=cap))
    return out


def _engines(bound):
    return [sp.FiniteEngine(P) for P in posets_up_to(bound)]


# ---------------------------------------------------------------------
# finite checks
# ---------------------------------------------------------------------


def _case(tid, inst, ok, witness=None):
    return TheoremCase(tid, inst, "verified" if ok else "failed",
                       None if ok else witness)


def check_duality_round_trip(bound):
    """Both directions of the finite duality, with exact tables."""
    tid = "duality-round-trip"
    cases = []
    for P in posets_up_to(bound):
        inst = repr(P)
        # space -> lattice -> space: x maps to the principal upset of x
        L = clopen_upset_lattice(P)
        X2 = priestley_dual(L)
        ji = L._dual[1]
        send = {}
        ok = X2.n == P.n
        if ok:
            member_index = {u: i for i, u in enumerate(L.member_sets)}
            dual_index = {e: i for i, e in enumerate(ji)}
            for x in range(P.n):
                e = member_index.get(P.up_set(x))
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
        witness = None if ok else "space round trip failed"
        # lattice -> space -> lattice, when the poset is a lattice
        if ok:
            try:
                D = validate_lattice(P)
            except WorkbenchError:
                D = None
            if D is not None:
                E = clopen_upset_lattice(priestley_dual(D))
                idx = {u: i for i, u in enumerate(E.member_sets)}
                try:
                    snd = [idx[stone_map(D, a).members] for a in range(D.n)]
                except KeyError:
                    snd = None
                if snd is None or sorted(snd) != list(range(E.n)):
                    ok, witness = False, "stone map is not a bijection"
                else:
                    for a in range(D.n):
                        for b in range(D.n):
                            if (
                                D.le(a, b) != E.le(snd[a], snd[b])
                                or snd[D.meet[a][b]] != E.meet[snd[a]][snd[b]]
                                or snd[D.join[a][b]] != E.join[snd[a]][snd[b]]
                            ):
                                ok, witness = False, f"table mismatch at {a},{b}"
        cases.append(_case(tid, inst, ok, witness))
    return cases


def check_stone_embedding(bound):
    tid = "stone-embedding"
    cases = []
    for P in posets_up_to(bound):
        try:
            D = validate_lattice(P)
        except WorkbenchError:
            continue
        ok, witness = True, None
        for a in range(D.n):
            for b in range(D.n):
                if D.le(a, b) != (stone_map(D, a).members <= stone_map(D, b).members):
                    ok, witness = False, f"elements {D.labels[a]},{D.labels[b]}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_priestley_separation(bound):
    tid = "priestley-separation"
    cases = []
    for P in posets_up_to(bound):
        ok, witness = True, None
        for x in range(P.n):
            for y in range(P.n):
                if not P.le(x, y):
                    u = P.up_set(x)
                    if x not in u or y in u:
                        ok, witness = False, f"{P.labels[x]} vs {P.labels[y]}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_join_meet_formulas(bound):
    """Frame joins are closures of unions and meets the interior formula;
    in the finite case both collapse to union and intersection."""
    tid = "join-meet-formulas"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        ups = E.all_upsets()
        for u in ups:
            for v in ups:
                if E.closure(u | v) != (u | v):
                    ok, witness = False, "join formula"
                lit = E.full & ~E.down(E.full & ~(u & v))
                if lit != u & v:
                    ok, witness = False, (
                        f"meet formula at {E.describe_set(u)}, {E.describe_set(v)}"
                    )
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_heyting_adjunction(bound):
    tid = "heyting-adjunction"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        ups = E.all_upsets()
        pc = lambda a: E.full & ~E.down(a)
        imp = lambda a, b: E.full & ~E.down(a & ~b)
        for u in ups:
            if pc(u) != imp(u, 0):
                ok, witness = False, f"U* != U -> empty at {E.describe_set(u)}"
            for v in ups:
                i = imp(u, v)
                for w in ups:
                    if ((w & u) & ~v == 0) != (w & ~i == 0):
                        ok, witness = False, (
                            f"adjunction at {E.describe_set(u)}, {E.describe_set(v)}"
                        )
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def _nuclei_spaces(bound):
    return posets_up_to(min(bound, NUCLEI_BOUND))


def _nuclei_of_subsets(P):
    """(N, j_N) for every point subset N of P, as masks, ascending."""
    for members in range(1 << P.n):
        yield members, nucleus_of_nuclear(NuclearSet._of_mask(P, members))


def check_nuclei_galois(bound):
    tid = "nuclei-galois"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        for members, j in _nuclei_of_subsets(P):
            if nuclear_of_nucleus(j).mask != members:
                ok, witness = False, f"subset {list(_bits(members))}"
            if nucleus_of_nuclear(nuclear_of_nucleus(j)) != j:
                ok, witness = False, f"nucleus of {list(_bits(members))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_nuclei_order_reversal(bound):
    tid = "nuclei-order-reversal"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        js = [j for _, j in _nuclei_of_subsets(P)]
        for a in range(1 << P.n):
            for b in range(1 << P.n):
                if (a & ~b == 0) != js[b].leq(js[a]):
                    ok, witness = False, f"{list(_bits(a))} vs {list(_bits(b))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_upset_nj_eq_fj(bound):
    """The admissible upset of a nucleus is the up-closure of its nuclear set."""
    tid = "upset-Nj-eq-Fj"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        for members, j in _nuclei_of_subsets(P):
            try:
                h = admissible_upset(j)
            except InternalAssertionError:
                ok, witness = False, f"subset {list(_bits(members))}"
                continue
            if _mask(h) != _mask_union(P.up, members):
                ok, witness = False, f"subset {list(_bits(members))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_dense_iff_cofinal(bound):
    tid = "dense-iff-cofinal"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        maxx = _mask(extrema(P, range(P.n), "max"))
        for members, j in _nuclei_of_subsets(P):
            dense = j.masks[0] == 0
            cofinal = maxx & ~members == 0
            if dense != cofinal:
                ok, witness = False, f"subset {list(_bits(members))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_max_least_cofinal(bound):
    """max X is a nuclear set, cofinal, and contained in every cofinal one."""
    tid = "max-least-cofinal"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        maxx = _mask(extrema(P, range(P.n), "max"))
        if nuclear_of_nucleus(double_negation(P)).mask != maxx:
            ok, witness = False, "double negation nuclear set"
        for members in range(1 << P.n):
            if maxx & ~members == 0:
                continue
            # not cofinal: fine; cofinal ones must contain max X, which
            # is immediate from the definition, so check the dense side
            j = nucleus_of_nuclear(NuclearSet._of_mask(P, members))
            if density_check(j)["dense"]:
                ok, witness = False, f"dense nucleus from {list(_bits(members))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_booleanization(bound):
    """Fixpoints of double negation form a sublocale inside every dense one."""
    tid = "booleanization-sublocale"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        try:
            booleans = {_mask(u) for u in booleanization(P)}
        except InternalAssertionError:
            cases.append(_case(tid, repr(P), False, "sublocale laws"))
            continue
        for members, j in _nuclei_of_subsets(P):
            if density_check(j)["dense"]:
                fix = {u for u, v in j.masks.items() if u == v}
                if not booleans <= fix:
                    ok, witness = False, f"dense nucleus from {list(_bits(members))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_lemma_nj_restrict(bound):
    """U and jU agree when restricted to the nuclear set."""
    tid = "lemma-nj-restrict"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        for members, j in _nuclei_of_subsets(P):
            for u, v in j.masks.items():
                if u & members != v & members:
                    ok, witness = False, f"{list(_bits(members))} at {list(_bits(u))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_sublocale_roundtrip(bound):
    tid = "sublocale-roundtrip"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        for members, j in _nuclei_of_subsets(P):
            if nucleus_of_sublocale(P, sublocale_of_nucleus(j)) != j:
                ok, witness = False, f"subset {list(_bits(members))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def check_inductive_core_collapse(bound):
    """Every nuclear set of a finite space is inductive, witnessed on
    both sides: up(F & N) is a Scott upset for every Scott upset F, and
    jU equals the closure of the union of jV over upsets V inside U."""
    tid = "inductive-core-collapse"
    cases = []
    for P in _nuclei_spaces(bound):
        ok, witness = True, None
        ups = upset_masks(P)
        for members, j in _nuclei_of_subsets(P):
            for f in ups:
                lifted = _mask_union(P.up, f & members)
                if _mask_union(P.up, lifted) != lifted:
                    ok, witness = False, f"{list(_bits(members))}, F={list(_bits(f))}"
            for u in ups:
                union = 0
                for v in ups:
                    if v & ~u == 0:
                        union |= j.masks[v]
                if union != j.masks[u]:
                    ok, witness = False, f"{list(_bits(members))}, U={list(_bits(u))}"
        cases.append(_case(tid, repr(P), ok, witness))
    return cases


def _d_table(E):
    """dU for every upset, via the closure-of-union-of-double-negations
    form (the union ranges over all upsets inside U: in the finite case
    every upset is a clopen Scott upset)."""
    ups = E.all_upsets()
    table = {}
    for u in ups:
        acc = 0
        for v in ups:
            if v & ~u == 0:
                acc |= sp.double_neg(E, v)
        table[u] = E.closure(acc)
    return table


def check_d_is_double_negation(bound):
    """The three computations of d agree: union form, U**, cl(core_d)."""
    tid = "d-is-double-negation"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        table = _d_table(E)
        for u in E.all_upsets():
            a, b, c = table[u], sp.double_neg(E, u), sp.d_apply(E, u)
            if not (a == b == c):
                ok, witness = False, E.describe_set(u)
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_d_nucleus_laws(bound):
    """The d table is a dense nucleus (validated through the nucleus
    axioms, not assumed)."""
    tid = "d-nucleus-laws"
    cases = []
    for E in _engines(bound):
        try:
            j = Nucleus(E.poset, _d_table(E))
            ok = density_check(j)["dense"]
            witness = None if ok else "d is not dense"
        except WorkbenchError as e:
            ok, witness = False, str(e)
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_core_d_forms(bound):
    """Pointwise d-core equals the union of dV over upsets V inside U."""
    tid = "core-d-forms"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        table = _d_table(E)
        for u in E.all_upsets():
            union = 0
            for v in E.all_upsets():
                if v & ~u == 0:
                    union |= table[v]
            if union != sp.core_d(E, u):
                ok, witness = False, E.describe_set(u)
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_eqv_conditions_rmax(bound):
    """The four characterizations of Y_d select the same points."""
    tid = "eqv-conditions-rmax"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        ups = E.all_upsets()
        table = _d_table(E)
        # (1) points that cannot tell dU from U (the nuclear set, which
        # on the localic part is Y_d; here every point is localic)
        c1 = 0
        for x in range(E.n):
            if all(not table[u] >> x & 1 or u >> x & 1 for u in ups):
                c1 |= 1 << x
        # (2) membership of core_d U forces membership of U
        c2 = 0
        for x in range(E.n):
            if all(not sp.core_d(E, u) >> x & 1 or u >> x & 1 for u in ups):
                c2 |= 1 << x
        # (3) every clopen Scott upset catching max(up(x)) catches x
        c3 = 0
        for x in range(E.n):
            mx = sp.maximal_of(E, E.up(1 << x))
            if all(not mx & ~v == 0 or v >> x & 1 for v in ups):
                c3 |= 1 << x
        # (4) singleton maximum below some maximal point
        c4 = sp.yd_set(E)
        if not (c1 == c2 == c3 == c4):
            ok = False
            witness = (
                f"(1)={E.describe_set(c1)} (2)={E.describe_set(c2)} "
                f"(3)={E.describe_set(c3)} (4)={E.describe_set(c4)}"
            )
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_max_y_in_yd(bound):
    tid = "max-y-in-yd"
    cases = []
    for E in _engines(bound):
        maxy = sp.maximal_of(E, sp.localic_points(E))
        ok = maxy & ~sp.yd_set(E) == 0
        cases.append(_case(tid, E.name, ok,
                           None if ok else E.describe_set(maxy)))
    return cases


def _subposet(P, members):
    """Induced subposet on a subset of points."""
    members = sorted(members)
    return FinitePoset([P.labels[i] for i in members], _restrict(P, members))


def check_regularity_equivalences(bound):
    """Y_d antichain, max Y = Y_d, and L-regularity of the d-nuclear
    subspace (the regular part of every upset is the upset itself)."""
    tid = "regularity-equivalences"
    cases = []
    from .poset import enumerate_upsets, order_closure

    for E in _engines(bound):
        reg = sp.regularity_suite(E)
        sub = _subposet(E.poset, E.set_of(sp.nd_set(E)))
        lreg = True
        for u in enumerate_upsets(sub):
            regpart = frozenset()
            for v in enumerate_upsets(sub):
                if order_closure(sub, v, "down") <= u:
                    regpart |= v
            if regpart != u:
                lreg = False
        ok = reg["antichain"] == reg["max_y_equals_yd"] == lreg
        cases.append(_case(tid, E.name, ok,
                           None if ok else f"suite={reg}, l_regular={lreg}"))
    return cases


def check_min_yd_max_d_upsets(bound):
    """Maximal proper d-fixed upsets are exactly the complements of
    downsets of min Y_d points, bijectively."""
    tid = "min-yd-max-d-upsets"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        table = _d_table(E)
        fixed = [u for u in E.all_upsets() if table[u] == u]
        proper = [u for u in fixed if u != E.full]
        maximal = [
            u for u in proper
            if not any(u != v and u & ~v == 0 for v in proper)
        ]
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
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_min_yd_homeomorphism(bound):
    """The bijection transports the subspace topology of min Y_d onto
    the hull-kernel opens of the maximal d-fixed upsets."""
    tid = "min-yd-homeomorphism"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        m = sp.min_yd(E)
        points = E.member_reps(m)
        image = {y: E.diff(E.full, E.down(E.point_set(y))) for y in points}
        subspace_opens = {
            frozenset(y for y in points if u >> y & 1)
            for u in E.all_upsets()
        }
        hull_kernel_opens = {
            frozenset(y for y in points if u & ~image[y] != 0)
            for u in E.all_upsets()
        }
        if subspace_opens != hull_kernel_opens:
            ok, witness = False, f"open families differ on {E.describe_set(m)}"
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_rho_forms(bound):
    """Three computations of rho agree and its nuclear set is cl(min Y_d):
    the closure-of-union display, the nucleus of the nuclear set, and
    the meet over the maximal d-fixed upsets above the argument."""
    tid = "rho-forms"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        m = sp.min_yd(E)
        maxd = sp.maximal_d_upsets(E)
        table = {}
        for u in E.all_upsets():
            display = 0
            for v in E.all_upsets():
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
        if ok:
            j = Nucleus(E.poset, table)
            if nuclear_of_nucleus(j).mask != E.closure(m):
                ok, witness = False, "nuclear set of rho"
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_compacts_d_initial(bound):
    """Subsets of min Y_d (all compact here) correspond to d-initial
    Scott upsets by K -> up(K), an order isomorphism; the d-initial
    Scott upsets are enumerated independently."""
    tid = "compacts-d-initial"
    cases = []
    for E in _engines(bound):
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
        for k in ks:
            if E.up(k) & m != k:
                ok, witness = False, f"K={E.describe_set(k)}"
        for a in ks:
            for b in ks:
                if (a & ~b == 0) != (E.up(a) & ~E.up(b) == 0):
                    ok, witness = False, "order not preserved"
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_max_bounded_iff_d_initial(bound):
    """Every proper d-fixed upset below a maximal one iff N_d is d-initial."""
    tid = "max-bounded-iff-d-initial"
    cases = []
    for E in _engines(bound):
        table = _d_table(E)
        fixed = [u for u in E.all_upsets() if table[u] == u]
        proper = [u for u in fixed if u != E.full]
        maximal = [
            u for u in proper
            if not any(u != v and u & ~v == 0 for v in proper)
        ]
        literal = all(
            any(u & ~w == 0 for w in maximal) for u in proper
        )
        via_d_initial = sp.max_bounded(E)
        ok = literal == via_d_initial
        cases.append(_case(tid, E.name, ok,
                           None if ok else f"literal={literal}"))
    return cases


def check_unit_criteria(bound):
    """Units: a cofinal clopen Scott upset exists iff one contains Y_d;
    both imply up(min Y_d) is a Scott upset; with N_d d-initial all the
    conditions coincide (always the case on finite spaces)."""
    tid = "unit-criteria"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        maxx = sp.max_set(E)
        yd = sp.yd_set(E)
        cofinal_exists = any(
            maxx & ~u == 0 and sp.scott_upset_flag(E, u)
            for u in E.all_upsets()
        )
        over_yd_exists = any(
            yd & ~u == 0 and sp.scott_upset_flag(E, u)
            for u in E.all_upsets()
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
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_t1_min_yd(bound):
    """Distinct points of min Y_d are separated by subspace opens."""
    tid = "t1-min-yd"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        pts = E.member_reps(sp.min_yd(E))
        for a in pts:
            for b in pts:
                if a == b:
                    continue
                if not any(
                    u >> a & 1 and not u >> b & 1 for u in E.all_upsets()
                ):
                    ok, witness = False, f"{a} vs {b}"
        cases.append(_case(tid, E.name, ok, witness))
    return cases


def check_arithmetic_core_law(bound):
    """Cores are dense and distribute over intersections (literal form)."""
    tid = "arithmetic-core-law"
    cases = []
    for E in _engines(bound):
        ok, witness = True, None
        for u in E.all_upsets():
            if E.closure(E.core(u)) != u:
                ok, witness = False, E.describe_set(u)
            for v in E.all_upsets():
                if E.core(u) & E.core(v) != E.core(u & v):
                    ok, witness = False, "core meet law"
        cases.append(_case(tid, E.name, ok, witness))
    return cases


# ---------------------------------------------------------------------
# symbolic-family checks
# ---------------------------------------------------------------------


def check_fan_d_laws(bound, seed=2024, count=SAMPLE_COUNT, engines=None):
    """d-operator laws on deterministic tame samples of every family:
    nucleus axioms, density, agreement with the nuclear-set form, and
    dU = U** on clopen Scott upsets."""
    tid = "fan-d-laws"
    cases = []
    for family in FAMILIES:
        E = (engines or {}).get(family) or engine_for(family)
        ok, witness = True, None
        samples = E.sample_clopen_upsets(count, seed=seed)
        nd = sp.nd_set(E)
        for u in samples:
            du = sp.d_apply(E, u)
            if not sp.subset(E, u, du):
                ok, witness = False, f"not inflationary at {E.describe_set(u)}"
            elif sp.d_apply(E, du) != du:
                ok, witness = False, f"not idempotent at {E.describe_set(u)}"
            elif du != E.diff(E.full, E.down(E.diff(nd, u))):
                ok, witness = False, f"nuclear form differs at {E.describe_set(u)}"
            elif E.clop_sup_test(u) != sp.scott_upset_flag(E, u):
                ok, witness = False, f"Scott test differs at {E.describe_set(u)}"
            elif E.clop_sup_test(u) and du != sp.double_neg(E, u):
                ok, witness = False, f"dU != U** at {E.describe_set(u)}"
            if not ok:
                break
        if ok:
            for u in samples[:12]:
                for v in samples[:12]:
                    lhs = sp.d_apply(E, E.meet(u, v))
                    rhs = E.meet(sp.d_apply(E, u), sp.d_apply(E, v))
                    if lhs != rhs:
                        ok, witness = False, (
                            f"meet law at {E.describe_set(u)} & {E.describe_set(v)}"
                        )
        if ok and sp.d_apply(E, E.empty) != E.empty:
            ok, witness = False, "d is not dense"
        cases.append(_case(tid, family, ok, witness))
    return cases


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


def check_fan_figures(bound, engines=None):
    """Exact Boolean reproduction of the published verdicts per family."""
    tid = "fan-figures"
    cases = []
    for family in FAMILIES:
        E = (engines or {}).get(family) or engine_for(family)
        ok, witness = True, None
        try:
            r = sp.spectrum_report(E)
            got = {
                "topology_class": r.topology_class, "t1": r.t1,
                "compact": r.compact, "hausdorff": r.hausdorff,
                "has_unit": r.has_unit, "l_d_regular": r.l_d_regular,
                "max_bounded": r.max_bounded,
            }
            expected = _EXPECTED_FIGURES[family]
            if got != expected:
                diffs = {
                    k: (got[k], expected[k])
                    for k in expected if got[k] != expected[k]
                }
                ok, witness = False, f"got!=expected: {diffs}"
        except WorkbenchError as e:
            ok, witness = False, str(e)
        cases.append(_case(tid, family, ok, witness))
    return cases


def check_fan_tame_soundness(bound, seed=2024, count=SAMPLE_COUNT,
                             corrupt=None):
    """Canonical uniqueness plus pointwise soundness of the Boolean ops
    at every representative class of the operands."""
    tid = "fan-tame-soundness"
    from .fans import tame_complement, tame_join, tame_meet

    cases = []
    for family in FAMILIES:
        E = engine_for(family)
        ok, witness = True, None
        samples = E.sample_clopen_upsets(count, seed=seed)
        if corrupt == family:
            samples = samples + [noncanonical_twin(samples[1])]
        for a in samples:
            twin = tame_meet(a, E.full)
            if twin != a and all(
                twin.member(p) == a.member(p)
                for p in E.member_reps(E.full) + E.member_reps(a)
            ):
                ok, witness = False, (
                    f"canonical forms differ for equal sets: {E.describe_set(a)}"
                )
                break
            if not tame_is_open(a) or not tame_is_closed(a):
                ok, witness = False, f"sample not clopen: {E.describe_set(a)}"
                break
        if ok:
            for a in samples[:10]:
                for b in samples[:10]:
                    m = tame_meet(a, b)
                    j = tame_join(a, b)
                    c = tame_complement(a)
                    for p in E.member_reps(j) + E.member_reps(E.full):
                        if m.member(p) != (a.member(p) and b.member(p)):
                            ok, witness = False, f"meet at {p}"
                        if j.member(p) != (a.member(p) or b.member(p)):
                            ok, witness = False, f"join at {p}"
                        if c.member(p) != (not a.member(p)):
                            ok, witness = False, f"complement at {p}"
        cases.append(_case(tid, family, ok, witness))
    return cases


# ---------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------

CHECKS = {
    "duality-round-trip": check_duality_round_trip,
    "stone-embedding": check_stone_embedding,
    "priestley-separation": check_priestley_separation,
    "join-meet-formulas": check_join_meet_formulas,
    "heyting-adjunction": check_heyting_adjunction,
    "nuclei-galois": check_nuclei_galois,
    "nuclei-order-reversal": check_nuclei_order_reversal,
    "upset-Nj-eq-Fj": check_upset_nj_eq_fj,
    "dense-iff-cofinal": check_dense_iff_cofinal,
    "max-least-cofinal": check_max_least_cofinal,
    "booleanization-sublocale": check_booleanization,
    "lemma-nj-restrict": check_lemma_nj_restrict,
    "sublocale-roundtrip": check_sublocale_roundtrip,
    "inductive-core-collapse": check_inductive_core_collapse,
    "d-is-double-negation": check_d_is_double_negation,
    "d-nucleus-laws": check_d_nucleus_laws,
    "core-d-forms": check_core_d_forms,
    "eqv-conditions-rmax": check_eqv_conditions_rmax,
    "max-y-in-yd": check_max_y_in_yd,
    "regularity-equivalences": check_regularity_equivalences,
    "min-yd-max-d-upsets": check_min_yd_max_d_upsets,
    "min-yd-homeomorphism": check_min_yd_homeomorphism,
    "rho-forms": check_rho_forms,
    "compacts-d-initial": check_compacts_d_initial,
    "max-bounded-iff-d-initial": check_max_bounded_iff_d_initial,
    "unit-criteria": check_unit_criteria,
    "t1-min-yd": check_t1_min_yd,
    "arithmetic-core-law": check_arithmetic_core_law,
    "fan-d-laws": check_fan_d_laws,
    "fan-figures": check_fan_figures,
    "fan-tame-soundness": check_fan_tame_soundness,
}


def run_suite(theorem_ids=None, bound=DEFAULT_BOUND, seed=2024):
    """Run the selected checks; deterministic case order."""
    if bound > DEFAULT_BOUND:
        raise BoundExceeded(f"bound {bound} exceeds the cap {DEFAULT_BOUND}")
    if theorem_ids is None:
        theorem_ids = sorted(CHECKS)
    cases = []
    for tid in theorem_ids:
        if tid not in CHECKS:
            raise UnknownTheoremId(f"unknown theorem id {tid!r}")
        fn = CHECKS[tid]
        if tid in ("fan-d-laws", "fan-tame-soundness"):
            cases.extend(fn(bound, seed=seed))
        else:
            cases.extend(fn(bound))
    return cases


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
# fault injection: the suite must be able to fail
# ---------------------------------------------------------------------


def mutation_corrupt_d_table():
    """Flip one entry of a d table; the agreement check must fail."""
    P = posets_up_to(2)[-1]
    E = sp.FiniteEngine(P)
    table = _d_table(E)
    ups = E.all_upsets()
    victim = ups[1]
    table[victim] = E.full if table[victim] != E.full else E.empty
    cases = []
    for u in ups:
        ok = table[u] == sp.double_neg(E, u)
        cases.append(_case("mutation-corrupt-d-table", E.name, ok,
                           None if ok else E.describe_set(u)))
    return cases


def mutation_drop_spine_link():
    """Sever one fan-to-spine order pair in the omega family; the
    published verdicts can no longer be reproduced."""
    class DroppedSpineLink(OmegaFansEngine):
        def _content_region(self, a):
            # fan 0 no longer lies above its spine point
            return region_meet(super()._content_region(a),
                               Region("cofin", frozenset({0})))

    broken = DroppedSpineLink()
    return [
        c for c in check_fan_figures(0, engines={"omega_fans": broken})
        if c.instance == "omega_fans"
    ]


def mutation_break_canonical_form():
    """Inject a non-canonical tame set; the uniqueness check must flag it."""
    return [
        c for c in check_fan_tame_soundness(0, corrupt="omega_fans")
        if c.instance == "omega_fans"
    ]


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
