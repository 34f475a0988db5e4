"""The verifier itself: enumeration counts, determinism, green runs."""

import gc
import re
import weakref

import pytest

from priestley import FinitePoset, NuclearSet, build_poset, enumerate_upsets, oracle
from priestley import spectrum as sp
from priestley.birkhoff import DistLattice
from priestley.fans import (EMPTY_REGION, FAMILIES, FULL_REGION, BareFanEngine,
                            ChainFansEngine, FanEngine, FanPlusBottomEngine,
                            OmegaFansEngine, Region, TameSet, engine_for, make_tame,
                            region_meet, tame_join, tame_meet)
from priestley.errors import BoundExceeded, EmptySelection, UnknownTheoremId, WorkbenchError
from test_tame import noncanonical_twin


def test_poset_counts():
    # the number of posets up to isomorphism, by size
    expected = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
    for n, count in expected.items():
        assert len(oracle.enumerate_posets(n)) == count


def test_posets_up_to():
    assert len(oracle.posets_up_to(3)) == 8


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        oracle.enumerate_posets(8)
    with pytest.raises(BoundExceeded):
        oracle.run_suite(bound=8)
    with pytest.raises(BoundExceeded):
        oracle.run_suite(["rho-forms"], bound=0)


def test_unknown_theorem_id():
    with pytest.raises(UnknownTheoremId):
        oracle.run_suite(["no-such-id"])


def test_a_bare_string_of_ids_raises_before_any_check_runs(monkeypatch):
    # a string is iterable, so without the type check "fan-figures"
    # would be read as the ids 'f', 'a', 'n', ...
    ran = []
    monkeypatch.setitem(oracle.CHECKS, "fan-figures", lambda instances: ran.append(1) or [])
    with pytest.raises(TypeError, match="'fan-figures'"):
        oracle.run_suite("fan-figures")
    assert ran == []


def test_a_check_of_an_unknown_kind_is_refused():
    # a kind run_suite never builds would run nowhere and report 0/0
    checks, kinds = dict(oracle.CHECKS), dict(oracle.KINDS)
    with pytest.raises(ValueError, match="'enigne'"):
        oracle._register("typo-kind", "enigne")(lambda E: "x")
    assert oracle.CHECKS == checks and oracle.KINDS == kinds
    assert set(kinds.values()) == set(oracle.INSTANCE_KINDS)


def test_an_empty_selection_raises():
    with pytest.raises(EmptySelection):
        oracle.run_suite([])


def test_enumeration_deterministic():
    a = oracle.enumerate_posets(4)
    b = oracle.enumerate_posets(4)
    assert a == b
    assert all(P.labels == tuple(f"p{i}" for i in range(P.n)) for P in a)


def test_single_check_runs_green():
    cases = oracle.run_suite(["upset-Nj-eq-Fj"], bound=4)
    s = oracle.summarize(cases)
    assert s["failed"] == 0 and s["total"] == 24


def test_suite_reproducible():
    ids = ["eqv-conditions-rmax", "fan-figures"]
    a = oracle.run_suite(ids, bound=3)
    b = oracle.run_suite(ids, bound=3)
    assert a == b


def test_registry_complete():
    # one registered check per structural theme; the suite runs every
    # id it advertises
    assert len(oracle.CHECKS) >= 30
    cases = oracle.run_suite(["fan-figures", "fan-d-laws"], bound=1)
    assert {c.theorem_id for c in cases} == {"fan-figures", "fan-d-laws"}


def test_small_bound_suite_green():
    cases = oracle.run_suite(bound=3)
    s = oracle.summarize(cases)
    assert s["failed"] == 0
    assert s["total"] > 0


def test_a_check_that_raises_fails_its_case(monkeypatch):
    # the whole space is not closed: core_d refuses it with
    # NotClopenUpset, which must become a failed case, not abort the suite
    monkeypatch.setattr(sp.FiniteEngine, "is_closed", lambda E, a: a != E.full)
    cases = oracle.run_suite(["core-d-forms"], bound=3)
    assert len(cases) == 8 and not any(c.ok() for c in cases)
    witnesses = {c.witness for c in cases}
    assert witnesses == {"{p0} is not a clopen upset", "{p0, p1} is not a clopen upset",
                         "{p0, p1, p2} is not a clopen upset"}


def test_a_d_table_without_an_upset_fails_its_case(monkeypatch):
    # the laws look d up by upset: a table that lacks one is refused
    # before any lookup, not with a KeyError out of the run
    d_table = oracle._d_table
    monkeypatch.setattr(oracle, "_d_table",
                        lambda E: {u: v for u, v in d_table(E).items() if u != E.full})
    cases = oracle.run_suite(["d-nucleus-laws"], bound=2)
    assert [c.witness for c in cases] == ["table must be total on the upsets of the space"] * 3


def test_an_internal_assertion_fails_its_case(monkeypatch):
    # dropping point 0 from Y_d makes regularity_suite's two tests disagree
    yd_set = sp.yd_set
    monkeypatch.setattr(sp, "yd_set", lambda E: yd_set(E) ^ 1)
    failed = [c for c in oracle.run_suite(["regularity-equivalences"], bound=3)
              if not c.ok()]
    assert failed and all(
        c.witness == "Y_d antichain test disagrees with max Y = Y_d" for c in failed)


def _drop_point_zero(fn):
    """Wrap a nuclear-set consumer or producer so point 0 goes missing."""
    def broken(arg):
        if isinstance(arg, NuclearSet):
            return fn(NuclearSet(arg.space, set(arg.members) - {0}))
        N = fn(arg)
        return NuclearSet(N.space, set(N.members) - {0})
    return broken


def _finite_only(fn, corrupt):
    """``fn`` with its result corrupted on finite engines only; the fan
    engines share ``spectrum`` and stay intact."""
    def broken(E, *args):
        out = fn(E, *args)
        return corrupt(E, out) if isinstance(E, sp.FiniteEngine) else out
    return broken


def _samples_with_a_twin(E, count, seed=0):
    samples = FanEngine.sample_clopen_upsets(E, count, seed=seed)
    return samples + [noncanonical_twin(samples[1])]


def _reversed_dual(L, fn=oracle.prime_filters):
    """The prime filters of L with the order of the dual turned over."""
    X, ji = fn(L)
    return FinitePoset(X.labels, X.down), ji


def _closure_to_full(E, a):
    """A wrong closure: every nonempty upset goes to the whole space, so
    d does too."""
    return E.full if a else a


def _down_as_identity(E, a):
    """A wrong down: U* and U -> V, which read the downset of their
    argument, take the argument itself."""
    return a


def _joined_with_argument(rule):
    """A fan engine's rule with its argument joined to its result."""
    return lambda E, u: tame_join(rule(E, u), u)


def _up_only_fan_m(E, a, fn=ChainFansEngine.strict_up):
    """y_m lies below fans 0..m; this puts only fan m above it."""
    up = fn(E, a)
    s = a.spine
    if s.flag or s.bits <= 0:
        return up
    fan_m = {s.bits.bit_length() - 1: FULL_REGION}
    return tame_meet(up, make_tame(E.family, EMPTY_REGION, fan_m,
                                   spine=FULL_REGION, omega_star=True))


def _up_without_blob(E, a, fn=OmegaFansEngine.strict_up):
    """The omega family's strict upset without the top blob."""
    return tame_meet(fn(E, a), make_tame(E.family, FULL_REGION, spine=FULL_REGION))


# The planted faults, the only ones.  Each row replaces one oracle name,
# spectrum function, engine method or lattice table with a fault built
# from the original at import, and names the ids it runs under and the
# ids that must then fail with a witness; the witnesses are kept in the
# ``# fault`` blocks of tests/golden/verify_b4.txt.  The first four
# rows each break one direction of the finite duality, the meet table
# that a lattice builds on first read, or the upsets that separate
# points.  The oracle rows after them each break the one
# side of a nuclei identity that its check compares.  The spectrum rows
# corrupt a finite result, and none of them makes a check raise.  The
# localic part, closure and a fan's content region change one cached
# quantity and leave alone at least one side it is compared with, so a
# clean value kept from an earlier run would hide them: the localic
# part changes Y_d (eqv-conditions-rmax compares it with three other
# forms), closure changes the d table and d, and a fan's content region
# changes the omega family's localic part and Y_d (fan-figures compares
# the report with the published figures).  A finite core that drops a
# point fails the core laws that arithmetic-core-law and fan-d-laws
# share (``oracle._core_laws``).  A fan sample that equals another
# pointwise but not structurally fails the tame soundness.  The last
# rows bend one closed-form rule of a fan engine a little, and the d
# laws fail it on the seeded samples.
FINITE_IDS = [tid for tid in sorted(oracle.CHECKS) if not tid.startswith("fan-")]
RUN_SCOPED_IDS = ["eqv-conditions-rmax", "unit-criteria", "d-is-double-negation"]
DUALITY_IDS = ["duality-round-trip", "stone-embedding"]

ENGINE_FAULTS = [
    # every element goes to the image of the top
    (oracle, "stone_map", lambda D, a, fn=oracle.stone_map: fn(D, D.top),
     DUALITY_IDS, {"stone-embedding"}),
    (oracle, "prime_filters", _reversed_dual, DUALITY_IDS, {"duality-round-trip"}),
    # the meet table, built on first read, is the join table
    (DistLattice, "meet", property(lambda D: D.join), DUALITY_IDS, {"stone-embedding"}),
    (oracle, "upset_masks", lambda P, fn=oracle.upset_masks: [u for u in fn(P) if u != P.up[0]],
     ["priestley-separation"], {"priestley-separation"}),
    (oracle, "nuclear_of_nucleus", _drop_point_zero(oracle.nuclear_of_nucleus),
     ["nuclei-galois"], {"nuclei-galois"}),
    (oracle, "nucleus_of_nuclear", _drop_point_zero(oracle.nucleus_of_nuclear),
     ["nuclei-order-reversal"], {"nuclei-order-reversal"}),
    (oracle, "admissible_upset", lambda j, fn=oracle.admissible_upset: fn(j) - {0},
     ["upset-Nj-eq-Fj"], {"upset-Nj-eq-Fj"}),
    (oracle, "nucleus_of_nuclear", _drop_point_zero(oracle.nucleus_of_nuclear),
     ["dense-iff-cofinal"], {"dense-iff-cofinal"}),
    (oracle, "nucleus_of_nuclear",
     lambda N, fn=oracle.nucleus_of_nuclear: fn(NuclearSet(N.space, range(N.space.n))),
     ["max-least-cofinal"], {"max-least-cofinal"}),
    (oracle, "booleanization", enumerate_upsets,
     ["booleanization-sublocale"], {"booleanization-sublocale"}),
    (oracle, "nucleus_of_nuclear", _drop_point_zero(oracle.nucleus_of_nuclear),
     ["lemma-nj-restrict"], {"lemma-nj-restrict"}),
    (oracle, "sublocale_of_nucleus",
     lambda j, fn=oracle.sublocale_of_nucleus: [s for s in fn(j) if s],
     ["sublocale-roundtrip"], {"sublocale-roundtrip"}),
    # every union of images over the upsets inside U gains point 0
    (oracle, "sub_upset_unions",
     lambda P, images, fn=oracle.sub_upset_unions: [u | 1 for u in fn(P, images)],
     ["inductive-core-collapse"], {"inductive-core-collapse"}),
    (sp, "yd_set", _finite_only(sp.yd_set, lambda E, y: y ^ 1), FINITE_IDS,
     {"eqv-conditions-rmax", "max-y-in-yd", "min-yd-homeomorphism",
      "min-yd-max-d-upsets", "regularity-equivalences"}),
    (sp, "min_yd", _finite_only(sp.min_yd, lambda E, m: m ^ 1), FINITE_IDS,
     {"compacts-d-initial", "max-bounded-iff-d-initial", "min-yd-homeomorphism",
      "min-yd-max-d-upsets", "t1-min-yd"}),
    (sp, "core_d", _finite_only(sp.core_d, lambda E, c: c ^ 1), FINITE_IDS,
     {"core-d-forms", "d-is-double-negation", "eqv-conditions-rmax"}),
    (sp, "rho_apply", _finite_only(sp.rho_apply, lambda E, r: r ^ 1), FINITE_IDS,
     {"rho-forms"}),
    (sp, "maximal_d_upsets", _finite_only(sp.maximal_d_upsets, lambda E, f: f[1:]),
     FINITE_IDS, {"min-yd-max-d-upsets", "rho-forms"}),
    # a* loses point 0: the one Heyting rule that d, rho, the maximal
    # d-upsets and the implication and interior checks read
    (sp, "pseudocomplement", _finite_only(sp.pseudocomplement, lambda E, a: a & ~1),
     FINITE_IDS,
     {"core-d-forms", "d-is-double-negation", "d-nucleus-laws", "eqv-conditions-rmax",
      "heyting-adjunction", "join-meet-formulas", "min-yd-homeomorphism",
      "min-yd-max-d-upsets", "rho-forms"}),
    (sp, "unit_search", _finite_only(sp.unit_search, lambda E, r: {
        **r, "status": "refutation" if r["status"] == "witness" else "witness"}),
     FINITE_IDS, {"unit-criteria"}),
    (sp, "localic_part", lambda E: E.full & ~1, RUN_SCOPED_IDS,
     {"eqv-conditions-rmax", "unit-criteria"}),
    (sp.FiniteEngine, "closure", _closure_to_full, RUN_SCOPED_IDS,
     {"eqv-conditions-rmax", "d-is-double-negation"}),
    (sp.FiniteEngine, "closure", _closure_to_full,
     ["join-meet-formulas", "arithmetic-core-law", "d-nucleus-laws", "regularity-equivalences"],
     {"join-meet-formulas", "arithmetic-core-law", "d-nucleus-laws", "regularity-equivalences"}),
    (sp.FiniteEngine, "down", _down_as_identity, ["heyting-adjunction"], {"heyting-adjunction"}),
    # point 0 is in no core, so the core of an upset holding it is not dense
    (sp.FiniteEngine, "core", lambda E, u: u & ~1, ["arithmetic-core-law"],
     {"arithmetic-core-law"}),
    # fan 0 no longer lies above its spine point
    (OmegaFansEngine, "_content_region",
     lambda E, a: region_meet(FanEngine._content_region(E, a), Region(~1)),
     ["fan-figures"], {"fan-figures"}),
    (OmegaFansEngine, "sample_clopen_upsets", _samples_with_a_twin,
     ["fan-tame-soundness"], {"fan-tame-soundness"}),
    # the star blob's points are not localic, so no core holds them (the
    # fan-plus-bottom engine inherits this core)
    (BareFanEngine, "core", _joined_with_argument(BareFanEngine.core),
     ["fan-d-laws"], {"fan-d-laws"}),
    # up(y) is the whole space, so y is in the d-core of the full set
    (FanPlusBottomEngine, "points_with_up_inside",
     lambda E, d, fn=FanPlusBottomEngine.points_with_up_inside:
         tame_meet(fn(E, d), make_tame(E.family, FULL_REGION)),
     ["fan-d-laws"], {"fan-d-laws"}),
    # every point of d counts as having its upset inside d: d of a sample
    # comes out no clopen upset, and d_apply of it raises
    (OmegaFansEngine, "points_with_up_inside",
     _joined_with_argument(OmegaFansEngine.points_with_up_inside),
     ["fan-d-laws"], {"fan-d-laws"}),
    # the stars off the bottoms and a blob without omega stay in the core
    (OmegaFansEngine, "core", _joined_with_argument(OmegaFansEngine.core),
     ["fan-d-laws"], {"fan-d-laws"}),
    (ChainFansEngine, "core", _joined_with_argument(ChainFansEngine.core),
     ["fan-d-laws"], {"fan-d-laws"}),
    # omega is the global minimum and not localic, so no Scott upset holds
    # it; this core keeps it wherever u does, and only the localic points
    # of the core see it
    (ChainFansEngine, "core",
     lambda E, u, fn=ChainFansEngine.core: tame_join(
         fn(E, u), tame_meet(u, make_tame(E.family, spine=Region(0, True)))),
     ["fan-d-laws"], {"fan-d-laws"}),
    (OmegaFansEngine, "clop_sup_test",
     lambda E, u, fn=OmegaFansEngine.clop_sup_test: fn(E, u) or True,
     ["fan-d-laws"], {"fan-d-laws"}),
    (ChainFansEngine, "clop_sup_test",
     lambda E, u, fn=ChainFansEngine.clop_sup_test: fn(E, u) and False,
     ["fan-d-laws"], {"fan-d-laws"}),
    # the spine run of points with their upset inside d stops at y_0
    (ChainFansEngine, "points_with_up_inside",
     lambda E, d, fn=ChainFansEngine.points_with_up_inside: tame_meet(fn(E, d), make_tame(
         E.family, FULL_REGION, spine=Region(1, True), omega_star=True)),
     ["fan-d-laws"], {"fan-d-laws"}),
    (ChainFansEngine, "strict_up", _up_only_fan_m, ["fan-d-laws"], {"fan-d-laws"}),
    # no strict upset holds the top blob: the d laws and the published
    # figures each fail it
    (OmegaFansEngine, "strict_up", _up_without_blob, ["fan-d-laws"], {"fan-d-laws"}),
    (OmegaFansEngine, "strict_up", _up_without_blob, ["fan-figures"], {"fan-figures"}),
]


def _fault_ids(rows):
    """A row's pytest id: the name it replaces, or else its owner's name
    and the name, or else the name and its first id, or else the owner's
    name, the name and the first id, whichever no other row shares first;
    rows that share all four are numbered."""
    keys = []
    for owner, name, _, ids, _ in rows:
        owned = f"{owner.__name__.rpartition('.')[2]}.{name}"
        keys.append((name, owned, f"{name}-{ids[0]}", f"{owned}-{ids[0]}"))
    out = []
    for k, row in enumerate(keys):
        unique = [key for i, key in enumerate(row) if [r[i] for r in keys].count(key) == 1]
        if unique:
            out.append(unique[0])
        else:
            twins = [j for j, r in enumerate(keys) if r == row]
            out.append(f"{row[1]}-{twins.index(k) + 1}")
    return out


FAULT_IDS = _fault_ids(ENGINE_FAULTS)

# the checks that no row of ENGINE_FAULTS fails, each with the reason
UNCOVERED = {}


def test_every_check_is_failed_by_a_planted_fault_or_says_why_not():
    caught = set().union(*(row[4] for row in ENGINE_FAULTS))
    assert set(oracle.CHECKS) - caught == set(UNCOVERED)
    assert caught <= set(oracle.CHECKS) and all(UNCOVERED.values())


@pytest.mark.parametrize("owner, name, fault, ids, caught", ENGINE_FAULTS, ids=FAULT_IDS)
def test_nothing_cached_outlives_a_run(monkeypatch, owner, name, fault, ids, caught):
    assert all(c.ok() for c in oracle.run_suite(ids, bound=3))
    monkeypatch.setattr(owner, name, fault)
    failed = [c for c in oracle.run_suite(ids, bound=3) if not c.ok()]
    assert all(c.witness for c in failed)
    assert {c.theorem_id for c in failed} == caught


def test_a_wrong_closure_names_the_upset(monkeypatch):
    # d-is-double-negation's witness is the first upset, in all_upsets
    # order, on which the three computations of d disagree
    monkeypatch.setattr(sp.FiniteEngine, "closure", _closure_to_full)
    cases = oracle.run_suite(["d-is-double-negation"], bound=3)
    posets = oracle.posets_up_to(3)
    assert len(cases) == len(posets)
    for P, case in zip(posets, cases):
        E = sp.FiniteEngine(P)
        table = oracle._d_table(E)
        first = next((u for u in E.all_upsets()
                      if not table[u] == sp.double_neg(E, u) == sp.d_apply(E, u)), None)
        assert case.witness == (None if first is None else E.describe_set(first)), repr(P)
    assert not all(c.ok() for c in cases)


def test_a_run_builds_one_engine_and_one_y_d_per_poset(monkeypatch):
    engines = []
    init = sp.FiniteEngine.__init__

    def counted_init(E, P):
        engines.append(P)
        init(E, P)

    tested = []
    yd_contains = sp.yd_contains

    def counted_yd_contains(E, y):
        if isinstance(E, sp.FiniteEngine):
            tested.append((id(E.poset), y))
        return yd_contains(E, y)

    monkeypatch.setattr(sp.FiniteEngine, "__init__", counted_init)
    monkeypatch.setattr(sp, "yd_contains", counted_yd_contains)
    posets = oracle.posets_up_to(4)
    assert all(c.ok() for c in oracle.run_suite(bound=4))
    assert len(engines) == len(posets)
    # Y_d tests every point of its poset once
    assert sorted(tested) == sorted((id(P), y) for P in posets for y in range(P.n))


def test_a_run_drops_what_it_derives_from_a_poset_after_its_checks(monkeypatch):
    # a poset's engine (with its d table and Y_d) is released before the
    # next poset's first check, and no enumerated poset keeps a table
    # (closure tables, splits, upset masks) once run_suite returns
    monkeypatch.setattr(oracle, "_POSET_MEMO", {})
    seen = []  # (poset, weakref to its engine), in run order

    def spy(tid, fn):
        def wrapper(instances):
            _, (x, *_) = instances[0]
            P = x.poset if isinstance(x, sp.FiniteEngine) else x
            if isinstance(P, FinitePoset):
                if not seen or seen[-1][0] is not P:
                    if seen:
                        gc.collect()
                        assert seen[-1][1]() is None, f"an engine is alive when {tid} runs"
                    seen.append((P, None))
                if x is not P:
                    seen[-1] = P, weakref.ref(x)
            return fn(instances)
        return wrapper

    for tid in oracle.CHECKS:
        monkeypatch.setitem(oracle.CHECKS, tid, spy(tid, oracle.CHECKS[tid]))
    assert all(c.ok() for c in oracle.run_suite(bound=3))
    posets = oracle.posets_up_to(3)
    assert [P for P, _ in seen] == posets
    assert all(ref is not None for _, ref in seen)
    gc.collect()
    assert seen[-1][1]() is None
    memo = [P for Ps in oracle._POSET_MEMO.values() for P in Ps]
    assert len(memo) == len(posets)
    assert [P for P in memo if P._tables] == []


def test_a_selection_builds_only_the_instances_it_reads(monkeypatch):
    engines = []
    init = sp.FiniteEngine.__init__

    def counted_init(E, P):
        engines.append(P)
        init(E, P)

    monkeypatch.setattr(sp.FiniteEngine, "__init__", counted_init)
    assert all(c.ok() for c in oracle.run_suite(["priestley-separation"], bound=4))
    assert engines == []


def test_a_run_validates_each_poset_as_a_lattice_once(monkeypatch):
    verdicts = []
    validate = oracle.validate_lattice

    def counted(P):
        try:
            D = validate(P)
        except WorkbenchError:
            verdicts.append("reject")
            raise
        verdicts.append("accept")
        return D

    monkeypatch.setattr(oracle, "validate_lattice", counted)
    assert all(c.ok() for c in oracle.run_suite(bound=5))
    assert len(verdicts) == len(oracle.posets_up_to(5)) == 87
    assert verdicts.count("accept") == 8


def test_the_space_round_trip_needs_no_lattice_and_no_stone_map(monkeypatch):
    def refused(*args):
        raise AssertionError("called by duality-round-trip")

    monkeypatch.setattr(oracle, "validate_lattice", refused)
    monkeypatch.setattr(oracle, "stone_map", refused)
    assert all(c.ok() for c in oracle.run_suite(["duality-round-trip"], bound=5))


NUCLEI_IDS = [
    "nuclei-galois", "nuclei-order-reversal", "upset-Nj-eq-Fj",
    "dense-iff-cofinal", "max-least-cofinal", "booleanization-sublocale",
    "lemma-nj-restrict", "sublocale-roundtrip", "inductive-core-collapse",
]


def test_nuclei_checks_alone_enumerate_only_to_the_nuclei_bound(monkeypatch):
    monkeypatch.setattr(oracle, "_POSET_MEMO", {})
    cases = oracle.run_suite(NUCLEI_IDS, bound=7)
    assert sorted(oracle._POSET_MEMO) == list(range(1, oracle.NUCLEI_BOUND + 1))
    assert len(cases) == len(NUCLEI_IDS) * 24 and all(c.ok() for c in cases)


def test_a_failing_nuclei_build_fails_only_its_own_case(monkeypatch):
    posets = oracle.posets_up_to(3)
    target = posets[3]
    nucleus_of_nuclear = oracle.nucleus_of_nuclear

    def planted(N):
        if N.space is target:
            raise ValueError("planted build failure")
        return nucleus_of_nuclear(N)

    monkeypatch.setattr(oracle, "nucleus_of_nuclear", planted)
    cases = oracle.run_suite(NUCLEI_IDS, bound=3)
    for tid in NUCLEI_IDS:
        mine = [c for c in cases if c.theorem_id == tid]
        assert [c.ok() for c in mine] == [P is not target for P in posets], tid
        assert mine[3].witness == "planted build failure", tid


def _counting(monkeypatch, name):
    """Replace ``spectrum.<name>`` with a wrapper that records arguments."""
    seen = []
    fn = getattr(sp, name)

    def counted(E, u):
        seen.append(u)
        return fn(E, u)

    monkeypatch.setattr(sp, name, counted)
    return seen


@pytest.mark.parametrize("family", FAMILIES)
def test_fan_d_laws_computes_each_d_once(monkeypatch, family):
    # samples repeat, d of a sample and many meets of two are samples:
    # d of each distinct set is computed once and looked up after
    calls = _counting(monkeypatch, "d_apply")
    E = engine_for(family)
    cases = oracle.CHECKS["fan-d-laws"]([(E.name, (E, oracle.DEFAULT_SEED))])
    assert [c.ok() for c in cases] == [True]
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("family", FAMILIES)
def test_fan_tame_soundness_complements_each_set_once(monkeypatch, family):
    seen = []
    complement = oracle.tame_complement

    def counted(a):
        seen.append(a)
        return complement(a)

    monkeypatch.setattr(oracle, "tame_complement", counted)
    E = engine_for(family)
    cases = oracle.CHECKS["fan-tame-soundness"]([(E.name, (E, oracle.DEFAULT_SEED))])
    assert [c.ok() for c in cases] == [True]
    assert seen and len(seen) == len(set(seen))


def _drops_last_exception(op):
    """op with the last exception fan of its result dropped, when both
    operands have exception fans and differ: wrong only at the classes
    of the operands, which the result's own classes need not show."""
    def faulty(a, b):
        r = op(a, b)
        if a.fan_exc and b.fan_exc and a != b:
            r = TameSet(r.family, r.fan_default, r.fan_exc[:-1], r.spine, r.omega_star)
        return r

    return faulty


@pytest.mark.parametrize("name, family", [
    ("tame_join", "omega_fans"), ("tame_join", "chain_fans"),
    ("tame_meet", "omega_fans"),
])
def test_fan_tame_soundness_probes_the_operands_classes(monkeypatch, name, family):
    monkeypatch.setattr(oracle, name, _drops_last_exception(getattr(oracle, name)))
    E = engine_for(family)
    cases = oracle.CHECKS["fan-tame-soundness"]([(E.name, (E, oracle.DEFAULT_SEED))])
    assert [c.status for c in cases] == ["failed"]
    assert cases[0].witness.startswith(name[len("tame_"):] + " at ")


def test_d_table_double_negates_each_upset_once(monkeypatch):
    calls = _counting(monkeypatch, "double_neg")
    for P in oracle.posets_up_to(4):
        E = sp.FiniteEngine(P)
        calls.clear()
        oracle._d_table(E)
        assert sorted(calls) == sorted(E.all_upsets()), repr(P)


def test_eqv_conditions_rmax_computes_each_core_once(monkeypatch):
    calls = _counting(monkeypatch, "core_d")
    for P in oracle.posets_up_to(4):
        E = sp.FiniteEngine(P)
        calls.clear()
        assert oracle.CHECKS["eqv-conditions-rmax"]([(E.name, (E,))])[0].ok()
        assert sorted(calls) == sorted(E.all_upsets()), repr(P)


class CountingUp(sp.FiniteEngine):
    def up(self, a):
        self.up_calls += 1
        return super().up(a)


def test_compacts_d_initial_computes_each_image_once():
    # the helpers call up once per upset for the Scott test, once per
    # upset for the d-initial test and once per point for Y_d; the check
    # itself once per subset K of min Y_d
    for P in oracle.posets_up_to(5):
        E = CountingUp(P)
        E.up_calls = 0
        assert oracle.CHECKS["compacts-d-initial"]([(E.name, (E,))])[0].ok()
        k = sp.min_yd(sp.FiniteEngine(P)).bit_count()
        assert E.up_calls <= 2 * len(E.all_upsets()) + E.n + 2 ** k, repr(P)


def heyting_adjunction_reference(E):
    """The U^3 form of check_heyting_adjunction: one test per (u, v, w)."""
    ups = E.all_upsets()
    pc = lambda a: E.full & ~E.down(a)
    imp = lambda a, b: E.full & ~E.down(a & ~b)
    for u in ups:
        # U* is the largest upset disjoint from U
        largest = 0
        for w in ups:
            if w & u == 0:
                largest |= w
        if pc(u) != largest:
            return f"U* != U -> empty at {E.describe_set(u)}"
        for v in ups:
            i = imp(u, v)
            for w in ups:
                if ((w & u) & ~v == 0) != (w & ~i == 0):
                    return f"adjunction at {E.describe_set(u)}, {E.describe_set(v)}"


class UpForDown(sp.FiniteEngine):
    def down(self, a):
        return super().up(a)


@pytest.mark.parametrize("engine", [sp.FiniteEngine, UpForDown])
def test_heyting_adjunction_matches_the_cubic_form(engine):
    failed = 0
    for P in oracle.posets_up_to(5):
        E = engine(P)
        got = oracle.check_heyting_adjunction(E)
        assert got == heyting_adjunction_reference(E), repr(P)
        failed += got is not None
    # the broken down is caught, so witnesses were compared too
    assert (failed > 0) == (engine is UpForDown)


def test_heyting_adjunction_catches_a_wrong_pseudocomplement(monkeypatch):
    # with down the identity, U* and U -> empty are both X \ U, so
    # comparing the two with each other can never fail; the check
    # compares U* with the largest upset disjoint from U instead
    monkeypatch.setattr(sp.FiniteEngine, "down", _down_as_identity)
    E = sp.FiniteEngine(build_poset(["a", "b"], [("a", "b")]))
    assert oracle.check_heyting_adjunction(E) == "U* != U -> empty at {b}"


def _laws_instance(name):
    """An engine, its d, its universe and its pairs, as d-nucleus-laws
    and fan-d-laws give them to ``oracle._nucleus_laws``."""
    if name == "finite":
        E = sp.FiniteEngine(build_poset(["a", "b", "c"], [("a", "b")]))
        pairs = [(v, m) for _, v, m in oracle.upset_meet_splits(E.poset)]
        return E, oracle._d_table(E).__getitem__, E.all_upsets(), pairs
    E = engine_for(name)
    samples = E.sample_clopen_upsets(oracle.SAMPLE_COUNT, seed=oracle.DEFAULT_SEED)
    pairs = [(u, v) for u in samples[:12] for v in samples[:12]]
    return E, lambda u: sp.d_apply(E, u), list(dict.fromkeys(samples)), pairs


@pytest.mark.parametrize("name", ["finite", "omega_fans"])
def test_a_law_fault_gives_one_witness_on_finite_and_fan_engines(name):
    # d swaps the empty and the full set: inflationary and clopen at the
    # empty set, the first member of both universes, and not idempotent
    E, d, universe, pairs = _laws_instance(name)
    assert universe[0] == E.empty and oracle._nucleus_laws(E, d, universe, pairs) is None
    swapped = {E.empty: E.full, E.full: E.empty}
    planted = lambda u: swapped[u] if u in swapped else d(u)
    assert (oracle._nucleus_laws(E, planted, universe, pairs)
            == f"not idempotent at {E.describe_set(E.empty)}")


KIND_TAG = re.compile(r"Kind \(([abc])\)")


def test_each_engine_check_names_its_kind_once():
    # (a) a law of every arithmetic frame over its clopen (Scott) upsets,
    # (b) a finite collapse, (c) an extremal or existential statement
    tags = {tid: KIND_TAG.findall(oracle.CHECKS[tid].args[1].__doc__ or "")
            for tid, kind in oracle.KINDS.items() if kind == "engine"}
    assert len(tags) == 16
    assert {tid: t for tid, t in tags.items() if len(t) != 1} == {}
    assert {tid for tid, t in tags.items() if t == ["a"]} == {
        "arithmetic-core-law", "d-nucleus-laws", "heyting-adjunction",
        "join-meet-formulas"}
