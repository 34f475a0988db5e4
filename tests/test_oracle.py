"""The verifier itself: enumeration counts, determinism, green runs."""

import gc
import weakref

import pytest

from priestley import FinitePoset, NuclearSet, build_poset, enumerate_upsets, oracle
from priestley import spectrum as sp
from priestley.fans import (FAMILIES, FanEngine, OmegaFansEngine, Region, TameSet,
                            engine_for, region_meet)
from priestley.errors import BoundExceeded, EmptySelection, UnknownTheoremId
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
    # point 0 joins every d image: a non-upset image makes Nucleus raise
    # ValueError, which must become a failed case, not abort the suite
    d_table = oracle._d_table
    monkeypatch.setattr(oracle, "_d_table",
                        lambda E: {u: v | 1 for u, v in d_table(E).items()})
    cases = oracle.run_suite(["d-nucleus-laws"], bound=3)
    assert len(cases) == 8 and not any(c.ok() for c in cases)
    witnesses = {c.witness for c in cases}
    assert witnesses == {"d is not dense", "image of [] is not an upset"}


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


# The planted faults, the only ones.  Each row replaces one oracle name,
# spectrum function or engine method with a fault built from the
# original at import, and names the ids it runs under and the ids that
# must then fail with a witness.  The oracle rows each break the one
# side of a nuclei identity that its check compares.  The spectrum rows
# corrupt a finite result, and none of them makes a check raise.  The
# last four change one cached quantity and leave alone at least one side
# it is compared with, so a clean value kept from an earlier run would
# hide them: the localic part changes Y_d (eqv-conditions-rmax compares
# it with three other forms), closure changes the d table and d, and a
# fan's content region changes the omega family's localic part and Y_d
# (fan-figures compares the report with the published figures).  The
# very last adds a sample that equals another pointwise but not
# structurally.
FINITE_IDS = [tid for tid in sorted(oracle.CHECKS) if not tid.startswith("fan-")]
RUN_SCOPED_IDS = ["eqv-conditions-rmax", "unit-criteria", "d-is-double-negation"]

ENGINE_FAULTS = [
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
    (sp, "yd_set", _finite_only(sp.yd_set, lambda E, y: y | 1), FINITE_IDS,
     {"eqv-conditions-rmax", "min-yd-max-d-upsets"}),
    (sp, "min_yd", _finite_only(sp.min_yd, lambda E, m: m ^ 1), FINITE_IDS,
     {"compacts-d-initial", "max-bounded-iff-d-initial", "min-yd-max-d-upsets",
      "t1-min-yd"}),
    (sp, "core_d", _finite_only(sp.core_d, lambda E, c: c ^ 1), FINITE_IDS,
     {"core-d-forms", "d-is-double-negation", "eqv-conditions-rmax"}),
    (sp, "rho_apply", _finite_only(sp.rho_apply, lambda E, r: r ^ 1), FINITE_IDS,
     {"rho-forms"}),
    (sp, "maximal_d_upsets", _finite_only(sp.maximal_d_upsets, lambda E, f: f[1:]),
     FINITE_IDS, {"min-yd-max-d-upsets", "rho-forms"}),
    (sp, "unit_search", _finite_only(sp.unit_search, lambda E, r: {
        **r, "status": "refutation" if r["status"] == "witness" else "witness"}),
     FINITE_IDS, {"unit-criteria"}),
    (sp, "localic_part", lambda E: E.full & ~1, RUN_SCOPED_IDS,
     {"eqv-conditions-rmax", "unit-criteria"}),
    # closure sends every nonempty upset to the whole space, so d does too
    (sp.FiniteEngine, "closure", lambda E, a: E.full if a else a, RUN_SCOPED_IDS,
     {"eqv-conditions-rmax", "d-is-double-negation"}),
    # fan 0 no longer lies above its spine point
    (OmegaFansEngine, "_content_region",
     lambda E, a: region_meet(FanEngine._content_region(E, a), Region(~1)),
     ["fan-figures"], {"fan-figures"}),
    (OmegaFansEngine, "sample_clopen_upsets", _samples_with_a_twin,
     ["fan-tame-soundness"], {"fan-tame-soundness"}),
]
# a row is named by what it replaces, and by its first id when that repeats
_REPLACED = [name for _, name, *_ in ENGINE_FAULTS]
FAULT_IDS = [name if _REPLACED.count(name) == 1 else f"{name}-{ids[0]}"
             for _, name, _, ids, _ in ENGINE_FAULTS]


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
    [(owner, name, fault, _, _)] = [f for f in ENGINE_FAULTS if f[1] == "closure"]
    monkeypatch.setattr(owner, name, fault)
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


class DownIsIdentity(sp.FiniteEngine):
    def down(self, a):
        return a


def test_heyting_adjunction_catches_a_wrong_pseudocomplement():
    # with down the identity, U* and U -> empty are both X \ U, so
    # comparing the two with each other can never fail; the check
    # compares U* with the largest upset disjoint from U instead
    E = DownIsIdentity(build_poset(["a", "b"], [("a", "b")]))
    assert oracle.check_heyting_adjunction(E) == "U* != U -> empty at {b}"
