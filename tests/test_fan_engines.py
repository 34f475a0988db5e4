"""Per-family engine facts: localic parts, Y_d, units, d laws, rho."""

import pytest

from priestley import spectrum as sp
from priestley.errors import FamilyMismatch, NotLocalic, NotRepresentable
from priestley.fans import (
    FAMILIES,
    OMEGA,
    OMEGA_STAR,
    Region,
    SymbolicPoint,
    engine_for,
    fan_point,
    fan_star,
    make_tame,
    spine_point,
    tame_full,
)


@pytest.fixture(scope="module")
def engines():
    return {fam: engine_for(fam) for fam in FAMILIES}


def test_engine_for_rejects_an_unknown_family():
    assert engine_for("omega_fans").family == "omega_fans"
    with pytest.raises(FamilyMismatch):
        engine_for("nope")


def test_point_set_rejects_points_the_family_lacks(engines):
    E = engines["fan_plus_bottom"]
    assert E.point_set(spine_point(0)).member(spine_point(0))
    # the spine of fan_plus_bottom is y = y(0) alone; a later spine point
    # is no point of the space, so Y_d membership must not answer False
    for query in (E.point_set, lambda pt: sp.yd_contains(E, pt)):
        with pytest.raises(NotRepresentable):
            query(spine_point(5))
    lacking = {
        "bare_fan": [spine_point(0), OMEGA, OMEGA_STAR, fan_point(1, 0)],
        "fan_plus_bottom": [spine_point(1), OMEGA, OMEGA_STAR, fan_star(1)],
        "omega_fans": [],
        "chain_fans": [],
    }
    lacking["bare_fan"].append(fan_point(3, 0))
    negative = [fan_point(0, -1), fan_point(-1, 0), fan_star(-1), spine_point(-1),
                spine_point(-2), SymbolicPoint("bogus")]
    # an index is a plain int: True would read as fan 1 and 1.0 would
    # build an exception fan indexed by a float
    not_ints = [fan_point(True, 0), fan_point(False, 0), fan_point(0, True),
                fan_point(0, 2.0), fan_star(1.0), fan_star(False),
                spine_point(1.5), spine_point(True), SymbolicPoint("omega", 0.0)]
    # membership asks the same one test of a point as point_set
    for fam, E in engines.items():
        for pt in lacking[fam] + negative + not_ints:
            for query in (E.point_set, E.full.member, lambda pt: pt in E.full):
                with pytest.raises(NotRepresentable):
                    query(pt)
    assert repr(SymbolicPoint("bogus")) != repr(OMEGA_STAR) == "X_omega*"


def test_localic_parts(engines):
    E = engines["omega_fans"]
    y = sp.localic_part(E)
    assert y.member(fan_point(4, 7)) and y.member(spine_point(9))
    assert y.member(OMEGA)
    assert not y.member(fan_star(0)) and not y.member(OMEGA_STAR)

    E = engines["fan_plus_bottom"]
    y = sp.localic_part(E)
    assert y.member(fan_point(0, 3)) and y.member(spine_point(0))
    assert not y.member(fan_star(0))

    E = engines["chain_fans"]
    y = sp.localic_part(E)
    assert y.member(fan_point(2, 2)) and y.member(spine_point(5))
    assert not y.member(OMEGA) and not y.member(OMEGA_STAR)

    E = engines["bare_fan"]
    y = sp.localic_part(E)
    assert y.member(fan_point(0, 0)) and not y.member(fan_star(0))


@pytest.mark.parametrize("family", FAMILIES)
def test_yd_membership_refuses_a_point_outside_the_localic_part(family):
    # the star X*(0) of fan 0 is a point of every family, but not a
    # localic one, so Y_d membership is not a question about it
    with pytest.raises(NotLocalic) as info:
        sp.yd_contains(engine_for(family), fan_star(0))
    assert "X*(0)" in str(info.value)


@pytest.mark.parametrize("family", FAMILIES)
def test_select_and_member_reps_agree_with_the_algebra(family):
    # both read one walk over a set's pieces: select keeps exactly the
    # pieces that pass, and every representative lies in its set
    E = engine_for(family)
    structural = [sp.localic_part(E), sp.max_set(E), sp.yd_set(E)]
    for a in E.sample_clopen_upsets(60) + [E.full, E.empty]:
        assert E.select(a, lambda p: True) == a, E.describe_set(a)
        assert E.select(a, lambda p: False) == E.empty, E.describe_set(a)
        for b in structural:
            assert E.select(a, lambda p: p in b) == E.meet(a, b), E.describe_set(a)
        assert all(p in a for p in E.member_reps(a)), E.describe_set(a)


def test_yd_equals_localic_part_everywhere(engines):
    # all four families have Y_d = Y; what varies is min Y_d
    for fam, E in engines.items():
        assert sp.yd_set(E) == sp.localic_part(E), fam


def test_max_y_strictly_inside_yd_for_fan_plus_bottom(engines):
    E = engines["fan_plus_bottom"]
    maxy = sp.maximal_of(E, sp.localic_part(E))
    assert maxy == make_tame("fan_plus_bottom", Region(-1))
    assert maxy != sp.yd_set(E)  # y witnesses the strict inclusion


def test_min_yd_per_family(engines):
    assert sp.min_yd(engines["bare_fan"]) == make_tame(
        "bare_fan", Region(-1)
    )
    assert sp.min_yd(engines["fan_plus_bottom"]) == make_tame(
        "fan_plus_bottom", spine=Region(1)
    )
    assert sp.min_yd(engines["omega_fans"]) == make_tame(
        "omega_fans", spine=Region(-1)
    )
    assert sp.min_yd(engines["chain_fans"]).is_empty_set()


def test_topology_classes(engines):
    assert sp.topology_class(engines["bare_fan"]) == "discrete"
    assert sp.topology_class(engines["fan_plus_bottom"]) == "finite-discrete"
    assert sp.topology_class(engines["omega_fans"]) == "cofinite"
    assert sp.topology_class(engines["chain_fans"]) == "empty"


def test_cofinite_basis_law(engines):
    # each clopen upset traces the empty set or a cofinite set on the
    # spine, and every cofinite trace is realized
    E = engines["omega_fans"]
    m = sp.min_yd(E)
    for u in E.sample_clopen_upsets(80, seed=13):
        trace = E.meet(u, m)
        spine = trace.spine
        assert spine.bits < 0 or spine.bits == 0
    realized = E.diff(E.full, E.down(E.point_set(spine_point(3))))
    trace = E.meet(realized, m)
    assert trace.spine == Region(~0b1000, False)
    assert sp.is_clopen_upset(E, realized)


def test_units(engines):
    for fam, expected in (
        ("bare_fan", False), ("fan_plus_bottom", True),
        ("omega_fans", True), ("chain_fans", False),
    ):
        unit = sp.unit_search(engines[fam])
        assert (unit["status"] == "witness") == expected, fam
    # the refutation certificates name the blocking classes
    assert repr(sp.unit_search(engines["chain_fans"])["certificate"]) == "X_omega*"
    assert repr(sp.unit_search(engines["bare_fan"])["certificate"]) == "X*(0)"
    # the witnesses are the whole spaces
    assert sp.unit_search(engines["omega_fans"])["witness"] == tame_full("omega_fans")


def test_compactness(engines):
    for fam, expected in (
        ("bare_fan", False), ("fan_plus_bottom", True),
        ("omega_fans", True), ("chain_fans", True),
    ):
        E = engines[fam]
        assert sp.scott_upset_flag(E, E.up(sp.min_yd(E))) == expected, fam


def test_max_bounded(engines):
    for fam, expected in (
        ("bare_fan", True), ("fan_plus_bottom", True),
        ("omega_fans", True), ("chain_fans", False),
    ):
        assert sp.max_bounded(engines[fam]) == expected, fam


def test_d_identity_on_bare_fan(engines):
    E = engines["bare_fan"]
    for u in E.sample_clopen_upsets(60, seed=3):
        assert sp.d_apply(E, u) == u


def test_d_scott_upsets_double_negation(engines):
    for fam, E in engines.items():
        for u in E.sample_clopen_upsets(60, seed=9):
            if E.clop_sup_test(u):
                assert sp.d_apply(E, u) == sp.double_neg(E, u), (fam,
                                                                 E.describe_set(u))


def test_d_inductive_form_matches_nuclear_form(engines):
    for fam, E in engines.items():
        nd = sp.nd_set(E)
        for u in E.sample_clopen_upsets(60, seed=10):
            via_nuclear = E.diff(E.full, E.down(E.diff(nd, u)))
            assert sp.d_apply(E, u) == via_nuclear, (fam, E.describe_set(u))


def test_rho_nuclear_sets(engines):
    # cl(min Y_d) per family: the closure adds omega over the spine
    E = engines["omega_fans"]
    assert sp.rho_nuclear(E) == make_tame(
        "omega_fans", spine=Region(-1, True)
    )
    assert sp.rho_nuclear(engines["chain_fans"]).is_empty_set()
    assert sp.rho_nuclear(engines["fan_plus_bottom"]) == make_tame(
        "fan_plus_bottom", spine=Region(1)
    )
    # with min Y_d dense in the localic part, rho fixes every sample
    E = engines["bare_fan"]
    for u in E.sample_clopen_upsets(40, seed=4):
        assert sp.rho_apply(E, u) == u


def test_rho_trivial_top(engines):
    for fam, E in engines.items():
        assert sp.rho_apply(E, E.full) == E.full, fam


def test_rho_collapse_on_chain(engines):
    # empty min Y_d: rho sends everything to the top
    E = engines["chain_fans"]
    for u in E.sample_clopen_upsets(20, seed=6):
        assert sp.rho_apply(E, u) == E.full


def test_scott_upsets_closed_under_intersection(engines):
    for fam, E in engines.items():
        samples = [u for u in E.sample_clopen_upsets(40, seed=8)
                   if E.clop_sup_test(u)]
        for a in samples:
            for b in samples:
                assert E.clop_sup_test(E.meet(a, b)), (fam, E.describe_set(a),
                                                       E.describe_set(b))


def test_stably_locally_compact_lemma(engines):
    # over every row of the class table: a cofinite class is not
    # Hausdorff, and a row is Hausdorff exactly when it is locally
    # compact, sober and coherent (on a T1 space these force Hausdorff);
    # the cofinite class fails exactly sobriety
    assert set(sp.MIN_YD_CLASSES) == {"empty", "finite-discrete", "discrete", "cofinite"}
    for klass, (hausdorff, flags) in sp.MIN_YD_CLASSES.items():
        assert not (klass == "cofinite" and hausdorff), klass
        assert all(flags.values()) == hausdorff, klass
    assert sp.MIN_YD_CLASSES["cofinite"] == (False, {
        "locally_compact": True, "sober": False, "coherent": True})
    for fam, E in engines.items():
        r = sp.spectrum_report(E)
        hausdorff, flags = sp.MIN_YD_CLASSES[r.topology_class]
        # the report holds its own copy, never the table's entry
        assert r.min_yd_space_flags == flags
        assert r.min_yd_space_flags is not flags
        assert r.hausdorff == hausdorff, fam


def test_core_density(engines):
    for fam, E in engines.items():
        for u in E.sample_clopen_upsets(40, seed=12):
            assert E.closure(E.core(u)) == u, (fam, E.describe_set(u))
