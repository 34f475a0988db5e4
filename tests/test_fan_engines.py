"""Per-family engine facts: localic parts, Y_d, units, d laws, rho."""

import pytest

from priestley import spectrum as sp
from priestley.errors import FamilyMismatch
from priestley.fans import (
    FAMILIES,
    OMEGA,
    OMEGA_STAR,
    Region,
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


def test_localic_parts(engines):
    E = engines["omega_fans"]
    y = sp.localic_points(E)
    assert y.member(fan_point(4, 7)) and y.member(spine_point(9))
    assert y.member(OMEGA)
    assert not y.member(fan_star(0)) and not y.member(OMEGA_STAR)

    E = engines["fan_plus_bottom"]
    y = sp.localic_points(E)
    assert y.member(fan_point(0, 3)) and y.member(spine_point(0))
    assert not y.member(fan_star(0))

    E = engines["chain_fans"]
    y = sp.localic_points(E)
    assert y.member(fan_point(2, 2)) and y.member(spine_point(5))
    assert not y.member(OMEGA) and not y.member(OMEGA_STAR)

    E = engines["bare_fan"]
    y = sp.localic_points(E)
    assert y.member(fan_point(0, 0)) and not y.member(fan_star(0))


def test_yd_equals_localic_part_everywhere(engines):
    # all four families have Y_d = Y; what varies is min Y_d
    for fam, E in engines.items():
        assert sp.yd_set(E) == sp.localic_points(E), fam


def test_max_y_strictly_inside_yd_for_fan_plus_bottom(engines):
    E = engines["fan_plus_bottom"]
    maxy = sp.maximal_of(E, sp.localic_points(E))
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


def test_classify_frame_all_families(engines):
    for fam, E in engines.items():
        assert sp.classify_frame(E) == {"algebraic": True, "arithmetic": True}, fam


def test_scott_upsets_closed_under_intersection(engines):
    for fam, E in engines.items():
        samples = [u for u in E.sample_clopen_upsets(40, seed=8)
                   if E.clop_sup_test(u)]
        for a in samples:
            for b in samples:
                assert E.clop_sup_test(E.meet(a, b)), (fam, E.describe_set(a),
                                                       E.describe_set(b))


def test_stably_locally_compact_lemma(engines):
    # locally compact + sober + coherent forces Hausdorff; the omega
    # family fails exactly sobriety
    for fam, E in engines.items():
        flags = E.min_yd_space_flags
        r = sp.spectrum_report(E)
        # the report holds its own copy, never the class-level dict
        assert r.min_yd_space_flags == flags
        assert r.min_yd_space_flags is not flags
        if all(flags.values()):
            assert r.hausdorff, fam
        if fam == "omega_fans":
            assert flags == {"locally_compact": True, "sober": False,
                             "coherent": True}


def test_core_density(engines):
    for fam, E in engines.items():
        for u in E.sample_clopen_upsets(40, seed=12):
            assert E.closure(E.core(u)) == u, (fam, E.describe_set(u))
