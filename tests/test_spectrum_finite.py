"""Finite engine: d-machinery collapses, checked from both sides."""

import pytest

from priestley import build_poset, oracle
from priestley import spectrum as sp
from priestley.errors import NotClopenUpset, NotRepresentable
from priestley.poset import drop_tables


def engine(labels, covers):
    return sp.FiniteEngine(build_poset(labels, covers))


def two_chain():
    return engine(["x1", "x2"], [("x1", "x2")])


def two_antichain():
    return engine(["a", "b"], [])


def test_point_set_rejects_points_the_poset_lacks():
    # a point is an index of the poset: not a bool, not out of range
    E = two_chain()
    assert E.point_set(1) == 2
    for pt in (5, 2, -1, True):
        for query in (E.point_set, lambda pt: sp.yd_contains(E, pt)):
            with pytest.raises(NotRepresentable):
                query(pt)


def test_localic_points_every_point():
    # computed from each principal downset, not taken as given
    for P in oracle.posets_up_to(5):
        E = sp.FiniteEngine(P)
        assert sp.localic_part(E) == E.full, repr(P)
        drop_tables(P)  # the enumeration memo keeps P


def test_scott_upset_every_upset():
    E = two_chain()
    for u in E.all_upsets():
        assert sp.scott_upset_flag(E, u)


def test_is_scott_upset_rejects_non_upsets():
    E = two_chain()
    assert not sp.scott_upset_flag(E, 0b01)  # {x1} is not an upset


def test_core_is_identity():
    E = two_chain()
    for u in E.all_upsets():
        assert E.core(u) == u


def test_d_rejects_non_upsets():
    E = two_chain()
    with pytest.raises(NotClopenUpset):
        sp.d_apply(E, 0b01)


def test_d_examples():
    E = two_chain()
    # {x2}** is the whole space
    assert sp.d_apply(E, 0b10) == E.full
    assert sp.d_apply(E, E.empty) == E.empty
    assert sp.d_apply(E, E.full) == E.full


def test_core_d_example():
    # up(x1) = X lies inside down({x2}) = X
    E = two_chain()
    assert sp.core_d(E, 0b10) == E.full
    assert sp.core_d(E, E.full) == E.full


def test_yd_is_max():
    E = two_chain()
    assert sp.yd_set(E) == 0b10
    A = two_antichain()
    assert sp.yd_set(A) == A.full


def test_min_yd_finite_discrete():
    E = two_chain()
    assert sp.min_yd(E) == 0b10
    assert sp.topology_class(E) == "finite-discrete"


def test_maximal_d_upsets_examples():
    E = two_chain()
    assert sp.maximal_d_upsets(E) == [E.empty]
    A = two_antichain()
    assert sorted(sp.maximal_d_upsets(A)) == [0b01, 0b10]


def test_rho_examples():
    E = two_chain()
    assert sp.rho_apply(E, E.empty) == E.empty
    assert sp.rho_apply(E, 0b10) == E.full
    assert sp.rho_apply(E, E.full) == E.full
    assert sp.rho_nuclear(E) == sp.min_yd(E)


def test_d_initial_and_max_bounded():
    E = two_chain()
    assert sp.d_initial_check(E, sp.nd_set(E))
    assert sp.max_bounded(E)


@pytest.mark.parametrize("z", [True, False, -1, 0b100, "x1", None])
def test_d_initial_check_refuses_what_is_not_a_point_mask(z):
    # True == 1 is the mask {x1}, but a bool is refused as mask_of does
    E = two_chain()
    assert not E.is_representable(z)
    with pytest.raises(NotRepresentable):
        sp.d_initial_check(E, z)


def test_unit_is_whole_space():
    E = two_chain()
    unit = sp.unit_search(E)
    assert unit["status"] == "witness" and unit["witness"] == E.full


def test_regularity_all_true():
    E = two_chain()
    assert sp.regularity_suite(E) == {"antichain": True, "max_y_equals_yd": True}


def test_report_flags_all_true():
    for E in (two_chain(), two_antichain(),
              engine(["a", "b", "c"], [("a", "c"), ("b", "c")])):
        r = sp.spectrum_report(E)
        assert r.t1 and r.compact and r.hausdorff and r.has_unit
        assert r.l_d_regular and r.max_bounded and r.n_d_d_initial
        assert r.topology_class == "finite-discrete"


def test_report_json_round_trip_stable():
    import json

    E = two_chain()
    a = json.dumps(sp.spectrum_report(E).to_json_dict(), sort_keys=True)
    b = json.dumps(sp.spectrum_report(sp.FiniteEngine(E.poset)).to_json_dict(),
                   sort_keys=True)
    assert a == b
