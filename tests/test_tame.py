"""The tame algebra: canonical forms, Boolean ops, topology, order."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priestley.errors import FamilyMismatch, NotRepresentable
from priestley.fans import (
    EMPTY_REGION,
    FAMILIES,
    FULL_REGION,
    OMEGA,
    OMEGA_STAR,
    Region,
    engine_for,
    fan_point,
    fan_star,
    make_tame,
    region_subset,
    spine_point,
    tame_closure,
    tame_complement,
    tame_diff,
    tame_empty,
    tame_from_json,
    tame_full,
    tame_is_closed,
    tame_is_open,
    tame_join,
    tame_meet,
    tame_to_json,
)
from priestley.oracle import noncanonical_twin
from priestley.poset import _mask


def fins(*ks):
    return Region(_mask(ks))


def cofins(*ks):
    return Region(~_mask(ks))


def test_region_op_examples():
    # fin{1,5} & cofin{} keeps exactly the two points
    a = make_tame("omega_fans", fan_exc={0: fins(1, 5)})
    b = make_tame("omega_fans", fan_exc={0: cofins()})
    assert tame_meet(a, b)._fan_region(0) == fins(1, 5)
    # complement of full is empty
    assert tame_complement(tame_full("omega_fans")) == tame_empty("omega_fans")
    # cofin{1} | fin{1} fills the whole fan-point part
    c = make_tame("omega_fans", fan_exc={0: cofins(1)})
    d = make_tame("omega_fans", fan_exc={0: fins(1)})
    joined = tame_join(c, d)
    assert joined._fan_region(0) == cofins()
    assert joined.member(fan_point(0, 1)) and joined.member(fan_point(0, 2))


def test_boolean_op_examples():
    a = make_tame("bare_fan", fins(1))
    b = make_tame("bare_fan", fins(2))
    assert tame_join(a, b).member(fan_point(0, 2))
    assert not tame_meet(a, b).member(fan_point(0, 1))
    assert tame_diff(a, b) == a
    assert tame_complement(a).member(fan_point(0, 3))


def test_family_mismatch():
    with pytest.raises(FamilyMismatch):
        tame_meet(tame_empty("bare_fan"), tame_empty("omega_fans"))


def test_canonical_forms_unique():
    # a redundant exception entry breaks structural equality although
    # the two sets agree pointwise; the canonical constructor never
    # produces such a twin
    a = make_tame("omega_fans", FULL_REGION, {0: FULL_REGION})
    assert a.fan_exc == ()
    twin = noncanonical_twin(tame_full("omega_fans"))
    assert twin != tame_full("omega_fans")
    assert twin.member(fan_point(5, 3)) == tame_full("omega_fans").member(
        fan_point(5, 3)
    )


def test_region_and_tame_set_contract():
    # a region is one int: equal point sets are == and hash equal
    assert Region(0b110) == fins(2, 1) and hash(Region(0b110)) == hash(fins(1, 2))
    with pytest.raises(TypeError):
        Region(frozenset({1, 2}))
    # equal tame sets built along different paths are == and hash equal
    a = make_tame("omega_fans", FULL_REGION, {3: fins(1), 0: cofins(2), 5: FULL_REGION},
                  spine=Region(~0b1001, True), omega_star=True)
    twins = [
        make_tame("omega_fans", FULL_REGION, {0: cofins(2), 3: fins(1)},
                  spine=Region(cofins(3, 0).bits, True), omega_star=True),
        tame_complement(tame_complement(a)),
        tame_meet(a, tame_full("omega_fans")),
        tame_join(tame_empty("omega_fans"), a),
        tame_from_json("omega_fans", tame_to_json(a)),
    ]
    for b in twins:
        assert b == a and hash(b) == hash(a) and b.fan_exc == a.fan_exc
    assert noncanonical_twin(a) != a
    for value, field in ((a.fan_default, "bits"), (a, "family")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "bare_fan")


def test_single_fan_families_fold_exceptions():
    a = make_tame("bare_fan", fan_exc={0: fins(3)})
    assert a.fan_default == fins(3) and a.fan_exc == ()
    with pytest.raises(NotRepresentable):
        make_tame("bare_fan", fan_exc={1: fins(3)})
    with pytest.raises(NotRepresentable):
        make_tame("bare_fan", spine=fins(0))
    with pytest.raises(NotRepresentable):
        make_tame("fan_plus_bottom", omega_star=True)


def test_fan_plus_bottom_spine_normalized():
    a = make_tame("fan_plus_bottom", spine=cofins())
    assert a.spine == Region(1, False)


def test_closure_examples():
    # closure of a cofinite fan part picks up the star
    a = make_tame("omega_fans", fan_exc={0: cofins(2)})
    cl = tame_closure(a)
    assert cl._fan_region(0) == Region(~0b100, True)
    # finite parts are already closed
    b = make_tame("omega_fans", fan_exc={0: fins(1)})
    assert tame_closure(b) == b
    # interior drops the star from finite-with-star configurations
    c = make_tame("omega_fans", fan_exc={0: Region(0b10, True)})
    interior = tame_complement(tame_closure(tame_complement(c)))
    assert interior._fan_region(0) == fins(1)


def test_closure_idempotent_monotone_dual():
    E = engine_for("omega_fans")
    for u in E.sample_clopen_upsets(40, seed=5):
        cl = tame_closure(u)
        assert tame_closure(cl) == cl
        assert tame_is_closed(cl)
        assert tame_is_open(tame_complement(tame_closure(tame_complement(u))))


def test_openness_rules():
    # a star over a finite part is closed but not open
    star_only = make_tame("omega_fans", fan_exc={0: Region(0, True)})
    assert tame_is_closed(star_only) and not tame_is_open(star_only)
    # cofinite without its star is open but not closed
    cof = make_tame("omega_fans", fan_exc={0: cofins()})
    assert tame_is_open(cof) and not tame_is_closed(cof)
    # an open spine set containing omega must be cofinite
    tail = make_tame("omega_fans", spine=Region(~1, True))
    assert tame_is_open(tail) and tame_is_closed(tail)
    omega_fin = make_tame("omega_fans", spine=Region(1, True))
    assert not tame_is_open(omega_fin)


def test_updown_examples():
    E = engine_for("omega_fans")
    # below the star blob of fan 0 sits exactly the bottom point y_0
    down_star = E.down(E.point_set(fan_star(0)))
    assert down_star == make_tame(
        "omega_fans",
        fan_exc={0: Region(0, True)},
        spine=fins(0),
    )
    # the upset of y_0 is closed but not open
    up_y0 = E.up(E.point_set(spine_point(0)))
    assert up_y0 == make_tame(
        "omega_fans", fan_exc={0: FULL_REGION},
        spine=Region(1, True), omega_star=True,
    )
    assert tame_is_closed(up_y0) and not tame_is_open(up_y0)
    # the downset of the whole space is the whole space
    for fam in ("bare_fan", "fan_plus_bottom", "omega_fans", "chain_fans"):
        F = engine_for(fam)
        assert F.down(F.full) == F.full
        assert F.up(F.full) == F.full


def test_chain_updown():
    E = engine_for("chain_fans")
    # below fan 3 sits the spine tail from 3 plus omega
    d = E.down(E.point_set(fan_point(3, 0)))
    assert d.member(spine_point(3)) and d.member(spine_point(7))
    assert not d.member(spine_point(2))
    assert d.member(OMEGA)
    # above y_2: the head of the spine and fans 0..2, no omega, no blob
    u = E.up(E.point_set(spine_point(2)))
    assert u.member(spine_point(0)) and u.member(spine_point(2))
    assert not u.member(spine_point(3))
    assert u.member(fan_point(0, 4)) and u.member(fan_star(2))
    assert not u.member(fan_point(3, 0))
    assert not u.member(OMEGA) and not u.member(OMEGA_STAR)
    # the top blob sits above omega only
    assert E.down(E.point_set(OMEGA_STAR)).member(OMEGA)
    assert not E.down(E.point_set(OMEGA_STAR)).member(spine_point(0))


def test_clop_sup_examples():
    E = engine_for("omega_fans")
    # two fan points form a clopen Scott upset
    u = make_tame("omega_fans", fan_exc={0: fins(1), 2: fins(0)})
    assert E.clop_sup_test(u)
    # cofinite spine with a finite trace on the excluded fan
    v = make_tame(
        "omega_fans", FULL_REGION, {1: fins(0, 2)},
        spine=Region(~0b10, True), omega_star=True,
    )
    assert E.clop_sup_test(v)
    # a closed cofinite fan piece without its bottom point is not Scott
    w = make_tame("omega_fans", fan_exc={0: FULL_REGION})
    assert not E.clop_sup_test(w)


def test_json_round_trip():
    E = engine_for("omega_fans")
    for u in E.sample_clopen_upsets(30, seed=11):
        again = tame_from_json("omega_fans", tame_to_json(u))
        assert again == u
    spec_literal = {
        "fans": {"default": "empty",
                 "exceptions": {"0": {"mode": "fin", "set": [1, 5],
                                      "star": False}}},
        "spine": {"mode": "cofin", "set": [], "omega": True},
        "omega_star": True,
    }
    t = tame_from_json("omega_fans", spec_literal)
    assert t.member(fan_point(0, 5)) and not t.member(fan_point(0, 2))
    assert t.member(OMEGA) and t.member(OMEGA_STAR)
    assert tame_to_json(t)["fans"]["default"] == "empty"


def test_tame_from_json_rejects_a_bad_mode():
    bad = {"fans": {"default": {"mode": "finite", "set": [1], "star": False}}}
    with pytest.raises(ValueError):
        tame_from_json("omega_fans", bad)


# -- arbitrary tame sets against pointwise membership --------------------

FAR = 6  # every drawn exception index, of fans and of points, is below FAR
_MULTI = ("omega_fans", "chain_fans")


def regions():
    # ints in [-2^FAR, 2^FAR): finite sets below FAR, or their complements
    return st.builds(Region, st.integers(-(1 << FAR), (1 << FAR) - 1),
                     st.booleans())


@st.composite
def tame_sets(draw, family):
    default = draw(regions())
    exc = {}
    if family in _MULTI:
        exc = draw(st.dictionaries(st.integers(0, FAR - 1), regions(), max_size=3))
    spine = draw(regions()) if family != "bare_fan" else None
    if family == "fan_plus_bottom":
        spine = Region(spine.bits)  # y has no limit class
    omega_star = draw(st.booleans()) if family in _MULTI else False
    return make_tame(family, default, exc, spine, omega_star)


def closure_member(a, pt):
    """Pointwise closure: a limit class joins a when a has points
    arbitrarily far out in the fan (star), in the spine (omega), or in
    almost every fan's closure (the top blob)."""
    if a.member(pt):
        return True
    if pt.kind == "star":
        return a.member(fan_point(pt.i, FAR))
    if pt.kind == "omega":
        return a.family in _MULTI and a.member(spine_point(FAR))
    if pt.kind == "omega_star":
        return a.family in _MULTI and closure_member(a, fan_star(FAR))
    return False


def subset_by_members(r, s):
    # FAR stands for the bulk of a region: beyond every exception
    return (all(s.member(k) for k in range(FAR + 1) if r.member(k))
            and (s.flag or not r.flag))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tame_algebra_matches_pointwise_membership(data):
    family = data.draw(st.sampled_from(FAMILIES))
    a = data.draw(tame_sets(family))
    b = data.draw(tame_sets(family))
    E = engine_for(family)
    meet, join = tame_meet(a, b), tame_join(a, b)
    comp, cl = tame_complement(a), tame_closure(a)
    for pt in E.member_reps(a) + E.member_reps(b) + E.member_reps(E.full):
        assert meet.member(pt) == (a.member(pt) and b.member(pt)), pt
        assert join.member(pt) == (a.member(pt) or b.member(pt)), pt
        assert comp.member(pt) == (not a.member(pt)), pt
        assert cl.member(pt) == closure_member(a, pt), pt
        if pt.kind in ("fan", "star"):
            ra, rb = a._fan_region(pt.i), b._fan_region(pt.i)
            assert region_subset(ra, rb) == subset_by_members(ra, rb), pt
    if a.spine is not None:
        assert region_subset(a.spine, b.spine) == subset_by_members(a.spine, b.spine)
    assert tame_from_json(family, tame_to_json(a)) == a
