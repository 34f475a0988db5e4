"""The tame algebra: canonical forms, Boolean ops, topology, order."""

import dataclasses

import pytest

from priestley.errors import FamilyMismatch, NotRepresentable
from priestley.fans import (
    EMPTY_REGION,
    FULL_REGION,
    OMEGA,
    OMEGA_STAR,
    Region,
    engine_for,
    fan_point,
    fan_star,
    make_tame,
    spine_point,
    tame_closure,
    tame_complement,
    tame_diff,
    tame_empty,
    tame_from_json,
    tame_full,
    tame_interior,
    tame_is_closed,
    tame_is_open,
    tame_join,
    tame_meet,
    tame_to_json,
)
from priestley.oracle import noncanonical_twin


def fins(*ks):
    return Region("fin", frozenset(ks))


def cofins(*ks):
    return Region("cofin", frozenset(ks))


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
    # a region stores its exceptions as a frozenset, whatever it was given
    for given in ({1, 2}, [2, 1, 2], frozenset({1, 2})):
        r = Region("fin", given)
        assert type(r.exc) is frozenset and r == fins(1, 2)
        assert hash(r) == hash(fins(1, 2))
    with pytest.raises(ValueError):
        Region("finite", frozenset())
    # equal tame sets built along different paths are == and hash equal
    a = make_tame("omega_fans", FULL_REGION, {3: fins(1), 0: cofins(2), 5: FULL_REGION},
                  spine=Region("cofin", frozenset({0, 3}), True), omega_star=True)
    twins = [
        make_tame("omega_fans", FULL_REGION, {0: cofins(2), 3: fins(1)},
                  spine=Region("cofin", [3, 0], True), omega_star=True),
        tame_complement(tame_complement(a)),
        tame_meet(a, tame_full("omega_fans")),
        tame_join(tame_empty("omega_fans"), a),
        tame_from_json("omega_fans", tame_to_json(a)),
    ]
    for b in twins:
        assert b == a and hash(b) == hash(a) and b.fan_exc == a.fan_exc
    assert noncanonical_twin(a) != a
    for value, field in ((a.fan_default, "mode"), (a, "family")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "bare_fan")


def test_single_fan_families_fold_exceptions():
    a = make_tame("bare_fan", fan_exc={0: fins(3)})
    assert a.fan_default == fins(3) and a.fan_exc == ()
    with pytest.raises(NotRepresentable):
        make_tame("bare_fan", fan_exc={1: fins(3)})
    with pytest.raises(NotRepresentable):
        make_tame("bare_fan", spine=Region("fin", frozenset({0})))
    with pytest.raises(NotRepresentable):
        make_tame("fan_plus_bottom", omega_star=True)


def test_fan_plus_bottom_spine_normalized():
    a = make_tame("fan_plus_bottom", spine=Region("cofin", frozenset()))
    assert a.spine == Region("fin", frozenset({0}), False)


def test_closure_examples():
    # closure of a cofinite fan part picks up the star
    a = make_tame("omega_fans", fan_exc={0: cofins(2)})
    cl = tame_closure(a)
    assert cl._fan_region(0) == Region("cofin", frozenset({2}), True)
    # finite parts are already closed
    b = make_tame("omega_fans", fan_exc={0: fins(1)})
    assert tame_closure(b) == b
    # interior drops the star from finite-with-star configurations
    c = make_tame("omega_fans", fan_exc={0: Region("fin", frozenset({1}), True)})
    assert tame_interior(c)._fan_region(0) == fins(1)


def test_closure_idempotent_monotone_dual():
    E = engine_for("omega_fans")
    for u in E.sample_clopen_upsets(40, seed=5):
        cl = tame_closure(u)
        assert tame_closure(cl) == cl
        assert tame_interior(u) == tame_complement(tame_closure(tame_complement(u)))
        assert tame_is_closed(cl)
        assert tame_is_open(tame_interior(u))


def test_openness_rules():
    # a star over a finite part is closed but not open
    star_only = make_tame("omega_fans", fan_exc={0: Region("fin", frozenset(), True)})
    assert tame_is_closed(star_only) and not tame_is_open(star_only)
    # cofinite without its star is open but not closed
    cof = make_tame("omega_fans", fan_exc={0: cofins()})
    assert tame_is_open(cof) and not tame_is_closed(cof)
    # an open spine set containing omega must be cofinite
    tail = make_tame("omega_fans", spine=Region("cofin", frozenset({0}), True))
    assert tame_is_open(tail) and tame_is_closed(tail)
    omega_fin = make_tame("omega_fans", spine=Region("fin", frozenset({0}), True))
    assert not tame_is_open(omega_fin)


def test_updown_examples():
    E = engine_for("omega_fans")
    # below the star blob of fan 0 sits exactly the bottom point y_0
    down_star = E.down(E.point_set(fan_star(0)))
    assert down_star == make_tame(
        "omega_fans",
        fan_exc={0: Region("fin", frozenset(), True)},
        spine=Region("fin", frozenset({0})),
    )
    # the upset of y_0 is closed but not open
    up_y0 = E.up(E.point_set(spine_point(0)))
    assert up_y0 == make_tame(
        "omega_fans", fan_exc={0: FULL_REGION},
        spine=Region("fin", frozenset({0}), True), omega_star=True,
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
        spine=Region("cofin", frozenset({1}), True), omega_star=True,
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
