"""The tame algebra: canonical forms, Boolean ops, topology, order."""

import copy
import dataclasses
import functools
import itertools
import json
import operator
import pickle

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
    SymbolicPoint,
    TameSet,
    _SHAPE,
    _fan_indices,
    engine_for,
    fan_point,
    fan_star,
    make_tame,
    region_complement,
    region_join,
    region_meet,
    region_subset,
    spine_point,
    tame_closure,
    tame_complement,
    tame_diff,
    tame_empty,
    tame_full,
    tame_is_closed,
    tame_is_open,
    tame_join,
    tame_meet,
    tame_to_json,
)
from priestley.poset import _mask


_MULTI = ("omega_fans", "chain_fans")  # the families with many fans


def noncanonical_twin(a):
    """A set equal to ``a`` pointwise, with a redundant exception entry.

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


def test_region_and_tame_set_contract(monkeypatch):
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
    ]
    for b in twins:
        assert b == a and hash(b) == hash(a) and b.fan_exc == a.fan_exc
    assert noncanonical_twin(a) != a
    for value, field in ((a.fan_default, "bits"), (a, "family")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "bare_fan")
    # points too are values: equal points hash equal, and nothing is assignable
    pt = fan_point(1, 2)
    assert pt == SymbolicPoint("fan", 1, 2) and hash(pt) == hash(SymbolicPoint("fan", 1, 2))
    assert pt != fan_point(2, 1) and OMEGA == SymbolicPoint("omega")
    for value in (a.fan_default, a, pt):
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.foo = 1
    assert not hasattr(pt, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pt.kind = "star"
    with pytest.raises(TypeError):
        Region(frozenset())
    with pytest.raises(TypeError):
        Region(1)._replace(bits=frozenset())
    # a repr names each field
    assert repr(Region(6)) == "Region(bits=6, flag=False)"
    assert repr(make_tame("bare_fan", FULL_REGION)) == (
        "TameSet(family='bare_fan', fan_default=Region(bits=-1, flag=True), "
        "fan_exc=(), spine=Region(bits=0, flag=False), omega_star=False)")
    for value in (a, a.spine, pt):
        for back in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert back == value and type(back) is type(value)
    # `in` asks for membership, not for a field; values are not ordered
    u = tame_full("omega_fans")
    assert OMEGA in u and pt in u and OMEGA not in make_tame("omega_fans")
    for x, y in ((6, Region(6)), ("fan", pt)):
        with pytest.raises(TypeError):
            x in y
    for x, y in ((u, make_tame("omega_fans")), (fins(1), fins(2)), (pt, OMEGA)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(x, y)
    # the bits check runs once per Region(...), however it is reached
    r, calls = fins(3), []
    check = Region.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(Region, "__post_init__", counted)
    made = [Region(0b101), Region(-1, True), region_complement(r), r._replace(flag=True)]
    assert calls == made


def test_single_fan_families_fold_exceptions():
    a = make_tame("bare_fan", fan_exc={0: fins(3)})
    assert a.fan_default == fins(3) and a.fan_exc == ()
    with pytest.raises(NotRepresentable):
        make_tame("bare_fan", fan_exc={1: fins(3)})
    with pytest.raises(NotRepresentable):
        make_tame("bare_fan", spine=fins(0))
    with pytest.raises(NotRepresentable):
        make_tame("fan_plus_bottom", omega_star=True)


def test_make_tame_refuses_fan_indices_that_are_not_ints():
    # every index is checked, not only the sign of the first kept one
    for fam, index in [("omega_fans", 1.0), ("omega_fans", True),
                       ("chain_fans", -1), ("bare_fan", False), ("bare_fan", 0.0)]:
        with pytest.raises(NotRepresentable):
            make_tame(fam, fan_exc={index: fins(3)})
    with pytest.raises(NotRepresentable):
        make_tame("omega_fans", FULL_REGION, {2: fins(1), -1: FULL_REGION})
    # keys that do not sort together are refused as indices, not by sorted
    with pytest.raises(NotRepresentable, match="'a'"):
        make_tame("omega_fans", fan_exc={"a": Region(1), 1: Region(1)})


def test_make_tame_refuses_a_repeated_fan_index():
    # a pair list would otherwise keep the last pair for the index
    for family in ("omega_fans", "bare_fan"):
        with pytest.raises(NotRepresentable, match="repeated"):
            make_tame(family, fan_exc=[(1, Region(1)), (1, Region(2))])
    pairs = [(2, Region(1)), (1, Region(2))]
    assert make_tame("omega_fans", fan_exc=pairs) == make_tame("omega_fans", fan_exc=dict(pairs))


@pytest.mark.parametrize("flag", ["no", 1, 0, None, 1.0])
def test_make_tame_refuses_a_blob_flag_that_is_not_a_bool(flag):
    # read by truthiness, "no" would build a set holding the top blob
    with pytest.raises(NotRepresentable, match="is not a bool"):
        make_tame("omega_fans", omega_star=flag)


@pytest.mark.parametrize("family, fields", [
    ("omega_fans", {"fan_exc": {1: 5}}),
    ("omega_fans", {"fan_default": 5}),
    ("omega_fans", {"spine": (3, True)}),
    # a single fan's exception becomes its default
    ("bare_fan", {"fan_exc": {0: (1, False)}}),
], ids=["exception", "default", "spine", "single-fan-exception"])
def test_make_tame_refuses_parts_that_are_not_regions(family, fields):
    with pytest.raises(NotRepresentable, match="is not a Region"):
        make_tame(family, **fields)


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


@pytest.mark.parametrize("family", _MULTI)
def test_the_top_blob_needs_almost_all_of_almost_every_fan_to_be_open(family):
    # the blob is the limit of the fans as a whole: the blob alone, or
    # with finitely many fan points, is closed but not open
    alone = make_tame(family, omega_star=True)
    with_points = make_tame(family, fan_exc={0: fins(1, 4), 3: fins(0)},
                            omega_star=True)
    for a in (alone, with_points):
        assert tame_is_closed(a) and not tame_is_open(a), a
    # with every fan closed and cofinite it is a neighbourhood of the blob
    tail = make_tame(family, Region(~0b11, True), {2: fins(1)}, omega_star=True)
    assert tame_is_open(tail)


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
    # no command reads a tame set back, so the writer is held to being
    # faithful: two sets get the same JSON text exactly when they are
    # equal, also when one was built along another path
    E = engine_for("omega_fans")
    samples = E.sample_clopen_upsets(30, seed=11)
    text = lambda u: json.dumps(tame_to_json(u), sort_keys=True)
    for a, b in itertools.combinations(samples, 2):
        assert (text(a) == text(b)) == (a == b), (a, b)
    for a in samples:
        assert text(tame_complement(tame_complement(a))) == text(a)
    t = make_tame("omega_fans", EMPTY_REGION, {0: fins(1, 5)},
                  spine=Region(~0, True), omega_star=True)
    assert t.member(fan_point(0, 5)) and not t.member(fan_point(0, 2))
    assert t.member(OMEGA) and t.member(OMEGA_STAR)
    assert tame_to_json(t) == {
        "fans": {"default": "empty",
                 "exceptions": {"0": {"mode": "fin", "set": [1, 5],
                                      "star": False}}},
        "spine": {"mode": "cofin", "set": [], "omega": True},
        "omega_star": True,
    }


# -- arbitrary tame sets against pointwise membership --------------------

FAR = 6  # every drawn exception index, of fans and of points, is below FAR


# Regions with every exception below FAR.  A uniform int in
# [-2^FAR, 2^FAR) is almost never sparse, so about half the draws are sets of
# at most two members or two holes, the default fan is often empty and the
# spine often holds no bottom point (with or without its limit): faults
# that show only on sparse sets show here too.  The strategies are built
# once, since hypothesis validates a strategy on first use.
_FEW = [_mask(c) for k in range(3) for c in itertools.combinations(range(FAR), k)]
SPARSE = [Region(m, flag) for m in _FEW for flag in (False, True)]
SPARSE += [Region(~m, flag) for m in _FEW for flag in (True, False)]
REGIONS = st.one_of(
    st.sampled_from(SPARSE),
    st.builds(Region, st.integers(-(1 << FAR), (1 << FAR) - 1), st.booleans()),
)
DEFAULTS = st.one_of(st.just(EMPTY_REGION), REGIONS)
SPINES = st.one_of(st.builds(Region, st.just(0), st.booleans()), REGIONS)
EXCEPTIONS = st.dictionaries(st.integers(0, FAR - 1), REGIONS, max_size=3)


def test_property_tests_draw_the_same_examples_on_every_run():
    # the profile loaded by conftest.py
    assert settings.default.derandomize
    assert settings.default.database is None


@st.composite
def tame_sets(draw, family):
    default = draw(DEFAULTS)
    exc = draw(EXCEPTIONS) if family in _MULTI else {}
    spine = draw(SPINES) if family != "bare_fan" else EMPTY_REGION
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
    assert region_subset(a.spine, b.spine) == subset_by_members(a.spine, b.spine)


# -- the algebra's canonical form against the constructor's ---------------


def _merged(a, b, rop, omega_star):
    """Meet or join as the constructor sees it: every exception index of
    either side combined through a dict, then canonicalised by make_tame."""
    da, db = a.fan_default, b.fan_default
    ea, eb = dict(a.fan_exc), dict(b.fan_exc)
    exc = {i: rop(ea.get(i, da), eb.get(i, db)) for i in ea.keys() | eb.keys()}
    return make_tame(a.family, rop(da, db), exc, rop(a.spine, b.spine), omega_star)


def reference_ops(a, b):
    """The four operations, each built from its fields by make_tame."""
    _, carrier, blob = _SHAPE[a.family]
    meet = _merged(a, b, region_meet, a.omega_star and b.omega_star)
    join = _merged(a, b, region_join, a.omega_star or b.omega_star)
    comp = make_tame(
        a.family, region_complement(a.fan_default),
        {i: region_complement(r) for i, r in a.fan_exc},
        region_meet(carrier, region_complement(a.spine)),
        blob and not a.omega_star,
    )

    def close(r):
        return Region(r.bits, r.flag or r.bits < 0)

    default = close(a.fan_default)
    cl = make_tame(
        a.family, default, {i: close(r) for i, r in a.fan_exc}, close(a.spine),
        a.omega_star or blob and default.flag,
    )
    return meet, join, comp, cl


def check_canonical_ops(a, b):
    got = (tame_meet(a, b), tame_join(a, b), tame_complement(a), tame_closure(a))
    for name, r, want in zip(("meet", "join", "complement", "closure"),
                             got, reference_ops(a, b)):
        assert r == want, (name, a, b)  # field by field
        assert type(r.fan_exc) is tuple and type(r.omega_star) is bool, name
        again = make_tame(r.family, r.fan_default, dict(r.fan_exc), r.spine,
                          r.omega_star)
        assert again == r, (name, a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tame_ops_build_the_constructors_canonical_form(data):
    family = data.draw(st.sampled_from(FAMILIES))
    check_canonical_ops(data.draw(tame_sets(family)), data.draw(tame_sets(family)))


@pytest.mark.parametrize("family", _MULTI)
def test_tame_ops_build_the_canonical_form_on_sparse_pairs(family):
    # a fan region and the default in every pair of sparse shapes, and
    # the same two swapped: meet and join make the exception equal to
    # the new default, and closure does so wherever the two differ only
    # by the star over a cofinite part
    for r in SPARSE:
        for s in SPARSE:
            check_canonical_ops(make_tame(family, r, {1: s}),
                                make_tame(family, s, {1: r}))


@pytest.mark.parametrize("family", FAMILIES)
def test_tame_ops_build_the_canonical_form_on_every_sample_pair(family):
    samples = engine_for(family).sample_clopen_upsets(60)
    for a in samples:
        for b in samples:
            check_canonical_ops(a, b)


# -- the order operations against an independent pointwise order ---------


def le(family, p, q):
    """p <= q, read off the family descriptions in the fans module
    docstring, with transitivity applied by hand."""
    if p == q:
        return True
    fan_class = q.kind in ("fan", "star")
    if family == "fan_plus_bottom":
        return p.kind == "spine"  # y lies below everything
    if family == "omega_fans":
        # y_i below fan i and its star, every y_i below omega, omega
        # below the top blob
        if p.kind == "spine":
            return fan_class and q.i == p.i or q.kind in ("omega", "omega_star")
        return p.kind == "omega" and q.kind == "omega_star"
    if family == "chain_fans":
        # y_0 > y_1 > ..., y_i below fan i (so below fans 0..i), omega
        # below every y_i and the top blob (so below everything)
        if p.kind == "spine":
            return q.kind == "spine" and q.i < p.i or fan_class and q.i <= p.i
        return p.kind == "omega"
    return False  # bare_fan is trivially ordered


def grid(family, n):
    """The points of the family with every index below n."""
    fans = range(n) if family in _MULTI else range(1)
    pts = [fan_point(i, k) for i in fans for k in range(n)]
    pts += [fan_star(i) for i in fans]
    if family != "bare_fan":
        pts += [spine_point(i) for i in fans]
    if family in _MULTI:
        pts += [OMEGA, OMEGA_STAR]
    return pts


@functools.cache
def order_grid(family):
    """Witnesses with indices up to FAR + 1, the query points among them
    (indices up to FAR), and per witness the masks of witnesses below
    and above it.  A query at FAR on chain_fans' descending spine needs
    a witness beyond it."""
    pts = grid(family, FAR + 2)
    queries = [j for j, q in enumerate(pts) if max(q.i, q.k) <= FAR]
    below = [_mask(j for j, p in enumerate(pts) if le(family, p, q)) for q in pts]
    above = [_mask(j for j, p in enumerate(pts) if le(family, q, p)) for q in pts]
    return pts, queries, below, above


def check_order_operations(E, a):
    pts, queries, below, above = order_grid(E.family)
    inside = _mask(j for j, p in enumerate(pts) if a.member(p))
    ops = ("up", "down", "strict_up", "strict_down", "points_with_up_inside")
    got = {name: getattr(E, name)(a) for name in ops}
    for j in queries:
        others = inside & ~(1 << j)
        want = {
            "up": inside & below[j] != 0,
            "down": inside & above[j] != 0,
            "strict_up": others & below[j] != 0,
            "strict_down": others & above[j] != 0,
            "points_with_up_inside": above[j] & ~inside == 0,
        }
        for name in ops:
            assert got[name].member(pts[j]) == want[name], (
                name, pts[j], E.describe_set(a))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_order_operations_match_the_pointwise_order(data):
    family = data.draw(st.sampled_from(FAMILIES))
    check_order_operations(engine_for(family), data.draw(tame_sets(family)))


@pytest.mark.parametrize("family", FAMILIES)
def test_order_operations_match_the_pointwise_order_on_each_point(family):
    # an arbitrary tame set almost never leaves a region sparse, so
    # every single point is checked too
    E = engine_for(family)
    pts, queries, _, _ = order_grid(family)
    for j in queries:
        check_order_operations(E, E.point_set(pts[j]))


def sparse_sets(family):
    """Every sparse region shape in each slot of an otherwise empty set,
    with and without the blob, each distinct set once."""
    multi_fan, carrier, blob = _SHAPE[family]
    sets = []
    for r in SPARSE:
        for os in {False, blob}:
            sets.append(make_tame(family, r, omega_star=os))
            if multi_fan:
                sets.append(make_tame(family, fan_exc={1: r}, omega_star=os))
            if carrier != EMPTY_REGION:
                sets.append(make_tame(family, spine=r, omega_star=os))
    return list(dict.fromkeys(sets))


@pytest.mark.parametrize("family", FAMILIES)
def test_order_operations_match_the_pointwise_order_on_sparse_sets(family):
    # a fault that shows only on one shape and one family fails here on
    # every run, not on some Hypothesis seeds
    E = engine_for(family)
    for a in sparse_sets(family):
        check_order_operations(E, a)
