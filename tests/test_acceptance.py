"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Every check is exact (set equality, Boolean equality); the only
tolerances are the wall-clock budgets stated alongside each criterion.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from priestley import oracle
from priestley import spectrum as sp
from priestley.fans import (
    FAMILIES,
    Region,
    engine_for,
    make_tame,
    spine_point,
    tame_join,
)
from priestley.nuclei import (
    NuclearSet,
    admissible_upset,
    density_check,
    nuclear_of_nucleus,
    nucleus_of_nuclear,
)
from priestley.poset import extrema, order_closure


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_01_duality_round_trip():
    t0 = time.perf_counter()
    cases = oracle.check_duality_round_trip(6)
    elapsed = time.perf_counter() - t0
    failures = [c for c in cases if not c.ok()]
    ok = not failures and elapsed < 60.0
    _report(1, "finite duality round trip on every poset with <= 6 points",
            ok, f"{len(cases)} spaces, {elapsed:.1f}s")


def test_criterion_02_nuclei_dictionary():
    t0 = time.perf_counter()
    failures = []
    for P in oracle.posets_up_to(4):
        full = frozenset(range(P.n))
        maxx = extrema(P, full, "max")
        for bits in range(1 << P.n):
            members = frozenset(i for i in range(P.n) if bits >> i & 1)
            j = nucleus_of_nuclear(NuclearSet(P, members))
            back = nuclear_of_nucleus(j).members
            if back != members:
                failures.append((P, members, "galois set"))
            if nucleus_of_nuclear(nuclear_of_nucleus(j)) != j:
                failures.append((P, members, "galois nucleus"))
            if admissible_upset(j) != order_closure(P, members, "up"):
                failures.append((P, members, "H_j"))
            d = density_check(j)
            if d["dense"] != d["cofinal"]:
                failures.append((P, members, "dense/cofinal"))
            if d["cofinal"] and not maxx <= members:
                failures.append((P, members, "least cofinal"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(2, "nuclei dictionary on every subset of every <= 4-point space",
            ok, f"{elapsed:.1f}s")


def test_criterion_03_yd_four_way():
    t0 = time.perf_counter()
    cases = oracle.check_eqv_conditions_rmax(6)
    elapsed = time.perf_counter() - t0
    failures = [c for c in cases if not c.ok()]
    ok = not failures
    _report(3, "Y_d four-way equivalence on every <= 6-point space", ok,
            f"{len(cases)} spaces, {elapsed:.1f}s")


def test_criterion_04_spectrum_bijections():
    t0 = time.perf_counter()
    failures = []
    for check in (
        oracle.check_min_yd_max_d_upsets,
        oracle.check_min_yd_homeomorphism,
        oracle.check_compacts_d_initial,
        oracle.check_rho_forms,
    ):
        failures.extend(c for c in check(6) if not c.ok())
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(4, "spectrum bijections and rho on every <= 6-point space", ok,
            f"{elapsed:.1f}s")


def test_criterion_05_fan_plus_bottom():
    t0 = time.perf_counter()
    E = engine_for("fan_plus_bottom")
    y = sp.localic_points(E)
    expected_y = make_tame(
        "fan_plus_bottom", Region(-1),
        spine=Region(1),
    )
    maxy = sp.maximal_of(E, y)
    expected_maxy = make_tame("fan_plus_bottom", Region(-1))
    yd = sp.yd_set(E)
    reg = sp.regularity_suite(E)
    elapsed = time.perf_counter() - t0
    ok = (
        y == expected_y
        and maxy == expected_maxy
        and yd == y
        and yd != maxy
        and reg == {"antichain": False, "max_y_equals_yd": False,
                    "locally_stone": False}
        and elapsed < 1.0
    )
    _report(5, "fan-plus-bottom: Y, max Y, Y_d, regularity all as published",
            ok, f"{elapsed * 1000:.0f}ms")


def test_criterion_06_omega_fans():
    t0 = time.perf_counter()
    E = engine_for("omega_fans")
    r = sp.spectrum_report(E)
    yd = sp.yd_set(E)
    myd = sp.min_yd(E)
    elapsed = time.perf_counter() - t0
    ok = (
        yd == sp.localic_points(E)
        and myd == make_tame("omega_fans", spine=Region(-1))
        and r.topology_class == "cofinite"
        and r.t1 is True
        and r.compact is True
        and r.hausdorff is False
        and r.has_unit is True
        and elapsed < 1.0
    )
    _report(6, "omega fans: compact T1 non-Hausdorff min Y_d with a unit",
            ok, f"{elapsed * 1000:.0f}ms")


def test_criterion_07_chain_fans():
    t0 = time.perf_counter()
    E = engine_for("chain_fans")
    r = sp.spectrum_report(E)
    unit = sp.unit_search(E)
    elapsed = time.perf_counter() - t0
    ok = (
        sp.min_yd(E).is_empty_set()
        and r.has_unit is False
        and unit["status"] == "refutation"
        and repr(unit["certificate"]) == "X_omega*"
        and r.max_bounded is False
        and r.compact is True
        and r.hausdorff is True
        and elapsed < 1.0
    )
    _report(7, "chain fans: empty min Y_d, no unit, not max-bounded", ok,
            f"{elapsed * 1000:.0f}ms")


def test_criterion_08_bare_fan():
    t0 = time.perf_counter()
    E = engine_for("bare_fan")
    r = sp.spectrum_report(E)
    d_identity = all(
        sp.d_apply(E, u) == u for u in E.sample_clopen_upsets(120, seed=2024)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        d_identity
        and sp.min_yd(E) == make_tame("bare_fan", Region(-1))
        and r.topology_class == "discrete"
        and r.hausdorff is True
        and r.compact is False
        and r.has_unit is False
        and r.max_bounded is True
        and elapsed < 1.0
    )
    _report(8, "powerset fan: d is the identity, discrete min Y_d, no unit",
            ok, f"{elapsed * 1000:.0f}ms")


def _fan_points_set(family):
    return make_tame(family, Region(-1))


def _spine_points_set(E):
    family = E.family
    if family == "bare_fan":
        return E.empty
    if family == "fan_plus_bottom":
        return make_tame(family, spine=Region(1))
    return make_tame(family, spine=Region(-1))


def _d_union_form(E, u):
    """Independent evaluation of d: the closure of the union of V** over
    the canonical cofinal family of clopen Scott upsets inside u (the
    upset of u's spine trace, plus the leftover fan points, which are
    exhausted by their finite subsets)."""
    spine_trace = E.meet(u, _spine_points_set(E))
    v1 = E.up(spine_trace)
    if spine_trace == E.empty:
        v1dd = E.empty
    else:
        v1dd = sp.double_neg(E, v1)
    leftover = E.diff(E.meet(u, _fan_points_set(E.family)), v1)
    return E.closure(tame_join(v1dd, leftover))


def test_criterion_09_symbolic_d_laws():
    t0 = time.perf_counter()
    bad = []
    for family in FAMILIES:
        E = engine_for(family)
        samples = E.sample_clopen_upsets(500, seed=2024)
        nd = sp.nd_set(E)
        for u in samples:
            du = sp.d_apply(E, u)
            if not sp.subset(E, u, du):
                bad.append((family, "inflationary", u))
            if sp.d_apply(E, du) != du:
                bad.append((family, "idempotent", u))
            if du != E.diff(E.full, E.down(E.diff(nd, u))):
                bad.append((family, "nuclear form", u))
            if du != _d_union_form(E, u):
                bad.append((family, "union-of-double-negations form", u))
            if E.clop_sup_test(u) and du != sp.double_neg(E, u):
                bad.append((family, "dU = U** on Scott upsets", u))
        for u in samples[:40]:
            for v in samples[:40]:
                if sp.d_apply(E, E.meet(u, v)) != E.meet(
                    sp.d_apply(E, u), sp.d_apply(E, v)
                ):
                    bad.append((family, "meet preservation", (u, v)))
        if sp.d_apply(E, E.empty) != E.empty:
            bad.append((family, "density", None))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    detail = f"4 x 500 samples, {elapsed:.1f}s"
    if bad:
        detail += f"; first failure: {bad[0][:2]}"
    _report(9, "d-operator laws on the symbolic engines", ok, detail)


def test_criterion_10_mutation_sensitivity():
    t0 = time.perf_counter()
    results = oracle.run_mutations()
    elapsed = time.perf_counter() - t0
    ok = set(results) == {
        "corrupt-d-table", "drop-spine-link", "break-canonical-form",
    } and all(
        caught and any(not c.ok() and c.witness for c in cases)
        for caught, cases in results.values()
    )
    _report(10, "each shipped fault injection trips the suite with a witness",
            ok, f"{elapsed:.1f}s")
