"""Known answers, taken from the literature and recomputed here.

Nothing in this module calls ``priestley`` to decide what is right: the
expected values come from OEIS, from the published table of the four
fan families, or from the benchmark's own bitmask code in
:mod:`inputs`.  Each checker returns ``None`` when the program's output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

from inputs import bits, down_masks, upsets

# OEIS A000112: posets on n unlabelled points, n = 0..6.
A000112 = (1, 1, 2, 5, 16, 63, 318)
# OEIS A006982: distributive lattices on n unlabelled elements, n = 0..6.
A006982 = (0, 1, 1, 1, 2, 3, 5)
NUCLEI_BOUND = 4       # checks over all nuclear subsets stop at 4 points
FAMILY_COUNT = 4

# Registry checks by what they range over.
_NUCLEI_CHECKS = {
    "booleanization-sublocale", "dense-iff-cofinal", "inductive-core-collapse",
    "lemma-nj-restrict", "max-least-cofinal", "nuclei-galois",
    "nuclei-order-reversal", "sublocale-roundtrip", "upset-Nj-eq-Fj",
}
_FAMILY_CHECKS = {"fan-d-laws", "fan-figures", "fan-tame-soundness"}
_LATTICE_CHECKS = {"stone-embedding"}


def expected_case_counts(theorem_ids, bound):
    """Cases per theorem at a verify bound of 4 to 6: one per poset, per
    small poset, per distributive lattice, or per fan family."""
    posets = sum(A000112[1:bound + 1])
    small = sum(A000112[1:NUCLEI_BOUND + 1])
    lattices = sum(A006982[1:bound + 1])
    out = {}
    for tid in theorem_ids:
        if tid in _NUCLEI_CHECKS:
            out[tid] = small
        elif tid in _FAMILY_CHECKS:
            out[tid] = FAMILY_COUNT
        elif tid in _LATTICE_CHECKS:
            out[tid] = lattices
        else:
            out[tid] = posets
    return out


# The published verdicts (min Y_d topology, compact, Hausdorff, unit).
PAPER_TABLE = {
    "bare_fan": ("discrete", False, True, False),
    "fan_plus_bottom": ("finite-discrete", True, True, True),
    "omega_fans": ("cofinite", True, False, True),
    "chain_fans": ("empty", True, True, False),
}


def check_report(family, report):
    flags = report["flags"]
    got = (report["topology_class"], flags["compact"], flags["hausdorff"],
           flags["has_unit"])
    if got != PAPER_TABLE[family]:
        return f"{family}: report says {got}, the paper's table {PAPER_TABLE[family]}"
    return None


def check_dual(lat, dual_json, stones):
    """Birkhoff: the dual of Up(P) is P, via x -> up(x).

    ``dual_json`` is the program's ``poset_to_json`` of the dual and
    ``stones[label]`` the dual point labels the Stone map sends each
    lattice element to.
    """
    up = lat.up
    n = len(up)
    principal = [lat.label[up[x]] for x in range(n)]
    points = dual_json["points"]
    if sorted(points) != sorted(principal):
        return f"dual points {sorted(points)} are not the principal upsets"
    index = {p: i for i, p in enumerate(points)}
    dual_up = [1 << i for i in range(len(points))]
    for a, b in dual_json["covers"]:
        dual_up[index[a]] |= 1 << index[b]
    for _ in range(len(points)):
        for i in range(len(points)):
            for j in bits(dual_up[i]):
                dual_up[i] |= dual_up[j]
    for x in range(n):
        for y in range(n):
            below = bool(up[x] >> y & 1)
            dual_below = bool(dual_up[index[principal[x]]] >> index[principal[y]] & 1)
            if below != dual_below:
                return f"dual order differs from the generating poset at {x}, {y}"
    images = set()
    for m in lat.members:
        want = {principal[x] for x in bits(m)}
        got = stones[lat.label[m]]
        if got != want:
            return f"stone map of {lat.label[m]} is {sorted(got)}, not {sorted(want)}"
        images.add(frozenset(index[p] for p in got))
    rebuilt = {frozenset(bits(u)) for u in upsets(dual_up)}
    if images != rebuilt:
        return "stone map is not a bijection onto the upsets of the dual"
    return None


def check_reject(error, expected, witness_labels):
    name = type(error).__name__ if error is not None else None
    if name != expected:
        return f"raised {name}, planted {expected}"
    witness = getattr(error, "triple", None) or getattr(error, "pair", None)
    if witness is None or not set(witness) <= witness_labels:
        return f"witness {witness} lies outside the planted elements"
    return None


def nuclei_count(n):
    """Nuclei on an n-point finite Priestley space: one j_N per subset N."""
    return 2 ** n


def check_nuclei(up, results, boolean_fix):
    """All 2^n nuclei j_N U = X \\ down(N \\ U), their
    admissible upsets up(N), and density == cofinality, on bitmasks.

    ``results`` holds, per nucleus, (table as mask -> mask, N, admissible
    upset, density dict), every set given as a bitmask.
    """
    n = len(up)
    full = (1 << n) - 1
    down = down_masks(up)
    ups = upsets(up)
    maximal = sum(1 << i for i in range(n) if up[i] == 1 << i)

    def down_of(m):
        out = 0
        for i in bits(m):
            out |= down[i]
        return out

    def up_of(m):
        out = 0
        for i in bits(m):
            out |= up[i]
        return out

    if len(results) != nuclei_count(n):
        return f"{len(results)} nuclei, expected {nuclei_count(n)}"
    if {N for _, N, _, _ in results} != set(range(1 << n)):
        return "nuclear sets are not a bijection onto the point subsets"
    for table, N, admissible, density in results:
        for u in ups:
            if table[u] != full & ~down_of(N & ~u):
                return f"j_N differs from X \\ down(N \\ U) for N={N:b}, U={u:b}"
        if admissible != up_of(N):
            return f"admissible upset {admissible:b} is not up(N) for N={N:b}"
        dense = down_of(N) == full
        cofinal = maximal & ~N == 0
        if density != {"dense": dense, "cofinal": cofinal}:
            return f"density {density} for N={N:b}, expected dense={dense}"
    regular = {u for u in ups if full & ~down_of(full & ~down_of(u)) == u}
    if set(boolean_fix) != regular:
        return "booleanization differs from the regular upsets"
    return None
