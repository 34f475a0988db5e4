"""The nucleus/nuclear-set dictionary on a small frame, both directions.

Every subset of a finite space is a nuclear set, and nuclei on the
upset frame correspond to them one for one.  The script shows the
correspondence, the admissible upset, double negation, Booleanization,
and the density/cofinality equivalence.
"""

from priestley import (
    NuclearSet,
    admissible_upset,
    booleanization,
    build_poset,
    density_check,
    double_negation,
    enumerate_upsets,
    nuclear_of_nucleus,
    nucleus_of_nuclear,
)

space = build_poset(["x1", "x2"], [("x1", "x2")])
labels = space.labels


def show(s):
    return "{" + ",".join(sorted(labels[i] for i in s)) + "}"


print("upsets of the 2-chain:", [show(u) for u in enumerate_upsets(space)])

# Direction one: a point set induces a nucleus.
for members in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
    j = nucleus_of_nuclear(NuclearSet(space, members))
    images = j.table
    table = {show(u): show(images[u]) for u in enumerate_upsets(space)}
    back = nuclear_of_nucleus(j).members
    print(f"N = {show(members):8}  j: {table}  back to {show(back)}")

# Double negation is the nucleus whose nuclear set is max X.
dn = double_negation(space)
print("double negation sends {x2} to", show(dn.table[frozenset({1})]))
print("its nuclear set:", show(nuclear_of_nucleus(dn).members))
print("its admissible upset:", show(admissible_upset(dn)))
print("density:", density_check(dn))

# The Booleanization is the fixpoint set of double negation; on a chain
# only the bounds survive.
print("Booleanization fixpoints:", [show(u) for u in booleanization(space)])

# A non-dense nucleus for contrast.
j = nucleus_of_nuclear(NuclearSet(space, frozenset({0})))
print("N = {x1} gives density:", density_check(j))
