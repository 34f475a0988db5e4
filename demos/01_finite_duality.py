"""Tour of the finite duality: lattices, dual spaces, the Stone map.

Walks the two functors by hand on small examples: a chain, a Boolean
square, and a lattice that fails distributivity.
"""

from priestley import (
    build_poset,
    clopen_upset_lattice,
    heyting,
    priestley_dual,
    stone_map,
    validate_lattice,
)
from priestley.birkhoff import ClopenUpset
from priestley.errors import NotDistributive

# A three-element chain 0 < a < 1 is a bounded distributive lattice.
chain = validate_lattice(build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")]))
dual = priestley_dual(chain)
print("dual of the 3-chain:", dual)

# The Stone map sends an element to the prime filters containing it;
# with filters ordered by inclusion the image is always an upset.
for label in chain.labels:
    phi = stone_map(chain, label)
    print(f"  phi({label}) = {phi.labels()}")

# The powerset of a two-element set dualizes to a two-point antichain.
square = validate_lattice(build_poset(
    ["0", "x", "y", "1"],
    [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
))
print("dual of the Boolean square:", priestley_dual(square))

# Three incomparable atoms break distributivity; the witness triple is
# reported by the validator.
diamond = build_poset(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
)
try:
    validate_lattice(diamond)
except NotDistributive as e:
    print("M3 rejected, witness triple:", e.triple)

# Round trip: the upset lattice of the dual is isomorphic to what we
# started from, element by element through the Stone map.
back = clopen_upset_lattice(priestley_dual(chain))
sent = {a: stone_map(chain, a).members for a in range(chain.n)}
assert len(set(sent.values())) == back.n
print("round trip sizes match:", chain.n, "=", back.n)

# Heyting structure on the upsets of a two-point antichain: implication
# between the two singletons is the opposite singleton.
anti = build_poset(["a", "b"], [])
a = ClopenUpset(anti, frozenset({0}))
b = ClopenUpset(anti, frozenset({1}))
print("{a} -> {b} =", heyting(anti, a, b).labels())
print("{a}* =", heyting(anti, a).labels())
