"""Seeded inputs for the duality workload, built without the package.

Posets are lists of up-masks (bit j of ``up[i]`` set iff i <= j).  A
lattice input is the lattice of upsets of such a poset, written as
lattice JSON with shuffled labels, so ``priestley`` sees only the JSON.
Sizes are drawn to fixed targets so that every seed gives the same mix
of work and only the particular posets change.
"""

from __future__ import annotations

import random

# Upset-lattice sizes of the accept inputs in one round.
# An odd number of strata puts the median inside one stratum rather than
# in the gap between two, where it would jump with every small change.
ACCEPT_SIZES = (8, 12, 16, 24, 32)
# Base sizes of the two reject inputs in one round.
REJECT_BASE_SIZES = (12, 16)
PLANTS = ("M3", "N5", "bowtie")
# (points, upset count) of the nuclei spaces in one round.
NUCLEI_SPACES = ((5, 12), (6, 20))
# The 2^7 lattice takes about as long as everything else in three rounds,
# so it comes every third round; the rest then gets enough samples for
# a tail beyond p90.
BOOLEAN_EVERY = 3


def bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def random_order(rng, n):
    """Up-masks of a random partial order on n points, randomly labelled."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = rng.uniform(0.05, 0.7)
    up = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                up[perm[a]] |= 1 << perm[b]
    for a in reversed(range(n)):
        i = perm[a]
        closed = up[i]
        for j in bits(up[i]):
            closed |= up[j]
        up[i] = closed
    return up


def antichain(n):
    return [1 << i for i in range(n)]


def upsets(up):
    n = len(up)
    return [
        m for m in range(1 << n)
        if all(up[i] & ~m == 0 for i in bits(m))
    ]


def down_masks(up):
    n = len(up)
    return [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]


def order_with_upsets(rng, sizes, count):
    """A random order on one of ``sizes`` points with exactly ``count`` upsets."""
    while True:
        up = random_order(rng, rng.choice(sizes))
        if len(upsets(up)) == count:
            return up


class LatticeInput:
    """Lattice JSON for Up(P), with the labels needed to check the dual."""

    def __init__(self, rng, up):
        self.up = up
        self.members = upsets(up)
        names = rng.sample(range(10 * len(self.members)), len(self.members))
        self.label = {m: f"e{k}" for m, k in zip(self.members, names)}
        present = set(self.members)
        covers = []
        for u in self.members:
            for i in range(len(up)):
                v = u | 1 << i
                if v != u and v in present:
                    covers.append([self.label[u], self.label[v]])
        points = [self.label[m] for m in self.members]
        rng.shuffle(points)
        rng.shuffle(covers)
        self.json = {"points": points, "covers": covers}

    @property
    def size(self):
        return len(self.members)

    @property
    def bottom(self):
        return self.label[0]

    @property
    def top(self):
        return self.label[(1 << len(self.up)) - 1]


def plant(rng, base, kind):
    """Glue a non-lattice or non-distributive piece onto ``base``.

    The piece sits above the top or below the bottom of ``base``.
    Returns (lattice JSON, expected error class name, labels of the
    planted elements any witness must come from).
    """
    a, b, c, d, end = "pa", "pb", "pc", "pd", "pz"
    if kind == "M3":
        inner = [(a, "hi"), (b, "hi"), (c, "hi"), ("lo", a), ("lo", b), ("lo", c)]
        expected, witness = "NotDistributive", {a, b, c}
    elif kind == "N5":
        inner = [("lo", a), (a, b), (b, "hi"), ("lo", c), (c, "hi")]
        expected, witness = "NotDistributive", {a, b, c}
    else:
        inner = [("lo", c), ("lo", d), (c, a), (c, b), (d, a), (d, b),
                 (a, "hi"), (b, "hi")]
        expected, witness = "NotALattice", {a, b, c, d}
    labels = {a, b, c, d} & {x for pair in inner for x in pair}
    if rng.random() < 0.5:
        glue = {"lo": base.top, "hi": end}
    else:
        glue = {"lo": end, "hi": base.bottom}
    covers = list(base.json["covers"])
    covers += [[glue.get(x, x), glue.get(y, y)] for x, y in inner]
    points = list(base.json["points"]) + sorted(labels) + [end]
    rng.shuffle(points)
    rng.shuffle(covers)
    return {"points": points, "covers": covers}, expected, witness


def duality_round(seed, r):
    """The inputs of round r: accept lattices, rejects, the 2^7 lattice
    (or None) and nuclei spaces."""
    rng = random.Random(f"duality:{seed}:{r}")
    accept = [
        LatticeInput(rng, order_with_upsets(rng, (4, 5, 6, 7), size))
        for size in ACCEPT_SIZES
    ]
    reject = []
    for k, size in enumerate(REJECT_BASE_SIZES):
        base = LatticeInput(rng, order_with_upsets(rng, (4, 5, 6, 7), size))
        kind = PLANTS[(len(REJECT_BASE_SIZES) * r + k) % len(PLANTS)]
        reject.append((kind,) + plant(rng, base, kind))
    spaces = [order_with_upsets(rng, (n,), count) for n, count in NUCLEI_SPACES]
    boolean = LatticeInput(rng, antichain(7)) if r % BOOLEAN_EVERY == 0 else None
    return accept, reject, boolean, spaces
