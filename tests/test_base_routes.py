"""Components, crossed-node subsystems and root-lattice quotients against
the direct routes they replaced, kept here as references.

Production reads all three off the base: components by nonzero pairing of
simple roots and the support of each root's coefficient row, the crossing
by divisibility of one coefficient (Kac coordinates e_k), and the quotient
Z.roots / Z.subset from coefficient rows over the base.  The references
are the all-pairs union-find over (root, coroot) pairings, the orbit of
(Delta minus the crossed root) plus the lowest root under its own
reflections, and coordinates in a Hermite basis of Z.roots.
"""

import random

from rootprimes.intlin import IntMatrix, RowLattice, dot, quotient_group
from rootprimes.rootdatum import (
    RootDatum,
    components,
    dual,
    preset,
    root_lattice_quotient,
    simple_system,
)
from rootprimes.sampling import random_type_a_datum, random_unimodular
from rootprimes.selftest import RANK8_PRESETS
from rootprimes.subsystems import cross_out_node, highest_roots

NAMES = RANK8_PRESETS + ("Sum(SC(E8), AD(A1))", "Sum(AD(F4), SC(D4))", "Sum(SC(D4), AD(D4), SC(F4))")


def _rebased(datum: RootDatum, rng: random.Random) -> RootDatum:
    """The datum in a random basis of X: roots go to T r, coroots to T^-T c."""
    t, tinv = random_unimodular(rng, datum.rank)
    assert t @ tinv == IntMatrix.identity(datum.rank)
    tinv_t = tinv.transpose()
    return RootDatum(
        rank=datum.rank,
        roots=tuple(t.apply(r) for r in datum.roots),
        coroots=tuple(tinv_t.apply(c) for c in datum.coroots),
    )


def _data():
    """Each preset and sum in its own random basis, seeded samples, and all their duals."""
    rng = random.Random(4)
    rebased = [_rebased(preset(name), rng) for name in NAMES]
    sampled = [random_type_a_datum(rng) for _ in range(40)]
    rebased += [dual(d) for d in rebased]
    return rebased + sampled + [dual(d) for d in sampled]


DATA = _data()


def _union_find_groups(datum: RootDatum) -> list[tuple[int, ...]]:
    """Connected classes of roots under nonzero pairing, over all pairs."""
    n = datum.num_roots
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if dot(datum.roots[i], datum.coroots[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted((tuple(g) for g in groups.values()), key=min)


def _reflection_orbit(datum: RootDatum, component: int, node: int) -> frozenset[int]:
    """Orbit of (Delta minus the crossed root) plus the lowest root under their reflections."""
    crossed = components(datum)[component].simple_indices[node]
    highest = datum.roots[highest_roots(datum)[component].root_index]
    lowest = datum.roots.index(tuple(-x for x in highest))
    base = [i for i in simple_system(datum) if i != crossed] + [lowest]
    gens = [(datum.roots[i], datum.coroots[i]) for i in base]
    lookup = {r: i for i, r in enumerate(datum.roots)}
    seen = set(base)
    queue = [datum.roots[i] for i in base]
    while queue:
        x = queue.pop()
        for a, av in gens:
            k = dot(x, av)
            j = lookup[tuple(xx - k * aa for xx, aa in zip(x, a))]
            if j not in seen:
                seen.add(j)
                queue.append(datum.roots[j])
    return frozenset(seen)


def _root_lattice(datum):
    """Z.roots inside X, as the row lattice of the base."""
    return RowLattice(IntMatrix.from_rows([datum.roots[i] for i in simple_system(datum)], cols=datum.rank))


def _anchor_quotient(datum: RootDatum, indices):
    """Z.roots / Z.subset from coordinates in a Hermite basis of Z.roots."""
    anchor = _root_lattice(datum)
    rows = [anchor.coords(datum.roots[i]) for i in indices]
    return quotient_group(anchor.rank, IntMatrix.from_rows(rows, cols=anchor.rank))


def test_components_match_the_all_pairs_union_find():
    for d in DATA:
        comps = components(d)
        assert [c.root_indices for c in comps] == _union_find_groups(d)
        delta = simple_system(d)
        for c in comps:
            assert sorted(c.simple_indices) == [i for i in delta if i in c.root_indices]


def test_every_crossing_matches_the_reflection_orbit_and_its_quotient():
    crossings = 0
    for d in DATA:
        quotients = {}  # one comparison per distinct subsystem: coefficient-1 nodes all give every root
        for ci, comp in enumerate(components(d)):
            for node in range(comp.rank):
                subset = cross_out_node(d, ci, node)
                assert subset.indices == _reflection_orbit(d, ci, node), (ci, node)
                indices = subset.sorted_indices
                if indices not in quotients:
                    quotients[indices] = root_lattice_quotient(d, indices)
                    assert quotients[indices] == _anchor_quotient(d, indices), (ci, node)
                crossings += 1
    assert crossings == sum(c.rank for d in DATA for c in components(d))
