"""Subset machinery on root systems.

Span closures of subsets, highest roots, extended-diagram node crossing
(Borel-de Siebenthal subsystems), Weyl reflections, and Coxeter elements of
type-A products together with the torsion of their fixed-point lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NonTypeAError
from .intlin import FinAbGroup, IntMatrix, RowLattice, quotient_group, relative_divisors
from .rootdatum import (
    HighestRoot,
    RootDatum,
    _root_indices,
    base_pairing,
    components,
    ensure_valid,
    highest_roots,
    positive_roots,
    root_coefficients,
    simple_system,
)


@dataclass(frozen=True)
class RootSubset:
    """A subset of the roots of a fixed datum, stored as indices."""

    datum: RootDatum
    indices: frozenset[int]

    def __post_init__(self):
        _root_indices(self.datum, self.indices)

    @property
    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def root_rows(self) -> IntMatrix:
        return IntMatrix.from_rows(
            [self.datum.roots[i] for i in self.sorted_indices], cols=self.datum.rank
        )

    def lattice(self) -> RowLattice:
        return RowLattice(self.root_rows())


def span_closure(subset: RootSubset) -> RootSubset:
    """All roots lying in the integer span of the subset.

    The result is symmetric and closed; taking the closure again changes
    nothing, and the spanned lattice is the same as the subset's.
    """
    datum = subset.datum
    ensure_valid(datum)
    lattice = subset.lattice()
    if lattice.rank == 0:
        return RootSubset(datum, frozenset())
    closed = frozenset(i for i, r in enumerate(datum.roots) if r in lattice)
    return RootSubset(datum, closed)


def cross_out_node(datum: RootDatum, component: int, node: int) -> RootSubset:
    """Borel-de Siebenthal crossing of one node of the extended diagram.

    ``node`` positions into the chosen component's Bourbaki-ordered simple
    roots; let m be its highest-root coefficient and k its column in
    :func:`simple_system` order.  The returned subsystem, which is closed
    and symmetric, is every root outside the component plus each root of
    the component whose k-th coefficient is divisible by m.  This is the
    subsystem with base (Delta minus that root) plus the lowest root: the
    fixed points of the order-m inner automorphism with Kac coordinates e_k
    (Kac, Infinite-dimensional Lie algebras, 8.6; Borel-de Siebenthal,
    Comment. Math. Helv. 23, 1949).
    """
    comps = components(datum)
    if not comps:
        raise ValueError("datum has no roots, nothing to cross out")
    if not 0 <= component < len(comps):
        raise ValueError(f"component index {component} out of range")
    comp = comps[component]
    if not 0 <= node < len(comp.simple_indices):
        raise ValueError(f"node index {node} out of range for component {comp.series}{comp.rank}")
    k = simple_system(datum).index(comp.simple_indices[node])
    m = highest_roots(datum)[component].coefficients[node]
    inside = set(comp.root_indices)
    coeffs = root_coefficients(datum)
    return RootSubset(
        datum, frozenset(i for i in range(datum.num_roots) if i not in inside or coeffs[i][k] % m == 0)
    )


def cross_out_for_prime(datum: RootDatum, p: int):
    """First (component, node) in Bourbaki order whose coefficient p divides.

    Returns (subset, component, node, coefficient), or None when no highest
    root coefficient is divisible by p (p is good).
    """
    for h in highest_roots(datum):
        for node, m in enumerate(h.coefficients):
            if m % p == 0:
                return cross_out_node(datum, h.component, node), h.component, node, m
    return None


# ---------------------------------------------------------------------------
# Weyl elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylElement:
    """A lattice automorphism of X given by its matrix on column vectors."""

    matrix: IntMatrix

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.matrix.apply(vec)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.matrix @ other.matrix)

    def permutes_roots(self, datum: RootDatum) -> bool:
        image = set()
        root_set = set(datum.roots)
        for r in datum.roots:
            y = self.apply(r)
            if y not in root_set:
                return False
            image.add(y)
        return len(image) == len(datum.roots)

    def in_weyl_group(self, datum: RootDatum) -> bool:
        """True when the matrix is a product of simple reflections of ``datum``.

        Descent: while some simple root a has w(a) outside the positive
        roots, replace w by w s_a = w - (w a)(a^vee)^T.  When w lies in W,
        each step removes one positive root from those w sends to negative
        roots, so within |positive roots| steps w keeps every positive root
        positive, and the only such element of W is the identity (W acts
        simply transitively on positive systems; Humphreys, Reflection
        Groups and Coxeter Groups, 1.8).  A descent that ends at the identity
        writes w as a product of simple reflections, so no other check of
        the matrix is needed.
        """
        simple = simple_system(datum)
        pairing = base_pairing(datum)
        positive = {datum.roots[k] for k in positive_roots(datum)}
        m = self.matrix.to_rows()
        # the images w(a_j) of the simple roots, kept up to date with w
        images = [self.apply(datum.roots[a]) for a in simple]
        for _ in range(len(positive) + 1):
            i = next((i for i, y in enumerate(images) if y not in positive), None)
            if i is None:
                return m == IntMatrix.identity(len(m)).to_rows()
            wa = images[i]
            coroot = datum.coroots[simple[i]]
            for row, x in zip(m, wa):
                if x:
                    row[:] = [y - x * c for y, c in zip(row, coroot)]
            # w s_i (a_j) = w(a_j) - <a_j, a_i^vee> w(a_i)
            images = [tuple(y - pairing.at(j, i) * z for y, z in zip(image, wa)) for j, image in enumerate(images)]
        return False

    def moved_rows(self) -> IntMatrix:
        """(s-1)X as a row lattice: row i is (s-1) applied to basis vector i."""
        return (self.matrix - IntMatrix.identity(self.matrix.rows)).transpose()

    def coinvariants(self) -> FinAbGroup:
        """X/(s-1)X, from one Smith form of :meth:`moved_rows`."""
        return quotient_group(self.matrix.rows, self.moved_rows())


def reflection(datum: RootDatum, root_index: int) -> WeylElement:
    """The reflection x -> x - <x, a^vee> a through the root at root_index."""
    ensure_valid(datum)
    a = datum.roots[root_index]
    av = datum.coroots[root_index]
    n = datum.rank
    m = [[int(i == j) - a[i] * av[j] for j in range(n)] for i in range(n)]
    return WeylElement(IntMatrix.from_rows(m, cols=n))


def _coxeter_for_components(datum: RootDatum, comp_positions: Iterable[int]) -> WeylElement:
    """Product of per-component Coxeter elements, factors in Bourbaki order."""
    comps = components(datum)
    m = IntMatrix.identity(datum.rank)
    for ci in comp_positions:
        for idx in comps[ci].simple_indices:
            m = m @ reflection(datum, idx).matrix
    return WeylElement(m)


def coxeter_element_type_a(datum: RootDatum) -> WeylElement:
    """Coxeter element of a type-A product, as composed simple reflections.

    Factors run through the components in order and through each component's
    simple roots in Bourbaki path order.  Raises NonTypeAError when any
    component is not of type A.
    """
    comps = components(datum)
    bad = [c.label for c in comps if c.series != "A"]
    if bad:
        raise NonTypeAError(f"components {bad} are not of type A")
    return _coxeter_for_components(datum, range(len(comps)))


def coxeter_closed_form_type_a(datum: RootDatum) -> WeylElement:
    """The same element via the telescoped action.

    s(x) = x - sum over components i and path positions j of
    (sum over k >= j of <x, a_ik^vee>) a_ij.
    """
    comps = components(datum)
    bad = [c.label for c in comps if c.series != "A"]
    if bad:
        raise NonTypeAError(f"components {bad} are not of type A")
    n = datum.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for comp in comps:
        simples = comp.simple_indices
        for j, idx in enumerate(simples):
            a = datum.roots[idx]
            tail = [datum.coroots[k] for k in simples[j:]]
            total = tuple(sum(av[t] for av in tail) for t in range(n))
            for r in range(n):
                for t in range(n):
                    m[r][t] -= a[r] * total[t]
    return WeylElement(IntMatrix.from_rows(m, cols=n))


def coxeter_fixed_torsion(datum: RootDatum) -> tuple[FinAbGroup, tuple[int, ...]]:
    """Torsion data of the Coxeter fixed-point construction on a type-A product.

    Returns (X/(s-1)X, elementary divisors of the lattice (s-1)X inside the
    root lattice).  The second list equals the elementary divisors of the
    coroot lattice inside Y, so the first group picks up p-torsion exactly
    when Y modulo the coroot lattice does.
    """
    s = coxeter_element_type_a(datum)
    return s.coinvariants(), tuple(relative_divisors(s.moved_rows(), datum.root_matrix()))
