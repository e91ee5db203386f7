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
    components,
    ensure_valid,
    highest_roots,
    root_coefficients,
    simple_system,
)


@dataclass(frozen=True)
class RootSubset:
    """A subset of the roots of a fixed datum, stored as indices."""

    datum: RootDatum
    indices: frozenset[int]

    def __post_init__(self):
        for i in self.indices:
            if not 0 <= i < self.datum.num_roots:
                raise ValueError(f"root index {i} out of range")

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
    delta = s.matrix - IntMatrix.identity(datum.rank)
    image_rows = delta.transpose()  # rows = images of the basis vectors
    group = quotient_group(datum.rank, image_rows)
    rel = tuple(relative_divisors(image_rows, datum.root_matrix()))
    return group, rel
