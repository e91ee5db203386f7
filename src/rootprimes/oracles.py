"""Definitional oracles: the prime classes by their subset-quantified definitions.

p is good when Z.roots / Z.subset has no p-torsion for any subset of the
roots, very good when the weight lattice modulo Z.subset has none, and
pretty good when neither X / Z.subset nor Y / Z.subset^vee has any.  These
brute-force oracles pin the fast criteria of :mod:`rootprimes.primes` to
those definitions on small data.

Every quotient above depends only on the lattice a subset spans, and any
subset spans the same lattice as a subset of positive roots (negating a
generator changes nothing), so the class pass enumerates lattices, not
subsets.  It is a closure search: start from the zero lattice, join each
positive root to each lattice found, and keep one Hermite basis per lattice
with a subset that spans it.  Every subset's lattice is reached through its
prefixes.  One pass per datum yields the good, very-good and X-side
exponents together.  The coroot subsets range over exactly the root subsets
of the dual datum, so pretty good reads the X-side exponents of the datum
and of its dual.

The full sweep is the second tier, with no class reduction: it visits every
subset of the roots and every subset of the coroots.  A subset's lattice is
the lattice of the subset without its top index joined with the top vector,
a join chain memoized per (lattice, index) within one sweep, and each
distinct lattice takes one Smith form.

No quotient depends on p, so each oracle computes one torsion exponent per
datum, the lcm of the torsion entries of every quotient it ranges over, and
reads every prime off it: p fails exactly when it divides the exponent.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import TooLargeError
from .intlin import IntMatrix, check_prime, join_row, quotient_group, snf_divisors
from .rootdatum import (
    RootDatum,
    dual,
    ensure_valid,
    positive_roots,
    root_lattice_quotient,
    weight_quotient_of_lattice,
)


def _sublattice_classes(datum: RootDatum) -> dict[IntMatrix, tuple[int, ...]]:
    """Hermite basis of every lattice spanned by roots -> positive root indices that span it.

    A closure search from the zero lattice (the empty subset): each lattice
    found is joined with every positive root, and a new lattice keeps the
    subset of the lattice it came from plus that root.
    """
    pos = positive_roots(datum)
    zero = IntMatrix(0, datum.rank, ())
    classes = {zero: ()}
    found = [zero]
    for basis in found:  # grows while it is walked
        subset = classes[basis]
        for k in pos:
            joined = join_row(basis, datum.roots[k])
            if joined not in classes:
                classes[joined] = subset + (k,)
                found.append(joined)
    return classes


def _class_exponents(datum: RootDatum) -> tuple[int, int, int]:
    """(good, very-good, X-side) exponents of the datum, from one class pass."""
    good: set[int] = set()
    very_good: set[int] = set()
    side: set[int] = set()
    for basis, subset in _sublattice_classes(datum).items():
        good.update(root_lattice_quotient(datum, subset).torsion)
        very_good.update(weight_quotient_of_lattice(datum, basis).torsion)
        side.update(quotient_group(datum.rank, basis).torsion)
    return math.lcm(*good), math.lcm(*very_good), math.lcm(*side)


def _subset_lattices(vectors: Sequence[Sequence[int]], rank: int) -> list[IntMatrix]:
    """The Hermite bases of the spans of the subsets of ``vectors``, each distinct one once.

    A depth-first walk visits every subset as an increasing index sequence,
    so a subset's lattice is its parent's (the subset without its top index)
    joined with the top vector.  Lattices are numbered as they are found,
    and the join of lattice ``l`` with vector ``top`` is memoized in
    ``joins[l][top]``.
    """
    n = len(vectors)
    lattices = [IntMatrix(0, rank, ())]
    number = {lattices[0]: 0}
    joins: list[list[int | None]] = [[None] * n]
    stack = [(0, 0)]
    while stack:
        lattice, start = stack.pop()
        memo = joins[lattice]
        for top in range(start, n):
            joined = memo[top]
            if joined is None:
                basis = join_row(lattices[lattice], vectors[top])
                joined = number.get(basis)
                if joined is None:
                    joined = number[basis] = len(lattices)
                    lattices.append(basis)
                    joins.append([None] * n)
                memo[top] = joined
            stack.append((joined, top + 1))
    return lattices


def _full_sweep_exponent(datum: RootDatum) -> int:
    """lcm of the torsion of X / Z.subset and Y / Z.subset^vee over literally every subset."""
    lattices = _subset_lattices(datum.roots, datum.rank) + _subset_lattices(datum.coroots, datum.rank)
    return math.lcm(*{d for basis in lattices for d in snf_divisors(basis) if d})


# (oracle kind, datum) -> the datum's torsion exponent for that oracle
_EXPONENTS: dict[tuple[str, RootDatum], int] = {}


def _fill_class_exponents(datum: RootDatum):
    """Store the three class oracles' exponents of the datum and of its dual, one class pass each."""
    co = dual(datum)
    good, very_good, side = _class_exponents(datum)
    co_good, co_very_good, co_side = _class_exponents(co) if co != datum else (good, very_good, side)
    pretty_good = math.lcm(side, co_side)
    _EXPONENTS.update({
        ("good", datum): good, ("very good", datum): very_good, ("pretty good", datum): pretty_good,
        ("good", co): co_good, ("very good", co): co_very_good, ("pretty good", co): pretty_good,
    })


def _gate_size(datum: RootDatum, exhaustive_limit: int):
    if datum.num_roots > exhaustive_limit:
        raise TooLargeError(
            f"{datum.num_roots} roots exceed the exhaustive limit {exhaustive_limit}"
        )


def _oracle(kind: str, datum: RootDatum, p: int, exhaustive_limit: int) -> bool:
    """Run the checks, then answer from the datum's exponent, computed on its first call."""
    check_prime(p)
    ensure_valid(datum)
    _gate_size(datum, exhaustive_limit)
    key = (kind, datum)
    exponent = _EXPONENTS.get(key)
    if exponent is None:
        if kind == "full sweep":
            _EXPONENTS[key] = _full_sweep_exponent(datum)
        else:
            _fill_class_exponents(datum)
        exponent = _EXPONENTS[key]
    return exponent % p != 0


def good_via_torsion(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Good by definition: Z.roots / Z.subset has no p-torsion for any subset.

    The exponent comes from the class pass over the root-spanned lattices,
    each presented by the coefficient rows of its stored subset.
    """
    return _oracle("good", datum, p, exhaustive_limit)


def very_good_via_torsion(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Very good by definition: the weight lattice modulo Z.subset has no p-torsion for any subset.

    The exponent comes from the class pass over the root-spanned lattices.
    """
    return _oracle("very good", datum, p, exhaustive_limit)


def pretty_good_bruteforce(datum: RootDatum, p: int, exhaustive_limit: int = 18) -> bool:
    """Pretty good by definition: X / Z.subset and Y / Z.subset^vee have no p-torsion for any subset.

    The exponent is the lcm of the X-side exponents of the class passes on
    the datum and on its dual.
    """
    return _oracle("pretty good", datum, p, exhaustive_limit)


def pretty_good_full_sweep(datum: RootDatum, p: int, exhaustive_limit: int = 12) -> bool:
    """Second-tier oracle: literally every subset of the roots and of the coroots, both quotients.

    Exponential in the root count; it validates the class pass on small
    data.  Each subset's lattice comes from the join chain, and each
    distinct lattice takes one Smith form.
    """
    return _oracle("full sweep", datum, p, exhaustive_limit)
