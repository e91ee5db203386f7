"""Prime classification for root data.

A prime is bad when it divides a highest-root coefficient; good otherwise;
very good when it is good and divides no n+1 over the type-A_n components;
pretty good when X modulo the span of any root subset and Y modulo the span
of the matching coroot subset are free of p-torsion.

This module holds the production path.  Its pretty-good test uses the
equivalent finite criterion (good, plus p-torsion-freeness of X/Z.roots and
Y/Z.coroots).  The subset-quantified definitions live in
:mod:`rootprimes.oracles` as brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlin import check_prime as _check_prime
from .intlin import p_torsion_free
from .rootdatum import (
    RootDatum,
    bad_primes,
    components,
    highest_roots,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)


@dataclass(frozen=True)
class PrimeReport:
    """Classification of one prime, plus the two center-smoothness bits."""

    p: int
    bad: bool
    good: bool
    very_good: bool
    pretty_good: bool
    center_smooth: bool
    dual_center_smooth: bool

    def __post_init__(self):
        if self.good == self.bad:
            raise ValueError("good must be the negation of bad")
        if self.very_good and not self.pretty_good:
            raise ValueError("very good implies pretty good")
        if self.pretty_good and not self.good:
            raise ValueError("pretty good implies good")
        if self.pretty_good and not (self.center_smooth and self.dual_center_smooth):
            raise ValueError("pretty good implies both center bits")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "bad": self.bad,
            "good": self.good,
            "very_good": self.very_good,
            "pretty_good": self.pretty_good,
            "center_smooth": self.center_smooth,
            "dual_center_smooth": self.dual_center_smooth,
        }


@dataclass(frozen=True)
class TorsionBound:
    """Every prime above the bound is pretty good for the datum."""

    bound: int


def good(datum: RootDatum, p: int) -> bool:
    _check_prime(p)
    return p not in bad_primes(datum)


def failing_type_a_positions(datum: RootDatum, p: int) -> list[int]:
    """Positions in ``components(datum)`` of the type-A_n components with p | n+1."""
    return [ci for ci, c in enumerate(components(datum)) if c.series == "A" and (c.rank + 1) % p == 0]


def very_good(datum: RootDatum, p: int) -> bool:
    """Good, and p does not divide n+1 for any type-A_n component."""
    return good(datum, p) and not failing_type_a_positions(datum, p)


# ---------------------------------------------------------------------------
# Production predicates
# ---------------------------------------------------------------------------


def pretty_good(datum: RootDatum, p: int) -> bool:
    """Good plus p-torsion-freeness of X/Z.roots and Y/Z.coroots.

    Equivalent to the subset-quantified definition; the equivalence is
    re-verified against :func:`rootprimes.oracles.pretty_good_bruteforce` by
    the test suite.
    """
    _check_prime(p)
    if not good(datum, p):
        return False
    return p_torsion_free(x_mod_root_lattice(datum), p) and p_torsion_free(
        y_mod_coroot_lattice(datum), p
    )


def center_smooth(datum: RootDatum, p: int) -> bool:
    """True when X/Z.roots has no p-torsion (the center's character group)."""
    _check_prime(p)
    return p_torsion_free(x_mod_root_lattice(datum), p)


def dual_center_smooth(datum: RootDatum, p: int) -> bool:
    _check_prime(p)
    return p_torsion_free(y_mod_coroot_lattice(datum), p)


def failing_prime_bound(datum: RootDatum) -> TorsionBound:
    """A bound above which every prime is pretty good.

    Any failing prime is bad (divides a highest-root coefficient) or divides
    an invariant factor of X/Z.roots or Y/Z.coroots, so the maximum of those
    numbers works.
    """
    candidates = [1]
    for h in highest_roots(datum):
        candidates.extend(h.coefficients)
    candidates.extend(x_mod_root_lattice(datum).torsion)
    candidates.extend(y_mod_coroot_lattice(datum).torsion)
    return TorsionBound(bound=max(candidates))


def report(datum: RootDatum, p: int) -> PrimeReport:
    """Full classification of one prime."""
    _check_prime(p)
    is_bad = p in bad_primes(datum)
    return PrimeReport(
        p=p,
        bad=is_bad,
        good=not is_bad,
        very_good=very_good(datum, p),
        pretty_good=pretty_good(datum, p),
        center_smooth=center_smooth(datum, p),
        dual_center_smooth=dual_center_smooth(datum, p),
    )
