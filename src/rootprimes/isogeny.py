"""Isogenies of root data.

An isogeny is an injective lattice map f: X -> X' with finite cokernel that
carries the source roots bijectively onto the target roots while its
transpose carries the matching target coroots back onto the source coroots.
Stored on character lattices, so the group-level arrow runs the other way:
the map built by :func:`adjoint_to_simply_connected` corresponds to the
quotient of the simply connected group by its center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .intlin import (
    FinAbGroup,
    IntMatrix,
    is_prime,
    p_torsion_free,
    quotient_group,
    strict_int,
    strict_matrix,
)
from .primes import pretty_good
from .rootdatum import RootDatum, adjoint, cartan_matrix, ensure_valid, simply_connected


@dataclass(frozen=True)
class Isogeny:
    """Integer matrix of f: X(source) -> X(target) on column vectors."""

    source: RootDatum
    target: RootDatum
    matrix: IntMatrix

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "matrix": self.matrix.to_rows(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Isogeny":
        return cls(
            source=RootDatum.from_dict(data["source"]),
            target=RootDatum.from_dict(data["target"]),
            matrix=strict_matrix(data["matrix"], cols=strict_int(data["source"]["rank"])),
        )


def _root_bijection(iso: Isogeny) -> Optional[list[int]]:
    """Index map i -> j with F.root_i = target_root_j, or None."""
    lookup = {r: j for j, r in enumerate(iso.target.roots)}
    if len(iso.source.roots) != len(iso.target.roots):
        return None
    out = []
    hit = set()
    for r in iso.source.roots:
        j = lookup.get(iso.matrix.apply(r))
        if j is None or j in hit:
            return None
        hit.add(j)
        out.append(j)
    return out


def validate_isogeny(iso: Isogeny) -> list[str]:
    """Check the isogeny axioms; return the violations (empty = valid)."""
    v: list[str] = []
    for name, datum in (("source", iso.source), ("target", iso.target)):
        try:
            ensure_valid(datum)
        except ValueError as exc:
            v.append(f"{name} datum invalid: {exc}")
    if v:
        return v
    f = iso.matrix
    if f.rows != iso.target.rank or f.cols != iso.source.rank:
        v.append("matrix shape does not map X(source) into X(target)")
        return v
    if f.rows != f.cols:
        v.append("ranks differ, cokernel cannot be finite")
        return v
    if f.det() == 0:
        v.append("matrix is singular, not injective with finite cokernel")
        return v
    match = _root_bijection(iso)
    if match is None:
        v.append("root image is not a bijection onto the target roots")
        return v
    ft = f.transpose()
    for i, j in enumerate(match):
        if ft.apply(iso.target.coroots[j]) != iso.source.coroots[i]:
            v.append(f"transpose does not carry coroot of image root {j} back to coroot {i}")
    return v


def ensure_valid_isogeny(iso: Isogeny) -> Isogeny:
    violations = validate_isogeny(iso)
    if violations:
        raise ValueError("invalid isogeny: " + "; ".join(violations))
    return iso


def cokernel(iso: Isogeny) -> FinAbGroup:
    """X(target) / f(X(source)) as an abstract group (always finite)."""
    ensure_valid_isogeny(iso)
    return quotient_group(iso.target.rank, iso.matrix.transpose())


def separable_at(iso: Isogeny, p: int) -> bool:
    """True when p does not divide the cokernel order.

    The transposed map has a cokernel of the same order (equal determinants),
    which is asserted rather than trusted.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ensure_valid_isogeny(iso)
    order = abs(iso.matrix.det())
    dual_order = abs(iso.matrix.transpose().det())
    if order != dual_order:
        raise AssertionError("cokernel orders of f and its transpose differ")
    return order % p != 0


def transfer_pretty_good(iso: Isogeny, p: int) -> tuple[bool, bool, bool]:
    """(source pretty good, target pretty good, transfer applies).

    The transfer applies when the cokernel has no p-torsion; in that case the
    two pretty-good bits must agree, and a disagreement raises, since it
    would falsify the transfer law.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ensure_valid_isogeny(iso)
    applies = p_torsion_free(cokernel(iso), p)
    source_pg = pretty_good(iso.source, p)
    target_pg = pretty_good(iso.target, p)
    if applies and source_pg != target_pg:
        raise AssertionError(
            f"pretty-good transfer violated at p={p}: source={source_pg}, target={target_pg}"
        )
    return source_pg, target_pg, applies


def compose(second: Isogeny, first: Isogeny) -> Isogeny:
    """The composite X(first.source) -> X(second.target)."""
    if first.target != second.source:
        raise ValueError("isogenies do not compose: target of first != source of second")
    return Isogeny(source=first.source, target=second.target, matrix=second.matrix @ first.matrix)


def identity_isogeny(datum: RootDatum) -> Isogeny:
    return Isogeny(source=datum, target=datum, matrix=IntMatrix.identity(datum.rank))


def adjoint_to_simply_connected(series: str, rank: int) -> Isogeny:
    """The Cartan-matrix isogeny from the adjoint to the simply connected datum.

    On character lattices the Cartan matrix sends the root basis of the
    adjoint X into the weight coordinates of the simply connected X; its
    cokernel is the fundamental group.  The group-level arrow it encodes is
    the central quotient of the simply connected group.
    """
    return Isogeny(
        source=adjoint(series, rank),
        target=simply_connected(series, rank),
        matrix=cartan_matrix(series, rank),
    )
