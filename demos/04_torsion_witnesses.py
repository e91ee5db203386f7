"""Constructing non-smoothness witnesses: crossings, Coxeter torsion, certificates.

When a prime is not pretty good, some centralizer is non-smooth, and the
failure is always visible as p-torsion in an explicit lattice quotient.
Certificates package those witnesses so that a third party can re-check them
from the JSON alone.
"""

import json

from rootprimes import (
    build_certificate,
    coxeter_element_type_a,
    coxeter_fixed_torsion,
    cross_out_node,
    highest_roots,
    preset,
    quotient_group,
    verify_certificate,
)
from rootprimes.certificates import Certificate
from rootprimes.rootdatum import root_lattice_quotient

# Crossing out a node of the extended diagram whose coefficient p divides
# produces a full-rank subsystem with cyclic p-torsion in Z.roots / Z.subsystem.
g2 = preset("SC(G2)")
print("G2 highest root coefficients:", highest_roots(g2)[0].coefficients)
for node in (0, 1):
    sub = cross_out_node(g2, 0, node)
    quotient = root_lattice_quotient(g2, sub.sorted_indices)
    print(f"  crossing node {node}: subsystem of {len(sub.indices)} roots, quotient {quotient}")
print()

# For type-A products the Coxeter element's fixed-point lattice carries the
# torsion: X/(s-1)X matches the coroot-side failure.
for name in ("SC(A1)", "AD(A1)", "AD(A3)", "GL(2)"):
    d = preset(name)
    s = coxeter_element_type_a(d)
    group, rel = coxeter_fixed_torsion(d)
    print(f"{name:8s} Coxeter matrix {s.matrix.to_rows()}  X/(s-1)X = {group}  divisors in Z.roots = {rel}")
print()

# Certificates: one per (datum, p), kind chosen by the failure mode.
for name, p in (("GL(2)", 2), ("SC(A1)", 2), ("SC(G2)", 2), ("AD(A3)", 2)):
    cert = build_certificate(preset(name), p)
    round_tripped = Certificate.from_json(cert.to_json())
    print(f"{name:8s} p={p}: kind={cert.kind:20s} re-verified={verify_certificate(round_tripped)}")
print()

print("a full certificate document:")
print(json.dumps(build_certificate(preset("SC(A1)"), 2).to_dict(), indent=2, sort_keys=True))
