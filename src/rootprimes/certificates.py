"""Machine-checkable certificates for the smoothness verdict at a prime.

Four kinds:

* ``pretty-good-proof``: the finite criterion's data (bad primes and the two
  quotients X/Z.roots, Y/Z.coroots, all p-torsion-free).
* ``center-torsion``: X/Z.roots with p-torsion; the center itself is the
  witness.
* ``bad-prime-subsystem``: a crossed-node subsystem whose root-lattice
  quotient carries p-torsion cyclic of order the p-part of the crossed
  coefficient.
* ``coxeter-torsion``: a Weyl element s of a type-A part with p-torsion in
  X/(s-1)X, on the datum itself or on its dual.

Every certificate embeds the full datum so it verifies standalone:
:func:`verify_certificate` re-runs the named check from the payload alone.

:meth:`Certificate.to_json` writes exactly the bytes of
``json.dumps(cert.to_dict(), indent=2, sort_keys=True)``, but through the C
encoder: the stdlib leaves it whenever ``indent`` is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ClassificationGapError
from .intlin import (
    FinAbGroup,
    check_prime,
    is_prime,
    p_torsion_free,
    strict_int,
    strict_list,
    strict_matrix,
)
from .primes import (
    bad_primes,
    failing_type_a_positions,
    report,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)
from .rootdatum import RootDatum, components, dual, ensure_valid, root_lattice_quotient
from .subsystems import (
    WeylElement,
    _coxeter_for_components,
    cross_out_for_prime,
    cross_out_node,
    highest_roots,
)

PRETTY_GOOD_PROOF = "pretty-good-proof"
CENTER_TORSION = "center-torsion"
BAD_PRIME_SUBSYSTEM = "bad-prime-subsystem"
COXETER_TORSION = "coxeter-torsion"

KINDS = (PRETTY_GOOD_PROOF, CENTER_TORSION, BAD_PRIME_SUBSYSTEM, COXETER_TORSION)


@dataclass(frozen=True)
class Certificate:
    kind: str
    datum: RootDatum
    p: int
    payload: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "datum": self.datum.to_dict(), "p": self.p, "payload": self.payload}

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``."""
        d = self.datum
        # to_dict's layout, reading the datum's tuples without list copies
        datum = {"rank": d.rank, "roots": d.roots, "coroots": d.coroots}
        return _dumps({"kind": self.kind, "datum": datum, "p": self.p, "payload": self.payload})

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        """Inverse of :meth:`to_dict`; TypeError unless the certificate, its
        datum and its payload are dicts and its kind a str."""
        kind = _object(data)["kind"]
        if not isinstance(kind, str):
            raise TypeError(f"expected a string, got {kind!r}")
        return cls(
            kind=kind,
            datum=RootDatum.from_dict(_object(data["datum"])),
            p=strict_int(data["p"]),
            payload=dict(_object(data["payload"])),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    return value


# the C encoder: JSONEncoder leaves it for the pure-Python one whenever indent is set
_compact = json.JSONEncoder(separators=(",", ",")).encode


def _key(key) -> str:
    """A dict key as json.dumps writes it: int, float, bool and None keys become their JSON text."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _compact(key)
    return _compact(key)


def _dumps(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at nesting ``level``.

    A nonempty list of scalars other than strings, or a nonempty list of
    such lists (a matrix, like the roots), is written compactly by the C
    encoder and then indented by ``str.replace``: its text holds no strings,
    so every ``[``, ``]`` and ``,`` in it is structure, and when every
    bracket inside the outer pair sits in a ``],[`` its items are rows.
    Dicts and every other list recurse.
    """
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (_key(k) + ": " + _dumps(v, level + 1) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    if not isinstance(value, (list, tuple)):
        return _compact(value)
    if not value:
        return "[]"
    body = _compact(value)[1:-1]
    if '"' not in body and "[]" not in body:
        if "[" not in body:
            return "[" + inner + body.replace(",", "," + inner) + outer + "]"
        rows = body[1:-1]
        n = rows.count("],[")
        if rows.count("[") == n == rows.count("]"):
            entry = inner + "  "
            rows = rows.replace(",", "," + entry).replace("]," + entry + "[", inner + "]," + inner + "[" + entry)
            return "[" + inner + "[" + entry + rows + inner + "]" + outer + "]"
    return "[" + inner + ("," + inner).join(_dumps(v, level + 1) for v in value) + outer + "]"


def _coxeter_witness(datum: RootDatum, p: int):
    """(weyl element, X/(s-1)X) for the p-failing type-A part, or None."""
    failing = failing_type_a_positions(datum, p)
    if not failing:
        return None
    s = _coxeter_for_components(datum, failing)
    group = s.coinvariants()
    if p_torsion_free(group, p):
        return None
    return s, group


def build_certificate(datum: RootDatum, p: int) -> Certificate:
    """Construct a certificate for (datum, p).

    Branch order: pretty-good proof; center torsion; crossed-node subsystem
    at a bad prime; Coxeter torsion on the p-failing type-A part of the datum
    or of its dual.  A valid datum always hits a branch; falling through
    raises ClassificationGapError.
    """
    ensure_valid(datum)
    check_prime(p)
    rep = report(datum, p)

    if rep.pretty_good:
        payload = {
            "bad_primes": sorted(bad_primes(datum)),
            "x_mod_root_lattice": x_mod_root_lattice(datum).to_dict(),
            "y_mod_coroot_lattice": y_mod_coroot_lattice(datum).to_dict(),
        }
        return Certificate(PRETTY_GOOD_PROOF, datum, p, payload)

    if not rep.center_smooth:
        payload = {"x_mod_root_lattice": x_mod_root_lattice(datum).to_dict()}
        return Certificate(CENTER_TORSION, datum, p, payload)

    if rep.bad:
        found = cross_out_for_prime(datum, p)
        if found is None:
            raise ClassificationGapError("bad prime without a divisible coefficient")
        subset, component, node, coefficient = found
        quotient = root_lattice_quotient(datum, subset.sorted_indices)
        payload = {
            "component": component,
            "node": node,
            "crossed_coefficient": coefficient,
            "subsystem": list(subset.sorted_indices),
            "root_lattice_quotient": quotient.to_dict(),
        }
        return Certificate(BAD_PRIME_SUBSYSTEM, datum, p, payload)

    for side, side_datum in (("primary", datum), ("dual", dual(datum))):
        witness = _coxeter_witness(side_datum, p)
        if witness is not None:
            s, group = witness
            payload = {
                "side": side,
                "weyl_matrix": s.matrix.to_rows(),
                "character_quotient": group.to_dict(),
            }
            return Certificate(COXETER_TORSION, datum, p, payload)

    raise ClassificationGapError(
        f"no certificate branch applies to p={p}; this contradicts the smoothness dichotomy"
    )


def _side(value) -> str:
    if value not in ("primary", "dual"):
        raise ValueError(f"side must be 'primary' or 'dual', got {value!r}")
    return value


# every payload field of each kind, with its strict parser
_PAYLOAD_FIELDS = {
    PRETTY_GOOD_PROOF: {
        "bad_primes": strict_list,
        "x_mod_root_lattice": FinAbGroup.from_dict,
        "y_mod_coroot_lattice": FinAbGroup.from_dict,
    },
    CENTER_TORSION: {"x_mod_root_lattice": FinAbGroup.from_dict},
    BAD_PRIME_SUBSYSTEM: {
        "component": strict_int,
        "node": strict_int,
        "crossed_coefficient": strict_int,
        "subsystem": strict_list,
        "root_lattice_quotient": FinAbGroup.from_dict,
    },
    COXETER_TORSION: {
        "side": _side,
        "weyl_matrix": strict_matrix,
        "character_quotient": FinAbGroup.from_dict,
    },
}


def verify_certificate(cert: Certificate) -> bool:
    """Re-run the named check from the embedded datum and payload.

    Total: an invalid datum, a p that is not a prime (or too large to
    decide), an unknown kind, or a payload with a missing or mistyped field
    all give False.
    """
    p = cert.p
    try:
        datum = ensure_valid(cert.datum)
        if not is_prime(p):
            return False
    except ValueError:
        return False
    try:
        fields = {key: parse(cert.payload[key]) for key, parse in _PAYLOAD_FIELDS[cert.kind].items()}
    except (KeyError, TypeError, ValueError):
        return False

    if cert.kind == PRETTY_GOOD_PROOF:
        x_q = x_mod_root_lattice(datum)
        y_q = y_mod_coroot_lattice(datum)
        return (
            sorted(bad_primes(datum)) == fields["bad_primes"]
            and p not in bad_primes(datum)
            and fields["x_mod_root_lattice"] == x_q
            and fields["y_mod_coroot_lattice"] == y_q
            and p_torsion_free(x_q, p)
            and p_torsion_free(y_q, p)
        )

    if cert.kind == CENTER_TORSION:
        x_q = x_mod_root_lattice(datum)
        return fields["x_mod_root_lattice"] == x_q and not p_torsion_free(x_q, p)

    if cert.kind == BAD_PRIME_SUBSYSTEM:
        component = fields["component"]
        node = fields["node"]
        coefficient = fields["crossed_coefficient"]
        comps = components(datum)
        if not 0 <= component < len(comps):
            return False
        coeffs = highest_roots(datum)[component].coefficients
        if not 0 <= node < len(coeffs) or coeffs[node] != coefficient or coefficient % p:
            return False
        subset = cross_out_node(datum, component, node)
        if list(subset.sorted_indices) != fields["subsystem"]:
            return False
        quotient = root_lattice_quotient(datum, subset.sorted_indices)
        if fields["root_lattice_quotient"] != quotient:
            return False
        # the p-torsion must be cyclic of order the p-part of the coefficient
        return quotient.p_part(p) == FinAbGroup((coefficient,), 0).p_part(p)

    # COXETER_TORSION
    side_datum = datum if fields["side"] == "primary" else dual(datum)
    matrix = fields["weyl_matrix"]
    if (matrix.rows, matrix.cols) != (side_datum.rank, side_datum.rank):
        return False
    w = WeylElement(matrix)
    if not w.in_weyl_group(side_datum):
        return False
    group = w.coinvariants()
    return fields["character_quotient"] == group and not p_torsion_free(group, p)
