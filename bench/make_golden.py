"""Write bench/golden.json: the verdicts every benchmark op is checked against.

Computed in the preset basis, for every preset of both lists, both sides and
every prime <= 30.  It keeps only basis-free facts: the PrimeReport flags,
the certificate kind, and the certificate's invariant factors and bad primes
(never the Weyl matrix or subsystem indices), so the check holds in any
basis the scrambler draws.

    python3 bench/make_golden.py

Regenerate only when a verdict is meant to change; every op compares to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from inputs import GOLDEN_PATH, PRIMES, RANK8, REPORT_FLAGS, SIDES, SMALL  # noqa: E402
from rootprimes import (  # noqa: E402
    bad_primes,
    build_certificate,
    dual,
    preset,
    report,
    x_mod_root_lattice,
    y_mod_coroot_lattice,
)
from rootprimes.standardness import NOT_SMOOTH, NOT_STANDARD, SMOOTH, STANDARD  # noqa: E402

# Certificate payload fields that do not depend on the basis of X.
BASIS_FREE = (
    "bad_primes",
    "x_mod_root_lattice",
    "y_mod_coroot_lattice",
    "root_lattice_quotient",
    "character_quotient",
)


def flags(rep) -> str:
    return "".join(str(int(getattr(rep, f))) for f in REPORT_FLAGS)


def side_entry(datum) -> dict:
    primes = {}
    for p in PRIMES:
        cert = build_certificate(datum, p)
        primes[str(p)] = {
            "report": flags(report(datum, p)),
            "kind": cert.kind,
            "payload": {k: cert.payload[k] for k in BASIS_FREE if k in cert.payload},
        }
    return {
        "bad_primes": sorted(bad_primes(datum)),
        "x_mod_root_lattice": x_mod_root_lattice(datum).to_dict(),
        "y_mod_coroot_lattice": y_mod_coroot_lattice(datum).to_dict(),
        "primes": primes,
    }


def main() -> None:
    names = list(dict.fromkeys(RANK8 + SMALL))
    header = {
        "flags": REPORT_FLAGS,
        # verdict strings, indexed by the pretty-good flag
        "classify": [NOT_STANDARD, STANDARD],
        "smoothness_verdict": [NOT_SMOOTH, SMOOTH],
    }
    lines = [json.dumps(k) + ": " + json.dumps(v) for k, v in header.items()]
    presets = []
    for name in names:
        base = preset(name)
        entry = {side: side_entry(base if side == "primary" else dual(base)) for side in SIDES}
        presets.append(json.dumps(name) + ": " + json.dumps(entry, sort_keys=True))
    lines.append('"presets": {\n' + ",\n".join(presets) + "\n}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(names)} presets to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
