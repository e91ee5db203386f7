"""Benchmark inputs: the preset lists, the seeded basis scrambler and the golden verdicts.

The lists are the benchmark's own copy, so that edits to the library's test
support (``rootprimes.selftest``, ``rootprimes.sampling``) cannot change what
the benchmark measures.  This module imports nothing from ``rootprimes``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = {
    "cold-certify": (
        "primes, certificate and classify commands on data the process has never seen, "
        "so root-datum derivation dominates"
    ),
    "warm-sweep": (
        "prime sweep over data derived during set-up, so per-call cache lookups "
        "and hashing dominate"
    ),
    "oracle": (
        "brute-force subset oracles on small data, so thousands of small HNF and SNF "
        "calls dominate"
    ),
}

# The 84 presets of rank at most 8 swept by the cold and warm workloads.
RANK8 = tuple(
    [
        f"{iso}({series}{n})"
        for iso in ("SC", "AD")
        for series, lo, hi in (
            ("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 2, 8), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2),
        )
        for n in range(lo, hi + 1)
    ]
    + [f"GL({n})" for n in range(1, 9)]
    + ["Torus(0)", "Torus(1)", "Torus(3)"]
    + [
        "Sum(SC(A1), AD(A1))",
        "Sum(GL(2), SC(G2))",
        "Sum(SC(A2), SC(C2))",
        "Sum(AD(A3), Torus(1))",
        "Sum(SC(A1), SC(A1))",
    ]
)

# The 22 presets with at most 18 roots, small enough for the subset oracles.
SMALL = (
    "SC(A1)", "AD(A1)", "SC(A2)", "AD(A2)", "SC(A3)", "AD(A3)",
    "GL(2)", "GL(3)",
    "SC(B2)", "AD(B2)", "SC(C2)", "AD(C2)",
    "SC(B3)", "AD(B3)", "SC(C3)", "AD(C3)",
    "SC(G2)", "AD(G2)",
    "Sum(SC(A1), SC(A1))", "Sum(SC(A1), AD(A1))", "Sum(GL(2), Torus(1))",
    "Torus(2)",
)

SIDES = ("primary", "dual")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)  # every prime <= 30
ORACLE_PRIMES = (2, 3, 5, 7)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
REPORT_FLAGS = ("bad", "good", "very_good", "pretty_good", "center_smooth", "dual_center_smooth")


def scramble(datum: dict, rng: random.Random) -> dict:
    """The datum in a random basis of X: roots go to r T, coroots to c T^-T.

    T is a product of 2 * rank elementary matrices with multipliers +-1, so
    the pairing, and with it every verdict, is unchanged while the
    coordinates differ from the preset's.
    """
    n = datum["rank"]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    t_inv = [row[:] for row in t]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # T <- E T with E = 1 + c e_ij, and T^-1 <- T^-1 E^-1
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
        for row in t_inv:
            row[j] -= c * row[i]
    t_inv_t = [list(col) for col in zip(*t_inv)]

    def times(v, m):
        return [sum(v[k] * m[k][j] for k in range(n)) for j in range(n)]

    return {
        "rank": n,
        "roots": [times(r, t) for r in datum["roots"]],
        "coroots": [times(c, t_inv_t) for c in datum["coroots"]],
    }


def scrambled(names, preset_dict, seed: int, copy: int) -> list[tuple[str, str, dict]]:
    """(name, side, datum dict) for every name and side, in a basis drawn from (seed, copy).

    A dual entry holds the scrambled primary datum; the op applies ``dual``
    itself.  ``preset_dict(name)`` returns the preset datum as a dict.
    """
    rng = random.Random(f"{seed}/{copy}")
    return [(name, side, scramble(preset_dict(name), rng)) for name in names for side in SIDES]


def load_golden() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)
