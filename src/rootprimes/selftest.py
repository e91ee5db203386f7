"""Property and acceptance suites.

Each criterion is a callable taking the brute-force subset limit (12 by
default, 18 in the acceptance tests, 32 for deep runs) and raising
AssertionError on failure; on success it returns a short summary.  The same
registry backs the ``selftest`` CLI command and the acceptance test module.

All randomized sweeps are seeded, so two runs check the same instances.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Callable

from . import certificates, oracles, primes, standardness, subsystems
from .intlin import FinAbGroup, IntMatrix, primes_upto, relative_divisors, smith_normal_form
from .primes import report
from .rootdatum import direct_sum, dual, is_semisimple, preset, root_lattice_quotient
from .sampling import random_int_matrix, random_type_a_datum

SMALL_PRESET_CANDIDATES = (
    "SC(A1)", "AD(A1)", "SC(A2)", "AD(A2)", "SC(A3)", "AD(A3)",
    "GL(2)", "GL(3)",
    "SC(B2)", "AD(B2)", "SC(C2)", "AD(C2)",
    "SC(B3)", "AD(B3)", "SC(C3)", "AD(C3)",
    "SC(G2)", "AD(G2)",
    "Sum(SC(A1), SC(A1))", "Sum(SC(A1), AD(A1))", "Sum(GL(2), Torus(1))",
    "Torus(2)",
)

# rank-4 presets that only a deep run's subset limit admits; criteria 2-4
# check each of them and its dual
DEEP_PRESET_CANDIDATES = ("SC(D4)", "AD(D4)", "SC(B4)", "AD(B4)", "SC(C4)", "AD(C4)")
DEEP_LIMIT = 32

RANK8_PRESETS = tuple(
    [f"{iso}({series}{n})" for iso in ("SC", "AD") for series, lo, hi in (
        ("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 2, 8), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2),
    ) for n in range(lo, hi + 1)]
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


def _small_sample(limit: int):
    small = [preset(name) for name in SMALL_PRESET_CANDIDATES]
    deep = [d for name in DEEP_PRESET_CANDIDATES for d in (preset(name), dual(preset(name)))]
    return [d for d in small + deep if d.num_roots <= limit]


def criterion_1_worked_facts(limit: int) -> str:
    """The GL2 / SL2 / PGL2 classification facts."""
    gl2, sl2, pgl2 = preset("GL(2)"), preset("SC(A1)"), preset("AD(A1)")
    assert primes.pretty_good(gl2, 2), "2 must be pretty good for GL2"
    assert not primes.very_good(gl2, 2), "2 must not be very good for GL2"
    for p in (2, 3, 5, 7):
        assert primes.good(sl2, p) and primes.good(pgl2, p), f"{p} must be good for SL2 and PGL2"
    assert not primes.pretty_good(sl2, 2), "2 must not be pretty good for SL2"
    assert not primes.pretty_good(pgl2, 2), "2 must not be pretty good for PGL2"
    assert primes.pretty_good(sl2, 3), "3 must be pretty good for SL2"
    return "GL2 / SL2 / PGL2 facts reproduced"


def _oracle_agreement(limit: int, fast, oracle, label: str) -> str:
    """The fast predicate == the brute-force oracle on every sample datum at p = 2, 3, 5, 7."""
    checks = 0
    for datum in _small_sample(limit):
        for p in (2, 3, 5, 7):
            assert fast(datum, p) == oracle(datum, p, exhaustive_limit=limit), (
                f"{label} mismatch at p={p} on a {datum.num_roots}-root datum"
            )
            checks += 1
    return f"{checks} (datum, p) pairs agree on both routes"


def criterion_2_good_equivalence(limit: int) -> str:
    """Classical bad-prime criterion == subset-torsion criterion."""
    return _oracle_agreement(limit, primes.good, oracles.good_via_torsion, "good")


def criterion_3_very_good_equivalence(limit: int) -> str:
    """Classical very-good criterion == weight-lattice subset-torsion criterion."""
    return _oracle_agreement(limit, primes.very_good, oracles.very_good_via_torsion, "very-good")


def criterion_4_pretty_good_equivalence(limit: int) -> str:
    """Fast pretty-good criterion == subset-quantified definition."""
    return _oracle_agreement(limit, primes.pretty_good, oracles.pretty_good_bruteforce, "pretty-good")


def criterion_5_implication_laws(limit: int) -> str:
    """Implication chain, semisimple collapse, direct sums, self-duality."""
    rng = random.Random(20260505)
    test_primes = (2, 3, 5, 7, 11)
    checks = 0
    for name in RANK8_PRESETS:
        datum = preset(name)
        for p in test_primes:
            rep = report(datum, p)  # the report constructor enforces the chain
            if is_semisimple(datum):
                assert rep.pretty_good == rep.very_good, f"semisimple collapse fails on {name}, p={p}"
            assert primes.pretty_good(dual(datum), p) == rep.pretty_good, (
                f"self-duality fails on {name}, p={p}"
            )
            checks += 1
    for _ in range(20):
        a = preset(rng.choice(SMALL_PRESET_CANDIDATES))
        b = preset(rng.choice(SMALL_PRESET_CANDIDATES))
        s = direct_sum(a, b)
        for p in test_primes:
            assert primes.pretty_good(s, p) == (primes.pretty_good(a, p) and primes.pretty_good(b, p))
            checks += 1
    return f"{checks} invariant checks passed"


def criterion_6_crossing_law(limit: int) -> str:
    """Crossed-node torsion: cyclic of order the p-part of the coefficient."""
    types = ("B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4", "E6", "E7", "E8")
    crossings = 0
    for iso in ("SC", "AD"):
        for t in types:
            datum = preset(f"{iso}({t})")
            for p in sorted(primes.bad_primes(datum)):
                for h in subsystems.highest_roots(datum):
                    for node, m in enumerate(h.coefficients):
                        if m % p:
                            continue
                        subset = subsystems.cross_out_node(datum, h.component, node)
                        quotient = root_lattice_quotient(datum, subset.sorted_indices)
                        (p_part,) = FinAbGroup((m,), 0).p_part(p)
                        assert quotient.p_part(p) == (p_part,), (
                            f"{iso}({t}) p={p} node={node}: expected cyclic p-part {p_part}, "
                            f"got {quotient.p_part(p)}"
                        )
                        crossings += 1
    return f"{crossings} crossings carry the predicted cyclic torsion"


def criterion_7_coxeter_identity(limit: int) -> str:
    """Closed form == composed reflections; divisor identity on both sides."""
    rng = random.Random(20260506)
    for trial in range(100):
        datum = random_type_a_datum(rng, max_rank=6)
        composed = subsystems.coxeter_element_type_a(datum)
        closed = subsystems.coxeter_closed_form_type_a(datum)
        assert composed.matrix == closed.matrix, f"trial {trial}: matrix forms differ"
        group, rel = subsystems.coxeter_fixed_torsion(datum)
        dual_side = relative_divisors(datum.coroot_matrix(), IntMatrix.identity(datum.rank))
        assert list(rel) == dual_side, (
            f"trial {trial}: divisors of (s-1)X in the root lattice {list(rel)} "
            f"!= divisors of the coroot lattice in Y {dual_side}"
        )
    return "100 random type-A data satisfy both identities"


def criterion_8_gluing_two_routes(limit: int) -> str:
    """Elementary-divisor route == mod-p-rank route on random gluing data."""
    rng = random.Random(20260507)
    for _ in range(200):
        n = rng.randint(1, 4)
        r = rng.randint(n, 6)
        matrix = random_int_matrix(rng, n, r, -9, 9)
        exponents = [rng.randint(1, 3) for _ in range(n)]
        p = rng.choice((2, 3, 5))
        standardness.check_gluing(matrix, exponents, p)  # raises if the routes disagree
    return "200 random instances agree on both routes"


def _determinantal_divisors_ok(m: IntMatrix, divisors) -> bool:
    """Independent oracle: gcds of k x k minors determine the divisor products."""
    nonzero = [d for d in divisors if d]
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows(
                    [[m.at(i, j) for j in cols] for i in rows], cols=k
                )
                g = math.gcd(g, sub.det())
        expected = math.prod(nonzero[:k]) if k <= len(nonzero) else 0
        if g != expected:
            return False
    return True


def snf_trial_matrices() -> list[IntMatrix]:
    """Criterion 9's 200 seeded matrices: 0 to 8 rows and columns, entries in [-20, 20]."""
    rng = random.Random(20260508)
    return [random_int_matrix(rng, rng.randint(0, 8), rng.randint(0, 8), -20, 20) for _ in range(200)]


def criterion_9_snf_soundness(limit: int) -> str:
    """Exact SNF reconstruction, unimodularity, chain, determinantal oracle."""
    for trial, m in enumerate(snf_trial_matrices()):
        rows, cols = m.rows, m.cols
        snf = smith_normal_form(m)
        diag = IntMatrix.diagonal(snf.divisors, rows, cols)
        assert snf.U @ m @ snf.V == diag, f"trial {trial}: U M V is not the divisor diagonal"
        assert abs(snf.U.det()) == 1 and abs(snf.V.det()) == 1, f"trial {trial}: transform not unimodular"
        for a, b in zip(snf.divisors, snf.divisors[1:]):
            assert b % a == 0 if a else b == 0, f"trial {trial}: divisibility chain broken"
        assert all(d >= 0 for d in snf.divisors)
        assert _determinantal_divisors_ok(m, snf.divisors), f"trial {trial}: determinantal oracle failed"
    return "200 random matrices pass all four checks"


def criterion_10_classifier_certificates(limit: int) -> str:
    """Classifier == pretty-good bit; certificates always exist and re-verify."""
    plist = primes_upto(30)
    built = 0
    for name in RANK8_PRESETS:
        datum = preset(name)
        for p in plist:
            rep = report(datum, p)
            assert standardness.is_essentially_standard(datum, p) == rep.pretty_good, (
                f"classifier disagrees with the report on {name}, p={p}"
            )
            cert = certificates.build_certificate(datum, p)  # ClassificationGap would raise
            again = certificates.Certificate.from_json(cert.to_json())
            assert certificates.verify_certificate(again), (
                f"certificate for {name}, p={p} failed to re-verify after a JSON round trip"
            )
            expected_kind = cert.kind == certificates.PRETTY_GOOD_PROOF
            assert expected_kind == rep.pretty_good
            built += 1
    return f"{built} certificates built, round-tripped, and re-verified"


CRITERIA: tuple[tuple[str, str, Callable[[int], str]], ...] = (
    ("1", "worked classification facts", criterion_1_worked_facts),
    ("2", "good == subset torsion (brute force)", criterion_2_good_equivalence),
    ("3", "very good == weight-lattice torsion (brute force)", criterion_3_very_good_equivalence),
    ("4", "pretty good fast path == definition (brute force)", criterion_4_pretty_good_equivalence),
    ("5", "implication chain, sums, self-duality", criterion_5_implication_laws),
    ("6", "crossed-node torsion law", criterion_6_crossing_law),
    ("7", "Coxeter closed form and divisor identity", criterion_7_coxeter_identity),
    ("8", "gluing surjectivity, two routes", criterion_8_gluing_two_routes),
    ("9", "Smith normal form soundness", criterion_9_snf_soundness),
    ("10", "classifier and certificate sweep", criterion_10_classifier_certificates),
)


def run_all(deep: bool = False, out=print) -> bool:
    """Run every criterion; print one pass/fail line each; True when all pass."""
    import time

    limit = DEEP_LIMIT if deep else 12
    all_ok = True
    for ident, name, fn in CRITERIA:
        start = time.perf_counter()
        try:
            detail = fn(limit)
            ok = True
        except AssertionError as exc:
            detail = str(exc)
            ok = False
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        out(f"[{status}] criterion {ident}: {name} ({elapsed:.1f}s) - {detail}")
        all_ok &= ok
    return all_ok
