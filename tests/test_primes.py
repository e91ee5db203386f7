import math
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootprimes.errors import TooLargeError
from rootprimes.intlin import IntMatrix, join_row, row_basis, snf_divisors
from rootprimes.oracles import (
    _full_sweep_exponent,
    _subset_lattices,
    good_via_torsion,
    pretty_good_bruteforce,
    pretty_good_full_sweep,
    very_good_via_torsion,
)
from rootprimes.primes import (
    bad_primes,
    center_smooth,
    dual_center_smooth,
    failing_prime_bound,
    good,
    pretty_good,
    report,
    very_good,
)
from rootprimes.rootdatum import (
    direct_sum,
    dual,
    is_semisimple,
    positive_roots,
    preset,
    root_coefficients,
    simple_system,
)
from rootprimes.sampling import random_int_matrix
from rootprimes.selftest import SMALL_PRESET_CANDIDATES


def test_bad_primes_examples():
    assert bad_primes(preset("SC(A5)")) == frozenset()
    assert bad_primes(preset("GL(4)")) == frozenset()
    assert bad_primes(preset("SC(G2)")) == frozenset({2, 3})
    assert bad_primes(preset("SC(E8)")) == frozenset({2, 3, 5})
    assert bad_primes(preset("SC(F4)")) == frozenset({2, 3})
    assert bad_primes(preset("AD(B4)")) == frozenset({2})
    assert bad_primes(preset("Torus(2)")) == frozenset()


def test_good_via_torsion_examples():
    sl2 = preset("SC(A1)")
    for p in (2, 3, 5, 7):
        assert good_via_torsion(sl2, p)
    assert not good_via_torsion(preset("SC(G2)"), 3)
    assert good_via_torsion(preset("Torus(3)"), 5)


def test_good_via_torsion_too_large():
    with pytest.raises(TooLargeError):
        good_via_torsion(preset("SC(E6)"), 2, exhaustive_limit=18)


def test_very_good_examples():
    assert not very_good(preset("GL(2)"), 2)
    assert very_good(preset("SC(G2)"), 5)
    assert very_good(preset("SC(A2)"), 2)
    assert not very_good(preset("SC(A2)"), 3)


def test_pretty_good_examples():
    assert pretty_good(preset("GL(2)"), 2)
    assert not pretty_good(preset("SC(A1)"), 2)
    assert pretty_good(preset("SC(A1)"), 3)


def test_pretty_good_bruteforce_examples():
    assert pretty_good_bruteforce(preset("GL(2)"), 2)
    assert not pretty_good_bruteforce(preset("AD(A1)"), 2)
    assert not pretty_good_bruteforce(preset("Sum(SC(A1), GL(2))"), 2)


def test_full_sweep_validates_closure_reduction():
    # every preset with at most 8 roots: the literal subset sweep agrees with
    # the closure-class reduction and with the fast criterion
    names = ["SC(A1)", "AD(A1)", "GL(2)", "SC(A2)", "AD(A2)", "GL(3)",
             "SC(B2)", "AD(C2)", "Sum(SC(A1), SC(A1))", "Sum(SC(A1), Torus(2))", "Torus(1)"]
    for name in names:
        datum = preset(name)
        if datum.num_roots > 8:
            continue
        for p in (2, 3, 5):
            sweep = pretty_good_full_sweep(datum, p, exhaustive_limit=8)
            assert sweep == pretty_good_bruteforce(datum, p)
            assert sweep == pretty_good(datum, p)


def test_center_smoothness():
    assert not center_smooth(preset("SC(A1)"), 2)
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            assert center_smooth(preset(f"GL({n})"), p)
    for name in ("AD(A3)", "AD(E6)", "AD(B3)"):
        for p in (2, 3, 5):
            assert center_smooth(preset(name), p)
    assert not dual_center_smooth(preset("AD(A1)"), 2)


def test_failing_prime_bound():
    assert failing_prime_bound(preset("Torus(4)")).bound == 1
    assert failing_prime_bound(preset("SC(A1)")).bound == 2
    assert failing_prime_bound(preset("SC(E8)")).bound == 6


def test_failing_prime_bound_soundness():
    from rootprimes.intlin import primes_upto

    for name in ("SC(A5)", "AD(B3)", "GL(4)", "SC(E8)", "Sum(SC(A3), SC(G2))"):
        datum = preset(name)
        bound = failing_prime_bound(datum).bound
        for p in primes_upto(bound + 30):
            if p > bound:
                assert pretty_good(datum, p), f"{name}: {p} beyond the bound must be pretty good"


def test_report_examples():
    r = report(preset("GL(2)"), 2)
    assert r.to_dict() == {
        "p": 2, "bad": False, "good": True, "very_good": False,
        "pretty_good": True, "center_smooth": True, "dual_center_smooth": True,
    }
    r = report(preset("SC(A1)"), 2)
    assert not r.pretty_good and not r.center_smooth
    r = report(preset("SC(G2)"), 7)
    assert r.good and r.very_good and r.pretty_good


def test_report_rejects_non_prime():
    with pytest.raises(ValueError):
        report(preset("SC(A1)"), 6)


def test_semisimple_collapse():
    for name in ("SC(A3)", "AD(A3)", "SC(B3)", "SC(D4)", "AD(E6)"):
        datum = preset(name)
        assert is_semisimple(datum)
        for p in (2, 3, 5, 7):
            assert pretty_good(datum, p) == very_good(datum, p)


def test_direct_sum_law():
    pairs = [("SC(A1)", "GL(2)"), ("AD(A2)", "SC(C2)"), ("Torus(2)", "SC(G2)")]
    for a_name, b_name in pairs:
        a, b = preset(a_name), preset(b_name)
        s = direct_sum(a, b)
        for p in (2, 3, 5, 7, 11):
            assert pretty_good(s, p) == (pretty_good(a, p) and pretty_good(b, p))


def test_self_duality():
    for name in ("SC(A1)", "GL(3)", "SC(B3)", "AD(C3)", "SC(G2)"):
        datum = preset(name)
        for p in (2, 3, 5, 7):
            assert pretty_good(datum, p) == pretty_good(dual(datum), p)


def test_very_good_torsion_route():
    for name in ("SC(A2)", "GL(2)", "SC(B2)"):
        datum = preset(name)
        for p in (2, 3, 5):
            assert very_good(datum, p) == very_good_via_torsion(datum, p)


def test_good_equals_not_bad():
    for name in ("SC(G2)", "GL(2)", "AD(F4)"):
        datum = preset(name)
        for p in (2, 3, 5, 7):
            assert good(datum, p) == (p not in bad_primes(datum))


def _literal_subset_sweep(datum, p, quotient_of_subset):
    """Quantify over every subset of the roots, no class reduction."""
    from rootprimes.intlin import p_torsion_free

    n = datum.num_roots
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        if not p_torsion_free(quotient_of_subset(datum, subset), p):
            return False
    return True


def test_good_oracle_matches_literal_sweep():
    from rootprimes.intlin import IntMatrix, RowLattice, quotient_group
    from rootprimes.rootdatum import simple_system

    def root_lattice(datum):
        """Z.roots inside X, as the row lattice of the base."""
        return RowLattice(IntMatrix.from_rows([datum.roots[i] for i in simple_system(datum)], cols=datum.rank))

    def root_quotient(datum, subset):
        anchor = root_lattice(datum)
        coords = [anchor.coords(datum.roots[i]) for i in subset]
        return quotient_group(anchor.rank, IntMatrix.from_rows(coords, cols=anchor.rank))

    for name in ("SC(A1)", "AD(A2)", "SC(B2)", "GL(3)", "Sum(SC(A1), SC(A1))"):
        datum = preset(name)
        if datum.num_roots > 8:
            continue
        for p in (2, 3):
            assert good_via_torsion(datum, p) == _literal_subset_sweep(datum, p, root_quotient)


def test_very_good_oracle_matches_literal_sweep():
    from rootprimes.rootdatum import weight_lattice_quotients

    for name in ("SC(A1)", "AD(A2)", "SC(B2)", "GL(2)", "Sum(SC(A1), Torus(1))"):
        datum = preset(name)
        for p in (2, 3):
            literal = _literal_subset_sweep(datum, p, weight_lattice_quotients)
            assert very_good_via_torsion(datum, p) == literal


def test_very_good_via_fundamental_group_order():
    # independent classical route: very good iff good and p does not divide
    # the order of the fundamental group of the root system
    from rootprimes.rootdatum import weight_lattice_quotients

    for name in ("SC(A3)", "AD(A5)", "GL(4)", "SC(B3)", "AD(D4)", "SC(E6)", "SC(G2)",
                 "Sum(SC(A1), SC(A2))"):
        datum = preset(name)
        fundamental = weight_lattice_quotients(datum, range(datum.num_roots))
        order = fundamental.order()
        assert order is not None
        for p in (2, 3, 5, 7):
            expected = good(datum, p) and order % p != 0
            assert very_good(datum, p) == expected, f"{name} at p={p}"


# ---------------------------------------------------------------------------
# Torsion exponents: one sweep per datum, every prime read off it
# ---------------------------------------------------------------------------

ORACLES = (good_via_torsion, very_good_via_torsion, pretty_good_bruteforce, pretty_good_full_sweep)


def _full_sweep_reference(datum, p):
    """The per-prime literal sweep: every subset, roots then coroots, stopping at the first p-torsion."""
    from rootprimes.intlin import IntMatrix, p_torsion_free, quotient_group

    n = datum.num_roots
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        roots = IntMatrix.from_rows([datum.roots[i] for i in idx], cols=datum.rank)
        coroots = IntMatrix.from_rows([datum.coroots[i] for i in idx], cols=datum.rank)
        if not p_torsion_free(quotient_group(datum.rank, roots), p):
            return False
        if not p_torsion_free(quotient_group(datum.rank, coroots), p):
            return False
    return True


def _rebased(datum, rng):
    from rootprimes.rootdatum import RootDatum
    from rootprimes.sampling import random_unimodular

    t, tinv = random_unimodular(rng, datum.rank)
    tinv_t = tinv.transpose()
    return RootDatum(
        datum.rank,
        tuple(t.apply(r) for r in datum.roots),
        tuple(tinv_t.apply(c) for c in datum.coroots),
    )


def test_full_sweep_matches_the_per_prime_reference(monkeypatch):
    # a rebasing's quotients are the preset's in new coordinates, so the
    # reference runs once per preset; each order starts from an empty cache
    # on its own rebasings, so the first call on a datum comes at p = 2 in one
    # order and at p = 7 in the other
    from rootprimes import oracles
    from rootprimes.selftest import RANK8_PRESETS, SMALL_PRESET_CANDIDATES

    names = sorted({n for n in RANK8_PRESETS + SMALL_PRESET_CANDIDATES if preset(n).num_roots <= 12})
    reference = {name: {p: _full_sweep_reference(preset(name), p) for p in (2, 3, 5, 7)} for name in names}
    rng = random.Random(8080)
    first_verdicts = set()
    for order in ((2, 3, 5, 7), (7, 5, 3, 2)):
        monkeypatch.setattr(oracles, "_EXPONENTS", {})
        for name in names:
            datum = _rebased(preset(name), rng)
            for p in order:
                assert pretty_good_full_sweep(datum, p) == reference[name][p], f"{name} at p={p}, order {order}"
            first_verdicts.add((order[0], reference[name][order[0]]))
    assert {(2, False), (7, True)} <= first_verdicts


def test_later_primes_take_no_smith_form(monkeypatch):
    # the first class oracle on a datum runs the class pass on the datum and
    # its dual, so every later class-oracle call on either, whichever oracle
    # and prime, runs no Smith form; the full sweep caches the datum alone
    from rootprimes import intlin, oracles

    calls = [0]
    smith = intlin._smith

    def counting(*args, **kwargs):
        calls[0] += 1
        return smith(*args, **kwargs)

    monkeypatch.setattr(intlin, "_smith", counting)
    for name in ("SC(A3)", "SC(G2)"):
        datum = preset(name)
        cases = [(oracle, ORACLES[:3], (datum, dual(datum))) for oracle in ORACLES[:3]]
        for first, group, data in cases + [(ORACLES[3], ORACLES[3:], (datum,))]:
            monkeypatch.setattr(oracles, "_EXPONENTS", {})
            before = calls[0]
            first(datum, 2)
            assert calls[0] > before, f"{first.__name__} on {name} at its first call"
            before = calls[0]
            for oracle in group:
                for p in (2, 3, 5, 7):
                    for d in data:
                        oracle(d, p)
            assert calls[0] == before, f"a later call on {name} or its dual after {first.__name__}"


def test_checks_run_before_the_cached_exponent(monkeypatch):
    from rootprimes import oracles
    from rootprimes.rootdatum import RootDatum

    monkeypatch.setattr(oracles, "_EXPONENTS", {})
    datum = preset("SC(A3)")
    for oracle in ORACLES:
        oracle(datum, 2)
    kinds = ("good", "very good", "pretty good", "full sweep")
    class_keys = {(kind, d) for kind in kinds[:3] for d in (datum, dual(datum))}
    assert set(oracles._EXPONENTS) == class_keys | {("full sweep", datum)}
    for oracle in ORACLES:
        with pytest.raises(TooLargeError):
            oracle(datum, 3, exhaustive_limit=11)
        for p in (1, 4):
            with pytest.raises(ValueError, match="not prime"):
                oracle(datum, p)
    # an invalid datum with an exponent planted for every oracle still fails validation
    bad = RootDatum(datum.rank, datum.roots, (tuple(-x for x in datum.coroots[0]),) + datum.coroots[1:])
    for kind in kinds:
        oracles._EXPONENTS[(kind, bad)] = 1
    for oracle in ORACLES:
        with pytest.raises(ValueError, match="invalid root datum"):
            oracle(bad, 3)


@pytest.mark.parametrize("limit", ["18", None, 18.5, True])
def test_the_exhaustive_limit_must_be_an_int(limit):
    datum = preset("SC(A2)")
    for oracle in ORACLES:
        with pytest.raises(ValueError, match="expected an integer"):
            oracle(datum, 2, exhaustive_limit=limit)


# the rank-<=8 presets with at most 12 roots on which no other test runs
# all four oracles
UNSAMPLED_ORACLE_PRESETS = (
    "SC(D2)", "AD(D2)", "SC(D3)", "AD(D3)", "GL(1)", "GL(4)",
    "Torus(0)", "Torus(1)", "Torus(3)", "Sum(AD(A3), Torus(1))",
)


@pytest.mark.parametrize("seed", range(3))
def test_the_oracles_match_the_fast_predicates_on_the_unsampled_presets(seed):
    rng = random.Random(seed)
    fast = (good, very_good, pretty_good, pretty_good)
    for name in UNSAMPLED_ORACLE_PRESETS:
        for datum in (preset(name), dual(preset(name))):
            rebased = _rebased(datum, rng)
            for oracle, predicate in zip(ORACLES, fast):
                for p in (2, 3, 5, 7):
                    assert oracle(rebased, p) == predicate(rebased, p), f"{oracle.__name__} on {name} at p={p}"


def test_the_class_oracles_match_the_fast_predicates_on_rank_5_and_f4():
    fast = (good, very_good, pretty_good)
    for name in ("SC(A5)", "AD(A5)", "SC(D5)", "AD(D5)", "SC(F4)", "AD(F4)"):
        for datum in (preset(name), dual(preset(name))):
            for oracle, predicate in zip(ORACLES, fast):
                for p in (2, 3, 5, 7):
                    verdict = oracle(datum, p, exhaustive_limit=48)
                    assert verdict == predicate(datum, p), f"{oracle.__name__} on {name} at p={p}"


# ---------------------------------------------------------------------------
# The class pass and the join chain against the from-scratch sweeps they
# replaced: a Hermite basis built from scratch for each of the
# 2^|positive roots| masks, and one Smith form per literal subset of the
# roots and of the coroots
# ---------------------------------------------------------------------------

FULL_SWEEP_ROOTS = 12


def _span(datum, indices):
    return row_basis(IntMatrix.from_rows([datum.roots[k] for k in indices], cols=datum.rank))


def _mask_classes(datum):
    """The Hermite basis of the span of every subset of the positive roots, each built from scratch."""
    pos = positive_roots(datum)
    return {_span(datum, [k for b, k in enumerate(pos) if mask >> b & 1]) for mask in range(1 << len(pos))}


@cache
def _subset_exponent(name):
    """lcm of the Smith divisors of every literal subset of the preset's roots and of its coroots."""
    datum = preset(name)
    divisors = set()
    for vectors in (datum.roots, datum.coroots):
        for mask in range(1 << datum.num_roots):
            rows = [v for i, v in enumerate(vectors) if mask >> i & 1]
            divisors.update(snf_divisors(IntMatrix.from_rows(rows, cols=datum.rank)))
    divisors.discard(0)
    return math.lcm(*divisors)


def _check_against_references(name, datum):
    """The class pass on ``datum``, a form of preset ``name``, against the masks; returns the class count."""
    coefficients = root_coefficients(datum)
    base = IntMatrix.from_rows([datum.roots[a] for a in simple_system(datum)], cols=datum.rank)
    found = _subset_lattices([coefficients[k] for k in positive_roots(datum)], base.rows)
    # the base is a Z-basis of Z.roots, so M -> M B maps the lattices of
    # coefficient rows one to one onto the root-spanned lattices of X
    classes = {row_basis(basis @ base) for basis in found}
    assert len(classes) == len(found) and classes == _mask_classes(datum), name
    if datum.num_roots <= FULL_SWEEP_ROOTS:
        # every root subset spans what a positive one does, so the join chain
        # numbers exactly the classes, each once
        lattices = _subset_lattices(datum.roots, datum.rank)
        assert len(lattices) == len(classes) and set(lattices) == set(classes), name
        assert _full_sweep_exponent(datum) == _subset_exponent(name), name
    return len(classes)


def test_class_pass_and_join_chain_match_the_references():
    counts = {}
    for name in SMALL_PRESET_CANDIDATES:
        for datum in (preset(name), dual(preset(name))):
            counts.setdefault(name, set()).add(_check_against_references(name, datum))
    # the classes are the root-spanned sublattices of the root lattice, so the
    # count depends on the root system alone, not on the isogeny or the side
    for names, count in ((("SC(A2)", "AD(A2)"), 5), (("SC(B3)", "AD(B3)", "SC(C3)", "AD(C3)"), 31)):
        for name in names:
            assert counts[name] == {count}, name


@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_class_pass_and_join_chain_match_the_references_after_rebasing(seed):
    rng = random.Random(seed)
    for name in SMALL_PRESET_CANDIDATES:
        for datum in (preset(name), dual(preset(name))):
            _check_against_references(name, _rebased(datum, rng))


def test_the_full_sweep_walks_each_state_once(monkeypatch):
    # a state is (lattice, next index); each takes one join, so a side of n
    # vectors makes at most #lattices * (n + 1) joins, not one per subset
    from rootprimes import intlin

    calls = [0]
    join = intlin._join

    def counting(rows, v):
        calls[0] += 1
        return join(rows, v)

    monkeypatch.setattr(intlin, "_join", counting)
    for name in ("SC(A3)", "SC(G2)"):
        datum = preset(name)
        assert datum.num_roots == 12
        for vectors in (datum.roots, datum.coroots):
            before = calls[0]
            lattices = _subset_lattices(vectors, datum.rank)
            joins = calls[0] - before
            assert 0 < joins <= len(lattices) * (len(vectors) + 1) < 2**12, name


def test_the_class_pass_walks_each_state_once(monkeypatch):
    # the class pass takes the full sweep's walk over the positive rows, so it
    # makes at most #lattices * (n + 1) joins, well under the #lattices * n
    # of a closure search that joins every row to every lattice found
    from rootprimes import intlin, oracles

    calls = [0]
    join = intlin._join

    def counting(rows, v):
        calls[0] += 1
        return join(rows, v)

    for name in ("SC(B3)", "SC(C3)", "SC(D4)"):
        datum = preset(name)
        coefficients = root_coefficients(datum)
        rows = [coefficients[k] for k in positive_roots(datum)]
        lattices = _subset_lattices(rows, len(simple_system(datum)))
        oracles._class_exponents(datum)  # derives the datum first, so only the pass is counted
        with monkeypatch.context() as patch:
            patch.setattr(intlin, "_join", counting)
            calls[0] = 0
            oracles._class_exponents(datum)
        closure = len(lattices) * len(rows)
        assert 0 < calls[0] <= len(lattices) * (len(rows) + 1), name
        assert 2 * calls[0] < closure, name


def test_join_is_the_row_basis_of_the_rows_so_far():
    rng = random.Random(1117)
    for trial in range(200):
        cols = rng.randint(1, 6)
        m = random_int_matrix(rng, rng.randint(1, 8), cols, -6, 6)
        rows = m.to_rows()
        # repeats, negations, multiples and zero rows exercise the unchanged-lattice path
        rows += [[-x for x in rows[0]], [3 * x for x in rows[-1]], [0] * cols]
        rng.shuffle(rows)
        basis = IntMatrix(0, cols, ())
        for k, row in enumerate(rows):
            joined = join_row(basis, row)
            assert joined == row_basis(IntMatrix.from_rows(rows[: k + 1], cols=cols)), f"trial {trial}, row {k}"
            if joined == basis:
                assert joined is basis
            basis = joined
    # with no columns the zero lattice is the only lattice
    empty = IntMatrix(0, 0, ())
    assert join_row(empty, ()) is empty
