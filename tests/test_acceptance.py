"""Acceptance suite: one test per criterion, run at the full subset limit.

Each criterion is exact (integer equality, no tolerances) and prints its own
pass line; run with ``pytest tests/test_acceptance.py -v`` to see one line
per criterion, or ``rootprimes selftest --deep`` for the same checks from
the command line.
"""

import time

import pytest

from rootprimes.selftest import CRITERIA, DEEP_LIMIT, DEEP_PRESET_CANDIDATES, SMALL_PRESET_CANDIDATES

FULL_LIMIT = 18

# stated runtime budgets, seconds
BUDGETS = {"1": 1, "2": 60, "3": 60, "4": 60, "5": 30, "6": 120, "7": 60, "8": 10, "9": 10, "10": 120}


@pytest.mark.parametrize("ident,name,fn", CRITERIA, ids=[f"criterion_{c[0]}" for c in CRITERIA])
def test_acceptance_criterion(ident, name, fn):
    start = time.perf_counter()
    detail = fn(FULL_LIMIT)
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {ident}: {name} ({elapsed:.1f}s) - {detail}")
    assert elapsed < BUDGETS[ident], f"criterion {ident} exceeded its {BUDGETS[ident]}s budget"


def test_deep_run_checks_the_rank_4_data():
    # at the deep limit, criteria 2-4 check every small preset and every
    # rank-4 preset with its dual, at four primes each
    pairs = (len(SMALL_PRESET_CANDIDATES) + 2 * len(DEEP_PRESET_CANDIDATES)) * 4
    for ident, _, fn in CRITERIA[1:4]:
        assert fn(DEEP_LIMIT).startswith(f"{pairs} (datum, p) pairs"), ident
