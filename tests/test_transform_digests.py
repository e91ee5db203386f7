"""Byte-level pin of the Smith and Hermite transforms.

The determinants of U and V say nothing about which unimodular transforms
come back, yet ``rootprimes snf`` prints them.  ``tests/golden/transform_digests.json``
holds, for two input sets, the SHA-256 digest of every ``smith_normal_form``
result (divisors, U, V) and of every ``hermite_normal_form`` result (H, U),
written as JSON in input order.  The inputs are criterion 9's 200 seeded
matrices (``selftest.snf_trial_matrices``) and ``test_intlin._hermite_inputs()``.
A change to the pivot rule or the transform reduction changes these bytes
on purpose; re-pin then.

Regenerate (only when a transform change is intended) with

    PYTHONPATH=src python tests/test_transform_digests.py
"""

import hashlib
import json
from pathlib import Path

from test_intlin import _hermite_inputs

from rootprimes.intlin import hermite_normal_form, smith_normal_form
from rootprimes.selftest import snf_trial_matrices

GOLDEN = Path(__file__).parent / "golden" / "transform_digests.json"
INPUTS = {"criterion 9": snf_trial_matrices, "hermite inputs": _hermite_inputs}


def _matrix(m):
    return [m.rows, m.cols, list(m.entries)]


def _smith(m):
    snf = smith_normal_form(m)
    return [list(snf.divisors), _matrix(snf.U), _matrix(snf.V)]


def _hermite(m):
    return [_matrix(x) for x in hermite_normal_form(m)]


FORMS = {"smith_normal_form": _smith, "hermite_normal_form": _hermite}


def _digest(form, matrices) -> str:
    text = json.dumps([form(m) for m in matrices], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def transform_digests() -> dict:
    return {
        inputs: {name: _digest(form, make()) for name, form in FORMS.items()} for inputs, make in INPUTS.items()
    }


def test_transforms_match_committed_digests():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == list(INPUTS)
    for inputs, make in INPUTS.items():
        matrices = make()
        for name, form in FORMS.items():
            assert _digest(form, matrices) == golden[inputs][name], f"{name} on the {inputs} changed"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(transform_digests(), indent=1) + "\n")
