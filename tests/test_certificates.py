import json
import random

import pytest

from rootprimes.certificates import (
    BAD_PRIME_SUBSYSTEM,
    CENTER_TORSION,
    COXETER_TORSION,
    PRETTY_GOOD_PROOF,
    Certificate,
    build_certificate,
    verify_certificate,
)
from rootprimes.intlin import primes_upto
from rootprimes.primes import report
from rootprimes.rootdatum import preset


def test_branch_selection():
    assert build_certificate(preset("SC(A1)"), 2).kind == CENTER_TORSION
    assert build_certificate(preset("SC(G2)"), 2).kind == BAD_PRIME_SUBSYSTEM
    assert build_certificate(preset("GL(3)"), 5).kind == PRETTY_GOOD_PROOF
    assert build_certificate(preset("AD(A1)"), 2).kind == COXETER_TORSION
    assert build_certificate(preset("Sum(AD(A2), SC(C2))"), 3).kind == COXETER_TORSION


def test_center_branch_payload():
    cert = build_certificate(preset("SC(A1)"), 2)
    assert cert.payload["x_mod_root_lattice"] == {"torsion": [2], "free_rank": 0}
    assert verify_certificate(cert)


def test_bad_prime_branch_payload():
    cert = build_certificate(preset("SC(G2)"), 2)
    assert cert.payload["crossed_coefficient"] == 2
    assert verify_certificate(cert)


def test_round_trip_all_kinds():
    cases = [("GL(2)", 3), ("SC(A1)", 2), ("SC(G2)", 3), ("AD(A3)", 2)]
    for name, p in cases:
        cert = build_certificate(preset(name), p)
        again = Certificate.from_json(cert.to_json())
        assert again == cert
        assert verify_certificate(again)


def test_tampered_certificates_fail():
    cert = build_certificate(preset("SC(A1)"), 2)
    wrong_prime = Certificate(cert.kind, cert.datum, 3, cert.payload)
    assert not verify_certificate(wrong_prime)

    cert = build_certificate(preset("GL(2)"), 2)
    tampered = dict(cert.payload)
    tampered["x_mod_root_lattice"] = {"torsion": [2], "free_rank": 0}
    assert not verify_certificate(Certificate(cert.kind, cert.datum, 2, tampered))

    cert = build_certificate(preset("SC(G2)"), 2)
    tampered = dict(cert.payload)
    tampered["subsystem"] = tampered["subsystem"][:-1]
    assert not verify_certificate(Certificate(cert.kind, cert.datum, 2, tampered))

    cert = build_certificate(preset("AD(A1)"), 2)
    tampered = dict(cert.payload)
    tampered["weyl_matrix"] = [[2]]  # not unimodular, does not permute the roots
    assert not verify_certificate(Certificate(cert.kind, cert.datum, 2, tampered))

    assert not verify_certificate(Certificate("no-such-kind", cert.datum, 2, {}))


def test_pretty_good_kind_tracks_report():
    for name in ("SC(A2)", "AD(B2)", "GL(4)", "Sum(SC(A1), Torus(1))"):
        datum = preset(name)
        for p in primes_upto(12):
            cert = build_certificate(datum, p)
            assert (cert.kind == PRETTY_GOOD_PROOF) == report(datum, p).pretty_good
            assert verify_certificate(cert)


def test_rejects_non_prime():
    with pytest.raises(ValueError):
        build_certificate(preset("SC(A1)"), 4)


# values of each JSON type other than the one a payload field holds
WRONG_TYPED = {
    int: ["3", 2.0, True, None, [2], {"value": 2}],
    str: [0, None, True, ["primary"], {"side": "primary"}],
    list: ["[0, 1]", 0, 1.5, None, True, {"0": 1}],
    dict: ['{"torsion": []}', 0, 1.5, None, False, [[], 0]],
}


def test_mutated_payloads_fail_for_all_kinds():
    rng = random.Random(7)
    names = ["SC(A1)", "AD(A1)", "GL(2)", "SC(G2)", "AD(A3)", "Sum(AD(A2), SC(C2))", "SC(B3)", "GL(4)"]
    pairs = [("SC(G2)", 2), ("AD(A1)", 2)] + [
        (rng.choice(names), rng.choice(primes_upto(7))) for _ in range(12)
    ]
    kinds = set()
    for name, p in pairs:
        cert = build_certificate(preset(name), p)
        kinds.add(cert.kind)
        assert verify_certificate(cert)
        for key, value in cert.payload.items():
            dropped = json.loads(cert.to_json())
            del dropped["payload"][key]
            assert not verify_certificate(Certificate.from_dict(dropped)), (name, p, key)
            for wrong in rng.sample(WRONG_TYPED[type(value)], 3):
                mutated = json.loads(cert.to_json())
                mutated["payload"][key] = wrong
                assert not verify_certificate(Certificate.from_dict(mutated)), (name, p, key, wrong)
    assert kinds == {PRETTY_GOOD_PROOF, CENTER_TORSION, BAD_PRIME_SUBSYSTEM, COXETER_TORSION}
