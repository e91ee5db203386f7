import json
import time

import pytest

from rootprimes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_preset_ok(capsys):
    code, out, _ = run(capsys, "validate", "SC(A1)")
    assert code == 0
    assert out.strip() == "ok"


def test_validate_bad_datum_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 1, "roots": [[1]], "coroots": [[1]]}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "index 0" in out


def test_validate_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in err


def test_validate_non_integer_entries_exit_2(capsys, tmp_path):
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"rank": 1, "roots": [[1.7], [-2]], "coroots": [[True], [-1]]}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "expected an integer" in err


def test_unknown_datum_exit_2(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.json")
    assert code == 2


def test_primes_gl2(capsys):
    code, out, _ = run(capsys, "primes", "GL(2)")
    assert code == 0
    rows = json.loads(out)
    by_p = {r["p"]: r for r in rows}
    assert by_p[2]["pretty_good"] is True
    assert set(rows[0]) == {
        "p", "bad", "good", "very_good", "pretty_good", "center_smooth", "dual_center_smooth",
    }


def test_primes_sl2_and_torus(capsys):
    code, out, _ = run(capsys, "primes", "SC(A1)")
    rows = json.loads(out)
    assert {r["p"]: r["pretty_good"] for r in rows}[2] is False
    code, out, _ = run(capsys, "primes", "Torus(4)", "--max-prime", "10")
    rows = json.loads(out)
    assert rows and all(r["pretty_good"] for r in rows)


def test_primes_text_mode_has_verdict(capsys):
    code, out, _ = run(capsys, "primes", "SC(A1)", "--text")
    lines = [l for l in out.splitlines() if l.strip()]
    assert any(l.endswith("non-smooth centralizer exists") for l in lines)
    assert all(l.endswith("smooth") or l.endswith("exists") for l in lines)


def test_primes_deterministic_output(capsys):
    _, first, _ = run(capsys, "primes", "Sum(SC(A2), GL(2))", "--max-prime", "13")
    _, second, _ = run(capsys, "primes", "Sum(SC(A2), GL(2))", "--max-prime", "13")
    assert first == second


def test_certificate_round_trip(capsys):
    from rootprimes.certificates import Certificate, verify_certificate

    code, out, _ = run(capsys, "certificate", "SC(G2)", "2")
    assert code == 1  # torsion witness: mathematical negative
    cert = Certificate.from_json(out)
    assert cert.kind == "bad-prime-subsystem"
    assert verify_certificate(cert)

    code, out, _ = run(capsys, "certificate", "GL(2)", "2")
    assert code == 0
    assert Certificate.from_json(out).kind == "pretty-good-proof"


def test_certificate_rejects_non_prime(capsys):
    code, _, err = run(capsys, "certificate", "SC(A1)", "6")
    assert code == 2


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "GL(5)", "2")
    assert code == 0
    assert json.loads(out)["essentially_standard"] is True
    code, out, _ = run(capsys, "classify", "SC(A1)", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not essentially standard"
    assert payload["centralizers"] == "non-smooth centralizer exists"
    code, out, _ = run(capsys, "classify", "SC(A1)", "0")
    assert code == 0 and json.loads(out)["essentially_standard"] is True


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "GL(3)", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_blocks"] == [2] and payload["witness_ok"] is True
    code, _, err = run(capsys, "decompose", "SC(G2)", "2")
    assert code == 1
    assert "bad" in err


def test_dual_and_sum(capsys):
    code, out, _ = run(capsys, "dual", "SC(A1)")
    assert code == 0
    payload = json.loads(out)
    assert sorted(map(tuple, payload["roots"])) == [(-1,), (1,)]
    code, out, _ = run(capsys, "sum", "SC(A1)", "Torus(1)")
    payload = json.loads(out)
    assert payload["rank"] == 2


def test_a_rootless_datum_of_huge_rank_runs_every_command(capsys, tmp_path):
    from rootprimes.certificates import Certificate, verify_certificate

    rank = 10**19
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"rank": rank, "roots": [], "coroots": []}))
    _, torus1, _ = run(capsys, "primes", "Torus(1)")
    for datum in (f"Torus({rank})", str(path)):
        assert run(capsys, "validate", datum)[:2] == (0, "ok\n")
        code, out, _ = run(capsys, "primes", datum)
        assert code == 0 and out == torus1
        assert run(capsys, "classify", datum, "5")[0] == 0
        code, out, _ = run(capsys, "decompose", datum, "5")
        assert code == 0 and json.loads(out)["torus_rank"] == rank
        code, out, _ = run(capsys, "certificate", datum, "2")
        cert = Certificate.from_json(out)
        assert code == 0 and cert.kind == "pretty-good-proof" and verify_certificate(cert)
        assert cert.payload["x_mod_root_lattice"]["free_rank"] == rank


def test_snf_inline_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "snf", "[[2,4],[6,8]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["divisors"] == [2, 4]
    path = tmp_path / "m.json"
    path.write_text("[[1,0],[0,1]]")
    code, out, _ = run(capsys, "snf", str(path))
    assert json.loads(out)["divisors"] == [1, 1]
    code, _, err = run(capsys, "snf", "not a matrix")
    assert code == 2


def test_snf_non_integer_entries_exit_2(capsys):
    code, out, err = run(capsys, "snf", "[[1.7, true], [0, 2.9]]")
    assert code == 2
    assert out == ""
    assert "expected an integer" in err


def test_certificate_at_a_large_prime_finishes(capsys):
    from rootprimes.certificates import Certificate, verify_certificate

    start = time.perf_counter()
    code, out, _ = run(capsys, "certificate", "SC(A1)", str(2**61 - 1))
    assert time.perf_counter() - start < 10
    assert code == 0
    cert = Certificate.from_json(out)
    assert cert.kind == "pretty-good-proof" and verify_certificate(cert)


def test_prime_above_miller_rabin_limit_exit_2(capsys):
    p = "5000000000000000000000003"  # 25 digits, no prime factor <= 41
    for argv in (["certificate", "SC(A1)", p], ["classify", "SC(A1)", p], ["decompose", "SC(A1)", p]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "too large" in err


def test_deeply_nested_preset_exit_2(capsys):
    name = "Sum(" * 600 + "SC(A1)" + ")" * 600
    code, out, err = run(capsys, "validate", name)
    assert code == 2
    assert out == "" and "recursion depth" in err and "Traceback" not in err


def test_deeply_nested_json_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"rank": ' + "[" * 10000 + "]" * 10000 + "}")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == "" and "recursion depth" in err and "Traceback" not in err
    path.write_text("[" * 10000 + "]" * 10000)
    code, out, err = run(capsys, "snf", str(path))
    assert code == 2
    assert out == "" and "recursion depth" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra", [("validate", ()), ("primes", ()), ("certificate", ("3",)), ("classify", ("3",)), ("snf", ())]
)
def test_directory_path_exit_2(capsys, tmp_path, command, extra):
    code, out, err = run(capsys, command, str(tmp_path), *extra)
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_primes_sweep_above_the_cap_exit_2(capsys):
    from rootprimes.cli import MAX_SWEEP_PRIME

    code, out, err = run(capsys, "primes", "SC(A1)", "--max-prime", str(MAX_SWEEP_PRIME + 1))
    assert code == 2
    assert out == "" and "exceeds the limit" in err


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_selftest_negative_control(capsys, monkeypatch):
    # a faulty build must drive the suite (and hence the command) nonzero
    import rootprimes.selftest as st

    def broken(limit):
        raise AssertionError("injected fault")

    monkeypatch.setattr(st, "CRITERIA", (("1", "injected", broken),))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "[FAIL]" in out and "injected fault" in out


def test_selftest_pass_lines(capsys, monkeypatch):
    import rootprimes.selftest as st

    quick = tuple(c for c in st.CRITERIA if c[0] in ("1", "8"))
    monkeypatch.setattr(st, "CRITERIA", quick)
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2 and all(l.startswith("[PASS] criterion") for l in lines)
