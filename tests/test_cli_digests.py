"""Byte-level pin of the CLI output on the rank-<=8 presets.

For each preset in ``selftest.RANK8_PRESETS`` the file
``tests/golden/cli_digests.json`` holds the SHA-256 digest of the stdout of
``primes --json``, of ``certificate`` at every prime <= 29 and of
``classify --json`` at every prime <= 29 (the stdout of one command over all
its primes, in order).  Unlike ``bench/golden.json`` this pins the fields
that depend on the basis and on the node numbering: ``weyl_matrix``,
``node``, ``subsystem`` and the root order.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from rootprimes.cli import main
from rootprimes.intlin import primes_upto
from rootprimes.selftest import RANK8_PRESETS

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
PRIMES = primes_upto(29)
COMMANDS = {
    "primes --json": lambda name: [["primes", name, "--json"]],
    "certificate": lambda name: [["certificate", name, str(p)] for p in PRIMES],
    "classify --json": lambda name: [["classify", name, str(p), "--json"] for p in PRIMES],
}


def _digest(argvs) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def cli_digests(names=RANK8_PRESETS) -> dict:
    return {name: {cmd: _digest(argvs(name)) for cmd, argvs in COMMANDS.items()} for name in names}


def test_cli_output_matches_committed_digests():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == list(RANK8_PRESETS)
    for name in RANK8_PRESETS:
        for cmd, argvs in COMMANDS.items():
            assert _digest(argvs(name)) == golden[name][cmd], f"stdout of {cmd!r} on {name} changed"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cli_digests(), indent=1) + "\n")
