"""Byte-level pin of the demo scripts' output.

``tests/golden/demo_digests.json`` holds, for each ``demos/*.py``, the
SHA-256 digest of its stdout when run as ``python demos/<name>.py`` with
``src`` on the path.  The demos print verdicts, certificates, quotients and
node orders through the public API, so a refactor that keeps the output
keeps these digests.  The output does not depend on ``PYTHONHASHSEED``.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_demo_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demo_digests.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _digest(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, check=True,
    ).stdout
    return hashlib.sha256(out).hexdigest()


def demo_digests() -> dict:
    return {name: _digest(name) for name in DEMOS}


def test_demo_output_matches_committed_digests():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == DEMOS
    for name in DEMOS:
        assert _digest(name) == golden[name], f"stdout of demos/{name} changed"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(demo_digests(), indent=1) + "\n")
