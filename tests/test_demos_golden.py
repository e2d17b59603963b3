"""Golden demo outputs: the stdout bytes of every ``demos/*.py`` script.

Each demo runs in its own interpreter with ``-W error``, as a reader would
run it, and must exit 0 and print exactly the recorded text, with the
checkout's own path written as ``<repo>`` (one demo prints the paths of the
problem files it passes to the CLI).  The demos print relations, verdicts
and section images, so an output change anywhere in the library shows up
here as a byte difference.  To record them again after an intended output
change, run ``PYTHONPATH=src python tests/test_demos_golden.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOTS = Path(__file__).resolve().parent / "golden" / "demos.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run(name: str) -> tuple[subprocess.CompletedProcess, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        capture_output=True, env=env, check=False,
    )
    return result, result.stdout.decode().replace(str(ROOT), "<repo>")


def test_demo_list_matches_snapshots():
    assert sorted(json.loads(SNAPSHOTS.read_text())) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_snapshot(name):
    expected = json.loads(SNAPSHOTS.read_text())[name]
    result, stdout = run(name)
    assert result.returncode == 0, result.stderr.decode()
    assert stdout == expected


if __name__ == "__main__":
    records = {}
    for name in DEMOS:
        result, stdout = run(name)
        result.check_returncode()
        records[name] = stdout
    SNAPSHOTS.parent.mkdir(exist_ok=True)
    SNAPSHOTS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
