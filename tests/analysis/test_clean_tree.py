"""The shipped source tree is discipline-clean: the analyzer reports no
violations, and the CLI (the exact command CI runs) exits 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import analyze_paths

REPO = Path(__file__).parents[2]


def test_src_tree_is_clean():
    violations = analyze_paths([str(REPO / "src")])
    assert violations == [], "\n".join(
        f"{v.path}:{v.line}: {v.check} {v.message}" for v in violations
    )


def test_cli_exits_zero_on_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "src",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 violations" in result.stdout


def test_cli_exits_nonzero_on_fixtures():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "tests/analysis/fixtures",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    for check in ("LB01", "LB02", "LB03", "LO01", "LO02",
                  "GS01", "GS02", "SL01", "GC01"):
        assert check in result.stdout, f"{check} missing from CLI report"

