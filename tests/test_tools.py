"""Smoke tests of the repository tools under ``tools/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_reads_a_tree_against_itself_with_no_differing_answer():
    """The paired A/B loads the working tree twice, times a short seeded
    fock_identities list on both sides and finds every answer equal."""
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "ab.py"), "--workload", "fock_identities",
            "--base", str(ROOT / "src" / "isotypic"), "--count", "40", "--passes", "2",
        ],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("fock_identities seed 1: 40 queries, 2 passes")
    assert lines[-1] == "differing answers: 0"
    assert {line.split()[0] for line in lines[3:-1]} >= {"all", "verify_sl2", "harmonic"}
