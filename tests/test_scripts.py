"""Pinned outputs of the example scripts.

Each script runs in a fresh interpreter with the package on its path;
its exit code and the sha256 of its stdout are pinned, so a change to
any answer or ordering the scripts print shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isotypic

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

PINNED = {
    "operator_identities.py": "60d605be409c801bc73eec5d3b372108f39370b8272c18c450ba03caaa3ae00e",
    "tensor_tables.py": "d84e6357f5b3eb3231e76e6a3d9162f586b46be1e40dbe317ed0e04b3511afd4",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_script_output_matches_pinned_digest(name):
    env = dict(os.environ, PYTHONPATH=str(Path(isotypic.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED[name]
