"""The scripts in scripts/ print byte-identical output, pinned by sha256.

Each runs in a fresh interpreter with development mode on and every
warning an error, so a new warning in a library path fails here too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "args, digest",
    [
        (["run_scenarios.py"], "db79622e73a5842ed3b946025f70165d9888eab960fca66956159726afdcaf74"),
        (["marker_demo.py"], "3a1a21423a9318d4736d5161aff5bbee37a988914d66c203131e4f3f382cf352"),
        # 300 truncation-oracle cross-checks take about 1.5 s, so a hang in the oracle fails fast
        (["diagram_survey.py", "--crosscheck", "300"], "594ca1cec24728af58156f6ea964de8518c4b8f643a928c9a5dfd3b74b6871ca"),
    ],
)
def test_script_output_is_pinned(args, digest):
    env = {**os.environ, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
    script, *flags = args
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *flags], env=env, capture_output=True, timeout=30
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == digest
