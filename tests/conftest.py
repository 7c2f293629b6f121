import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))   # tools/golden.py, the golden CLI corpus

# `pytest --hypothesis-profile=ci tests/test_cli_fuzz.py tests/test_oracles.py`
# runs more examples than the default profile; derandomize makes a failure
# reproduce from the same command.  A test that fixes its own max_examples
# keeps it; the oracle draws take a quarter of the profile's.
settings.register_profile("ci", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture
def python_c(tmp_path):
    """Run `python [flags] -c script args` in tmp_path, with src and this
    interpreter's sys.path on PYTHONPATH (so that -S still finds numpy);
    assert that it exits 0 and return its stdout."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, sys.path)])

    def run(script, *args, flags=()):
        res = subprocess.run([sys.executable, *flags, "-c", script, *args],
                             cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        return res.stdout

    return run
