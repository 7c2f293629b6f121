import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qed51 import numerics
from qed51.errors import NumericError

SRC = Path(__file__).resolve().parents[1] / "src"


def test_scipy_is_imported_only_by_commands_that_integrate():
    script = """
import contextlib, io, sys
import qed51.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["lamb", "--budget"], ["moment"], ["hydrogen", "levels"], ["verify", "all"]):
        assert cli.main(argv) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["vacpol", "--q2", "-10"]) == 0
print("scipy.integrate" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True"]


def test_quad_returns_a_converged_value():
    assert abs(numerics.quad(math.sin, 0.0, math.pi, tol=1e-10, what="sine") - 2.0) < 1e-14


def test_quad_raises_when_the_error_estimate_misses_tol():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericError, match="oscillatory integral failed to converge"):
            numerics.quad(lambda x: math.sin(1.0 / x) / x, 1e-9, 1.0,
                          tol=1e-8, what="oscillatory integral", limit=5)


def test_gauss_returns_a_converged_value():
    assert abs(numerics.gauss(np.sin, 0.0, math.pi, tol=1e-10, what="sine") - 2.0) < 1e-14


def test_gauss_raises_when_half_the_nodes_disagree():
    with pytest.raises(NumericError, match="endpoint singularity failed to converge"):
        numerics.gauss(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-8,
                       what="endpoint singularity")


def test_root_finds_a_bracketed_zero():
    assert abs(numerics.root(math.cos, 0.0, 2.0, xtol=1e-13, what="cos") - math.pi / 2) < 1e-12


def test_root_without_sign_change_raises_numeric_error():
    with pytest.raises(NumericError) as exc:
        numerics.root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13, what="no sign change")
    assert not isinstance(exc.value, ValueError)


def test_ode_endpoint_raises_when_the_solver_fails():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericError, match="blow-up integration failed"):
            numerics.ode_endpoint(lambda t, y: y * y, (0.0, 2.0), [1.0],
                                  what="blow-up integration")


def test_ode_endpoint_failure_is_numeric_error_when_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="blow-up integration failed"):
            numerics.ode_endpoint(lambda t, y: y * y, (0.0, 2.0), [1.0],
                                  what="blow-up integration")


@pytest.mark.parametrize("t_span", [(0.0, 2.0), (2.0, 0.0)], ids=["forward", "backward"])
def test_ode_endpoint_integrates_in_either_direction(t_span):
    t0, t1 = t_span
    y1 = numerics.ode_endpoint(lambda t, y: -y, t_span, [1.0], what="decay",
                               rtol=1e-12, atol=1e-300)
    assert abs(y1[0] - math.exp(t0 - t1)) < 1e-10 * math.exp(t0 - t1)
