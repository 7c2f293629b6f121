import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qed51 import numerics
from qed51.errors import NumericError

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """argv of every `qed51 ...` example line in the README, comments dropped."""
    return [shlex.split(line.partition("#")[0])[1:]
            for line in README.read_text().splitlines() if line.startswith("qed51 ")]


def test_readme_cli_examples_leave_scipy_unloaded(tmp_path):
    examples = readme_cli_examples()
    assert ["vacpol", "--grid=-8:4:25", "--format", "csv"] in examples
    assert ["verify", "all"] in examples
    script = """
import contextlib, io, json, sys
import qed51.cli as cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    assert code == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from qed51 import radiative
radiative.vacuum_polarization_quadrature(-10.0, 1 / 137.036)
print("scipy.integrate" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", script, json.dumps(examples)],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    # the quadrature oracle is the positive control: it does load scipy
    assert res.stdout.splitlines()[-2:] == ["[]", "True"]


SCALAR_COMMANDS = {"xsec", "annihilate", "o16", "lamb", "uehling", "moment",
                   "vacpol", "hydrogen", "wick"}


def test_scalar_cli_examples_leave_numpy_unloaded(tmp_path):
    # one child runs the scalar README examples and a usage error, and reports
    # the first argv after which numpy is loaded; verify, the positive
    # control, loads it
    examples = [argv for argv in readme_cli_examples() if argv[0] in SCALAR_COMMANDS]
    assert {argv[0] for argv in examples} == SCALAR_COMMANDS
    script = """
import contextlib, io, json, sys
import qed51.cli as cli
print("numpy" in sys.modules)
def loads_numpy(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # the usage error
            pass
    return "numpy" in sys.modules
print([argv for argv in json.loads(sys.argv[1]) if loads_numpy(argv)][:1])
print(loads_numpy(["verify", "tables"]))
"""
    res = subprocess.run([sys.executable, "-c", script,
                          json.dumps(examples + [["frobnicate"]])],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False", "[]", "True"]


def test_quad_returns_a_converged_value():
    assert abs(numerics.quad(math.sin, 0.0, math.pi, tol=1e-10, what="sine") - 2.0) < 1e-14


def test_quad_asks_quadpack_for_tol():
    # scipy's default QUADPACK target (1.49e-8) stops short of tol here
    val = numerics.quad(lambda x: math.cos(50.0 * x), 0.0, 1.0, tol=1e-10, what="cos 50x")
    assert abs(val - math.sin(50.0) / 50.0) < 1e-14


def test_quad_asks_quadpack_for_tol_on_an_infinite_range():
    val = numerics.quad(lambda x: math.exp(-x * x), 0.0, math.inf, tol=1e-12, what="gaussian")
    assert abs(val - math.sqrt(math.pi) / 2.0) < 1e-14


def test_quad_raises_when_the_error_estimate_misses_tol():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericError, match="oscillatory integral failed to converge"):
            numerics.quad(lambda x: math.sin(1.0 / x) / x, 1e-9, 1.0,
                          tol=1e-8, what="oscillatory integral")


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("integrate", [
    lambda: numerics.quad(lambda x: math.sin(1.0 / x), 0.0, 1.0, tol=1e-8,
                          what="oscillatory integral"),
    lambda: numerics.quad_complex(lambda x: complex(math.sin(1.0 / x), 1.0), 0.0, 1.0,
                                  tol=1e-8, what="oscillatory integral"),
], ids=["quad", "quad_complex"])
def test_integration_warning_is_numeric_error(integrate, action):
    # QUADPACK reaches its subdivision limit short of tol, which fails the
    # call whatever the caller's warning filter says
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(NumericError, match="oscillatory integral failed to converge"):
            integrate()


def test_gauss_returns_a_converged_value():
    assert abs(numerics.gauss(np.sin, 0.0, math.pi, tol=1e-10, what="sine") - 2.0) < 1e-14


def test_gauss_raises_when_half_the_nodes_disagree():
    with pytest.raises(NumericError, match="endpoint singularity failed to converge"):
        numerics.gauss(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-8,
                       what="endpoint singularity")


def test_gauss_raises_on_a_nan_integrand():
    with pytest.raises(NumericError, match="nan integrand failed to converge"):
        numerics.gauss(lambda x: np.full_like(x, np.nan), 0.0, 1.0, tol=1e-8,
                       what="nan integrand")


def test_gauss_builds_each_rule_once(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss
    built = []

    def counting_leggauss(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    numerics._legendre.cache_clear()
    try:
        for _ in range(5):
            numerics.gauss(np.sin, 0.0, math.pi, tol=1e-10, what="sine")
    finally:
        numerics._legendre.cache_clear()
    assert sorted(built) == [numerics.GAUSS_NODES // 2, numerics.GAUSS_NODES]


def test_cached_gauss_rule_is_read_only():
    numerics.gauss(np.sin, 0.0, math.pi, tol=1e-10, what="sine")
    for arr in numerics._legendre(numerics.GAUSS_NODES):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_quad_and_quad_complex_leave_the_warning_filters_alone(monkeypatch):
    # QUADPACK's failure message comes back through full_output, so neither
    # call enters catch_warnings, which mutates process-global state
    monkeypatch.setattr(warnings, "catch_warnings", None)
    assert abs(numerics.quad(math.sin, 0.0, math.pi, tol=1e-10, what="sine") - 2.0) < 1e-14
    with pytest.raises(NumericError, match="maximum number of subdivisions"):
        numerics.quad_complex(lambda x: complex(math.sin(1.0 / x), 1.0), 0.0, 1.0,
                              tol=1e-8, what="oscillatory integral")


def test_quad_complex_evaluates_each_node_once():
    nodes = []

    def f(t):
        nodes.append(t)
        return complex(math.cos(t), math.sin(t))

    val = numerics.quad_complex(f, 0.0, math.pi, tol=1e-10, what="half circle")
    assert abs(val - 2j) < 1e-14
    assert len(nodes) >= 21
    assert len(nodes) == len(set(nodes))


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
            numerics.ode_endpoint(lambda t, y: y * y, (0.0, 2.0), [1.0], tol=1e-12,
                                  what="blow-up integration")


def test_ode_endpoint_failure_is_numeric_error_when_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="blow-up integration failed"):
            numerics.ode_endpoint(lambda t, y: y * y, (0.0, 2.0), [1.0], tol=1e-12,
                                  what="blow-up integration")


@pytest.mark.parametrize("t_span", [(0.0, 2.0), (2.0, 0.0)], ids=["forward", "backward"])
def test_ode_endpoint_integrates_in_either_direction(t_span):
    t0, t1 = t_span
    y1 = numerics.ode_endpoint(lambda t, y: -y, t_span, [1.0], tol=1e-12, what="decay")
    assert abs(y1[0] - math.exp(t0 - t1)) < 1e-10 * math.exp(t0 - t1)
