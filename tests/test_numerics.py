import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed51 import numerics, propagators, radiative
from qed51.errors import NumericError, QedError


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
    numerics._gauss_rule.cache_clear()
    try:
        for _ in range(5):
            numerics.gauss(np.sin, 0.0, math.pi, tol=1e-10, what="sine")
    finally:
        numerics._gauss_rule.cache_clear()
    assert sorted(built) == [numerics.GAUSS_NODES // 2, numerics.GAUSS_NODES]


def test_cached_gauss_rule_is_read_only():
    numerics.gauss(np.sin, 0.0, math.pi, tol=1e-10, what="sine")
    for arr in numerics._gauss_rule(numerics.GAUSS_NODES):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def two_call_gauss(f, a, b, *, tol, what):
    """gauss as it was written with one integrand call per node count: the
    reference that its one stacked call must reproduce bit for bit."""
    def rule(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (b - a)
        return half * float(weights @ f(a + half * (nodes + 1.0)))

    val = rule(numerics.GAUSS_NODES)
    numerics._check(abs(val - rule(numerics.GAUSS_NODES // 2)), abs(val), tol, what)
    return val


def value_and_estimate(gauss, f, a, b):
    """gauss's value and the error estimate it hands to _check, which here
    records it instead of checking it."""
    estimates = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_check", lambda err, scale, tol, what: estimates.append(err))
        return gauss(f, a, b, tol=0.0, what="draw"), estimates


INTEGRANDS = {
    "exp": np.exp,
    "log": lambda x: np.log(1.0 + x * x),
    "sin": np.sin,
    "exp-log-sin": lambda x: np.exp(-x * x) * np.sin(3.0 * x) + np.log(2.0 + np.cos(x)),
}


@settings(deadline=None)
@given(st.sampled_from(sorted(INTEGRANDS)), st.floats(-100.0, 100.0),
       st.floats(-12.0, math.log10(200.0)), st.booleans())
def test_gauss_equals_the_two_call_rule(name, a, log_width, reverse):
    # intervals from 1e-12 to 200 wide, either way round
    f = INTEGRANDS[name]
    b = a - 10.0**log_width if reverse else a + 10.0**log_width
    assert value_and_estimate(numerics.gauss, f, a, b) == value_and_estimate(two_call_gauss, f, a, b)


def outcome(fn, args):
    """fn(*args), or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except QedError as exc:
        return type(exc), str(exc)


def _log_floats(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


EXACT = propagators.IEpsilonPolicy.exact_limit()
# Every gauss caller in the package, with points that reach both its
# converged values and its NumericErrors
GAUSS_CALLERS = {
    "subtracted lambda integral": (
        lambda theta: radiative._subtracted_lambda_integral(theta, "gauss"),
        st.tuples(_log_floats(1e-3, math.pi))),
    "self-energy z-integral": (radiative.self_energy_z_integral,
                               st.tuples(st.floats(-50.0, 50.0))),
    "radial loop quadrature": (propagators.loop_integral_I_quadrature,
                               st.tuples(_log_floats(1e-300, 1e300))),
    "exact feynman_combine2": (
        lambda a, b: propagators.feynman_combine2(a, b, EXACT),
        st.builds(lambda sign, a, b: (sign * a, sign * b), st.sampled_from((-1.0, 1.0)),
                  _log_floats(1e-300, 1e300), _log_floats(1e-300, 1e300))
        | st.builds(lambda a, rel: (a, a * (1.0 + rel)), st.floats(-1e6, 1e6).filter(bool),
                    _log_floats(1e-16, 10.0))),
}


@pytest.mark.parametrize("name", GAUSS_CALLERS)
@settings(deadline=None)
@given(data=st.data())
def test_gauss_callers_equal_their_two_call_values(name, data):
    fn, points = GAUSS_CALLERS[name]
    args = data.draw(points)
    ours = outcome(fn, args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "gauss", two_call_gauss)
        assert ours == outcome(fn, args)


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
