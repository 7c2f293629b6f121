import math
import warnings

import numpy as np
import pytest
from scipy import special

from qed51 import numerics
from qed51 import propagators as prop
from qed51.dirac import slash
from qed51.errors import DomainError, NumericError, PoleError
from qed51.kinematics import FourVector

EXACT = prop.IEpsilonPolicy.exact_limit()


def test_photon_propagator_spacelike_unit():
    k = FourVector(1.0, 0.0, 0.0, 0.0)
    assert prop.photon_propagator(k, EXACT) == 1.0


def test_photon_propagator_iepsilon_sign():
    k = FourVector(0.0, 0.0, 0.0, 1.0)  # k.k = -1
    val = prop.photon_propagator(k, prop.IEpsilonPolicy(epsilon=1e-6))
    assert abs(val.real + 1.0) < 1e-5
    assert val.imag > 0.0  # 1/(-1 - i eps): imaginary part tends to 0+
    tighter = prop.photon_propagator(k, prop.IEpsilonPolicy(epsilon=1e-9))
    assert 0.0 < tighter.imag < val.imag


def test_photon_propagator_pole_raises_in_exact_mode():
    k = FourVector(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(PoleError):
        prop.photon_propagator(k, EXACT)


def test_electron_propagator_identity():
    k = FourVector(0.2, -0.4, 0.3, 0.9)
    mat = prop.electron_propagator(k, EXACT)
    lhs = (slash(k) - 1j * np.eye(4)) @ mat
    denom = k.dot(k) + 1.0
    assert np.abs(lhs * denom - denom * np.eye(4)).max() < 1e-10


def test_electron_propagator_at_zero_momentum():
    mat = prop.electron_propagator(FourVector(), EXACT)
    assert np.abs(mat - 1j * np.eye(4)).max() < 1e-12


def test_electron_propagator_far_offshell_decay():
    k_small = FourVector(3.0, 0, 0, 0)
    k_big = FourVector(30.0, 0, 0, 0)
    n_small = np.abs(prop.electron_propagator(k_small, EXACT)).max()
    n_big = np.abs(prop.electron_propagator(k_big, EXACT)).max()
    assert n_big < n_small
    assert abs(n_big * 30.0 - 1.0) < 0.01  # ~ 1/|k|


def test_electron_propagator_pole():
    with pytest.raises(PoleError):
        prop.electron_propagator(FourVector(0, 0, 0, 1.0), EXACT)


def test_feynman_combine2_pole_detection():
    with pytest.raises(PoleError):
        prop.feynman_combine2(1.0, -1.0, EXACT)
    # with an i-epsilon it is finite
    val = prop.feynman_combine2(1.0, -1.0 + 1e-3j)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_feynman_combine2_real_endpoints_any_ratio():
    for a, b in ((1e-6, 1.0), (1.0, 1e6), (-2.0, -7.0), (3.0, 3.0 + 1e-7), (4.0, 4.0)):
        assert abs(prop.feynman_combine2(a, b, EXACT) * a * b - 1.0) < 1e-12


def test_feynman_combine2_complex_arguments():
    a, b = 1.5 + 0.4j, 0.7 - 0.2j
    assert abs(prop.feynman_combine2(a, b, EXACT) - 1.0 / (a * b)) < 1e-9


def test_feynman_combine3_degenerate_matches_combine2():
    # a = b collapses the 3-denominator formula onto 1/(a^2 c)
    val = prop.feynman_combine3(2.0, 2.0, 5.0, EXACT)
    collapse = prop.feynman_combine2(4.0, 5.0 * 4.0 / 4.0, EXACT)  # 1/(4*5) = 1/20
    assert abs(val - 1.0 / 20.0) < 1e-8
    assert abs(val - collapse / 1.0) < 1e-8


def test_feynman_combine3_solves_each_inner_integral_once(monkeypatch):
    # quad_complex evaluates its integrand once per node, so the imaginary
    # pass of the outer integral reuses the inner integrals of the real pass
    quad_complex = numerics.quad_complex
    outer_x, inner_calls = [], []

    def counted(f, a, b, *, what, **kw):
        if what != "2-D quadrature":
            inner_calls.append(what)
            return quad_complex(f, a, b, what=what, **kw)

        def outer(x):
            outer_x.append(x)
            return f(x)

        return quad_complex(outer, a, b, what=what, **kw)

    monkeypatch.setattr(numerics, "quad_complex", counted)
    assert abs(prop.feynman_combine3(1.0, 2.0, 4.0, EXACT) - 0.125) < 1e-8
    assert len(outer_x) >= 21
    assert len(outer_x) == len(set(outer_x))
    assert len(inner_calls) == len(outer_x)


def test_feynman_combine3_pole_detection():
    with pytest.raises(PoleError):
        prop.feynman_combine3(1.0, -2.0, 1.0, EXACT)


@pytest.mark.parametrize("args", [(1.0, -2.0), (1.0, -2.0, 3.0), (2.0, -1.0, 1.5)],
                         ids=["combine2", "combine3", "combine3-middle"])
def test_feynman_crossing_needs_an_i_epsilon_far_above_the_default(args):
    combine = prop.feynman_combine2 if len(args) == 2 else prop.feynman_combine3
    with pytest.raises(NumericError):
        combine(*args, prop.DEFAULT_POLICY)
    val = combine(*args, prop.IEpsilonPolicy(epsilon=1e-3))
    assert abs(val - 1.0 / math.prod(args)) < 1e-3


def test_loop_integral_closed_form():
    assert prop.loop_integral_I(1.0) == 0.5j * math.pi**2
    with pytest.raises(DomainError):
        prop.loop_integral_I(0.0)


def test_loop_log_difference():
    assert prop.loop_log_difference(2.0, 2.0) == 0.0


def test_loop_quadratures_converge_across_lambda_grid():
    # QUADPACK is asked for more accuracy than the 1e-8 convergence check
    # demands, so no draw fails the check while matching the closed form.
    cases = [(lam, lam * r) for lam in np.geomspace(1e-3, 1e3, 41) for r in (1.5, 5.0, 20.0)]
    cases += [(1000.0, 5000.0), (10**-2.5, 1.5 * 10**-2.5)]
    for lam, lam_prime in cases:
        closed = prop.loop_integral_I(lam)
        assert abs(prop.loop_integral_I_quadrature(lam) - closed) < 1e-12 * abs(closed)
        closed = prop.loop_log_difference(lam, lam_prime)
        quad = prop.loop_log_difference_quadrature(lam, lam_prime)
        assert abs(quad - closed) < 1e-12 * abs(closed)


@pytest.mark.parametrize("call, error", [
    (lambda: prop.feynman_combine2(5e-324, 1.0, EXACT), NumericError),
    (lambda: prop.feynman_combine2(1.0, 5e-324, EXACT), NumericError),
    (lambda: prop.feynman_combine2(1e300, 1e-300, EXACT), NumericError),
    (lambda: prop.feynman_combine2(-1e-300, -1e300, EXACT), NumericError),
    (lambda: prop.feynman_combine2(1e-300, 1e-10, EXACT), NumericError),
    (lambda: prop.loop_integral_I(math.nan), DomainError),
    (lambda: prop.loop_integral_I(math.inf), DomainError),
    (lambda: prop.loop_integral_I(5e-324), NumericError),
    (lambda: prop.loop_integral_I_quadrature(math.nan), DomainError),
    (lambda: prop.loop_integral_I_quadrature(5e-324), NumericError),
    (lambda: prop.loop_log_difference(math.nan, 1.0), DomainError),
    (lambda: prop.loop_log_difference(math.inf, 1.0), DomainError),
    (lambda: prop.loop_log_difference(1.0, math.inf), DomainError),
    (lambda: prop.loop_log_difference(1e308, 5e-324), NumericError),
    (lambda: prop.loop_log_difference(5e-324, 1e308), NumericError),
    (lambda: prop.loop_log_difference_quadrature(math.inf, 1.0), DomainError),
    (lambda: prop.loop_log_difference_quadrature(1.0, 1e308), NumericError),
], ids=["combine2-ratio-subnormal", "combine2-ratio-overflows", "combine2-ratio-inf",
        "combine2-ratio-zero", "combine2-integrand-overflows", "I-nan", "I-inf", "I-overflows",
        "I-quadrature-nan", "I-quadrature-overflows", "log-nan", "log-inf", "log-prime-inf",
        "log-ratio-zero", "log-ratio-inf", "log-quadrature-inf", "log-quadrature-overflows"])
def test_out_of_range_loop_and_combination_inputs_raise_before_any_warning(call, error):
    # Lambda outside (0, inf) is a DomainError; a result or an integrand
    # beyond the float range is a NumericError, raised before numpy warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            call()
    assert error is DomainError or not isinstance(exc.value, DomainError)


def test_propagator_analytic_in_epsilon():
    # finite values, no exceptions, for any real k when epsilon > 0
    rng = np.random.default_rng(3)
    pol = prop.IEpsilonPolicy(epsilon=1e-9)
    for _ in range(200):
        k = FourVector(*rng.uniform(-2, 2, size=4))
        assert np.isfinite(prop.photon_propagator(k, pol))
        assert np.isfinite(np.abs(prop.electron_propagator(k, pol)).max())


def test_principal_value_odd_pole():
    # PV of 1/(x - 0.3) over a symmetric-enough interval
    val = prop.principal_value(lambda x: 1.0 / (x - 0.3), 0.0, 1.0, 0.3)
    expect = math.log(0.7 / 0.3)
    assert abs(val - expect) < 1e-5


def test_principal_value_with_smooth_numerator():
    val = prop.principal_value(lambda x: math.cos(x) / (x - 0.5), 0.0, 1.0, 0.5)
    # oracle: series evaluation via symmetric sampling
    import scipy.integrate as si
    h = 1e-7
    left, _ = si.quad(lambda x: math.cos(x) / (x - 0.5), 0.0, 0.5 - h, limit=400)
    right, _ = si.quad(lambda x: math.cos(x) / (x - 0.5), 0.5 + h, 1.0, limit=400)
    assert abs(val - (left + right)) < 1e-4


# closed forms: cos x/(x - 1/2) is cos(1/2) cos u/u - sin(1/2) sin u/u with
# u = x - 1/2, whose even part has no principal value; e^x/(x - p) gives
# e^p (Ei(b - p) - Ei(a - p)); e^(-x^2)/x is odd, so only the one-sided rest
# (-inf, -1] counts; 1/((x - p)(1 + x^2)) over the whole line is all fold, -pi p/(1 + p^2)
@pytest.mark.parametrize("f, a, b, pole, exact", [
    (lambda x: math.cos(x) / (x - 0.5), 0.0, 1.0, 0.5,
     -2.0 * math.sin(0.5) * special.sici(0.5)[0]),
    (lambda x: math.exp(x) / (x - 1.7), -1.0, 3.0, 1.7,
     math.exp(1.7) * (special.expi(1.3) - special.expi(-2.7))),
    (lambda x: math.exp(-x * x) / x, -math.inf, 1.0, 0.0, -special.exp1(1.0) / 2.0),
    (lambda x: 1.0 / ((x - 0.3) * (1.0 + x * x)), -math.inf, math.inf, 0.3,
     -math.pi * 0.3 / 1.09),
], ids=["cos", "exp", "gauss-infinite-end", "lorentz-whole-line"])
def test_principal_value_closed_forms(f, a, b, pole, exact):
    assert abs(prop.principal_value(f, a, b, pole) - exact) < 1e-12


@pytest.mark.parametrize("f, a, b, pole", [
    # a double pole has no principal value: its fold 2/t^2 diverges
    (lambda x: 1.0 / (x - 0.4) ** 2, 0.0, 1.0, 0.4),
    # near 1e15 the doubles are 0.125 apart, so pole +- t rounds to the pole
    (lambda x: 1.0 / (x - 1e15), 1e15 - 1.0, 1e15 + 1.0, 1e15),
], ids=["double-pole", "node-rounds-to-pole"])
def test_principal_value_failure_is_numeric_error(f, a, b, pole):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            prop.principal_value(f, a, b, pole)


def test_principal_value_pole_must_be_inside():
    for pole in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            prop.principal_value(lambda x: 1.0 / (x - pole), 0.0, 1.0, pole)


def test_iepsilon_policy_validation():
    with pytest.raises(DomainError):
        prop.IEpsilonPolicy(epsilon=0.0)
    with pytest.raises(DomainError):
        prop.IEpsilonPolicy(epsilon=-1e-9)
    assert prop.IEpsilonPolicy.exact_limit().exact
