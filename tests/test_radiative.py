import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed51 import numerics
from qed51 import radiative as rad
from qed51.constants import ERA_1951, MODERN
from qed51.errors import DomainError, NumericError
from qed51.kinematics import FourVector

ALPHA = MODERN.alpha


# ---------------------------------------------------------------------------
# Vacuum polarization.

def test_vacpol_zero_momentum():
    for q2 in (0.0, -0.0):
        res = rad.vacuum_polarization(q2, ALPHA)
        assert res.in_phase == 0.0 and math.copysign(1.0, res.in_phase) == 1.0
        assert res.out_phase == 0.0
        assert not res.threshold_open


def test_vacpol_small_q_uehling_coefficient():
    q2 = 1e-3
    res = rad.vacuum_polarization(q2, ALPHA)
    expect = ALPHA * q2 / (15.0 * math.pi)   # the slowly-varying-field form
    assert abs(res.in_phase / expect - 1.0) < 0.005


def test_vacpol_function_of_q2_only():
    # API consumes q^2/mu^2 alone; spacelike and "rotated" inputs with the
    # same invariant give identical results by construction.
    assert rad.vacuum_polarization(0.37, ALPHA) == rad.vacuum_polarization(0.37, ALPHA)


def test_vacpol_absorptive_threshold():
    assert rad.vacuum_polarization(-3.9, ALPHA).out_phase == 0.0
    assert rad.vacuum_polarization(-4.0, ALPHA).out_phase == 0.0
    just_below = rad.vacuum_polarization(-4.0 - 1e-4, ALPHA)
    assert just_below.threshold_open
    assert 0.0 < just_below.out_phase < 1e-3


def test_vacpol_absorptive_continuous_at_threshold():
    vals = [rad.vacuum_polarization(q2, ALPHA).out_phase
            for q2 in (-4.0, -4.0 - 1e-6, -4.0 - 1e-4, -4.0 - 1e-2)]
    assert vals[0] == 0.0
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[1] < 1e-4


def test_vacpol_in_phase_quadrature_order():
    # halving the step in a fixed midpoint rule after the t-substitution
    # shrinks the error by at least 4 (order >= 2)
    q2 = 0.8

    def midpoint(n):
        t = (np.arange(n) + 0.5) / n
        vals = 2.0 * (1.0 - t * t) * np.log(np.abs(1.0 + (1.0 - t * t) * q2 / 4.0))
        return ALPHA / (4.0 * math.pi) * vals.sum() / n

    exact = rad.vacuum_polarization(q2, ALPHA).in_phase
    e1 = abs(midpoint(200) - exact)
    e2 = abs(midpoint(400) - exact)
    assert e1 / e2 > 3.5


def in_phase_integral(q2):
    """I(q2) = int_0^1 z/sqrt(1-z) log|1 + z q2/4| dz from the closed form."""
    return rad.vacuum_polarization(q2, ALPHA).in_phase / (ALPHA / (4.0 * math.pi))


VACPOL_GRID = [float(q2) for q2 in np.linspace(-40.0, 8.0, 97)] + [-1e3, 1e3]


@pytest.mark.parametrize("q2", VACPOL_GRID)
def test_vacpol_closed_form_matches_quadrature_oracle(q2):
    closed = rad.vacuum_polarization(q2, ALPHA).in_phase
    oracle = rad.vacuum_polarization_quadrature(q2, ALPHA)
    # the oracle asks QUADPACK for err <= 1e-11 max(1, |I|) on the integral I;
    # its actual error on this grid is far smaller (worst margin 0.09)
    assert abs(closed - oracle) <= 1e-9 * abs(oracle) + 1e-12 * ALPHA / (4.0 * math.pi)


# I(q2) at the double nearest each q2, to 40 digits with mpmath 1.3.0: its
# Taylor series for |q2| < 1, tanh-sinh quadrature split at the logarithm's
# zero otherwise, each confirmed by the complex closed form at 60 digits.
VACPOL_REFERENCES = [
    (-40.0, "2.474807840407602200597611550203817397956"),
    (-5.0, "-2.485458865756081349628613520714425428096"),
    (-4.0000000001, "-3.555555555422222211193506089561686027314"),
    (-3.9999999999, "-3.555524139761052664811790192424861127233"),
    (-3.9999999, "-3.554562230042428271372209100502549391492"),
    (-0.5, "-1.410549975313884321884372606050920752103e-1"),
    (-1e-8, "-2.666666669523809583835823716109800747468e-9"),
    (1e-8, "2.666666663809523869550109176850519687413e-9"),
    (8.0, "1.252088374755154775905171922243664999405"),
    (1e3, "6.996058954139929277397587608683975637308"),
]


@pytest.mark.parametrize("q2,ref", VACPOL_REFERENCES)
def test_vacpol_closed_form_matches_40_digit_references(q2, ref):
    assert abs(in_phase_integral(q2) / float(ref) - 1.0) <= 1e-12


@pytest.mark.parametrize("edge", [rad.VACPOL_SERIES_Q, -rad.VACPOL_SERIES_Q])
def test_vacpol_continuous_at_series_switch(edge):
    inside = in_phase_integral(math.nextafter(edge, 0.0))
    assert abs(inside / in_phase_integral(edge) - 1.0) < 1e-13


def test_vacpol_in_phase_continuous_at_pair_threshold():
    at = in_phase_integral(-4.0)
    assert abs(at + 32.0 / 9.0) <= 1e-14
    eps = 1e-8
    # square-root cusp from the timelike side, linear from the open side
    assert abs((in_phase_integral(-4.0 + eps) - at) / (math.pi * math.sqrt(eps)) - 1.0) < 1e-3
    assert abs((in_phase_integral(-4.0 - eps) - at) / (4.0 * eps / 3.0) - 1.0) < 1e-3


@pytest.mark.parametrize("q2", [1e6, -1e6, 1e9, -1e9])
def test_vacpol_large_q2_asymptote(q2):
    asymptote = 4.0 / 3.0 * math.log(abs(q2)) - 20.0 / 9.0
    assert abs((in_phase_integral(q2) - asymptote) * q2 / 8.0 - 1.0) < 1e-3


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_vacpol_finite_for_every_finite_q2(q2):
    res = rad.vacuum_polarization(q2, ALPHA)
    assert math.isfinite(res.in_phase) and math.isfinite(res.out_phase)
    assert res.out_phase >= 0.0
    assert res.threshold_open == (q2 < -4.0)
    if not res.threshold_open:
        assert res.out_phase == 0.0


def test_gauge_source_amplitude():
    q = FourVector(0.3, -0.2, 0.5, 0.9)
    pure_gauge = 0.7 * q
    assert max(abs(c) for c in rad.maxwell_source_amplitude(pure_gauge, q)) < 1e-15
    e = FourVector(1.0, 0.0, 0.0, 0.0)
    shifted = e + 0.3 * q
    base = rad.maxwell_source_amplitude(e, q)
    moved = rad.maxwell_source_amplitude(shifted, q)
    assert max(abs(a - b) for a, b in zip(base, moved)) < 1e-14


def test_pair_creation_probability():
    assert rad.pair_creation_probability(1.0, -3.0, ALPHA) == 0.0
    assert rad.pair_creation_probability(0.5, -9.0, ALPHA) > 0.0


def test_pair_creation_nonnegative_sampled():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q2 = -rng.uniform(4.0, 40.0)
        e2 = rng.uniform(0.01, 4.0)  # spacelike polarization squared
        assert rad.pair_creation_probability(e2, q2, ALPHA) >= 0.0


# ---------------------------------------------------------------------------
# Uehling shift.

def test_uehling_2s_value_1951():
    shift = rad.uehling_shift("2s", ERA_1951)
    assert abs(shift + 27.0) < 2.7  # -27 Mc within 10%


def test_uehling_p_states_vanish():
    assert rad.uehling_shift("2p", ERA_1951) == 0.0
    assert rad.uehling_shift("3d", ERA_1951) == 0.0


def test_uehling_is_one_fifth_of_unit_log_shift():
    ratio = rad.uehling_shift("2s", ERA_1951) / rad.alpha3_ry_mc(ERA_1951)
    assert abs(ratio + 0.2) < 1e-12


def test_uehling_ratio_to_bethe_log():
    # a factor ~40 smaller than the shift with the computed log, opposite sign
    log_value = math.log(ERA_1951.mc2_over_ry / 16.6)
    ratio = abs(rad.uehling_shift("2s", ERA_1951)) / rad.bethe_log_shift(16.6, 1.0, ERA_1951)
    assert abs(ratio - 1.0 / (5.0 * log_value)) < 0.15 / (5.0 * log_value)
    assert abs(ratio - 1.0 / 40.0) < 0.15 * (1.0 / 40.0)


def test_uehling_unknown_state():
    with pytest.raises(DomainError):
        rad.uehling_shift("5x", ERA_1951)
    assert rad.uehling_shift("5g", ERA_1951) == 0.0  # ell = 4 state, no contact term


# ---------------------------------------------------------------------------
# Self-energy bookkeeping.

def test_cutoff_quantity_evaluates_at_a_positive_cutoff():
    a = rad.CutoffQuantity(1.0, 2.0)
    assert abs(a.evaluate(math.e) - 3.0) < 1e-12
    with pytest.raises(DomainError):
        a.evaluate(-1.0)


def test_delta_m_coefficients():
    dm = rad.delta_m(ALPHA)
    assert abs(dm.log_coeff - 3.0 * ALPHA / (2.0 * math.pi)) < 1e-15
    assert abs(dm.finite / dm.log_coeff - 5.0 / 6.0) < 1e-12  # R' - R = 5/6


# ---------------------------------------------------------------------------
# Vertex chain and infrared structure.

def test_k_integral_equal_momenta():
    p = np.array([0.0, 0.0, 0.07])
    L = math.log(1.0 / 2e-4)
    expect = 1.5j * math.pi**2 * ((L + 1.0) / 3.0 + (0.07**2) / 9.0)
    assert abs(rad.k_integral_closed(p, p, 0.0, 1e-4) - expect) < 1e-14


def test_scattering_correction_bracket():
    coef, moment = rad.scattering_correction(0.01, 0.5, ALPHA)
    bracket = coef / (-ALPHA / (3.0 * math.pi) * 0.01)
    assert abs(bracket - (11.0 / 24.0 - 0.2)) < 1e-12
    assert moment == ALPHA / (4.0 * math.pi)


def test_scattering_correction_zero_q():
    coef, _ = rad.scattering_correction(0.0, 0.1, ALPHA)
    assert coef == 0.0


def test_nonradiative_factor_constants():
    # the moment fold adds exactly 3/8: (11/24 - 1/5) + 3/8 = 5/6 - 1/5
    q2, de = 0.02, 1e-3
    coef, _ = rad.scattering_correction(q2, de, ALPHA)
    virt_bracket = coef / (-ALPHA / (3 * math.pi) * q2)
    n_bracket = (1.0 - rad.nonradiative_cross_section_factor(q2, de, ALPHA)) / (
        2.0 * ALPHA / (3.0 * math.pi) * q2)
    assert abs(n_bracket - virt_bracket - 3.0 / 8.0) < 1e-10


def test_nonradiative_factor_unity_at_zero_q():
    assert rad.nonradiative_cross_section_factor(0.0, 1e-3, ALPHA) == 1.0


def test_nonradiative_log_derivative():
    q2 = 0.01
    de1, de2 = 1e-3, 2e-3
    f1 = rad.nonradiative_cross_section_factor(q2, de1, ALPHA)
    f2 = rad.nonradiative_cross_section_factor(q2, de2, ALPHA)
    slope = (f2 - f1) / math.log(de2 / de1)
    assert abs(slope - 2.0 * ALPHA / (3.0 * math.pi) * q2) < 1e-12


def test_soft_bremsstrahlung_probability():
    assert rad.soft_bremsstrahlung_probability(1e-4, 1e-4, 0.01, ALPHA) == 0.0
    base = rad.soft_bremsstrahlung_probability(1e-4, 1e-3, 0.01, ALPHA)
    doubled = rad.soft_bremsstrahlung_probability(1e-4, 2e-3, 0.01, ALPHA)
    assert abs(doubled - base - 2.0 * ALPHA / (3 * math.pi) * math.log(2.0) * 0.01) < 1e-15
    with pytest.raises(DomainError):
        rad.soft_bremsstrahlung_probability(1e-2, 1e-3, 0.01, ALPHA)


def test_total_correction_detector_independence():
    for de in (1e-3, 1e-4, 1e-5):
        a = rad.total_scattering_correction(0.02, 1.2, de, ALPHA)
        b = rad.total_scattering_correction(0.02, 1.2, 1e-6, ALPHA)
        assert abs(a / b - 1.0) < 1e-10


def test_total_correction_scale_is_alpha_beta2_log():
    t = 0.02  # beta^2 = 0.04
    val = rad.total_scattering_correction(t, 1.0, None, ALPHA)
    correction = 1.0 - val
    beta2 = 2 * t
    scale = ALPHA * beta2 * math.log(1.0 / (2.0 * t))
    assert 0.1 * scale < correction < 10.0 * scale


@pytest.mark.parametrize("call", [
    lambda: rad.total_scattering_correction(5e-324, 1.0, 5e-324, ALPHA),
    lambda: rad.total_scattering_correction(0.2, 1.0, 5e-324, ALPHA),
    lambda: rad.total_scattering_correction(2e-309, 1.0, 1e-309, ALPHA),
    lambda: rad.total_scattering_correction(1e-307, 1.0, None, ALPHA),
    lambda: rad.total_scattering_correction(math.nan, 1.0, None, ALPHA),
    lambda: rad.nonradiative_cross_section_factor(0.0, 5e-324, ALPHA),
    lambda: rad.nonradiative_cross_section_factor(0.0, math.inf, ALPHA),
    lambda: rad.scattering_correction(0.0, 5e-324, ALPHA),
    lambda: rad.scattering_correction(0.0, 1e308, ALPHA),
    lambda: rad.scattering_correction(0.0, math.nan, ALPHA),
], ids=["T-and-dE-subnormal", "dE-subnormal", "T-subnormal", "default-dE-subnormal", "T-nan",
        "nonradiative-subnormal", "nonradiative-inf", "scattering-subnormal",
        "scattering-2dE-overflows", "scattering-nan"])
def test_energy_and_threshold_out_of_range_are_domain_errors(call):
    # T below the smallest normal float, or a dE whose log(1/(2 dE)) is not
    # finite, is a DomainError, not nan or inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


def test_subnormal_threshold_with_a_finite_log_is_accepted():
    # the oracle draws reach T = 1e-300 with dE = 1e-8 T, below 2.2e-308
    assert rad.total_scattering_correction(1e-300, 1.0, 1e-308, ALPHA) == 1.0


def _weight_form_integral(theta, scheme):
    """_subtracted_lambda_integral's oracle routes with the integrand written
    through the Coulomb weight g(lam) = lam q^2/(x^2 + lam q^2), as it was
    before the weight was inlined: the reference for the inlined form."""
    q2 = 4.0 * math.sin(0.5 * theta) ** 2

    def weight(x):
        lam = 1.0 - x
        return lam * q2 / (x * x + lam * q2)

    def integrand(x):
        lam = 1.0 - x
        return 2.0 * lam * (weight(x) - 1.0) / (x * (1.0 + lam))

    what = "subtracted lambda integral"
    if scheme == "adaptive":
        return numerics.quad(integrand, 0.0, 1.0, tol=1e-12, what=what)
    return numerics.gauss(integrand, 0.0, 1.0, tol=1e-10, what=what)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericError as exc:
        return str(exc)


@settings(deadline=None)
@given(st.sampled_from(["adaptive", "gauss"]), st.floats(-100.0, math.log10(math.pi)))
def test_inlined_lambda_integrand_equals_the_weight_form(scheme, log_theta):
    # theta from 1e-100 to pi: both routes' converged values and failures
    theta = min(10.0**log_theta, math.pi)
    assert (_outcome(rad._subtracted_lambda_integral, theta, scheme)
            == _outcome(_weight_form_integral, theta, scheme))


# f(theta) = 19/30 - I(theta) at the float theta shown: the partial-fraction
# closed form in 60-digit mpmath 1.3.0, which agreed there with mpmath
# quadrature of the rational integrand to 1e-45.
F_THETA_REFERENCES = {
    1e-6: "13.75569828152990347053542091372484784068",
    1e-3: "6.849509869653902999509743487910492747929",
    math.radians(30): "1.203112056694217686741093601290559729317",
    math.radians(90): "0.8178352990083393412220198538723701628627",
    math.radians(150): "0.7529382553358310308581509249650158244994",
    math.pi - 1e-3: "0.7470389930467784783885094344869844315001",
    math.pi - 1e-6: "0.7470389722134635478322133529578244156139",
}


@pytest.mark.parametrize("theta", F_THETA_REFERENCES)
def test_total_correction_f_theta_matches_mpmath_references(theta):
    ref = float(F_THETA_REFERENCES[theta])
    assert abs(rad.total_correction_f_theta(theta) / ref - 1.0) < 1e-13


def test_total_correction_f_theta_goldens():
    # both oracle routes agree with each other and with the exact references
    for deg in (30, 90, 150):
        theta = math.radians(deg)
        golden = float(F_THETA_REFERENCES[theta])
        fa = rad.total_correction_f_theta(theta, "adaptive")
        fg = rad.total_correction_f_theta(theta, "gauss")
        assert abs(fa - fg) < 1e-6
        assert abs(fa - golden) < 1e-9
        assert abs(fg - golden) < 1e-9


def test_subtracted_integral_backscatter_limit():
    limit = 2.0 * math.log(2.0) - 1.5
    assert rad._subtracted_lambda_integral(math.pi) == limit
    assert abs(rad._subtracted_lambda_integral(math.pi - 1e-6) - limit) < 1e-12
    assert abs(rad._subtracted_lambda_integral(math.pi, "adaptive") - limit) < 1e-8
    assert abs(rad.total_correction_f_theta(math.pi) - (19.0 / 30.0 - limit)) < 1e-15


@pytest.mark.parametrize("theta", [0.0, -0.5, math.pi + 1e-9, math.nan])
def test_total_correction_f_theta_rejects_angles_outside_zero_to_pi(theta):
    with pytest.raises(DomainError):
        rad.total_correction_f_theta(theta)


@given(st.floats(min_value=0.0, max_value=math.pi, exclude_min=True))
def test_subtracted_integral_closed_form_is_finite_and_negative(theta):
    # the integrand 2 lam (g - 1)/(1 - lam^2) is negative on (0, 1)
    val = rad._subtracted_lambda_integral(theta)
    assert math.isfinite(val) and val < 0.0


def test_gauss_oracle_raises_below_its_domain():
    # below theta = 0.1 each call raises or agrees with the closed form, and
    # from theta = 0.05 down (the peak at lam = 1 narrower still) each raises
    for theta in [5e-324, *np.geomspace(1e-6, 0.1, 120)]:
        try:
            oracle = rad._subtracted_lambda_integral(theta, "gauss")
        except NumericError as exc:
            assert "subtracted lambda integral failed to converge" in str(exc)
            continue
        closed = rad._subtracted_lambda_integral(theta)
        assert theta > 0.05
        assert abs(oracle - closed) <= 1e-10 * max(1.0, abs(closed))


@pytest.mark.parametrize("theta", [1e-150, 5e-324])
def test_adaptive_oracle_raises_below_its_domain(theta):
    with pytest.raises(NumericError, match="subtracted lambda integral failed to converge"):
        rad._subtracted_lambda_integral(theta, "adaptive")


# ---------------------------------------------------------------------------
# Anomalous moment.

def test_anomalous_moment_first_order():
    assert abs(rad.anomalous_moment(1, 1.0 / 137.036) - 0.00116141) < 1e-8


def test_anomalous_moment_fourth_order():
    val = rad.anomalous_moment(2, 1.0 / 137.036)
    assert abs(val - 0.0011454) < 2e-6
    assert abs(val - 0.001145) < 0.000013  # experimental band


def test_anomalous_moment_order_validation():
    with pytest.raises(DomainError):
        rad.anomalous_moment(3, ALPHA)


# ---------------------------------------------------------------------------
# Level shifts.

def test_alpha3_ry_unit_1951():
    val = rad.alpha3_ry_mc(ERA_1951)
    assert abs(val - 136.0) < 1.36


def test_welton_estimate():
    val = rad.welton_shift(None, None, ERA_1951)
    assert abs(val - 1600.0) < 80.0


def test_welton_default_cutoff_product():
    a = ERA_1951.alpha
    explicit = rad.welton_shift(1.0, a**2 / 8.0, ERA_1951)
    assert abs(explicit - rad.welton_shift(None, None, ERA_1951)) < 1e-12


def test_bethe_log_value():
    val = rad.bethe_log_shift(16.6, 1.0, ERA_1951)
    assert abs(val - 1040.0) < 10.4


def test_lamb_budget_totals():
    budget = rad.lamb_shift_full(16.6, ERA_1951)
    assert abs(budget.total - 1051.0) < 10.51
    assert abs(budget.total - (budget.bethe_term + budget.moment_term
                               + budget.uehling_term)) < 1e-12
    assert abs(budget.uehling_term - rad.uehling_shift("2s", ERA_1951)) < 1e-9


def test_level_shift_signs():
    assert rad.level_shift(2, 1, 0.5, 16.6, ERA_1951) < 0.0  # 2p1/2 down
    assert rad.level_shift(2, 1, 1.5, 16.6, ERA_1951) > 0.0  # 2p3/2 up


def test_sigma_dot_l_bookkeeping():
    assert rad.sigma_dot_l_eigenvalue(0, 0.5) == 0
    assert rad.sigma_dot_l_eigenvalue(1, 1.5) == 1
    assert rad.sigma_dot_l_eigenvalue(1, 0.5) == -2
    assert rad.sigma_dot_l_eigenvalue(2, 1.5) == -3
    with pytest.raises(DomainError):
        rad.sigma_dot_l_eigenvalue(0, 1.5)


def test_level_shift_validation():
    with pytest.raises(DomainError):
        rad.level_shift(1, 1, 1.5, 16.6, ERA_1951)


def test_modern_profile_close_to_era():
    # the same formulas under modern constants stay within a percent
    b_modern = rad.lamb_shift_full(16.6, MODERN).total
    b_era = rad.lamb_shift_full(16.6, ERA_1951).total
    assert abs(b_modern / b_era - 1.0) < 0.01


def test_uehling_label_parsing():
    assert rad.uehling_shift("3s", ERA_1951) != 0.0
    assert rad.uehling_shift("4f", ERA_1951) == 0.0
    # n^-3 scaling of the contact term
    assert abs(rad.uehling_shift("2s", ERA_1951)
               - 8.0 * rad.uehling_shift("4s", ERA_1951)) < 1e-9
    with pytest.raises(DomainError):
        rad.uehling_shift("2q", ERA_1951)
    with pytest.raises(DomainError):
        rad.uehling_shift("1p", ERA_1951)
