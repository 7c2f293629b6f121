"""The one-loop program: vacuum polarization with real and absorptive
parts, the Uehling shift, electron self-energy and mass-renormalization
bookkeeping, second-order corrections to scattering, the anomalous magnetic
moment, infrared cancellation, and the full Lamb-shift budget.

Ultraviolet-divergent constants are never floats: self_energy_constant and
delta_m return a CutoffQuantity (finite + log_coeff * log k_max), which has
no arithmetic and is evaluated only at an explicit cutoff; the others cancel
structurally.
The infrared cutoff r and the detector resolution dE are explicit positive
float arguments.  Momentum arguments are in units of the electron mass;
frequencies come out in megacycles through the constants profile.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import numerics
from .constants import ORBITAL_LETTERS, Constants
from .errors import DomainError

# ---------------------------------------------------------------------------
# Vacuum polarization.

class VacPolResult(namedtuple("VacPolResult", "in_phase out_phase threshold_open")):
    """Coefficients of the induced current proportional to the renormalized
    external current: in-phase (dispersive) and out-of-phase (absorptive,
    carries the sign of q0)."""

    __slots__ = ()


def absorptive_weight(w0: float) -> float:
    """int_{w0}^1 z dz/sqrt(1-z) = (2/3)(w0+2) sqrt(1-w0) for 0 <= w0 <= 1.

    The integration region is where the continued logarithm goes complex,
    4(z-z^2) > 4 mu^2/|q^2|; it shrinks to zero at the pair threshold
    q^2 = -4 mu^2, which keeps the absorptive part continuous there.
    """
    if not 0.0 <= w0 <= 1.0:
        raise DomainError("absorptive endpoint outside [0, 1]")
    return (2.0 / 3.0) * (w0 + 2.0) * math.sqrt(1.0 - w0)


# Below |q^2/mu^2| = VACPOL_SERIES_Q the closed form loses digits to the
# cancellation of its 1/Q terms, so the Taylor series is summed instead.  Its
# coefficients c_n = ((n+1)!)^2 / (n (2n+3)!) fall by about 4 per term, so
# the 30 kept here leave a remainder below 1e-17 relative.
VACPOL_SERIES_Q = 1.0
_VACPOL_SERIES = tuple(math.factorial(n + 1) ** 2 / (n * math.factorial(2 * n + 3))
                       for n in range(1, 31))


def _in_phase_integral(q2: float) -> float:
    """I(Q) = int_0^1 z/sqrt(1-z) log|1 + z Q/4| dz in closed form.

    With z = 4x(1-x), I = 8 J and J = int_0^1 x(1-x) log|1 + Q x(1-x)| dx
    = -5/18 + 2/(3Q) + (1/6)(1 - 2/Q) beta L, beta = sqrt(1 + 4/Q).  Branches:
    - Q > 0 or Q <= -4: L = 2 log1p(beta) - log|4/Q| (no cancellation in
      1 - beta at large |Q|; beta L -> 0 at the pair threshold Q = -4);
    - -4 < Q < 0, beta imaginary: beta L = 2 b atan(1/b), b = sqrt(-1 - 4/Q);
    - |Q| < VACPOL_SERIES_Q: J = sum_n (-1)^(n+1) Q^n ((n+1)!)^2 / (n (2n+3)!);
    - Q = 0: exactly 0.0.
    At large |Q|, I -> (4/3) log|Q| - 20/9 + 8/Q.
    """
    if q2 == 0.0:
        return 0.0
    if abs(q2) < VACPOL_SERIES_Q:
        acc = 0.0
        for c in reversed(_VACPOL_SERIES):
            acc = acc * -q2 + c
        return 8.0 * q2 * acc
    # 1 + 4/Q is formed as (Q + 4)/Q, exact near the threshold Q = -4.
    if q2 > 0.0 or q2 <= -4.0:
        beta = math.sqrt((q2 + 4.0) / q2)
        beta_l = beta * (2.0 * math.log1p(beta) - math.log(abs(4.0 / q2)))
    else:
        b = math.sqrt((q2 + 4.0) / -q2)
        beta_l = 2.0 * b * math.atan(1.0 / b)
    return 8.0 * (-5.0 / 18.0 + 2.0 / (3.0 * q2) + (1.0 - 2.0 / q2) * beta_l / 6.0)


def vacuum_polarization(q2_over_mu2: float, alpha: float) -> VacPolResult:
    """Finite, observable part of the induced vacuum current for a Fourier
    component of momentum q; a function of q^2 only.

    The in-phase coefficient is (alpha/4 pi) I(q^2/mu^2), with I the closed
    form of Schwinger (1949) and Uehling (1935) on three branches: spacelike
    or above the pair threshold (q^2 > 0 or q^2 <= -4 mu^2), timelike below
    it (-4 mu^2 < q^2 < 0, an arctangent), and its Taylor series for small
    |q^2|.  vacuum_polarization_quadrature is its oracle; no quadrature runs
    here.  The out-of-phase coefficient is nonzero only once the pair
    threshold is open, q^2 < -4 mu^2.
    """
    in_phase = alpha / (4.0 * math.pi) * _in_phase_integral(q2_over_mu2)
    threshold_open = q2_over_mu2 < -4.0
    out_phase = 0.0
    if threshold_open:
        out_phase = alpha / 4.0 * absorptive_weight(-4.0 / q2_over_mu2)
    return VacPolResult(in_phase=in_phase, out_phase=out_phase,
                        threshold_open=threshold_open)


def vacuum_polarization_quadrature(q2_over_mu2: float, alpha: float) -> float:
    """Oracle for the in-phase coefficient of vacuum_polarization: the same
    (alpha/4 pi) int_0^1 z dz/sqrt(1-z) log|1 + z q^2/4 mu^2| by adaptive
    QUADPACK quadrature, with the endpoint removed by z = 1 - t^2 and the
    logarithm's zero-argument point skipped.  Loads scipy; the closed form
    never calls it."""
    q2 = q2_over_mu2

    def log_term(z):
        arg = abs(1.0 + z * q2 / 4.0)
        return math.log(arg) if arg > 0 else 0.0

    integral = numerics.quad(lambda t: 2.0 * (1.0 - t * t) * log_term(1.0 - t * t), 0.0, 1.0,
                             tol=1e-11, what="vacuum-polarization quadrature")
    return alpha / (4.0 * math.pi) * integral


def maxwell_source_amplitude(e_vec, q_vec):
    """The gauge-invariant source combination q^2 e_nu - (e.q) q_nu that the
    induced current multiplies; identically zero for pure-gauge e ~ q."""
    q2 = q_vec.dot(q_vec)
    eq = e_vec.dot(q_vec)
    return tuple(q2 * ev - eq * qv
                 for ev, qv in ((e_vec.x1, q_vec.x1), (e_vec.x2, q_vec.x2),
                                (e_vec.x3, q_vec.x3), (e_vec.x0, q_vec.x0)))


def pair_creation_probability(e2_pol: float, q2: float, alpha: float) -> float:
    """Probability per unit volume and time that a weak periodic potential
    of polarization-squared e2_pol (spacelike, > 0) and momentum q creates a
    real pair: w = -(alpha e^2 q^2 / 8) int_{-4/q^2}^1 z dz/sqrt(1-z).

    Zero unless q^2 < -4 mu^2 (in mass units).  Nonnegative for physical
    (spacelike) polarizations: the potentials never extract vacuum energy.
    """
    if q2 >= -4.0:
        return 0.0
    return -alpha * e2_pol * q2 / 8.0 * absorptive_weight(-4.0 / q2)


def pair_creation_probability_power_route(e2_pol: float, q2: float, q0: float,
                                          alpha: float) -> float:
    """Independent route: time-average the energy fed to the vacuum by the
    out-of-phase current over one oscillation, then divide by q0 per pair."""
    if q2 >= -4.0:
        return 0.0
    b_coeff = 0.25 * alpha * q2 * absorptive_weight(-4.0 / q2)
    # E(t) = -q0 e^2 [A sin(qx)cos(qx) + B sin^2(qx)]; average over a period.
    avg = numerics.quad(
        lambda s: -q0 * e2_pol * b_coeff * math.sin(s) ** 2 / (2.0 * math.pi),
        0.0, 2.0 * math.pi, tol=1e-8, what="pair-creation power average")
    return avg / q0


# ---------------------------------------------------------------------------
# Uehling shift.

def _parse_state_label(state: str):
    """Spectroscopic label like '2s' or '3d' -> (n, ell)."""
    key = state.strip().lower()
    if len(key) < 2 or not key[:-1].isdecimal() or key[-1] not in ORBITAL_LETTERS:
        raise DomainError(f"unknown hydrogen state label {state!r}")
    n, ell = int(key[:-1]), ORBITAL_LETTERS.index(key[-1])
    if not 0 <= ell < n:
        raise DomainError(f"state label {state!r} needs 0 <= ell < n")
    return n, ell


def uehling_shift(state: str, constants: Constants) -> float:
    """Vacuum-polarization level shift in megacycles: -(1/5) of the
    logarithm-free radiative shift, i.e. -(4 alpha^5 / 15 pi n^3) mc^2 for
    s states and 0 for all others (only s states touch the contact term)."""
    n, ell = _parse_state_label(state)
    if ell != 0:
        return 0.0
    alpha = constants.alpha
    shift_natural = -4.0 * alpha**5 / (15.0 * math.pi * n**3)
    return constants.frequency_mc(shift_natural)


# ---------------------------------------------------------------------------
# Self-energy and mass renormalization.

class CutoffQuantity:
    """A value of the form finite + log_coeff * log(k_max), kept symbolic;
    evaluation requires an explicit cutoff value."""

    __slots__ = ("finite", "log_coeff")

    def __init__(self, finite: complex, log_coeff: complex):
        self.finite = finite
        self.log_coeff = log_coeff

    def __repr__(self):
        return f"CutoffQuantity(finite={self.finite!r}, log_coeff={self.log_coeff!r})"

    def evaluate(self, cutoff_value: float) -> complex:
        if cutoff_value <= 0:
            raise DomainError("cutoff value must be positive")
        return self.finite + self.log_coeff * math.log(cutoff_value)


def self_energy_constant() -> CutoffQuantity:
    """Sigma(p) = -6 pi^2 mu R' = -pi^2 mu (6R + 5) as a cutoff quantity
    (units mu = 1): log coefficient -6 pi^2, finite part -5 pi^2."""
    return CutoffQuantity(finite=-5.0 * math.pi**2, log_coeff=-6.0 * math.pi**2)


def self_energy_z_integral(r_value: float) -> float:
    """Quadrature of the z-integral form 2 int dz mu(1+z) * i * 2 i pi^2
    (R - log z): returns -pi^2 (6R + 5) for the supplied numeric R.  z = u^4
    turns the logarithm at z = 0 into 4 u^3 (1 + u^4)(R - 4 log u), smooth
    enough at u = 0 for Gauss-Legendre."""
    import numpy as np

    val = numerics.gauss(
        lambda u: 4.0 * u**3 * (1.0 + u**4) * (r_value - 4.0 * np.log(u)), 0.0, 1.0,
        tol=1e-7, what="self-energy z-integral")
    return -4.0 * math.pi**2 * val


def delta_m(alpha: float) -> CutoffQuantity:
    """Electromagnetic self-mass dm = (3 alpha / 2 pi) R' in units of m, kept
    symbolic: log coefficient 3 alpha/2 pi, finite part (3 alpha/2 pi)(5/6)."""
    coeff = 3.0 * alpha / (2.0 * math.pi)
    return CutoffQuantity(finite=coeff * 5.0 / 6.0, log_coeff=coeff)


# ---------------------------------------------------------------------------
# The nonrelativistic vertex chain: the K integral and its closed form.

def _dot3(p_vec, pp_vec) -> float:
    """p.p' of two 3-vectors (sequences or numpy arrays) in float arithmetic."""
    (px, py, pz), (qx, qy, qz) = p_vec, pp_vec
    return float(px * qx + py * qy + pz * qz)


def k_integral_closed(p_vec, pp_vec, q2: float, r_ir: float) -> complex:
    """Closed form of the infrared-regulated Feynman-parameter integral
    K(p, p'; r): (3 i pi^2 / 2) { (1/3)(L+1) - (p.p' + q^2/2)(L/3 + 1/6)
    + (p.p' + q^2/3)(L/3 + 5/18) } with L = log(1/2r), momenta in mass
    units (p_vec, pp_vec are 3-vectors)."""
    if r_ir <= 0:
        raise DomainError("infrared cutoff must be positive")
    ppp = _dot3(p_vec, pp_vec)
    L = math.log(1.0 / (2.0 * r_ir))
    val = (1.0 / 3.0 * (L + 1.0)
           - (ppp + 0.5 * q2) * (L / 3.0 + 1.0 / 6.0)
           + (ppp + q2 / 3.0) * (L / 3.0 + 5.0 / 18.0))
    return 1.5j * math.pi**2 * val


def k_integral_radial(p_vec, pp_vec, q2: float, r_ir: float) -> complex:
    """The same integral by direct 1-D radial quadrature of the x,y-reduced
    integrand (the parameter integrals done analytically)."""
    if r_ir <= 0:
        raise DomainError("infrared cutoff must be positive")
    ppp = _dot3(p_vec, pp_vec)
    c_half = ppp + 0.5 * q2
    c_third = ppp + q2 / 3.0

    def integrand(k):
        root = math.sqrt(k * k + 1.0)
        base = 1.0 / k**3 - 1.0 / root**3
        term1 = base / 3.0
        term2 = -(c_half / 3.0) * (base - 1.5 / root**5)
        term3 = c_third * (base / 3.0 - 0.5 / root**5 + (5.0 / 6.0) / root**7)
        return k * k * (term1 + term2 + term3)

    val = numerics.quad(integrand, r_ir, math.inf, tol=1e-12,
                        what="radial K-integral quadrature")
    return 1.5j * math.pi**2 * val


def _check_threshold(detector_de_over_mc2: float) -> None:
    """DomainError unless dE > 0 and log(1/(2 dE)) is finite: 1/(2 dE)
    overflows below about 2.8e-309, and is 0 when 2 dE overflows."""
    if not detector_de_over_mc2 > 0:
        raise DomainError("detector threshold must be positive")
    if not 0.0 < 1.0 / (2.0 * detector_de_over_mc2) < math.inf:
        raise DomainError("detector threshold out of range: log(1/(2 dE)) is not finite")


def scattering_correction(q2_over_mu2: float, detector_de_over_mc2: float, alpha: float):
    """Second-order corrections to the Born element in the nonrelativistic
    window: returns (coefficient multiplying M0, magnetic-moment coefficient
    multiplying i e u'bar eslash qslash u)."""
    _check_threshold(detector_de_over_mc2)
    if abs(q2_over_mu2) > 1.0:
        raise DomainError("outside the nonrelativistic validity window |q^2| << mu^2")
    bracket = math.log(1.0 / (2.0 * detector_de_over_mc2)) + 11.0 / 24.0 - 1.0 / 5.0
    return (-alpha / (3.0 * math.pi) * bracket * q2_over_mu2, alpha / (4.0 * math.pi))


def nonradiative_cross_section_factor(q2_over_mu2: float, detector_de_over_mc2: float,
                                      alpha: float) -> float:
    """sigma_N / sigma0 = 1 - (2 alpha/3 pi)(log(mc^2/2 dE) + 5/6 - 1/5) q^2/mu^2
    (the moment term folded in)."""
    _check_threshold(detector_de_over_mc2)
    bracket = math.log(1.0 / (2.0 * detector_de_over_mc2)) + 5.0 / 6.0 - 1.0 / 5.0
    return 1.0 - 2.0 * alpha / (3.0 * math.pi) * q2_over_mu2 * bracket


def soft_bremsstrahlung_probability(r1: float, r2: float, q2_over_mu2: float,
                                    alpha: float) -> float:
    """W_R(r1, r2)/|M0|^2 = (2 alpha / 3 pi) log(r2/r1) q^2/mu^2: total
    emission probability into photon frequencies r1 < k < r2 << |q|."""
    if not 0.0 < r1 <= r2:
        raise DomainError("need 0 < r1 <= r2")
    return 2.0 * alpha / (3.0 * math.pi) * math.log(r2 / r1) * q2_over_mu2


def observable_scattering_probability(split_r: float, detector_de: float,
                                      q2_over_mu2: float,
                                      alpha: float) -> float:
    """W_N(virtual photons down to split_r) + W_R(split_r .. detector_de),
    per |M0|^2.  Independent of the internal split point: that is the
    infrared cancellation."""
    if not 0.0 < split_r <= detector_de:
        raise DomainError("need 0 < split_r <= detector threshold")
    w_n = nonradiative_cross_section_factor(q2_over_mu2, split_r, alpha)
    return w_n + soft_bremsstrahlung_probability(split_r, detector_de,
                                                 q2_over_mu2, alpha)


# ---------------------------------------------------------------------------
# Total (radiative + nonradiative) cross-section correction.

def _subtracted_lambda_integral(theta: float, scheme: str = "closed") -> float:
    """I(theta) = int_0^1 (2 lam/(1-lam^2)) (g(lam) - 1) d lam for
    0 < theta <= pi, finite by construction.

    scheme="closed" gives the result.  Partial fractions of the rational
    integrand give I = [2 ln 2 + c ln(2(1-c)) - (pi-theta) sin theta]/(1+c),
    c = cos(theta), which loses digits as theta -> pi.  It is evaluated in
    the half-angle form I = 2 ln 2 + (c ln S - (pi-theta) S C)/C^2, with
    S = sin(theta/2) and C = sin((pi-theta)/2), which tends to
    I(pi) = 2 ln 2 - 3/2; ln S is taken as log1p(-C^2)/2 when S > 0.7.  No
    quadrature, no scipy.

    The two oracle routes integrate the definitional integrand in
    x = 1 - lam, so they check the algebra behind the closed form.  Neither
    evaluates the removable 0/0 at x = 0.
    - "adaptive": QUADPACK (numerics.quad, tol 1e-12), for theta >= 1e-100;
      below about 1e-120 it raises NumericError.
    - "gauss": numerics.gauss (tol 1e-10), for theta >= 0.1.  The integrand
      peaks at lam = 1 with a width of about theta, so below about 0.07 the
      64- and 32-node rules disagree and it raises NumericError instead of
      returning an unchecked value.
    """
    if scheme == "closed":
        sin_half = math.sin(0.5 * theta)
        cos_half = math.sin(0.5 * (math.pi - theta))
        if cos_half == 0.0:  # theta = pi
            return 2.0 * math.log(2.0) - 1.5
        if sin_half > 0.7:
            log_sin_half = 0.5 * math.log1p(-cos_half * cos_half)
        elif theta > 1e-8:
            log_sin_half = math.log(sin_half)
        else:  # sin(theta/2) = theta/2 to rounding, but theta/2 loses bits if subnormal
            log_sin_half = math.log(theta) - math.log(2.0)
        return 2.0 * math.log(2.0) + (math.cos(theta) * log_sin_half
                                      - (math.pi - theta) * sin_half * cos_half) / cos_half**2

    q2 = 4.0 * math.sin(0.5 * theta) ** 2

    def integrand(x):
        # at lam = 1 - x, where 1 - lam^2 = x (1 + lam).  The Coulomb form
        # factor g(lam) = lam q^2/|q_lam|^2, normalized to g(1) = 1, has
        # |q_lam|^2 = x^2 + lam q^2 in units of p^2, with q^2 = 4 sin^2(theta/2);
        # taking x and q^2, not lam and cos(theta), keeps the peak at lam = 1
        # (width about theta) free of cancellation at small theta.  x is a
        # float or a numpy array.
        lam = 1.0 - x
        lam_q2 = lam * q2
        return 2.0 * lam * (lam_q2 / (x * x + lam_q2) - 1.0) / (x * (1.0 + lam))

    what = "subtracted lambda integral"
    if scheme == "adaptive":
        return numerics.quad(integrand, 0.0, 1.0, tol=1e-12, what=what)
    if scheme == "gauss":
        return numerics.gauss(integrand, 0.0, 1.0, tol=1e-10, what=what)
    raise DomainError(f"unknown quadrature scheme {scheme!r}")


def total_scattering_correction(kinetic_t_over_mc2: float, theta: float,
                                detector_de_over_mc2: float | None,
                                alpha: float,
                                scheme: str = "closed") -> float:
    """sigma_T / sigma0 for a Coulomb potential in the nonrelativistic
    window: 1 - (8 alpha / 3 pi) beta^2 sin^2(theta/2) [log(mc^2/2T) +
    f(theta)].  Carries no detector threshold: the dE passed in cancels
    identically between the virtual and real pieces.

    The angle integral comes from _subtracted_lambda_integral: by default
    its closed form (half-angle branch near theta = pi), or one of its
    oracle routes, scheme="adaptive" (QUADPACK) or scheme="gauss"
    (numerics.gauss, theta >= 0.1)."""
    t = kinetic_t_over_mc2
    if not 0.0 < t <= 0.2:
        raise DomainError("kinetic energy outside the nonrelativistic window")
    if t < sys.float_info.min:   # beta^2 and q^2 would be subnormal
        raise DomainError("kinetic energy below the smallest normal float")
    if not 0.0 < theta < math.pi:
        raise DomainError("need 0 < theta < pi")
    beta2 = 2.0 * t  # NR
    q2 = 4.0 * beta2 * math.sin(theta / 2.0) ** 2
    coef = 2.0 * alpha / (3.0 * math.pi) * q2
    de = detector_de_over_mc2 if detector_de_over_mc2 is not None else t / 100.0
    if not 0.0 < de <= t:
        raise DomainError("detector threshold must lie in (0, T]")
    # nonradiative piece with explicit detector threshold ...
    ratio_n = nonradiative_cross_section_factor(q2, de, alpha)
    # ... plus the radiative piece: subtracted integral + its analytic log,
    # log(T/dE) exactly cancelling the threshold above.
    ratio_r = coef * (_subtracted_lambda_integral(theta, scheme) + math.log(t / de))
    return ratio_n + ratio_r


def total_correction_f_theta(theta: float, scheme: str = "closed") -> float:
    """The angle function f(theta) in the assembled correction, for
    0 < theta <= pi: 19/30 - int_0^1 (2 lam/(1-lam^2))(g(lam)-1) d lam.
    The integral is _subtracted_lambda_integral's closed form (half-angle
    branch near theta = pi) unless scheme names one of its oracle routes,
    "adaptive" (QUADPACK) or "gauss" (numerics.gauss, theta >= 0.1)."""
    if not 0.0 < theta <= math.pi:
        raise DomainError("need 0 < theta <= pi")
    return 19.0 / 30.0 - _subtracted_lambda_integral(theta, scheme)


# ---------------------------------------------------------------------------
# Anomalous magnetic moment.

KARPLUS_KROLL_COEFF = 2.973


def anomalous_moment(order: int, alpha: float) -> float:
    """dM/M: alpha/2pi at first order; the quoted fourth-order value
    subtracts 2.973 (alpha/pi)^2."""
    if order == 1:
        return alpha / (2.0 * math.pi)
    if order == 2:
        return alpha / (2.0 * math.pi) - KARPLUS_KROLL_COEFF * (alpha / math.pi) ** 2
    raise DomainError("order must be 1 or 2")


# ---------------------------------------------------------------------------
# Level shifts: fluctuation estimate, nonrelativistic log, full assembly.

def alpha3_ry_mc(constants: Constants) -> float:
    """(alpha^3 / 3 pi) Ry in megacycles: the Lamb-shift frequency unit."""
    return constants.alpha**3 / (3.0 * math.pi) * constants.rydberg_hz / 1e6


def welton_shift(r_cut: float | None, k_h: float | None, constants: Constants) -> float:
    """Fluctuation estimate of the 2s-2p shift in megacycles:
    (alpha^3/3pi) Ry log(1/(R K_H)); None takes R = hbar/mc and
    K_H = Ry/4 hbar c, so that R K_H = alpha^2/8."""
    alpha = constants.alpha
    r_cut = 1.0 if r_cut is None else r_cut
    k_h = alpha**2 / 8.0 if k_h is None else k_h
    if r_cut <= 0 or k_h <= 0:
        raise DomainError("cutoffs must be positive")
    rk = r_cut * k_h
    if rk >= 1.0:
        raise DomainError("cutoff product must be < 1 for a positive log")
    return alpha3_ry_mc(constants) * math.log(1.0 / rk)


def bethe_log_shift(e_av_over_ry: float, k_over_mc2: float, constants: Constants) -> float:
    """Nonrelativistic 2s shift in megacycles: (alpha^3/3pi) Ry log(K/(E-E0)_av),
    with the cutoff K in units of mc^2 (K = 1 is the paper's K = mc^2)."""
    if e_av_over_ry <= 0 or k_over_mc2 <= 0:
        raise DomainError("average excitation and cutoff must be positive")
    log_arg = k_over_mc2 * constants.mc2_over_ry / e_av_over_ry
    return alpha3_ry_mc(constants) * math.log(log_arg)


def sigma_dot_l_eigenvalue(ell: int, j: float) -> int:
    """Eigenvalue q of sigma.L/hbar: ell for j = ell + 1/2, -(ell+1) for
    j = ell - 1/2."""
    if ell < 0:
        raise DomainError("orbital quantum number must be nonnegative")
    if abs(j - (ell + 0.5)) < 1e-9:
        return ell
    if abs(j - (ell - 0.5)) < 1e-9 and ell >= 1:
        return -(ell + 1)
    raise DomainError(f"j = {j} incompatible with ell = {ell}")


def level_shift(n: int, ell: int, j: float, e_av_over_ry: float,
                constants: Constants) -> float:
    """Radiative level shift in megacycles.

    s states: (8 alpha^3/3 pi n^3) Ry [log(mc^2/2(E-E0)av) + 5/6 - 1/5];
    ell != 0: +- (alpha^3/2 pi n^3) Ry / ((ell+1/2)(ell+1)) or
    / (ell (ell+1/2)) for j = ell +- 1/2, from the 1/r^3 average.
    """
    if n < 1 or ell >= n:
        raise DomainError("need 0 <= ell < n")
    alpha = constants.alpha
    ry_mc = constants.rydberg_hz / 1e6
    if ell == 0:
        bracket = (math.log(constants.mc2_over_ry / (2.0 * e_av_over_ry))
                   + 5.0 / 6.0 - 1.0 / 5.0)
        return 8.0 * alpha**3 / (3.0 * math.pi * n**3) * ry_mc * bracket
    q = sigma_dot_l_eigenvalue(ell, j)
    if q == ell:
        return alpha**3 / (2.0 * math.pi * n**3) * ry_mc / ((ell + 0.5) * (ell + 1.0))
    return -alpha**3 / (2.0 * math.pi * n**3) * ry_mc / (ell * (ell + 0.5))


class LambBudget(namedtuple("LambBudget", "bethe_term moment_term uehling_term")):
    """The 2s - 2p1/2 splitting decomposed into its three physical pieces
    (megacycles): the electric (Bethe-log) term, the magnetic-moment term on
    the 2p1/2 level, and the vacuum-polarization (Uehling) term."""

    __slots__ = ()

    @property
    def total(self) -> float:
        return self.bethe_term + self.moment_term + self.uehling_term


def lamb_shift_full(e_av_over_ry: float, constants: Constants) -> LambBudget:
    """Full 2s - 2p1/2 shift: (alpha^3/3pi) Ry [log(mc^2/2(E-E0)av) + 5/6
    - 1/5 + 1/8], budgeted as log + 5/6 (electric), +1/8 (moment), -1/5
    (vacuum polarization)."""
    if e_av_over_ry <= 0:
        raise DomainError("average excitation energy must be positive")
    unit = alpha3_ry_mc(constants)
    # halving first: 2 * e_av overflows for e_av above half the float range
    log_term = math.log(constants.mc2_over_ry / 2.0 / e_av_over_ry)
    return LambBudget(bethe_term=unit * (log_term + 5.0 / 6.0),
                      moment_term=unit / 8.0,
                      uehling_term=-unit / 5.0)
