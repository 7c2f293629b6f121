import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qed51 import processes as pr
from qed51 import spinors
from qed51.errors import DomainError, NumericError, PoleError
from qed51.dirac import I4, slash, spur
from qed51.kinematics import (ElectronState, FourVector, electron_at_rest,
                              electron_from_energy, moller_cm_angle, moller_cm_momenta,
                              two_body_cross_section)

ALPHA = 1.0 / 137.036


# ---------------------------------------------------------------------------
# Moller.

# The closed form evaluated in 60-digit mpmath at the same float lab angle:
# (gamma, degrees, dsigma/dOmega* in r0^2).  At 1e-6 and 89.999999 degrees
# 1 - x*x with x = cos theta* cancels to a 16% to 500% error.
MOLLER_REFERENCES = [
    (1.2, 1e-06, 7.2871042663483780458e+31),
    (1.2, 0.001, 72871042658982535248.0),
    (1.2, 30.0, 88.655534685700048815),
    (1.2, 89.999999, 1.0669049580831513895e+32),
    (2.0, 1e-06, 3.1931311204970170211e+30),
    (2.0, 0.001, 3193131121023885274.2),
    (2.0, 30.0, 5.4166666666666683242),
    (2.0, 89.999999, 1.6165226637623499747e+31),
    (5.0, 1e-06, 1.5591460549301855386e+29),
    (5.0, 0.001, 155914605663364556.56),
    (5.0, 30.0, 0.9375),
    (5.0, 89.999999, 1.2629083310643358075e+31),
]


@pytest.mark.parametrize("gamma, deg, ref", MOLLER_REFERENCES)
def test_moller_dcs_matches_mpmath_references(gamma, deg, ref):
    assert abs(pr.moller_dcs(gamma, math.radians(deg), ALPHA) / ref - 1.0) < 1e-14


def test_moller_spin_term_vanishes_nonrelativistically():
    for gamma, bound in ((1.01, 2e-4), (1.001, 2e-6)):
        # the spin term 2 (gamma+1)/(gamma^2 beta^4) ((gamma-1)/2gamma)^2 (1 + 4/(1 - x^2))
        beta2 = 1.0 - 1.0 / gamma**2
        x = moller_cm_angle(gamma, 0.4)
        spin = (2.0 * (gamma + 1.0) / (gamma**2 * beta2**2)
                * ((gamma - 1.0) / (2.0 * gamma)) ** 2 * (1.0 + 4.0 / (1.0 - x * x)))
        assert spin / pr.moller_dcs(gamma, 0.4, ALPHA) < bound


def test_moller_exchange_symmetry_in_x():
    # the closed-form bracket depends on x only through x^2
    gamma = 2.5
    beta2 = 1.0 - 1.0 / gamma**2

    def bracket(x):
        one = 1.0 - x * x
        return (4.0 / one**2 - 3.0 / one
                + ((gamma - 1.0) / (2 * gamma)) ** 2 * (1.0 + 4.0 / one))

    for x in (0.1, 0.45, 0.8):
        assert bracket(x) == bracket(-x)


def test_moller_domain_errors():
    with pytest.raises(DomainError):
        pr.moller_dcs(1.0, 0.3, ALPHA)
    with pytest.raises(DomainError):
        pr.moller_dcs(2.0, 0.0, ALPHA)
    with pytest.raises(DomainError):
        pr.moller_dcs(2.0, math.pi / 2, ALPHA)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.01, max_value=50.0),
       st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True,
                 exclude_max=True))
@example(2.0, math.radians(1e-160))
@example(2.0, math.radians(1e-8))
@example(50.0, math.nextafter(math.pi / 2, 0.0))
def test_moller_dcs_finite_positive_or_numeric_error(gamma, theta):
    # near theta* = 0 the value overflows, and sin^2 theta* underflows to 0
    try:
        val = pr.moller_dcs(gamma, theta, ALPHA)
    except NumericError:
        return
    assert math.isfinite(val) and val > 0.0


def _moller_dcs_per_configuration(gamma, theta):
    # the spin sum as one moller_amplitude call per configuration
    x = moller_cm_angle(gamma, theta)
    p1, p2, p1p, p2p = moller_cm_momenta(gamma, x)
    legs = [spinors.plane_wave_spinors(ElectronState(p), +1) for p in (p1, p2, p1p, p2p)]
    total = 0.0
    for u1 in legs[0]:
        for u2 in legs[1]:
            for u1p in legs[2]:
                for u2p in legs[3]:
                    k = pr.moller_amplitude(p1, u1, p2, u2, p1p, u1p, p2p, u2p, ALPHA)
                    total += abs(k) ** 2
    sigma_density = two_body_cross_section(math.sqrt(total / 4.0), p1, p2, p1p, p2p)
    return sigma_density * p1.x3**2 * abs(x) / ALPHA**2


@settings(max_examples=100, deadline=None)
@given(st.floats(1.01, 50.0), st.floats(0.01, math.pi / 2 - 0.01))
def test_moller_brute_equals_per_configuration_sum(gamma, theta):
    assert pr.moller_dcs_brute(gamma, theta, ALPHA) == _moller_dcs_per_configuration(gamma, theta)


def test_moller_brute_zero_momentum_transfer_raises(recwarn):
    # theta* rounds to pi: p2' = p1, so the exchange transfer is 0
    with pytest.raises(NumericError, match="momentum transfer"):
        pr.moller_dcs_brute(1.2, math.pi / 2 - 1e-8, ALPHA)
    assert len(recwarn) == 0


# ---------------------------------------------------------------------------
# Compton / Klein-Nishina.

def _old_compton_vertex(k, e, kp, ep):
    return (slash(e) @ slash(kp) @ slash(ep) / kp.x0
            + slash(ep) @ slash(k) @ slash(e) / k.x0)


def _kn_spin_summed_ksq_per_route(eps, theta, e, ep, route):
    # each slash taken where it is used, and the reversed vertex built for
    # both routes
    p, k, kp, pp = pr.compton_geometry(eps, theta)
    e2 = 4.0 * math.pi * ALPHA
    ops = _old_compton_vertex(k, e, kp, ep)
    ops_rev = _old_compton_vertex(k, ep, kp, e)
    if route == "trace":
        lam = slash(p) + 1j * I4
        lam_p = slash(pp) + 1j * I4
        return (e2**2 / 32.0) * spur(lam @ ops_rev @ lam_p @ ops).real
    total = 0.0
    for u in spinors.plane_wave_spinors(electron_at_rest(), +1):
        for up in spinors.plane_wave_spinors(ElectronState(pp), +1):
            total += abs(spinors.bar_sandwich(up, ops, u)) ** 2
    return (e2 / 2.0) ** 2 * total / 2.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 100.0), st.floats(0.05, math.pi), st.floats(0.0, math.pi),
       st.sampled_from([(1, 0, 0, 0), (0, 1, 0, 0)]), st.sampled_from(["trace", "spinors"]))
def test_kn_routes_equal_per_route_formulation(eps, theta, phi, incident, route):
    # e' = cos(phi) e'_in + sin(phi) e'_perp
    e_in, _ = pr.scattered_polarization_basis(theta)
    ep = FourVector(math.cos(phi) * e_in.x1, math.sin(phi), math.cos(phi) * e_in.x3, 0.0)
    e = FourVector(*incident)
    assert (pr.kn_spin_summed_ksq(eps, theta, e, ep, ALPHA, route)
            == _kn_spin_summed_ksq_per_route(eps, theta, e, ep, route))


@pytest.mark.parametrize("route", ["closed", "trace", "spinors"])
@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_kn_spin_sum_rejects_nonpositive_photon_energy(eps, route):
    e, ep = FourVector(1, 0, 0, 0), FourVector(0, 1, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nan must not reach numpy
        with pytest.raises(DomainError, match="incident frequency must be positive"):
            pr.kn_spin_summed_ksq(eps, 0.7, e, ep, ALPHA, route)


@pytest.mark.parametrize("unpolarized", [False, True])
@pytest.mark.parametrize("eps", [-1.0, math.nan])
def test_kn_dcs_rejects_negative_photon_energy(eps, unpolarized):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="photon energy must be nonnegative"):
            pr.kn_dcs(eps, 0.7, phi=0.3, unpolarized=unpolarized)


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(1e-6, 100.0), th=st.floats(1e-6, math.pi),
       phi=st.one_of(st.just(math.pi / 2), st.floats(0.0, math.pi)))
@example(eps=2.0, th=1.1, phi=0.6)
@example(eps=1.0, th=1e-6, phi=math.pi / 2)  # k0 - k0' cancels in the long form
def test_kn_dcs_matches_spin_sum_assembly(eps, th, phi):
    from qed51.kinematics import compton_shift
    e = FourVector(0.0, 1.0, 0.0, 0.0)
    a, b = math.sin(phi), math.cos(phi)
    ep = FourVector(a * math.cos(th), b, -a * math.sin(th), 0.0)
    ksq = pr.kn_spin_summed_ksq(eps, th, e, ep, ALPHA)
    k0p = compton_shift(eps, th)
    assembled = ksq * k0p**2 / (16.0 * math.pi**2 * eps**2) / ALPHA**2
    assert abs(assembled / pr.kn_dcs(eps, th, phi=phi) - 1.0) < 1e-12


def test_compton_amplitude_requires_rest_and_physical_polarization():
    p, k, kp, pp = pr.compton_geometry(1.0, 1.0)
    st = ElectronState(pp)
    u = spinors.plane_wave_spinors(ElectronState(p), +1)[0]
    up = spinors.plane_wave_spinors(st, +1)[0]
    e = FourVector(1, 0, 0, 0)
    ep = pr.scattered_polarization_basis(1.0)[0]
    val = pr.compton_amplitude(p, k, e, kp, ep, u, up, ALPHA)
    assert np.isfinite(abs(val))
    with pytest.raises(DomainError):
        pr.compton_amplitude(kp, k, e, kp, ep, u, up, ALPHA)
    with pytest.raises(DomainError):
        bad = FourVector(0, 0, 1, 0)  # longitudinal
        pr.compton_amplitude(p, k, bad, kp, ep, u, up, ALPHA)
    with pytest.raises(DomainError):
        pr.compton_amplitude(p, k, FourVector(2, 0, 0, 0), kp, ep, u, up, ALPHA)  # not unit
    with pytest.raises(DomainError):
        pr.compton_amplitude(p, FourVector(0, 0, 1, 2), e, kp, ep, u, up, ALPHA)  # off the light cone


def test_kn_classical_limit():
    for phi_deg in (0.0, 30.0, 75.0):
        phi = math.radians(phi_deg)
        val = pr.kn_dcs(1e-4, math.radians(70.0), phi=phi)
        assert abs(val - math.cos(phi) ** 2) <= 1e-3 * max(math.cos(phi) ** 2, 0.1)


def test_kn_unpolarized_nr_limit():
    for deg in (10, 60, 120, 170):
        th = math.radians(deg)
        assert abs(pr.kn_dcs(0.0, th, unpolarized=True)
                   - 0.5 * (1 + math.cos(th) ** 2)) < 1e-14


def test_kn_forward_limit_all_energies():
    for eps in (0.1, 1.0, 10.0):
        val = pr.kn_dcs(eps, 1e-6, phi=0.3)
        assert abs(val - math.cos(0.3) ** 2) < 1e-5


def test_kn_forward_backward_ratio_grows_with_energy():
    ratios = []
    for eps in (0.1, 1.0, 5.0, 20.0):
        fwd = pr.kn_dcs(eps, 1e-3, unpolarized=True)
        back = pr.kn_dcs(eps, math.pi - 1e-3, unpolarized=True)
        ratios.append(fwd / back)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_kn_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(200):
        eps = rng.uniform(0, 10)
        th = rng.uniform(1e-3, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        assert pr.kn_dcs(eps, th, phi=phi) >= 0.0
        assert pr.kn_dcs(eps, th, unpolarized=True) >= 0.0


def test_thomson_total():
    assert pr.thomson_total() == 8.0 * math.pi / 3.0
    # ratio to the classical peak value cos^2(0) = 1
    assert abs(pr.thomson_total() / pr.kn_dcs(0.0, 0.5, phi=0.0) - 8 * math.pi / 3) < 1e-12


# ---------------------------------------------------------------------------
# Annihilation.

def test_annihilation_parallel_polarizations_vanish():
    assert abs(pr.annihilation_singlet_amplitude(parallel_polarizations=True)) == 0.0
    k, kp, e, _ = pr.rest_annihilation_photons()
    rest = ElectronState(FourVector(0, 0, 0, 1.0))
    for u in spinors.plane_wave_spinors(rest, +1):
        for v in spinors.plane_wave_spinors(rest, -1):
            assert abs(pr.annihilation_amplitude(u, v, e, e, k, kp)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16))
def test_annihilation_vertex_is_compton_vertex_over_one(xs):
    k, e, kp, ep = (FourVector(*xs[i:i + 4]) for i in range(0, 16, 4))
    expect = slash(e) @ slash(kp) @ slash(ep) + slash(ep) @ slash(k) @ slash(e)
    assert pr.annihilation_vertex(k, e, kp, ep).tobytes() == expect.tobytes()


def test_annihilation_amplitudes_from_one_vertex():
    k, kp, e, ep = pr.rest_annihilation_photons()
    rest = electron_at_rest()
    us = spinors.plane_wave_spinors(rest, +1)
    vs = spinors.plane_wave_spinors(rest, -1)

    def a(i, j):
        return pr.annihilation_amplitude(us[i], vs[j], e, ep, k, kp)

    assert pr.annihilation_singlet_amplitude() == (a(0, 0) + a(1, 1)) / math.sqrt(2.0)
    assert pr.annihilation_triplet_amplitudes() == (
        a(0, 1), (a(0, 0) - a(1, 1)) / math.sqrt(2.0), a(1, 0))


def test_annihilation_singlet_magnitude():
    amp = pr.annihilation_singlet_amplitude()
    assert abs(abs(amp) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_annihilation_triplet_forbidden():
    for amp in pr.annihilation_triplet_amplitudes():
        assert abs(amp) < 1e-14


def test_annihilation_rate_and_lifetime():
    res = pr.annihilation_rate(2.0, ALPHA)
    assert abs(res.rate - 8.0 * math.pi * ALPHA**2) < 1e-15
    assert abs(res.lifetime * res.rate - 1.0) < 1e-12
    with pytest.raises(DomainError):
        pr.annihilation_rate(0.0, ALPHA)


def test_positronium_lifetime_value():
    from qed51.constants import ERA_1951
    tau = pr.positronium_lifetime(ERA_1951)
    assert abs(tau / 1.2e-10 - 1.0) < 0.05


def test_slow_annihilation_scaling():
    assert abs(pr.slow_annihilation_cross_section(1.0) - 4 * math.pi) < 1e-14
    assert abs(pr.slow_annihilation_cross_section(0.005)
               - 2 * pr.slow_annihilation_cross_section(0.01)) < 1e-10
    with pytest.raises(DomainError):
        pr.slow_annihilation_cross_section(0.0)


def test_annihilation_flux_consistency():
    # sigma * v * rho equals the rate density for unit-normalized states
    v, rho = 0.01, 3.0
    sigma = pr.slow_annihilation_cross_section(v) * ALPHA**2  # back to natural
    assert abs(sigma * v * rho - pr.annihilation_rate(rho, ALPHA).rate) < 1e-12


# ---------------------------------------------------------------------------
# Mott.

def test_mott_rutherford_limit():
    # beta -> 0: ratio to the Rutherford shape approaches 1
    for deg in (30, 90, 150):
        th = math.radians(deg)
        e_slow = 1.0 + 1e-8
        ratio = pr.mott_dcs(e_slow, th, 1.0, ALPHA) / pr.rutherford_dcs(e_slow, th, 1.0, ALPHA)
        assert abs(ratio - 1.0) < 1e-7


def test_mott_backscatter_spin_factor():
    energy = 1.5
    beta2 = 1.0 - 1.0 / energy**2
    ratio = pr.mott_dcs(energy, math.pi, 1.0, ALPHA) / pr.rutherford_dcs(energy, math.pi, 1.0, ALPHA)
    assert abs(ratio - (1.0 - beta2)) < 1e-12


def test_mott_forward_divergence_guard():
    # E <= m and theta outside (0, pi] are domain errors, for the Rutherford
    # shape as for the Mott cross section
    for dcs in (pr.mott_dcs, pr.rutherford_dcs):
        for energy, theta in ((1.5, 0.0), (0.9, 1.0), (0.5, 1.0), (1.0, 1.0),
                              (1.5, -1.0), (1.5, 4.0)):
            with pytest.raises(DomainError):
                dcs(energy, theta, 1.0, ALPHA)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.01, max_value=50.0),
       st.floats(min_value=0.0, max_value=math.pi, exclude_min=True))
@example(1.5, math.radians(1e-170))
@example(1.5, math.radians(1e-160))
@example(1.5, math.radians(1e-100))
@example(1.5, 5e-324)
def test_mott_dcs_finite_positive_or_numeric_error(energy, theta):
    # as theta -> 0 the value grows as 1/q^4 past the float range, and q^2
    # underflows to 0
    try:
        val = pr.mott_dcs(energy, theta, 79.0, ALPHA)
    except NumericError:
        return
    assert math.isfinite(val) and val > 0.0


@pytest.mark.parametrize("energy, theta", [(1.5, 1e-160),
                                           (2.879959149498619, 1.105074068495288e-106)])
def test_rutherford_overflow_is_a_numeric_error_as_for_mott(energy, theta):
    # |V(q)| overflows to inf at the first point; squaring it overflows at the second
    for dcs in (pr.mott_dcs, pr.rutherford_dcs):
        with pytest.raises(NumericError, match="cross section overflows"):
            dcs(energy, theta, 1.0, ALPHA)


def test_coulomb_formfactor():
    assert abs(pr.coulomb_formfactor(2.0, 3.0, ALPHA)
               - 4 * math.pi * 3.0 * ALPHA / 4.0) < 1e-15
    with pytest.raises(DomainError):
        pr.coulomb_formfactor(0.0, 1.0, ALPHA)


# ---------------------------------------------------------------------------
# Bremsstrahlung / pair creation matrix elements.

def _soft_setup(v, k0):
    energy = math.sqrt(1.0 + v * v)
    p = FourVector(0, 0, v, energy)
    theta = math.pi / 3
    pp = FourVector(0, v * math.sin(theta), v * math.cos(theta), energy)
    kp = FourVector(k0, 0, 0, k0)            # perpendicular to q: p.k' = p'.k'
    ep = FourVector(0, 1, 0, 0)
    u = spinors.plane_wave_spinors(ElectronState(p), +1)[0]
    up = spinors.plane_wave_spinors(ElectronState(pp), +1)[0]
    return p, u, pp, up, kp, ep


def test_soft_photon_limit():
    ff = lambda q: 1.0
    p, u, pp, up, kp, ep = _soft_setup(0.05, 1e-6)
    m1 = pr.bremsstrahlung_me(p, u, pp, up, kp, ep, ff, ALPHA)
    m0 = pr.elastic_me(p, u, pp, up, ff, ALPHA)
    soft = pr.soft_photon_factor(p, pp, kp, ep)
    assert abs(m1 / (soft * m0) - 1.0) < 1e-6


def test_soft_photon_linear_scaling():
    ff = lambda q: 1.0
    errs = []
    for k0 in (1e-4, 1e-5):
        p, u, pp, up, kp, ep = _soft_setup(0.05, k0)
        m1 = pr.bremsstrahlung_me(p, u, pp, up, kp, ep, ff, ALPHA)
        m0 = pr.elastic_me(p, u, pp, up, ff, ALPHA)
        soft = pr.soft_photon_factor(p, pp, kp, ep)
        errs.append(abs(m1 / (soft * m0) - 1.0))
    assert abs(errs[0] / errs[1] - 10.0) < 0.5


def test_soft_photon_exact_residual_identity():
    # In the symmetric configuration the exact residual is
    # e^2 f k0' (u'bar e'slash u)/(p.k'); the decomposition is exact.
    ff = lambda q: 1.0
    e2 = 4.0 * math.pi * ALPHA
    p, u, pp, up, kp, ep = _soft_setup(0.05, 1e-4)
    m1 = pr.bremsstrahlung_me(p, u, pp, up, kp, ep, ff, ALPHA)
    m0 = pr.elastic_me(p, u, pp, up, ff, ALPHA)
    soft = pr.soft_photon_factor(p, pp, kp, ep)
    from qed51.dirac import slash
    residual = e2 * kp.x0 * complex(spinors.adjoint(up) @ slash(ep) @ u) / p.dot(kp)
    assert abs(m1 - soft * m0 - residual) < 1e-12 * abs(m1)


def test_bremsstrahlung_gauge_invariance():
    ff = lambda q: 1.0 / max(q.x1**2 + q.x2**2 + q.x3**2, 1e-30)
    p, u, pp, up, kp, ep = _soft_setup(0.4, 1e-2)
    scale = abs(pr.bremsstrahlung_me(p, u, pp, up, kp, ep, ff, ALPHA))
    ward = abs(pr.bremsstrahlung_me(p, u, pp, up, kp, kp, ff, ALPHA))
    assert ward < 1e-10 * scale


def test_paircreation_crossing():
    # pair creation equals bremsstrahlung under the stated leg relabeling
    ff = lambda q: 1.0
    electron = electron_from_energy(1.4, (0.2, 0.1, 0.9))
    positron = electron_from_energy(1.2, (-0.4, 0.3, 0.5))
    kp = FourVector(0.3, 0.0, 0.4, 0.5)
    ep = FourVector(0.8, 0.0, -0.6, 0.0)
    u = spinors.plane_wave_spinors(electron, +1)[0]
    u_plus = spinors.plane_wave_spinors(positron, -1)[1]
    pair = pr.paircreation_me(electron.p, u, positron.p, u_plus, kp, ep, ff, ALPHA)
    crossed = pr.bremsstrahlung_me(-1.0 * positron.p, u_plus, electron.p, u,
                                   -1.0 * kp, ep, ff, ALPHA)
    assert abs(pair - crossed) < 1e-12 * max(1.0, abs(pair))


def test_internal_line_on_shell_raises_pole_error():
    # k' = 0 puts the p - k' line of both elements exactly on the mass shell
    # of an electron at rest, p.p + 1 = 0
    ff = lambda q: 1.0
    p = FourVector(0, 0, 0, 1.0)
    u = spinors.plane_wave_spinors(ElectronState(p), +1)[0]
    zero = FourVector(0, 0, 0, 0)
    ep = FourVector(0, 1, 0, 0)
    with pytest.raises(PoleError):
        pr.bremsstrahlung_me(p, u, p, u, zero, ep, ff, ALPHA)
    with pytest.raises(PoleError):
        pr.paircreation_me(p, u, p, u, zero, ep, ff, ALPHA)


# ---------------------------------------------------------------------------
# O16 pair emission.

def test_o16_lifetime_rounded_chain():
    tau = pr.o16_lifetime()
    assert 0.5e-13 <= tau <= 2.0e-13


def test_o16_spectrum_shape():
    de = 11.74
    # concentrated in the same hemisphere: forward exceeds backward
    fwd = pr.o16_pair_spectrum(de / 2, 0.3, de)
    back = pr.o16_pair_spectrum(de / 2, math.pi - 0.3, de)
    assert fwd > back
    # predominantly equal energies
    assert pr.o16_pair_spectrum(de / 2, 1.0, de) > pr.o16_pair_spectrum(de / 8, 1.0, de)
    with pytest.raises(DomainError):
        pr.o16_pair_spectrum(1.0, 1.0, 1.5)


# ---------------------------------------------------------------------------
# Dipole emission and line shape.

def test_line_shape_peak_location():
    e0, en, de0, den = 5.0, 1.0, 0.02, -0.01
    g0, gn = 0.05, 0.03
    ks = np.linspace(3.5, 4.5, 20001)
    vals = [pr.line_shape(e0, en, de0, den, g0, gn, k) for k in ks]
    k_peak = ks[int(np.argmax(vals))]
    expect = (e0 + de0) - (en + den)  # the level difference including shifts
    assert abs(k_peak - expect) < (ks[1] - ks[0]) * 1.5


def test_line_shape_fwhm():
    e0, en, de0, den = 5.0, 1.0, 0.0, 0.0
    g0, gn = 0.04, 0.02
    peak_k = e0 - en
    peak_val = pr.line_shape(e0, en, de0, den, g0, gn, peak_k)
    from scipy.optimize import brentq
    half = peak_val / 2.0
    f = lambda k: pr.line_shape(e0, en, de0, den, g0, gn, k) - half
    lo = brentq(f, peak_k - 10 * (g0 + gn), peak_k)
    hi = brentq(f, peak_k, peak_k + 10 * (g0 + gn))
    assert abs((hi - lo) / (g0 + gn) - 1.0) < 1e-6  # the sum of the two widths


def test_line_shape_total_integral_scales_with_upper_width():
    from scipy.integrate import quad
    e0, en = 5.0, 1.0
    for g0, gn in ((0.04, 0.02), (0.004, 0.002), (0.004, 0.07)):
        val, _ = quad(lambda k: pr.line_shape(e0, en, 0, 0, g0, gn, k),
                      -np.inf, np.inf, limit=400)
        assert abs(val / (2.0 * math.pi / g0) - 1.0) < 1e-6


def test_line_shape_narrow_width_concentrates():
    e0, en = 5.0, 1.0
    wide = pr.line_shape(e0, en, 0, 0, 0.1, 0.1, 4.0)
    narrow = pr.line_shape(e0, en, 0, 0, 1e-4, 1e-4, 4.0)
    assert narrow > wide
    off_peak = pr.line_shape(e0, en, 0, 0, 1e-4, 1e-4, 4.5)
    assert narrow / off_peak > 1e5


# ---------------------------------------------------------------------------
# Electron-positron (amplitude level).

def test_bhabha_amplitude_channels():
    # head-on e- e+ with equal energies; scattering through theta in CM
    E = 1.25
    pmag = math.sqrt(E * E - 1.0)
    p_in = FourVector(0, 0, pmag, E)
    q_in = FourVector(0, 0, -pmag, E)
    th = 0.7
    p_out = FourVector(pmag * math.sin(th), 0, pmag * math.cos(th), E)
    q_out = -1.0 * p_out + FourVector(0, 0, 0, 2 * E)
    u_in = spinors.plane_wave_spinors(ElectronState(p_in), +1)[0]
    u_out = spinors.plane_wave_spinors(ElectronState(p_out), +1)[0]
    v_in = spinors.plane_wave_spinors(ElectronState(q_in), -1)[0]
    v_out = spinors.plane_wave_spinors(ElectronState(q_out), -1)[0]
    amp = pr.bhabha_amplitude(p_in, u_in, q_in, v_in, p_out, u_out,
                              q_out, v_out, ALPHA)
    assert np.isfinite(abs(amp)) and abs(amp) > 0.0
    # hand-assembled two-channel expression with the stated substitutions
    e2 = 4.0 * math.pi * ALPHA
    t_den = (p_in - p_out).dot(p_in - p_out)
    s_den = (p_in + q_in).dot(p_in + q_in)
    direct = exch = 0.0j
    from qed51.dirac import GAMMA
    for g in GAMMA:
        direct += (spinors.adjoint(u_out) @ g @ u_in) * (spinors.adjoint(v_in) @ g @ v_out)
        exch += (spinors.adjoint(v_in) @ g @ u_in) * (spinors.adjoint(u_out) @ g @ v_out)
    expect = -1j * e2 * (direct / t_den - exch / s_den)
    assert amp == expect
    # the annihilation channel carries the timelike total-momentum invariant
    assert s_den < -4.0 + 1e-12


def test_bhabha_conservation_enforced():
    E = 1.25
    pmag = math.sqrt(E * E - 1.0)
    p_in = FourVector(0, 0, pmag, E)
    q_in = FourVector(0, 0, -pmag, E)
    u = spinors.plane_wave_spinors(ElectronState(p_in), +1)[0]
    v = spinors.plane_wave_spinors(ElectronState(q_in), -1)[0]
    with pytest.raises(DomainError):
        pr.bhabha_amplitude(p_in, u, q_in, v, p_in, u, p_in, v, ALPHA)


def test_differential_cross_sections_nonnegative():
    rng = np.random.default_rng(77)
    for _ in range(100):
        gamma = rng.uniform(1.01, 8.0)
        theta = rng.uniform(1e-2, math.pi / 2 - 1e-2)
        assert pr.moller_dcs(gamma, theta, ALPHA) >= 0.0
        energy = rng.uniform(1.01, 5.0)
        assert pr.mott_dcs(energy, rng.uniform(1e-2, math.pi), 1.0, ALPHA) >= 0.0
        eps = rng.uniform(0.0, 5.0)
        assert pr.kn_dcs(eps, rng.uniform(0.0, math.pi), unpolarized=True) >= 0.0


def test_dipole_rate_against_hydrogen_2p_lifetime():
    # Independent anchor: the 2p0 -> 1s rate. Transition frequency
    # (3/8) alpha^2 mc^2, dipole length (128 sqrt2 / 243) a0; the rate in
    # laboratory units must come out at the known 6.27e8 1/s.
    from qed51.constants import MODERN
    alpha = MODERN.alpha
    omega = 3.0 / 8.0 * alpha**2
    dipole = 128.0 * math.sqrt(2.0) / 243.0 / alpha  # a0 = 1/alpha
    rate_natural = pr.dipole_emission_rate(omega, dipole, alpha)
    rate_si = rate_natural / MODERN.hbar_over_mc2_s
    assert abs(rate_si / 6.27e8 - 1.0) < 0.01
