"""Tree-level matrix elements and cross sections for the scattering,
annihilation, and emission processes worked out in full, each paired with a
brute-force spin/polarization-sum oracle.

Units: natural (hbar = c = mass = 1, e^2 = 4 pi alpha).  Differential cross
sections are returned per steradian in units of the squared classical
electron radius r0^2 = alpha^2, so the classical Thomson limit is cos^2 phi
and the total Thomson cross section is 8 pi / 3.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import numerics
from .constants import (C_CM_S, O16_ALPHA, O16_HBAR_C_MEV_CM, O16_HBAR_MEV_S,
                        O16_MC2_MEV)
from .errors import DomainError, NumericError
from .kinematics import (ElectronState, FourVector, PhotonState, check_conservation,
                         compton_shift, electron_at_rest, moller_cm_angle,
                         moller_cm_momenta, two_body_cross_section)

TWO_PI = 2.0 * math.pi


class DecayResult(namedtuple("DecayResult", "rate lifetime")):
    """A decay rate, in natural units (1/mc^2 time) unless stated otherwise,
    and the lifetime 1/rate."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Moller scattering.

def moller_dcs(gamma: float, theta: float, alpha: float) -> float:
    """Differential cross section dsigma/dOmega* (CM solid angle) for
    electron-electron scattering, lab angle theta against a target at rest,
    in r0^2 units.  The ((gamma-1)/2gamma)^2 term is the spin term.
    """
    if gamma <= 1.0:
        raise DomainError("need gamma > 1 (Coulomb divergence at zero velocity)")
    if not 0.0 < theta < math.pi / 2.0:
        raise DomainError("lab angle must lie strictly inside (0, pi/2)")
    beta2 = 1.0 - 1.0 / gamma**2
    # 1 - x^2 for x = cos theta* = moller_cm_angle(gamma, theta), as
    # 8 (gamma+1) s^2 cos^2 theta / d^2 with s = sin theta and
    # d = 2 + (gamma-1) s^2: 1 - x*x cancels as theta* -> 0 or pi
    s2 = math.sin(theta) ** 2
    d = 2.0 + (gamma - 1.0) * s2
    one_m_x2 = 8.0 * (gamma + 1.0) * s2 * math.cos(theta) ** 2 / (d * d)
    if one_m_x2 == 0.0:
        raise NumericError(f"Moller cross section: sin^2(theta*) underflows to 0 "
                           f"at lab angle {theta!r}")
    inv = 1.0 / one_m_x2
    bracket = (4.0 * inv * inv - 3.0 * inv
               + ((gamma - 1.0) / (2.0 * gamma)) ** 2 * (1.0 + 4.0 * inv))
    # (e_G^2 / m v^2)^2 = (alpha / beta^2)^2; dividing by r0^2 = alpha^2
    # leaves 1/beta^4.
    dcs = 2.0 * (gamma + 1.0) / (gamma**2 * beta2**2) * bracket
    if not math.isfinite(dcs):
        raise NumericError(f"Moller cross section overflows at lab angle {theta!r}")
    return dcs


def _gamma_rows(u) -> np.ndarray:
    """The four rows ubar gamma_mu of an outgoing spinor, mu = 1..4, from
    one product with the stacked gammas (each column of a gamma holds one
    nonzero entry, so every sum has one term and the rows are exact)."""
    from . import dirac, spinors

    return spinors.adjoint(u) @ dirac.GAMMA_STACK


def _current(rows, u) -> list:
    """The current ubar' gamma_mu u, mu = 1..4, from the rows of ubar'.
    row.dot(u) runs the same inner product as row @ u with less dispatch;
    the four dots stay apart, as rows @ u rounds differently."""
    return [row.dot(u) for row in rows]


def _moller_contract(j1, j2, x1, x2, q2_direct: float, q2_exch: float,
                     e2: float) -> complex:
    """-i e^2 [sum_mu j1 j2 / q2_direct - sum_mu x1 x2 / q2_exch] for the
    direct currents j1, j2 and the exchange currents x1, x2."""
    direct = exch = 0.0j
    for mu in range(4):
        direct += j1[mu] * j2[mu]
        exch += x1[mu] * x2[mu]
    return -1j * e2 * (direct / q2_direct - exch / q2_exch)


def moller_amplitude(p1, u1, p2, u2, p1p, u1p, p2p, u2p, alpha: float) -> complex:
    """Invariant matrix element envelope K (direct minus exchange):
    -i e^2 sum_mu [(u1'bar g u1)(u2'bar g u2)/(p1-p1')^2 - exchange],
    Heaviside-Lorentz normalization e^2 = 4 pi alpha."""
    e2 = 4.0 * math.pi * alpha
    q_direct = p1 - p1p
    q_exch = p1 - p2p
    rows1p, rows2p = _gamma_rows(u1p), _gamma_rows(u2p)
    return _moller_contract(_current(rows1p, u1), _current(rows2p, u2),
                            _current(rows2p, u1), _current(rows1p, u2),
                            q_direct.dot(q_direct), q_exch.dot(q_exch), e2)


def moller_dcs_brute(gamma: float, theta: float, alpha: float) -> float:
    """dsigma/dOmega* from the explicit sum over all 16 spin configurations
    of the matrix element, assembled through the general two-body
    cross-section formula.  Independent oracle for moller_dcs.

    Each call builds the 8 leg spinors; the 16 rows ubar' gamma_mu of the 4
    outgoing ones, one product with the stacked gammas per spinor; and the
    16 currents ubar' gamma_mu u, 64 dots in all, once.  It then contracts
    them for each of the 16 configurations.  Raises NumericError where a
    momentum transfer squares to 0 (theta* rounded to 0 or pi) or the spin
    sum is not finite.
    """
    from . import spinors

    x = moller_cm_angle(gamma, theta)
    p1, p2, p1p, p2p = moller_cm_momenta(gamma, x)
    states = [ElectronState(p) for p in (p1, p2, p1p, p2p)]
    legs = [spinors.plane_wave_spinors(s, +1) for s in states]
    e2 = 4.0 * math.pi * alpha
    q_direct = p1 - p1p
    q_exch = p1 - p2p
    q2_direct = q_direct.dot(q_direct)
    q2_exch = q_exch.dot(q_exch)
    if q2_direct == 0.0 or q2_exch == 0.0:
        raise NumericError(f"Moller spin sum: a momentum transfer squares to 0 at "
                           f"lab angle {theta!r}")
    rows1p = [_gamma_rows(u) for u in legs[2]]
    rows2p = [_gamma_rows(u) for u in legs[3]]
    # [outgoing spin][incoming spin] for 1'<-1, 2'<-2, 2'<-1 and 1'<-2
    j11 = [[_current(r, u) for u in legs[0]] for r in rows1p]
    j22 = [[_current(r, u) for u in legs[1]] for r in rows2p]
    j21 = [[_current(r, u) for u in legs[0]] for r in rows2p]
    j12 = [[_current(r, u) for u in legs[1]] for r in rows1p]
    total = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    k = _moller_contract(j11[c][a], j22[d][b], j21[d][a], j12[c][b],
                                         q2_direct, q2_exch, e2)
                    total += abs(k) ** 2
    if not math.isfinite(total):
        raise NumericError(f"Moller spin sum is not finite at lab angle {theta!r}")
    k_eff = math.sqrt(total / 4.0)   # average initial spins, sum final
    sigma_density = two_body_cross_section(k_eff, p1, p2, p1p, p2p)
    p_star = p1.x3
    # d2p_perp = p*^2 |x| dOmega*; the |x| cancels against the outgoing flux
    # factor already inside sigma_density, leaving |K|^2 / (16 pi^2 E*^2).
    dcs = sigma_density * p_star**2 * abs(x)
    return dcs / alpha**2  # express in r0^2


def bhabha_amplitude(p_in: FourVector, u_in, q_in: FourVector, v_in,
                     p_out: FourVector, u_out, q_out: FourVector, v_out,
                     alpha: float) -> complex:
    """Electron-positron scattering amplitude: the electron-electron matrix
    element with negative-energy wave-function substitutions for the
    positron legs (amplitude level only; no closed-form cross section is
    claimed).

    (p_in, u_in) -> (p_out, u_out) is the electron; the positron of physical
    momentum q_in -> q_out is represented by the negative-energy spinors
    v_in, v_out (the sign = -1 pair at the physical momenta).  The exchange
    denominator becomes the virtual-annihilation channel (p_in + q_in)^2.
    """
    check_conservation((p_in + q_in) - (p_out + q_out))
    return moller_amplitude(p_in, u_in, -1.0 * q_out, v_out,
                            p_out, u_out, -1.0 * q_in, v_in, alpha)


# ---------------------------------------------------------------------------
# Compton scattering / Klein-Nishina.

def _slashes(*vectors) -> list:
    from . import dirac

    return [dirac.slash(v) for v in vectors]


def _compton_vertex(s_k, s_e, s_kp, s_ep, k0: float, k0p: float) -> np.ndarray:
    """eslash k'slash e'slash / k0' + e'slash kslash eslash / k0 from the
    slashes of k, e, k' and e'."""
    return s_e @ s_kp @ s_ep / k0p + s_ep @ s_k @ s_e / k0


def compton_geometry(eps: float, theta: float):
    """(p, k, kp, pp) for a photon of energy eps (units m) hitting an
    electron at rest and scattering through theta in the 1-3 plane."""
    k0p = compton_shift(eps, theta)
    p = FourVector(0, 0, 0, 1.0)
    k = FourVector(0, 0, eps, eps)
    kp = FourVector(k0p * math.sin(theta), 0.0, k0p * math.cos(theta), k0p)
    pp = p + k - kp
    return p, k, kp, pp


def scattered_polarization_basis(theta: float):
    """Orthonormal polarizations for the scattered photon: in-plane and
    perpendicular-to-plane."""
    e_in = FourVector(math.cos(theta), 0.0, -math.sin(theta), 0.0)
    e_perp = FourVector(0.0, 1.0, 0.0, 0.0)
    return e_in, e_perp


def compton_amplitude(p: FourVector, k: FourVector, e: FourVector,
                      kp: FourVector, ep: FourVector,
                      u: np.ndarray, up: np.ndarray, alpha: float) -> complex:
    """The amplitude K = (e^2/2m) u'bar [eslash k'slash/k0' e'slash +
    e'slash kslash/k0 eslash] u for an electron initially at rest."""
    from . import spinors

    if max(abs(p.x1), abs(p.x2), abs(p.x3)) > 1e-12:
        raise DomainError("electron must be initially at rest")
    PhotonState(k, e)
    PhotonState(kp, ep)
    e2 = 4.0 * math.pi * alpha
    vertex = _compton_vertex(*_slashes(k, e, kp, ep), k.x0, kp.x0)
    return spinors.bar_sandwich(up, vertex, u) * e2 / 2.0


def kn_spin_summed_ksq(eps: float, theta: float, e: FourVector, ep: FourVector,
                       alpha: float, route: str = "closed") -> float:
    """(1/2) sum over electron spins of |K|^2 for fixed photon polarizations.

    route = "closed":   e^4/(4) {(k0-k0')^2/(k0 k0') + 4 (e.e')^2}, with the
                        bracket in the form kn_dcs uses (see _kn_bracket)
    route = "trace":    the projector-spur expression
    route = "spinors":  explicit sum over the four spinor pairs

    Both non-closed routes take the slashes of k, e, k' and e' once per
    call, each one numpy product (dirac.slash): "trace" forms the vertex and
    its reversed partner from them, adds the slashes of p and p' (6 slash
    calls) and the constant i I to make the projectors, and takes one spur;
    "spinors" forms the vertex alone (4 slash calls), each of the two rows
    u'bar vertex once, and their 4 dots with the two u, summing over u' for
    each u in turn.
    """
    e2 = 4.0 * math.pi * alpha
    if route == "closed":
        # the closed form needs no four-vectors; reject eps <= 0 and nan as
        # compton_geometry does for the other routes
        if not eps > 0:
            raise DomainError("incident frequency must be positive")
        ratio = 1.0 + eps * (1.0 - math.cos(theta))
        return e2**2 / 4.0 * _kn_bracket(eps, theta, e.dot(ep), ratio)
    from . import dirac, spinors

    p, k, kp, pp = compton_geometry(eps, theta)
    s_k, s_e, s_kp, s_ep = _slashes(k, e, kp, ep)
    ops = _compton_vertex(s_k, s_e, s_kp, s_ep, k.x0, kp.x0)
    if route == "trace":
        ops_rev = _compton_vertex(s_k, s_ep, s_kp, s_e, k.x0, kp.x0)  # reversed factor order
        lam = dirac.slash(p) + dirac.I4J
        lam_p = dirac.slash(pp) + dirac.I4J
        val = dirac.spur(lam @ ops_rev @ lam_p @ ops)
        return (e2**2 / 32.0) * val.real
    if route == "spinors":
        rows = [spinors.adjoint(up) @ ops
                for up in spinors.plane_wave_spinors(ElectronState(pp), +1)]
        total = 0.0
        for u in spinors.plane_wave_spinors(electron_at_rest(), +1):
            for row in rows:
                total += abs(complex(row.dot(u))) ** 2
        return (e2 / 2.0) ** 2 * total / 2.0
    raise DomainError(f"unknown route {route!r}")


def kn_dcs(eps: float, theta: float, phi: float | None = None,
           unpolarized: bool = False) -> float:
    """Klein-Nishina differential cross section, r0^2 per steradian.

    phi is the angle between the incident and scattered polarizations.  The
    unpolarized value sums the scattered and averages the incident
    polarizations over the two explicit orthonormal bases.
    """
    if not eps >= 0:  # nan fails too
        raise DomainError("photon energy must be nonnegative")
    ratio = 1.0 + eps * (1.0 - math.cos(theta))
    if unpolarized:
        # incident basis {x, y} for k along z; cos phi = e . e'
        cos_th = math.cos(theta)
        cc = [cos_th, 0.0, 0.0, 1.0]  # e_x.e'_in, e_x.e'_perp, e_y.e'_in, e_y.e'_perp
        total = sum(_kn_polarized(eps, theta, c, ratio) for c in cc)
        return total / 2.0
    if phi is None:
        raise DomainError("give phi or request the unpolarized value")
    return _kn_polarized(eps, theta, math.cos(phi), ratio)


def _kn_polarized(eps, theta, cos_phi, ratio):
    return 0.25 * _kn_bracket(eps, theta, cos_phi, ratio) / ratio**2


def _kn_bracket(eps, theta, cos_phi, ratio):
    """(k0 - k0')^2/(k0 k0') + 4 (e.e')^2 with k0 = eps and k0' = eps/ratio,
    written as eps^2 (1 - cos theta)^2/ratio so that k0 - k0' never cancels."""
    return (1.0 - math.cos(theta)) ** 2 * eps**2 / ratio + 4.0 * cos_phi**2


def thomson_total() -> float:
    """Total cross section in the zero-frequency limit: 8 pi / 3 (r0^2)."""
    return 8.0 * math.pi / 3.0


def thomson_total_numeric() -> float:
    """Numeric solid-angle integral of the unpolarized Klein-Nishina value
    at eps = 0, the Thomson limit."""
    return numerics.quad(
        lambda th: kn_dcs(0.0, th, unpolarized=True) * math.sin(th) * TWO_PI,
        0.0, math.pi, tol=1e-8, what="Thomson solid-angle integral")


# ---------------------------------------------------------------------------
# Two-quantum annihilation.

def annihilation_vertex(k: FourVector, e: FourVector,
                        kp: FourVector, ep: FourVector) -> np.ndarray:
    """eslash k'slash e'slash + e'slash kslash eslash (rest-frame kinematics):
    the Compton vertex with k0 = k0' = 1."""
    return _compton_vertex(*_slashes(k, e, kp, ep), 1.0, 1.0)


def annihilation_amplitude(u: np.ndarray, u_neg: np.ndarray,
                           e: FourVector, ep: FourVector,
                           k: FourVector, kp: FourVector) -> complex:
    """Matrix element u_neg-bar (eslash k'slash e'slash + e'slash kslash
    eslash) u between a positive-energy electron spinor and the
    negative-energy spinor representing the positron."""
    from . import spinors

    return spinors.bar_sandwich(u_neg, annihilation_vertex(k, e, kp, ep), u)


def rest_annihilation_photons():
    """Back-to-back photons along axis 3 with perpendicular polarizations."""
    k = FourVector(0, 0, 1.0, 1.0)
    kp = FourVector(0, 0, -1.0, 1.0)
    e = FourVector(1, 0, 0, 0)
    ep = FourVector(0, 1, 0, 0)
    return k, kp, e, ep


def _rest_annihilation(parallel_polarizations: bool):
    """a(i, j): the rest-frame matrix element between electron spinor i and
    negative-energy spinor j, with the photons and polarizations of
    rest_annihilation_photons (e' = e when parallel)."""
    from . import spinors

    k, kp, e, ep = rest_annihilation_photons()
    if parallel_polarizations:
        ep = e
    rest = electron_at_rest()
    us = spinors.plane_wave_spinors(rest, +1)
    vs = spinors.plane_wave_spinors(rest, -1)
    vertex = annihilation_vertex(k, e, kp, ep)
    return lambda i, j: spinors.bar_sandwich(vs[j], vertex, us[i])


def annihilation_singlet_amplitude(parallel_polarizations: bool = False) -> complex:
    """Singlet-channel amplitude for electron and positron at rest; the
    magnitude is 2 m sqrt(2) for perpendicular polarizations and 0 for
    parallel.

    Charge conjugation maps the rest negative-energy spinors to positron
    spinors as v1 -> spin-down, v2 -> -(spin-up); with that phase the
    antisymmetric (singlet) positronium combination is the *sum* of the
    (u1, v1) and (u2, v2) matrix elements.
    """
    a = _rest_annihilation(parallel_polarizations)
    return (a(0, 0) + a(1, 1)) / math.sqrt(2.0)


def annihilation_triplet_amplitudes(parallel_polarizations: bool = False):
    """The three triplet-channel amplitudes (m = +1, 0, -1), all zero: the
    two-photon decay of the spin-one state is forbidden."""
    a = _rest_annihilation(parallel_polarizations)
    return (
        a(0, 1),   # both spins up (v2 ~ -positron-up)
        (a(0, 0) - a(1, 1)) / math.sqrt(2.0),
        a(1, 0),
    )


def annihilation_rate(relative_density: float, alpha: float) -> DecayResult:
    """Singlet two-quantum annihilation rate w = 4 pi c r0^2 rho (natural
    units: 4 pi alpha^2 rho) and its lifetime."""
    if relative_density <= 0:
        raise DomainError("relative density must be positive")
    rate = 4.0 * math.pi * alpha**2 * relative_density
    if rate == 0.0:
        raise NumericError(f"annihilation rate underflows to 0 at relative density "
                           f"{relative_density!r}")
    return DecayResult(rate=rate, lifetime=1.0 / rate)


def positronium_lifetime(constants) -> float:
    """Ground-state singlet lifetime in seconds:
    rho = 1/(8 pi a0^3) gives tau = 2 alpha^-5 hbar/mc^2."""
    alpha = constants.alpha
    a0 = 1.0 / alpha                       # Bohr radius, natural units
    rho = 1.0 / (8.0 * math.pi * a0**3)
    tau_natural = annihilation_rate(rho, alpha).lifetime
    return tau_natural * constants.hbar_over_mc2_s


def slow_annihilation_cross_section(v: float) -> float:
    """sigma = 4 pi (c/v) in r0^2 units, the 1/v law; valid for v << c."""
    if v <= 0:
        raise DomainError("relative velocity must be positive")
    return 4.0 * math.pi / v


# ---------------------------------------------------------------------------
# Mott scattering.

def coulomb_formfactor(q_mag: float, z_charge: float, alpha: float) -> float:
    """Fourier transform of the Coulomb potential energy, |V(q)| = Z e^2/q^2
    (Heaviside-Lorentz, e^2 = 4 pi alpha)."""
    if q_mag <= 0:
        raise DomainError("momentum transfer must be nonzero")
    q2 = q_mag**2
    if q2 == 0.0:
        raise NumericError(f"|V(q)| overflows: q = {q_mag!r} squares to 0")
    return 4.0 * math.pi * z_charge * alpha / q2


def _check_coulomb_domain(energy: float, theta: float) -> None:
    if energy <= 1.0:
        raise DomainError("need E > m")
    if not 0.0 < theta <= math.pi:
        raise DomainError(f"theta must lie in (0, pi] (theta = 0 is the Coulomb forward "
                          f"singularity), got {theta!r} rad ({math.degrees(theta):g} deg)")


def mott_dcs(energy: float, theta: float, z_charge: float, alpha: float) -> float:
    """Mott cross section (E/2pi)^2 (1 - beta^2 sin^2(theta/2)) |V(q)|^2,
    r0^2 per steradian.  alpha cancels against r0^2 = alpha^2: |V(q)|/alpha
    = 4 pi Z/q^2 is formed directly, so the value does not depend on it."""
    return _coulomb_dcs(energy, theta, z_charge, "Mott", spin=True)


def rutherford_dcs(energy: float, theta: float, z_charge: float, alpha: float) -> float:
    """Spinless beta -> 0 shape, for limit checks: mott_dcs with the spin
    factor set to 1 (r0^2 per steradian; alpha cancels as in mott_dcs)."""
    return _coulomb_dcs(energy, theta, z_charge, "Rutherford", spin=False)


def _coulomb_dcs(energy: float, theta: float, z_charge: float, name: str,
                 spin: bool) -> float:
    _check_coulomb_domain(energy, theta)
    pmag = math.sqrt(energy**2 - 1.0)
    beta2 = (pmag / energy) ** 2
    q = 2.0 * pmag * math.sin(theta / 2.0)
    if q == 0.0:
        raise NumericError(f"{name} cross section overflows: q rounds to 0 at theta = {theta!r}")
    vq = coulomb_formfactor(q, z_charge, 1.0)
    spin_factor = 1.0 - beta2 * math.sin(theta / 2.0) ** 2 if spin else 1.0
    try:
        sigma = (energy / TWO_PI) ** 2 * spin_factor * vq**2
    except OverflowError:
        sigma = math.inf
    if math.isinf(sigma):
        raise NumericError(f"{name} cross section overflows at theta = {theta!r}")
    return sigma


# ---------------------------------------------------------------------------
# Bremsstrahlung and pair creation (matrix elements only).

def _static_two_propagator(bra: np.ndarray, ket: np.ndarray, q: FourVector,
                           first: FourVector, second: FourVector, ep: FourVector,
                           formfactor, alpha: float) -> complex:
    """-e^2 f(q) bra-bar { eslash S(first) e'slash + e'slash S(second) eslash }
    ket with the static vertex eslash = i gamma4 and S the electron line."""
    from . import dirac, spinors
    from .propagators import IEpsilonPolicy, electron_propagator

    # internal electron lines are exact-mode propagators: PoleError on shell
    exact = IEpsilonPolicy.exact_limit()
    e2 = 4.0 * math.pi * alpha
    vertex_e = 1j * dirac.GAMMA[3]
    mid = (vertex_e @ electron_propagator(first, policy=exact) @ dirac.slash(ep)
           + dirac.slash(ep) @ electron_propagator(second, policy=exact) @ vertex_e)
    return -e2 * formfactor(q) * spinors.bar_sandwich(bra, mid, ket)


def bremsstrahlung_me(p: FourVector, u: np.ndarray, pp: FourVector, up: np.ndarray,
                      kp: FourVector, ep: FourVector, formfactor,
                      alpha: float) -> complex:
    """Matrix element for photon emission in a static external potential:
    -e^2 f(q) u'bar { eslash (p-k')-line e'slash + e'slash (p'+k')-line
    eslash } u with the static vertex eslash = i gamma4 f(q), q = p'+k'-p."""
    return _static_two_propagator(up, u, pp + kp - p, p - kp, pp + kp, ep,
                                  formfactor, alpha)


def paircreation_me(p: FourVector, u: np.ndarray, p_plus: FourVector,
                    u_plus: np.ndarray, kp: FourVector, ep: FourVector,
                    formfactor, alpha: float) -> complex:
    """Pair creation by a photon in a static potential; same two-propagator
    element with the legs relabeled (crossing): u-bar { eslash (k'-p+)-line
    e'slash + e'slash (p-k')-line eslash } u+."""
    return _static_two_propagator(u, u_plus, p + p_plus - kp, kp - p_plus, p - kp, ep,
                                  formfactor, alpha)


def soft_photon_factor(p: FourVector, pp: FourVector, kp: FourVector,
                       ep: FourVector) -> float:
    """The eikonal factor p.e'/p.k' - p'.e'/p'.k' multiplying the elastic
    element in the k' -> 0 limit."""
    return p.dot(ep) / p.dot(kp) - pp.dot(ep) / pp.dot(kp)


def elastic_me(p: FourVector, u: np.ndarray, pp: FourVector, up: np.ndarray,
               formfactor, alpha: float) -> complex:
    """Born element e f(q) (u'bar i gamma4 u) the soft limit refers to,
    times e/(hbar c) so that soft_photon_factor * elastic_me has the
    normalization of bremsstrahlung_me."""
    from . import dirac, spinors

    e2 = 4.0 * math.pi * alpha
    q = pp - p
    return e2 * formfactor(q) * spinors.bar_sandwich(up, 1j * dirac.GAMMA[3], u)


# ---------------------------------------------------------------------------
# O16 monopole pair emission (0 -> 0 transition), extreme-relativistic.

def o16_pair_spectrum(e1: float, theta: float, delta_e: float) -> float:
    """Unnormalized differential rate shape E1^2 E2^2 (1 + cos theta) sin
    theta with E2 = delta_e - E1 (extreme-relativistic)."""
    if delta_e <= 2.0:
        raise DomainError("excitation below the pair threshold")
    if not 0.0 <= e1 <= delta_e:
        raise DomainError("electron energy outside [0, delta_e]")
    e2 = delta_e - e1
    return e1**2 * e2**2 * (1.0 + math.cos(theta)) * math.sin(theta)


def o16_angular_integral() -> float:
    return numerics.quad(lambda th: (1.0 + math.cos(th)) * math.sin(th),
                         0.0, math.pi, tol=1e-8, what="O16 angular integral")


def o16_energy_angular_integral(delta_e: float) -> float:
    """The full double integral of the spectrum shape, theta inside E1;
    equals delta_e^5/15."""
    what = "O16 energy-angle integral"

    def angular(e1):
        return numerics.quad(lambda th: o16_pair_spectrum(e1, th, delta_e),
                             0.0, math.pi, tol=1e-8, what=what)

    return numerics.quad(angular, 0.0, delta_e, tol=1e-8, what=what)


def o16_total_rate(delta_e_mev: float, r0_cm: float, z_charge: float) -> float:
    """Total pair-emission rate (1/s) from the closed-form integral:
    w = (4/(375 pi)) (Z alpha)^2 (dE r0/hbar c)^4 (dE/hbar).

    This problem is worked in Gaussian-style units (Z e^2/hbar c = Z alpha).
    """
    if delta_e_mev <= 2 * O16_MC2_MEV:
        raise DomainError("excitation below the pair threshold")
    z_alpha = z_charge * O16_ALPHA
    x = delta_e_mev * r0_cm / O16_HBAR_C_MEV_CM
    return (4.0 / (375.0 * math.pi)) * z_alpha**2 * x**4 * (delta_e_mev / O16_HBAR_MEV_S)


def o16_lifetime(delta_e_mev: float = 6.0, r0_cm: float = 4e-13,
                 z_charge: float = 8.0, mode: str = "rounded") -> float:
    """Lifetime in seconds.  mode="rounded" follows the rounded order-of-
    magnitude chain
    (Z e^2/hbar c ~ 1/17, dE r0/hbar c ~ 1/10, tau = 10^10 r0/c), so it
    depends on r0_cm only and ignores delta_e_mev and z_charge;
    mode="exact" inverts the closed-form rate."""
    if mode == "rounded":
        return 15.0 * 25.0 * math.pi * 1e5 * 17.0**2 * 0.25 * (r0_cm / C_CM_S)
    if mode == "exact":
        rate = o16_total_rate(delta_e_mev, r0_cm, z_charge)
        if rate == 0.0:
            raise NumericError(f"O16 pair-emission rate is 0 at Z = {z_charge!r}, "
                               f"r0 = {r0_cm!r} cm: the lifetime is infinite")
        return 1.0 / rate
    raise DomainError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Dipole emission and the natural line shape.

def dipole_emission_rate(q_wavenumber: float, x12: float, alpha: float) -> float:
    """Total spontaneous-emission rate for a dipole matrix element of length
    x12: integrating e^2 q^3 |x12|^2 dOmega/(8 pi^2 hbar) over directions and
    polarizations gives (4/3) alpha q^3 |x12|^2."""
    if q_wavenumber < 0:
        raise DomainError("transition wavenumber must be nonnegative")
    return 4.0 * alpha * q_wavenumber**3 * x12**2 / 3.0


def dipole_emission_rate_quadrature(q_wavenumber: float, x12: float,
                                    alpha: float) -> float:
    """Direction/polarization sum done numerically: the dipole axis factor
    sum_pol |x_hat . e|^2 = 1 - cos^2(angle to k)."""
    e2 = 4.0 * math.pi * alpha

    def integrand(th):
        return (1.0 - math.cos(th) ** 2) * math.sin(th) * TWO_PI

    ang = numerics.quad(integrand, 0.0, math.pi, tol=1e-8,
                        what="dipole direction integral")
    return q_wavenumber / (8.0 * math.pi**2) * e2 * q_wavenumber**2 * x12**2 * ang


def line_shape(e0: float, en: float, de0: float, den: float,
               gamma0: float, gamma_n: float, k: float) -> float:
    """Natural line profile P(k) (Lorentzian), |Q|^2 set to 1:
    ((G0+Gn)/G0) / [(E0+dE0-En-dEn-k)^2 + (G0+Gn)^2/4]."""
    if gamma0 < 0 or gamma_n < 0:
        raise DomainError("level widths must be nonnegative")
    if gamma0 == 0:
        raise DomainError("upper level width must be nonzero for a stationary line")
    g = gamma0 + gamma_n
    detune = (e0 + de0) - (en + den) - k
    return (g / gamma0) / (detune**2 + 0.25 * g**2)
