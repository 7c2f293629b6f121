"""Four-vectors, external-leg states, and cross-section kinematics.

Natural units throughout: hbar = c = 1 and the electron mass mu = 1; the
mass is not a parameter.  Four-vectors are stored with real components
(x1, x2, x3, x0) and the dot product carries signature (+, +, +, -); the
imaginary fourth component of the covariant x4 = i*x0 convention exists
only inside dirac.slash.
"""

from __future__ import annotations

import math

from .errors import DomainError

ONSHELL_TOL = 1e-10


class FourVector:
    """Real 4-tuple (spatial triple + time component), signature (+,+,+,-)."""

    __slots__ = ("x1", "x2", "x3", "x0")

    def __init__(self, x1=0.0, x2=0.0, x3=0.0, x0=0.0):
        self.x1, self.x2, self.x3, self.x0 = float(x1), float(x2), float(x3), float(x0)

    def dot(self, other: "FourVector") -> float:
        return (self.x1 * other.x1 + self.x2 * other.x2 + self.x3 * other.x3
                - self.x0 * other.x0)

    def __add__(self, other):
        return FourVector(self.x1 + other.x1, self.x2 + other.x2,
                          self.x3 + other.x3, self.x0 + other.x0)

    def __sub__(self, other):
        return FourVector(self.x1 - other.x1, self.x2 - other.x2,
                          self.x3 - other.x3, self.x0 - other.x0)

    def __neg__(self):
        return FourVector(-self.x1, -self.x2, -self.x3, -self.x0)

    def __mul__(self, c):
        return FourVector(c * self.x1, c * self.x2, c * self.x3, c * self.x0)

    __rmul__ = __mul__

    def boost_z(self, phi: float) -> "FourVector":
        """Boost with rapidity phi along axis 3."""
        c, s = math.cosh(phi), math.sinh(phi)
        return FourVector(self.x1, self.x2,
                          c * self.x3 - s * self.x0,
                          c * self.x0 - s * self.x3)

    def __repr__(self):
        return f"FourVector({self.x1}, {self.x2}, {self.x3}, x0={self.x0})"


class ElectronState:
    """On-shell electron leg: dot(p, p) + 1 = 0 within 1e-10 relative."""

    __slots__ = ("p",)

    def __init__(self, p: FourVector):
        resid = abs(p.dot(p) + 1.0)
        if not resid <= ONSHELL_TOL * max(1.0, p.x0**2):
            raise DomainError(f"off-shell electron state, |p.p + m^2| = {resid:g}")
        self.p = p

    @property
    def energy(self) -> float:
        return self.p.x0

    def __repr__(self):
        return f"ElectronState(p={self.p!r})"


class PhotonState:
    """Photon leg with polarization: k.k = 0, e0 = 0, e.k = 0, e.e = 1."""

    __slots__ = ("k", "e")

    def __init__(self, k: FourVector, e: FourVector):
        scale = max(1.0, k.x0**2)
        if not abs(k.dot(k)) <= ONSHELL_TOL * scale:
            raise DomainError("photon not on the light cone")
        if not abs(e.x0) <= ONSHELL_TOL:
            raise DomainError("photon polarized in time (e0 != 0)")
        if not abs(e.dot(k)) <= ONSHELL_TOL * max(1.0, abs(k.x0)):
            raise DomainError("polarization not transverse (e.k != 0)")
        if not abs(e.dot(e) - 1.0) <= ONSHELL_TOL:
            raise DomainError("polarization not unit-normalized")
        self.k, self.e = k, e


def electron_at_rest() -> ElectronState:
    return ElectronState(FourVector(0.0, 0.0, 0.0, 1.0))


def electron_from_energy(energy: float, direction) -> ElectronState:
    """On-shell electron with given total energy moving along ``direction``."""
    import numpy as np

    if not energy >= 1.0:
        raise DomainError(f"energy {energy} is not >= the rest mass 1")
    d = np.asarray(direction, dtype=float)
    norm = math.sqrt(float(d @ d))
    if norm == 0.0:
        raise DomainError("direction must be a nonzero 3-vector")
    pmag = math.sqrt(energy**2 - 1.0)
    vec = pmag * d / norm
    return ElectronState(FourVector(vec[0], vec[1], vec[2], energy))


def compton_shift(k0: float, theta: float) -> float:
    """Scattered photon frequency off an electron at rest:
    k0' = k0 / (1 + (1 - cos theta) k0)."""
    if not k0 > 0:  # nan fails too
        raise DomainError("incident frequency must be positive")
    return k0 / (1.0 + (1.0 - math.cos(theta)) * k0)


def moller_cm_angle(gamma: float, theta_lab: float) -> float:
    """cos(theta*) in the CM frame for lab scattering angle theta, one
    electron initially at rest: x = (2 - (gamma+3) sin^2) / (2 + (gamma-1) sin^2)."""
    if gamma < 1.0:
        raise DomainError("gamma must be >= 1")
    s2 = math.sin(theta_lab) ** 2
    return (2.0 - (gamma + 3.0) * s2) / (2.0 + (gamma - 1.0) * s2)


def check_conservation(total: FourVector) -> None:
    """Raise DomainError unless total = incoming - outgoing is 0 to 1e-9."""
    if max(abs(total.x1), abs(total.x2), abs(total.x3), abs(total.x0)) > 1e-9:
        raise DomainError("momenta do not satisfy conservation")


def _flux_factor(a: FourVector, b: FourVector) -> float:
    return abs(b.x0 * a.x3 - a.x0 * b.x3)


def two_body_cross_section(K: complex, p1: FourVector, p2: FourVector,
                           p1p: FourVector, p2p: FourVector) -> float:
    """Cross section per transverse-momentum element d2p'_1 from an invariant
    matrix element M = K (2 pi)^4 delta4(p1 + p2 - p1' - p2').

    Requires p1, p2 collinear along axis 3 and exact conservation; includes
    the |E2 p13 - E1 p23| flux factor for both vertex pairs; the (m c^2)^4
    state-normalization factor is 1.  Invariant under boosts along axis 3.
    """
    check_conservation(p1 + p2 - p1p - p2p)
    if max(abs(p1.x1), abs(p1.x2), abs(p2.x1), abs(p2.x2)) > 1e-12:
        raise DomainError("p1, p2 must be collinear along axis 3")
    flux_in = _flux_factor(p1, p2)
    flux_out = _flux_factor(p1p, p2p)
    if flux_in == 0.0:
        raise DomainError("zero relative flux: collision frame degenerate")
    if flux_out == 0.0:
        raise DomainError("final momenta give a vanishing phase-space factor")
    return abs(K) ** 2 / (4.0 * math.pi**2 * flux_in * flux_out)


def moller_cm_momenta(gamma: float, x_cm: float):
    """CM-frame four-momenta (p1, p2, p1', p2') for incident lab energy
    gamma on a target at rest and CM scattering cosine x_cm (phi = 0)."""
    e_star = math.sqrt((gamma + 1.0) / 2.0)
    p_star = math.sqrt(e_star**2 - 1.0)
    s = math.sqrt(max(0.0, 1.0 - x_cm**2))
    p1 = FourVector(0.0, 0.0, p_star, e_star)
    p2 = FourVector(0.0, 0.0, -p_star, e_star)
    p1p = FourVector(p_star * s, 0.0, p_star * x_cm, e_star)
    p2p = FourVector(-p_star * s, 0.0, -p_star * x_cm, e_star)
    return p1, p2, p1p, p2p
