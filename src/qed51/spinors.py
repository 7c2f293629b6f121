"""Plane-wave Dirac spinors, adjoints, charge conjugation, projection
operators, and the spin-sum machinery that turns amplitude products into
spurs.

Normalization: u* u = |E|/m and ubar u = +1 for positive-energy (electron)
states, -1 for negative-energy (positron-representing) states.  The two
positive solutions are the columns of the standard elementary solutions
scaled by sqrt((E+m)/2m); the negative pair is built the same way from the
E -> -E branch so that (pslash + i m) v = 0 with the same on-shell p.
"""

from __future__ import annotations

import math
import numpy as np

from .dirac import BETA, GAMMA, I4, slash
from .errors import DomainError
from .kinematics import ElectronState, electron_from_energy

C_MATRIX = GAMMA[1]  # charge-conjugation matrix gamma2 = -i beta alpha2


def plane_wave_spinors(state: ElectronState, energy_sign: int = +1):
    """The two independent solutions at momentum p, for either energy sign.

    energy_sign=+1: (pslash - i m) u = 0;  energy_sign=-1: (pslash + i m) v = 0.
    """
    p = state.p
    E = p.x0
    pp = p.x1 + 1j * p.x2
    pm = p.x1 - 1j * p.x2
    p3 = p.x3
    d = E + 1.0
    n = math.sqrt(d / 2.0)
    if energy_sign == +1:
        a = np.array([1.0, 0.0, p3 / d, pp / d], dtype=complex)
        b = np.array([0.0, 1.0, pm / d, -p3 / d], dtype=complex)
    elif energy_sign == -1:
        a = np.array([p3 / d, pp / d, 1.0, 0.0], dtype=complex)
        b = np.array([pm / d, -p3 / d, 0.0, 1.0], dtype=complex)
    else:
        raise DomainError("energy_sign must be +1 or -1")
    return n * a, n * b


def adjoint(u: np.ndarray) -> np.ndarray:
    """ubar = u-dagger beta, as a row vector."""
    return u.conj() @ BETA


def bar_sandwich(u_left: np.ndarray, mat: np.ndarray, u_right: np.ndarray) -> complex:
    """(ubar_left mat u_right)."""
    return complex(adjoint(u_left) @ mat @ u_right)


def charge_conjugate(u: np.ndarray) -> np.ndarray:
    """v = C u+ with C = -i beta alpha^2 = gamma2; an involution since C C* = I."""
    return C_MATRIX @ u.conj()


def projector(state: ElectronState, sign: int) -> np.ndarray:
    """Lambda_+ = (pslash + i)/(2 i), Lambda_- = (pslash - i)/(2 i) in units
    m = 1; Lambda_+ - Lambda_- = I."""
    if sign not in (+1, -1):
        raise DomainError("projector sign must be +1 or -1")
    return (slash(state.p) + sign * 1j * I4) / 2j


def spin_sum(O: np.ndarray, P: np.ndarray, state: ElectronState, sign: int,
             s: np.ndarray, r: np.ndarray) -> complex:
    """sum over the two spin states u of (sbar O u)(ubar P r), reduced to the
    projector form (sbar O Lambda_+- P r)."""
    lam = projector(state, sign)
    return bar_sandwich(s, O @ lam @ P, r)


def spin_sum_direct(O: np.ndarray, P: np.ndarray, state: ElectronState, sign: int,
                    s: np.ndarray, r: np.ndarray) -> complex:
    """The same sum evaluated term by term over the two returned spinors."""
    row = adjoint(s) @ O
    return sum(complex(row.dot(u)) * bar_sandwich(u, P, r)
               for u in plane_wave_spinors(state, sign))


def completeness_matrix(state: ElectronState) -> np.ndarray:
    """sum_4 eps (u ubar), reconstructed from the four explicit spinors."""
    out = np.zeros((4, 4), dtype=complex)
    for sign in (+1, -1):
        for u in plane_wave_spinors(state, sign):
            out += sign * np.outer(u, adjoint(u))
    return out


def mott_spin_factor(energy: float, theta: float) -> float:
    """(1/2) sum over spins of |u'* u|^2 for elastic scattering through theta:
    E^2 (1 - beta^2 sin^2(theta/2))."""
    if not energy >= 1.0:
        raise DomainError(f"energy {energy} is not >= the rest mass 1")
    beta2 = 1.0 - (1.0 / energy) ** 2
    return energy**2 * (1.0 - beta2 * math.sin(theta / 2.0) ** 2)


def mott_spin_factor_direct(energy: float, theta: float) -> float:
    """The same factor by explicit summation over the four spinor pairs."""
    st_in = electron_from_energy(energy, (0.0, 0.0, 1.0))
    st_out = electron_from_energy(energy, (math.sin(theta), 0.0, math.cos(theta)))
    total = 0.0
    for u in plane_wave_spinors(st_in, +1):
        for up in plane_wave_spinors(st_out, +1):
            total += abs(np.vdot(up, u)) ** 2
    return total / 2.0

