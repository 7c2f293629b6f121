import math

import numpy as np
import pytest

from qed51 import kinematics as kin
from qed51.errors import DomainError


def test_electron_at_rest_on_shell():
    st = kin.electron_at_rest()
    assert st.p.dot(st.p) + 1.0 == 0.0
    assert st.energy == 1.0


def test_electron_from_energy_momentum_magnitude():
    st = kin.electron_from_energy(2.0, (0, 0, 1))
    assert abs(st.p.x3 - math.sqrt(3.0)) < 1e-14
    assert st.p.x1 == st.p.x2 == 0.0


def test_electron_below_mass_rejected():
    with pytest.raises(DomainError):
        kin.electron_from_energy(0.9, (0, 0, 1))


def test_off_shell_state_rejected():
    with pytest.raises(DomainError):
        kin.ElectronState(kin.FourVector(0.5, 0, 0, 1.0))


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: kin.ElectronState(kin.FourVector(NAN, 0, 0, 1.0)),
    lambda: kin.ElectronState(kin.FourVector(0, 0, 0, NAN)),
    lambda: kin.electron_from_energy(NAN, (0, 0, 1)),
    lambda: kin.PhotonState(kin.FourVector(0, 0, NAN, NAN), kin.FourVector(1, 0, 0, 0)),
    lambda: kin.PhotonState(kin.FourVector(0, 0, 2.0, 2.0), kin.FourVector(NAN, 0, 0, 0)),
], ids=["electron-p1", "electron-p0", "from-energy", "photon-k", "photon-e"])
def test_nan_momentum_is_not_on_shell(make):
    with pytest.raises(DomainError):
        make()


def test_photon_state_validation():
    k = kin.FourVector(0, 0, 2.0, 2.0)
    kin.PhotonState(k, kin.FourVector(1, 0, 0, 0))
    with pytest.raises(DomainError):
        kin.PhotonState(k, kin.FourVector(0, 0, 1, 0))  # not transverse
    with pytest.raises(DomainError):
        kin.PhotonState(k, kin.FourVector(0.5, 0, 0, 0))  # not unit
    with pytest.raises(DomainError):
        kin.PhotonState(kin.FourVector(0, 0, 1, 2), kin.FourVector(1, 0, 0, 0))


def test_compton_shift_forward_unchanged():
    assert kin.compton_shift(0.7, 0.0) == 0.7


def test_compton_shift_backscatter():
    assert abs(kin.compton_shift(1.0, math.pi) - 1.0 / 3.0) < 1e-15


def test_compton_shift_soft_limit():
    k0 = 1e-8
    assert abs(kin.compton_shift(k0, 1.0) / k0 - 1.0) < 1e-7


def test_compton_shift_conserves_mass_shell():
    for theta in (0.3, 1.2, 2.8):
        k0 = 0.8
        k0p = kin.compton_shift(k0, theta)
        p = kin.FourVector(0, 0, 0, 1.0)
        k = kin.FourVector(0, 0, k0, k0)
        kp = kin.FourVector(k0p * math.sin(theta), 0, k0p * math.cos(theta), k0p)
        pp = p + k - kp
        assert abs(pp.dot(pp) + 1.0) < 1e-10


def test_moller_cm_angle_values():
    assert kin.moller_cm_angle(5.0, 0.0) == 1.0
    assert abs(kin.moller_cm_angle(3.0, math.pi / 4) + 1.0 / 3.0) < 1e-15
    theta = 0.4
    assert abs(kin.moller_cm_angle(1.0, theta) - math.cos(2 * theta)) < 1e-12


def test_moller_cm_angle_monotone_onto():
    for gamma in (1.1, 2.0, 10.0):
        thetas = np.linspace(0.0, math.pi / 2, 200)
        xs = [kin.moller_cm_angle(gamma, t) for t in thetas]
        assert xs[0] == 1.0
        assert abs(xs[-1] + 1.0) < 1e-12
        assert all(a > b for a, b in zip(xs, xs[1:]))


def test_two_body_zero_amplitude():
    p1, p2, p1p, p2p = kin.moller_cm_momenta(2.0, 0.3)
    assert kin.two_body_cross_section(0.0, p1, p2, p1p, p2p) == 0.0


def test_two_body_requires_conservation():
    p1, p2, p1p, p2p = kin.moller_cm_momenta(2.0, 0.3)
    with pytest.raises(DomainError):
        kin.two_body_cross_section(1.0, p1, p2, p1p, p1p)


def test_two_body_degenerate_flux_rejected():
    p = kin.FourVector(0, 0, 1.0, math.sqrt(2.0))
    with pytest.raises(DomainError):
        kin.two_body_cross_section(1.0, p, p, p, p)


def test_two_body_boost_invariance():
    p1, p2, p1p, p2p = kin.moller_cm_momenta(2.0, 0.35)
    base = kin.two_body_cross_section(1.3, p1, p2, p1p, p2p)
    for phi in (-0.8, 0.5, 1.7):
        boosted = [v.boost_z(phi) for v in (p1, p2, p1p, p2p)]
        val = kin.two_body_cross_section(1.3, *boosted)
        assert abs(val / base - 1.0) < 1e-10


def test_boost_preserves_mass():
    v = kin.FourVector(0.2, -0.3, 0.7, 1.5)
    w = v.boost_z(0.9)
    assert abs(w.dot(w) - v.dot(v)) < 1e-12
