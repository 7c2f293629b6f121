import math

import numpy as np
import pytest

from qed51 import dirac, spinors
from qed51.errors import DomainError
from qed51.kinematics import FourVector, electron_at_rest, electron_from_energy

RNG = np.random.default_rng(7)


def random_state():
    direction = RNG.normal(size=3)
    energy = 1.0 + RNG.uniform(0.01, 3.0)
    return electron_from_energy(energy, direction)


def test_rest_frame_positive_spinors_are_unit_vectors():
    ua, ub = spinors.plane_wave_spinors(electron_at_rest(), +1)
    assert np.abs(ua - np.array([1, 0, 0, 0])).max() < 1e-15
    assert np.abs(ub - np.array([0, 1, 0, 0])).max() < 1e-15


def test_dirac_equation_residuals():
    for _ in range(25):
        st = random_state()
        ps = dirac.slash(st.p)
        for sign in (+1, -1):
            for u in spinors.plane_wave_spinors(st, sign):
                resid = np.abs((ps - sign * 1j * np.eye(4)) @ u).max()
                assert resid < 1e-12


def test_normalization_chain():
    for _ in range(25):
        st = random_state()
        for sign in (+1, -1):
            for u in spinors.plane_wave_spinors(st, sign):
                assert abs(np.vdot(u, u).real - st.energy) < 1e-12
                assert abs((spinors.adjoint(u) @ u).real - sign) < 1e-12


def test_four_states_mutually_orthogonal():
    st = random_state()
    states = list(spinors.plane_wave_spinors(st, +1)) + \
        list(spinors.plane_wave_spinors(st, -1))
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            if i != j:
                assert abs(spinors.adjoint(a) @ b) < 1e-12


def test_rest_adjoint_inner_product_one():
    ua, _ = spinors.plane_wave_spinors(electron_at_rest(), +1)
    assert abs(spinors.adjoint(ua) @ ua - 1.0) < 1e-15


def test_adjoint_zero_and_antilinearity():
    assert np.abs(spinors.adjoint(np.zeros(4, dtype=complex))).max() == 0.0
    u = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    c = 0.3 - 1.7j
    assert np.abs(spinors.adjoint(c * u) - np.conj(c) * spinors.adjoint(u)).max() < 1e-12


def test_charge_conjugation_is_involution():
    c = spinors.C_MATRIX
    assert np.abs(c @ c - np.eye(4)).max() == 0.0  # C^2 = I
    u = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    assert np.abs(spinors.charge_conjugate(spinors.charge_conjugate(u)) - u).max() < 1e-12


def test_charge_conjugate_solves_positive_equation():
    # w solving E w = (alpha.p - m beta) w (the negative-energy branch) maps
    # under charge conjugation to v solving E v = (alpha.p + m beta) v.
    st = random_state()
    E = st.energy
    p = st.p
    h_minus = sum(pi * a for pi, a in zip((p.x1, p.x2, p.x3), dirac.ALPHA)) - dirac.BETA
    h_plus = sum(pi * a for pi, a in zip((p.x1, p.x2, p.x3), dirac.ALPHA)) + dirac.BETA
    for w in spinors.plane_wave_spinors(st, -1):
        assert np.abs(h_minus @ w - E * w).max() < 1e-12
        v = spinors.charge_conjugate(w)
        assert np.abs(h_plus @ v - E * v).max() < 1e-12


def test_charge_conjugation_preserves_density_and_current():
    u = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    v = spinors.charge_conjugate(u)
    # psi* psi and psi* alpha^k psi
    for op in (np.eye(4), *dirac.ALPHA):
        assert abs(np.vdot(v, op @ v).real - np.vdot(u, op @ u).real) < 1e-12


def test_projector_difference_is_identity():
    st = random_state()
    lam_p = spinors.projector(st, +1)
    lam_m = spinors.projector(st, -1)
    assert np.abs(lam_p - lam_m - np.eye(4)).max() < 1e-12


def test_projector_reproduces_spinors():
    st = random_state()
    lam_p = spinors.projector(st, +1)
    for u in spinors.plane_wave_spinors(st, +1):
        assert np.abs(lam_p @ u - u).max() < 1e-12
    for v in spinors.plane_wave_spinors(st, -1):
        assert np.abs(lam_p @ v).max() < 1e-12


def test_projector_spur_is_two():
    st = random_state()
    assert abs(dirac.spur(spinors.projector(st, +1)) - 2.0) < 1e-12


def test_projector_annihilates_on_shell_factor():
    st = random_state()
    lam_p = spinors.projector(st, +1)
    factor = dirac.slash(st.p) - 1j * np.eye(4)
    assert np.abs(factor @ lam_p).max() < 1e-10


def test_spur_version_of_spin_sum():
    st = random_state()
    Q = dirac.slash(st.p) @ dirac.slash(FourVector(0.3, -0.2, 0.5, 0.7))
    total = 0.0
    for sign in (+1, -1):
        for u in spinors.plane_wave_spinors(st, sign):
            total += sign * (spinors.adjoint(u) @ Q @ u)
    assert abs(total - dirac.spur(Q)) < 1e-10


def test_mott_spin_factor_formula_point():
    # closed form at beta = 0.5, theta = 90 deg against the explicit sum
    energy = 1.0 / math.sqrt(1.0 - 0.25)
    closed = spinors.mott_spin_factor(energy, math.pi / 2)
    direct = spinors.mott_spin_factor_direct(energy, math.pi / 2)
    assert abs(direct / closed - 1.0) < 1e-10
    expect = (energy) ** 2 * (1.0 - 0.25 * 0.5)
    assert abs(closed - expect) < 1e-12


def test_mott_spin_factor_backscatter():
    energy = 1.25
    beta2 = 1.0 - 1.0 / energy**2
    val = spinors.mott_spin_factor(energy, math.pi)
    assert abs(val - energy**2 * (1.0 - beta2)) < 1e-12


@pytest.mark.parametrize("spin_factor, energy", [
    (spinors.mott_spin_factor, float("nan")),
    (spinors.mott_spin_factor_direct, float("nan")),
    (spinors.mott_spin_factor_direct, 0.5),
], ids=["closed-nan", "direct-nan", "direct-below-mass"])
def test_mott_spin_factor_energy_outside_domain(spin_factor, energy):
    # a DomainError, not math's ValueError or a nan result
    with pytest.raises(DomainError):
        spin_factor(energy, 1.0)


def test_projector_sign_validation():
    with pytest.raises(DomainError):
        spinors.projector(electron_at_rest(), 2)


def test_spin_sum_identity_operators():
    # O = P = identity over electron states: projector form vs explicit sum
    st = random_state()
    I = np.eye(4, dtype=complex)
    s = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    r = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    via = spinors.spin_sum(I, I, st, +1, s, r)
    direct = spinors.spin_sum_direct(I, I, st, +1, s, r)
    assert abs(via - direct) < 1e-10 * max(1.0, abs(via))


def _spin_sum_direct_per_pair(O, P, state, sign, s, r):
    # the replaced form: both sandwiches taken whole for each spinor
    ua, ub = spinors.plane_wave_spinors(state, sign)
    return sum(spinors.bar_sandwich(s, O, u) * spinors.bar_sandwich(u, P, r) for u in (ua, ub))


@pytest.mark.parametrize("sign", [+1, -1])
def test_spin_sum_direct_equals_the_per_pair_form(sign):
    for _ in range(100):
        st = random_state()
        O, P = (RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)) for _ in range(2))
        s, r = (RNG.normal(size=4) + 1j * RNG.normal(size=4) for _ in range(2))
        assert (spinors.spin_sum_direct(O, P, st, sign, s, r)
                == _spin_sum_direct_per_pair(O, P, st, sign, s, r))
