import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed51 import hydrogen as hyd
from qed51.constants import ERA_1951, MODERN
from qed51.errors import DomainError

ALPHA = 1.0 / 137.036


def test_quantum_number_validation():
    with pytest.raises(DomainError):
        hyd.DiracQuantumNumbers(n=1, k=0)
    with pytest.raises(DomainError):
        hyd.DiracQuantumNumbers(n=0, k=-1)
    with pytest.raises(DomainError):
        hyd.DiracQuantumNumbers(n=-1, k=1)
    qn = hyd.DiracQuantumNumbers(n=1, k=-2)
    assert qn.j == 1.5
    assert qn.big_n == 3


def test_ground_state_closed_form():
    level = hyd.dirac_energy(hyd.DiracQuantumNumbers(0, 1), ALPHA)
    assert abs(level.energy - math.sqrt(1.0 - ALPHA**2)) < 1e-15


def test_exact_degeneracy_same_abs_k():
    for n in (1, 2, 3):
        for k in (1, 2):
            e_plus = hyd.dirac_energy(hyd.DiracQuantumNumbers(n, k), ALPHA).energy
            e_minus = hyd.dirac_energy(hyd.DiracQuantumNumbers(n, -k), ALPHA).energy
            assert e_plus == e_minus


def test_energy_monotone_in_n():
    for k in (1, -1, 2):
        energies = [hyd.dirac_energy(hyd.DiracQuantumNumbers(n, k), ALPHA).energy
                    for n in range(1, 5)]
        assert all(a < b for a, b in zip(energies, energies[1:]))


def test_alpha_zero_limit():
    for qn in (hyd.DiracQuantumNumbers(0, 1), hyd.DiracQuantumNumbers(2, -2)):
        assert abs(hyd.dirac_energy(qn, 1e-9).energy - 1.0) < 1e-15


def test_fine_structure_expansion_remainder_bound():
    for big_n in (1, 2, 3):
        for k in range(-big_n, big_n + 1):
            if k == 0:
                continue
            n = big_n - abs(k)
            if n == 0 and k < 0:
                continue
            exact = hyd.dirac_energy(hyd.DiracQuantumNumbers(n, k), ALPHA).energy
            series = hyd.fine_structure_expansion(big_n, k, ALPHA)
            assert abs(exact - series) < 10.0 * ALPHA**6


def test_fine_structure_next_term_bound_alpha_50():
    a = 1.0 / 50.0
    for big_n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        n = big_n - abs(k)
        exact = hyd.dirac_energy(hyd.DiracQuantumNumbers(n, k), a).energy
        series = hyd.fine_structure_expansion(big_n, k, a)
        assert abs(exact - series) < 3.0 * a**6  # next series term scale


def test_balmer_ladder():
    for big_n in (1, 2, 3, 4):
        nr = hyd.fine_structure_expansion(big_n, big_n, ALPHA)
        assert abs((nr - 1.0) + ALPHA**2 / (2 * big_n**2)) < ALPHA**4


def test_fine_structure_splitting_sign_n2():
    # j = 3/2 level (|k| = 2) lies above the j = 1/2 pair (|k| = 1)
    e_j32 = hyd.fine_structure_expansion(2, 2, ALPHA)
    e_j12 = hyd.fine_structure_expansion(2, 1, ALPHA)
    assert e_j32 > e_j12


def test_recursion_terminates_at_closed_form_energy():
    for n, k in ((1, -1), (1, 1), (0, 1), (2, -1), (0, 2)):
        rep = hyd.radial_recursion_check(hyd.DiracQuantumNumbers(n, k), ALPHA)
        assert rep.exponent == math.sqrt(k**2 - ALPHA**2)
        assert rep.terminates
        assert abs(rep.energy_from_termination / rep.energy_closed_form - 1.0) < 1e-12


def test_recursion_generic_energy_grows():
    rep = hyd.radial_recursion_check(hyd.DiracQuantumNumbers(1, -1), ALPHA)
    # s * e_{s+1}/e_s -> 2a for a non-eigen energy, i.e. f ~ exp(2 a r)
    assert abs(rep.tail_ratio_scaled - 1.0) < 0.01


def test_series_coefficients_solve_odes():
    # check the truncated series against the differential system at small r
    qn = hyd.DiracQuantumNumbers(1, -1)
    energy = hyd.dirac_energy(qn, ALPHA).energy * 0.9998
    eps, cs, ds, _ = hyd.series_coefficients(qn, ALPHA, energy, 12)
    a1, a2, a = hyd._rate_constants(energy)
    r = 1e-4 / a
    powers = r ** (eps + np.arange(len(cs)))
    f = float(cs @ powers)
    g = float(ds @ powers)
    dpowers = (eps + np.arange(len(cs))) * r ** (eps + np.arange(len(cs)) - 1)
    fp = float(cs @ dpowers)
    gp = float(ds @ dpowers)
    assert abs(fp - ((a + qn.k / r) * f - (ALPHA / r + a2) * g)) < 1e-9 * abs(fp)
    assert abs(gp - ((ALPHA / r - a1) * f + (a - qn.k / r) * g)) < 1e-9 * max(abs(gp), abs(fp))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e4),
       st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=-1e6, max_value=1e6),
       st.integers(min_value=-6, max_value=6).filter(bool),
       st.floats(min_value=1e-4, max_value=0.099),
       st.floats(min_value=0.5, max_value=1.0 - 1e-9))
def test_radial_rhs_rounds_like_numpy_scalars(r, f, g, k, alpha, energy):
    # the right-hand side unpacks LSODA's ndarray to Python floats; each
    # operation must round as it did on numpy.float64, so every shot stays
    # bit-identical
    a1, a2, a = hyd._rate_constants(energy)
    df, dg = hyd._radial_rhs(alpha, k, a1, a2, a)(r, np.array([f, g]))
    f64, g64 = np.float64(f), np.float64(g)
    want_df = (a + k / r) * f64 - (alpha / r + a2) * g64
    want_dg = (alpha / r - a1) * f64 + (a - k / r) * g64
    assert (float(df).hex(), float(dg).hex()) == (float(want_df).hex(), float(want_dg).hex())


def test_shooting_matches_closed_form_n_le_2():
    for n, k in ((0, 1), (1, -1), (1, 1), (0, 2)):
        qn = hyd.DiracQuantumNumbers(n, k)
        exact = hyd.dirac_energy(qn, ALPHA).energy
        guess = 1.0 - ALPHA**2 / (2.0 * qn.big_n**2)  # nonrelativistic seed
        shot = hyd.radial_shoot(qn, ALPHA, guess)
        assert abs(shot - exact) / exact < 1e-8


def _levels_up_to(max_big_n):
    for big_n in range(1, max_big_n + 1):
        for k in range(-big_n, big_n + 1):
            n = big_n - abs(k)
            if k != 0 and not (n == 0 and k < 0):
                yield hyd.DiracQuantumNumbers(n, k)


@pytest.mark.parametrize("alpha", [MODERN.alpha, ERA_1951.alpha], ids=["modern", "1951"])
def test_shooting_matches_closed_form_n_le_4(alpha):
    levels = list(_levels_up_to(4))
    assert len(levels) == 16
    for qn in levels:
        exact = hyd.dirac_energy(qn, alpha).energy
        guess = 1.0 - alpha**2 / (2.0 * qn.big_n**2)
        shot = hyd.radial_shoot(qn, alpha, guess)
        assert abs(shot - exact) / exact < 1e-8, (qn, shot, exact)


def test_shooting_solves_each_trial_energy_once(monkeypatch):
    solved = []
    mismatch = hyd._shoot_mismatch

    def counted(qn, alpha, energy):
        solved.append(energy)
        return mismatch(qn, alpha, energy)

    monkeypatch.setattr(hyd, "_shoot_mismatch", counted)
    for qn in _levels_up_to(2):
        solved.clear()
        hyd.radial_shoot(qn, ALPHA, 1.0 - ALPHA**2 / (2.0 * qn.big_n**2))
        assert len(solved) > 2
        assert len(solved) == len(set(solved)), qn


def test_shooting_degenerate_pair():
    guess = 1.0 - ALPHA**2 / 8.0
    e_s = hyd.radial_shoot(hyd.DiracQuantumNumbers(1, -1), ALPHA, guess)
    e_p = hyd.radial_shoot(hyd.DiracQuantumNumbers(1, 1), ALPHA, guess)
    assert abs(e_s - e_p) / e_s < 1e-8


def test_shooting_rejects_continuum():
    with pytest.raises(DomainError):
        hyd.radial_shoot(hyd.DiracQuantumNumbers(0, 1), ALPHA, 1.5)


def test_landau_lowest_level_exact():
    assert hyd.landau_levels(0.37, 0.0, 0) == 1.0


def test_landau_zero_field_free_particle():
    assert abs(hyd.landau_levels(0.0, 0.6, 5) - math.sqrt(1.0 + 0.36)) < 1e-15


def test_landau_spacing_decreases():
    b = 1e-3
    energies = [hyd.landau_levels(b, 0.0, m) for m in range(6)]
    gaps = [b2 - a2 for a2, b2 in zip(energies, energies[1:])]
    assert all(g > 0 for g in gaps)
    assert all(a > b_ for a, b_ in zip(gaps, gaps[1:]))
    # leading spacing ~ |eB hbar c| / 2 mc^2
    assert abs(gaps[0] - b / 2.0) < b * b


def test_landau_validation():
    with pytest.raises(DomainError):
        hyd.landau_levels(0.1, 0.0, -1)


def test_level_table_labels_and_order():
    rows = hyd.level_table(2, ALPHA)
    labels = [r[4] for r in rows]
    assert labels[0] == "1s1/2"
    assert set(labels) == {"1s1/2", "2s1/2", "2p1/2", "2p3/2"}
    energies = [r[5] for r in rows]
    assert energies == sorted(energies)


def test_level_table_stops_at_last_spectroscopic_letter():
    labels = {r[4] for r in hyd.level_table(6, ALPHA)}
    assert "6h11/2" in labels
    with pytest.raises(DomainError):
        hyd.level_table(7, ALPHA)


def test_zalpha_extension_flagged():
    # alpha is checked against (0, 0.1): a Z alpha-sized value and NaN fail,
    # in the closed form, the expansion, the series and the shooting oracle
    qn = hyd.DiracQuantumNumbers(0, 1)
    for alpha in (0.5, math.nan):
        for call in (lambda: hyd.dirac_energy(qn, alpha), lambda: hyd.level_table(2, alpha),
                     lambda: hyd.fine_structure_expansion(2, 1, alpha),
                     lambda: hyd.series_coefficients(qn, alpha, 0.9, 3),
                     lambda: hyd.radial_shoot(qn, alpha, 0.9)):
            with pytest.raises(DomainError):
                call()
