import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed51 import hydrogen as hyd
from qed51 import numerics
from qed51.constants import ERA_1951, MODERN
from qed51.errors import DomainError, NumericError

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


def test_recursion_generic_energy_grows():
    rep = hyd.radial_recursion_check(hyd.DiracQuantumNumbers(1, -1), ALPHA)
    # s * e_{s+1}/e_s -> 2a for a non-eigen energy, i.e. f ~ exp(2 a r)
    assert abs(rep.tail_ratio_scaled - 1.0) < 0.01


def test_series_coefficients_solve_odes():
    # check the truncated series against the differential system at small r
    qn = hyd.DiracQuantumNumbers(1, -1)
    energy = hyd.dirac_energy(qn, ALPHA).energy * 0.9998
    eps, cs, ds = hyd.series_coefficients(qn, ALPHA, energy, 12)
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


@pytest.mark.parametrize("alpha", [0.082, 0.0939, 0.099])
def test_shooting_finds_n5_and_n6_levels_at_large_alpha(alpha):
    # the first bracket half-width must stay inside the gap to N +- 1, about
    # alpha^2/N^3, or the search lands on a neighbouring level or walks to E = 1
    levels = [qn for qn in _levels_up_to(6) if qn.big_n >= 5]
    assert len(levels) == 20
    for qn in levels:
        exact = hyd.dirac_energy(qn, alpha).energy
        shot = hyd.radial_shoot(qn, alpha, 1.0 - alpha**2 / (2.0 * qn.big_n**2))
        assert abs(shot - exact) / exact < 1e-8, (qn, shot, exact)


def test_shooting_solves_each_trial_energy_once(monkeypatch):
    solved = []
    solves = []
    mismatch = hyd._shoot_mismatch
    ode_endpoint = numerics.ode_endpoint

    def counted(qn, alpha, energy):
        solved.append(energy)
        return mismatch(qn, alpha, energy)

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return ode_endpoint(*args, **kwargs)

    monkeypatch.setattr(hyd, "_shoot_mismatch", counted)
    monkeypatch.setattr(numerics, "ode_endpoint", counted_solve)
    for qn in _levels_up_to(2):
        solved.clear()
        solves.clear()
        hyd.radial_shoot(qn, ALPHA, 1.0 - ALPHA**2 / (2.0 * qn.big_n**2))
        assert len(solved) > 2
        assert len(solved) == len(set(solved)), qn
        # one LSODA solve per trial energy: the outward side is the series
        assert len(solves) == len(solved), qn


def _outward_by_ode(qn, alpha, energy):
    """(f, g) at the match point r = 1/a by LSODA outward from r0 = 1e-3/a,
    started on 30 series terms: the outward route the series sum replaced."""
    a1, a2, a = hyd._rate_constants(energy)
    eps, cs, ds = hyd.series_coefficients(qn, alpha, energy, nterms=30)
    r0 = 1e-3 / a
    powers = r0 ** (eps + np.arange(len(cs)))
    y0 = (float(cs @ powers), float(ds @ powers))
    return numerics.ode_endpoint(hyd._radial_rhs(alpha, qn.k, a1, a2, a), (r0, 1.0 / a), y0,
                                 tol=1e-12, what="outward radial integration")


@pytest.mark.parametrize("alpha", [MODERN.alpha, ERA_1951.alpha], ids=["modern", "1951"])
def test_series_at_match_point_agrees_with_outward_ode(alpha):
    for qn in _levels_up_to(4):
        exact = hyd.dirac_energy(qn, alpha).energy
        for energy in (exact, exact * (1.0 - 1e-6), exact * (1.0 + 1e-6), exact * 0.9999):
            f_ode, g_ode = _outward_by_ode(qn, alpha, energy)
            f, g = hyd._series_at(qn, alpha, energy, 1.0 / hyd._rate_constants(energy)[2])
            norm = math.hypot(f, g) * math.hypot(f_ode, g_ode)
            assert f * f_ode + g * g_ode > 0, (qn, energy)
            assert abs(f * g_ode - f_ode * g) / norm < 1e-9, (qn, energy)


def test_series_at_raises_when_it_cannot_converge(monkeypatch):
    qn = hyd.DiracQuantumNumbers(1, -1)
    energy = hyd.dirac_energy(qn, ALPHA).energy * 0.9999
    a = hyd._rate_constants(energy)[2]
    hyd._series_at(qn, ALPHA, energy, 1.0 / a)
    # at rho = 400 the terms peak near s = 800, far past the cap
    with pytest.raises(NumericError, match="failed to converge"):
        hyd._series_at(qn, ALPHA, energy, 400.0 / a)
    monkeypatch.setattr(hyd, "SERIES_MAX_TERMS", 4)
    with pytest.raises(NumericError, match="failed to converge in 4 terms"):
        hyd._series_at(qn, ALPHA, energy, 1.0 / a)


@pytest.mark.parametrize("k", [-4, -1, 1, 3])
@pytest.mark.parametrize("energy", [0.5, 0.9999, 1.0 - 1e-6])
def test_decaying_series_solves_the_radial_system(k, energy):
    # f = sum A_m r^(sigma - m), g = sum B_m r^(sigma - m) put into
    #   f' = (a + k/r) f - (alpha/r + a2) g,  g' = (alpha/r - a1) f + (a - k/r) g
    # must match at every power r^(sigma - m), with sigma = alpha E / a
    a1, a2, a = hyd._rate_constants(energy)
    sigma = ALPHA * energy / a
    coefs = list(itertools.islice(hyd._decaying_terms(k, ALPHA, sigma, a1, a2, a), 40))
    assert coefs[0] == (1.0, a / a2)
    prev = (0.0, 0.0)
    for m, (big_a, big_b) in enumerate(coefs):
        pa, pb = prev
        f_terms = ((sigma - m + 1) * pa, a * big_a, k * pa, -ALPHA * pb, -a2 * big_b)
        g_terms = ((sigma - m + 1) * pb, ALPHA * pa, -a1 * big_a, a * big_b, -k * pb)
        assert abs(f_terms[0] - sum(f_terms[1:])) <= 1e-12 * sum(map(abs, f_terms)), m
        assert abs(g_terms[0] - sum(g_terms[1:])) <= 1e-12 * sum(map(abs, g_terms)), m
        # the 2x2 system each step solves has determinant -2 a^2 m
        det = a * (a1 * ALPHA + a * (sigma - m + k)) + a2 * (a1 * (sigma - m - k) - a * ALPHA)
        assert abs(det + 2.0 * a * a * m) <= 1e-12 * (a * a * (abs(sigma) + m + abs(k)) + a * ALPHA)
        prev = (big_a, big_b)


def _inward_from_leading_order(qn, alpha, energy):
    """(f, g) at the match point r = 1/a by LSODA inward from rho =
    max(40, 6 sigma), sigma = alpha E / a, started on the leading-order ratio
    g/f = sqrt(a1/a2): the inward route the asymptotic series replaced, whose
    start was rho = 40 (the same wherever sigma < 6.7)."""
    a1, a2, a = hyd._rate_constants(energy)
    rho_far = max(40.0, 6.0 * alpha * energy / a)
    return numerics.ode_endpoint(hyd._radial_rhs(alpha, qn.k, a1, a2, a), (rho_far / a, 1.0 / a),
                                 (1.0, math.sqrt(a1 / a2)), tol=1e-12,
                                 what="inward radial integration")


@pytest.mark.parametrize("alpha", [MODERN.alpha, ERA_1951.alpha], ids=["modern", "1951"])
def test_inward_start_agrees_with_leading_order_start(alpha):
    # at N = 5 and E(1 + 1e-6) sigma is about 20, where a start at rho = 40
    # would be off by up to 3e-2 and a fixed one at rho = 150 misses 1e-8 at N = 6
    for qn in _levels_up_to(6):
        exact = hyd.dirac_energy(qn, alpha).energy
        for energy in (exact, exact * (1.0 - 1e-6), exact * (1.0 + 1e-6), exact * 0.9999):
            if not energy < 1.0:
                continue
            f_old, g_old = _inward_from_leading_order(qn, alpha, energy)
            f, g = hyd._inward_at_match(qn, alpha, energy)
            norm = math.hypot(f, g) * math.hypot(f_old, g_old)
            assert f * f_old + g * g_old > 0, (qn, energy)
            assert abs(f * g_old - f_old * g) / norm < 1e-8, (qn, energy)


def test_decaying_sum_raises_where_it_cannot_converge(monkeypatch):
    # an N = 5 level at E(1 + 1e-6): sigma = alpha E / a is about 20
    qn = hyd.DiracQuantumNumbers(1, -4)
    energy = hyd.dirac_energy(qn, ALPHA).energy * (1.0 + 1e-6)
    a = hyd._rate_constants(energy)[2]
    sigma = ALPHA * energy / a
    assert 19.0 < sigma < 21.0
    hyd._decaying_at(qn, ALPHA, energy, (20.0 + sigma**2 / 4.0) / a)
    # at rho = 20 the sum cancels: its largest term is about 1e8 times the sum
    with pytest.raises(NumericError, match="failed to converge: .* cancellation"):
        hyd._decaying_at(qn, ALPHA, energy, 20.0 / a)
    # at rho = 2 the terms fall, then grow again before they reach rounding
    with pytest.raises(NumericError, match="failed to converge: its terms grow"):
        hyd._decaying_at(qn, ALPHA, energy, 2.0 / a)
    monkeypatch.setattr(hyd, "SERIES_MAX_TERMS", 4)
    with pytest.raises(NumericError, match="failed to converge in 4 terms"):
        hyd._decaying_at(qn, ALPHA, energy, (20.0 + sigma**2 / 4.0) / a)


def test_series_coefficients_need_a_term():
    qn = hyd.DiracQuantumNumbers(0, 1)
    assert len(hyd.series_coefficients(qn, ALPHA, 0.9, 1)[1]) == 1
    with pytest.raises(DomainError):
        hyd.series_coefficients(qn, ALPHA, 0.9, 0)


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
