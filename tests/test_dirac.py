from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qed51 import dirac
from qed51.errors import DomainError
from qed51.kinematics import FourVector

RNG = np.random.default_rng(1951)


def rand_vec():
    return FourVector(*RNG.uniform(-1.0, 1.0, size=4))


def test_gamma4_is_diag_1_1_m1_m1():
    g4 = dirac.gammas("dyson")[3]
    assert np.array_equal(g4, np.diag([1, 1, -1, -1]).astype(complex))


def test_dyson_anticommutators_exact():
    gs = dirac.gammas("dyson")
    for mu in range(4):
        for nu in range(4):
            anti = gs[mu] @ gs[nu] + gs[nu] @ gs[mu]
            expect = 2.0 * (mu == nu) * np.eye(4)
            assert np.abs(anti - expect).max() < 1e-12


def test_dyson_gammas_hermitian():
    for mu in range(4):
        g = dirac.gammas("dyson")[mu]
        assert np.abs(g.conj().T - g).max() < 1e-12


def test_feynman_spatial_gammas_antihermitian():
    m = dirac.build_matrices("feynman")
    for k in (1, 2, 3):
        g = m[f"gamma{k}"]
        assert np.abs(g.conj().T + g).max() < 1e-12


def test_invalid_indices_raise():
    # Dyson's time gamma is gamma4, Feynman's gamma0; neither table has the other
    assert "gamma0" not in dirac.build_matrices("dyson")
    assert "gamma4" not in dirac.build_matrices("feynman")
    with pytest.raises(DomainError):
        dirac.gammas("weyl")


def test_slash_zero_vector():
    assert np.abs(dirac.slash(FourVector())).max() == 0.0


def test_slash_square_is_dot():
    for _ in range(100):
        v = rand_vec()
        sq = dirac.slash(v) @ dirac.slash(v)
        assert np.abs(sq - v.dot(v) * np.eye(4)).max() < 1e-12


def test_slash_anticommutator_100_pairs():
    for _ in range(100):
        a, b = rand_vec(), rand_vec()
        lhs = dirac.slash(a) @ dirac.slash(b) + dirac.slash(b) @ dirac.slash(a)
        assert np.abs(lhs - 2.0 * a.dot(b) * np.eye(4)).max() < 1e-12


def test_feynman_slash_square():
    # v0 g0 - v.gamma squares to -dot(v, v) * I in the Feynman metric
    v = rand_vec()
    g1, g2, g3, g0 = dirac.gammas("feynman")
    vslash = v.x0 * g0 - v.x1 * g1 - v.x2 * g2 - v.x3 * g3
    assert np.abs(vslash @ vslash + v.dot(v) * np.eye(4)).max() < 1e-12


def test_spur_identity_is_four():
    assert dirac.spur(np.eye(4, dtype=complex)) == 4.0


def test_spur_single_gammas_vanish():
    for mu in range(4):
        assert abs(dirac.spur(dirac.gammas()[mu])) == 0.0


def test_spur_two_gammas():
    gs = dirac.gammas()
    for mu in range(4):
        for nu in range(4):
            assert abs(dirac.spur(gs[mu] @ gs[nu]) - 4.0 * (mu == nu)) < 1e-12


def test_spur_cyclic_and_reversal():
    for _ in range(200):
        n = RNG.integers(2, 7)
        mats = [dirac.slash(rand_vec()) for _ in range(n)]
        prod = np.eye(4, dtype=complex)
        for m in mats:
            prod = prod @ m
        cyc = np.eye(4, dtype=complex)
        for m in mats[1:] + mats[:1]:
            cyc = cyc @ m
        rev = np.eye(4, dtype=complex)
        for m in reversed(mats):
            rev = rev @ m
        s = dirac.spur(prod)
        assert abs(dirac.spur(cyc) - s) < 1e-10
        assert abs(dirac.spur(rev) - s) < 1e-10


def test_four_slash_spur_expansion():
    # Sp(a b c d) = 4[(a.b)(c.d) - (a.c)(b.d) + (a.d)(b.c)]
    for _ in range(50):
        a, b, c, d = (rand_vec() for _ in range(4))
        prod = dirac.slash(a) @ dirac.slash(b) @ dirac.slash(c) @ dirac.slash(d)
        expect = 4.0 * (a.dot(b) * c.dot(d) - a.dot(c) * b.dot(d)
                        + a.dot(d) * b.dot(c))
        assert abs(dirac.spur(prod) - expect) < 1e-10


def test_contracted_sandwich_closed_forms():
    a, b = rand_vec(), rand_vec()
    assert np.abs(dirac.contracted_sandwich([]) - 4 * np.eye(4)).max() == 0.0
    assert np.abs(dirac.contracted_sandwich([a]) + 2 * dirac.slash(a)).max() < 1e-12
    assert np.abs(dirac.contracted_sandwich([a, b])
                  - 4 * a.dot(b) * np.eye(4)).max() < 1e-12


def test_contracted_sandwich_orthogonal_pair_vanishes():
    a = FourVector(1.0, 0.0, 0.0, 0.0)
    b = FourVector(0.0, 2.0, 0.0, 0.0)
    assert np.abs(dirac.contracted_sandwich([a, b])).max() == 0.0


def test_contracted_sandwich_length_limit():
    with pytest.raises(DomainError):
        dirac.contracted_sandwich([rand_vec()] * 4)


def test_closure_and_associativity_spot_checks():
    for _ in range(50):
        a, b, c = (dirac.slash(rand_vec()) for _ in range(3))
        assert np.abs((a @ b) @ c - a @ (b @ c)).max() < 1e-12
        assert abs(dirac.spur(a @ b) - dirac.spur(b @ a)) < 1e-12


def test_feynman_gamma5_squares_to_minus_identity():
    m = dirac.build_matrices("feynman")
    assert np.abs(m["gamma5"] @ m["gamma5"] + np.eye(4)).max() < 1e-12


def test_perturbed_gamma1_fails_table():
    m = dirac.build_matrices("dyson")
    m = {k: v.copy() for k, v in m.items()}
    m["gamma1"][0, 0] += 1e-6
    rep = dirac.verify_identity_tables("dyson", matrices=m)
    assert not rep.passed
    assert rep.max_deviation > 0.0
    # a nan entry fails the table, and its deviation is reported as nan
    m["gamma1"][0, 0] = np.nan
    rep = dirac.verify_identity_tables("dyson", matrices=m)
    assert not rep.passed
    assert np.isnan(rep.max_deviation)


NAMED = [(conv, name) for conv in (dirac.DYSON, dirac.FEYNMAN)
         for name in dirac.build_matrices(conv)]


@pytest.mark.parametrize("conv, name", NAMED)
def test_each_perturbed_matrix_fails_its_table(conv, name):
    # the shared lines must read this convention's matrices, under its names
    m = {k: v.copy() for k, v in dirac.build_matrices(conv).items()}
    m[name][1, 2] += 1e-6
    assert not dirac.verify_identity_tables(conv, matrices=m).passed


def test_named_matrix_counts_and_distinct_labels():
    assert Counter(conv for conv, _ in NAMED) == {dirac.DYSON: 17, dirac.FEYNMAN: 14}
    for conv in (dirac.DYSON, dirac.FEYNMAN):
        labels = [label for label, _ in dirac.verify_identity_tables(conv).entries]
        assert len(set(labels)) == len(labels)


def test_tables_are_built_once_and_read_only():
    assert dirac.gammas("feynman")[0] is dirac.gammas("FEYNMAN")[0]
    assert dirac.gammas()[3] is dirac.GAMMA[3]
    with pytest.raises(ValueError):
        dirac.gammas("dyson")[0][0, 0] = 1.0
    assert np.array_equal(dirac.GAMMA_STACK, dirac.GAMMA)
    assert np.array_equal(dirac.I4J, 1j * dirac.I4)
    for const in (dirac.GAMMA_STACK, dirac.I4J, dirac._GAMMA_FLAT):
        with pytest.raises(ValueError):
            const[(0,) * const.ndim] = 1.0


# Components as slash meets them: ints pass unconverted (a FourVector would
# turn them into floats), with signed zeros, the smallest subnormal and 1e300.
COMPONENT = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]))


@settings(max_examples=300, deadline=None)
@given(COMPONENT, COMPONENT, COMPONENT, COMPONENT)
@example(-0.0, 0.0, 5e-324, -1e300)
@example(1, 0, -2, 3)
def test_slash_equals_the_sum_of_scaled_gammas(x1, x2, x3, x0):
    # the replaced expression, compared by value: only an exact zero's sign may differ
    v = SimpleNamespace(x1=x1, x2=x2, x3=x3, x0=x0)
    g1, g2, g3, g4 = dirac.GAMMA
    assert np.array_equal(dirac.slash(v), v.x1 * g1 + v.x2 * g2 + v.x3 * g3 + 1j * v.x0 * g4)


def test_spur_equals_numpy_trace():
    for _ in range(200):
        mat = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert dirac.spur(mat) == complex(np.trace(mat))


def _line_deviation(lhs, rhs):
    # one table line on its own, as each line was taken before the lines were stacked
    rhs = rhs if isinstance(rhs, np.ndarray) else rhs * dirac.I4
    return float(np.abs(lhs - rhs).max())


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("conv", [dirac.DYSON, dirac.FEYNMAN])
def test_stacked_table_deviations_equal_the_per_line_ones(conv, perturbed):
    m = {k: v.copy() for k, v in dirac.build_matrices(conv).items()}
    if perturbed:   # every line then deviates, by amounts that round differently
        for mat in m.values():
            mat += 1e-7 * (RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
    rep = dirac.verify_identity_tables(conv, matrices=m)
    assert rep.entries == [(label, _line_deviation(lhs, rhs))
                           for label, lhs, rhs in dirac._table_lines(conv, m)]
    assert rep.passed is not perturbed
    assert all(type(dev) is float for _, dev in rep.entries)


def test_rotation_by_two_pi_is_minus_one():
    S, _ = dirac.spin_rotation(2.0 * np.pi)
    assert np.abs(S + np.eye(4)).max() < 1e-12
