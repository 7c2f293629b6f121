"""Every oracle pair of qed51.oracles, PAIRS and NUMERIC_PAIRS, at its point
and on random draws, and the scipy split between the two tuples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed51 import oracles, processes
from qed51.constants import ERA_1951, MODERN
from qed51.hydrogen import DiracQuantumNumbers
from qed51.kinematics import FourVector
from qed51.oracles import BY_NAME

ALPHA = MODERN.alpha
ALL_PAIRS = oracles.PAIRS + oracles.NUMERIC_PAIRS


@pytest.fixture(scope="module")
def rows():
    # one generator shared in registry order, as verify all draws for PAIRS
    rng = np.random.default_rng(oracles.SEED)
    return [pair.row(ALPHA, rng) for pair in ALL_PAIRS]


@pytest.mark.parametrize("index", range(len(ALL_PAIRS)), ids=[pair.name for pair in ALL_PAIRS])
def test_pair_holds_at_its_point(index, rows):
    pair = ALL_PAIRS[index]
    name, deviation, status = rows[index]
    assert name == pair.name
    assert deviation < pair.tol and status == "pass"


def _kn_point(eps, theta, incident, scattered):
    return (eps, theta, FourVector(*incident),
            processes.scattered_polarization_basis(theta)[scattered])


def _log_floats(lo, hi):
    """Log-uniform floats in [lo, hi]; 10**e can round past either end."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


def _levels(max_big_n):
    return st.sampled_from([(DiracQuantumNumbers(n, k),) for n in range(max_big_n)
                            for k in range(-max_big_n, max_big_n + 1)
                            if k and (n or k > 0) and n + abs(k) <= max_big_n])


VECTORS = st.builds(FourVector, *[st.floats(-1.0, 1.0)] * 4)
MOMENTA = st.tuples(*[st.floats(-0.3, 0.3)] * 3)
DIRECTIONS = st.builds(lambda th, ph: (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                                       math.cos(th)),
                       st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
# On-shell draws inside the range where the brute-force oracles keep their
# precision: the Klein-Nishina spur loses digits where the spin sum vanishes
# (eps, theta -> 0 with perpendicular polarizations).
KN_DRAWS = st.builds(_kn_point, st.floats(0.05, 100.0), st.floats(0.05, math.pi),
                     st.sampled_from([(1, 0, 0, 0), (0, 1, 0, 0)]), st.sampled_from([0, 1]))

# One strategy per entry, in registry order: the points each pair is checked
# at, with alpha drawn from ALPHAS.  A closed form that is exact only away
# from a zero or a singularity is drawn away from it.
DRAWS = {
    "dyson summary table": st.just(("dyson",)),
    "feynman summary table": st.just(("feynman",)),
    "contraction identities vs explicit sum": st.lists(VECTORS, max_size=3).map(lambda v: ([v],)),
    "spur of odd products": st.sampled_from([1, 3, 5]).flatmap(
        lambda n: st.lists(VECTORS, min_size=n, max_size=n)).map(lambda v: ([v],)),
    "spinor completeness": st.tuples(st.floats(1.0, 50.0), DIRECTIONS),
    "Klein-Nishina trace oracle": KN_DRAWS,
    # the Moller spin sum loses digits near the Coulomb singularity, theta* -> 0 or pi
    "Moller spin-sum oracle": st.tuples(st.floats(1.01, 50.0), st.floats(0.01, math.pi / 2 - 0.01)),
    "Mott spin-factor oracle": st.tuples(
        st.floats(1.01, 50.0), st.floats(0.0, math.pi, exclude_min=True)),
    "Feynman formula 1/(ab)": st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    "loop integral radial oracle": st.tuples(_log_floats(1e-3, 1e3)),
    "infrared split independence": st.builds(
        lambda de, lo, hi, q2: (de * lo, de * hi, de, q2), _log_floats(1e-6, 1e-2),
        _log_floats(1e-4, 1.0), _log_floats(1e-4, 1.0), st.floats(0.0, 0.1)),
    "self-energy z-integral": st.tuples(st.floats(0.0, 10.0)),
    "Klein-Nishina spinor oracle": KN_DRAWS,
    "spin sum via projector": st.integers(0, 2**32 - 1).map(np.random.default_rng).map(
        BY_NAME["spin sum via projector"].point),
    "Dirac energy from series termination": _levels(6),
    "f(theta) Gauss oracle": st.tuples(st.floats(0.1, math.pi)),
    "spinor Lorentz covariance": st.tuples(st.floats(-2 * math.pi, 2 * math.pi),
                                           st.floats(-3.0, 3.0)),
    "Compton amplitude spin sum": KN_DRAWS,
    # T from 1e-300 and dE/T from 1e-8: where 1/2T or 1/2dE overflows (T or dE
    # below about 2.8e-309) both sides come out nan or -inf
    "total correction f(theta) form": st.builds(
        lambda t, theta, share: (t, theta, t * share), _log_floats(1e-300, 0.2),
        st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), _log_floats(1e-8, 1.0)),
    "level shifts against the Lamb budget": st.tuples(_log_floats(1e-3, 1e5),
                                                      st.sampled_from([MODERN, ERA_1951])),
    "Dirac energy by shooting": _levels(2),
    "vacuum polarization quadrature": st.tuples(st.floats(-1e3, 1e3)),
    "pair creation power route": st.tuples(
        st.floats(0.01, 4.0), st.floats(-1e3, -4.01), st.floats(0.1, 10.0)),
    "K-integral radial oracle": st.builds(
        lambda p, pp, r: (p, pp, sum((a - b) ** 2 for a, b in zip(p, pp)), r),
        MOMENTA, MOMENTA, _log_floats(1e-8, 1e-3)),
    "Thomson total quadrature": st.just(()),
    "dipole rate quadrature": st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
    "O16 angular integral": st.just(()),
    "O16 energy-angular integral": st.tuples(st.floats(2.0, 40.0, exclude_min=True)),
    "loop log-difference radial oracle": st.builds(
        lambda lam, ratio: (lam, lam * ratio), _log_floats(1e-3, 1e3), st.floats(1.5, 100.0)),
    "Feynman formula 1/(abc)": st.tuples(*[st.floats(0.5, 5.0)] * 3),
    "f(theta) adaptive oracle": st.tuples(st.floats(1e-100, math.pi)),
}
ALPHAS = st.floats(1e-3, 0.099)


def test_draws_cover_every_pair_once():
    assert list(DRAWS) == [pair.name for pair in ALL_PAIRS]


# A quarter of the profile's examples per entry keeps the 31 entries near
# the cost of the other tests; --hypothesis-profile=ci runs 500 each.
@pytest.mark.parametrize("name", DRAWS)
@settings(deadline=None, max_examples=settings.default.max_examples // 4)
@given(data=st.data())
def test_pair_holds_on_random_draws(name, data):
    pair = BY_NAME[name]
    point = data.draw(DRAWS[name], label="point")
    assert pair.deviation(point, data.draw(ALPHAS, label="alpha")) < pair.tol


def test_only_numeric_pair_oracles_load_scipy(python_c):
    # a meta-path blocker makes every scipy import fail: every PAIRS entry and
    # every NUMERIC_PAIRS result still runs, and each NUMERIC_PAIRS oracle,
    # the positive control, reaches the blocker
    script = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("blocked " + name)
sys.meta_path.insert(0, BlockScipy())
import numpy as np
from qed51 import oracles, radiative
alpha = 1 / 137.036
rng = np.random.default_rng(oracles.SEED)
print([pair.row(alpha, rng)[2] for pair in oracles.PAIRS].count("pass"))
unblocked = []
for pair in oracles.NUMERIC_PAIRS:
    pair.result(*pair.point, alpha)
    try:
        pair.oracle(*pair.point, alpha)
        unblocked.append(pair.name)
    except ImportError as exc:
        assert str(exc) == "blocked scipy", exc
print(unblocked)
print(radiative.total_scattering_correction(0.02, 1.2, 1e-4, alpha) < 1.0)
"""
    assert python_c(script).splitlines() == [str(len(oracles.PAIRS)), "[]", "True"]
