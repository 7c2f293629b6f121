"""Every oracle pair of qed51.oracles.PAIRS at the point `verify all` checks
it, and the pairs with kinematic arguments on random on-shell draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed51 import oracles, processes
from qed51.constants import MODERN
from qed51.kinematics import FourVector

ALPHA = MODERN.alpha
BY_NAME = {pair.name: pair for pair in oracles.PAIRS}


@pytest.fixture(scope="module")
def rows():
    # one generator shared in PAIRS order, as verify all draws
    rng = np.random.default_rng(oracles.SEED)
    return [pair.row(ALPHA, rng) for pair in oracles.PAIRS]


@pytest.mark.parametrize("index", range(len(oracles.PAIRS)),
                         ids=[pair.name for pair in oracles.PAIRS])
def test_pair_holds_at_its_point(index, rows):
    pair = oracles.PAIRS[index]
    name, deviation, status = rows[index]
    assert name == pair.name
    assert deviation < pair.tol and status == "pass"


def _kn_point(eps, theta, incident, scattered):
    return (eps, theta, FourVector(*incident),
            processes.scattered_polarization_basis(theta)[scattered])


# On-shell draws inside the range where the brute-force oracles keep their
# precision: the Moller spin sum loses digits near the Coulomb singularity
# (theta* -> 0 or pi), the Klein-Nishina spur where the spin sum vanishes
# (eps, theta -> 0 with perpendicular polarizations).
KINEMATIC_DRAWS = {
    "Moller spin-sum oracle": st.tuples(
        st.floats(1.01, 50.0), st.floats(0.01, math.pi / 2 - 0.01)),
    "Klein-Nishina trace oracle": st.builds(
        _kn_point, st.floats(0.05, 100.0), st.floats(0.05, math.pi),
        st.sampled_from([(1, 0, 0, 0), (0, 1, 0, 0)]), st.sampled_from([0, 1])),
    "Mott spin-factor oracle": st.tuples(
        st.floats(1.01, 50.0), st.floats(0.0, math.pi, exclude_min=True)),
}


@pytest.mark.parametrize("name", KINEMATIC_DRAWS)
@settings(deadline=None)
@given(data=st.data())
def test_kinematic_pairs_hold_on_random_draws(name, data):
    pair = BY_NAME[name]
    point = data.draw(KINEMATIC_DRAWS[name], label="point")
    assert pair.deviation(point, ALPHA) < pair.tol
