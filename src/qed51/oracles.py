"""Every closed form with its oracle, each pair kept once, in two tuples.
PAIRS are the checks `qed51 verify all` prints; none of them loads scipy.
NUMERIC_PAIRS have an oracle that reaches scipy through qed51.numerics, so
verify all leaves them out and no subcommand loads scipy; the tests run both.
result and oracle take the point's arguments and alpha, and look their functions up at call
time; a callable point draws them from the caller's numpy.random.default_rng(SEED), in order."""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import dirac, hydrogen, kinematics, processes, propagators, radiative, spinors

SEED = 20510


@dataclass(frozen=True)
class Pair:
    name: str
    result: Callable
    oracle: Callable
    point: tuple | Callable
    tol: float
    relative: bool = False   # |oracle/result - 1|, else max |oracle - result|

    def deviation(self, point: tuple, alpha: float) -> float:
        value, oracle = self.result(*point, alpha), self.oracle(*point, alpha)
        return float(abs(oracle / value - 1.0) if self.relative else np.abs(oracle - value).max())

    def row(self, alpha: float, rng) -> list:
        dev = self.deviation(self.point(rng) if callable(self.point) else self.point, alpha)
        return [self.name, dev, "pass" if dev < self.tol else "FAIL"]


def _draws(count: int, size: int):
    return lambda rng: ([[kinematics.FourVector(*rng.uniform(-1, 1, size=4)) for _ in range(size)]
                         for _ in range(count)],)


def _spin_sum_point(rng):
    """(O, P, state, sign, s, r): O and P products of one to four slashed
    vectors, s and r complex 4-spinors."""
    def operator():
        return reduce(np.matmul, [dirac.slash(kinematics.FourVector(*rng.uniform(-1, 1, size=4)))
                                  for _ in range(rng.integers(1, 5))])

    state = kinematics.electron_from_energy(rng.uniform(1.01, 4.0), rng.normal(size=3))
    o, p = operator(), operator()
    s, r = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    return o, p, state, (1, -1)[rng.integers(2)], s, r


_KN_POINT = (1.0, math.pi / 3, kinematics.FourVector(0.0, 1.0, 0.0, 0.0), kinematics.FourVector(
    math.sin(math.pi / 4) * math.cos(math.pi / 3), math.cos(math.pi / 4),
    -math.sin(math.pi / 4) * math.sin(math.pi / 3), 0.0))
_EXACT = propagators.IEpsilonPolicy.exact_limit()
_2S = (hydrogen.DiracQuantumNumbers(1, -1),)


def _energy(qn, a):
    return hydrogen.dirac_energy(qn, a).energy


PAIRS = (
    *(Pair(f"{conv} summary table", lambda *_: 0.0,
           lambda conv, a: dirac.verify_identity_tables(conv).max_deviation, (conv,),
           dirac.TOL_TABLE)
      for conv in (dirac.DYSON, dirac.FEYNMAN)),
    Pair("contraction identities vs explicit sum",
         lambda draws, a: np.array([dirac.contracted_sandwich(v) for v in draws]),
         lambda draws, a: np.array([dirac.contracted_sandwich_explicit(v) for v in draws]),
         _draws(200, 3), 1e-10),
    Pair("spur of odd products", lambda *_: 0.0, lambda draws, a: np.array(
        [dirac.spur(reduce(np.matmul, map(dirac.slash, v))) for v in draws]),
         _draws(100, 5), 1e-10),
    Pair("spinor completeness", lambda e, d, a: np.eye(4),
         lambda e, d, a: spinors.completeness_matrix(kinematics.electron_from_energy(e, d)),
         (1.7, (0.3, -0.5, 0.81)), 1e-10),
    Pair("Klein-Nishina trace oracle", lambda *p: processes.kn_spin_summed_ksq(*p),
         lambda *p: processes.kn_spin_summed_ksq(*p, "trace"), _KN_POINT, 1e-8, True),
    Pair("Moller spin-sum oracle", lambda *p: processes.moller_dcs(*p),
         lambda *p: processes.moller_dcs_brute(*p), (2.0, math.pi / 6), 1e-8, True),
    Pair("Mott spin-factor oracle", lambda e, th, a: spinors.mott_spin_factor(e, th),
         lambda e, th, a: spinors.mott_spin_factor_direct(e, th), (1.2, math.pi / 2), 1e-10, True),
    Pair("Feynman formula 1/(ab)", lambda x, y, a: 1.0 / (x * y),
         lambda x, y, a: propagators.feynman_combine2(x, y, _EXACT), (2.0, 3.0), 1e-10),
    Pair("loop integral radial oracle", lambda lam, a: propagators.loop_integral_I(lam),
         lambda lam, a: propagators.loop_integral_I_quadrature(lam), (1.0,), 1e-8),
    Pair("infrared split independence",
         lambda lo, hi, de, q2, a: radiative.observable_scattering_probability(hi, de, q2, a),
         lambda lo, hi, de, q2, a: radiative.observable_scattering_probability(lo, de, q2, a),
         (1e-6, 1e-4, 1e-3, 0.01), 1e-12, True),
    Pair("self-energy z-integral", lambda r, a: -(math.pi**2) * (6.0 * r + 5.0),
         lambda r, a: radiative.self_energy_z_integral(r), (3.0,), 1e-8),
    Pair("Klein-Nishina spinor oracle", lambda *p: processes.kn_spin_summed_ksq(*p),
         lambda *p: processes.kn_spin_summed_ksq(*p, "spinors"), _KN_POINT, 1e-8, True),
    Pair("spin sum via projector", lambda *p: spinors.spin_sum(*p[:-1]),
         lambda *p: spinors.spin_sum_direct(*p[:-1]), _spin_sum_point, 1e-9, True),
    Pair("Dirac energy from series termination", _energy, lambda qn, a:
         hydrogen.radial_recursion_check(qn, a).energy_from_termination, _2S, 1e-12, True),
    Pair("f(theta) Gauss oracle", lambda th, a: radiative.total_correction_f_theta(th),
         lambda th, a: radiative.total_correction_f_theta(th, "gauss"), (math.pi / 2,), 1e-10),
)

NUMERIC_PAIRS = (
    Pair("Dirac energy by shooting", _energy, lambda qn, a:
         hydrogen.radial_shoot(qn, a, 1.0 - a**2 / (2.0 * qn.big_n**2)), _2S, 1e-8, True),
    Pair("vacuum polarization quadrature",
         lambda q2, a: radiative.vacuum_polarization(q2, a).in_phase,
         lambda q2, a: radiative.vacuum_polarization_quadrature(q2, a), (-10.0,), 1e-11),
    Pair("pair creation power route",
         lambda e2, q2, q0, a: radiative.pair_creation_probability(e2, q2, a),
         lambda *p: radiative.pair_creation_probability_power_route(*p), (0.5, -9.0, 3.2),
         1e-9, True),
    Pair("K-integral radial oracle", lambda *p: radiative.k_integral_closed(*p[:-1]),
         lambda *p: radiative.k_integral_radial(*p[:-1]),
         ((0.0, 0.0, 0.1), (0.1 * math.sqrt(1.0 - 0.875**2), 0.0, 0.0875), 0.0025, 1e-3),
         1e-6, True),
    Pair("Thomson total quadrature", lambda a: processes.thomson_total(),
         lambda a: processes.thomson_total_numeric(), (), 1e-6, True),
    Pair("dipole rate quadrature", lambda *p: processes.dipole_emission_rate(*p),
         lambda *p: processes.dipole_emission_rate_quadrature(*p), (0.3, 2.0), 1e-10, True),
    Pair("O16 angular integral", lambda a: 2.0, lambda a: processes.o16_angular_integral(),
         (), 1e-8),
    Pair("O16 energy-angular integral", lambda de, a: de**5 / 15.0,
         lambda de, a: processes.o16_energy_angular_integral(de), (11.74,), 1e-8, True),
    Pair("loop log-difference radial oracle",
         lambda lam, lam2, a: propagators.loop_log_difference(lam, lam2),
         lambda lam, lam2, a: propagators.loop_log_difference_quadrature(lam, lam2),
         (1.0, 3.0), 1e-8, True),
    Pair("Feynman formula 1/(abc)", lambda x, y, z, a: 1.0 / (x * y * z),
         lambda x, y, z, a: propagators.feynman_combine3(x, y, z, _EXACT), (1.0, 2.0, 4.0), 1e-8),
    Pair("f(theta) adaptive oracle", lambda th, a: radiative.total_correction_f_theta(th),
         lambda th, a: radiative.total_correction_f_theta(th, "adaptive"), (math.pi / 2,), 1e-8),
)

BY_NAME = {pair.name: pair for pair in PAIRS + NUMERIC_PAIRS}
