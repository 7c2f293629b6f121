"""The checks `qed51 verify all` prints, each closed form with its oracle, kept once.
result and oracle take the point's arguments and alpha, and look their functions up at call
time; a callable point draws them from the caller's numpy.random.default_rng(SEED), in order."""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import dirac, kinematics, processes, propagators, radiative, spinors

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
         lambda *p: processes.kn_spin_summed_ksq(*p, "trace"),
         (1.0, math.pi / 3, kinematics.FourVector(0.0, 1.0, 0.0, 0.0), kinematics.FourVector(
             math.sin(math.pi / 4) * math.cos(math.pi / 3), math.cos(math.pi / 4),
             -math.sin(math.pi / 4) * math.sin(math.pi / 3), 0.0)), 1e-8, True),
    Pair("Moller spin-sum oracle", lambda *p: processes.moller_dcs(*p),
         lambda *p: processes.moller_dcs_brute(*p), (2.0, math.pi / 6), 1e-8, True),
    Pair("Mott spin-factor oracle", lambda e, th, a: spinors.mott_spin_factor(e, th),
         lambda e, th, a: spinors.mott_spin_factor_direct(e, th), (1.2, math.pi / 2), 1e-10, True),
    Pair("Feynman formula 1/(ab)", lambda x, y, a: 1.0 / (x * y), lambda x, y, a:
         propagators.feynman_combine2(x, y, propagators.IEpsilonPolicy.exact_limit()),
         (2.0, 3.0), 1e-10),
    Pair("loop integral radial oracle", lambda lam, a: propagators.loop_integral_I(lam),
         lambda lam, a: propagators.loop_integral_I_quadrature(lam), (1.0,), 1e-8),
    Pair("infrared split independence",
         lambda lo, hi, de, q2, a: radiative.observable_scattering_probability(hi, de, q2, a),
         lambda lo, hi, de, q2, a: radiative.observable_scattering_probability(lo, de, q2, a),
         (1e-6, 1e-4, 1e-3, 0.01), 1e-12, True),
    Pair("self-energy z-integral", lambda r, a: -(math.pi**2) * (6.0 * r + 5.0),
         lambda r, a: radiative.self_energy_z_integral(r), (3.0,), 1e-8),
)
