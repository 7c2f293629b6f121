"""Momentum-space propagator kernels, Feynman-parameter formulas, and the
loop-integral primitives the radiative program reduces to.

Conventions: the photon kernel is 1/(k.k - i eps) and the electron kernel
(kslash + i m)/(k.k + m^2 - i eps); the overall -2i/(2 pi)^4 normalizations
live in the process formulas that cite them.  Wick-rotated loop integrals
over the contour C are pure closed forms here, each with a radial quadrature
oracle (4-sphere surface 2 pi^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import numerics
from .errors import DomainError, NumericError, PoleError

if TYPE_CHECKING:
    import numpy as np

    from .kinematics import FourVector

@dataclass(frozen=True)
class IEpsilonPolicy:
    """Finite i-epsilon displacement, or exact-limit mode which raises on poles."""

    epsilon: float = 1e-9   # units of m^2
    exact: bool = False

    def __post_init__(self):
        if not self.exact and self.epsilon <= 0:
            raise DomainError("finite i-epsilon policy needs epsilon > 0")

    @classmethod
    def exact_limit(cls) -> "IEpsilonPolicy":
        return cls(epsilon=0.0, exact=True)


DEFAULT_POLICY = IEpsilonPolicy()
_CROSSING = ("combination denominator crosses zero; supply an i-epsilon "
             "far above the default, such as 1e-3")


def photon_propagator(k: FourVector, policy: IEpsilonPolicy = DEFAULT_POLICY) -> complex:
    """Scalar kernel 1/(k.k - i eps)."""
    k2 = k.dot(k)
    if policy.exact:
        if k2 == 0.0:
            raise PoleError("photon propagator evaluated on the light cone in exact mode")
        return 1.0 / k2
    return 1.0 / (k2 - 1j * policy.epsilon)


def electron_propagator(k: FourVector,
                        policy: IEpsilonPolicy = DEFAULT_POLICY) -> np.ndarray:
    """(kslash + i m) / (k.k + m^2 - i eps) with m = 1, a 4x4 matrix."""
    from .dirac import I4, slash

    denom = k.dot(k) + 1.0
    if policy.exact:
        if denom == 0.0:
            raise PoleError("electron propagator evaluated on shell in exact mode")
        denom_c = denom
    else:
        denom_c = denom - 1j * policy.epsilon
    return (slash(k) + 1j * I4) / denom_c


def feynman_combine2(a, b, policy: IEpsilonPolicy = DEFAULT_POLICY) -> complex:
    """Quadrature oracle of 1/(a b): int_0^1 dz [a z + b (1-z)]^-2 by adaptive
    quadrature, or by Gauss-Legendre for real endpoints of one sign in exact
    mode.  Equals 1/(a b) when the segment from b to a avoids the origin.
    A segment through the origin needs an i-epsilon far above the default
    (1e-3 converges, 1e-9 raises NumericError); exact mode raises PoleError."""
    import numpy as np

    a, b = complex(a), complex(b)
    if policy.exact and a.imag == 0.0 and b.imag == 0.0:
        # segment a z + b (1-z) crosses zero iff the endpoints differ in sign
        if a.real == 0.0 or b.real == 0.0 or (a.real > 0) != (b.real > 0):
            raise PoleError(_CROSSING)
        # along the segment D = b r^u with r = a/b, so dz/D^2 = log(r)/(a-b) du/D,
        # smooth in u for any ratio (du/b^2 when a = b)
        ar, br = a.real, b.real
        ratio = ar / br
        # a - b is exact within a factor 2 (Sterbenz), where log1p keeps log(r) accurate
        log_r = math.log1p((ar - br) / br) if 0.5 <= ratio <= 2.0 else math.log(ratio)
        jac = log_r / (ar - br) if ar != br else 1.0 / br
        return complex(numerics.gauss(lambda u: jac / br * np.exp(-log_r * u), 0.0, 1.0,
                                      tol=1e-6, what="quadrature"))
    shift = 0.0 if policy.exact else -1j * policy.epsilon
    return numerics.quad_complex(lambda z: 1.0 / (a * z + b * (1.0 - z) + shift) ** 2,
                                 0.0, 1.0, tol=1e-8, what="quadrature")


def feynman_combine3(a, b, c, policy: IEpsilonPolicy = DEFAULT_POLICY) -> complex:
    """Quadrature oracle of 1/(a b c): the nested adaptive quadrature
    2 int_0^1 dx int_0^1 x dy [a(1-x) + b x y + c x (1-y)]^-3 = 1/(a b c).
    Real a, b, c of both signs need an i-epsilon far above the default (1e-3
    converges, 1e-9 raises NumericError); exact mode raises PoleError."""
    a, b, c = complex(a), complex(b), complex(c)
    if policy.exact and all(v.imag == 0.0 for v in (a, b, c)):
        reals = [v.real for v in (a, b, c)]
        if any(v == 0.0 for v in reals) or (max(reals) > 0) != (min(reals) > 0):
            raise PoleError(_CROSSING)
    shift = 0.0 if policy.exact else -1j * policy.epsilon

    def inner(x):
        return numerics.quad_complex(
            lambda y: x / (a * (1 - x) + b * x * y + c * x * (1 - y) + shift) ** 3,
            0.0, 1.0, tol=1e-8, what="quadrature")

    return 2.0 * numerics.quad_complex(inner, 0.0, 1.0, tol=1e-8, what="2-D quadrature")


def loop_integral_I(lam: float) -> complex:
    """int_C dk (k^2 + Lambda)^-3 = pi^2 i / (2 Lambda)."""
    if lam <= 0:
        raise DomainError("Lambda must be positive")
    return 1j * math.pi**2 / (2.0 * lam)


def loop_integral_I_quadrature(lam: float) -> complex:
    """Radial oracle: 2 pi^2 i int_0^inf k^3 dk (k^2 + Lambda)^-3.  With
    k = sqrt(Lambda) t/(1-t) the radial integral is (1/Lambda) times
    int_0^1 t^3 (1-t) dt/(t^2 + (1-t)^2)^3, smooth on [0, 1]."""
    if lam <= 0:
        raise DomainError("Lambda must be positive")
    val = numerics.gauss(lambda t: t**3 * (1.0 - t) / (t * t + (1.0 - t) ** 2) ** 3,
                         0.0, 1.0, tol=1e-8, what="radial loop quadrature") / lam
    return 2j * math.pi**2 * val


def loop_log_difference(lam: float, lam_prime: float) -> complex:
    """int_C dk [(k^2+Lambda)^-2 - (k^2+Lambda')^-2] = pi^2 i log(Lambda'/Lambda)."""
    if lam <= 0 or lam_prime <= 0:
        raise DomainError("Lambda values must be positive")
    return 1j * math.pi**2 * math.log(lam_prime / lam)


def loop_log_difference_quadrature(lam: float, lam_prime: float) -> complex:
    if lam <= 0 or lam_prime <= 0:
        raise DomainError("Lambda values must be positive")
    val = numerics.quad(
        lambda k: k**3 * (1.0 / (k**2 + lam) ** 2 - 1.0 / (k**2 + lam_prime) ** 2),
        0.0, math.inf, tol=1e-10, what="radial loop quadrature")
    return 2j * math.pi**2 * val


@dataclass
class CutoffQuantity:
    """A value of the form finite + log_coeff * log(k_max), kept symbolic.

    Evaluation requires an explicit cutoff value.  log_coeff may be complex
    (the divergent photon integral carries 2 pi^2 i per unit log).
    """

    finite: complex
    log_coeff: complex

    def __add__(self, other):
        if isinstance(other, CutoffQuantity):
            return CutoffQuantity(self.finite + other.finite,
                                  self.log_coeff + other.log_coeff)
        return CutoffQuantity(self.finite + other, self.log_coeff)

    __radd__ = __add__

    def __mul__(self, c):
        return CutoffQuantity(self.finite * c, self.log_coeff * c)

    __rmul__ = __mul__

    def evaluate(self, cutoff_value: float) -> complex:
        if cutoff_value <= 0:
            raise DomainError("cutoff value must be positive")
        return self.finite + self.log_coeff * math.log(cutoff_value)


def divergent_photon_integral() -> CutoffQuantity:
    """int_C dk (k^2 + m^2)^-2 = 2 pi^2 i log(k_max/m), never a float."""
    return CutoffQuantity(finite=0.0, log_coeff=2j * math.pi**2)


def principal_value(f, a: float, b: float, pole: float) -> float:
    """Cauchy principal value of int_a^b f, where f carries a simple pole inside
    (a, b); either end may be infinite.  The part of [a, b] symmetric about the
    pole folds onto [0, w], where f(pole + t) + f(pole - t) is bounded; it and
    the one-sided rest are two checked quadratures."""
    if not a < pole < b:
        raise DomainError("pole must lie strictly inside the interval")
    what = "principal-value quadrature"

    def folded(t):
        if pole - t == pole or pole + t == pole:   # a node within rounding of the pole
            raise NumericError(f"{what} sampled the pole itself")
        return f(pole + t) + f(pole - t)

    w = min(pole - a, b - pole)
    lo, hi = (a, pole - w) if pole - a > w else (pole + w, b)
    rest = numerics.quad(f, lo, hi, tol=1e-8, what=what) if lo < hi else 0.0
    return numerics.quad(folded, 0.0, w, tol=1e-8, what=what) + rest
