"""Momentum-space propagator kernels, Feynman-parameter formulas, and the
loop-integral primitives the radiative program reduces to.

Conventions: the photon kernel is 1/(k.k - i eps) and the electron kernel
(kslash + i m)/(k.k + m^2 - i eps); the overall -2i/(2 pi)^4 normalizations
live in the process formulas that cite them.  Wick-rotated loop integrals
over the contour C are pure closed forms here, each with a radial quadrature
oracle (4-sphere surface 2 pi^2).
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from . import numerics
from .errors import DomainError, NumericError, PoleError


class IEpsilonPolicy(namedtuple("IEpsilonPolicy", "epsilon exact")):
    """Finite i-epsilon displacement, or exact-limit mode which raises on poles."""

    __slots__ = ()

    def __new__(cls, epsilon: float = 1e-9,   # units of m^2
                exact: bool = False):
        if not exact and epsilon <= 0:
            raise DomainError("finite i-epsilon policy needs epsilon > 0")
        return super().__new__(cls, epsilon, exact)

    @classmethod
    def exact_limit(cls) -> "IEpsilonPolicy":
        return cls(epsilon=0.0, exact=True)


DEFAULT_POLICY = IEpsilonPolicy()
# feynman_combine2's Gauss route checks these before any numpy call, so that
# no overflow warning reaches stderr: |log(a/b)| within exp's range, and an
# integrand whose weighted sum stays finite.
_LOG_MAX = math.log(sys.float_info.max)
_PEAK_MAX = sys.float_info.max / 4.0
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
    (1e-3 converges, 1e-9 raises NumericError); exact mode raises PoleError.
    In exact mode an a/b or an integrand beyond the float range raises
    NumericError."""
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
        if not 0.0 < ratio < math.inf:
            raise NumericError("quadrature failed: a/b is outside the float range")
        # a - b is exact within a factor 2 (Sterbenz), where log1p keeps log(r) accurate
        log_r = math.log1p((ar - br) / br) if 0.5 <= ratio <= 2.0 else math.log(ratio)
        if abs(log_r) > _LOG_MAX:
            raise NumericError("quadrature failed: log(a/b) is outside exp's range")
        jac = log_r / (ar - br) if ar != br else 1.0 / br
        scale = jac / br
        # scale r^-u is largest at u = 0 or u = 1; the rule's weights sum to 2,
        # so a peak under a quarter of the largest float keeps its sum finite
        if not abs(scale) * math.exp(max(0.0, -log_r)) < _PEAK_MAX:
            raise NumericError("quadrature failed: the integrand overflows")
        return complex(numerics.gauss(lambda u: scale * np.exp(-log_r * u), 0.0, 1.0,
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


def _check_lambdas(*lams: float) -> None:
    for lam in lams:
        if not 0.0 < lam < math.inf:   # NaN fails too
            raise DomainError("Lambda must be positive and finite")


def _finite(val: complex) -> complex:
    if not cmath.isfinite(val):
        raise NumericError("loop integral is outside the float range")
    return val


def loop_integral_I(lam: float) -> complex:
    """int_C dk (k^2 + Lambda)^-3 = pi^2 i / (2 Lambda)."""
    _check_lambdas(lam)
    return _finite(1j * math.pi**2 / (2.0 * lam))


def loop_integral_I_quadrature(lam: float) -> complex:
    """Radial oracle: 2 pi^2 i int_0^inf k^3 dk (k^2 + Lambda)^-3.  With
    k = sqrt(Lambda) t/(1-t) the radial integral is (1/Lambda) times
    int_0^1 t^3 (1-t) dt/(t^2 + (1-t)^2)^3, smooth on [0, 1]."""
    _check_lambdas(lam)
    val = numerics.gauss(lambda t: t**3 * (1.0 - t) / (t * t + (1.0 - t) ** 2) ** 3,
                         0.0, 1.0, tol=1e-8, what="radial loop quadrature") / lam
    return _finite(2j * math.pi**2 * val)


def loop_log_difference(lam: float, lam_prime: float) -> complex:
    """int_C dk [(k^2+Lambda)^-2 - (k^2+Lambda')^-2] = pi^2 i log(Lambda'/Lambda)."""
    _check_lambdas(lam, lam_prime)
    ratio = lam_prime / lam
    if not 0.0 < ratio < math.inf:
        raise NumericError("Lambda'/Lambda is outside the float range")
    return 1j * math.pi**2 * math.log(ratio)


def loop_log_difference_quadrature(lam: float, lam_prime: float) -> complex:
    _check_lambdas(lam, lam_prime)
    val = numerics.quad(
        lambda k: k**3 * (1.0 / (k**2 + lam) ** 2 - 1.0 / (k**2 + lam_prime) ** 2),
        0.0, math.inf, tol=1e-10, what="radial loop quadrature")
    return 2j * math.pi**2 * val


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
