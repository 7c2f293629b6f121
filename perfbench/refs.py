"""Independent references the benchmark checks the program against, and the
comparison rule every check uses.

Nothing here calls the package: the vacuum-polarization integrals use a
tanh-sinh rule in numpy (not QUADPACK), and pairing counts come from the
closed-form factorization T(n) F(n).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def within(value, reference, rtol=0.0, atol=0.0) -> bool:
    """|value - reference| <= atol + rtol |reference|, elementwise for arrays.

    Exact comparison when both tolerances are zero.  NaN never passes.
    """
    v = np.asarray(value)
    r = np.asarray(reference)
    if v.shape != r.shape:
        return False
    diff = np.abs(v - r)
    if not np.all(np.isfinite(diff)):
        return False
    return bool(np.all(diff <= atol + rtol * np.abs(r)))


# ---------------------------------------------------------------------------
# tanh-sinh quadrature with endpoint distances kept exact, so integrands with
# logarithmic endpoint singularities converge to rounding error.

_H = 1.0 / 64.0
_K = np.arange(-6 * 64, 6 * 64 + 1)


@lru_cache(maxsize=None)
def _tanh_sinh_nodes():
    u = 0.5 * math.pi * np.sinh(_K * _H)
    # distance of x = tanh(u) from -1 and from +1, without cancellation
    from_lo = 2.0 / (1.0 + np.exp(-2.0 * u))
    from_hi = 2.0 / (1.0 + np.exp(2.0 * u))
    w = 0.5 * math.pi * _H * np.cosh(_K * _H) / np.cosh(u) ** 2
    keep = (from_lo > 0.0) & (from_hi > 0.0) & (w > 0.0)
    return from_lo[keep], from_hi[keep], w[keep]


def tanh_sinh(f, a: float, b: float) -> float:
    """int_a^b f(t, d_a, d_b) dt, where d_a = t - a and d_b = b - t are
    passed exactly so the integrand can form log(t - a) near the endpoint."""
    from_lo, from_hi, w = _tanh_sinh_nodes()
    half = 0.5 * (b - a)
    d_a = half * from_lo
    d_b = half * from_hi
    t = a + d_a
    return float(half * np.sum(w * f(t, d_a, d_b)))


def vacpol_in_phase_integral(q2: float) -> float:
    """I(q2) = int_0^1 z/sqrt(1-z) log|1 + z q2/4| dz, after z = 1 - t^2:
    2 int_0^1 (1 - t^2) log|1 + (1 - t^2) q2/4| dt.

    For q2 < -4 the logarithm is singular at t* = sqrt(1 + 4/q2); the
    interval is split there and log|t - t*| is formed from the exact
    endpoint distance.
    """
    if q2 >= -4.0:
        def f(t, d_a, d_b):
            s = 1.0 - t * t
            return 2.0 * s * np.log(np.abs(1.0 + s * q2 / 4.0))
        return tanh_sinh(f, 0.0, 1.0)
    t_star = math.sqrt(1.0 + 4.0 / q2)
    scale = math.log(-q2 / 4.0)

    # |1 + (1 - t^2) q2/4| = (|q2|/4) |t - t*| (t + t*)
    def left(t, d_a, d_b):
        return 2.0 * (1.0 - t * t) * (scale + np.log(d_b) + np.log(t + t_star))

    def right(t, d_a, d_b):
        return 2.0 * (1.0 - t * t) * (scale + np.log(d_a) + np.log(t + t_star))

    return tanh_sinh(left, 0.0, t_star) + tanh_sinh(right, t_star, 1.0)


def absorptive_weight_integral(w0: float) -> float:
    """int_{w0}^1 z dz / sqrt(1 - z), by the same rule."""
    return tanh_sinh(lambda z, d_a, d_b: z / np.sqrt(d_b), w0, 1.0)


# ---------------------------------------------------------------------------
# Pairing counts of (psibar Aslash psi)^n.

def telephone(n: int) -> int:
    """Partial matchings of n points (OEIS A000085)."""
    a, b = 1, 1
    for k in range(1, n):
        a, b = b, b + k * a
    return b if n > 0 else 1


def fermion_matchings(n: int) -> int:
    """Partial matchings of n psibar with n psi, never at the same vertex:
    sum_k sum_j (-1)^j C(n,j) C(n-j,k-j)^2 (k-j)!."""
    return sum((-1) ** j * math.comb(n, j) * math.comb(n - j, k - j) ** 2
               * math.factorial(k - j)
               for k in range(n + 1) for j in range(k + 1))


def current_pairings(n: int) -> int:
    return telephone(n) * fermion_matchings(n)
