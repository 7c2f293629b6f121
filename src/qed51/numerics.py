"""The package's one interface to scipy: checked quadrature (QUADPACK), ODE
endpoints (ODEPACK's LSODA) and bracketed root finding (brentq), plus a
Gauss-Legendre rule that needs no scipy.

scipy is imported inside each call, never when this module loads, so a
command that integrates nothing never pays for the import.  Every function
checks what the solver reports and raises NumericError instead of returning
an unconverged value or letting a solver warning reach stderr.  A quadrature
counts as converged when its error estimate (QUADPACK's, or for gauss the
change from half the nodes) is at most tol * max(1, |value|) and QUADPACK
issued no IntegrationWarning; an ODE solve when LSODA reports success.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import numpy as np

from .errors import NumericError

GAUSS_NODES = 64
# LSODA step cap per ode_endpoint call.  A radial shooting solve takes up to
# about 800 steps (N <= 4 at alpha = 0.09), more than odeint's default of 500.
ODE_MAX_STEPS = 20_000


def _check(err: float, scale: float, tol: float, what: str) -> None:
    if err > tol * max(1.0, scale):
        raise NumericError(f"{what} failed to converge")


def gauss(f, a: float, b: float, *, tol: float, what: str) -> float:
    """GAUSS_NODES-point Gauss-Legendre rule on [a, b], checked against the
    rule with half as many nodes; f maps a numpy array of nodes to values.
    For integrands smooth on the closed interval (map endpoint singularities
    and infinite ranges away first); numpy only, so it never loads scipy."""
    def rule(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (b - a)
        return half * float(np.dot(weights, f(a + half * (nodes + 1.0))))

    val = rule(GAUSS_NODES)
    _check(abs(val - rule(GAUSS_NODES // 2)), abs(val), tol, what)
    return val


@contextmanager
def _quadpack(what: str):
    """scipy.integrate, with QUADPACK's IntegrationWarning (subdivision
    limit, roundoff, divergence) raised as NumericError instead of printed."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            yield integrate
        except integrate.IntegrationWarning as exc:
            raise NumericError(f"{what} failed to converge: {exc}") from exc


def quad(f, a, b, *, tol: float, what: str, **quad_kw) -> float:
    """scipy.integrate.quad of a real integrand, checked against tol."""
    with _quadpack(what) as integrate:
        val, err = integrate.quad(f, a, b, **quad_kw)
    _check(err, abs(val), tol, what)
    return val


def quad_complex(f, a, b, *, tol: float, what: str, **quad_kw) -> complex:
    """Real and imaginary parts of a complex integrand by two quad calls;
    the larger error estimate is checked against the larger part."""
    with _quadpack(what) as integrate:
        re, re_err = integrate.quad(lambda t: f(t).real, a, b, **quad_kw)
        im, im_err = integrate.quad(lambda t: f(t).imag, a, b, **quad_kw)
    _check(max(re_err, im_err), max(abs(re), abs(im)), tol, what)
    return complex(re, im)


def dblquad(f, a, b, gfun, hfun, *, tol: float, what: str, **quad_kw) -> float:
    """scipy.integrate.dblquad, f(y, x) over a <= x <= b and
    gfun(x) <= y <= hfun(x), checked against tol."""
    with _quadpack(what) as integrate:
        val, err = integrate.dblquad(f, a, b, gfun, hfun, **quad_kw)
    _check(err, abs(val), tol, what)
    return val


def ode_endpoint(rhs, t_span, y0, *, what: str, **odeint_kw):
    """Final state of y' = rhs(t, y) from t_span[0] to t_span[1] (either
    direction) by ODEPACK's LSODA, the compiled order-switching
    Adams/BDF integrator behind scipy.integrate.odeint, capped at
    ODE_MAX_STEPS steps.  odeint signals failure (negative istate) only by
    an ODEintWarning; that becomes NumericError, and no warning from the
    solve or the right-hand side escapes."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", integrate.ODEintWarning)
        try:
            ys = integrate.odeint(rhs, y0, t_span, tfirst=True,
                                  mxstep=ODE_MAX_STEPS, **odeint_kw)
        except integrate.ODEintWarning as exc:
            raise NumericError(f"{what} failed: {exc}") from exc
    return ys[-1]


def root(f, lo: float, hi: float, *, xtol: float, what: str) -> float:
    """Zero of f in [lo, hi] by Brent's method (scipy.optimize.brentq); f(lo)
    and f(hi) must differ in sign."""
    from scipy import optimize

    try:
        return optimize.brentq(f, lo, hi, xtol=xtol)
    except (RuntimeError, ValueError) as exc:
        raise NumericError(f"{what} failed: {exc}") from exc
