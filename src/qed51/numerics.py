"""The package's one interface to scipy: checked quadrature (QUADPACK), ODE
endpoints (ODEPACK's LSODA) and bracketed root finding (brentq), plus a
Gauss-Legendre rule that needs no scipy.

scipy, and numpy for the Gauss nodes, are imported inside each call, never
when this module loads, so a command that integrates nothing never pays for
either import.  tol is each call's one accuracy argument, and the target
the solver itself is given.  Every function checks what the solver reports
and raises NumericError instead of returning an unconverged value or letting
a solver warning reach stderr.  A quadrature counts as converged when its
error estimate (QUADPACK's, or for gauss the change from half the nodes) is
at most tol * max(1, |value|) and QUADPACK reported no failure: quad asks
QUADPACK for exactly that (epsabs = epsrel = tol, at most QUAD_LIMIT
subdivisions).  An ODE solve counts as converged when LSODA, under relative
error control at tol, reports success.
"""

from __future__ import annotations

import functools
import math
import warnings

from .errors import NumericError

GAUSS_NODES = 64
# QUADPACK subdivision cap per quad call (scipy's default is 50).
QUAD_LIMIT = 400
# LSODA step cap per ode_endpoint call.  Over 44 values of alpha in
# [1e-3, 0.099], the inward radial shooting solve takes at most 421 steps for
# N <= 4 and 1,111 for N = 6, more than odeint's default of 500.
ODE_MAX_STEPS = 20_000


def _check(err: float, scale: float, tol: float, what: str) -> None:
    # a nan or infinite value or error estimate fails the check as well
    if not (math.isfinite(scale) and err <= tol * max(1.0, scale)):
        raise NumericError(f"{what} failed to converge")


@functools.cache
def _legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n.
    Every gauss call shares them, so they are read-only."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss(f, a: float, b: float, *, tol: float, what: str) -> float:
    """GAUSS_NODES-point Gauss-Legendre rule on [a, b], checked against the
    rule with half as many nodes; f maps a numpy array of nodes to values.
    For integrands smooth on the closed interval (map endpoint singularities
    and infinite ranges away first); numpy only, so it never loads scipy.
    The package's only Gauss rule; its nodes are cached per n."""
    def rule(n):
        nodes, weights = _legendre(n)
        half = 0.5 * (b - a)
        return half * float(weights @ f(a + half * (nodes + 1.0)))

    val = rule(GAUSS_NODES)
    _check(abs(val - rule(GAUSS_NODES // 2)), abs(val), tol, what)
    return val


def quad(f, a, b, *, tol: float, what: str) -> float:
    """scipy.integrate.quad of a real integrand, with QUADPACK asked for
    err <= tol * max(1, |value|) (epsabs = epsrel = tol, at most QUAD_LIMIT
    subdivisions).  With full_output QUADPACK returns its failure message
    (subdivision limit, roundoff, divergence) as a fourth element instead of
    issuing an IntegrationWarning, so no process-global warning filter is
    touched; the message becomes NumericError, and so does a non-finite
    value."""
    from scipy import integrate

    val, err, _info, *failure = integrate.quad(f, a, b, full_output=1, epsabs=tol,
                                               epsrel=tol, limit=QUAD_LIMIT)
    if failure:
        raise NumericError(f"{what} failed to converge: {failure[0]}")
    _check(err, abs(val), tol, what)
    return val


def quad_complex(f, a, b, *, tol: float, what: str) -> complex:
    """Real and imaginary parts of a complex integrand by two quad calls, each
    part meeting tol on its own.  f is evaluated once per node for the whole
    call: the imaginary pass reads the values the real pass cached at the
    nodes they share, so a nested integrand (feynman_combine3's inner
    quad_complex) is not solved twice."""
    cached = functools.cache(f)
    return complex(quad(lambda t: cached(t).real, a, b, tol=tol, what=what),
                   quad(lambda t: cached(t).imag, a, b, tol=tol, what=what))


def ode_endpoint(rhs, t_span, y0, *, tol: float, what: str):
    """Final state of y' = rhs(t, y) from t_span[0] to t_span[1] (either
    direction) by ODEPACK's LSODA, the compiled order-switching
    Adams/BDF integrator behind scipy.integrate.odeint, under relative error
    control at tol (rtol = tol, atol = 1e-300) and capped at ODE_MAX_STEPS
    steps.  odeint signals failure (negative istate) only by an
    ODEintWarning; that becomes NumericError, and no warning from the solve
    or the right-hand side escapes.

    rhs receives t as a float and y as a 1-D ndarray, once per LSODA
    function evaluation; it should compute on Python floats, as
    hydrogen._radial_rhs does.

    Not thread-safe: warnings.catch_warnings() swaps the process-global
    warning filters for the length of the solve, so a concurrent thread
    can lose or gain filters.  odeint warns whatever full_output says, so
    the filter cannot be dropped the way quad drops it."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", integrate.ODEintWarning)
        try:
            ys = integrate.odeint(rhs, y0, t_span, tfirst=True, rtol=tol, atol=1e-300,
                                  mxstep=ODE_MAX_STEPS)
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
