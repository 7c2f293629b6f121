"""The exact Dirac-Coulomb bound-state spectrum, its fine-structure
expansion, the radial series machinery, an independent ODE-shooting oracle,
and the uniform-magnetic-field (Landau) spectrum.

Quantum numbers: n >= 0 radial, k nonzero integer (the angular operator
eigenvalue), j = |k| - 1/2, N = n + |k|.  n = 0 exists only for k > 0.
Energies are returned in units of mc^2.  Z is fixed to 1 (hydrogen), so
alpha is the coupling itself and must lie in (0, 0.1): Z alpha values are
rejected.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import numerics
from .constants import ORBITAL_LETTERS, check_alpha
from .errors import DomainError, NumericError


class DiracQuantumNumbers(namedtuple("DiracQuantumNumbers", "n k")):
    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if k == 0:
            raise DomainError("k = 0 is not an allowed angular eigenvalue")
        if n < 0:
            raise DomainError("radial quantum number n must be >= 0")
        if n == 0 and k < 0:
            raise DomainError("n = 0 requires k positive")
        return super().__new__(cls, n, k)

    @property
    def j(self) -> float:
        return abs(self.k) - 0.5

    @property
    def big_n(self) -> int:
        return self.n + abs(self.k)


class EnergyLevel(namedtuple("EnergyLevel", "energy qn")):
    """A level's energy, in units of mc^2, and its DiracQuantumNumbers."""

    __slots__ = ()


def dirac_energy(qn: DiracQuantumNumbers, alpha: float) -> EnergyLevel:
    """E = 1 / sqrt(1 + alpha^2 / (n + sqrt(k^2 - alpha^2))^2), units mc^2."""
    check_alpha(alpha)
    eps = math.sqrt(qn.k**2 - alpha**2)
    e = 1.0 / math.sqrt(1.0 + (alpha / (qn.n + eps)) ** 2)
    return EnergyLevel(energy=e, qn=qn)


def fine_structure_expansion(big_n: int, k: int, alpha: float) -> float:
    """E = 1 - alpha^2/2N^2 + (alpha^4/N^3)(3/8N - 1/2|k|), units mc^2."""
    check_alpha(alpha)
    if big_n < 1:
        raise DomainError("principal quantum number N must be >= 1")
    if k == 0 or abs(k) > big_n:
        raise DomainError("need 1 <= |k| <= N")
    return (1.0 - alpha**2 / (2.0 * big_n**2)
            + alpha**4 / big_n**3 * (3.0 / (8.0 * big_n) - 1.0 / (2.0 * abs(k))))


# ---------------------------------------------------------------------------
# Series solution machinery.

# Cap on the terms _sum_to_rounding adds.  For every level with N <= 4 and
# alpha in [1e-3, 0.099] the regular series converges at the shooting match
# point within 21 terms, the asymptotic series at the inward start within 11.
SERIES_MAX_TERMS = 200
_ROUNDING = 2.0**-53  # unit roundoff of a double
# An asymptotic sum whose largest term is this many times the sum is accurate
# to no better than about 1e-13, short of the inward solve's tol of 1e-12.
_MAX_CANCELLATION = 1e3


def _rate_constants(energy: float):
    """a1 = 1 - E, a2 = 1 + E, a = sqrt(1 - E^2) for 0 < E < 1 (units mc^2)."""
    a1 = 1.0 - energy
    a2 = 1.0 + energy
    return a1, a2, math.sqrt(a1 * a2)


def _series_terms(k: int, alpha: float, eps: float, a1: float, a: float):
    """The printed two-term recursion: yield (c_s, d_s) for s = eps, eps+1,
    ... without end, the coefficients of the regular radial solution
    f = sum c_s r^s, g = sum d_s r^s, both multiples of e_s = a1 c_{s-1} - a d_{s-1}."""
    c, d = eps + k, alpha
    i = 0
    while True:
        yield c, d
        i += 1
        s = eps + i
        e_s = a1 * c - a * d
        denom = a1 * (alpha**2 + s**2 - k**2)
        c = (a1 * alpha + a * (s + k)) / denom * e_s
        d = (a * alpha - a1 * (s - k)) / denom * e_s


def series_coefficients(qn: DiracQuantumNumbers, alpha: float, energy: float,
                        nterms: int):
    """Power-series coefficients (c_s, d_s) of the regular radial solution
    f = sum c_s r^s, g = sum d_s r^s with s = eps, eps+1, ..., from the
    printed two-term recursions.  Valid for any 0 < E < 1."""
    import numpy as np

    check_alpha(alpha)
    if nterms < 1:
        raise DomainError("need at least one series term")
    a1, _, a = _rate_constants(energy)
    eps = math.sqrt(qn.k**2 - alpha**2)
    cs, ds = zip(*itertools.islice(_series_terms(qn.k, alpha, eps, a1, a), nterms))
    return eps, np.array(cs), np.array(ds)


def _scaled(terms, x: float):
    """(c x^i, d x^i) for the i-th (c, d) of terms."""
    x_i = 1.0
    for c, d in terms:
        yield c * x_i, d * x_i
        x_i *= x


def _sum_to_rounding(terms, what: str, asymptotic: bool = False) -> tuple[float, float]:
    """Sum the (df, dg) terms until both new ones are below rounding relative
    to hypot(f, g) (f alone vanishes at a node), so the sum is good to
    rounding times its largest term.  NumericError is raised if
    SERIES_MAX_TERMS terms do not get there or the sum is not finite.  An
    asymptotic series also fails if a term grows after the terms have begun
    to fall, or if its largest term exceeds _MAX_CANCELLATION hypot(f, g):
    it then has no more digits to give, or has lost them to cancellation."""
    f = g = last = biggest = 0.0
    for i, (df, dg) in enumerate(itertools.islice(terms, SERIES_MAX_TERMS)):
        f += df
        g += dg
        size = max(abs(df), abs(dg))
        if size <= _ROUNDING * math.hypot(f, g):
            if not math.isfinite(f + g):
                break
            if asymptotic and biggest > _MAX_CANCELLATION * math.hypot(f, g):
                raise NumericError(f"{what} failed to converge: it loses more than "
                                   f"three digits to cancellation")
            return f, g
        if asymptotic:
            if last < biggest and size > last:  # growing after a fall
                raise NumericError(f"{what} failed to converge: its terms grow "
                                   f"from term {i}")
            last = size
            biggest = max(biggest, size)
    raise NumericError(f"{what} failed to converge in {SERIES_MAX_TERMS} terms")


def _series_at(qn: DiracQuantumNumbers, alpha: float, energy: float,
               r: float) -> tuple[float, float]:
    """(f, g) / r^eps of the regular radial solution at r, summed from the
    series (_sum_to_rounding); the positive factor r^eps is left out because
    the shooting mismatch is scale free.  At the shooting match point r = 1/a
    the terms fall like 2^s/s!, but the largest can reach 1.1e4 hypot(f, g),
    so the sum is good to about 1e-12 relative, not to rounding."""
    a1, _, a = _rate_constants(energy)
    eps = math.sqrt(qn.k**2 - alpha**2)
    return _sum_to_rounding(_scaled(_series_terms(qn.k, alpha, eps, a1, a), r),
                            what=f"radial series at r = {r:g}")


def _decaying_terms(k: int, alpha: float, sigma: float, a1: float, a2: float, a: float):
    """Yield (A_m, B_m) for m = 0, 1, ... without end, the coefficients of
    the asymptotic series of the radial solution that decays at infinity,
    f / r^sigma = sum A_m r^-m, g / r^sigma = sum B_m r^-m, sigma = alpha E / a,
    in the variables of _radial_rhs.  A_0 = 1, B_0 = a / a2, and for m >= 1
        a A_m - a2 B_m = (sigma - m + 1 - k) A_{m-1} + alpha B_{m-1},
        (a1 (sigma - m - k) - a alpha) A_m + (a1 alpha + a (sigma - m + k)) B_m = 0,
    a system whose determinant is -2 a^2 m."""
    big_a, big_b = 1.0, a / a2
    m = 0
    while True:
        yield big_a, big_b
        m += 1
        s = sigma - m
        q = ((s + 1.0 - k) * big_a + alpha * big_b) / (-2.0 * a * a * m)
        big_a = q * (a1 * alpha + a * (s + k))
        big_b = -q * (a1 * (s - k) - a * alpha)


def _decaying_at(qn: DiracQuantumNumbers, alpha: float, energy: float,
                 r: float) -> tuple[float, float]:
    """(f, g) / r^sigma of the solution that decays at infinity, at r, summed
    from its asymptotic series to rounding (_sum_to_rounding).  The sum
    needs a larger rho = a r the larger sigma is: over k in [-8, 8] and alpha
    from 1e-3 to 0.099, sigma <= 8 needs rho <= 17, sigma = 20 needs 50 and
    sigma = 30 needs 109, so _inward_at_match starts at rho = 20 + sigma^2/4."""
    a1, a2, a = _rate_constants(energy)
    terms = _decaying_terms(qn.k, alpha, alpha * energy / a, a1, a2, a)
    return _sum_to_rounding(_scaled(terms, 1.0 / r), asymptotic=True,
                            what=f"asymptotic radial series at r = {r:g}")


class RecursionReport(namedtuple("RecursionReport", "qn exponent termination_residual "
                                 "energy_from_termination energy_closed_form "
                                 "tail_ratio_scaled")):
    """What radial_recursion_check found: termination_residual is the
    e_{eps+n+1} coefficient at the exact energy, and tail_ratio_scaled is
    s * e_{s+1}/e_s at large s for a generic energy."""

    __slots__ = ()

    @property
    def terminates(self) -> bool:
        return self.termination_residual < 1e-10


def radial_recursion_check(qn: DiracQuantumNumbers, alpha: float) -> RecursionReport:
    """Verify the series ladder: exponent eps = +sqrt(k^2 - alpha^2),
    termination after n steps exactly at the closed-form energy, and the
    exp(2 a r) growth flag for a generic (non-eigen) energy."""
    level = dirac_energy(qn, alpha)
    e_exact = level.energy
    a1, a2, a = _rate_constants(e_exact)
    k = qn.k
    eps = math.sqrt(k**2 - alpha**2)

    # e_{s+1} propagation factor (a1^2 - a^2) alpha + 2 s a a1 must vanish at
    # s = eps + n; solving it for E reproduces the closed form.
    s_term = eps + qn.n
    if qn.n == 0:
        # all e_s vanish; the base relation a alpha = a1 (eps + k) fixes E
        resid = abs(a * alpha - a1 * (eps + k)) / max(a, alpha)
        e_from_term = eps / k
    else:
        resid = abs((a1**2 - a**2) * alpha + 2.0 * s_term * a * a1) / max(a * a1, alpha)
        e_from_term = s_term / math.sqrt(s_term**2 + alpha**2)

    # generic energy: ratio e_{s+1}/e_s ~ 2a/s, i.e. f ~ exp(2 a r)
    e_gen = e_exact * 0.9991
    a1g, _, ag = _rate_constants(e_gen)
    s_big = 400.0
    ratio = ((a1g**2 - ag**2) * alpha + 2.0 * s_big * ag * a1g) / (
        a1g * (alpha**2 + s_big**2 - k**2))
    return RecursionReport(qn=qn, exponent=eps,
                           termination_residual=resid,
                           energy_from_termination=e_from_term,
                           energy_closed_form=e_exact,
                           tail_ratio_scaled=s_big * ratio / (2.0 * ag))


# ---------------------------------------------------------------------------
# Shooting oracle.

def _radial_rhs(alpha: float, k: int, a1: float, a2: float, a: float):
    """Right-hand side for y = (f, g) with u = exp(-a r) f / r etc.

    LSODA passes y as an ndarray and calls this 622-1,656 times per level
    (N <= 4, either constants profile), so f and g are unpacked with
    tolist(): the body then runs on Python floats, about twice as fast as on
    numpy.float64 scalars and rounded identically, operation for operation."""

    def rhs(r, y):
        f, g = y.tolist()
        df = (a + k / r) * f - (alpha / r + a2) * g
        dg = (alpha / r - a1) * f + (a - k / r) * g
        return (df, dg)

    return rhs


def _inward_at_match(qn: DiracQuantumNumbers, alpha: float, energy: float) -> tuple[float, float]:
    """(f, g), up to a positive factor, of the solution that decays at
    infinity, at the matching point rho = a r = 1: one LSODA solve inward from
    rho = 20 + sigma^2/4, started on the asymptotic series summed there
    (_decaying_at).  The growing solution is not excited, so LSODA has no
    transient to resolve."""
    a1, a2, a = _rate_constants(energy)
    r_far = (20.0 + 0.25 * (alpha * energy / a) ** 2) / a
    return numerics.ode_endpoint(_radial_rhs(alpha, qn.k, a1, a2, a), (r_far, 1.0 / a),
                                 _decaying_at(qn, alpha, energy, r_far),
                                 tol=1e-12, what="inward radial integration")


def _shoot_mismatch(qn: DiracQuantumNumbers, alpha: float, energy: float) -> float:
    """Log-derivative mismatch at the matching point rho = a r = 1; its zeros
    are the bound-state energies.  The outward side is the regular series
    summed at the match point, the inward side _inward_at_match."""
    if not 0.0 < energy < 1.0:
        raise DomainError("bound-state window is 0 < E < mc^2")
    f_out, g_out = _series_at(qn, alpha, energy, 1.0 / _rate_constants(energy)[2])
    f_in, g_in = _inward_at_match(qn, alpha, energy)

    # Wronskian-like mismatch, normalized to be scale free.
    return (f_out * g_in - f_in * g_out) / math.hypot(f_out, g_out) / math.hypot(f_in, g_in)


def radial_shoot(qn: DiracQuantumNumbers, alpha: float, energy_guess: float) -> float:
    """Bound-state energy from two-sided shooting on the coupled first-order
    radial system: a sign change of the mismatch is bracketed around the
    guess, then refined by Brent's method (brentq) to xtol 1e-13 in
    E/mc^2.  Each mismatch is one LSODA solve (numerics.ode_endpoint) between
    two summed series: inward from the asymptotic series of the decaying
    solution to the match point, against the regular series there.  It is
    evaluated once per energy: brentq reuses the bracket ends the search
    already solved.  A level with N <= 4 takes 4-5 mismatches at either
    constants profile, so 4-5 solves and about 600-1,700 right-hand-side
    evaluations.  Independent oracle for the closed-form spectrum; seed it
    with the nonrelativistic estimate."""
    check_alpha(alpha)
    if not 0.0 < energy_guess < 1.0:
        raise DomainError("energy guess must be inside the bound-state window")
    solved: dict[float, float] = {}

    def mismatch(energy: float) -> float:
        if energy not in solved:
            solved[energy] = _shoot_mismatch(qn, alpha, energy)
        return solved[energy]

    # bracket by expanding around the guess; the first half-width stays
    # inside the gap to the levels N +- 1, about alpha^2/N^3, and the
    # nonrelativistic seed is off by less than alpha^4/2N^3
    width = max(alpha**4 / qn.big_n**3, 1e-9)
    lo = hi = None
    f_guess = mismatch(energy_guess)
    for _ in range(60):
        e_lo = max(1e-6, energy_guess - width)
        e_hi = min(1.0 - 1e-12, energy_guess + width)
        if mismatch(e_lo) * f_guess < 0:
            lo, hi = e_lo, energy_guess
            break
        if mismatch(e_hi) * f_guess < 0:
            lo, hi = energy_guess, e_hi
            break
        width *= 4.0
        if e_lo <= 1e-6 and e_hi >= 1.0 - 1e-12:
            break
    if lo is None:
        raise NumericError("no sign change found bracketing the energy guess")
    return numerics.root(mismatch, lo, hi, xtol=1e-13, what="shooting root search")


def landau_levels(b_field: float, p_z: float, m_level: int) -> float:
    """Uniform-field spectrum E = sqrt(1 + p_z^2 + M |b|), units mc^2, with
    b = |e B hbar c| / (mc^2)^2 the dimensionless field strength."""
    if m_level < 0 or int(m_level) != m_level:
        raise DomainError("level index M must be a nonnegative integer")
    return math.sqrt(1.0 + p_z**2 + m_level * abs(b_field))


def level_table(max_n: int, alpha: float):
    """All (n, k) levels with N <= max_n, sorted by energy; includes the
    spectroscopic label and degeneracy partners."""
    if max_n < 1:
        raise DomainError("need max N >= 1")
    if max_n > len(ORBITAL_LETTERS):
        raise DomainError(f"need max N <= {len(ORBITAL_LETTERS)}: no spectroscopic "
                          f"letter beyond {ORBITAL_LETTERS[-1]!r}")
    rows = []
    for big_n in range(1, max_n + 1):
        for k in range(-big_n, big_n + 1):
            if k == 0:
                continue
            n = big_n - abs(k)
            if n == 0 and k < 0:
                continue
            qn = DiracQuantumNumbers(n=n, k=k)
            # Large-component angular momentum: k = +(ell+1) for j = ell+1/2,
            # k = -ell for j = ell-1/2, so the n = 0, k = +1 state is 1s1/2.
            ell = k - 1 if k > 0 else -k
            label = f"{big_n}{ORBITAL_LETTERS[ell]}{int(2 * qn.j)}/2"
            rows.append((big_n, n, k, qn.j, label, dirac_energy(qn, alpha).energy))
    rows.sort(key=lambda r: (r[5], r[0], r[2]))
    return rows
