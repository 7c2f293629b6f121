"""Exact 4x4 Dirac matrix algebra in the two tabulated conventions.

All matrices are plain complex numpy arrays with entries 0, +-1, +-i, so
identities hold to rounding error (tolerance 1e-12 throughout).

Conventions
-----------
"dyson"   : Euclidean-style metric delta_{mu nu}, gamma_4 = beta, Greek
            indices 1..4, gamma_k = -i beta alpha^k.  The default everywhere;
            every amplitude in the package is written in it.
"feynman" : metric g_00 = +1, g_kk = -1, gamma_0 = beta, gamma_k = beta
            alpha^k.  Exists for cross-validation of the matrix tables only.
"""

from __future__ import annotations

import functools

import numpy as np

from .constants import DYSON, FEYNMAN
from .errors import DomainError

TOL_TABLE = 1e-12

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


def _normalize(conv: str) -> str:
    c = conv.lower()
    if c not in (DYSON, FEYNMAN):
        raise DomainError(f"unknown convention {conv!r}")
    return c


def build_matrices(conv: str = DYSON) -> dict:
    """All named matrices of the selected summary table, as a dict."""
    conv = _normalize(conv)
    Z = np.zeros((2, 2), dtype=complex)
    m = {}
    for k in range(3):
        m[f"alpha{k + 1}"] = _block(Z, PAULI[k], PAULI[k], Z)
        m[f"sigma{k + 1}"] = _block(PAULI[k], Z, Z, PAULI[k])
    beta = _block(I2, Z, Z, -I2)
    m["beta"] = beta
    if conv == DYSON:
        for k in range(3):
            m[f"gamma{k + 1}"] = -1j * beta @ m[f"alpha{k + 1}"]
        m["gamma4"] = beta
        m["gamma5"] = m["gamma1"] @ m["gamma2"] @ m["gamma3"] @ m["gamma4"]
        m["epsilon"] = -1j * m["alpha1"] @ m["alpha2"] @ m["alpha3"]
        m["eta"] = 1j * m["epsilon"] @ beta
        # Dirac's rho_i, for the "comparison with the Dirac notation" line.
        m["rho1"], m["rho2"], m["rho3"] = m["epsilon"], m["eta"], beta
    else:
        for k in range(3):
            m[f"gamma{k + 1}"] = beta @ m[f"alpha{k + 1}"]
        m["gamma0"] = beta
        # The table's own gamma5^2 = -I forces gamma5 = g0 g1 g2 g3 (its
        # "gamma5 = i g0 g1 g2 g3 = rho1" line is internally inconsistent).
        m["gamma5"] = m["gamma0"] @ m["gamma1"] @ m["gamma2"] @ m["gamma3"]
        m["rho1"] = -1j * m["alpha1"] @ m["alpha2"] @ m["alpha3"]
        m["rho2"] = 1j * m["rho1"] @ beta
    return m


@functools.cache
def _table(conv: str) -> dict:
    """The matrices of a normalized convention, built once and shared read-only."""
    m = build_matrices(conv)
    for mat in m.values():
        mat.flags.writeable = False
    return m


def gammas(conv: str = DYSON):
    """The four vector gamma matrices in component order (1,2,3, time); shared, read-only."""
    conv = _normalize(conv)
    m = _table(conv)
    time = "gamma4" if conv == DYSON else "gamma0"
    return (m["gamma1"], m["gamma2"], m["gamma3"], m[time])


# Module-level Dyson set: used by every amplitude routine.
_DYSON = _table(DYSON)
GAMMA = gammas(DYSON)
BETA = _DYSON["beta"]
ALPHA = (_DYSON["alpha1"], _DYSON["alpha2"], _DYSON["alpha3"])
SIGMA4 = (_DYSON["sigma1"], _DYSON["sigma2"], _DYSON["sigma3"])
# GAMMA as one (4, 4, 4) array: ubar @ GAMMA_STACK holds the four rows
# ubar gamma_mu, and slash(v) is one product with its (4, 16) view
GAMMA_STACK = np.array(GAMMA)
I4J = 1j * I4   # i * I, the offset of the projectors p-slash + i
for _const in (GAMMA_STACK, I4J):
    _const.flags.writeable = False
_GAMMA_FLAT = GAMMA_STACK.reshape(4, 16)


def slash(v) -> np.ndarray:
    """Contraction of a 4-vector with the Dyson gamma matrices:
    v1 g1 + v2 g2 + v3 g3 + i v0 g4 (the x4 = i*x0 convention lives here and
    nowhere else), so slash(v) @ slash(v) = dot(v, v) * I with the (+,+,+,-)
    dot product.  Dyson only: the Feynman table, gammas("feynman"), serves
    the identity checks.

    One product of the coefficients with the flattened gammas gives the
    values of the sum of the four scaled matrices: every gamma entry is 0,
    +-1 or +-i, so each product is exact, and no two gammas put a real (or
    an imaginary) part on the same entry, so each sum adds exact zeros to
    at most one term.  Only the sign of an exact zero may differ.
    """
    return np.dot((v.x1, v.x2, v.x3, 1j * v.x0), _GAMMA_FLAT).reshape(4, 4)


def spur(mat: np.ndarray) -> complex:
    """Sum of the diagonal elements (the trace)."""
    return complex(mat.trace())


def contracted_sandwich(vectors) -> np.ndarray:
    """sum_lambda gamma_lambda a-slash b-slash ... gamma_lambda, closed form.

    Lengths 0..3 give 4*I, -2*aslash, 4*(a.b)*I, -2*cslash bslash aslash.
    """
    n = len(vectors)
    if n == 0:
        return 4.0 * I4
    if n == 1:
        return -2.0 * slash(vectors[0])
    if n == 2:
        a, b = vectors
        return 4.0 * a.dot(b) * I4
    if n == 3:
        a, b, c = vectors
        return -2.0 * slash(c) @ slash(b) @ slash(a)
    raise DomainError("contracted_sandwich supports at most 3 vectors; "
                      "use contracted_sandwich_explicit for longer products")


def contracted_sandwich_explicit(vectors) -> np.ndarray:
    """The same contraction as an explicit sum over the four gamma matrices."""
    prod = I4.copy()
    for v in vectors:
        prod = prod @ slash(v)
    out = np.zeros((4, 4), dtype=complex)
    for g in GAMMA:
        out += g @ prod @ g
    return out


# ---------------------------------------------------------------------------
# Spinor transformation fixtures for pure rotations, boosts, reflections.

def spin_rotation(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(S, a) for a rotation by theta in the 1-2 plane; S* alpha^mu S = a_{mu nu} alpha^nu."""
    S = np.cos(theta / 2) * I4 + 1j * np.sin(theta / 2) * SIGMA4[2]
    a = np.eye(4)
    c, s = np.cos(theta), np.sin(theta)
    # index order (0,1,2,3) with alpha^0 = identity
    a[1, 1], a[1, 2] = c, s
    a[2, 1], a[2, 2] = -s, c
    return S, a


def spin_boost(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(S, a) for a boost with rapidity phi along axis 3."""
    S = np.cosh(phi / 2) * I4 + np.sinh(phi / 2) * ALPHA[2]
    a = np.eye(4)
    c, s = np.cosh(phi), np.sinh(phi)
    a[3, 3], a[3, 0] = c, s
    a[0, 3], a[0, 0] = s, c
    return S, a


def spin_reflection() -> tuple[np.ndarray, np.ndarray]:
    """(S, a) for the spatial reflection x -> -x."""
    a = np.diag([1.0, -1.0, -1.0, -1.0])
    return BETA.copy(), a


def transform_residual(S: np.ndarray, a: np.ndarray) -> float:
    """max |S* alpha^mu S - sum_nu a_{mu nu} alpha^nu| over mu = 0..3."""
    alphas = (I4,) + ALPHA
    worst = 0.0
    for mu in range(4):
        rhs = sum(a[mu, nu] * alphas[nu] for nu in range(4))
        worst = max(worst, float(np.abs(S.conj().T @ alphas[mu] @ S - rhs).max()))
    return worst


# ---------------------------------------------------------------------------
# Identity-table verification.

class CheckReport:
    """Outcome of replaying a summary table with explicit matrices: the
    convention and a list of (label, deviation) entries, empty unless given.
    A deviation is max |lhs - rhs| over the entries of one line's matrices;
    verify_identity_tables computes those of all its lines in one pass."""

    __slots__ = ("convention", "entries")

    def __init__(self, convention: str, entries: list | None = None):
        self.convention = convention
        self.entries = [] if entries is None else entries

    def __repr__(self):
        return f"CheckReport(convention={self.convention!r}, entries={self.entries!r})"

    @property
    def max_deviation(self) -> float:
        """The largest deviation; nan if any deviation is nan."""
        return float(np.max([dev for _, dev in self.entries]))

    @property
    def passed(self) -> bool:
        return all(dev < TOL_TABLE for _, dev in self.entries)


def _check_common(add, m: dict, e: str, h: str, t: int) -> None:
    """The lines both tables state, each passed to add(label, lhs, rhs); e and
    h name the convention's epsilon and eta (Feynman's rho1 and rho2), and t
    indexes its time gamma (4 or 0)."""
    O4 = np.zeros((4, 4), dtype=complex)
    g5, eps, eta, beta = m["gamma5"], m[e], m[h], m["beta"]
    for k in range(1, 4):
        for l in range(1, 4):
            ak, al = m[f"alpha{k}"], m[f"alpha{l}"]
            add(f"alpha{k} alpha{l} + alpha{l} alpha{k} = 2 delta",
                ak @ al + al @ ak, 2.0 * (k == l))
            sk, sl = m[f"sigma{k}"], m[f"sigma{l}"]
            add(f"sigma{k} sigma{l} + sigma{l} sigma{k} = 2 delta",
                sk @ sl + sl @ sk, 2.0 * (k == l))
            add(f"alpha{k} sigma{l} + sigma{l} alpha{k} = 2 delta {e}",
                ak @ sl + sl @ ak, 2.0 * (k == l) * eps)
        add(f"alpha{k} beta + beta alpha{k} = 0",
            m[f"alpha{k}"] @ beta + beta @ m[f"alpha{k}"], O4)
        add(f"beta sigma{k} - sigma{k} beta = 0",
            beta @ m[f"sigma{k}"] - m[f"sigma{k}"] @ beta, O4)
    add("beta^2 = I", beta @ beta, I4)
    for k, l, mm in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        add(f"sigma{k} sigma{l} = i sigma{mm}",
            m[f"sigma{k}"] @ m[f"sigma{l}"], 1j * m[f"sigma{mm}"])
        add(f"alpha{k} alpha{l} = i sigma{mm}",
            m[f"alpha{k}"] @ m[f"alpha{l}"], 1j * m[f"sigma{mm}"])
        add(f"alpha{k} sigma{l} = i alpha{mm}",
            m[f"alpha{k}"] @ m[f"sigma{l}"], 1j * m[f"alpha{mm}"])
        add(f"sigma{k} gamma{l} = i gamma{mm}",
            m[f"sigma{k}"] @ m[f"gamma{l}"], 1j * m[f"gamma{mm}"])
    add(f"gamma{t} = beta", m[f"gamma{t}"], beta)
    for mu in (1, 2, 3, t):
        add(f"gamma{mu} gamma5 + gamma5 gamma{mu} = 0",
            m[f"gamma{mu}"] @ g5 + g5 @ m[f"gamma{mu}"], O4)
        add(f"gamma{mu} {e} + {e} gamma{mu} = 0",
            m[f"gamma{mu}"] @ eps + eps @ m[f"gamma{mu}"], O4)
    add(f"{e} = -i alpha1 alpha2 alpha3",
        eps, -1j * m["alpha1"] @ m["alpha2"] @ m["alpha3"])
    add(f"{e}^2 = I", eps @ eps, I4)
    add(f"{h}^2 = I", eta @ eta, I4)
    add(f"{h} = i {e} beta", eta, 1j * eps @ beta)
    add(f"{e} = -i {h} beta", eps, -1j * eta @ beta)
    # Dyson's table prints "eta = -alpha1 alpha2 alpha3" and Feynman's
    # "rho2 = -alpha1 alpha2 alpha3 beta"; the explicit matrices give
    # alpha1 alpha2 alpha3 beta (corrected).
    add(f"{h} = alpha1 alpha2 alpha3 beta (corrected)",
        eta, m["alpha1"] @ m["alpha2"] @ m["alpha3"] @ beta)
    for k in range(1, 4):
        add(f"sigma{k} = {e} alpha{k}", m[f"sigma{k}"], eps @ m[f"alpha{k}"])
        add(f"alpha{k} = {e} sigma{k}", m[f"alpha{k}"], eps @ m[f"sigma{k}"])
        add(f"alpha{k} {e} - {e} alpha{k} = 0",
            m[f"alpha{k}"] @ eps - eps @ m[f"alpha{k}"], O4)
        add(f"sigma{k} {e} - {e} sigma{k} = 0",
            m[f"sigma{k}"] @ eps - eps @ m[f"sigma{k}"], O4)
        add(f"alpha{k} gamma5 - gamma5 alpha{k} = 0",
            m[f"alpha{k}"] @ g5 - g5 @ m[f"alpha{k}"], O4)
        add(f"alpha{k} {h} + {h} alpha{k} = 0",
            m[f"alpha{k}"] @ eta + eta @ m[f"alpha{k}"], O4)
        add(f"gamma{k} {h} - {h} gamma{k} = 0",
            m[f"gamma{k}"] @ eta - eta @ m[f"gamma{k}"], O4)
        add(f"sigma{k} {h} - {h} sigma{k} = 0",
            m[f"sigma{k}"] @ eta - eta @ m[f"sigma{k}"], O4)
    add(f"beta {h} + {h} beta = 0", beta @ eta + eta @ beta, O4)


def _check_dyson(add, m: dict) -> None:
    g5, eps, eta, beta = m["gamma5"], m["epsilon"], m["eta"], m["beta"]
    idx = (1, 2, 3, 4)
    for k in range(1, 4):
        add(f"gamma{k} = -i beta alpha{k}",
            m[f"gamma{k}"], -1j * beta @ m[f"alpha{k}"])
        add(f"alpha{k} = i beta gamma{k}",
            m[f"alpha{k}"], 1j * beta @ m[f"gamma{k}"])
        add(f"(gamma{k})* = gamma{k} (hermitian)",
            m[f"gamma{k}"].conj().T, m[f"gamma{k}"])
        for l in range(1, 4):
            add(f"alpha{k} gamma{l} - gamma{l} alpha{k} = 2i delta beta",
                m[f"alpha{k}"] @ m[f"gamma{l}"] - m[f"gamma{l}"] @ m[f"alpha{k}"],
                2j * (k == l) * beta)
            add(f"gamma{k} sigma{l} + sigma{l} gamma{k} = 2 delta eta",
                m[f"gamma{k}"] @ m[f"sigma{l}"] + m[f"sigma{l}"] @ m[f"gamma{k}"],
                2.0 * (k == l) * eta)
    for mu in idx:
        for nu in idx:
            add(f"gamma{mu} gamma{nu} + gamma{nu} gamma{mu} = 2 delta",
                m[f"gamma{mu}"] @ m[f"gamma{nu}"] + m[f"gamma{nu}"] @ m[f"gamma{mu}"],
                2.0 * (mu == nu))
    add("gamma5 = gamma1 gamma2 gamma3 gamma4",
        g5, m["gamma1"] @ m["gamma2"] @ m["gamma3"] @ m["gamma4"])
    add("gamma5^2 = I", g5 @ g5, I4)
    add("gamma5 = -epsilon", g5, -eps)
    for k in range(1, 4):
        add(f"sigma{k} = eta gamma{k}", m[f"sigma{k}"], eta @ m[f"gamma{k}"])
        add(f"gamma{k} = eta sigma{k}", m[f"gamma{k}"], eta @ m[f"sigma{k}"])
    for k, l, mm in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        add(f"gamma{k} gamma{l} = i sigma{mm}",
            m[f"gamma{k}"] @ m[f"gamma{l}"], 1j * m[f"sigma{mm}"])
        add(f"gamma{k} alpha{l} = beta sigma{mm}",
            m[f"gamma{k}"] @ m[f"alpha{l}"], beta @ m[f"sigma{mm}"])
    # Comparison with the Dirac notation.
    add("rho1 = epsilon", m["rho1"], eps)
    add("rho2 = eta", m["rho2"], eta)
    add("rho3 = beta", m["rho3"], beta)


def _check_feynman(add, m: dict) -> None:
    g5, r1, r2, beta = m["gamma5"], m["rho1"], m["rho2"], m["beta"]
    g = {0: 1.0, 1: -1.0, 2: -1.0, 3: -1.0}
    for k in range(1, 4):
        add(f"gamma{k} = beta alpha{k}", m[f"gamma{k}"], beta @ m[f"alpha{k}"])
        add(f"alpha{k} = beta gamma{k}", m[f"alpha{k}"], beta @ m[f"gamma{k}"])
        add(f"(gamma{k})* = -gamma{k} (anti-hermitian)",
            m[f"gamma{k}"].conj().T, -m[f"gamma{k}"])
        for l in range(1, 4):
            add(f"alpha{k} gamma{l} - gamma{l} alpha{k} = -2 delta beta",
                m[f"alpha{k}"] @ m[f"gamma{l}"] - m[f"gamma{l}"] @ m[f"alpha{k}"],
                -2.0 * (k == l) * beta)
            # Table prints -2 delta rho2; the explicit matrices give +2i delta rho2.
            add(f"gamma{k} sigma{l} + sigma{l} gamma{k} = 2i delta rho2 (corrected)",
                m[f"gamma{k}"] @ m[f"sigma{l}"] + m[f"sigma{l}"] @ m[f"gamma{k}"],
                2j * (k == l) * r2)
    for mu in range(4):
        for nu in range(4):
            add(f"gamma{mu} gamma{nu} + gamma{nu} gamma{mu} = 2 g_mu_nu",
                m[f"gamma{mu}"] @ m[f"gamma{nu}"] + m[f"gamma{nu}"] @ m[f"gamma{mu}"],
                2.0 * g[mu] * (mu == nu))
    # Table prints gamma5 = i g0 g1 g2 g3 = rho1 alongside gamma5^2 = -I;
    # only gamma5 = g0 g1 g2 g3 (hence rho1 = i gamma5) satisfies the square.
    add("gamma5 = gamma0 gamma1 gamma2 gamma3 (corrected)",
        g5, m["gamma0"] @ m["gamma1"] @ m["gamma2"] @ m["gamma3"])
    add("gamma5^2 = -I", g5 @ g5, -I4)
    add("rho1 = i gamma5 (corrected)", r1, 1j * g5)
    for k in range(1, 4):
        add(f"sigma{k} = -i rho2 gamma{k}", m[f"sigma{k}"], -1j * r2 @ m[f"gamma{k}"])
        add(f"gamma{k} = i rho2 sigma{k}", m[f"gamma{k}"], 1j * r2 @ m[f"sigma{k}"])
    for k, l, mm in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        add(f"-gamma{k} gamma{l} = i sigma{mm}",
            -m[f"gamma{k}"] @ m[f"gamma{l}"], 1j * m[f"sigma{mm}"])
        add(f"gamma{k} alpha{l} = i beta sigma{mm}",
            m[f"gamma{k}"] @ m[f"alpha{l}"], 1j * beta @ m[f"sigma{mm}"])


def _table_lines(conv: str, m: dict) -> list:
    """(label, lhs, rhs) for every line of a normalized convention's table,
    in table order; rhs is a matrix or a number standing for that multiple
    of the identity."""
    lines = []

    def add(label: str, lhs: np.ndarray, rhs) -> None:
        lines.append((label, lhs, rhs))

    if conv == DYSON:
        _check_common(add, m, "epsilon", "eta", 4)
        _check_dyson(add, m)
    else:
        _check_common(add, m, "rho1", "rho2", 0)
        _check_feynman(add, m)
    return lines


def verify_identity_tables(conv: str = DYSON, matrices: dict | None = None) -> CheckReport:
    """Replay every line of the selected summary table with explicit matrices.

    Passing a (possibly perturbed) ``matrices`` dict makes negative controls
    easy; by default the table's own matrices are used.  The lines are
    stacked, so one subtraction, abs and max give every line's deviation;
    all three act entry by entry, so each value is bit for bit the one its
    line gives alone.
    """
    conv = _normalize(conv)
    m = matrices if matrices is not None else _table(conv)
    labels, lhs, rhs = zip(*_table_lines(conv, m))
    rhs = np.array([r if isinstance(r, np.ndarray) else r * I4 for r in rhs])
    devs = np.abs(np.array(lhs) - rhs).max(axis=(1, 2))
    return CheckReport(conv, list(zip(labels, devs.tolist())))
