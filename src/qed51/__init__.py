"""qed51: desk-scale quantum-electrodynamics computations.

Dirac matrix algebra and spur machinery, plane-wave spinors and spin sums,
tree-level cross sections (Moller, Klein-Nishina/Thomson, Mott, two-quantum
annihilation, bremsstrahlung/pair-creation matrix elements, monopole pair
emission), the exact Dirac-Coulomb spectrum with an ODE shooting oracle,
factor-pairing enumeration with graph export, and the one-loop radiative
program (vacuum polarization and the Uehling term, mass renormalization,
vertex and infrared structure, the anomalous moment, the Lamb shift).

Everything is computed in natural units (hbar = c = electron mass = 1,
Heaviside-Lorentz charge); the constants profiles in qed51.constants convert
to laboratory units.

Submodules load on first access (``qed51.dirac``, ``from qed51 import
radiative``), so a command that needs only ``math`` never imports numpy.
"""

from importlib import import_module

from .errors import DomainError, NumericError, PoleError, QedError

_SUBMODULES = (
    "constants", "dirac", "kinematics", "spinors", "propagators", "processes",
    "hydrogen", "radiative", "wick", "numerics", "oracles",
)

__all__ = [
    *_SUBMODULES,
    "QedError", "DomainError", "PoleError", "NumericError",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: importing the submodule binds it on the package, so this runs
    # once per name
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
