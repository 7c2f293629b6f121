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
"""

from . import (constants, dirac, hydrogen, kinematics, numerics, processes,
               propagators, radiative, spinors, wick)
from .errors import DomainError, NumericError, PoleError, QedError

__all__ = [
    "constants", "dirac", "kinematics", "spinors", "propagators", "processes",
    "hydrogen", "radiative", "wick", "numerics",
    "QedError", "DomainError", "PoleError", "NumericError",
]

__version__ = "0.1.0"
