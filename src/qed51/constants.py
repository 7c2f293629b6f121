"""Physical constants profiles and run configuration.

Internally everything is computed in natural units (hbar = c = 1, electron
mass = 1, Heaviside-Lorentz charge e^2 = 4*pi*alpha).  The profiles below
only matter when converting results to laboratory units: frequencies in
megacycles (Mc = MHz), lifetimes in seconds, cross sections in cm^2.

Two profiles are shipped:

* "modern"  -- alpha = 1/137.036; default for new work.
* "1951"    -- alpha = 1/137 with mc^2 tied to the Rydberg by
               mc^2 = 2 * 137^2 * Ry, which reproduces the golden numbers
               (136 Mc, 1040 Mc, 1051 Mc, 1600 Mc, -27 Mc).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

# Laboratory anchors (Hz).
RYDBERG_HZ = 3.289842e15
MC2_HZ_MODERN = 1.235590e20
# Speed of light in cm/s (exact by the SI definition of the metre).
C_CM_S = 2.99792458e10
# Planck constant h in MeV s (the exact SI value, rounded to ten digits).
H_MEV_S = 4.135667696e-21

# Names of the two Dirac-matrix conventions (qed51.dirac re-exports them);
# kept here so that code naming a convention need not import numpy.
DYSON = "dyson"
FEYNMAN = "feynman"

# Spectroscopic letter of each orbital angular momentum ell = 0, 1, 2, ...
ORBITAL_LETTERS = "spdfgh"

# The O16 pair-emission problem is worked in Gaussian-style units with
# rounded textbook values; processes.o16_total_rate and `qed51 o16` use
# these, not the profiles below.
O16_MC2_MEV = 0.511              # rounded electron rest energy, MeV
O16_ALPHA = 1.0 / 137.0          # rounded e^2/hbar c, Gaussian-style
O16_HBAR_C_MEV_CM = 1.97327e-11  # rounded hbar c, MeV cm
O16_HBAR_MEV_S = 6.58212e-22     # rounded hbar, MeV s


@dataclass(frozen=True)
class Constants:
    """One set of conversion constants; physics in natural units needs only alpha."""

    name: str
    alpha: float
    rydberg_hz: float
    mc2_hz: float

    @property
    def mc2_over_ry(self) -> float:
        return self.mc2_hz / self.rydberg_hz

    @property
    def hbar_over_mc2_s(self) -> float:
        """hbar/mc^2 in seconds: the natural time unit."""
        return 1.0 / (2.0 * math.pi * self.mc2_hz)

    @property
    def mc2_mev(self) -> float:
        """Electron rest energy in MeV: h (H_MEV_S) times mc2_hz."""
        return self.mc2_hz * H_MEV_S

    @property
    def r0_cm(self) -> float:
        """Classical electron radius alpha*hbar/(m c) in cm."""
        return self.alpha * C_CM_S * self.hbar_over_mc2_s

    def frequency_mc(self, energy_natural: float) -> float:
        """Convert an energy in units of mc^2 to a frequency in megacycles."""
        return energy_natural * self.mc2_hz / 1e6


MODERN = Constants(name="modern", alpha=1.0 / 137.036,
                   rydberg_hz=RYDBERG_HZ, mc2_hz=MC2_HZ_MODERN)

# mc^2 = 2 * 137^2 * Ry keeps the era arithmetic (R*K_H = alpha^2/8,
# K = mc^2) exact when reproducing the historical frequency values.
ERA_1951 = Constants(name="1951", alpha=1.0 / 137.0,
                     rydberg_hz=RYDBERG_HZ, mc2_hz=2.0 * 137.0**2 * RYDBERG_HZ)

PROFILES = {"modern": MODERN, "1951": ERA_1951}

# The CLI's --format and --units choices, in --help order.
FORMATS = ("csv", "json", "text")
UNITS = ("natural", "SI", "MeV")


def get_profile(name: str) -> Constants:
    try:
        return PROFILES[name]
    except KeyError:
        raise DomainError(f"unknown constants profile {name!r}; "
                          f"choose one of {sorted(PROFILES)}") from None


def check_alpha(alpha: float) -> None:
    """Reject alpha outside (0, 0.1), NaN included: larger values are Z alpha."""
    if not 0.0 < alpha < 0.1:
        raise DomainError(f"alpha = {alpha} outside (0, 0.1)")


@dataclass
class RunConfig:
    """CLI run configuration."""

    constants: Constants = MODERN
    alpha_override: float | None = None
    output_format: str = "text"     # csv | json | text
    units: str = "natural"          # natural | SI | MeV

    def __post_init__(self):
        alpha = self.alpha
        check_alpha(alpha)
        if alpha * alpha < sys.float_info.min:
            # r0^2 = alpha^2 is the unit of every cross section
            raise DomainError(f"alpha = {alpha} is so small that alpha^2 is not a normal float")
        if self.output_format not in FORMATS:
            raise DomainError(f"unknown output format {self.output_format!r}")
        if self.units not in UNITS:
            raise DomainError(f"unknown unit system {self.units!r}")

    @property
    def alpha(self) -> float:
        return self.alpha_override if self.alpha_override is not None else self.constants.alpha
