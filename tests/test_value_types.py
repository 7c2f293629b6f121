"""The package's value types: the repr of each, equality, hashing and
read-only fields of the frozen ones, the constructor calls the library and
the CLI make, and the domain checks that run on construction."""

import pytest

from qed51 import constants, dirac, hydrogen, oracles, processes, propagators, radiative, wick
from qed51.errors import DomainError

MODERN_REPR = ("Constants(name='modern', alpha=0.0072973525205055605, "
               "rydberg_hz=3289842000000000.0, mc2_hz=1.23559e+20)")

# (builder, repr of what it builds); each builder makes a fresh instance
SAMPLES = {
    "Constants": (lambda: constants.Constants(name="modern", alpha=1.0 / 137.036,
                                              rydberg_hz=constants.RYDBERG_HZ,
                                              mc2_hz=constants.MC2_HZ_MODERN),
                  MODERN_REPR),
    "RunConfig": (lambda: constants.RunConfig(output_format="csv"),
                  f"RunConfig(constants={MODERN_REPR}, alpha_override=None, "
                  "output_format='csv', units='natural')"),
    "IEpsilonPolicy": (lambda: propagators.IEpsilonPolicy(epsilon=1e-3),
                       "IEpsilonPolicy(epsilon=0.001, exact=False)"),
    "CutoffQuantity": (lambda: radiative.CutoffQuantity(1.0, 2.0),
                       "CutoffQuantity(finite=1.0, log_coeff=2.0)"),
    "Factor": (lambda: wick.Factor("psi", 2), "Factor(kind='psi', vertex=2)"),
    "Pairing": (lambda: wick.Pairing(((0, 2),), ((1, 4),)),
                "Pairing(fermion_pairs=((0, 2),), photon_pairs=((1, 4),))"),
    "ExternalLeg": (lambda: wick.ExternalLeg(1, "photon"),
                    "ExternalLeg(vertex=1, kind='photon')"),
    "PairingGraph": (lambda: wick.PairingGraph(vertices=[1, 2], sign=-1),
                     "PairingGraph(vertices=[1, 2], electron_lines=[], photon_lines=[], "
                     "external=[], sign=-1)"),
    "DecayResult": (lambda: processes.DecayResult(rate=2.0, lifetime=0.5),
                    "DecayResult(rate=2.0, lifetime=0.5)"),
    "DiracQuantumNumbers": (lambda: hydrogen.DiracQuantumNumbers(1, -1),
                            "DiracQuantumNumbers(n=1, k=-1)"),
    "EnergyLevel": (lambda: hydrogen.EnergyLevel(energy=0.5,
                                                 qn=hydrogen.DiracQuantumNumbers(0, 1)),
                    "EnergyLevel(energy=0.5, qn=DiracQuantumNumbers(n=0, k=1))"),
    "VacPolResult": (lambda: radiative.VacPolResult(in_phase=0.25, out_phase=-0.5,
                                                    threshold_open=True),
                     "VacPolResult(in_phase=0.25, out_phase=-0.5, threshold_open=True)"),
    "LambBudget": (lambda: radiative.LambBudget(bethe_term=1.0, moment_term=0.125,
                                                uehling_term=-0.25),
                   "LambBudget(bethe_term=1.0, moment_term=0.125, uehling_term=-0.25)"),
    "RecursionReport": (lambda: hydrogen.RecursionReport(
        qn=hydrogen.DiracQuantumNumbers(0, 1), exponent=1.0, termination_residual=0.0,
        energy_from_termination=0.5, energy_closed_form=0.5, tail_ratio_scaled=2.0),
                        "RecursionReport(qn=DiracQuantumNumbers(n=0, k=1), exponent=1.0, "
                        "termination_residual=0.0, energy_from_termination=0.5, "
                        "energy_closed_form=0.5, tail_ratio_scaled=2.0)"),
    "CheckReport": (lambda: dirac.CheckReport(convention="dyson",
                                              entries=[("beta^2 = I", 0.0)]),
                    "CheckReport(convention='dyson', entries=[('beta^2 = I', 0.0)])"),
    "Pair": (lambda: oracles.Pair("p", abs, abs, (1.0,), 1e-8),
             "Pair(name='p', result=<built-in function abs>, oracle=<built-in function abs>, "
             "point=(1.0,), tol=1e-08, relative=False)"),
}

# the frozen types, each with a field to assign and an instance that differs
FROZEN = {
    "Constants": ("alpha", lambda: constants.ERA_1951),
    "IEpsilonPolicy": ("epsilon", lambda: propagators.IEpsilonPolicy(epsilon=1e-6)),
    "Factor": ("vertex", lambda: wick.Factor("psi", 3)),
    "Pairing": ("photon_pairs", lambda: wick.Pairing(((0, 2),), ())),
    "DiracQuantumNumbers": ("k", lambda: hydrogen.DiracQuantumNumbers(1, 1)),
    "EnergyLevel": ("energy", lambda: hydrogen.EnergyLevel(0.25, hydrogen.DiracQuantumNumbers(0, 1))),
    "RecursionReport": ("tail_ratio_scaled", lambda: hydrogen.RecursionReport(
        hydrogen.DiracQuantumNumbers(0, 1), 1.0, 0.0, 0.5, 0.5, 2.5)),
    "Pair": ("tol", lambda: oracles.Pair("p", abs, abs, (1.0,), 1e-8, relative=True)),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_repr(name):
    build, text = SAMPLES[name]
    value = build()
    assert type(value).__name__ == name
    assert repr(value) == text


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_types_compare_and_hash_by_value(name):
    build, _ = SAMPLES[name]
    field, other = FROZEN[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and len({a, b, other()}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


def test_constructor_defaults():
    cfg = constants.RunConfig(output_format="json")
    assert (cfg.constants, cfg.alpha_override, cfg.output_format, cfg.units) == \
        (constants.MODERN, None, "json", "natural")
    assert cfg.alpha == constants.MODERN.alpha
    assert constants.RunConfig(alpha_override=0.01, units="SI").alpha == 0.01
    assert propagators.IEpsilonPolicy() == propagators.IEpsilonPolicy(epsilon=1e-9, exact=False)
    assert propagators.IEpsilonPolicy.exact_limit() == propagators.IEpsilonPolicy(0.0, True)
    q = radiative.CutoffQuantity(finite=0.5, log_coeff=-1.0)
    assert (q.finite, q.log_coeff) == (0.5, -1.0)
    assert not oracles.Pair("p", abs, abs, (), 1e-8).relative


def test_mutable_defaults_are_not_shared():
    a, b = wick.PairingGraph([1]), wick.PairingGraph([1])
    for field in ("electron_lines", "photon_lines", "external"):
        assert getattr(a, field) == [] and getattr(a, field) is not getattr(b, field)
    assert a.sign == 1
    assert dirac.CheckReport("dyson").entries is not dirac.CheckReport("dyson").entries


@pytest.mark.parametrize("build", [
    lambda: hydrogen.DiracQuantumNumbers(0, 0),
    lambda: hydrogen.DiracQuantumNumbers(-1, 1),
    lambda: hydrogen.DiracQuantumNumbers(0, -1),
    lambda: propagators.IEpsilonPolicy(epsilon=0.0),
    lambda: propagators.IEpsilonPolicy(epsilon=-1e-9, exact=False),
    lambda: constants.RunConfig(alpha_override=0.5),
    lambda: constants.RunConfig(alpha_override=float("nan")),
    lambda: constants.RunConfig(alpha_override=1e-160),
    lambda: constants.RunConfig(output_format="xml"),
    lambda: constants.RunConfig(units="cgs"),
    lambda: wick.Factor("gluon", 1),
], ids=["k0", "n-1", "n0k-1", "eps0", "eps-neg", "alpha-big", "alpha-nan", "alpha-tiny",
        "format", "units", "kind"])
def test_construction_checks_the_domain(build):
    with pytest.raises(DomainError):
        build()
