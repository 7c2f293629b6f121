"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion (run with -s or read the captured
output).  Golden frequency numbers run under the 1951 constants profile.
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np

from qed51 import cli, dirac, hydrogen as hyd, processes as pr
from qed51 import radiative as rad, wick
from qed51.constants import ERA_1951, MODERN
from qed51.kinematics import FourVector
from qed51.oracles import BY_NAME

RNG = np.random.default_rng(19511951)


def _report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description} {detail}".rstrip())
    assert passed, f"criterion {number}: {description} {detail}"


def _rand_vec():
    return FourVector(*RNG.uniform(-1.0, 1.0, size=4))


def test_criterion_01_convention_fidelity():
    worst_table = 0.0
    for conv in (dirac.DYSON, dirac.FEYNMAN):
        rep = dirac.verify_identity_tables(conv)
        # the benchmark's table ops count on these sizes
        assert len(rep.entries) == {dirac.DYSON: 147, dirac.FEYNMAN: 144}[conv]
        worst_table = max(worst_table, rep.max_deviation)
    ok = worst_table < 1e-12

    worst_rand = 0.0
    for _ in range(1000):
        vecs = [_rand_vec() for _ in range(RNG.integers(0, 4))]
        dev = np.abs(dirac.contracted_sandwich(vecs)
                     - dirac.contracted_sandwich_explicit(vecs)).max()
        worst_rand = max(worst_rand, float(dev))

        mats = [dirac.slash(_rand_vec()) for _ in range(4)]
        prod = mats[0] @ mats[1] @ mats[2] @ mats[3]
        # rule 1: odd spur vanishes
        odd = prod @ dirac.slash(_rand_vec())
        worst_rand = max(worst_rand, abs(dirac.spur(odd)))
        # rules 2, 3, 5: cyclicity and reversal
        cyc = mats[1] @ mats[2] @ mats[3] @ mats[0]
        rev = mats[3] @ mats[2] @ mats[1] @ mats[0]
        s0 = dirac.spur(prod)
        worst_rand = max(worst_rand, abs(dirac.spur(cyc) - s0),
                         abs(dirac.spur(rev) - s0))
    # rule 4 on random pairs
    for _ in range(1000):
        a, b = _rand_vec(), _rand_vec()
        lhs = dirac.slash(a) @ dirac.slash(b) + dirac.slash(b) @ dirac.slash(a)
        worst_rand = max(worst_rand, float(np.abs(lhs - 2 * a.dot(b) * np.eye(4)).max()))
    ok = ok and worst_rand < 1e-10
    _report(1, "summary tables < 1e-12; spur rules and contractions < 1e-10",
            ok, f"(table {worst_table:.1e}, random {worst_rand:.1e})")


def test_criterion_02_tree_level_oracles():
    alpha = MODERN.alpha
    worst = 0.0
    for gamma in (1.2, 1.5, 2.0, 3.0, 5.0):
        for deg in (10.0, 20.0, 30.0, 40.0, 50.0):
            worst = max(worst, BY_NAME["Moller spin-sum oracle"].deviation(
                (gamma, math.radians(deg)), alpha))
    e_bases = (FourVector(1, 0, 0, 0), FourVector(0, 1, 0, 0))
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        for deg in (20, 60, 90, 120, 160):
            th = math.radians(deg)
            for e in e_bases:
                for ep in pr.scattered_polarization_basis(th):
                    for route in ("trace", "spinor"):
                        worst = max(worst, BY_NAME[f"Klein-Nishina {route} oracle"].deviation(
                            (eps, th, e, ep), alpha))
    for beta in (0.2, 0.4, 0.5, 0.7, 0.9):
        energy = 1.0 / math.sqrt(1.0 - beta**2)
        for deg in (30, 60, 90, 120, 150):
            worst = max(worst, BY_NAME["Mott spin-factor oracle"].deviation(
                (energy, math.radians(deg)), alpha))
    _report(2, "Moller/Klein-Nishina/Mott spin sums reproduce closed forms < 1e-8",
            worst < 1e-8, f"(worst {worst:.1e})")


def test_criterion_03_thomson_limit():
    rel = BY_NAME["Thomson total quadrature"].deviation((), MODERN.alpha)
    polarized_ok = True
    for phi_deg in (0.0, 30.0, 60.0):
        phi = math.radians(phi_deg)
        val = pr.kn_dcs(1e-4, math.radians(80.0), phi=phi)
        expect = math.cos(phi) ** 2
        polarized_ok &= abs(val - expect) <= 1e-3 * max(expect, 0.5)
    _report(3, "Thomson total 8pi/3 < 1e-6; polarized NR limit cos^2(phi) to 0.1%",
            rel < 1e-6 and polarized_ok, f"(total rel {rel:.1e})")


def test_criterion_04_annihilation():
    tau = pr.positronium_lifetime(ERA_1951)
    lifetime_ok = abs(tau / 1.2e-10 - 1.0) < 0.05
    parallel = abs(pr.annihilation_singlet_amplitude(parallel_polarizations=True))
    triplet = max(abs(a) for a in pr.annihilation_triplet_amplitudes())
    _report(4, "positronium 2-gamma lifetime 1.2e-10 s +-5%; parallel-pol and "
               "triplet amplitudes vanish",
            lifetime_ok and parallel == 0.0 and triplet < 1e-14,
            f"(tau {tau:.3e} s)")


def test_criterion_05_o16_pair_emission():
    tau = pr.o16_lifetime(mode="rounded")
    lifetime_ok = 0.5e-13 <= tau <= 2.0e-13
    ang = BY_NAME["O16 angular integral"].deviation((), MODERN.alpha)
    en = BY_NAME["O16 energy-angular integral"].deviation((11.74,), MODERN.alpha)
    _report(5, "O16 lifetime within factor 2 of 1e-13 s; internal integrals "
               "2 and dE^5/15 < 1e-8",
            lifetime_ok and ang < 1e-8 and en < 1e-8,
            f"(tau {tau:.3e} s, integrals {ang:.1e}/{en:.1e})")


def test_criterion_06_hydrogen():
    alpha = MODERN.alpha
    series_ok = True
    for big_n in (1, 2, 3):
        for k in range(-big_n, big_n + 1):
            if k == 0:
                continue
            n = big_n - abs(k)
            if n == 0 and k < 0:
                continue
            exact = hyd.dirac_energy(hyd.DiracQuantumNumbers(n, k), alpha).energy
            series = hyd.fine_structure_expansion(big_n, k, alpha)
            series_ok &= abs(exact - series) < 10.0 * alpha**6
    degeneracy = abs(hyd.dirac_energy(hyd.DiracQuantumNumbers(1, -1), alpha).energy
                     - hyd.dirac_energy(hyd.DiracQuantumNumbers(1, 1), alpha).energy)
    shoot_worst = max(BY_NAME["Dirac energy by shooting"].deviation(
        (hyd.DiracQuantumNumbers(n, k),), alpha) for n, k in ((0, 1), (1, -1), (1, 1), (0, 2)))
    landau = hyd.landau_levels(0.25, 0.0, 0)
    _report(6, "spectrum vs expansion < 10 a^6 (N<=3); 2S-2P degenerate; "
               "shooting < 1e-8 (N<=2); lowest Landau level exactly mc^2",
            series_ok and degeneracy == 0.0 and shoot_worst < 1e-8
            and landau == 1.0,
            f"(shoot worst {shoot_worst:.1e})")


def test_criterion_07_vacuum_polarization():
    alpha = MODERN.alpha
    q2 = 1e-3
    got = rad.vacuum_polarization(q2, alpha).in_phase
    small = alpha * q2 / (15.0 * math.pi)
    small_ok = abs(got / small - 1.0) < 0.005
    above = rad.vacuum_polarization(-3.99, alpha).out_phase
    at = rad.vacuum_polarization(-4.0, alpha).out_phase
    just_below = rad.vacuum_polarization(-4.0 - 1e-6, alpha).out_phase
    threshold_ok = above == 0.0 and at == 0.0 and 0.0 < just_below < 1e-5
    uehling = rad.uehling_shift("2s", ERA_1951)
    uehling_ok = abs(uehling + 27.0) <= 2.7
    _report(7, "small-q coefficient alpha q^2/15pi to 0.5%; absorptive part "
               "continuous at threshold; Uehling 2s = -27 Mc +-10%",
            small_ok and threshold_ok and uehling_ok,
            f"(small-q rel {abs(got / small - 1.0):.1e}, Uehling {uehling:.2f} Mc)")


def test_criterion_08_self_energy():
    worst = max(BY_NAME["self-energy z-integral"].deviation((r,), MODERN.alpha)
                for r in (0.0, 1.0, 2.5, 7.0))
    dm = rad.delta_m(MODERN.alpha)
    exact_coeff = dm.log_coeff == 3.0 * MODERN.alpha / (2.0 * math.pi)
    _report(8, "z-integral reproduces -pi^2 mu (6R+5) < 1e-8; "
               "delta-m log coefficient exactly 3 alpha/2pi",
            worst < 1e-8 and exact_coeff, f"(quadrature dev {worst:.1e})")


def test_criterion_09_vertex_infrared():
    p = np.array([0.0, 0.0, 0.1])
    q = 0.05
    cosang = (0.1**2 + 0.1**2 - q * q) / (2 * 0.1 * 0.1)
    pp = 0.1 * np.array([math.sqrt(1 - cosang**2), 0.0, cosang])
    q2 = float(((p - pp) ** 2).sum())
    alpha = MODERN.alpha
    k_rel = BY_NAME["K-integral radial oracle"].deviation((p, pp, q2, 1e-3), alpha)
    split_worst = max(BY_NAME["infrared split independence"].deviation((1e-5, r, 1e-3, 0.02), alpha)
                      for r in np.geomspace(1e-5, 1e-3, 7))
    sig1 = rad.total_scattering_correction(0.02, 1.2, 1e-4, alpha)
    sig2 = rad.total_scattering_correction(0.02, 1.2, 1e-7, alpha)
    sigma_ok = abs(sig1 / sig2 - 1.0) < 1e-10
    _report(9, "K-integral closed vs radial < 1e-6; W_N+W_R split-independent "
               "< 1e-10; sigma_T carries no detector threshold",
            k_rel < 1e-6 and split_worst < 1e-10 and sigma_ok,
            f"(K rel {k_rel:.1e}, split {split_worst:.1e})")


def test_criterion_10_anomalous_moment():
    first = rad.anomalous_moment(1, 1.0 / 137.036)
    fourth = rad.anomalous_moment(2, 1.0 / 137.036)
    ok = (abs(first - 0.00116141) <= 1e-8
          and abs(fourth - 0.0011454) <= 2e-6
          and abs(fourth - 0.001145) <= 0.000013)
    _report(10, "alpha/2pi = 0.00116141 +-1e-8; fourth order 0.0011454 +-2e-6, "
                "inside the experimental band", ok,
            f"(order1 {first:.9f}, order2 {fourth:.9f})")


def test_criterion_11_lamb_budget_1951():
    unit = rad.alpha3_ry_mc(ERA_1951)
    welton = rad.welton_shift(None, None, ERA_1951)
    bethe = rad.bethe_log_shift(16.6, 1.0, ERA_1951)
    total = rad.lamb_shift_full(16.6, ERA_1951).total
    ok = (abs(unit - 136.0) <= 1.36
          and abs(welton - 1600.0) <= 80.0
          and abs(bethe - 1040.0) <= 10.4
          and abs(total - 1051.0) <= 10.51)
    _report(11, "alpha^3 Ry/3pi = 136 Mc +-1%; Welton 1600 +-5%; Bethe-log "
                "1040 +-1%; 2s-2p1/2 = 1051 Mc +-1% "
                "(experimental 1062 +- 5 Mc reported, not asserted)", ok,
            f"(unit {unit:.2f}, Welton {welton:.0f}, Bethe {bethe:.1f}, "
            f"total {total:.1f} Mc)")


def test_criterion_12_wick_counts():
    eight = len(wick.enumerate_pairings(wick.OperatorProduct.current_product(2)))
    nine = wick.count_graphs_order2_external_potential()
    # complete pairings of 2n photon factors at distinct vertices: (2n-1)!!
    dfact_ok = all(sum(len(p.photon_pairs) == n for p, _ in
                       wick.enumerate_pairings(wick.OperatorProduct.photons(2 * n)))
                   == math.prod(range(2 * n - 1, 0, -2)) for n in (1, 2, 3, 4))
    structure_ok = True
    for prod in (wick.OperatorProduct.current_product(2),
                 wick.OperatorProduct.current_product(3)):
        for pairing, sign in wick.enumerate_pairings(prod):
            g = wick.to_graph(pairing, prod, sign)
            structure_ok &= not g.has_self_loop()
            structure_ok &= all(g.vertex_degree(v) == 3 for v in g.vertices)
    for g in wick.order2_external_potential_graphs():
        structure_ok &= not g.has_self_loop()
    _report(12, "8 constituents; 9 second-order graphs; (2n-1)!! photon "
                "pairings; rule 7 and vertex degree 3 everywhere",
            eight == 8 and nine == 9 and dfact_ok and structure_ok,
            f"(counts {eight}/{nine})")


def test_criterion_13_cli_determinism():
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    code, _ = run(["verify", "all"])
    verify_ok = code == 0
    identical = True
    for argv in (["verify", "all"],
                 ["lamb", "--budget", "--constants", "1951", "--format", "csv"],
                 ["xsec", "compton", "--eps", "1", "--theta-grid", "0:180:19",
                  "--unpolarized", "--format", "json"]):
        _, a = run(argv)
        _, b = run(argv)
        identical &= (a == b)
    code, out = run(["lamb", "--budget", "--constants", "1951", "--format", "csv"])
    import csv as csvmod
    rows = {r[0]: float(r[1]) for r in csvmod.reader(io.StringIO(out))
            if r[0] != "term"}
    total = rows.pop("total")
    budget_ok = (set(rows) == {"bethe_term", "moment_term", "uehling_term"}
                 and abs(sum(rows.values()) - total) < 1e-9)
    _report(13, "verify all exits 0; reruns byte-identical; lamb --budget "
                "lists three terms summing to the total",
            verify_ok and identical and budget_ok)
