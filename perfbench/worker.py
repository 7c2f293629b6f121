"""Benchmark child process.  Run by run.py, never by hand:

    worker.py setup WORKLOAD SEED     import, build the op list, print "ready"
    worker.py run WORKLOAD SEED SECONDS TRACE
                                      as setup, then wait for "go" on stdin,
                                      run passes of the op list and print one
                                      JSON result line
    worker.py cli-reference           read CLI ops (JSON) on stdin, print the
                                      in-process library value of each table

Every op pairs a program value with a reference; the comparison tolerances
are the ones the package's own test suite uses for the same pair.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np
from qed51 import (dirac, hydrogen, kinematics, processes, propagators, radiative,
                   spinors, wick)
from qed51.constants import MODERN, RunConfig, get_profile

import ops as opslib
import refs

_now = time.perf_counter


def _import_program(workload: str):
    """Import the package under test; it must be the one in ./src."""
    import qed51
    if workload == "cli_session":
        import qed51.cli  # noqa: F401
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(qed51.__file__).startswith(src + os.sep):
        raise SystemExit(f"qed51 imported from {qed51.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# In-process ops.  prepare() computes the benchmark's own references before
# the timed phase; run_op() makes the program calls (timed) and returns the
# checks as (label, value, reference, rtol, atol).

def prepare(op: dict):
    kind = op["kind"]
    if kind in ("vacpol_open", "vacpol_closed"):
        q2 = op["q2"]
        out = {"in_integral": refs.vacpol_in_phase_integral(q2)}
        if q2 < -4.0:
            out["absorptive"] = refs.absorptive_weight_integral(-4.0 / q2)
        return out
    if kind == "wick_count":
        return {"count": refs.current_pairings(op["n"])}
    return None


# Number of identities each summary table replays.
TABLE_SIZES = {"dyson": 147, "feynman": 144}


def run_op(op: dict, ref, alpha: float):
    kind = op["kind"]
    if kind == "shoot":
        qn = hydrogen.DiracQuantumNumbers(op["n"], op["k"])
        exact = hydrogen.dirac_energy(qn, alpha).energy
        guess = 1.0 - alpha**2 / (2.0 * qn.big_n**2)
        shot = hydrogen.radial_shoot(qn, alpha, guess)
        return [("shoot vs dirac_energy", shot, exact, 1e-8, 0.0)]
    if kind in ("vacpol_open", "vacpol_closed"):
        q2 = op["q2"]
        res = radiative.vacuum_polarization(q2, alpha)
        checks = [("in-phase vs tanh-sinh", res.in_phase * 4.0 * math.pi / alpha,
                   ref["in_integral"], 1e-8, 1e-12),
                  ("threshold flag", float(res.threshold_open), float(q2 < -4.0), 0.0, 0.0)]
        if q2 < -4.0:
            checks.append(("out-of-phase vs tanh-sinh", res.out_phase,
                           alpha / 4.0 * ref["absorptive"], 1e-9, 0.0))
        else:
            checks.append(("out-of-phase below threshold", res.out_phase, 0.0, 0.0, 0.0))
        return checks
    if kind == "k_integral":
        p, pp = np.array(op["p"]), np.array(op["pp"])
        q2 = float(((p - pp) ** 2).sum())
        closed = radiative.k_integral_closed(p, pp, q2, op["r_ir"])
        radial = radiative.k_integral_radial(p, pp, q2, op["r_ir"])
        return [("K radial vs closed", radial, closed, 1e-7, 0.0)]
    if kind == "loop_I":
        closed = propagators.loop_integral_I(op["lam"])
        quad = propagators.loop_integral_I_quadrature(op["lam"])
        return [("loop I quadrature vs closed", quad, closed, 1e-8, 0.0)]
    if kind == "loop_log":
        closed = propagators.loop_log_difference(op["lam"], op["lam_prime"])
        quad = propagators.loop_log_difference_quadrature(op["lam"], op["lam_prime"])
        return [("loop log quadrature vs closed", quad, closed, 0.0,
                 1e-8 * max(1.0, abs(closed)))]
    if kind == "feynman2":
        exact = propagators.IEpsilonPolicy.exact_limit()
        val = propagators.feynman_combine2(op["a"], op["b"], exact)
        return [("1/(ab) formula", val, 1.0 / (op["a"] * op["b"]), 0.0, 1e-10)]
    if kind == "feynman3":
        exact = propagators.IEpsilonPolicy.exact_limit()
        val = propagators.feynman_combine3(op["a"], op["b"], op["c"], exact)
        return [("1/(abc) formula", val, 1.0 / (op["a"] * op["b"] * op["c"]), 0.0, 1e-8)]
    if kind == "total_correction":
        t, theta = op["t"], op["theta"]
        de = t * op["de_frac"]
        adaptive = radiative.total_scattering_correction(t, theta, de, alpha, "adaptive")
        gauss = radiative.total_scattering_correction(t, theta, de, alpha, "gauss")
        f_adaptive = radiative.total_correction_f_theta(theta, "adaptive")
        f_gauss = radiative.total_correction_f_theta(theta, "gauss")
        # sigma_T - 1 is O(1e-4), so compare the bracket it multiplies
        coef = 2.0 * alpha / (3.0 * math.pi) * 8.0 * t * math.sin(theta / 2.0) ** 2
        return [("sigma_T bracket adaptive vs gauss", (1.0 - adaptive) / coef,
                 (1.0 - gauss) / coef, 0.0, 1e-6),
                ("f(theta) adaptive vs gauss", f_adaptive, f_gauss, 0.0, 1e-8)]
    if kind == "moller":
        closed = processes.moller_dcs(op["gamma"], op["theta"], alpha)
        brute = processes.moller_dcs_brute(op["gamma"], op["theta"], alpha)
        return [("moller brute vs closed", brute, closed, 1e-8, 0.0)]
    if kind == "klein_nishina":
        e = (kinematics.FourVector(1, 0, 0, 0), kinematics.FourVector(0, 1, 0, 0))[op["e"]]
        ep = processes.scattered_polarization_basis(op["theta"])[op["ep"]]
        closed = processes.kn_spin_summed_ksq(op["eps"], op["theta"], e, ep, alpha, "closed")
        trace = processes.kn_spin_summed_ksq(op["eps"], op["theta"], e, ep, alpha, "trace")
        spin = processes.kn_spin_summed_ksq(op["eps"], op["theta"], e, ep, alpha, "spinors")
        return [("KN trace vs closed", trace, closed, 1e-8, 0.0),
                ("KN spinors vs closed", spin, closed, 1e-8, 0.0)]
    if kind == "mott":
        energy = 1.0 / math.sqrt(1.0 - op["beta"] ** 2)
        closed = spinors.mott_spin_factor(energy, op["theta"])
        direct = spinors.mott_spin_factor_direct(energy, op["theta"])
        return [("mott direct vs closed", direct, closed, 1e-10, 0.0)]
    if kind == "completeness":
        state = kinematics.electron_from_energy(op["energy"], op["direction"])
        mat = spinors.completeness_matrix(state)
        return [("completeness vs identity", mat, np.eye(4), 0.0, 1e-10)]
    if kind == "spin_sum":
        state = kinematics.electron_from_energy(op["energy"], op["direction"])
        mats = []
        for vecs in (op["o"], op["p"]):
            m = np.eye(4, dtype=complex)
            for v in vecs:
                m = m @ dirac.slash(kinematics.FourVector(*v))
            mats.append(m)
        s = np.array(op["s"][:4]) + 1j * np.array(op["s"][4:])
        r = np.array(op["r"][:4]) + 1j * np.array(op["r"][4:])
        via = spinors.spin_sum(mats[0], mats[1], state, op["sign"], s, r)
        direct = spinors.spin_sum_direct(mats[0], mats[1], state, op["sign"], s, r)
        return [("spin sum direct vs projector", direct, via, 0.0, 1e-9 * max(1.0, abs(via)))]
    if kind == "identity_tables":
        rep = dirac.verify_identity_tables(op["convention"])
        return [("table deviation", rep.max_deviation, 0.0, 0.0, 1e-12),
                ("table passed", float(rep.passed), 1.0, 0.0, 0.0),
                ("table size", float(len(rep.entries)),
                 float(TABLE_SIZES[op["convention"]]), 0.0, 0.0)]
    if kind == "wick_count":
        prod = wick.OperatorProduct.current_product(op["n"])
        pairings = wick.enumerate_pairings(prod)
        return [("pairings vs T(n)F(n)", float(len(pairings)), float(ref["count"]), 0.0, 0.0)]
    if kind == "wick_graphs":
        prod = _product(op["product"])
        pairings = wick.enumerate_pairings(prod)
        graphs = [wick.to_graph(p, prod, s) for p, s in pairings]
        classes = [wick.classify(g) for g in graphs]
        dots = [wick.to_dot(g, name=f"G{i + 1}") for i, g in enumerate(graphs)]
        got_sig, want_sig, edges, want_edges = [], [], [], []
        for (pairing, _), g, dot in zip(pairings, graphs, dots):
            got_sig.append(g.external_signature())
            want_sig.append(_unpaired_signature(prod, pairing))
            edges.append(sum("->" in line for line in dot.splitlines()))
            want_edges.append(len(g.external) + len(g.electron_lines) + len(g.photon_lines))
        checks = [("graph signatures", np.array(got_sig, float), np.array(want_sig, float),
                   0.0, 0.0),
                  ("dot edges", np.array(edges, float), np.array(want_edges, float), 0.0, 0.0),
                  ("classified", float(sum(bool(c) for c in classes)), float(len(graphs)),
                   0.0, 0.0)]
        if op["product"].startswith("current^"):
            degrees = [g.vertex_degree(v) for g in graphs for v in g.vertices]
            checks.append(("vertex degree 3", np.array(degrees, float),
                           np.full(len(degrees), 3.0), 0.0, 0.0))
        return checks
    raise ValueError(f"unknown op kind {kind!r}")


def _product(spec: str):
    """The operator product a CLI ``--product`` spec names."""
    if spec == "two-vertex-current":
        return wick.OperatorProduct.current_product(2)
    if spec == "second-order-potential":
        return wick.OperatorProduct.external_potential_second_order()
    if spec.startswith("photons:"):
        return wick.OperatorProduct.photons(int(spec.split(":")[1]))
    return wick.OperatorProduct.current_product(int(spec.split("^")[1]))


def _unpaired_signature(prod, pairing):
    paired = {i for pair in pairing.pairs for i in pair}
    kinds = [f.kind for i, f in enumerate(prod.factors) if i not in paired]
    return (sum(k in ("psi", "psi_bar") for k in kinds), sum(k == "photon" for k in kinds))


def evaluate(checks, perturb: float = 0.0):
    """Names of the failed checks; references are scaled by (1 + perturb)."""
    return [label for label, value, reference, rtol, atol in checks
            if not refs.within(value, np.asarray(reference) * (1.0 + perturb), rtol, atol)]


def warmup_ops(op_list):
    """The cheapest op of each kind, run once before timing so that lazy
    set-up inside numpy and scipy is done."""
    weight = {"shoot": lambda o: abs(o["k"]) + o["n"], "wick_count": lambda o: o["n"]}
    best = {}
    for op in op_list:
        key = weight.get(op["kind"], lambda o: 0)(op)
        if op["kind"] not in best or key < best[op["kind"]][0]:
            best[op["kind"]] = (key, op)
    return [op for _, op in best.values()]


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    alpha = MODERN.alpha
    op_list = opslib.inprocess_ops(workload, seed)
    prepared = [prepare(op) for op in op_list]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("expected 'go'")

    for op in warmup_ops(op_list):
        try:
            run_op(op, prepare(op), alpha)
        except Exception:  # the timed pass counts it as a failed op
            pass

    tracer = None
    if trace:
        import tracer as tracelib
        tracer = tracelib.Tracer()
    latencies, walls, traced_walls = [], [], []
    attempted, failures = 0, []
    op_kinds = {}
    t_begin = _now()
    n_pass = 0
    while True:
        traced_pass = trace and n_pass % 2 == 1
        if traced_pass:
            tracer.install()
        t_pass = _now()
        for i, (op, ref) in enumerate(zip(op_list, prepared)):
            op_id = n_pass * len(op_list) + i
            if traced_pass:
                op_kinds[op_id] = op["kind"]
                tracer.begin_op(op_id, op["kind"])
            t0 = _now()
            try:
                checks = run_op(op, ref, alpha)
                error = None
            except Exception as exc:  # a failing op is counted, never fatal
                checks, error = [], f"{type(exc).__name__}: {exc}"
            dt = _now() - t0
            if traced_pass:
                tracer.end_op()
            attempted += 1
            bad = [error] if error else evaluate(checks)
            if bad:
                failures.append({"op": op, "failed": bad})
            if not traced_pass:
                latencies.append(dt)
        wall = _now() - t_pass
        if traced_pass:
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            walls.append(wall)
        n_pass += 1
        elapsed = _now() - t_begin
        if n_pass >= 2 and elapsed + wall > seconds:
            break
    result = {"latencies": latencies, "pass_walls": walls, "traced_walls": traced_walls,
              "attempted": attempted, "failures": failures, "ops_per_pass": len(op_list),
              "env": environment()}
    if trace:
        result["loop_probe"] = loop_probe(alpha)
        import tracer as tracelib
        result["stats"] = tracelib.aggregate(tracer, op_kinds)
        os.makedirs(opslib.OUT_DIR, exist_ok=True)
        path = os.path.join(opslib.OUT_DIR, f"spans-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id",
                                  "callback_s", "callback_calls"],
                       "names": tracer.names, "spans": tracer.spans}, fh)
        result["spans_file"] = path
    return result


def loop_probe(alpha: float) -> list:
    """Run the radial loop-quadrature sample once (untimed, untraced); one entry per op,
    with the names of its failed checks."""
    out = []
    for op in opslib.loop_probe_ops():
        try:
            bad = evaluate(run_op(op, None, alpha))
        except Exception as exc:
            bad = [f"{type(exc).__name__}: {exc}"]
        out.append({"op": op, "failed": bad})
    return out


def environment() -> dict:
    import platform
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


# ---------------------------------------------------------------------------
# CLI reference tables: the rows each CLI op must print, from library calls
# made in this process.

def cli_reference(op: dict):
    spec, cfg = op["spec"], op["config"]
    profile = get_profile(cfg["constants"]) if cfg["constants"] else None
    config = RunConfig(output_format=cfg["format"], units=cfg["units"] or "natural",
                       alpha_override=cfg["alpha"],
                       **({"constants": profile} if profile else {}))
    alpha, consts = config.alpha, config.constants
    cmd = spec["cmd"]
    if cmd == "xsec":
        scale = consts.r0_cm ** 2 if config.units == "SI" else 1.0
        degrees = np.linspace(*spec["grid"])
        if spec["process"] == "moller":
            fn = lambda th: processes.moller_dcs(spec["gamma"], th, alpha)  # noqa: E731
        elif spec["process"] == "compton":
            phi = None if spec.get("unpolarized") else math.radians(spec["phi"])
            fn = lambda th: processes.kn_dcs(spec["eps"], th, phi=phi,  # noqa: E731
                                             unpolarized=phi is None)
        else:
            fn = lambda th: processes.mott_dcs(spec["energy"], th, spec["Z"], alpha)  # noqa: E731
        return [[float(d), float(fn(th) * scale)] for d, th in zip(degrees, np.radians(degrees))]
    if cmd == "annihilate":
        if spec["which"] == "positronium":
            tau = processes.positronium_lifetime(consts)
            return [["lifetime", tau, "s"], ["rate", 1.0 / tau, "1/s"],
                    ["triplet_2gamma", 0.0, "(forbidden)"]]
        res = processes.annihilation_rate(spec["rho"], alpha)
        rows = [["rate", res.rate, "mc^2/hbar"], ["lifetime", res.lifetime, "hbar/mc^2"]]
        if spec.get("v"):
            si = config.units == "SI"
            sigma = processes.slow_annihilation_cross_section(spec["v"])
            rows.append([f"sigma(v={spec['v']})", sigma * (consts.r0_cm ** 2 if si else 1.0),
                         "cm^2" if si else "r0^2"])
        return rows
    if cmd == "hydrogen":
        if spec["which"] == "landau":
            return [[spec["B"], spec["pz"], spec["M"],
                     hydrogen.landau_levels(spec["B"], spec["pz"], spec["M"])]]
        e_scale = consts.mc2_mev if config.units == "MeV" else 1.0
        rows = []
        for big_n, n, k, j, label, energy in hydrogen.level_table(spec["max_N"], alpha):
            row = [label, big_n, n, k, j, (energy - 1.0) * e_scale]
            if spec["expand"]:
                row.append((hydrogen.fine_structure_expansion(big_n, k, alpha) - 1.0) * e_scale)
            rows.append(row)
        return rows
    if cmd == "o16":
        de, r0, z = spec["deltaE"], float(f"{spec['r0']}e-13"), spec["Z"]
        if spec["spectrum"]:
            de_nat = de / 0.511
            return [[float(e1), processes.o16_pair_spectrum(float(e1), math.pi / 3.0, de_nat)]
                    for e1 in np.linspace(0.0, de_nat, 13)[1:-1]]
        return [["lifetime (rounded chain)", processes.o16_lifetime(de, r0, z, "rounded"), "s"],
                ["lifetime (exact inputs)", processes.o16_lifetime(de, r0, z, "exact"), "s"],
                ["total rate", processes.o16_total_rate(de, r0, z), "1/s"]]
    if cmd == "vacpol":
        q2s = [spec["q2"]] if "q2" in spec else [float(q) for q in np.linspace(*spec["grid"])]
        rows = []
        for q2 in q2s:
            res = radiative.vacuum_polarization(q2, alpha)
            rows.append([q2, res.in_phase, res.out_phase, int(res.threshold_open)])
        return rows
    if cmd == "uehling":
        shift = radiative.uehling_shift(spec["state"], consts)
        return [[spec["state"], shift * 1e6 if config.units == "SI" else shift]]
    if cmd == "lamb":
        budget = radiative.lamb_shift_full(spec["eav"], consts)
        scale = 1e6 if config.units == "SI" else 1.0
        if spec["budget"]:
            return [["bethe_term", budget.bethe_term * scale],
                    ["moment_term", budget.moment_term * scale],
                    ["uehling_term", budget.uehling_term * scale],
                    ["total", budget.total * scale]]
        return [["shift", budget.total * scale]]
    if cmd == "moment":
        return [[spec["order"], radiative.anomalous_moment(spec["order"], alpha)]]
    if cmd == "wick":
        name = spec["product"]
        prod = _product(name)
        pairings = wick.enumerate_pairings(prod)
        if spec["which"] == "count":
            rows = [["pairings (normal constituents)", len(pairings)]]
            if name == "second-order-potential":
                rows.append(["order-2 external-potential graphs",
                             wick.count_graphs_order2_external_potential()])
            return rows
        rows = []
        for i, (p, s) in enumerate(pairings):
            g = wick.to_graph(p, prod, s)
            fermions, photons = g.external_signature()
            rows.append([f"G{i + 1}", g.sign, len(g.electron_lines), len(g.photon_lines),
                         fermions, photons, ",".join(sorted(wick.classify(g)))])
        return rows
    if cmd == "verify":
        if spec["which"] == "all":
            return None   # checked by status column only
        convs = [spec["convention"]] if spec["convention"] else [dirac.DYSON, dirac.FEYNMAN]
        rows = []
        for conv in convs:
            rep = dirac.verify_identity_tables(conv)
            rows.append([f"{conv} table ({len(rep.entries)} identities)", rep.max_deviation,
                         "pass" if rep.passed else "FAIL"])
        return rows
    raise ValueError(f"unknown command {cmd!r}")


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        _import_program(argv[1])
        if argv[1] != "cli_session":
            for op in opslib.inprocess_ops(argv[1], int(argv[2])):
                prepare(op)
        print("ready", flush=True)
        return 0
    if mode == "run":
        workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
        _import_program(workload)
        result = run_inprocess(workload, seed, seconds, trace)
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    if mode == "cli-reference":
        _import_program("cli_session")
        import qed51
        cli_ops = json.loads(sys.stdin.read())
        out = {"rows": [cli_reference(op) if op["spec"] else None for op in cli_ops],
               "env": environment(), "qed51_file": qed51.__file__}
        sys.stdout.write(json.dumps(out) + "\n")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
