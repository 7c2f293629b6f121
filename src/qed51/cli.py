"""Command-line surface: every computation as tables/values with unit
conversion, constants configuration, and machine-readable output.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 numeric failure.
stdout carries data; stderr carries diagnostics.
"""

# The module docstring is the --help description.  Each handler imports the
# modules it computes with, so every command but verify (xsec, annihilate,
# hydrogen, o16, vacpol, uehling, lamb, moment, wick) and usage errors never
# load numpy.

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import itertools
import math
import os
import sys

from .constants import (DYSON, FEYNMAN, FORMATS, O16_MC2_MEV, PROFILES, UNITS, RunConfig,
                        get_profile)
from .errors import DomainError, NumericError, QedError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def print_help(self, file=None):
        # argparse drops a failed write of the help text; write it as emit
        # writes a table, so that main reports the failure and exits 2
        stream = file or _stdout()
        stream.write(self.format_help())
        stream.flush()


class Table:
    def __init__(self, title, columns, rows, meta=None):
        self.title = title
        self.columns = columns
        self.rows = rows
        self.meta = meta or {}


def _fmt_text(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _check_finite(table: Table) -> None:
    for cells in itertools.chain(table.rows, [table.meta.values()]):
        for value in cells:
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericError(f"non-finite value {value!r} in the output")


def _stdout():
    if sys.stdout is None:
        # fd 1 was closed at start-up, so Python set sys.stdout to None
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def emit(table: Table, config: RunConfig, stream=None) -> None:
    """Write the table as csv, json or text; raises NumericError, before
    writing anything, if a float cell or meta value is nan or infinite."""
    _check_finite(table)
    stream = stream or _stdout()
    if config.output_format == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([repr(c) if isinstance(c, float) else c for c in row])
        return
    if config.output_format == "json":
        import json

        doc = {
            "title": table.title,
            "config": {"constants": config.constants.name,
                       "alpha": config.alpha, "units": config.units},
            "columns": list(table.columns),
            "rows": table.rows,
            "meta": table.meta,
        }
        json.dump(doc, stream, indent=2, allow_nan=False)
        stream.write("\n")
        return
    stream.write(table.title + "\n")
    widths = [max(len(str(c)), *(len(_fmt_text(r[i])) for r in table.rows), 4)
              if table.rows else len(str(c))
              for i, c in enumerate(table.columns)]
    stream.write("  ".join(str(c).ljust(w) for c, w in zip(table.columns, widths)).rstrip() + "\n")
    for row in table.rows:
        stream.write("  ".join(_fmt_text(c).ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    for key, val in table.meta.items():
        stream.write(f"# {key}: {_fmt_text(val)}\n")


# Largest point count of --grid and --theta-grid: vacpol with 100,000
# points takes about 0.7 s in csv or text and 1.1 s in json, and 35 MB
# (2-CPU x86-64 Xeon, Python 3.11).
MAX_GRID_POINTS = 100_000


def _finite_grid(spec: str):
    """The points of a start:end:count grid (--grid, --theta-grid); an infinite
    endpoint, or an end - start that overflows, is a domain error."""
    try:
        start, end, count = spec.split(":")
        start, end, count = float(start), float(end), int(count)
    except ValueError:
        raise DomainError(f"bad grid spec {spec!r}; expected start:end:count in degrees")
    if count < 1:
        raise DomainError("grid needs at least one point")
    if count > MAX_GRID_POINTS:
        raise DomainError(f"grid spec {spec!r} needs a count <= {MAX_GRID_POINTS}")
    points = _linspace(start, end, count)
    if not all(map(math.isfinite, points)):
        raise DomainError(f"grid spec {spec!r} has points that are not finite numbers")
    return points


def _linspace(start: float, end: float, count: int):
    """numpy.linspace's arithmetic, point for point, without importing numpy."""
    delta = end - start
    if count == 1:
        return [0.0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0.0:  # delta / div underflowed: scale each fraction instead
        return [i / div * delta + start for i in range(div)] + [end]
    return [i * step + start for i in range(div)] + [end]


def _xsec_unit(config: RunConfig):
    if config.units == "SI":
        return "cm^2/sr", config.constants.r0_cm ** 2
    return "r0^2/sr", 1.0


def _freq_unit(config: RunConfig):
    if config.units == "SI":
        return "Hz", 1e6
    return "Mc", 1.0


# ---------------------------------------------------------------------------
# Subcommand handlers.

def cmd_xsec(args, config: RunConfig) -> Table:
    from . import processes

    unit, scale = _xsec_unit(config)
    alpha = config.alpha
    degrees = _finite_grid(args.theta_grid)
    if args.process == "moller":
        fn = lambda th: processes.moller_dcs(args.gamma, th, alpha)
        title = f"Moller dsigma/dOmega* (gamma = {args.gamma}) [{unit}]"
        angle_col = "theta_lab_deg"
    elif args.process == "compton":
        if args.unpolarized:
            fn = lambda th: processes.kn_dcs(args.eps, th, unpolarized=True)
            label = "unpolarized"
        else:
            fn = lambda th: processes.kn_dcs(args.eps, th, phi=math.radians(args.phi))
            label = f"phi = {args.phi} deg"
        title = f"Klein-Nishina dsigma/dOmega (eps = {args.eps}, {label}) [{unit}]"
        angle_col = "theta_deg"
    elif args.process == "mott":
        fn = lambda th: processes.mott_dcs(args.energy, th, args.Z, alpha)
        title = f"Mott dsigma/dOmega (E = {args.energy} mc^2, Z = {args.Z}) [{unit}]"
        angle_col = "theta_deg"
    else:
        raise DomainError(f"unknown process {args.process!r}")
    rows = [[deg, fn(math.radians(deg)) * scale] for deg in degrees]
    return Table(title, [angle_col, f"dcs[{unit}]"], rows)


def cmd_annihilate(args, config: RunConfig) -> Table:
    from . import processes

    alpha = config.alpha
    if args.which == "positronium":
        tau = processes.positronium_lifetime(config.constants)
        return Table("Positronium 1s singlet two-quantum decay",
                     ["quantity", "value", "unit"],
                     [["lifetime", tau, "s"],
                      ["rate", 1.0 / tau, "1/s"],
                      ["triplet_2gamma", 0.0, "(forbidden)"]])
    rate = processes.annihilation_rate(args.rho, alpha)
    rows = [["rate", rate.rate, "mc^2/hbar"], ["lifetime", rate.lifetime, "hbar/mc^2"]]
    if args.v is not None:
        sigma = processes.slow_annihilation_cross_section(args.v)
        unit, scale = _xsec_unit(config)
        rows.append([f"sigma(v={args.v})", sigma * scale, unit.replace("/sr", "")])
    return Table(f"Singlet annihilation (rho = {args.rho})",
                 ["quantity", "value", "unit"], rows)


def cmd_hydrogen(args, config: RunConfig) -> Table:
    from . import hydrogen

    alpha = config.alpha
    if args.which == "levels":
        e_unit, e_scale = ("MeV", config.constants.mc2_mev) \
            if config.units == "MeV" else ("mc^2", 1.0)
        rows = []
        for big_n, n, k, j, label, energy in hydrogen.level_table(args.max_N, alpha):
            row = [label, big_n, n, k, j, (energy - 1.0) * e_scale]
            if args.expand:
                row.append((hydrogen.fine_structure_expansion(big_n, k, alpha) - 1.0)
                           * e_scale)
            rows.append(row)
        cols = ["state", "N", "n", "k", "j", f"E-mc2 [{e_unit}]"]
        if args.expand:
            cols.append(f"series [{e_unit}]")
        return Table(f"Dirac-Coulomb levels (alpha = {alpha})", cols, rows)
    energy = hydrogen.landau_levels(args.B, args.pz, args.M)
    return Table("Uniform-magnetic-field level",
                 ["B [crit]", "p_z [mc]", "M", "E [mc^2]"],
                 [[args.B, args.pz, args.M, energy]])


def cmd_o16(args, config: RunConfig) -> Table:
    from . import processes

    delta_e, r0 = args.deltaE, args.r0
    fixed = "o16 uses fixed rounded constants, so --constants and --alpha do not apply"
    if args.spectrum:
        de_nat = delta_e / O16_MC2_MEV
        grid = _linspace(0.0, de_nat, 13)[1:-1]
        rows = [[e1, processes.o16_pair_spectrum(e1, math.pi / 3.0, de_nat)] for e1 in grid]
        return Table("Pair spectrum shape at theta = 60 deg (E1 in mc^2, unnormalized)",
                     ["E1", "w"], rows, meta={
                         "deltaE_mc2": de_nat,
                         "note": f"{fixed}; the shape depends on --deltaE alone"})
    rows = [["lifetime (rounded chain)", processes.o16_lifetime(delta_e, r0, args.Z, "rounded"), "s"],
            ["lifetime (exact inputs)", processes.o16_lifetime(delta_e, r0, args.Z, "exact"), "s"],
            ["total rate", processes.o16_total_rate(delta_e, r0, args.Z), "1/s"]]
    return Table(f"Monopole pair emission (dE = {delta_e} MeV, r0 = {r0} cm, Z = {args.Z})",
                 ["quantity", "value", "unit"], rows,
                 meta={"note": f"{fixed}; the rounded-chain lifetime depends on --r0 only"})


def cmd_vacpol(args, config: RunConfig) -> Table:
    from . import radiative

    alpha = config.alpha
    q2s = [args.q2] if args.grid is None else _finite_grid(args.grid)
    rows = []
    for q2 in q2s:
        res = radiative.vacuum_polarization(q2, alpha)
        rows.append([q2, res.in_phase, res.out_phase, int(res.threshold_open)])
    return Table("Vacuum polarization (coefficients of the renormalized current)",
                 ["q2/mu2", "in_phase", "out_phase", "threshold_open"], rows)


def cmd_uehling(args, config: RunConfig) -> Table:
    from . import radiative

    shift = radiative.uehling_shift(args.state, config.constants)
    unit, scale = _freq_unit(config)
    return Table("Uehling (vacuum polarization) level shift",
                 ["state", f"shift [{unit}]"], [[args.state, shift * scale]])


def cmd_lamb(args, config: RunConfig) -> Table:
    from . import radiative

    budget = radiative.lamb_shift_full(args.eav, config.constants)
    unit, scale = _freq_unit(config)
    if args.budget:
        rows = [["bethe_term", budget.bethe_term * scale],
                ["moment_term", budget.moment_term * scale],
                ["uehling_term", budget.uehling_term * scale],
                ["total", budget.total * scale]]
        return Table(f"Lamb shift budget, 2s - 2p1/2 [{unit}] "
                     f"((E-E0)av = {args.eav} Ry)", ["term", f"value [{unit}]"], rows,
                     meta={"experimental_Mc": "1062 +- 5 (reported, not asserted)"})
    return Table(f"Lamb shift 2s - 2p1/2 [{unit}]",
                 ["quantity", f"value [{unit}]"],
                 [["shift", budget.total * scale]],
                 meta={"experimental_Mc": "1062 +- 5 (reported, not asserted)"})


def cmd_moment(args, config: RunConfig) -> Table:
    from . import radiative

    val = radiative.anomalous_moment(args.order, config.alpha)
    return Table("Anomalous magnetic moment dM/M",
                 ["order", "dM/M"], [[args.order, val]],
                 meta={"experimental": "0.001145 +- 0.000013"})


# Largest products the CLI accepts: current^7 has 14,810,880 pairings and
# photons:12 has 140,152; each counts in about a second.  `wick graphs`
# draws at most as many graphs as current^6 has pairings.
MAX_CURRENT_VERTICES = 7
MAX_PHOTON_FACTORS = 12
MAX_GRAPHS = 501_600


def _product_from_spec(spec: str):
    from . import wick

    key = spec.lower()
    if key in ("two-vertex-current", "current^2", "current2"):
        return wick.OperatorProduct.current_product(2)
    if key in ("second-order-potential", "external-potential-2"):
        return wick.OperatorProduct.external_potential_second_order()
    if key.startswith("current^"):
        return wick.OperatorProduct.current_product(
            _spec_count(spec, key.split("^")[1], MAX_CURRENT_VERTICES))
    if key.startswith("photons:"):
        return wick.OperatorProduct.photons(
            _spec_count(spec, key.split(":")[1], MAX_PHOTON_FACTORS))
    raise DomainError(f"unknown product spec {spec!r}; use two-vertex-current, "
                      "second-order-potential, current^N, or photons:N")


def _spec_count(spec: str, text: str, limit: int) -> int:
    try:
        count = int(text)
    except ValueError:
        raise DomainError(f"bad count in product spec {spec!r}") from None
    if count < 0:
        raise DomainError(f"product spec {spec!r} needs a nonnegative count")
    if count > limit:
        raise DomainError(f"product spec {spec!r} needs a count <= {limit}")
    return count


def cmd_wick(args, config: RunConfig) -> Table:
    from . import wick

    prod = _product_from_spec(args.product)
    pairings = wick.enumerate_pairings(prod)
    if args.which == "count":
        rows = [["pairings (normal constituents)", len(pairings)]]
        if args.product.lower() in ("second-order-potential", "external-potential-2"):
            rows.append(["order-2 external-potential graphs",
                         wick.count_graphs_order2_external_potential()])
        return Table(f"Factor pairings of {args.product}",
                     ["quantity", "count"], rows)
    if len(pairings) > MAX_GRAPHS:
        raise DomainError(f"product {args.product!r} has {len(pairings)} pairings; "
                          f"wick graphs draws at most {MAX_GRAPHS}")
    # Each graph is built once and dropped after its DOT text and row.
    rows = []
    try:
        dot_file = open(args.dot, "w") if args.dot else contextlib.nullcontext()
    except OSError as exc:
        raise QedError(f"cannot write the DOT file {args.dot!r}: {exc.strerror}") from None
    with dot_file as dot:
        for i, (p, s) in enumerate(pairings, 1):
            g = wick.to_graph(p, prod, s)
            if dot:
                dot.write(wick.to_dot(g, name=f"G{i}") + "\n")
            fermions, photons = g.external_signature()
            rows.append([f"G{i}", g.sign, len(g.electron_lines), len(g.photon_lines),
                         fermions, photons, ",".join(sorted(wick.classify(g)))])
    return Table(f"Graphs for {args.product}" + (f" (DOT written to {args.dot})" if args.dot else ""),
                 ["graph", "sign", "e-lines", "ph-lines", "ext-fermions",
                  "ext-photons", "class"], rows)


def cmd_verify(args, config: RunConfig) -> Table:
    from . import dirac

    if args.which == "tables":
        reps = [dirac.verify_identity_tables(conv)
                for conv in ([args.convention] if args.convention else [DYSON, FEYNMAN])]
        checks = [[f"{rep.convention} table ({len(rep.entries)} identities)",
                   rep.max_deviation, "pass" if rep.passed else "FAIL"] for rep in reps]
    else:
        import numpy as np

        from . import oracles

        rng = np.random.default_rng(oracles.SEED)
        checks = [pair.row(config.alpha, rng) for pair in oracles.PAIRS]
    table = Table("Verification", ["check", "max_deviation", "status"], checks)
    if any(row[2] != "pass" for row in checks):
        raise NumericError("verification failed:\n" +
                           "\n".join(str(r) for r in checks if r[2] != "pass"))
    return table


# ---------------------------------------------------------------------------
# Parser assembly.

def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def finite_float_in(unit: str):
    """argparse type: finite_float, optionally followed by `unit` in any case."""
    def parse(text: str) -> float:
        try:
            return finite_float(text[:-len(unit)] if text.lower().endswith(unit) else text)
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}") from None
    return parse


def _common_options() -> argparse.ArgumentParser:
    # SUPPRESS defaults: the options live on the main parser and on every
    # subparser, and a subparser must not overwrite a value already parsed
    # at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS,
                        default=argparse.SUPPRESS)
    common.add_argument("--constants", choices=sorted(PROFILES),
                        default=argparse.SUPPRESS)
    common.add_argument("--alpha", type=finite_float, default=argparse.SUPPRESS,
                        help="fine-structure constant for annihilate rate, hydrogen "
                             "levels, vacpol, moment and verify all (default: the "
                             "profile's); xsec values in r0^2 units do not depend on it, "
                             "and every other value and unit conversion uses the profile")
    common.add_argument("--units", choices=UNITS,
                        default=argparse.SUPPRESS)
    return common


def build_parser() -> _Parser:
    common = _common_options()
    parser = _Parser(prog="qed51", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, **kw):
        return group.add_parser(name, parents=[common], **kw)

    xsec = add(sub, "xsec", help="differential cross sections")
    xsub = xsec.add_subparsers(dest="process", required=True)
    m = add(xsub, "moller")
    m.add_argument("--gamma", type=finite_float, required=True)
    m.add_argument("--theta-grid", required=True)
    c = add(xsub, "compton")
    c.add_argument("--eps", type=finite_float, required=True)
    c.add_argument("--theta-grid", required=True)
    c.add_argument("--phi", type=finite_float, default=0.0)
    c.add_argument("--unpolarized", action="store_true")
    mo = add(xsub, "mott")
    mo.add_argument("--energy", type=finite_float, required=True)
    mo.add_argument("--Z", type=finite_float, default=1.0)
    mo.add_argument("--theta-grid", required=True)

    ann = add(sub, "annihilate", help="two-quantum annihilation")
    asub = ann.add_subparsers(dest="which", required=True)
    add(asub, "positronium")
    ar = add(asub, "rate")
    ar.add_argument("--rho", type=finite_float, default=1.0)
    ar.add_argument("--v", type=finite_float, default=None)

    hyd = add(sub, "hydrogen", help="bound-state spectra")
    hsub = hyd.add_subparsers(dest="which", required=True)
    hl = add(hsub, "levels")
    hl.add_argument("--max-N", type=int, default=3)
    hl.add_argument("--expand", action="store_true")
    hb = add(hsub, "landau")
    hb.add_argument("--B", type=finite_float, required=True)
    hb.add_argument("--pz", type=finite_float, default=0.0)
    hb.add_argument("--M", type=int, default=0)

    o16 = add(sub, "o16", help="monopole pair emission")
    o16.add_argument("--deltaE", type=finite_float_in("mev"), default="6MeV")
    o16.add_argument("--r0", type=finite_float_in("cm"), default="4e-13cm")
    o16.add_argument("--Z", type=finite_float, default=8.0)
    o16.add_argument("--spectrum", action="store_true")

    vp = add(sub, "vacpol", help="vacuum polarization")
    vp.add_argument("--q2", type=finite_float, default=0.0)
    vp.add_argument("--grid", default=None)

    ue = add(sub, "uehling")
    ue.add_argument("--state", default="2s")

    lamb = add(sub, "lamb", help="Lamb shift")
    lamb.add_argument("--eav", type=finite_float_in("ry"), default="16.6")
    lamb.add_argument("--budget", action="store_true")

    mom = add(sub, "moment", help="anomalous magnetic moment")
    mom.add_argument("--order", type=int, default=1, choices=(1, 2))

    wk = add(sub, "wick", help="factor-pairing enumeration")
    wsub = wk.add_subparsers(dest="which", required=True)
    wc = add(wsub, "count")
    wc.add_argument("--product", required=True)
    wg = add(wsub, "graphs")
    wg.add_argument("--product", required=True)
    wg.add_argument("--dot", default=None)

    ver = add(sub, "verify", help="identity and oracle suites")
    vsub = ver.add_subparsers(dest="which", required=True)
    vt = add(vsub, "tables")
    vt.add_argument("--convention", choices=(DYSON, FEYNMAN), default=None)
    add(vsub, "all")
    return parser


HANDLERS = {
    "xsec": cmd_xsec,
    "annihilate": cmd_annihilate,
    "hydrogen": cmd_hydrogen,
    "o16": cmd_o16,
    "vacpol": cmd_vacpol,
    "uehling": cmd_uehling,
    "lamb": cmd_lamb,
    "moment": cmd_moment,
    "wick": cmd_wick,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        profile = (getattr(args, "constants", None)
                   or os.environ.get("QED51_CONSTANTS", "modern"))
        config = RunConfig(constants=get_profile(profile),
                           output_format=getattr(args, "format", "text"),
                           units=getattr(args, "units", "natural"),
                           alpha_override=getattr(args, "alpha", None))
        table = HANDLERS[args.command](args, config)
        emit(table, config)
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe or a full device: point stdout at os.devnull so the
        # flush at exit cannot fail again ("Note on SIGPIPE", signal docs)
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc.strerror}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError:
        print("numeric failure: floating-point overflow", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except QedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
