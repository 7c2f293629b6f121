"""Seeded op lists for the three workloads.

Everything here is plain Python: the parent process generates the CLI argv
without importing the package, and the worker rebuilds the same in-process
op list from the same seed.  An op is a dict with a ``kind`` and its
parameters; the same seed always yields the same list.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli_session", "spectrum_numerics", "amplitude_algebra")

FORMATS = ("csv", "json", "text")

# Files the benchmark writes (DOT exports, trace dumps), relative to the checkout.
OUT_DIR = ".perfbench_out"


# ---------------------------------------------------------------------------
# cli_session: one pass is a fixed list of distinct argv, each run once per
# pass; the run repeats the pass, so every argv runs at least twice.

def _r(rng, lo, hi, digits=3):
    return round(rng.uniform(lo, hi), digits)


def _grid(a, b, n):
    return f"{a}:{b}:{n}"


def _xsec(rng):
    process = rng.choice(("moller", "compton", "mott"))
    if process == "moller":
        spec = {"cmd": "xsec", "process": "moller", "gamma": _r(rng, 1.2, 5.0),
                "grid": (rng.randint(10, 20), rng.randint(40, 50), rng.randint(3, 9))}
        argv = ["xsec", "moller", "--gamma", str(spec["gamma"])]
    elif process == "compton":
        spec = {"cmd": "xsec", "process": "compton",
                "eps": rng.choice((0.0, _r(rng, 0.05, 5.0))),
                "grid": (0, 180, rng.randint(5, 19))}
        argv = ["xsec", "compton", "--eps", str(spec["eps"])]
        if rng.random() < 0.5:
            spec["unpolarized"] = True
            argv.append("--unpolarized")
        else:
            spec["phi"] = float(rng.randint(0, 90))
            argv += ["--phi", str(spec["phi"])]
    else:
        spec = {"cmd": "xsec", "process": "mott", "energy": _r(rng, 1.1, 3.0),
                "Z": float(rng.randint(1, 92)), "grid": (30, 150, rng.randint(3, 9))}
        argv = ["xsec", "mott", "--energy", str(spec["energy"]), "--Z", str(spec["Z"])]
    argv += ["--theta-grid", _grid(*spec["grid"])]
    return argv, spec, ("natural", "SI")


def _annihilate(rng):
    if rng.random() < 0.5:
        return ["annihilate", "positronium"], {"cmd": "annihilate", "which": "positronium"}, ()
    spec = {"cmd": "annihilate", "which": "rate", "rho": _r(rng, 0.01, 5.0)}
    argv = ["annihilate", "rate", "--rho", str(spec["rho"])]
    if rng.random() < 0.5:
        spec["v"] = _r(rng, 0.001, 0.1, 4)
        argv += ["--v", str(spec["v"])]
    return argv, spec, ("natural", "SI")


def _hydrogen(rng):
    if rng.random() < 0.6:
        spec = {"cmd": "hydrogen", "which": "levels", "max_N": rng.randint(1, 6),
                "expand": rng.random() < 0.5}
        argv = ["hydrogen", "levels", "--max-N", str(spec["max_N"])]
        if spec["expand"]:
            argv.append("--expand")
        return argv, spec, ("natural", "MeV")
    spec = {"cmd": "hydrogen", "which": "landau", "B": _r(rng, 0.0, 2.0),
            "pz": _r(rng, -1.0, 1.0), "M": rng.randint(0, 6)}
    argv = ["hydrogen", "landau", "--B", str(spec["B"]), "--pz", str(spec["pz"]),
            "--M", str(spec["M"])]
    return argv, spec, ()


def _o16(rng):
    spec = {"cmd": "o16", "deltaE": _r(rng, 3.0, 10.0, 2), "r0": _r(rng, 2.0, 6.0, 2),
            "Z": float(rng.randint(4, 20)), "spectrum": rng.random() < 0.5}
    argv = ["o16", "--deltaE", f"{spec['deltaE']}MeV", "--r0", f"{spec['r0']}e-13cm",
            "--Z", str(spec["Z"])]
    if spec["spectrum"]:
        argv.append("--spectrum")
    return argv, spec, ()


def _vacpol(rng):
    if rng.random() < 0.5:
        spec = {"cmd": "vacpol", "q2": rng.choice((-4.0, _r(rng, -30.0, 8.0)))}
        return ["vacpol", "--q2", str(spec["q2"])], spec, ()
    spec = {"cmd": "vacpol", "grid": (rng.randint(-12, -5), rng.randint(1, 6), rng.randint(5, 25))}
    return ["vacpol", f"--grid={_grid(*spec['grid'])}"], spec, ()


def _uehling(rng):
    spec = {"cmd": "uehling", "state": rng.choice(("1s", "2s", "3s", "2p", "3d"))}
    return ["uehling", "--state", spec["state"]], spec, ("natural", "SI")


def _lamb(rng):
    spec = {"cmd": "lamb", "eav": _r(rng, 10.0, 25.0, 2), "budget": rng.random() < 0.6}
    argv = ["lamb", "--eav", str(spec["eav"])]
    if spec["budget"]:
        argv.append("--budget")
    return argv, spec, ("natural", "SI")


def _moment(rng):
    spec = {"cmd": "moment", "order": rng.choice((1, 2))}
    return ["moment", "--order", str(spec["order"])], spec, ()


WICK_COUNT_PRODUCTS = ("two-vertex-current", "second-order-potential", "current^3",
                       "current^4", "current^5")
WICK_GRAPH_PRODUCTS = ("two-vertex-current", "second-order-potential", "current^3")


def _wick(rng):
    if rng.random() < 0.5:
        product = rng.choice(WICK_COUNT_PRODUCTS + (f"photons:{rng.randint(0, 8)}",))
        spec = {"cmd": "wick", "which": "count", "product": product}
        return ["wick", "count", "--product", product], spec, ()
    spec = {"cmd": "wick", "which": "graphs", "product": rng.choice(WICK_GRAPH_PRODUCTS),
            "dot": rng.random() < 0.5}
    argv = ["wick", "graphs", "--product", spec["product"]]
    return argv, spec, ()


def _verify(rng):
    if rng.random() < 0.5:
        return ["verify", "all"], {"cmd": "verify", "which": "all"}, ()
    spec = {"cmd": "verify", "which": "tables",
            "convention": rng.choice((None, "dyson", "feynman"))}
    argv = ["verify", "tables"]
    if spec["convention"]:
        argv += ["--convention", spec["convention"]]
    return argv, spec, ()


SUBCOMMANDS = (_xsec, _annihilate, _hydrogen, _o16, _vacpol, _uehling, _lamb,
               _moment, _wick, _verify)

# Malformed and out-of-domain argv that the README contract already covers:
# each must be rejected with exit 1 (usage) or 2 (domain), without a traceback.
MALFORMED = (
    ["frobnicate"],
    ["xsec", "moller", "--gamma", "2"],
    ["moment", "--order", "3"],
    ["hydrogen", "landau", "--B", "abc"],
    ["xsec", "moller", "--gamma", "0.5", "--theta-grid", "10:50:5"],
    ["xsec", "mott", "--energy", "0.9", "--theta-grid", "30:150:5"],
    ["xsec", "compton", "--eps", "1", "--theta-grid", "0:180:0"],
    ["vacpol", "--grid", "1:2"],
    ["uehling", "--state", "9z"],
    ["--alpha", "0.5", "moment"],
    ["hydrogen", "levels", "--max-N", "0"],
    ["annihilate", "rate", "--rho", "-1"],
    ["lamb", "--eav", "-3"],
    ["wick", "count", "--product", "bogus"],
    ["hydrogen", "landau", "--B", "0.1", "--M", "-1"],
)

# The CLI-contract defects listed in ROADMAP item 4.  The traced cli_session
# run tries each once after its timed phase and reports it; see README.md.
KNOWN_DEFECTS = (
    ["hydrogen", "levels", "--max-N", "7"],
    ["vacpol", "--q2", "nan"],
    ["lamb", "--eav", "nan"],
    ["wick", "count", "--product", "current^abc"],
    ["xsec", "compton", "--eps", "nan", "--theta-grid", "0:180:5", "--format", "json"],
    ["wick", "count", "--product", "photons:-1"],
    ["o16", "--deltaE", "abcMeV"],
    ["annihilate", "rate", "--rho", "inf"],
    ["hydrogen", "landau", "--B", "0.1", "--pz", "inf"],
    ["xsec", "moller", "--gamma", "inf", "--theta-grid", "10:50:3"],
    ["xsec", "mott", "--energy", "1.5", "--Z", "nan", "--theta-grid", "30:150:3"],
)

N_MALFORMED = 2


def cli_ops(seed: int):
    """The distinct argv of one cli_session pass, shuffled.

    One draw from every subcommand plus N_MALFORMED malformed argv.  The
    global flags are dealt so that every pass uses all three formats and
    both constants profiles.  Returns dicts with ``argv``, ``spec`` (None for
    a malformed op) and ``config`` (format, constants, units, alpha).
    """
    rng = random.Random(f"cli_session:{seed}")
    n = len(SUBCOMMANDS)
    formats = list(FORMATS) + [rng.choice(FORMATS) for _ in range(n - len(FORMATS))]
    profiles = ["1951", "modern"] + [rng.choice(("1951", "modern", None))
                                     for _ in range(n - 2)]
    rng.shuffle(formats)
    rng.shuffle(profiles)
    ops = []
    for i, family in enumerate(SUBCOMMANDS):
        argv, spec, unit_choices = family(rng)
        config = {"format": formats[i], "constants": profiles[i], "units": None,
                  "alpha": None}
        if rng.random() < 0.15:
            config["alpha"] = 1.0 / _r(rng, 136.0, 138.0)
        if unit_choices and rng.random() < 0.5:
            config["units"] = rng.choice(unit_choices[1:])
        if spec.get("dot"):
            spec["dot_path"] = f"{OUT_DIR}/graphs-{seed}-{i}.dot"
            argv = argv + ["--dot", spec["dot_path"]]
        flags = ["--format", config["format"]]
        if config["constants"]:
            flags += ["--constants", config["constants"]]
        if config["alpha"] is not None:
            flags += ["--alpha", repr(config["alpha"])]
        if config["units"]:
            flags += ["--units", config["units"]]
        # global flags go before or after the subcommand, as the README allows
        argv = flags + argv if rng.random() < 0.5 else argv + flags
        ops.append({"argv": argv, "spec": spec, "config": config})
    for argv in rng.sample(MALFORMED, N_MALFORMED):
        ops.append({"argv": list(argv), "spec": None, "config": None})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# spectrum_numerics: the scipy-bound oracle pairs.

SHOOT_LEVELS = ((0, 1), (1, -1), (1, 1), (0, 2))   # every level with N <= 2


def spectrum_ops(seed: int):
    """Every N <= 2 shooting level twice, 14 total-correction pairs and one
    or two of each quadrature pair but the radial loop ones (see
    loop_probe_ops).  The counts put the median latency inside
    the total-correction ops and p90 inside the shooting ops, whose costs do
    not depend on the seed."""
    rng = random.Random(f"spectrum_numerics:{seed}")
    ops = [{"kind": "shoot", "n": n, "k": k} for n, k in SHOOT_LEVELS for _ in range(2)]
    for _ in range(2):
        ops.append({"kind": "vacpol_open", "q2": -_r(rng, 4.5, 40.0, 6)})
    q2 = _r(rng, 0.5, 3.5, 6) * rng.choice((-1.0, 1.0, 2.0))
    ops.append({"kind": "vacpol_closed", "q2": q2})
    pmag = _r(rng, 0.05, 0.2, 6)
    ang = _r(rng, 0.1, 1.0, 6)
    ops.append({"kind": "k_integral", "p": [0.0, 0.0, pmag],
                "pp": [pmag * math.sin(ang), 0.0, pmag * math.cos(ang)],
                "r_ir": 10.0 ** -_r(rng, 2.0, 4.0)})
    ops.append({"kind": "feynman2", "a": _r(rng, 0.5, 4.0), "b": _r(rng, 0.5, 4.0)})
    ops.append({"kind": "feynman3", "a": _r(rng, 0.5, 4.0), "b": _r(rng, 0.5, 4.0),
                "c": _r(rng, 0.5, 4.0)})
    for _ in range(14):
        ops.append({"kind": "total_correction", "t": _r(rng, 0.005, 0.2, 5),
                    "theta": _r(rng, 0.52, 2.62, 5), "de_frac": 10.0 ** -_r(rng, 1.0, 4.0)})
    rng.shuffle(ops)
    return ops


# The two radial loop quadratures reject some ordinary draws of their own
# result: QUADPACK's error estimate exceeds the 1e-8 they demand while the
# value matches the closed form to rounding (about one draw in fifteen for
# each).  So they are not in the timed draw: the traced spectrum_numerics run
# checks this fixed sample once and reports the failures; see README.md.
N_LOOP_PROBE = 100


def loop_probe_ops():
    rng = random.Random("loop_probe")
    ops = [{"kind": "loop_I", "lam": 10.0 ** _r(rng, -3.0, 3.0)} for _ in range(N_LOOP_PROBE)]
    for _ in range(N_LOOP_PROBE):
        lam = 10.0 ** _r(rng, -1.0, 1.0)
        ops.append({"kind": "loop_log", "lam": lam, "lam_prime": lam * _r(rng, 1.5, 20.0)})
    return ops


# ---------------------------------------------------------------------------
# amplitude_algebra: the pure numpy/Python oracle pairs.

def _unit_vector(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    return [s * math.cos(phi), s * math.sin(phi), z]


def _four(rng):
    return [rng.uniform(-1.0, 1.0) for _ in range(4)]


def algebra_ops(seed: int):
    """The counts put the median latency inside the Klein-Nishina ops and p90
    inside the Moller brute-force and identity-table ops, whose costs do not
    depend on the seed."""
    rng = random.Random(f"amplitude_algebra:{seed}")
    ops = []
    for _ in range(10):
        ops.append({"kind": "moller", "gamma": rng.uniform(1.2, 5.0),
                    "theta": math.radians(rng.uniform(10.0, 50.0))})
    for _ in range(57):
        ops.append({"kind": "klein_nishina", "eps": rng.uniform(0.1, 5.0),
                    "theta": math.radians(rng.uniform(20.0, 160.0)),
                    "e": rng.randrange(2), "ep": rng.randrange(2)})
    for _ in range(7):
        ops.append({"kind": "mott", "beta": rng.uniform(0.2, 0.9),
                    "theta": math.radians(rng.uniform(30.0, 150.0))})
    for _ in range(6):
        ops.append({"kind": "completeness", "energy": 1.0 + rng.uniform(0.01, 3.0),
                    "direction": _unit_vector(rng)})
    for _ in range(6):
        ops.append({"kind": "spin_sum", "energy": 1.0 + rng.uniform(0.01, 3.0),
                    "direction": _unit_vector(rng), "sign": rng.choice((1, -1)),
                    "o": [_four(rng) for _ in range(3)],
                    "p": [_four(rng) for _ in range(3)],
                    "s": [rng.gauss(0, 1) for _ in range(8)],
                    "r": [rng.gauss(0, 1) for _ in range(8)]})
    for conv in ("dyson", "feynman"):
        ops.append({"kind": "identity_tables", "convention": conv})
    for n in (3, 4, 5, 6):
        ops.append({"kind": "wick_count", "n": n})
    for product in ("current^2", "current^3", "second-order-potential"):
        ops.append({"kind": "wick_graphs", "product": product})
    rng.shuffle(ops)
    return ops


def inprocess_ops(workload: str, seed: int):
    if workload == "spectrum_numerics":
        return spectrum_ops(seed)
    if workload == "amplitude_algebra":
        return algebra_ops(seed)
    raise ValueError(f"no in-process op list for {workload!r}")
