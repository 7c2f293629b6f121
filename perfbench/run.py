"""qed51 benchmark.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every workload runs in fresh child
processes with the package imported from ./src; see perfbench/README.md for
the workloads, the metrics and how to read them.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops as opslib  # noqa: E402

_now = time.perf_counter

SETUP_SAMPLES = 5            # set-ups per run; setup_s is their median
IMPORTTIME_SAMPLES = 3
CLI_OP_TIMEOUT_S = 60.0
TRACEBACK = b"Traceback (most recent call last)"
NONFINITE = re.compile(rb"(?<![A-Za-z_])-?(nan|NaN|inf|Inf|Infinity)(?![A-Za-z_])")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_latency_p50_s", "s"),
              ("op_latency_p90_s", "s"), ("peak_rss_mb", "MB"))


class ChildResult:
    def __init__(self, returncode, stdout, stderr, extra, seconds, ready_s, maxrss_kb):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.extra = extra
        self.seconds = seconds          # spawn to exit
        self.ready_s = ready_s          # spawn to the first line on stdout
        self.maxrss_mb = maxrss_kb / 1024.0


class SetupFailed(Exception):
    pass


def child_env(checkout: str) -> dict:
    env = dict(os.environ)
    env.pop("QED51_CONSTANTS", None)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(argv, env, *, stdin_data: bytes | None = None, extra_pipe=False,
              ready_line=False, timeout=CLI_OP_TIMEOUT_S):
    """Spawn argv, drain stdout/stderr (and, with extra_pipe, a pipe whose
    write end is passed as the first argument after the script; see
    cli_traced.py), and reap the child with wait4 so its peak RSS is known.
    With ready_line, "go" is written to the child's stdin once it has printed
    its first line.  A child that overruns ``timeout`` is killed and reported
    with code -9."""
    r_fd = w_fd = None
    pass_fds = ()
    if extra_pipe:
        r_fd, w_fd = os.pipe()
        pass_fds = (w_fd,)
        argv = argv[:2] + [str(w_fd)] + argv[2:]
    t0 = _now()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, pass_fds=pass_fds)
    if w_fd is not None:
        os.close(w_fd)
    bufs = {"out": bytearray(), "err": bytearray(), "extra": bytearray()}
    t_ready = None
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ, "out")
    sel.register(proc.stderr, selectors.EVENT_READ, "err")
    if r_fd is not None:
        sel.register(r_fd, selectors.EVENT_READ, "extra")
    if not ready_line:
        proc.stdin.write(stdin_data or b"")
        proc.stdin.close()
    killed = False
    while sel.get_map():
        remaining = timeout - (_now() - t0)
        if remaining <= 0 and not killed:
            proc.kill()
            killed = True
        for key, _ in sel.select(timeout=max(0.05, remaining) if not killed else 1.0):
            fd = key.fileobj if isinstance(key.fileobj, int) else key.fileobj.fileno()
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                sel.unregister(key.fileobj)
                continue
            bufs[key.data] += chunk
            if ready_line and t_ready is None and key.data == "out" and b"\n" in bufs["out"]:
                t_ready = _now() - t0
                try:
                    proc.stdin.write(b"go\n")
                    proc.stdin.close()
                except BrokenPipeError:     # a set-up child exits right away
                    pass
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = _now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdout, proc.stderr):
        stream.close()
    if r_fd is not None:
        os.close(r_fd)
    return ChildResult(proc.returncode, bytes(bufs["out"]), bytes(bufs["err"]),
                       bytes(bufs["extra"]), seconds, t_ready, usage.ru_maxrss)


def py(script: str, *args) -> list:
    return [sys.executable, os.path.join(HERE, script), *map(str, args)]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# Set-up and import time.

def measure_setup(workload: str, seed: int, env, count: int) -> tuple[list, list]:
    """One unmeasured warm-up child, then ``count`` timed set-ups, each from
    spawn to the child's "ready" line.  Returns (times, peak RSS)."""
    argv = py("worker.py", "setup", workload, seed)
    warm = run_child(argv, env, timeout=120.0)
    if warm.returncode != 0:
        raise SetupFailed(warm.stderr.decode(errors="replace"))
    times, rss = [], []
    for _ in range(count):
        res = run_child(argv, env, ready_line=True, timeout=120.0)
        if res.returncode != 0 or res.ready_s is None:
            raise SetupFailed(res.stderr.decode(errors="replace"))
        times.append(res.ready_s)
        rss.append(res.maxrss_mb)
    return times, rss


def import_times(workload: str, env) -> dict:
    """import.* from -X importtime in fresh children (median of several)."""
    target = "qed51.cli" if workload == "cli_session" else "qed51"
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        res = run_child([sys.executable, "-X", "importtime", "-c", f"import {target}"],
                        env, timeout=120.0)
        samples.append(parse_importtime(res.stderr.decode(errors="replace"), target))
    return {key: median([s[key] for s in samples]) for key in samples[0]}


def parse_importtime(text: str, target: str) -> dict:
    """Totals from the -X importtime tree: the target's cumulative time, the
    outermost numpy and scipy imports (numpy nested inside scipy counts as
    numpy), and the self time of the qed51 modules."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4)))
    # children are printed before their parent, one level deeper
    total = numpy_s = scipy_s = qed51_self = 0
    numpy_in_scipy = 0
    stack = []   # (depth, name) of open ancestors, rebuilt from the post-order
    parents = {}
    for i in range(len(rows) - 1, -1, -1):
        depth = rows[i][2]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parents[i] = [name for _, name in stack]
        stack.append((depth, rows[i][3]))
    for i, (self_us, cum_us, _, name) in enumerate(rows):
        top = lambda pkg: name.split(".")[0] == pkg and not any(  # noqa: E731
            p.split(".")[0] == pkg for p in parents[i])
        if name == target:
            total = cum_us
        if top("numpy"):
            numpy_s += cum_us
            if any(p.split(".")[0] == "scipy" for p in parents[i]):
                numpy_in_scipy += cum_us
        if top("scipy"):
            scipy_s += cum_us
        if name.split(".")[0] == "qed51":
            qed51_self += self_us
    return {"import.total_s": total / 1e6, "import.scipy_s": (scipy_s - numpy_in_scipy) / 1e6,
            "import.numpy_s": numpy_s / 1e6, "import.qed51_self_s": qed51_self / 1e6}


# ---------------------------------------------------------------------------
# In-process workloads.

def run_inprocess(workload, seed, seconds, trace, env):
    # the run's own worker is the last set-up sample
    setup_times, setup_rss = measure_setup(workload, seed, env, SETUP_SAMPLES - 1)
    res = run_child(py("worker.py", "run", workload, seed, seconds, int(trace)), env,
                    ready_line=True, timeout=min(170.0, 4 * seconds + 60.0))
    if res.returncode != 0 or not res.stdout.strip():
        raise SetupFailed(res.stderr.decode(errors="replace")[-4000:])
    out = json.loads(res.stdout.decode().strip().splitlines()[-1])
    setup_times.append(res.ready_s)
    report = {
        "setup_times": setup_times,
        "walls": out["pass_walls"],
        "traced_walls": out["traced_walls"],
        "latencies": out["latencies"],
        "peak_rss_mb": max([res.maxrss_mb] + setup_rss),
        "attempted": out["attempted"],
        "failures": out["failures"],
        "stats": out.get("stats"),
        "spans_file": out.get("spans_file"),
        "env": out["env"],
        "ops_per_pass": out["ops_per_pass"],
        "loop_probe": out.get("loop_probe"),
    }
    return report


# ---------------------------------------------------------------------------
# cli_session.

def cli_command(traced: bool) -> list:
    if traced:
        return py("cli_traced.py")
    return [sys.executable, "-m", "qed51.cli"]


def check_cli_output(op, res: ChildResult, expected_rows, schema_validator) -> list:
    """Reasons this CLI op failed (empty list: it passed)."""
    reasons = []
    if res.returncode not in (0, 1, 2, 3):
        reasons.append(f"exit code {res.returncode}")
    if TRACEBACK in res.stderr:
        reasons.append("traceback on stderr")
    if res.returncode == 0 and NONFINITE.search(res.stdout):
        reasons.append("non-finite number printed with exit 0")
    if op["spec"] is None:          # malformed: must be rejected
        if res.returncode == 0:
            reasons.append("malformed argv accepted (exit 0)")
        return reasons
    if res.returncode != 0:
        reasons.append(f"exit code {res.returncode} for a well-formed argv")
        return reasons
    try:
        rows = parse_rows(res.stdout.decode(), op["config"]["format"], schema_validator)
    except ValueError as exc:
        return reasons + [str(exc)]
    if op["spec"]["cmd"] == "verify" and op["spec"]["which"] == "all":
        status = [row.split()[-1] if isinstance(row, str) else row[-1] for row in rows]
        if not status or any(s != "pass" for s in status):
            reasons.append("verify all reports a failing check")
        return reasons
    if not rows_match(rows, expected_rows, op["config"]["format"]):
        reasons.append("printed values differ from the in-process library values")
    return reasons


def parse_rows(text: str, fmt: str, schema_validator):
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}")
        errors = list(schema_validator.iter_errors(doc))
        if errors:
            raise ValueError(f"JSON fails docs/output-schema.json: {errors[0].message}")
        return doc["rows"]
    if fmt == "csv":
        import csv
        import io
        return list(csv.reader(io.StringIO(text)))[1:]
    lines = text.splitlines()
    return [line for line in lines[2:] if not line.startswith("# ")]


def _fmt(value, fmt):
    if fmt == "csv":
        return repr(value) if isinstance(value, float) else str(value)
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def rows_match(rows, expected, fmt) -> bool:
    if len(rows) != len(expected):
        return False
    if fmt == "json":
        return all(len(r) == len(e) and all(a == b for a, b in zip(r, e))
                   for r, e in zip(rows, expected))
    if fmt == "csv":
        return all(r == [_fmt(c, fmt) for c in e] for r, e in zip(rows, expected))
    for line, row in zip(rows, expected):    # text: every cell, in order
        pos = 0
        for cell in row:
            idx = line.find(_fmt(cell, fmt), pos)
            if idx < 0:
                return False
            pos = idx + len(_fmt(cell, fmt))
    return True


def cli_reference(cli_ops, env):
    res = run_child(py("worker.py", "cli-reference"), env,
                    stdin_data=json.dumps(cli_ops).encode(), timeout=120.0)
    if res.returncode != 0:
        raise SetupFailed(res.stderr.decode(errors="replace")[-4000:])
    return json.loads(res.stdout.decode().strip().splitlines()[-1])


def run_cli_op(op, traced, env):
    res = run_child(cli_command(traced) + op["argv"], env, extra_pipe=traced,
                    timeout=CLI_OP_TIMEOUT_S)
    stats = None
    if traced and res.extra:
        stats = json.loads(res.extra.decode())
    return res, stats


def run_cli_session(seed, seconds, trace, env, checkout):
    import jsonschema
    import tracer as tracelib

    with open(os.path.join(checkout, "docs", "output-schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    cli_ops = opslib.cli_ops(seed)
    setup_times, setup_rss = measure_setup("cli_session", seed, env, SETUP_SAMPLES)
    ref = cli_reference(cli_ops, env)
    first_stdout = {}
    latencies, walls, traced_walls = [], [], []
    failures, attempted, peak = [], 0, 0.0
    stats, output_bytes = {}, 0
    t_begin = _now()
    n_pass = 0
    while True:
        traced_pass = trace and n_pass % 2 == 1
        t_pass = _now()
        for i, op in enumerate(cli_ops):
            res, op_stats = run_cli_op(op, traced_pass, env)
            attempted += 1
            reasons = check_cli_output(op, res, ref["rows"][i], validator)
            key = tuple(op["argv"])
            if key in first_stdout and first_stdout[key] != res.stdout:
                reasons.append("stdout differs from an earlier run of the same argv")
            first_stdout.setdefault(key, res.stdout)
            if reasons:
                failures.append({"argv": op["argv"], "failed": reasons,
                                 "stderr": res.stderr.decode(errors="replace")[-300:]})
            if traced_pass:
                if op_stats:
                    tracelib.merge(stats, op_stats)
                output_bytes += len(res.stdout)
            else:
                latencies.append(res.seconds)
                peak = max(peak, res.maxrss_mb)
        wall = _now() - t_pass
        (traced_walls if traced_pass else walls).append(wall)
        n_pass += 1
        if n_pass >= 2 and (_now() - t_begin) + wall > seconds:
            break
    probe = run_defect_probe(env) if trace else None
    if stats:
        stats.setdefault("counters", {})["cli.output_bytes"] = output_bytes
    return {
        "setup_times": setup_times, "walls": walls, "traced_walls": traced_walls,
        "latencies": latencies, "peak_rss_mb": max([peak] + setup_rss),
        "attempted": attempted, "failures": failures, "stats": stats or None,
        "env": ref["env"], "ops_per_pass": len(cli_ops), "probe": probe,
    }


def run_defect_probe(env):
    """Run the ROADMAP item 4 argv once each (untimed); a malformed argv
    passes only if it is rejected with exit 1, 2 or 3 and no traceback."""
    out = []
    for argv in opslib.KNOWN_DEFECTS:
        res, _ = run_cli_op({"argv": list(argv)}, False, env)
        reasons = check_cli_output({"spec": None}, res, None, None)
        out.append({"argv": list(argv), "exit": res.returncode, "failed": reasons})
    return out


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end(report) -> dict:
    return {
        "setup_s": median(report["setup_times"]),
        "wall_s": median(report["walls"]),
        "op_latency_p50_s": median(report["latencies"]),
        "op_latency_p90_s": p90(report["latencies"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report, imports: dict) -> dict:
    stats = report["stats"] or {"layers": {}, "by_kind": {}, "counters": {}}
    n = max(1, len(report["traced_walls"]))
    layers, counters = stats["layers"], stats["counters"]
    fn = {}
    for rows in stats["by_kind"].values():
        for name, (calls, sec, cb) in rows.items():
            f = fn.setdefault(name, [0, 0.0, 0])
            f[0] += calls
            f[1] += sec
            f[2] += cb

    def kind_fn(kind, name):
        return stats["by_kind"].get(kind, {}).get(name, [0, 0.0, 0])

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict(imports)
    m["cli.parse_s"] = (fn.get("cli.build_parser", [0, 0.0])[1]
                        + fn.get("cli.parse_args", [0, 0.0])[1]) / n
    m["cli.handler_s"] = sum(v[1] for k, v in fn.items() if k.startswith("cli.handler.")) / n
    m["cli.emit_s"] = fn.get("cli.emit", [0, 0.0])[1] / n
    m["cli.output_bytes"] = counters.get("cli.output_bytes", 0) / n
    for layer in ("dirac", "kinematics", "spinors", "processes", "hydrogen",
                  "radiative", "propagators", "wick", "cli"):
        sec, calls = layers.get(layer, [0.0, 0])
        m[f"{layer}.calls"] = calls / n
        m[f"{layer}.self_s"] = sec / n
    brute = fn.get("processes.moller_dcs_brute", [0, 0.0])
    m["processes.brute_s_per_point"] = ratio(brute[1], brute[0])
    shoot = kind_fn("shoot", "hydrogen.radial_shoot")
    ivp = kind_fn("shoot", "scipy.solve_ivp")
    m["hydrogen.shoot_s_per_level"] = ratio(shoot[1], shoot[0])
    m["hydrogen.ode_solves_per_level"] = ratio(ivp[0], shoot[0])
    m["hydrogen.rhs_evals_per_level"] = ratio(ivp[2], shoot[0])
    for side in ("open", "closed"):
        vp = kind_fn(f"vacpol_{side}", "radiative.vacuum_polarization")
        quad = kind_fn(f"vacpol_{side}", "scipy.quad")
        m[f"radiative.vacpol_{side}_s_per_point"] = ratio(vp[1], vp[0])
        m[f"radiative.vacpol_{side}_evals_per_point"] = ratio(quad[2], vp[0])
    m["numerics.quad_calls"] = (counters.get("numerics.quad_calls", 0)) / n
    m["numerics.quad_evals"] = counters.get("numerics.quad_evals", 0) / n
    m["numerics.ode_solves"] = counters.get("numerics.ode_solves", 0) / n
    m["numerics.ode_rhs_evals"] = counters.get("numerics.ode_rhs_evals", 0) / n
    m["numerics.scipy_self_s"] = layers.get("numerics", [0.0, 0])[0] / n
    pairings = counters.get("wick.pairings_enumerated", 0)
    enum_s = fn.get("wick.enumerate_pairings", [0, 0.0])[1]
    graphs = fn.get("wick.to_graph", [0, 0.0])
    m["wick.pairings_enumerated"] = pairings / n
    m["wick.enumerate_s"] = enum_s / n
    m["wick.pairings_per_s"] = ratio(pairings, enum_s)
    m["wick.graph_s"] = sum(fn.get(f"wick.{k}", [0, 0.0])[1]
                            for k in ("to_graph", "classify", "to_dot")) / n
    m["wick.useful_ratio"] = ratio(graphs[0], pairings)
    m["trace.overhead_s"] = median(report["traced_walls"]) - median(report["walls"])
    m["failed_ops_ratio"] = ratio(len(report["failures"]), report["attempted"])
    probe = report.get("probe") or []
    m["cli.contract_probe_failed"] = float(sum(bool(p["failed"]) for p in probe))
    loop = report.get("loop_probe") or []
    m["propagators.loop_probe_failed"] = float(sum(bool(p["failed"]) for p in loop))
    return m


def layer_units(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_per_point") or name.endswith("_s_per_level"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, env, checkout):
    if workload == "cli_session":
        report = run_cli_session(seed, seconds, trace, env, checkout)
    else:
        report = run_inprocess(workload, seed, seconds, trace, env)
    if trace:
        metrics = per_layer(report, import_times(workload, env))
        units = {k: layer_units(k) for k in metrics}
    else:
        metrics = end_to_end(report)
        units = dict(END_TO_END)
    return report, metrics, units


def print_report(workload, seed, report, metrics, units, trace):
    env = report["env"]
    print(f"== {workload}  seed {seed}  ({'traced' if trace else 'untraced'})")
    print(f"   environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}")
    print(f"   closed loop, 1 client; {report['ops_per_pass']} ops per pass, "
          f"{len(report['walls'])} untraced + {len(report['traced_walls'])} traced passes, "
          f"{len(report['latencies'])} timed op latencies, {len(report['setup_times'])} set-ups")
    for name, value in metrics.items():
        print(f"   {name:40s} {value:.6g} {units[name]}")
    ratio = len(report["failures"]) / report["attempted"]
    print(f"   checks: {report['attempted']} ops attempted, {len(report['failures'])} failed "
          f"(failed_ops_ratio {ratio:.6g})")
    for f in report["failures"][:10]:
        print(f"   FAILED {json.dumps(f)[:400]}")
    for item in report.get("probe") or []:
        verdict = "FAIL " + "; ".join(item["failed"]) if item["failed"] else "ok"
        argv = " ".join(item["argv"])
        print(f"   contract probe: qed51 {argv} -> exit {item['exit']}: {verdict}")
    loop = report.get("loop_probe") or []
    if loop:
        bad = [item for item in loop if item["failed"]]
        print(f"   loop-quadrature probe: {len(bad)} of {len(loop)} ops failed")
        for item in bad:
            print(f"   loop-quadrature probe FAILED {json.dumps(item)[:300]}")
    if report.get("spans_file"):
        print(f"   spans written to {report['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=opslib.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    for needed in ("src/qed51/__init__.py", "src/qed51/cli.py", "docs/output-schema.json"):
        if not os.path.isfile(os.path.join(checkout, needed)):
            print(f"run.py: {needed} not found; run from the root of a qed51 checkout",
                  file=sys.stderr)
            return 2
    os.makedirs(os.path.join(checkout, opslib.OUT_DIR), exist_ok=True)
    env = child_env(checkout)
    workloads = opslib.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            report, metrics, units = run_workload(workload, args.seed, args.seconds,
                                                  bool(args.trace), env, checkout)
        except SetupFailed as exc:
            print(f"run.py: {workload} could not run:\n{exc}", file=sys.stderr)
            return 3
        print_report(workload, args.seed, report, metrics, units, bool(args.trace))
        summary["attempted"] += report["attempted"]
        summary["failed"] += len(report["failures"])
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in metrics.items():
            summary["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
