"""Paired benchmark runs of two revisions, summarised into BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --label pr11 \\
        --pairs spectrum_numerics=10 --pairs cli_session=5 \\
        --pairs amplitude_algebra=5

Run from inside a qed51 git repository; PARENT and CHANGE are any commit-ish.
Each revision is checked out into its own detached `git worktree` under a
temporary directory, and `perfbench/run.py --trace 0` runs from the root of
each, so both sides are measured from their committed files only.  Every run
lasts BENCHMARK.json's run_seconds.  Pair i of a workload runs both sides
with seed FIRST_SEED + i, one after the other; the side that goes first
alternates from pair to pair, so drift on the machine falls on both sides
alike.  The output file is rewritten after every pair, so an interrupted
sweep keeps what it measured, and the worktrees are removed at the end.

The file holds the environment, both revisions (with the tree hashes of src/
and perfbench/, which identify the measured code and the benchmark whatever
commit carries them), every run's correctness and metrics, and per workload
and end-to-end metric: each side's median and quartiles, the number of pairs
the change won, the change of the median, and the two rules a gain or a
regression is judged by (see summarize_metric).
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
FIRST_SEED = 1


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def revision(repo: str, rev: str) -> dict:
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"rev": rev, "commit": commit,
            "src_tree": git(repo, "rev-parse", f"{commit}:src"),
            "perfbench_tree": git(repo, "rev-parse", f"{commit}:perfbench")}


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    # the runs inherit this environment; PYTHONDONTWRITEBYTECODE set means
    # every process start of cli_session compiles the sources it imports
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "platform": platform.platform(), "machine": platform.machine(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def order(pair: int) -> tuple[str, str]:
    """Which side runs first in pair ``pair`` (0-based): parent on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(xs) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize_metric(parent, change, better: str, bound: float) -> dict:
    """Summary of one metric over paired runs (parent[i] and change[i] share
    a seed).

    A claimed gain holds when the change wins at least 9 of 10 pairs and its
    median beats the parent's by more than the parent's interquartile range.
    A regression is refused when the change's median is worse than the
    parent's by more than ``bound`` (relative), and a metric whose parent IQR
    is not below ``bound`` times its median spreads too widely to judge."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    rel = cmed / pmed - 1.0 if pmed else 0.0
    iqr = p3 - p1
    return {
        "better": better, "bound": bound, "pairs": len(parent),
        "parent": {"median": pmed, "q1": p1, "q3": p3},
        "change": {"median": cmed, "q1": c1, "q3": c3},
        "change_wins": wins,
        "median_change": rel,
        "parent_iqr_over_median": iqr / pmed if pmed else 0.0,
        "parent_spread_within_bound": iqr < bound * abs(pmed),
        "within_regression_bound": sign * rel <= bound,
        "gain_holds": 10 * wins >= 9 * len(parent) and sign * (pmed - cmed) > iqr,
    }


def summarize(runs, metrics) -> dict:
    """Per workload, per end-to-end metric summaries of the paired runs.
    ``metrics`` is BENCHMARK.json's "end_to_end" list."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for _, p in sorted(by_pair.items()) if len(p) == len(SIDES)]
        out[workload] = {
            m["name"]: summarize_metric([p["parent"]["metrics"][m["name"]] for p in complete],
                                        [p["change"]["metrics"][m["name"]] for p in complete],
                                        m["better"], m["bound"])
            for m in metrics} if complete else {}
        out[workload]["all_correct"] = all(r["correct"] and r["failed"] == 0
                                           for p in complete for r in p.values())
    return out


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def write(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def parse_pairs(items) -> dict:
    pairs = {}
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise argparse.ArgumentTypeError(f"--pairs wants WORKLOAD=COUNT, got {item!r}")
        pairs[name] = int(count)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True, help="output file is BENCH_<label>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    try:
        pairs = parse_pairs(args.pairs)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))

    repo = git(".", "rev-parse", "--show-toplevel")
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    unknown = set(pairs) - {w["name"] for w in bench["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    seconds = bench["run_seconds"]
    revisions = {"parent": revision(repo, args.parent), "change": revision(repo, args.change)}
    out_path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    doc = {
        "label": args.label,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "environment": environment(),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds} --trace 0",
        "seconds": seconds,
        "pairs_requested": pairs,
        "revisions": revisions,
        "runs": [],
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        try:
            for side in SIDES:
                git(repo, "worktree", "add", "--detach", trees[side], revisions[side]["commit"])
            for workload, count in pairs.items():
                for pair in range(count):
                    seed = FIRST_SEED + pair
                    for position, side in enumerate(order(pair)):
                        run = run_once(trees[side], workload, seed, seconds)
                        doc["runs"].append({"workload": workload, "pair": pair, "seed": seed,
                                            "side": side, "position": position, **run})
                        print(f"{workload} pair {pair + 1}/{count} seed {seed} {side}: "
                              f"wall_s {run['metrics']['wall_s']:.4g}, "
                              f"failed {run['failed']}", flush=True)
                    doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
                    write(out_path, doc)
        finally:
            for side in SIDES:
                if os.path.isdir(trees[side]):
                    git(repo, "worktree", "remove", "--force", trees[side])
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
