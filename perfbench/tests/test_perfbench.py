"""The benchmark's own checks, including negative controls.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

import ops
import refs
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_inputs(workload):
    gen = ops.cli_ops if workload == "cli_session" else lambda s: ops.inprocess_ops(workload, s)
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_cli_pass_covers_every_subcommand_format_and_profile():
    for seed in range(20):
        cli = [op for op in ops.cli_ops(seed) if op["spec"]]
        assert {op["spec"]["cmd"] for op in cli} == {
            "xsec", "annihilate", "hydrogen", "o16", "vacpol", "uehling", "lamb",
            "moment", "wick", "verify"}
        assert {op["config"]["format"] for op in cli} == set(ops.FORMATS)
        assert {"1951", "modern"} <= {op["config"]["constants"] for op in cli}


@pytest.mark.parametrize("workload", ["spectrum_numerics", "amplitude_algebra"])
def test_perturbed_reference_is_flagged(workload):
    """Every op passes as generated and fails once its reference is off by
    1e-6 relative."""
    import worker
    from qed51.constants import MODERN
    seen = set()
    for op in ops.inprocess_ops(workload, 3):
        if op["kind"] in seen or (op["kind"] == "wick_count" and op["n"] > 4):
            continue
        seen.add(op["kind"])
        checks = worker.run_op(op, worker.prepare(op), MODERN.alpha)
        assert worker.evaluate(checks) == [], op
        assert worker.evaluate(checks, perturb=1e-6), op


def test_pairing_count_reference():
    assert [refs.current_pairings(n) for n in range(2, 7)] == [8, 72, 1080, 20280, 501600]


def test_tanh_sinh_reference_against_closed_form():
    # int_{w0}^1 z/sqrt(1-z) dz = (2/3)(w0 + 2) sqrt(1 - w0)
    for w0 in (0.0, 0.3, 0.9):
        exact = 2.0 / 3.0 * (w0 + 2.0) * (1.0 - w0) ** 0.5
        assert abs(refs.absorptive_weight_integral(w0) - exact) < 1e-13


def _env():
    return run.child_env(ROOT)


def test_crashing_argv_counts_as_failed():
    res = run.run_child([sys.executable, "-c", "raise RuntimeError('boom')"], _env())
    assert run.check_cli_output({"spec": None}, res, None, None)
    op = {"spec": {"cmd": "moment"}, "config": {"format": "text"}}
    assert run.check_cli_output(op, res, [[1, 0.001]], None)


def test_killed_child_counts_as_failed():
    res = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], _env(),
                        timeout=0.5)
    assert res.returncode == -9
    assert run.check_cli_output({"spec": None}, res, None, None)


def test_nan_with_exit_zero_counts_as_failed():
    res = run.run_child([sys.executable, "-c", "print('rate nan')"], _env())
    assert "non-finite number printed with exit 0" in run.check_cli_output(
        {"spec": None}, res, None, None)


def test_cli_values_must_equal_library_values():
    os.chdir(ROOT)
    op = {"argv": ["moment", "--order", "1", "--format", "csv"],
          "spec": {"cmd": "moment", "order": 1},
          "config": {"format": "csv", "constants": None, "units": None, "alpha": None}}
    ref = run.cli_reference([op], _env())["rows"][0]
    res, _ = run.run_cli_op(op, False, _env())
    assert run.check_cli_output(op, res, ref, None) == []
    off = [[ref[0][0], ref[0][1] * (1.0 + 1e-6)]]
    assert run.check_cli_output(op, res, off, None)


def test_run_refuses_a_directory_without_the_program(tmp_path, capsys):
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "cli_session", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(ROOT)
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_metric_printed():
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    empty = {"stats": None, "traced_walls": [], "walls": [], "failures": [], "attempted": 1}
    imports = dict.fromkeys(["import.total_s", "import.scipy_s", "import.numpy_s",
                             "import.qed51_self_s"], 0.0)
    layer = run.per_layer(empty, imports)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.layer_units(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
