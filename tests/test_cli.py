import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qed51 import cli, radiative, wick
from qed51.constants import MODERN, RunConfig
from qed51.errors import DomainError

ROOT = Path(__file__).resolve().parents[1]
CLI = [sys.executable, "-m", "qed51.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_compton_column_proportional_to_thomson_shape():
    code, out = run(["xsec", "compton", "--eps", "0", "--theta-grid", "0:180:7",
                     "--unpolarized", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "theta_deg"
    for deg_s, val_s in rows[1:]:
        theta = math.radians(float(deg_s))
        assert abs(float(val_s) - 0.5 * (1 + math.cos(theta) ** 2)) < 1e-12


def test_csv_has_header_and_full_precision():
    code, out = run(["uehling", "--state", "2s", "--format", "csv",
                     "--constants", "1951"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "state"
    val = float(rows[1][1])
    assert abs(val + 27.15) < 0.1
    # repr round-trips the double exactly
    assert repr(val) in out


# The README grids, then edge cases: a signed zero, a step that underflows
# to zero, and an end - start that overflows.
@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=200))
@example(0.0, 180.0, 7)
@example(10.0, 50.0, 5)
@example(30.0, 150.0, 7)
@example(-8.0, 4.0, 25)
@example(-0.0, 0.0, 1)
@example(0.0, 5e-324, 4)
@example(-1e308, 1e308, 1)
@example(-1e308, 1e308, 9)
def test_theta_grid_is_numpy_linspace_bit_for_bit(start, end, count):
    # vacpol --grid and every xsec --theta-grid go through _finite_grid,
    # which rejects a grid with a point numpy makes infinite or nan
    spec = f"{start}:{end}:{count}"
    with np.errstate(all="ignore"):
        expected = np.linspace(start, end, count)
    if not np.isfinite(expected).all():
        with pytest.raises(DomainError):
            cli._finite_grid(spec)
        return
    grid = cli._finite_grid(spec)
    assert all(type(x) is float for x in grid)
    assert struct.pack(f"<{count}d", *grid) == expected.tobytes()


@pytest.mark.parametrize("argv", [
    ["vacpol", f"--grid=-8:4:{cli.MAX_GRID_POINTS + 1}"],
    ["xsec", "compton", "--eps", "1", "--theta-grid", f"0:180:{cli.MAX_GRID_POINTS + 1}"],
], ids=" ".join)
def test_grid_size_limit_exits_two_before_building(argv, monkeypatch, capsys):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "_linspace", no_grid)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ") and f"<= {cli.MAX_GRID_POINTS}" in err


def test_grid_size_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "_linspace", lambda start, end, count: [count])
    assert cli._finite_grid(f"0:1:{cli.MAX_GRID_POINTS}") == [cli.MAX_GRID_POINTS]


def test_usage_error_exits_one(capsys):
    for argv in (["xsec", "moller", "--bogus-flag", "1"], ["lamb", "--units", "megacycles"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1


def test_domain_error_exits_two():
    code, _ = run(["xsec", "moller", "--gamma", "0.5", "--theta-grid", "10:40:4"])
    assert code == 2
    code, _ = run(["uehling", "--state", "7q"])
    assert code == 2


def test_state_label_takes_decimal_digits_only(capsys):
    # '²'.isdigit() is true, but int('²') raises; int('٢') is 2
    assert run(["uehling", "--state", "²s"]) == (2, "")
    assert capsys.readouterr().err == "domain error: unknown hydrogen state label '²s'\n"
    assert run(["uehling", "--state", "٢s"]) == (
        0, run(["uehling", "--state", "2s"])[1].replace("2s ", "٢s "))


def test_mott_domain_error_names_the_range_and_the_angle(capsys):
    code, out = run(["xsec", "mott", "--energy", "1.5", "--theta-grid", "170:200:3"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == ("domain error: theta must lie in (0, pi] (theta = 0 is the Coulomb "
                   "forward singularity), got 3.2288591161895095 rad (185 deg)\n")


def test_env_var_selects_profile():
    old = os.environ.get("QED51_CONSTANTS")
    try:
        os.environ["QED51_CONSTANTS"] = "1951"
        code, out = run(["moment", "--format", "json"])
        doc = json.loads(out)
        assert doc["config"]["constants"] == "1951"
        assert abs(doc["config"]["alpha"] - 1.0 / 137.0) < 1e-15
    finally:
        if old is None:
            os.environ.pop("QED51_CONSTANTS", None)
        else:
            os.environ["QED51_CONSTANTS"] = old


def test_library_ignores_env_var(monkeypatch):
    # only cli.main reads QED51_CONSTANTS; an unknown name is its domain error
    monkeypatch.setenv("QED51_CONSTANTS", "1951")
    assert RunConfig().constants is MODERN
    monkeypatch.setenv("QED51_CONSTANTS", "1900")
    assert run(["moment"]) == (2, "")


def test_wick_graph_dot_file(tmp_path):
    dot_file = tmp_path / "graphs.dot"
    code, out = run(["wick", "graphs", "--product", "two-vertex-current",
                     "--dot", str(dot_file)])
    assert code == 0
    text = dot_file.read_text()
    assert text.count("digraph") == 8
    assert "style=dotted" in text


def test_closed_stdout_pipe_exits_two():
    # the reader stops after one line of about a megabyte of graph rows
    with subprocess.Popen(CLI + ["wick", "graphs", "--product", "current^5"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=CLI_ENV) as proc:
        assert proc.stdout.readline() == b"Graphs for current^5\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == b"error: cannot write the output: Broken pipe\n"


def test_closed_stdout_fd_exits_two():
    # with fd 1 closed at start-up, Python sets sys.stdout to None
    res = subprocess.run(CLI + ["lamb", "--budget"], stderr=subprocess.PIPE,
                         text=True, env=CLI_ENV, timeout=120,
                         preexec_fn=lambda: os.close(1))
    assert res.returncode == 2
    assert res.stderr == "error: cannot write the output: Bad file descriptor\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_device_exits_two():
    with open("/dev/full", "w") as full:
        res = subprocess.run(CLI + ["lamb", "--budget"], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=CLI_ENV,
                             timeout=120)
    assert res.returncode == 2
    assert res.stderr == "error: cannot write the output: No space left on device\n"


@pytest.mark.parametrize("argv", [["--help"], ["xsec", "--help"]])
def test_help_to_a_closed_stdout_fd_exits_two(argv):
    res = subprocess.run(CLI + argv, stderr=subprocess.PIPE, text=True, env=CLI_ENV,
                         timeout=120, preexec_fn=lambda: os.close(1))
    assert res.returncode == 2
    assert res.stderr == "error: cannot write the output: Bad file descriptor\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["xsec", "--help"]])
def test_help_to_a_full_stdout_device_exits_two(argv):
    with open("/dev/full", "w") as full:
        res = subprocess.run(CLI + argv, stdout=full, stderr=subprocess.PIPE,
                             text=True, env=CLI_ENV, timeout=120)
    assert res.returncode == 2
    assert res.stderr == "error: cannot write the output: No space left on device\n"


def test_wick_count_second_order():
    code, out = run(["wick", "count", "--product", "second-order-potential",
                     "--format", "csv"])
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(out))}
    assert rows["order-2 external-potential graphs"] == "9"


def test_wick_count_current7():
    # 14,810,880 pairings, counted in about 0.08 s only because none is built
    # (test_counting_current6_builds_no_pairing checks that)
    code, out = run(["wick", "count", "--product", "current^7", "--format", "csv"])
    assert code == 0
    assert out == "quantity,count\npairings (normal constituents),14810880\n"


@pytest.mark.parametrize("product, limit", [("current^8", "<= 7"), ("photons:13", "<= 12")])
def test_wick_product_size_limit_exits_two(product, limit, capsys):
    code = cli.main(["wick", "count", "--product", product])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ") and limit in err


def test_wick_graphs_pairing_limit_exits_two_before_drawing(monkeypatch, capsys):
    def no_graphs(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(wick, "to_graph", no_graphs)
    code = cli.main(["wick", "graphs", "--product", "current^7"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "14810880 pairings" in err and "at most 501600" in err


def test_hydrogen_landau_command():
    code, out = run(["hydrogen", "landau", "--B", "0.2", "--pz", "0", "--M", "0",
                     "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert float(rows[1][3]) == 1.0


def test_si_units_cross_section_scale():
    _, nat = run(["xsec", "mott", "--energy", "1.5", "--Z", "1",
                  "--theta-grid", "90:90:1", "--format", "csv"])
    _, si = run(["xsec", "mott", "--energy", "1.5", "--Z", "1",
                 "--theta-grid", "90:90:1", "--format", "csv", "--units", "SI"])
    v_nat = float(list(csv.reader(io.StringIO(nat)))[1][1])
    v_si = float(list(csv.reader(io.StringIO(si)))[1][1])
    r0_cm = 2.8179e-13
    assert abs(v_si / (v_nat * r0_cm**2) - 1.0) < 1e-3


def test_annihilate_positronium_value():
    code, out = run(["annihilate", "positronium", "--constants", "1951",
                     "--format", "csv"])
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(out))}
    assert abs(float(rows["lifetime"]) / 1.2e-10 - 1.0) < 0.05


def test_annihilate_zero_velocity_exits_two(capsys):
    for v in ("0", "-1"):
        code = cli.main(["annihilate", "rate", "--v", v])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "domain error: relative velocity must be positive\n"


def test_numeric_error_exits_three(monkeypatch):
    from qed51.errors import NumericError

    def boom(*a, **k):
        raise NumericError("forced failure")

    monkeypatch.setattr(radiative, "vacuum_polarization", boom)
    code, _ = run(["vacpol", "--q2", "0.5"])
    assert code == 3


def test_o16_unit_suffix_parsing():
    code, out = run(["o16", "--deltaE", "6MeV", "--r0", "4e-13cm", "--Z", "8",
                     "--format", "csv"])
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(out))}
    assert abs(float(rows["lifetime (rounded chain)"]) / 1.136e-13 - 1.0) < 0.01


@pytest.mark.parametrize("extra", [["--Z", "0"], ["--r0", "0cm"]])
def test_o16_spectrum_depends_on_delta_e_alone(extra):
    # Z = 0 or r0 = 0 makes the lifetime infinite, but the spectrum shape
    # does not depend on either
    code, out = run(["o16", "--spectrum", "--format", "csv"] + extra)
    assert code == 0
    assert out == run(["o16", "--spectrum", "--format", "csv"])[1]
    assert out.startswith("E1,w\n") and len(out.splitlines()) == 12


def test_lamb_eav_ry_suffix():
    _, a = run(["lamb", "--eav", "16.6Ry", "--constants", "1951", "--format", "csv"])
    _, b = run(["lamb", "--eav", "16.6", "--constants", "1951", "--format", "csv"])
    assert a == b


def test_global_flags_work_in_both_positions():
    _, pre = run(["--alpha", "0.008", "moment", "--format", "json"])
    _, post = run(["moment", "--alpha", "0.008", "--format", "json"])
    assert json.loads(pre)["config"]["alpha"] == 0.008
    assert json.loads(post)["config"]["alpha"] == 0.008
    assert pre == post


@pytest.mark.parametrize("argv", [["lamb", "--budget"], ["uehling"],
                                  ["annihilate", "positronium"],
                                  ["xsec", "mott", "--energy", "1.7", "--Z", "79",
                                   "--theta-grid", "1:179:30", "--format", "csv"]],
                         ids=" ".join)
def test_alpha_leaves_the_profile_commands_unchanged(argv):
    # these take alpha from the --constants profile, or (xsec, in r0^2 units)
    # do not depend on it, as the README says
    assert run(argv + ["--alpha", "0.05"]) == run(argv)


# Huge finite inputs whose arithmetic overflows: numeric failure, exit 3.
OVERFLOW_ARGV = (
    ["xsec", "moller", "--gamma", "1e300", "--theta-grid", "10:50:3"],
    ["xsec", "compton", "--eps", "1e300", "--theta-grid", "0:180:5"],
    ["xsec", "mott", "--energy", "1e300", "--theta-grid", "30:150:3"],
    ["hydrogen", "landau", "--B", "1e308", "--pz", "1e308", "--M", "6"],
    ["o16", "--deltaE", "1e300MeV"],
    # positive angles whose sin^2 theta* (Moller) or q^2 (Mott) rounds to 0
    ["xsec", "moller", "--gamma", "2", "--theta-grid", "1e-160:1e-160:1"],
    ["xsec", "mott", "--energy", "1.5", "--theta-grid", "1e-170:1e-170:1"],
)


@pytest.mark.parametrize("argv", OVERFLOW_ARGV, ids=" ".join)
def test_overflow_exits_three(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_emit_refuses_non_finite_cells_before_writing(fmt, bad):
    from qed51.constants import RunConfig
    from qed51.errors import NumericError

    stream = io.StringIO()
    table = cli.Table("t", ["x", "y"], [[1.0, 2.0], [3.0, bad]])
    with pytest.raises(NumericError, match="non-finite"):
        cli.emit(table, RunConfig(output_format=fmt), stream)
    table = cli.Table("t", ["x"], [[1.0]], meta={"scale": bad})
    with pytest.raises(NumericError, match="non-finite"):
        cli.emit(table, RunConfig(output_format=fmt), stream)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("argv", [["lamb", "--eav", "nan"], ["o16", "--deltaE", "abcMeV"],
                                  ["o16", "--r0", "infcm"]], ids=" ".join)
def test_unit_suffixed_numbers_are_usage_errors(argv, capsys):
    # --eav, --deltaE and --r0 parse like every other option value: exit 1,
    # and the message quotes the whole argument
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert f"not a finite number: {argv[-1]!r}" in capsys.readouterr().err
