"""The README contract for any argv: exit code 0/1/2/3, no traceback, data
only on stdout, no nan or inf printed with exit 0, and JSON that validates
against docs/output-schema.json.

Tier-1 runs the default hypothesis profile; `--hypothesis-profile=ci` (see
conftest.py) runs more examples.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qed51 import cli

SCHEMA = json.loads((Path(__file__).resolve().parents[1]
                     / "docs" / "output-schema.json").read_text())
NON_FINITE = re.compile(r"(?<![A-Za-z_])(nan|inf|infinity)(?![A-Za-z_])", re.IGNORECASE)
UNWRITABLE_DOT = "/nonexistent/dir/g.dot"
WRITABLE_DOT = "{tmp}/g.dot"   # replaced by a temporary directory

# Zero, negative, subnormal, huge, non-finite and unparsable numbers.
EDGE_NUMBERS = ("0", "-0.0", "-1", "-1e300", "5e-324", "1e-310", "1e300", "1e308",
                "nan", "inf", "-inf", "abc", "")


def number(lo, hi):
    """A float option value: finite in [lo, hi], or one of EDGE_NUMBERS."""
    valid = st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)
    return st.one_of(valid, st.sampled_from(EDGE_NUMBERS))


def integer(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str),
                     st.sampled_from(("-1", "0", "1e3", "10" * 20, "x")))


def grid(lo, hi):
    """start:end:count with at most 50 points, or a malformed spec."""
    valid = st.builds(lambda a, b, n: f"{a!r}:{b!r}:{n}",
                      st.floats(lo, hi), st.floats(lo, hi), st.integers(1, 50))
    return st.one_of(valid, st.sampled_from(
        ("1:2", "a:b:c", "0:1:0", "0:1:-3", "nan:1:3", "0:inf:3", "1e300:-1e300:5", "::")))


PRODUCTS = st.one_of(
    st.sampled_from(("two-vertex-current", "current^2", "current2", "second-order-potential",
                     "external-potential-2", "current^x", "photons:-1", "photons:", "foo")),
    st.integers(0, 3).map("current^{}".format),
    st.integers(0, 8).map("photons:{}".format))


def option(name, values):
    """[--name=value], or no option at all."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def flag(name):
    return st.sampled_from(([], [f"--{name}"]))


def command(*words, **options):
    """Groups of tokens: each word, then each drawn option or flag."""
    return st.tuples(*options.values()).map(
        lambda groups: [[w] for w in words] + [g for g in groups if g])


COMMANDS = st.one_of(
    command("xsec", "moller", gamma=option("gamma", number(1.0, 50.0)),
            grid=option("theta-grid", grid(0.0, 90.0))),
    command("xsec", "compton", eps=option("eps", number(0.0, 100.0)),
            grid=option("theta-grid", grid(0.0, 180.0)),
            phi=option("phi", number(-360.0, 360.0)), unpolarized=flag("unpolarized")),
    command("xsec", "mott", energy=option("energy", number(1.0, 50.0)),
            Z=option("Z", number(0.0, 100.0)), grid=option("theta-grid", grid(0.0, 180.0))),
    command("annihilate", "positronium"),
    command("annihilate", "rate", rho=option("rho", number(0.0, 1e3)),
            v=option("v", number(0.0, 1.0))),
    command("hydrogen", "levels", max_n=option("max-N", integer(1, 6)), expand=flag("expand")),
    command("hydrogen", "landau", B=option("B", number(0.0, 10.0)),
            pz=option("pz", number(-10.0, 10.0)), M=option("M", integer(0, 6))),
    command("o16", deltaE=option("deltaE", st.sampled_from(
                ("6MeV", "6", "0MeV", "-6MeV", "1e300MeV", "nanMeV", "abcMeV"))),
            r0=option("r0", st.sampled_from(("4e-13cm", "4e-13", "0cm", "-1cm", "infcm"))),
            Z=option("Z", number(0.0, 100.0)), spectrum=flag("spectrum")),
    command("vacpol", q2=option("q2", number(-1e3, 1e3)), grid=option("grid", grid(-100.0, 100.0))),
    command("uehling", state=option("state", st.sampled_from(("2s", "1s", "2p", "3d", "x")))),
    command("lamb", eav=option("eav", st.one_of(number(1.0, 100.0), st.just("16.6Ry"))),
            budget=flag("budget")),
    command("moment", order=option("order", st.sampled_from(("1", "2", "3", "x")))),
    command("wick", "count", product=option("product", PRODUCTS)),
    command("wick", "graphs", product=option("product", PRODUCTS),
            dot=option("dot", st.sampled_from((UNWRITABLE_DOT, WRITABLE_DOT)))),
    command("verify", "tables", convention=option("convention",
                                                  st.sampled_from(("dyson", "feynman", "x")))),
    command("verify", "all"),
)

GLOBAL_FLAGS = st.tuples(
    option("format", st.sampled_from(("csv", "json", "text", "xml"))),
    option("constants", st.sampled_from(("1951", "modern", "1900"))),
    option("alpha", number(1e-6, 0.099)),
    option("units", st.sampled_from(("natural", "SI", "MeV", "megacycles", "cgs"))),
)


@st.composite
def argvs(draw):
    """A command with the global flags at random positions: before it, between
    its words or options, or after it."""
    groups = draw(COMMANDS)
    for group in draw(GLOBAL_FLAGS):
        if group:
            groups.insert(draw(st.integers(0, len(groups))), group)
    return [token for group in groups for token in group]


@settings(deadline=None)
@given(argvs())
@example(["annihilate", "rate", "--rho", "1e-322"])
@example(["wick", "graphs", "--product", "current^2", "--dot", UNWRITABLE_DOT])
@example(["o16", "--Z=0.0"])
@example(["xsec", "compton", "--eps=0.0", "--theta-grid=0:inf:3"])
@example(["vacpol", "--grid=-1e308:1e308:9"])
@example(["lamb", "--eav=1e308"])
@example(["--alpha=5e-324", "verify", "all"])
@example(["xsec", "mott", "--energy=2", "--theta-grid=30:150:3", "--alpha=1e-160"])
def test_any_argv_keeps_the_contract(tmp_path_factory, argv):
    tmp = tmp_path_factory.getbasetemp()
    argv = [token.replace("{tmp}", str(tmp)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and err
        return
    assert not NON_FINITE.search(out)
    fmt = [token for token in argv if token.startswith("--format=")]
    if fmt and fmt[-1] == "--format=json":
        jsonschema.validate(json.loads(out), SCHEMA)
