import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qed51

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def test_import_leaves_numpy_unloaded(tmp_path):
    # submodules load on first access, so the bare package needs no numpy
    script = """
import sys
import qed51
print("numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("qed51.")))
qed51.dirac
print("numpy" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", script],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False ['qed51.errors']", "True"]


def test_processes_and_kinematics_import_without_numpy(tmp_path):
    # the closed forms are math only; the amplitude oracles load numpy when
    # first called, and the brute-force Moller sum still matches its closed form
    script = """
import sys
import qed51.kinematics, qed51.processes as pr
print("numpy" in sys.modules, pr.moller_dcs(2.0, 0.5, 1 / 137.036) > 0.0)
brute = pr.moller_dcs_brute(2.0, 0.5, 1 / 137.036)
print("numpy" in sys.modules, abs(brute / pr.moller_dcs(2.0, 0.5, 1 / 137.036) - 1.0) < 1e-8)
"""
    res = subprocess.run([sys.executable, "-c", script],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False True", "True True"]


# Every subcommand but verify computes with math and Python ints: the cli
# imports per handler, and processes loads dirac and spinors only inside the
# amplitude oracles.
SCALAR_ARGV = [
    "vacpol --grid=-8:4:25 --format csv",
    "moment --order 2",
    "wick count --product current^5",
    "wick graphs --product second-order-potential --dot graphs.dot",
    "xsec compton --eps 1 --theta-grid 0:180:5 --format json",
    "xsec moller --gamma 2 --theta-grid 10:50:5 --units SI",
    "xsec mott --energy 1.5 --Z 79 --theta-grid 30:150:7",
    "annihilate positronium",
    "annihilate rate --rho 2 --v 0.01",
    "o16 --spectrum",
    "hydrogen levels --max-N 3 --expand --units MeV",
    "hydrogen landau --B 0.1 --pz 0 --M 2",
    "uehling --state 2s",
    "lamb --budget",
]


def test_scalar_subcommands_load_no_numpy_or_scipy(tmp_path):
    script = """
import contextlib, io, sys
from qed51.cli import main
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv.split())
    print(code, bool(out.getvalue()), argv)
print(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}))
"""
    res = subprocess.run([sys.executable, "-c", script, *SCALAR_ARGV],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [f"0 True {argv}" for argv in SCALAR_ARGV] + ["[]"]


def parse(path):
    return ast.parse(path.read_text(), str(path))


def imported_packages(path):
    """Top-level package of every absolute import in a source file, at module
    level or inside a function."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_numerics_is_the_only_module_importing_scipy():
    # numerics is the one scipy interface
    importers = {path.name for path in (SRC / "qed51").glob("*.py")
                 if "scipy" in imported_packages(path)}
    assert importers == {"numerics.py"}


def test_no_module_imports_dataclasses_or_typing():
    # either would cost every CLI start: dataclasses loads inspect, ast and
    # dis, and each @dataclass execs its methods; annotations are strings
    for path in (SRC / "qed51").glob("*.py"):
        assert not imported_packages(path) & {"dataclasses", "typing"}, path.name


def names_used(node):
    """Every name a node's code refers to: names, attributes, imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_name_earns_its_place():
    # a public top-level def or class is named by src/qed51 outside its own
    # definition (the cli, an oracle pair or another function), or the
    # README's "Library index" lists it; every entry there must exist
    public, naming = {}, {}
    for path in (SRC / "qed51").glob("*.py"):
        for top in parse(path).body:
            for name in names_used(top):
                naming.setdefault(name, set()).add(id(top))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                public[f"{path.stem}.{top.name}"] = top
    section = README.read_text().split("\n## Library index\n")[1].split("\n## ")[0]
    index = set(re.findall(r"^- `(\w+\.\w+)`", section, re.MULTILINE))
    unreached = {name for name, top in public.items()
                 if naming.get(top.name, set()) <= {id(top)}}
    assert sorted(unreached - index) == []
    assert sorted(index - public.keys()) == []


def test_radiative_leaves_hydrogen_unloaded(tmp_path):
    # the spectroscopic letters live in qed51.constants, so lamb, uehling,
    # moment and vacpol need no hydrogen module
    script = """
import sys
import qed51.radiative
print("qed51.hydrogen" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", script],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_every_public_name_resolves():
    for name in qed51.__all__:
        value = getattr(qed51, name)
        if name in qed51._SUBMODULES:
            assert value is sys.modules[f"qed51.{name}"]
        else:
            assert issubclass(value, qed51.QedError)
    assert set(qed51.__all__) <= set(dir(qed51))


def test_star_import_and_from_import():
    namespace = {}
    exec("from qed51 import *", namespace)
    assert set(qed51.__all__) <= set(namespace)
    from qed51 import radiative
    assert radiative is qed51.radiative
    assert namespace["dirac"].DYSON == "dyson"


def test_readme_library_example_runs():
    # every ```python block of the README, so a name it uses cannot go unnoticed
    blocks = README.read_text().split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(block.split("```")[0], {})


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="nosuch"):
        qed51.nosuch
