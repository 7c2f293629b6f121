import ast
import re
import sys
from pathlib import Path

import pytest

import golden
import qed51
from qed51 import cli

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def test_import_leaves_numpy_unloaded(python_c):
    # submodules load on first access, so the bare package needs no numpy
    script = """
import sys
import qed51
print("numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("qed51.")))
qed51.dirac
print("numpy" in sys.modules)
"""
    assert python_c(script).splitlines() == ["False ['qed51.errors']", "True"]


def test_processes_and_kinematics_import_without_numpy(python_c):
    # the closed forms are math only; the amplitude oracles load numpy when
    # first called, and the brute-force Moller sum still matches its closed form
    script = """
import sys
import qed51.kinematics, qed51.processes as pr
print("numpy" in sys.modules, pr.moller_dcs(2.0, 0.5, 1 / 137.036) > 0.0)
brute = pr.moller_dcs_brute(2.0, 0.5, 1 / 137.036)
print("numpy" in sys.modules, abs(brute / pr.moller_dcs(2.0, 0.5, 1 / 137.036) - 1.0) < 1e-8)
"""
    assert python_c(script).splitlines() == ["False True", "True True"]


# Every command but verify computes with math and Python ints: the cli
# imports per handler, and processes loads dirac and spinors only inside the
# amplitude oracles.  One child runs every golden argv in order, in process:
# the scalar text and csv argv, --help and the usage errors, then the scalar
# --format json argv, then verify.  After each it prints golden.run's exit line and which of the
# watched modules are loaded so far; the quadrature oracle, which loads
# scipy, ends it.
MODULE_LOADS = """
import sys
def loaded():
    watched = ("numpy", "scipy", "json", "dataclasses", "inspect", "typing")
    return " ".join(name for name in watched if name in sys.modules)
import golden, qed51.cli
print("import", loaded(), sep="\\t")
for arg in sys.argv[1:]:
    print(golden.run(arg.split("\\t")).splitlines()[1], loaded(), sep="\\t")
from qed51 import radiative
radiative.vacuum_polarization_quadrature(-10.0, 1 / 137.036)
print("scipy.integrate" in sys.modules)
"""


def test_golden_argv_load_numpy_json_and_scipy_only_where_needed(python_c, monkeypatch):
    # under -S, where no .pth file of site-packages preloads typing: no
    # scalar argv loads numpy, scipy, dataclasses, inspect or typing, only
    # --format json loads json, and verify, the positive control, loads
    # numpy but not scipy
    def group(argv):
        return argv[0] == "verify", "json" in argv and "--help" not in argv

    argvs = sorted(golden.cases(), key=group)
    assert set(cli.HANDLERS) <= {argv[0] for argv in argvs}
    assert ["verify", "all"] in argvs and ["frobnicate"] in argvs
    monkeypatch.delenv("QED51_CONSTANTS", raising=False)
    lines = python_c(MODULE_LOADS, *map("\t".join, argvs), flags=["-S"]).splitlines()
    assert lines[0] == "import\t" and lines[-1] == "True"
    for argv, line in zip(argvs, lines[1:-1], strict=True):
        exit_line, loaded = line.split("\t")
        assert exit_line == golden.expected_path(argv).read_text().splitlines()[1]
        verify, writes_json = group(argv)
        if verify:
            assert {"numpy", "json"} <= set(loaded.split()) and "scipy" not in loaded, argv
        else:
            assert loaded == ("json" if writes_json else ""), argv


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


def test_radiative_leaves_hydrogen_unloaded(python_c):
    # the spectroscopic letters live in qed51.constants, so lamb, uehling,
    # moment and vacpol need no hydrogen module
    script = """
import sys
import qed51.radiative
print("qed51.hydrogen" in sys.modules)
"""
    assert python_c(script) == "False\n"


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
