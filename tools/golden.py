"""The golden CLI corpus: what `qed51` writes for a fixed list of argv, one
file per argv under tests/golden/, compared byte for byte by
tests/test_golden.py.

    python3 tools/golden.py          # rewrite tests/golden/ from ./src

The list is every `qed51 ...` example line of the README and EXTRA, each in
the text, csv and json formats, and the failing argv in ERRORS as they are.
Each runs cli.main in this process, in a scratch working directory that
receives any --dot file, with COLUMNS=80 (so that --help wraps alike on
every terminal) and without QED51_CONSTANTS.  A file holds the argv, the
exit code, stdout, stderr and the --dot file, if one was written.  A
deliberate output change rewrites the files, and their diff shows it.
tests/test_package.py runs the same list in one child process to check
which modules each argv loads.

argparse wraps usage lines differently from Python 3.13 on, so the shared
files are those of Python 3.10-3.12.  Under a later Python the script writes
only the files whose text differs, into tests/golden/py3.X/, and
expected_path prefers those under that version.
"""

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
README = ROOT / "README.md"
sys.path.insert(0, str(ROOT / "src"))

FORMATS = ([], ["--format", "csv"], ["--format", "json"])
EXTRA = (["verify", "tables"], ["o16", "--spectrum"], ["lamb", "--eav", "12.5Ry"],
         ["wick", "graphs", "--product", "current^3"], ["wick", "count", "--product", "current^5"],
         ["annihilate", "rate", "--rho", "2", "--v", "0.01"],
         ["xsec", "compton", "--eps", "1.3", "--theta-grid", "0:180:7", "--phi", "30"])
ERRORS = (["xsec", "compton", "--eps", "nan", "--theta-grid", "0:180:7"],
          ["lamb", "--eav", "-3"], ["frobnicate"], ["uehling", "--state", "²s"])
SHARED_UP_TO = (3, 12)   # the last Python whose output the shared files hold
VERSION_DIR = GOLDEN / "py{}.{}".format(*sys.version_info[:2])


def readme_argv() -> list:
    """argv of every `qed51 ...` example line in the README, comments dropped."""
    return [shlex.split(line.partition("#")[0])[1:]
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("qed51 ")]


def cases() -> list:
    return [argv + fmt for argv in readme_argv() + list(EXTRA) for fmt in FORMATS] + list(ERRORS)


def file_name(argv) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_") + ".txt"


def expected_path(argv) -> Path:
    """The golden file of argv under the running Python: its version's own
    file where there is one, else the shared file."""
    own = VERSION_DIR / file_name(argv)
    return own if own.exists() else GOLDEN / file_name(argv)


def run(argv) -> str:
    """The golden text of one argv, run in the current directory and
    environment.  An exception that escapes main is recorded as Python's
    top level would end: exit 1, its last traceback line on stderr."""
    from qed51 import cli

    out, err = io.StringIO(), io.StringIO()
    status = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # --help and usage errors
            code = exc.code
        except Exception as exc:
            code, status = 1, ", traceback"
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    text = (f"$ qed51 {shlex.join(argv)}\nexit {code}{status}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    dot = Path(argv[argv.index("--dot") + 1]) if "--dot" in argv else None
    if dot is not None and dot.exists():
        text += f"--- {dot}\n{dot.read_text(encoding='utf-8')}"
        dot.unlink()
    return text


def write(directory: Path, argvs, shared: Path | None = None) -> None:
    """Replace the golden files in directory by one per argv; given a
    shared directory, which must hold every argv's file, only by those
    whose text differs from it."""
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.txt"):
        old.unlink()
    for argv in argvs:
        text = run(argv).encode("utf-8")
        if shared is None or text != (shared / file_name(argv)).read_bytes():
            (directory / file_name(argv)).write_bytes(text)


def main() -> int:
    os.environ["COLUMNS"] = "80"
    os.environ.pop("QED51_CONSTANTS", None)
    argvs, home = cases(), os.getcwd()
    own = sys.version_info[:2] > SHARED_UP_TO
    target = VERSION_DIR if own else GOLDEN
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            write(target, argvs, shared=GOLDEN if own else None)
        finally:
            os.chdir(home)
    print(f"ran {len(argvs)} argv, wrote their files to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
