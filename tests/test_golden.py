"""The CLI's bytes against tests/golden/, one file per argv; after a
deliberate output change, `python3 tools/golden.py` rewrites the files."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import golden  # noqa: E402

CASES = golden.cases()


def test_golden_files_are_exactly_the_cases():
    assert sorted(path.name for path in golden.GOLDEN.iterdir()) == sorted(
        map(golden.file_name, CASES))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_its_golden_file(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # --dot writes here
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("QED51_CONSTANTS", raising=False)
    expected = (golden.GOLDEN / golden.file_name(argv)).read_bytes()
    assert golden.run(argv).encode("utf-8") == expected
