"""The CLI's bytes against tests/golden/, one file per argv (or its Python
version's own file, see tools/golden.py); after a deliberate output change,
`python3 tools/golden.py` rewrites the files.
Each stored --format json stdout validates against docs/output-schema.json."""

import json
import re

import jsonschema
import pytest

import golden

CASES = golden.cases()
JSON_CASES = [argv for argv in CASES if argv[-2:] == ["--format", "json"] and "--help" not in argv]
SCHEMA = json.loads((golden.ROOT / "docs" / "output-schema.json").read_text())


def test_golden_files_are_exactly_the_cases():
    names = set(map(golden.file_name, CASES))
    dirs = [path for path in golden.GOLDEN.iterdir() if path.is_dir()]
    assert sorted(path.name for path in golden.GOLDEN.iterdir() if path not in dirs) == sorted(
        names)
    # a later Python's own directory holds only files of cases
    for path in dirs:
        assert re.fullmatch(r"py3\.\d+", path.name)
        assert {own.name for own in path.iterdir()} <= names


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_its_golden_file(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # --dot writes here
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("QED51_CONSTANTS", raising=False)
    expected = golden.expected_path(argv).read_bytes()
    assert golden.run(argv).encode("utf-8") == expected


@pytest.mark.parametrize("argv", JSON_CASES, ids=" ".join)
def test_golden_json_validates_against_the_schema(argv):
    text = (golden.GOLDEN / golden.file_name(argv)).read_text(encoding="utf-8")
    head, _, rest = text.partition("\n--- stdout\n")
    assert head.endswith("\nexit 0")
    jsonschema.validate(json.loads(rest.partition("--- stderr\n")[0]), SCHEMA)
