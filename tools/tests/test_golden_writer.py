"""The golden-corpus writer on a few argv, in a scratch directory.

Run from the root of a checkout:  python3 -m pytest -q tools/tests
"""

import golden


def test_write_records_exit_code_streams_and_dot_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["moment"], ["lamb", "--eav", "-3"],
             ["wick", "graphs", "--product", "current^1", "--dot", "g.dot"]]
    out = tmp_path / "golden"
    out.mkdir()
    (out / "stale.txt").write_text("left by an argv no longer in the list\n")
    golden.write(out, argvs)
    assert sorted(p.name for p in out.iterdir()) == [
        "lamb_eav_3.txt", "moment.txt", "wick_graphs_product_current_1_dot_g_dot.txt"]
    assert (out / "moment.txt").read_text().startswith(
        "$ qed51 moment\nexit 0\n--- stdout\nAnomalous magnetic moment")
    assert (out / "lamb_eav_3.txt").read_text() == (
        "$ qed51 lamb --eav -3\nexit 2\n--- stdout\n--- stderr\n"
        "domain error: average excitation energy must be positive\n")
    graphs = (out / "wick_graphs_product_current_1_dot_g_dot.txt").read_text()
    assert "\n--- g.dot\ndigraph G1 {\n" in graphs and not (tmp_path / "g.dot").exists()
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    golden.write(out, argvs)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_cases_cover_every_readme_example_in_three_formats():
    cases = golden.cases()
    assert ["verify", "all", "--format", "json"] in cases
    assert len(cases) == 3 * (len(golden.readme_argv()) + len(golden.EXTRA)) + len(golden.ERRORS)
    assert len(set(map(golden.file_name, cases))) == len(cases)


def test_write_beside_a_shared_directory_keeps_only_the_files_that_differ(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["moment"], ["lamb", "--eav", "-3"]]
    shared, own = tmp_path / "shared", tmp_path / "py3.99"
    golden.write(shared, argvs)
    (shared / "moment.txt").write_text("what another Python printed\n")
    golden.write(own, argvs, shared=shared)
    assert [p.name for p in own.iterdir()] == ["moment.txt"]
