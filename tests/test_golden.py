"""The cheap built-in experiments reproduce their golden digests byte for byte.

``tests/golden/check_golden.py`` checks all 18 built-ins (about 20 min);
this file checks the ones that take a few seconds each, and skips them on
an environment other than the one the digests were recorded on.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "golden"))

import check_golden  # noqa: E402

DIGESTS = check_golden.load_digests()
ELSEWHERE = check_golden.environment_mismatch(DIGESTS.get("environment", {}))
CHEAP = ["contact_equilibrium_mlf", "contact_equilibrium_roe", "contact_segments_mlf",
         "contact_segments_roe", "dambreak", "dambreak_modified_lf",
         "simplified_rmp", "simplified_rmp_glimm", "twolayer_external"]


def test_every_builtin_has_digests():
    from pathfv.experiments import builtin_names

    assert sorted(DIGESTS["configs"]) == builtin_names()
    for entry in DIGESTS["configs"].values():
        assert entry["files"] and entry["seconds"] > 0


@pytest.mark.skipif(ELSEWHERE is not None, reason=str(ELSEWHERE))
@pytest.mark.parametrize("name", CHEAP)
def test_builtin_reproduces_its_digests(tmp_path, name):
    check_golden.run_builtin(name, tmp_path)
    files = {f"{name}/{key}": digest
             for key, digest in check_golden.file_digests(tmp_path / name).items()}
    assert check_golden.differing(DIGESTS["configs"][name]["files"], files) == []


def test_another_environment_is_named():
    here = check_golden.environment()
    assert check_golden.environment_mismatch(here) is None
    why = check_golden.environment_mismatch({**here, "numpy": "0.0"})
    assert why.startswith("digests recorded on another environment") and "0.0" in why


def test_largest_absolute_difference_of_csv_and_json(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,h\n0,1\n1,nan\n")
    b.write_text("x,h\n0,1.5\n1,nan\n")
    assert check_golden.max_abs_difference(a, b) == 0.5
    b.write_text("x,h\n0,1\n")
    assert check_golden.max_abs_difference(a, b) == "shapes differ"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"m": {"xi": 0.25, "w": [1.0, 2.0]}, "name": "t"}))
    b.write_text(json.dumps({"m": {"xi": 0.25, "w": [1.0, 2.125]}, "name": "t"}))
    assert check_golden.max_abs_difference(a, b) == 0.125
    b.write_text(json.dumps({"m": {"xi": None, "w": [1.0, 2.0]}, "name": "t"}))
    assert check_golden.max_abs_difference(a, b) == "non-numeric entries differ"
    b.write_text(json.dumps({"m": {"xi": math.inf, "w": [1.0, 2.0]}, "name": "t"}))
    assert check_golden.max_abs_difference(a, b) == math.inf


def test_differing_names_missing_extra_and_changed_files():
    expected = {"a/x.csv": "1", "a/y.csv": "2", "a/z.csv": "3"}
    actual = {"a/x.csv": "1", "a/y.csv": "9", "a/w.csv": "4"}
    assert check_golden.differing(expected, actual) == [
        ("a/w.csv", "not in the digests"), ("a/y.csv", "digest differs"),
        ("a/z.csv", "missing")]


def test_the_largest_recorded_config_runs_first():
    configs = {"a": {"seconds": 2.0}, "b": {"seconds": 30.0}, "c": {"seconds": 0.5}}
    assert check_golden.largest_first(["a", "b", "c", "new"], configs) == ["new", "b", "a", "c"]


@pytest.mark.skipif(ELSEWHERE is not None, reason=str(ELSEWHERE))
def test_the_workers_report_in_the_order_of_the_names(capsys):
    # the slower config runs first, its line comes second
    names = ["contact_segments_roe", "dambreak"]
    assert check_golden.largest_first(names, DIGESTS["configs"]) == names[::-1]
    assert check_golden.main(names) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == names
