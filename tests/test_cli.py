import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from sympbw.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = resources.files("sympbw.schemas").joinpath(name).read_text()
    return json.loads(text)


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "alpha_{1,1}",
        "alpha_{1,2}",
        "alpha_{1,1̅}",
        "alpha_{2,2}",
    ]
    code, out, _ = run(capsys, "roots", "--n", "2", "--ascii")
    assert code == 0 and "alpha_{1,1'}" in out


def test_dyck(capsys):
    code, out, _ = run(capsys, "dyck", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4 paths"
    assert "alpha_{1,1} -> alpha_{1,2} -> alpha_{1,1̅}" in lines


def test_polytope_text_golden(capsys):
    code, out, _ = run(capsys, "polytope", "--n", "2", "--lambda", "1,1")
    assert code == 0
    assert out == (
        "p_{1,1} <= 1\n"
        "p_{1,1} + p_{1,2} + p_{1,1̅} <= 2\n"
        "p_{1,1} + p_{1,2} + p_{2,2} <= 2\n"
        "p_{2,2} <= 1\n"
        "lattice points: 16\n"
    )


def test_tableaux(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "2", "--lambda", "1,1")
    assert code == 0
    assert out.startswith("16 tableaux\n")
    code, out, _ = run(capsys, "tableaux", "--n", "2", "--lambda", "1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 16 and len(data["tableaux"]) == 16
    schema = load_schema("tableau.schema.json")
    for tab in data["tableaux"]:
        jsonschema.validate(tab, schema)


def test_to_tableau_and_back(capsys):
    monomial = '[{"root": {"i": 1, "j": 1, "barred": false}, "exp": 1}]'
    code, out, _ = run(
        capsys, "to-tableau", "--n", "2", "--lambda", "1,1",
        "--monomial", monomial, "--format", "json",
    )
    assert code == 0
    tableau = json.loads(out)
    jsonschema.validate(tableau, load_schema("tableau.schema.json"))
    code, out, _ = run(capsys, "to-monomial", "--n", "2", "--tableau", json.dumps(tableau))
    assert code == 0
    assert out.splitlines()[0] == "lambda = 1,1"
    assert "f_{1,1}" in out


def test_to_monomial_from_file(capsys, tmp_path):
    path = tmp_path / "tab.json"
    path.write_text('{"shape": [2, 1], "columns": [[1, 2], [1]]}')
    code, out, _ = run(capsys, "to-monomial", "--n", "2", "--tableau", f"@{path}")
    assert code == 0
    assert out == "lambda = 1,1\n1\n"  # highest weight tableau: empty monomial


def test_relations_text_golden(capsys):
    code, out, _ = run(capsys, "relations", "--n", "2", "--kind", "degenerate")
    assert code == 0
    assert out.splitlines() == [
        "R^1_{(1,2),(2̅)} (degenerate part): X^a_{1}X^a_{2,2̅} + X^a_{2̅}X^a_{1,2}",
        "R^1_{(1,2),(1̅)} (degenerate part): X^a_{1}X^a_{2,1̅} + X^a_{1̅}X^a_{1,2}",
        "R^1_{(1,2̅),(1̅)} (degenerate part): X^a_{1}X^a_{2̅,1̅} - X^a_{2̅}X^a_{1,1̅} + X^a_{1̅}X^a_{1,2̅}",
        "R^1_{(2,2̅),(1̅)} (degenerate part): X^a_{2̅}X^a_{2,1̅} - X^a_{1̅}X^a_{2,2̅}",
        "R^1_{(1,2),(2̅,1̅)} (degenerate part): X^a_{1,2}X^a_{2̅,1̅} - X^a_{1,2̅}X^a_{2,1̅} + X^a_{1,1̅}X^a_{2,2̅}",
        "S_{(1̅,1)} (degenerate part): X^a_{1,1̅} + X^a_{2,2̅}",
        "6 relations",
    ]


def test_relations_json_schema(capsys):
    code, out, _ = run(capsys, "relations", "--n", "2", "--kind", "s-family", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 6
    schema = load_schema("relation.schema.json")
    for rel in data:
        jsonschema.validate(rel, schema)


def test_straighten_text_golden(capsys):
    code, out, _ = run(
        capsys, "straighten", "--n", "2", "--ring", "classical", "--columns", "1,3;2,4"
    )
    assert code == 0
    assert out == "-1  [2̅ 2 | 2̅ 2]\n+1  [1̅ 2̅ | 1 2]\n"


def test_straighten_trace(capsys):
    code, out, err = run(
        capsys, "straighten", "--n", "2", "--ring", "degenerate",
        "--columns", "1,3;2,4", "--trace",
    )
    assert code == 0
    assert "P-step" in err


def test_straighten_trace_is_written_before_a_failure(capsys):
    # a known descent failure (ROADMAP item 1): the two steps before it still show
    with pytest.raises(AssertionError):
        main(["straighten", "--n", "4", "--ring", "classical", "--columns", "1,2;1,3,6,8", "--trace"])
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 2


def test_straighten_json(capsys):
    code, out, _ = run(
        capsys, "straighten", "--n", "2", "--ring", "classical",
        "--columns", "1,3;2,4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["input"] == [[1, 3], [2, 4]]
    assert {term["coefficient"] for term in data["result"]} == {-1, 1}
    schema = load_schema("tableau.schema.json")
    for term in data["result"]:
        jsonschema.validate(term["tableau"], schema)


def test_verify_counts(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--suite", "counts", "--lambda", "1,1")
    assert code == 0
    assert out == "PASS suite=counts n=2 checked=3\n"


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--suite", "classical-ideal",
        "--seeds", "3", "--report", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["checked"] == 18
    jsonschema.validate(report, load_schema("verifyreport.schema.json"))


def test_roundtrip_failure_report_is_json(capsys, monkeypatch):
    from sympbw import verify

    monkeypatch.setattr(verify, "monomial_weight", lambda n, m, p: (0,) * n)
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--suite", "roundtrip", "--lambda", "1,1", "--report", "json"
    )
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, load_schema("verifyreport.schema.json"))
    assert not report["ok"] and report["failures"]
    assert {f["error"] for f in report["failures"]} == {"weight mismatch"}
    multiexponent = load_schema("multiexponent.schema.json")
    for failure in report["failures"]:
        jsonschema.validate(failure["monomial"], multiexponent)


def test_verify_degenerate_and_s_family(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--suite", "degenerate-ideal", "--seeds", "2"
    )
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--n", "2", "--suite", "s-family", "--seeds", "2")
    assert code == 0 and out.startswith("PASS")


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--n", "2", "--suite", "classical-ideal",
                      "--seeds", "2", "--report", "json")
    _, second, _ = run(capsys, "verify", "--n", "2", "--suite", "classical-ideal",
                       "--seeds", "2", "--report", "json")
    assert first == second


def test_out_file(capsys, tmp_path):
    path = tmp_path / "roots.txt"
    code, out, _ = run(capsys, "roots", "--n", "2", "--out", str(path))
    assert code == 0 and out == ""
    assert "alpha_{1,1}" in path.read_text()


def test_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "polytope", "--n", "2", "--lambda", "1,1,1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("--lambda needs 2")
    code, _, err = run(capsys, "to-monomial", "--n", "2", "--tableau", "not json")
    assert code == 1 and "error" in json.loads(err)


@pytest.mark.parametrize("argv", [
    ("polytope",), ("tableaux",), ("verify", "--suite", "counts"), ("verify", "--suite", "roundtrip"),
])
def test_oversized_enumeration_is_refused(capsys, argv):
    # dim V(9,9,9) at n = 3 is 10^9: refused before any point is listed
    start = time.monotonic()
    code, out, err = run(capsys, *argv, "--n", "3", "--lambda", "9,9,9")
    assert time.monotonic() - start < 1.0
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "dim V(lambda) = 1000000000 exceeds the enumeration limit of 100000"
    }


def test_usage_error_exit_2(capsys):
    with_missing = main(["to-tableau", "--n", "2", "--lambda", "1,1"])
    capsys.readouterr()
    assert with_missing == 2
    assert main(["not-a-verb"]) == 2
    capsys.readouterr()


VERB_ARGS = {
    "roots": (),
    "dyck": (),
    "polytope": ("--lambda", "1"),
    "tableaux": ("--lambda", "1"),
    "to-tableau": ("--lambda", "1", "--monomial", "[]"),
    "to-monomial": ("--tableau", '{"shape": [1], "columns": [[1]]}'),
    "relations": (),
    "straighten": ("--ring", "classical", "--columns", "1"),
    "verify": ("--suite", "classical-ideal", "--seeds", "1"),
}


@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
def test_rank_below_one_is_a_usage_error(capsys, verb):
    code, out, _ = run(capsys, verb, "--n", "1", *VERB_ARGS[verb])
    assert code == 0 and out
    for bad in ("0", "-1"):
        code, out, err = run(capsys, verb, "--n", bad, *VERB_ARGS[verb])
        assert code == 2 and out == ""
        assert "argument --n: must be at least 1" in err


def test_negative_seed_count_is_a_usage_error(capsys):
    argv = ("verify", "--n", "2", "--suite", "classical-ideal")
    code, out, err = run(capsys, *argv, "--seeds", "-3")
    assert code == 2 and out == ""
    assert "argument --seeds: must be at least 0" in err
    assert run(capsys, *argv, "--seeds", "0")[0] == 1


@pytest.mark.parametrize("suite", ["classical-ideal", "degenerate-ideal", "s-family"])
def test_zero_points_fail_under_the_requested_suite(capsys, suite):
    argv = ("verify", "--n", "2", "--suite", suite, "--seeds", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.startswith(f"FAIL suite={suite} n=2 checked=0")
    code, out, _ = run(capsys, *argv, "--report", "json")
    report = json.loads(out)
    assert code == 1 and report["suite"] == suite and not report["ok"]
    assert report["failures"] == [{"error": "no points were sampled"}]
    jsonschema.validate(report, load_schema("verifyreport.schema.json"))


def test_out_to_missing_directory_exit_1(capsys, tmp_path):
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "polytope", "--n", "2", "--lambda", "1,1", "--out", str(path))
    assert code == 1 and out == ""
    assert "No such file or directory" in json.loads(err)["error"]
    assert not path.exists()


def test_parser_reuse_keeps_no_state(capsys):
    argv = ("straighten", "--n", "2", "--ring", "degenerate", "--columns", "1,3;2,4")
    code, _, err = run(capsys, *argv, "--trace")
    assert code == 0 and "P-step" in err
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""

    alone = run(capsys, "roots", "--n", "2", "--ascii")
    assert run(capsys, "roots", "--n", "2", "--bogus")[0] == 2
    assert run(capsys, "roots", "--n", "2", "--ascii") == alone


def test_reader_closing_stdout_early_exits_1_without_traceback():
    # `sympbw tableaux ... | head -1`: about 100 kB of output, more than a
    # pipe buffers, so the write meets the closed end whatever the timing
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sympbw.cli", "tableaux", "--n", "6", "--lambda", "1,0,0,0,0,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline() == b"4576 tableaux\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
