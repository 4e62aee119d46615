import json
import math
import os
import random
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from sympbw.cli import _write_json, main
from sympbw.liealg import Root


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


def test_memory_error_is_a_json_error(capsys, monkeypatch):
    from sympbw import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "relations", exhausted)
    code, out, err = run(capsys, "relations", "--n", "2", "--format", "json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "out of memory"}


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
    # n = 1 has an empty generating set, which must not lose its ring
    for n in ("1", "2"):
        argv = ("verify", "--n", n, "--suite", suite, "--seeds", "0")
        code, out, _ = run(capsys, *argv)
        assert code == 1 and out.startswith(f"FAIL suite={suite} n={n} checked=0")
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


def test_options_belong_to_the_verbs_that_read_them(capsys):
    # only verify samples points; every verb but verify renders entries,
    # and verify picks JSON by --report alone
    assert run(capsys, "tableaux", "--n", "2", "--lambda", "1,0", "--seed", "1")[0] == 2
    assert run(capsys, "tableaux", "--n", "2", "--lambda", "1,0", "--ascii")[0] == 0
    argv = ("verify", "--n", "2", "--suite", "classical-ideal", "--seeds", "1")
    assert run(capsys, *argv, "--seed", "1")[0] == 0
    assert run(capsys, *argv, "--ascii")[0] == 2
    assert run(capsys, *argv, "--format", "json")[0] == 2


def test_parser_reuse_keeps_no_state(capsys):
    argv = ("straighten", "--n", "2", "--ring", "degenerate", "--columns", "1,3;2,4")
    code, _, err = run(capsys, *argv, "--trace")
    assert code == 0 and "P-step" in err
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""

    alone = run(capsys, "roots", "--n", "2", "--ascii")
    assert run(capsys, "roots", "--n", "2", "--bogus")[0] == 2
    assert run(capsys, "roots", "--n", "2", "--ascii") == alone


def _close_after_first_line(*extra):
    """First stdout line, exit code and stderr of ``sympbw tableaux ... | head -1``."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sympbw.cli", "tableaux", "--n", "6", "--lambda", "1,0,0,0,0,1",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(timeout=60), err


def test_reader_closing_stdout_early_exits_1_without_traceback():
    # about 100 kB of output, more than a pipe buffers, so the write meets
    # the closed end whatever the timing
    assert _close_after_first_line() == (b"4576 tableaux\n", 1, b"")


def test_reader_closing_stdout_during_a_streamed_json_answer():
    # 1.2 MB of JSON, written in many pieces: a later piece meets the closed end
    assert _close_after_first_line("--format", "json") == (b"{\n", 1, b"")


@pytest.mark.parametrize("argv, expected", [
    (("to-tableau", "--lambda", "1,0", "--monomial", "[1]"), "a multi-exponent is a list of"),
    (("to-tableau", "--lambda", "1,0", "--monomial", '{"a": 1}'), "a multi-exponent is a list of"),
    (("to-tableau", "--lambda", "1,0", "--monomial", '[{"root": {"i": 1}, "exp": 1}]'),
     "a root is"),
    (("to-monomial", "--tableau", "[1]"), "a tableau is"),
    (("to-monomial", "--tableau", "{}"), "a tableau is"),
    (("straighten", "--ring", "classical", "--columns", "1,2;"), "got the column ''"),
    # JSON values of the wrong type are refused, not converted
    (("to-tableau", "--lambda", "1,1", "--monomial",
      '[{"root": {"i": 1, "j": 1, "barred": "false"}, "exp": 1}]'), "a root is"),
    (("to-tableau", "--lambda", "1,1", "--monomial",
      '[{"root": {"i": "1", "j": 1, "barred": false}, "exp": 1}]'), "a root is"),
    (("to-tableau", "--lambda", "1,1", "--monomial",
      '[{"root": {"i": 1, "j": 1, "barred": false}, "exp": 1.7}]'), "a multi-exponent is a list of"),
    (("to-monomial", "--tableau", '{"shape": [2, 1], "columns": [[1.9, 2], [1]]}'), "a tableau is"),
    (("to-monomial", "--tableau", '{"shape": [2.0, 1], "columns": [[1, 2], [1]]}'), "a tableau is"),
    # "shape" is required, as in tableau.schema.json
    (("to-monomial", "--tableau", '{"columns": [[1, 2], [1]]}'), "a tableau is"),
    # --lambda is named, with the shape it takes
    (("polytope", "--lambda", "1,x"), "--lambda needs 2 comma-separated integers, got '1,x'"),
    (("polytope", "--lambda", "1,-1"), "--lambda needs 2 comma-separated nonnegative integers, got '1,-1'"),
    (("polytope", "--lambda", "1"), "--lambda needs 2 comma-separated nonnegative integers, got '1'"),
])
def test_malformed_input_shape_is_a_json_error(capsys, argv, expected):
    code, out, err = run(capsys, argv[0], "--n", "2", *argv[1:])
    assert code == 1 and out == ""
    assert expected in json.loads(err)["error"]


def _written(obj):
    pieces = []
    _write_json(obj, pieces.append)
    return "".join(pieces)


def _random_value(rng, depth=0):
    if depth > 4 or rng.random() < 0.4:
        return rng.choice([
            lambda: rng.randint(-2**70, 2**70),
            lambda: rng.randint(-3, 3),
            lambda: rng.choice([True, False, None, math.nan, math.inf, -math.inf, -0.0]),
            lambda: rng.uniform(-1e6, 1e6),
            lambda: "".join(chr(rng.choice([rng.randrange(0x80), rng.randrange(0x80, 0x110000),
                                            0x305, 0x22, 0x5C]))
                            for _ in range(rng.randrange(6))),
        ])()
    kind = rng.randrange(4)
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 0:
        return [rng.randint(-2, 3) for _ in items]
    if kind == 1:
        return tuple(items)
    if kind == 2:
        return items
    keys = [str(rng.randrange(9)), rng.randint(-5, 5), rng.choice([True, False, None]),
            rng.uniform(-9, 9), 'ā"\\\n']
    return {rng.choice(keys): item for item in items}


WRITER_CASES = [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]],
    (1, (2, (3,))),
    Root(1, 2, True), [Root(1, 1), Root(2, 3, True)],
    ["ā", "1̅", '"', "\\", "\x00\x1f\n\t\x7f", "\u2028", "😀"],
    [-5, 0, 2**64, 2**64 + 1, -(2**70)],
    {"t": True, "f": False, "n": None},
    {True: 1, False: 2, None: 3, 7: 4, -1: 5, 2.5: 6, math.inf: 7, -math.inf: 8, math.nan: 9},
    [0.1, -0.0, 1e300, 1e-300, math.nan, math.inf, -math.inf],
    {"nonzero": {0: 3, 2: -1}},
    [[1, 1], [True, 1], [1.0, 1], [1, True], (1, 1)],
    {"a": [1, 2], "b": [[1, 2], {"c": [1, 2], "d": [[1, 2]]}], "e": [1, 2]},
]


def test_write_json_matches_json_dumps():
    nested = [1, 2]
    for _ in range(150):
        nested = [nested, {"k": nested}] if len(str(nested)) < 4000 else [nested]
    cases = WRITER_CASES + [nested, "plain", 3, None]
    cases += [_random_value(random.Random(seed)) for seed in range(400)]
    for obj in cases:
        assert _written(obj) == json.dumps(obj, indent=2), obj
    for obj in [{(1, 2): 0}, [{"a": {frozenset(): 0}}], [object()]]:
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            _written(obj)


JSON_CALLS = [
    ("roots",), ("dyck",), ("relations", "--kind", "classical"),
    ("relations", "--kind", "degenerate"), ("relations", "--kind", "s-family"),
    ("polytope", "--lambda", "LAM"), ("tableaux", "--lambda", "LAM"),
    ("verify", "--suite", "counts", "--lambda", "LAM"),
    ("verify", "--suite", "roundtrip", "--lambda", "LAM"),
    ("verify", "--suite", "classical-ideal", "--seeds", "2"),
    ("verify", "--suite", "degenerate-ideal", "--seeds", "2"),
    ("verify", "--suite", "s-family", "--seeds", "2"),
    ("to-tableau", "--lambda", "LAM", "--monomial",
     '[{"root": {"i": 1, "j": 1, "barred": false}, "exp": 1}]'),
    ("to-monomial", "--tableau", '{"columns": [[1, 2], [1]], "shape": [2, 1]}'),
    ("straighten", "--ring", "classical", "--columns", "1,3;2,4"),
    ("straighten", "--ring", "degenerate", "--columns", "1,3;2,4"),
]


@pytest.mark.parametrize("n, lam", [(2, "1,1"), (3, "1,0,1")])
@pytest.mark.parametrize("call", JSON_CALLS, ids=" ".join)
def test_json_answers_are_indented_json(capsys, tmp_path, n, lam, call):
    call = tuple(lam if arg == "LAM" else arg for arg in call)
    fmt = ("--report", "json") if call[0] == "verify" else ("--format", "json")
    code, out, err = run(capsys, call[0], "--n", str(n), *call[1:], *fmt)
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    path = tmp_path / "answer.json"
    assert run(capsys, call[0], "--n", str(n), *call[1:], *fmt, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_large_json_answer_is_streamed(monkeypatch):
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    recorder = Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(["tableaux", "--n", "6", "--lambda", "1,0,0,0,0,1", "--format", "json"]) == 0
    text = "".join(recorder.writes)
    assert len(text) > 10**6 and len(recorder.writes) > 2
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
