"""End-to-end tests for the problem-document CLI."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from matfac import Polynomial, PolynomialRing, cyclotomic_field, parse_polynomial
from matfac.cli import (
    Runner,
    canonical_json,
    main,
    machine_report,
    parse_document,
    run_document,
)
from matfac.rings import PolyParseError
from test_goldens import workloads  # noqa: F401  (the fixture that loads perfbench's documents)

PIPELINE_DOC = {
    "ring": {"conductor": 3,
             "variables": ["x1", "x2", "x0", "y1", "y2", "y0", "z1", "z2", "z0"]},
    "polynomials": {"f": "x1*x2*x0 + y1*y2*y0 + z1*z2*z0"},
    "factorizations": {
        "X": {"f": "x1*x2*x0", "matrices": [[["x1"]], [["x2"]], [["x0"]]]},
        "Y": {"f": "y1*y2*y0", "matrices": [[["y1"]], [["y2"]], [["y0"]]]},
        "Z": {"f": "z1*z2*z0", "matrices": [[["z1"]], [["z2"]], [["z0"]]]},
    },
    "commands": [
        {"op": "validate", "subject": "X"},
        {"op": "tensor", "left": "X", "right": "Y", "out": "XY"},
        {"op": "validate", "subject": "XY"},
        {"op": "det-check", "left": "X", "right": "Y"},
        {"op": "reduce", "left": "X", "right": "Y", "side": "left"},
        {"op": "reduce", "left": "X", "right": "Y", "side": "right"},
        {"op": "shift", "subject": "XY", "steps": 1, "out": "TXY"},
        {"op": "scale", "subject": "X", "units": ["z", "z", "z"], "out": "Xs"},
        {"op": "tensor", "left": "XY", "right": "Z", "out": "XYZ"},
        {"op": "certify", "subject": "XYZ", "consequences": True},
        {"op": "hom-jets", "source": "XY", "target": "XY", "precision": 1},
        {"op": "bound", "left": "X", "right": "Y", "refute_shifts": True},
        {"op": "ulrich",
         "rows": [["x1", "x2", "x0"], ["y1", "y2", "y0"], ["z1", "z2", "z0"]],
         "out": "U"},
        {"op": "extension-ses",
         "rows": [["x1", "x2", "x0"], ["y1", "y2", "y0"], ["z1", "z2", "z0"]]},
        {"op": "report"},
    ],
}

KNORRER_DOC = {
    "ring": {"conductor": 4, "variables": ["x", "y"]},
    "factorizations": {
        "X": {"f": "x^2", "matrices": [[["x"]], [["x"]]]},
        "Y": {"f": "y^2", "matrices": [[["y"]], [["y"]]]},
        "XX": {"f": "x^2",
               "matrices": [[["x", "0"], ["0", "x"]], [["x", "0"], ["0", "x"]]]},
    },
    "morphisms": {
        "e": {"source": "XX", "target": "XX",
              "components": [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]]},
    },
    "commands": [
        {"op": "knorrer", "left": "X", "right": "Y", "out": "Zpencil"},
        {"op": "split-idempotent", "subject": "XX", "idempotent": "e"},
        {"op": "report"},
    ],
}


def write_doc(tmp_path, data, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def test_pipeline_all_pass(tmp_path, capsys):
    rc = main(["run", write_doc(tmp_path, PIPELINE_DOC)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "15 commands, 0 failed" in out
    assert "FAIL" not in out and "REFUSED" not in out


def test_machine_format_and_report_file(tmp_path, capsys):
    doc = write_doc(tmp_path, PIPELINE_DOC)
    rep_path = tmp_path / "report.json"
    rc = main(["run", doc, "--format", "machine", "--report", str(rep_path)])
    assert rc == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["exit_status"] == 0
    assert rep["failed"] == 0 and rep["refused"] == 0
    assert [c["op"] for c in rep["commands"]] == [c["op"] for c in PIPELINE_DOC["commands"]]
    assert rep_path.read_text(encoding="utf-8") == out


def test_machine_report_is_byte_deterministic(tmp_path, capsys):
    doc = write_doc(tmp_path, PIPELINE_DOC)
    outs = []
    for _ in range(2):
        assert main(["run", doc, "--format", "machine"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_corrupted_factorization_fails_with_pinpoint(tmp_path, capsys):
    doc = {
        "ring": {"conductor": 3, "variables": ["x1", "x2", "x0"]},
        "factorizations": {
            "X": {"f": "x1*x2*x0", "matrices": [[["x1"]], [["x2"]], [["x1"]]]},
        },
        "commands": [{"op": "validate", "subject": "X"}],
    }
    rc = main(["run", write_doc(tmp_path, doc), "--format", "machine"])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["exit_status"] == 1 and rep["failed"] == 1
    entry = rep["commands"][0]
    assert entry["status"] == "fail"
    bad = [e for e in entry["data"]["entries"] if not e["ok"]]
    assert bad and all("start" in e for e in bad)


def test_refusal_is_not_a_failure(tmp_path, capsys):
    doc = {
        "ring": {"conductor": 3, "variables": ["x1", "x2", "y1"]},
        "factorizations": {
            "X": {"f": "x1*x1*x2", "matrices": [[["x1"]], [["x1"]], [["x2"]]]},
        },
        "commands": [{"op": "certify", "subject": "X"}],
    }
    rc = main(["run", write_doc(tmp_path, doc), "--format", "machine"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["refused"] == 1 and rep["failed"] == 0
    assert rep["commands"][0]["status"] == "refused"


def test_unresolved_name_is_usage_error(tmp_path, capsys):
    doc = {
        "ring": {"conductor": 3, "variables": ["x1"]},
        "commands": [{"op": "validate", "subject": "NOPE"}],
    }
    rc = main(["run", write_doc(tmp_path, doc)])
    assert rc == 2
    assert "NOPE" in capsys.readouterr().err


def test_parse_error_carries_position(tmp_path, capsys):
    doc = {
        "ring": {"conductor": 3, "variables": ["x1"]},
        "polynomials": {"f": "x1 + * 2"},
        "commands": [],
    }
    rc = main(["run", write_doc(tmp_path, doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "position" in err


def expression_doc(text):
    return {"ring": {"conductor": 3, "variables": ["x1", "x2"]},
            "polynomials": {"p": text}, "commands": []}


@pytest.mark.parametrize("text, message", [
    pytest.param("(" * 150 + "x1" + ")" * 150,
                 "expression nested too deeply (at position 100)", id="depth-150"),
    pytest.param("(" * 200 + "x1" + ")" * 200,
                 "expression nested too deeply (at position 100)", id="depth-200"),
    pytest.param("-(" * 200 + "x1" + ")" * 200,
                 "expression nested too deeply (at position 201)", id="signed-depth-200"),
    pytest.param("x1^\u00b2", "unexpected character '\u00b2' (at position 3)",
                 id="superscript-exponent"),
    pytest.param("\u00b2*x1", "unexpected character '\u00b2' (at position 0)",
                 id="superscript-factor"),
    # literals past the interpreter's 4,300-digit conversion limit
    pytest.param("x1 + " + "7" * 5000, "integer literal too long (at position 5)",
                 id="long-constant"),
    pytest.param("x1^" + "9" * 5000, "integer literal too long (at position 3)",
                 id="long-exponent"),
    pytest.param("1/" + "3" * 5000, "integer literal too long (at position 2)",
                 id="long-denominator"),
])
def test_unparsable_expression_exits_2_with_its_location(tmp_path, capsys, text, message):
    assert main(["run", write_doc(tmp_path, expression_doc(text))]) == 2
    assert capsys.readouterr().err == f"error: polynomials.p: {message}\n"


def test_long_run_of_signs_parses(tmp_path, capsys):
    assert main(["run", write_doc(tmp_path, expression_doc("-" * 1001 + "x1"))]) == 0
    capsys.readouterr()


# literals end at a space, so that no exponent has two digits and no power
# blows up; superscript two and Arabic-Indic three are digits but only the
# second is decimal
EXPRESSION_PIECES = ["x1", "x2", "x3", "z", "_", " ", "+", "-", "*", "^", "/", "(", ")",
                     "0 ", "1 ", "2 ", "1/2 ", "\u0663 ", "\u00b2"]


@st.composite
def expression_texts(draw):
    """Strings over the grammar's alphabet, some inside 100 or more levels of
    parentheses or after a long run of signs."""
    core = "".join(draw(st.lists(st.sampled_from(EXPRESSION_PIECES), max_size=16)))
    depth = draw(st.sampled_from([0, 0, 0, 1, 100, 101, 200]))
    opener = draw(st.sampled_from(["(", "-(", "+ ("]))
    signs = "-" * draw(st.sampled_from([0, 0, 1, 2, 1000]))
    return opener * depth + signs + core + ")" * max(depth - draw(st.integers(0, 1)), 0)


@settings(max_examples=60, deadline=None)
@given(text=expression_texts())
def test_no_expression_ends_in_a_traceback(tmp_path_factory, text):
    # the parser returns a polynomial or raises its own error, and the CLI
    # exits with one of its three statuses
    try:
        assert isinstance(parse_polynomial(text, PolynomialRing(cyclotomic_field(3),
                                                                ("x1", "x2"))), Polynomial)
    except PolyParseError as e:
        event(str(e).rpartition(" (at")[0])
    else:
        event("parsed")
    path = write_doc(tmp_path_factory.mktemp("expr"), expression_doc(text))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["run", path]) in (0, 1, 2)


def test_unknown_op_rejected(tmp_path, capsys):
    doc = {
        "ring": {"conductor": 3, "variables": ["x1"]},
        "commands": [{"op": "frobnicate"}],
    }
    rc = main(["run", write_doc(tmp_path, doc)])
    assert rc == 2
    assert "frobnicate" in capsys.readouterr().err


def test_out_name_collisions_rejected(tmp_path, capsys):
    doc = dict(PIPELINE_DOC)
    doc["commands"] = [
        {"op": "tensor", "left": "X", "right": "Y", "out": "X"},
    ]
    rc = main(["run", write_doc(tmp_path, doc)])
    assert rc == 2
    assert "X" in capsys.readouterr().err


def test_invalid_json_and_missing_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["run", str(p)]) == 2
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: document is nested too deeply\n"


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, expression_doc("x1"))
    missing = tmp_path / "missing" / "r.json"
    assert main(["run", doc, "--report", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ") and str(missing) in err
    assert "Traceback" not in err and not missing.exists()


def test_bad_precision_flag(tmp_path, capsys):
    doc = write_doc(tmp_path, PIPELINE_DOC)
    assert main(["run", doc, "--precision", "0"]) == 2
    capsys.readouterr()


def test_zeta_flag_selects_other_primitive_root(tmp_path, capsys):
    # conductor 3: zeta^2 is also primitive, so the whole pipeline still passes
    doc = write_doc(tmp_path, PIPELINE_DOC)
    assert main(["run", doc, "--zeta", "2"]) == 0
    capsys.readouterr()


def test_knorrer_document(tmp_path, capsys):
    rc = main(["run", write_doc(tmp_path, KNORRER_DOC), "--format", "machine"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["failed"] == 0
    split = rep["commands"][1]
    assert split["status"] == "pass"
    assert split["data"]["rank_image"] == 1
    assert split["data"]["rank_complement"] == 1
    assert split["data"]["rank_additive"]


def test_run_document_api(tmp_path):
    results, status = run_document(PIPELINE_DOC)
    assert status == 0
    rep = machine_report(results, status)
    assert rep["exit_status"] == 0
    # the report op snapshots the full namespace, including stored outputs
    names = rep["commands"][-1]["data"]["factorizations"]
    assert {"X", "Y", "Z", "XY", "TXY", "Xs", "XYZ", "U"} <= set(names)


def test_console_script(tmp_path):
    doc = write_doc(tmp_path, KNORRER_DOC)
    proc = subprocess.run([sys.executable, "-m", "matfac.cli", "run", doc],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0 failed" in proc.stdout


def test_conductor_four_tensor_with_third_power_twist(tmp_path, capsys):
    # --zeta 3 on conductor 4 twists by zeta^3 = -zeta, also a primitive 4th root
    names = ("1", "2", "3", "0")
    doc = {
        "ring": {"conductor": 4,
                 "variables": [f"x{i}" for i in names] + [f"y{i}" for i in names]},
        "factorizations": {
            v.upper(): {"f": "*".join(f"{v}{i}" for i in names),
                        "matrices": [[[f"{v}{i}"]] for i in names]}
            for v in ("x", "y")
        },
        "commands": [
            {"op": "tensor", "left": "X", "right": "Y", "out": "XY"},
            {"op": "validate", "subject": "XY"},
        ],
    }
    assert main(["run", write_doc(tmp_path, doc), "--zeta", "3"]) == 0
    assert "2 commands, 0 failed" in capsys.readouterr().out


def run_machine(tmp_path, capsys, doc, *flags):
    rc = main(["run", write_doc(tmp_path, doc), "--format", "machine", *flags])
    return rc, json.loads(capsys.readouterr().out) if rc != 2 else capsys.readouterr().err


def test_one_failing_start_fails_the_validation(tmp_path, capsys):
    # with f = 0 the cyclic products can differ: AB = 0 but BA != 0
    doc = {"ring": {"conductor": 3, "variables": ["x"]},
           "factorizations": {"N": {"f": "0", "matrices": [[["0", "1"], ["0", "0"]],
                                                            [["1", "0"], ["0", "0"]]]}},
           "commands": [{"op": "validate", "subject": "N"}]}
    rc, rep = run_machine(tmp_path, capsys, doc)
    assert rc == 1
    data = rep["commands"][0]["data"]
    assert [e["ok"] for e in data["entries"]] == [False, True] and data["passed"] is False


THREE_ROWS = [["x1", "x2", "x0"], ["y1", "y2", "y0"]]


@pytest.mark.parametrize("op", ["ulrich", "extension-ses"])
def test_missing_root_of_unity_fails_the_command(tmp_path, capsys, op):
    # Q(zeta_2) = Q holds no primitive cube root, which rows of 3 entries need
    doc = {
        "ring": {"conductor": 2, "variables": ["x1", "x2", "x0", "y1", "y2", "y0"]},
        "commands": [{"op": op, "rows": THREE_ROWS}],
    }
    rc, rep = run_machine(tmp_path, capsys, doc)
    assert rc == 1
    assert rep["commands"][0]["status"] == "fail"
    assert "no primitive root of order 3" in rep["commands"][0]["summary"]


def test_bound_of_operands_of_different_d_fails_the_command(tmp_path, capsys):
    # X (d = 3) and Y (d = 2) cannot be tensored, so their bound is refused
    doc = {
        "ring": {"conductor": 6, "variables": ["x1", "x2", "x0", "y1", "y0"]},
        "factorizations": {
            "X": {"f": "x1*x2*x0", "matrices": [[["x1"]], [["x2"]], [["x0"]]]},
            "Y": {"f": "y1*y0", "matrices": [[["y1"]], [["y0"]]]},
        },
        "commands": [{"op": "bound", "left": "X", "right": "Y"}],
    }
    rc, rep = run_machine(tmp_path, capsys, doc)
    assert rc == 1
    assert rep["commands"][0]["status"] == "fail"
    assert rep["commands"][0]["summary"] == "tensor operands must share d; got 3 and 2"


def test_knorrer_with_non_primitive_power_fails_the_command(tmp_path, capsys):
    # conductor 4 = 2d: omega is the --zeta power of zeta_4, and zeta_4^2 = -1
    # is not a primitive 4th root
    doc = dict(KNORRER_DOC, commands=[{"op": "knorrer", "left": "X", "right": "Y"}])
    rc, rep = run_machine(tmp_path, capsys, doc, "--zeta", "2")
    assert rc == 1
    assert rep["commands"][0]["status"] == "fail"
    assert "power 2" in rep["commands"][0]["summary"]


@pytest.mark.parametrize("cmd", [
    {"op": "shift", "subject": "X", "steps": True},
    {"op": "extension-ses", "rows": THREE_ROWS, "start": True},
    {"op": "hom-jets", "source": "X", "target": "X", "precision": True},
])
def test_bool_is_not_an_integer(tmp_path, capsys, cmd):
    doc = dict(PIPELINE_DOC, commands=[cmd])
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert "must be" in err


@pytest.mark.parametrize("cmd, key", [
    # read by truthiness, a string would run the certified path or the
    # invertibility check, or assert both shift-asymmetry hypotheses (which
    # sharpens the bound from d*r to r)
    ({"op": "ulrich", "rows": THREE_ROWS, "certify": "false"}, "certify"),
    ({"op": "certify", "subject": "X", "consequences": "yes"}, "consequences"),
    ({"op": "certify", "subject": "X", "spot_check": 1}, "spot_check"),
    ({"op": "hom-jets", "source": "X", "target": "X", "precision": 1,
      "check_invertible": "no"}, "check_invertible"),
    ({"op": "bound", "left": "X", "right": "Y", "refute_shifts": None}, "refute_shifts"),
    ({"op": "bound", "left": "X", "right": "Y", "asymmetric": ["no", "no"]}, "asymmetric"),
    ({"op": "bound", "left": "X", "right": "Y", "asymmetric": [True, 0]}, "asymmetric"),
])
def test_boolean_key_must_be_a_json_boolean(tmp_path, capsys, cmd, key):
    doc = dict(PIPELINE_DOC, commands=[{"op": "validate", "subject": "X"}, cmd])
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert "commands[1]" in err and repr(key) in err


@pytest.mark.parametrize("cmd, key", [
    ({"op": "shift", "subject": "X", "by": "a"}, "by"),
    ({"op": "validate", "subject": "X", "bogus": 1}, "bogus"),
    ({"op": "report", "out": "R"}, "out"),
])
def test_unknown_command_key_rejected(tmp_path, capsys, cmd, key):
    doc = dict(PIPELINE_DOC, commands=[{"op": "validate", "subject": "X"}, cmd])
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert "commands[1]" in err and repr(key) in err


def test_bool_conductor_rejected(tmp_path, capsys):
    doc = {"ring": {"conductor": True, "variables": ["x"]}, "commands": []}
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert "conductor" in err


RING = {"conductor": 3, "variables": ["x", "y"]}
FAC = {"f": "x*y", "matrices": [[["x"]], [["y"]]]}


@pytest.mark.parametrize("doc, where", [
    ({"ring": RING, "commands": [],
      "factorizations": {"X": {"f": "x*y", "matrices": [[["x", "0"], ["y"]], [["y"]]]}}},
     "factorizations.X.matrices[0][1]"),
    ({"ring": {"conductor": 3, "variables": ["x", "z"]}, "polynomials": {"f": "x"},
      "commands": []}, "ring"),
    ({"ring": RING, "commands": [], "factorizations": {"X": FAC},
      "morphisms": {"e": {"source": ["X"], "target": "X",
                          "components": [[["1"]], [["1"]]]}}},
     "morphisms.e"),
    ({"ring": RING, "commands": [], "polynomials": ["x"]}, "polynomials"),
    ({"ring": RING, "commands": [], "factorizations": [FAC]}, "factorizations"),
    ({"ring": RING, "commands": [], "morphisms": "e"}, "morphisms"),
    ({"ring": RING, "commands": [{"op": "ulrich", "rows": [["x", "y"], ["y"]]}]},
     "commands[0].rows"),
    ({"ring": RING, "commands": [{"op": "extension-ses", "rows": [["x"], ["x", "y"]]}]},
     "commands[0].rows"),
])
def test_malformed_document_exits_2_with_location(tmp_path, capsys, doc, where):
    # each of these used to exit 1, which reads as a failed verification:
    # as a ValueError, TypeError or AttributeError traceback, or (unequal
    # rows) as a FAIL report
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err.startswith(f"error: {where}: ")


def test_uncertified_ulrich_builds_the_tensor_once(tmp_path, capsys, count_calls,
                                                   count_tensors):
    from matfac.ulrich import build_from_sum

    builds = count_calls(build_from_sum)
    rows = [["x1", "x2", "x0"], ["y1", "y2", "y0"], ["z1", "z2", "z0"]]
    doc = dict(PIPELINE_DOC, commands=[
        {"op": "ulrich", "rows": rows, "certify": False, "out": "U"},
        {"op": "validate", "subject": "U"},
    ])
    rc, report = run_machine(tmp_path, capsys, doc)
    assert rc == 0 and [c["status"] for c in report["commands"]] == ["pass", "pass"]
    assert len(builds) == 1
    assert len(count_tensors) == len(rows) - 1


def test_certify_rebuilds_each_tensor_once(count_tensors):
    # the certificate's nodes are the stored tensors, checked by their
    # provenance: verifying it builds no tensor, and the consequences reuse
    # that verdict
    commands = PIPELINE_DOC["commands"]
    runner = Runner(parse_document(PIPELINE_DOC), None, 1)
    for i in (1, 8):  # tensor XY, then tensor XYZ
        runner.run_command(i, commands[i])
    count_tensors.clear()
    assert commands[9] == {"op": "certify", "subject": "XYZ", "consequences": True}
    result = runner.run_command(9, commands[9])
    assert result.status == "pass" and result.data["problems"] == []
    assert count_tensors == []


@pytest.mark.parametrize("partition", [
    [[[0], [1.9, 2]], [["0"], [True, 2]]],  # int() read both rows as [[0], [1, 2]]
    [["0", "12"], [[0], [1, 2]]],           # a string block read as its digits
    [[[0], [1, 2.0]], [[0], [1, 2]]],
    [[[0], 1], [[0], [1, 2]]],
    "0|12",
])
def test_partition_indices_must_be_json_integers(tmp_path, capsys, partition):
    doc = dict(PIPELINE_DOC, commands=[
        {"op": "ulrich", "rows": THREE_ROWS, "partition": [[[0], [1, 2]]] * 2},
        {"op": "ulrich", "rows": THREE_ROWS, "partition": partition},
    ])
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err.startswith("error: commands[1].partition: ")
    rc, report = run_machine(tmp_path, capsys, dict(doc, commands=doc["commands"][:1]))
    assert rc == 0 and report["commands"][0]["status"] == "pass"


@pytest.mark.parametrize("doc, cmd", [
    (PIPELINE_DOC, {"op": "hom-jets", "source": "X", "target": "X"}),
    (KNORRER_DOC, {"op": "split-idempotent", "subject": "XX", "idempotent": "e"}),
])
@pytest.mark.parametrize("precision", [0, True, "1"])
def test_bad_precision_names_its_command(tmp_path, capsys, doc, cmd, precision):
    doc = dict(doc, commands=[{"op": "validate", "subject": "X"},
                              dict(cmd, precision=precision)])
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err.startswith("error: commands[1]: 'precision' must be a positive integer")


@pytest.mark.parametrize("start", [True, "1", None])
def test_bad_start_is_rejected_before_the_build(tmp_path, capsys, count_calls, start):
    from matfac.ulrich import build_from_sum

    builds = count_calls(build_from_sum)
    doc = dict(PIPELINE_DOC, commands=[
        {"op": "extension-ses", "rows": THREE_ROWS, "start": start}])
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err.startswith("error: commands[0]: 'start' must be an integer")
    assert builds == []


# -- bounded messages, bounded rings ----------------------------------------------


@pytest.mark.parametrize("doc, where", [
    ({"ring": RING, "polynomials": {"p": list(range(100_000))}, "commands": []},
     "polynomials.p"),
    ({"ring": RING, "factorizations": {"X": FAC},
      "commands": [{"op": "validate", "subject": "X" * 100_000}]}, "commands[0]"),
    ({"ring": RING, "commands": [{"op": "o" * 100_000}]}, "commands[0]"),
    ({"ring": RING, "commands": [], "polynomials": {"p" * 100_000: 1}},
     "polynomials." + "p" * 60 + "... (100000 characters)"),
    ({"ring": RING, "commands": [],
      "factorizations": {"X" * 100_000: {"f": 1, "matrices": FAC["matrices"]}}},
     "factorizations." + "X" * 60 + "... (100000 characters).f"),
    ({"ring": RING, "commands": [], "factorizations": {"X": FAC}, "morphisms": {"e" * 100_000: 1}},
     "morphisms." + "e" * 60 + "... (100000 characters)"),
])
def test_oversized_values_are_quoted_short(tmp_path, capsys, doc, where):
    # the quoted value is cut and the cut marked, and so is a long declared
    # name in the location
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err.startswith(f"error: {where}: ")
    assert len(err.encode()) < 1024
    assert "characters)" in err


def test_short_values_are_quoted_whole(tmp_path, capsys):
    doc = {"ring": RING, "factorizations": {"X": FAC},
           "commands": [{"op": "validate", "subject": "Y"}]}
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err == "error: commands[0]: unknown factorization 'Y'\n"


def test_quote_cuts_long_reprs_only():
    from matfac.errors import _QUOTE_MAX, _quote

    assert _quote("x") == "'x'"
    edge = "y" * (_QUOTE_MAX - 2)
    assert _quote(edge) == repr(edge)
    long = "y" * (_QUOTE_MAX - 1)
    assert _quote(long) == repr(long)[:_QUOTE_MAX] + f"... ({_QUOTE_MAX + 1} characters)"


def test_conductor_above_the_maximum_exits_2_at_once(tmp_path):
    # in a child process with a timeout: without the maximum the field's
    # tables take far longer than any test should run
    import time

    doc = write_doc(tmp_path, {"ring": {"conductor": 100_003, "variables": ["x"]},
                               "commands": []})
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "matfac.cli", "run", doc],
                          capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ring: conductor 100003 exceeds the maximum")


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.load converts every integer literal; past the interpreter's digit
    # limit that is a ValueError, not a JSONDecodeError
    path = tmp_path / "big.json"
    path.write_text('{"ring": {"conductor": ' + "1" * 5000 + ', "variables": ["x"]},'
                    ' "commands": []}', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: document is not valid JSON: ")


def test_document_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"ring": "\xe9"}')
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: document is not valid JSON: ")


@pytest.mark.parametrize("variables", [["x\u00b7y"], ["e\u0301"], ["a\u203fb"], ["1x"],
                                       ["x", "x"]])
def test_unreadable_ring_variable_names_exit_2_at_ring(tmp_path, capsys, variables):
    # before, x·y and friends were accepted, and the document failed at its
    # first polynomial with "unexpected character"
    doc = {"ring": {"conductor": 3, "variables": variables},
           "polynomials": {"p": variables[0]}, "commands": []}
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err.startswith("error: ring: ")
    assert "variable name" in err


@pytest.mark.parametrize("doc, message", [
    ({"ring": RING, "commands": [],
      "factorizations": {"X": {"f": "x*y", "matrices": [[["x", "y"]], [["y"]]]}}},
     "factorizations.X: all factors must be 1x1; got (1, 2)"),
    ({"ring": RING, "commands": [], "factorizations": {"X": FAC},
      "morphisms": {"e": {"source": "X", "target": "X", "components": [[["1"]]]}}},
     "morphisms.e: need 2 components, got 1"),
    ({"ring": RING, "commands": [], "factorizations": {"X": FAC, "Y": {
        "f": "x^2", "matrices": [[["x"]], [["x"]]]}},
      "morphisms": {"e": {"source": "X", "target": "Y", "components": [[["1"]], [["1"]]]}}},
     "morphisms.e: morphism endpoints must share ring, d, and f"),
    ({"ring": RING, "factorizations": {"X": FAC},
      "commands": [{"op": "split-idempotent", "subject": "X", "idempotent": "e"}]},
     "commands[0]: unknown morphism 'e'"),
], ids=["factorization", "morphism-count", "morphism-endpoints", "unknown-morphism"])
def test_constructor_refusals_exit_2_with_location(tmp_path, capsys, doc, message):
    rc, err = run_machine(tmp_path, capsys, doc)
    assert rc == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("cmd, summary", [
    ({"op": "ulrich", "rows": [["x1", "1"], ["y1", "y2"]]},
     "malformed sum of products: factor 1 is a unit (nonzero constant term)"),
    ({"op": "scale", "subject": "X", "units": ["x1", "1", "1"]}, "unit 0 is not a scalar: x1"),
], ids=["unit-factor", "non-scalar-unit"])
def test_unusable_command_values_fail_the_command(tmp_path, capsys, cmd, summary):
    rc, rep = run_machine(tmp_path, capsys, dict(PIPELINE_DOC, commands=[cmd]))
    assert rc == 1
    assert rep["commands"][0]["status"] == "fail"
    assert rep["commands"][0]["summary"] == summary


def test_knorrer_at_odd_d_bootstraps_from_the_d_th_root(tmp_path, capsys):
    # conductor 3 holds no primitive 6th root but -zeta_3 is one
    doc = {"ring": {"conductor": 3, "variables": ["x", "y"]},
           "factorizations": {
               "X": {"f": "x^3", "matrices": [[["x"]], [["x"]], [["x"]]]},
               "Y": {"f": "y^3", "matrices": [[["y"]], [["y"]], [["y"]]]}},
           "commands": [{"op": "knorrer", "left": "X", "right": "Y"}]}
    rc, rep = run_machine(tmp_path, capsys, doc)
    assert rc == 0
    assert rep["commands"][0]["data"]["witnesses_invertible"] is True


def test_certify_spot_check_and_asserted_asymmetry(tmp_path, capsys):
    doc = dict(PIPELINE_DOC, commands=[
        {"op": "certify", "subject": "X", "spot_check": True},
        {"op": "bound", "left": "X", "right": "Y", "asymmetric": [True, False]},
    ])
    rc, rep = run_machine(tmp_path, capsys, doc)
    assert rc == 0
    certify, bound = rep["commands"]
    assert certify["data"]["constant_term_spot_check"] is True
    assert bound["data"]["shift_asymmetric"] == [True, False]


# -- robustness: mutated cli-docs documents ------------------------------------------

# Values of every JSON type, none above 3: unbounded inputs (a precision of
# 10^6, a power of 5000) are refused by no budget yet, so none is drawn.
_SUBSTITUTES = [None, True, False, 0, 3, -1, "", "X", "x^3", [], {}, ["1"], [[["1"]]],
                {"op": "report"}]


def _values(value, path=()):
    """(path, value) for every value in a document, the path being the keys
    and indices from the top."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _values(item, path + (key,))


def _replaced(value, path, new):
    """A copy of value with the value at path replaced by new."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _declared(doc) -> list:
    """The names a document declares or stores under "out"."""
    return sorted({*doc.get("factorizations", ()), *doc.get("morphisms", ()),
                   *(c["out"] for c in doc["commands"] if "out" in c)})


def _run_mutated(tmp_path, canonical_calls, doc, zeta) -> int:
    """Run doc through main with `--format machine --report`; main returns
    0, 1 or 2, and a run that reaches its report serialises it once and
    writes the same bytes to stdout and the file."""
    path, report = tmp_path / "doc.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report.unlink(missing_ok=True)
    canonical_calls.clear()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(["run", str(path), "--format", "machine", "--report", str(report),
                   "--zeta", str(zeta)])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert not canonical_calls and not report.exists()
    else:
        assert len(canonical_calls) == 1
        assert report.read_bytes() == out.getvalue().encode("utf-8")
    return rc


@pytest.fixture
def cli_docs(workloads) -> dict:
    return {name: (doc, zeta) for name, doc, zeta in workloads._cli_docs(workloads.DEFAULT_SEED)}


@pytest.fixture
def canonical_calls(count_calls) -> list:
    return count_calls(canonical_json)


# each exit status, from one mutation of each kind or none
@pytest.mark.parametrize("name, path, value, rc", [
    ("pipeline-z1", None, None, 0),
    ("pipeline-z2", ("commands", 4, "right"), "X", 1),      # a swap: X (x) X shares variables
    ("split-idempotent", ("commands", 1, "idempotent"), "XX", 2),   # a swap of kinds
    ("knorrer-d3", ("commands", 0, "subject"), 0, 2),
    ("hom-jets", ("commands", 2, "precision"), 3, 0),
    ("ulrich-plain", ("commands", 0, "rows", 1), [], 2),
])
def test_mutated_cli_docs_exit_0_1_or_2(tmp_path, canonical_calls, cli_docs, name, path, value,
                                        rc):
    doc, zeta = cli_docs[name]
    if path is not None:
        doc = _replaced(doc, path, value)
    assert _run_mutated(tmp_path, canonical_calls, doc, zeta) == rc


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_cli_docs_never_raise(tmp_path, canonical_calls, cli_docs, data):
    # type-changing values at any key, references swapped among the declared
    # names, and small integers
    name = data.draw(st.sampled_from(sorted(cli_docs)))
    doc, zeta = cli_docs[name]
    names = _declared(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        at = dict(_values(doc))
        targets = {
            "type": (list(at), st.sampled_from(_SUBSTITUTES)),
            "swap": ([p for p, v in at.items() if isinstance(v, str) and v in names],
                     st.sampled_from(names)),
            "int": ([p for p, v in at.items() if type(v) is int], st.integers(-3, 3)),
        }
        kind = data.draw(st.sampled_from([k for k, (paths, _) in targets.items() if paths]))
        paths, values = targets[kind]
        event(kind)
        doc = _replaced(doc, data.draw(st.sampled_from(paths)), data.draw(values))
    rc = _run_mutated(tmp_path, canonical_calls, doc, zeta)
    event(f"exit {rc}")


def _with_command(doc, cmd):
    """doc with cmd inserted before its closing report command."""
    return dict(doc, commands=doc["commands"][:-1] + [cmd, doc["commands"][-1]])


@pytest.mark.parametrize("name, conductor, extra, statuses, summaries", [
    # Q(zeta_3) holds no primitive 4th root, so knorrer fails and binds no
    # Zp; the shift of Zp then binds no TZp
    ("knorrer-d2", 3, {"op": "validate", "subject": "TZp"},
     ["pass", "pass", "fail", "fail", "fail", "pass", "pass", "fail", "pass"],
     {3: "factorization 'Zp' was not produced: commands[2] (knorrer) failed",
      4: "factorization 'Zp' was not produced: commands[2] (knorrer) failed",
      7: "factorization 'TZp' was not produced: commands[4] (shift) failed"}),
    # certifying rows with a sum in an entry is refused, and binds no U
    ("ulrich-certify", None, {"op": "validate", "subject": "U"},
     ["refused", "pass", "pass", "pass", "pass", "fail", "pass"],
     {5: "factorization 'U' was not produced: commands[0] (ulrich) was refused"}),
])
def test_a_name_a_failed_command_did_not_bind_fails_the_commands_naming_it(
        tmp_path, capsys, cli_docs, name, conductor, extra, statuses, summaries):
    # the run goes on and ends with its report, exit 1, instead of exiting 2
    # at the first command that names the missing output
    doc, zeta = cli_docs[name]
    if conductor is not None:
        doc = dict(doc, ring=dict(doc["ring"], conductor=conductor))
    rc, rep = run_machine(tmp_path, capsys, _with_command(doc, extra), "--zeta", str(zeta))
    assert rc == 1 and rep["exit_status"] == 1
    assert [c["status"] for c in rep["commands"]] == statuses
    assert {i: rep["commands"][i]["summary"] for i in summaries} == summaries


@pytest.mark.parametrize("out", ["", "f"])
def test_an_out_name_store_refuses_stays_unknown_after_a_failed_command(tmp_path, capsys,
                                                                        cli_docs, out):
    # the knorrer command fails before its out name is checked; a name it
    # could never have bound (empty, or a document polynomial's) is no
    # output it did not produce, so the command naming it ends the run
    doc, zeta = cli_docs["knorrer-d2"]
    commands = [dict(c) for c in doc["commands"]]
    commands[2]["out"] = commands[3]["subject"] = out
    doc = dict(doc, ring=dict(doc["ring"], conductor=3), polynomials={"f": "x"},
               commands=commands)
    rc, err = run_machine(tmp_path, capsys, doc, "--zeta", str(zeta))
    assert rc == 2 and f"commands[3]: unknown factorization {out!r}" in err
