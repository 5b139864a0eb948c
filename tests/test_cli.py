"""End-to-end tests for the problem-document CLI."""

import json
import subprocess
import sys

import pytest

from matfac.cli import (
    canonical_json,
    main,
    machine_report,
    parse_document,
    run_document,
    serialize_document,
)

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


def test_serialize_parse_round_trip():
    doc = parse_document(PIPELINE_DOC)
    ser = serialize_document(doc)
    again = serialize_document(parse_document(ser))
    assert canonical_json(ser) == canonical_json(again)
    # canonical form normalizes polynomial spelling but keeps every name
    assert set(ser["factorizations"]) == {"X", "Y", "Z"}
    assert set(ser["morphisms"]) == set() or "morphisms" not in ser
    kn = serialize_document(parse_document(KNORRER_DOC))
    again_kn = serialize_document(parse_document(kn))
    assert canonical_json(kn) == canonical_json(again_kn)
    assert kn["morphisms"]["e"]["source"] == "XX"


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
