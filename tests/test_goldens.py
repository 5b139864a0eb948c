"""The cli-docs machine reports are byte-identical to the recorded goldens.

ROADMAP defines "the same behaviour" by these bytes; the documents and their
sha256 digests live with the benchmark in perfbench/ (workloads._cli_docs,
golden_cli.json), which this test reads without writing anything there.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from matfac.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_cli_docs_reports_match_goldens(workloads, tmp_path, capsys):
    goldens = workloads.load_goldens()
    docs = workloads._cli_docs(workloads.DEFAULT_SEED)
    assert sorted(name for name, _, _ in docs) == sorted(goldens)
    digests = {}
    for name, doc, zeta in docs:
        path = tmp_path / f"{name}.json"
        report = tmp_path / f"{name}.report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["run", str(path), "--format", "machine", "--report", str(report),
                   "--zeta", str(zeta)])
        assert rc == 0, name
        digests[name] = hashlib.sha256(report.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == goldens
