"""Source-level checks on the package itself."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import matfac


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a certificate check written as
    # one would silently switch off; every check must be an explicit raise.
    found = []
    for path in sorted(Path(matfac.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_private_function_is_called():
    # code that nothing calls is deleted: every private `def _name` (dunders
    # aside) must be named somewhere in the package outside its own body
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(Path(matfac.__file__).parent.rglob("*.py"))]

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    used = Counter(name for tree in trees for name in names(tree))
    unused = [
        f"{node.name} (line {node.lineno})"
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and used[node.name] == names(node).count(node.name)
    ]
    assert unused == []


# Exported functions that the workloads and the acceptance gate do not
# reach, each kept for its reason
UNREACHED_FUNCTIONS = {
    # bound by the benchmark tracer's ENTRIES, which
    # test_every_tracer_entry_resolves checks; it goes when Knorrer
    # decomposition of a tensor to its summand bound replaces it
    "block_diagonalize",
    # decides whether P (x) Y is again a sum of projectives, a question of
    # the paper, until a CLI op exposes it
    "is_projective_tensor",
    # the structural half of that decision: the shifts of a sum of
    # projectives
    "recognize_projective_sum",
    # the rank-one projective generators, which that decision compares with
    "projective",
}

# Methods (Class.name) that the workloads and the acceptance gate do not
# reach, each kept for its reason
UNREACHED_METHODS = {
    # the tuple-keyed constructors of the public API (`ring.monomial(exps)`,
    # `Polynomial(ring, {exps: c})`) are built on these two
    "PolynomialRing.monomial",
    "PolynomialRing._pack",
    # read only by `recognize_projective_sum`, which is kept above
    "Polynomial.is_one",
}


def _methods(package: Path) -> dict[tuple[str, int], str]:
    """Every non-dunder method, property, classmethod and staticmethod
    defined in a class body of the package, keyed by (file, first line) as
    its code object records them: a decorated one starts at its first
    decorator."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))):
                        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                        found[str(path.resolve()), first] = f"{cls.name}.{node.name}"
    return found


def _reach_probe() -> dict:
    """One pass of the four benchmark workloads at the default seed, and
    every test of the acceptance gate, under a profiler that records each
    Python frame entered; returns the ops that ended in an error and the
    exported functions and methods that were never entered.

    It needs a fresh interpreter: cached set-up, such as a
    `cyclotomic_field` an earlier test built, would otherwise go unseen."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    called, outcomes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import workloads

        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.NAMES:
                wl = workloads.build(name, workloads.DEFAULT_SEED, Path(tmp))
                for task in wl.tasks:
                    outcomes += [(op, outcome) for op, _, outcome in task.run()]
        import test_acceptance

        with contextlib.redirect_stdout(io.StringIO()):
            for name, test in vars(test_acceptance).items():
                if name.startswith("test_"):
                    test()
    finally:
        sys.setprofile(None)
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
               for code in called}
    return {
        "errors": [[op, list(outcome)] for op, outcome in outcomes
                   if isinstance(outcome, tuple) and outcome[:1] == ("error",)],
        "functions": [name for name in matfac.__all__
                      if inspect.isfunction(fn := getattr(matfac, name))
                      and fn.__code__ not in called],
        "methods": [name for key, name in _methods(Path(matfac.__file__).parent).items()
                    if key not in entered],
    }


def test_every_function_and_method_is_reached(tmp_path):
    # code that nothing calls is deleted: every plain function in
    # matfac.__all__ and every method of the package runs in one pass of the
    # four benchmark workloads at the default seed or in the acceptance
    # gate, or it is kept above with its reason (and the lists hold nothing
    # else)
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = tmp_path / "reach.json"
    # -B: importing the workloads writes no __pycache__ under perfbench/
    proc = subprocess.run([sys.executable, "-B", __file__, str(out)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    reach = json.loads(out.read_text(encoding="utf-8"))
    assert reach["errors"] == []
    assert sorted(reach["functions"]) == sorted(UNREACHED_FUNCTIONS)
    assert sorted(reach["methods"]) == sorted(UNREACHED_METHODS)


def test_reports_are_written_by_memo_methods_or_derived():
    # a kept `_report` is either computed by its memo method or derived from
    # a stated lemma through `factorization._derived`: every assignment to
    # an attribute of that name sits in one of these
    writers = {"validate", "is_morphism", "_derived"}

    def writes_report(node):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        return any(isinstance(t, ast.Attribute) and t.attr == "_report"
                   for target in targets for t in ast.walk(target))

    def misplaced(node, func, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        found = [f"{where}:{node.lineno} in {func}"] if (
            writes_report(node) and func not in writers) else []
        for child in ast.iter_child_nodes(node):
            found += misplaced(child, func, where)
        return found

    found = []
    for path in sorted(Path(matfac.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += misplaced(tree, "<module>", path.name)
    assert found == []


def test_stored_forms_have_one_reader_module():
    # the stored rows of a Matrix and their dense read are read in linalg
    # only (everything else asks `Matrix.nonzero()` or the rest of its API),
    # as is the factored determinant (everything else asks `Matrix.det` or
    # `Matrix.det_as_power`), and the jet hom-space layout in morphisms only
    # (everything else asks `JetHomBasis`); a polynomial's terms are taken
    # unchecked (`Polynomial._of`) in rings only: another storage of any of
    # them changes one module
    owners = {"rows": "linalg.py", "_rows": "linalg.py",
              "_det": "linalg.py", "_det_power": "linalg.py",
              "_layout": "morphisms.py", "_JetLayout": "morphisms.py",
              "_of": "rings.py"}

    def names(node):
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.alias):
            return [node.name, node.asname]
        return []

    found = []
    for path in sorted(Path(matfac.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                  for name in names(node)
                  if name in owners and path.name != owners[name]
                  and (name != "rows" or isinstance(node, ast.Attribute))]
    assert found == []


def _grid_builders(tree):
    """Names of `Matrix.block` / `Matrix.zero`, and rows of repeated entries
    made in a comprehension (`[[z] * n for ...]`): the ways to lay out a
    grid of blocks or a zero-filled matrix to fill in."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("block", "zero")
                and isinstance(node.value, ast.Name) and node.value.id == "Matrix"):
            yield node.lineno, f"Matrix.{node.attr}"
        elif (isinstance(node, ast.ListComp) and isinstance(node.elt, ast.BinOp)
              and isinstance(node.elt.op, ast.Mult) and isinstance(node.elt.left, ast.List)):
            yield node.lineno, "zero-filled rows"


def test_block_grids_are_built_in_linalg_only():
    # a grid of blocks, a zero block to pad one, or a zero-filled matrix to
    # fill in is assembled in linalg only (`Matrix.block_diagonal`,
    # `Matrix.block_cyclic`, `Matrix.circulant`, `Matrix.weighted_permutation`),
    # so each block shape keeps one builder module
    found = []
    for path in sorted(Path(matfac.__file__).parent.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {what}" for line, what in _grid_builders(tree)]
    assert found == []


def test_acceptance_gate_passes_under_optimize():
    # `python -O` also sets __debug__ to False: a check guarded by it would
    # switch off there.  The acceptance gate checks good inputs only, so every
    # other test file runs under -O as well (all but this one, which would
    # start itself again): the ones that feed corrupted factorizations,
    # morphisms, root contexts, tampered certificates, failing builds and bad
    # documents to the checks, and the property tests against the oracles.
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    files = sorted(p for p in (root / "tests").glob("test_*.py")
                   if p.name != Path(__file__).name)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *map(str, files)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def tracer_entries() -> dict:
    """The benchmark tracer's ENTRIES table, read from its source without
    importing or executing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ENTRIES"])
    return ast.literal_eval(value)


def test_every_tracer_entry_resolves():
    # the tracer wraps each entry where it is defined: a function in its
    # module's namespace, a method in its own class body (not a base class)
    missing = []
    for entry, (modname, qualnames) in tracer_entries().items():
        module = importlib.import_module(modname)
        for qual in qualnames:
            owner_name, _, attr = qual.rpartition(".")
            owner = vars(module).get(owner_name) if owner_name else module
            if owner is None or attr not in vars(owner):
                missing.append(f"{entry}: {modname}.{qual}")
    assert missing == []


def test_every_mutant_still_applies():
    # the mutation record (tests/mutants.py) cannot rot silently: each
    # mutant's text occurs exactly once in its file, and each test it names
    # is a test function of its file
    import mutants

    root = Path(__file__).resolve().parents[1]
    stale = []
    for name, (file, text, _, tests) in mutants.MUTANTS.items():
        if (root / file).read_text(encoding="utf-8").count(text) != 1:
            stale.append(f"{name}: text not exactly once in {file}")
        for test in tests:
            path, _, func = test.partition("::")
            tree = ast.parse((root / path).read_text(encoding="utf-8"))
            if func not in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}:
                stale.append(f"{name}: no test {test}")
    assert stale == []


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(_reach_probe()), encoding="utf-8")
