"""Source-level checks on the package itself."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import matfac
from test_goldens import workloads  # noqa: F401 (the fixture that loads the workloads)


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


# Exported functions that no workload reaches and the acceptance gate does
# not import, each kept for its reason
UNREACHED_KEPT = {
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
    # cyclo's way to move an element from one conductor to another
    "embed",
}


def test_every_exported_function_is_reached(workloads, tmp_path):
    # code that nothing calls is deleted: every plain function in
    # matfac.__all__ runs in one pass of the four benchmark workloads at the
    # default seed, or the acceptance gate imports it by name, or it is kept
    # above with its reason (and the list holds nothing else)
    built = [workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
             for name in workloads.NAMES]
    called, outcomes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        for wl in built:
            for task in wl.tasks:
                outcomes += [(op, outcome) for op, _, outcome in task.run()]
    finally:
        sys.setprofile(saved)
    assert [(op, outcome) for op, outcome in outcomes
            if isinstance(outcome, tuple) and outcome[:1] == ("error",)] == []
    gate = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(gate) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "matfac" for alias in node.names}
    unreached = [name for name in matfac.__all__
                 if inspect.isfunction(fn := getattr(matfac, name))
                 and fn.__code__ not in called and name not in imported]
    assert sorted(unreached) == sorted(UNREACHED_KEPT)


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
    # `Matrix.block_cyclic`, `Matrix.weighted_permutation`), so each block
    # shape keeps one builder module
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
