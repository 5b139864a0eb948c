"""The four benchmark workloads: seeded inputs, fixed op lists, expected outcomes.

A workload is built from a seed into a list of tasks.  A task is one
public-API call plus its result check (on `cli-docs`, one document whose
commands are the ops).  Running a task yields one record per op:
(name, (start, end), outcome), with `time.perf_counter` stamps.  The outcome is a small comparable value; the
expected outcome of every op is derived from invariants of the input's shape,
so it holds for every seed.  The seed permutes the names of the variables
(each position of the ring keeps its role, so term orders and elimination
orders are unchanged) and sets the signs of the linear forms; op sizes, and
therefore costs, do not depend on it.  Every twist is the canonical primitive
root: other primitive roots have denser coordinate vectors in the power
basis, and measurably change the cost of the same op.

Every call goes through a module attribute of `matfac` (never a name bound
at import time), so the tracer sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

import matfac as mf
import matfac.cli as mcli

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
GOLDEN_FILE = HERE / "golden_cli.json"


@dataclass
class Task:
    name: str
    run: object             # () -> list[(op name, (start, end), outcome)]
    expected: dict          # op name -> expected outcome


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    largest: str            # name of the op reported as largest_s
    # Called after each pass with that pass's records (cli-docs pins the
    # first render's report bytes as the reference for later renders).
    after_pass: object = None
    selfcheck_task: int = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _api_task(name: str, fn, expected) -> Task:
    def run():
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except mf.Refusal:
            outcome = ("refused",)
        except Exception as e:  # any other exception is a failed op
            outcome = ("error", type(e).__name__, str(e)[:200])
        return [(name, (t0, time.perf_counter()), outcome)]
    return Task(name, run, {name: expected})


def _renaming(rng: random.Random, roles: list[str]) -> dict[str, str]:
    """A seeded permutation of the variable names among their roles."""
    names = list(roles)
    rng.shuffle(names)
    return dict(zip(roles, names))


def _ring(rng: random.Random, conductor: int, roles: list[str]):
    """The ring on `roles`, renamed; returns it with role -> variable."""
    name = _renaming(rng, roles)
    ring = mf.PolynomialRing(mf.cyclotomic_field(conductor), [name[r] for r in roles])
    return ring, lambda role: ring.variable(name[role])


# -- ulrich ------------------------------------------------------------------------

ULRICH_MONOMIAL = [(3, 2), (4, 2), (3, 3), (2, 4), (2, 5), (2, 6)]
ULRICH_LINEAR = [(3, 3), (4, 2)]


# Rows of k entries live over Q(zeta_k), which holds the primitive k-th root
# the twist needs (k = 2 gives Q itself).


def _monomial_spec(rng, n_rows: int, k: int):
    ring, var = _ring(rng, k, [f"x{i}_{j}" for i in range(n_rows) for j in range(k)])
    rows = [[var(f"x{i}_{j}") for j in range(k)] for i in range(n_rows)]
    return mf.sum_of_products(ring, rows)


def _linear_spec(rng, n_rows: int, k: int):
    """Rows (x_i0 +- x_i1) * x_i1 * ... * x_i(k-1): one dense linear factor each."""
    ring, var = _ring(rng, k, [f"x{i}_{j}" for i in range(n_rows) for j in range(k)])
    rows = []
    for i in range(n_rows):
        sign = rng.choice((1, -1))
        first = var(f"x{i}_0") + var(f"x{i}_1") * sign
        rows.append([first] + [var(f"x{i}_{j}") for j in range(1, k)])
    return mf.sum_of_products(ring, rows)


def _stats(stats) -> dict:
    return {"mu": stats.mu, "rank_R": stats.rank_R, "ulrich": stats.ulrich,
            "ratio": str(stats.ratio)}


def _ulrich_expected(n_rows: int, k: int) -> dict:
    """mu = k^(N-1) generators, rank k^(N-2), Ulrich (mu = e) since ord(f) = k."""
    return {"mu": k ** (n_rows - 1), "rank_R": k ** (n_rows - 2), "ulrich": True, "ratio": "1"}


def build_ulrich(seed: int) -> Workload:
    rng = _rng("ulrich", seed)
    tasks = []
    for n_rows, k in ULRICH_MONOMIAL:
        spec = _monomial_spec(rng, n_rows, k)

        def indecomposable(spec=spec):
            ub = mf.indecomposable_ulrich(spec)
            return {**_stats(ub.stats), "problems": ub.certificate.problems(),
                    "size": ub.presentation.size}

        tasks.append(_api_task(
            f"indecomposable-{n_rows}x{k}", indecomposable,
            {**_ulrich_expected(n_rows, k), "problems": [], "size": k ** (n_rows - 1)}))
        if k >= 3:
            def ses(spec=spec):
                s = mf.extension_ses(mf.build_from_sum(spec)[0])
                return {"commute": s.squares_commute, "sub": _stats(s.l_stats),
                        "middle": str(s.m_stats.ratio), "quotient": _stats(s.n_stats)}

            tasks.append(_api_task(
                f"extension-{n_rows}x{k}", ses,
                {"commute": True, "sub": _ulrich_expected(n_rows, k), "middle": "1/2",
                 "quotient": _ulrich_expected(n_rows, k)}))
    for n_rows, k in ULRICH_LINEAR:
        spec = _linear_spec(rng, n_rows, k)

        def build(spec=spec):
            pres, stats = mf.build_ulrich(spec)
            return {**_stats(stats), "size": pres.size, "note": stats.note}

        tasks.append(_api_task(
            f"linear-build-{n_rows}x{k}", build,
            {**_ulrich_expected(n_rows, k), "size": k ** (n_rows - 1), "note": None}))
    # Non-monomial entries admit no indecomposability certificate: must refuse.
    spec = _linear_spec(rng, 4, 2)
    tasks.append(_api_task("linear-refuse-4x2",
                           lambda: mf.indecomposable_ulrich(spec),
                           ("refused",)))
    return Workload("ulrich", tasks, largest="linear-build-4x2")


# -- knorrer -----------------------------------------------------------------------

# The grid is d = 2..7 at ranks (1,1) plus ranks (2,2) at d = 2, 3, 4 and 7; the
# rest of rank (2,2) is trimmed to keep a pass near ten seconds, and d = 7 at
# rank (2,2) stays as the largest op.
KNORRER_GRID = [(d, 1) for d in range(2, 8)] + [(d, 2) for d in (2, 3, 4, 7)]
ROOT_SUM_DS = range(2, 9)


def _omega_context(d: int):
    return mf.omega_context(d, omega=mf.cyclotomic_field(2 * d).zeta(1))


def _symmetric_pair(rng, d: int, rank: int):
    ctx = _omega_context(d)
    ring, var = _ring(rng, 2 * d, ["x", "y"])
    out = []
    for role in ("x", "y"):
        v = var(role)
        one = mf.MatFac(ring, v ** d, [mf.Matrix(ring, [[v]])] * d)
        fac = one
        for _ in range(rank - 1):
            fac = fac.direct_sum(one)
        out.append(fac)
    return out[0], out[1], ctx


def _conjugate(z):
    """Complex conjugate in Q(zeta_m): zeta^i -> zeta^(-i)."""
    fld = z.field
    inverse = fld.zeta(1) ** (fld.m - 1)
    out = fld.zero()
    for i, c in enumerate(z.coeffs):
        if c:
            out = out + inverse ** i * c
    return out


def build_knorrer(seed: int) -> Workload:
    rng = _rng("knorrer", seed)
    tasks = []
    for d, rank in KNORRER_GRID:
        x, y, ctx = _symmetric_pair(rng, d, rank)

        def decompose(x=x, y=y, ctx=ctx):
            dec = mf.decompose_symmetric(x, y, ctx)
            return {"summand_x_d": dec.summand.n * ctx.d,
                    "tensor_rank": dec.forward.source.n,
                    "passed": dec.report.passed,
                    "morphisms": (dec.forward.is_morphism(), dec.backward.is_morphism()),
                    "isomorphisms": (dec.forward.is_isomorphism(), dec.backward.is_isomorphism())}

        tensor_rank = d * rank * rank
        tasks.append(_api_task(
            f"decompose-d{d}-r{rank}", decompose,
            {"summand_x_d": tensor_rank, "tensor_rank": tensor_rank, "passed": True,
             "morphisms": (True, True), "isomorphisms": (True, True)}))
    for d in ROOT_SUM_DS:
        ctx = _omega_context(d)

        def sums(ctx=ctx):
            d = ctx.d
            norms = [s * _conjugate(s) == ctx.field.rational(d)
                     for s in (mf.root_sum(ctx, t) for t in range(2 * d) if (t + d) % 2 == 0)]
            alphas = [mf.alpha_matrix(ctx, k) for k in range(d)]
            return {"root_sums": len(norms), "norms_are_d": all(norms),
                    "alphas_invertible": [a.shape == (d, d) and not a.det().is_zero()
                                          for a in alphas]}

        tasks.append(_api_task(f"root-sums-d{d}", sums,
                               {"root_sums": d, "norms_are_d": True,
                                "alphas_invertible": [True] * d}))
    return Workload("knorrer", tasks, largest="decompose-d7-r2")


# -- jet-refute --------------------------------------------------------------------

JET_TENSORS = [(3, 2), (4, 2), (3, 3)]
JET_PRECISION = 2


def _rank_one(ring, entries):
    f = ring.one()
    for e in entries:
        f = f * e
    return mf.MatFac(ring, f, [mf.Matrix(ring, [[e]]) for e in entries])


def coprime_tensor(rng, n_rows: int, k: int):
    spec = _monomial_spec(rng, n_rows, k)
    zeta = spec.ring.field.root_of_unity(k)
    x = spec.row_factorization(0)
    for i in range(1, n_rows):
        x = mf.tensor(x, spec.row_factorization(i), zeta)
    return x


def build_jet_refute(seed: int) -> Workload:
    rng = _rng("jet-refute", seed)
    tasks = []
    for n_rows, k in JET_TENSORS:
        x = coprime_tensor(rng, n_rows, k)
        tasks.append(_api_task(
            f"refute-{n_rows}x{k}",
            lambda x=x: mf.jet_refute_shift_iso(x, JET_PRECISION).refuted,
            {i: True for i in range(1, k)}))
    # The symmetric rank-one (x1, x1, x1) is isomorphic to its shifts: nothing
    # may be refuted, which runs the symbolic determinant of the candidates.
    ring, var = _ring(rng, 3, ["x1"])
    sym = _rank_one(ring, [var("x1")] * 3)
    tasks.append(_api_task(
        "symmetric-rank-one",
        lambda: mf.jet_refute_shift_iso(sym, JET_PRECISION).refuted,
        {1: False, 2: False}))
    ring, var = _ring(rng, 3, ["x1", "x2", "x0", "y1", "y2", "y0"])
    xf = _rank_one(ring, [var(v) for v in ("x1", "x2", "x0")])
    yf = _rank_one(ring, [var(v) for v in ("y1", "y2", "y0")])
    zeta = ring.field.zeta(1)
    xy, yx = mf.tensor(xf, yf, zeta), mf.tensor(yf, xf, zeta)
    for p in (1, 2):
        tasks.append(_api_task(
            f"swap-hom-p{p}",
            lambda p=p: mf.admits_invertible_combination(mf.hom_space_jets(xy, yx, p)),
            False))
    return Workload("jet-refute", tasks, largest="refute-3x3")


# -- cli-docs ----------------------------------------------------------------------

PIPELINE_VARS = ["x1", "x2", "x0", "y1", "y2", "y0", "z1", "z2", "z0"]
PIPELINE_ROWS = [["x1", "x2", "x0"], ["y1", "y2", "y0"], ["z1", "z2", "z0"]]


def _pipeline_doc() -> dict:
    return {
        "ring": {"conductor": 3, "variables": PIPELINE_VARS},
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
            {"op": "ulrich", "rows": PIPELINE_ROWS, "out": "U"},
            {"op": "extension-ses", "rows": PIPELINE_ROWS},
            {"op": "report"},
        ],
    }


def _knorrer_doc(d: int) -> dict:
    return {
        "ring": {"conductor": 2 * d, "variables": ["x", "y"]},
        "factorizations": {
            "X": {"f": f"x^{d}", "matrices": [[["x"]]] * d},
            "Y": {"f": f"y^{d}", "matrices": [[["y"]]] * d},
        },
        "commands": [
            {"op": "validate", "subject": "X"},
            {"op": "validate", "subject": "Y"},
            {"op": "knorrer", "left": "X", "right": "Y", "out": "Zp"},
            {"op": "validate", "subject": "Zp"},
            {"op": "shift", "subject": "Zp", "steps": 1, "out": "TZp"},
            {"op": "tensor", "left": "X", "right": "Y", "out": "XY"},
            {"op": "det-check", "left": "X", "right": "Y"},
            {"op": "report"},
        ],
    }


def _split_doc() -> dict:
    return {
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
            {"op": "validate", "subject": "XX"},
            {"op": "split-idempotent", "subject": "XX", "idempotent": "e"},
            {"op": "knorrer", "left": "X", "right": "Y", "out": "Zp"},
            {"op": "report"},
        ],
    }


def _hom_doc() -> dict:
    return {
        "ring": {"conductor": 3, "variables": ["x1", "x2", "x0", "y1", "y2", "y0"]},
        "factorizations": {
            "X": {"f": "x1*x2*x0", "matrices": [[["x1"]], [["x2"]], [["x0"]]]},
            "Y": {"f": "y1*y2*y0", "matrices": [[["y1"]], [["y2"]], [["y0"]]]},
        },
        "commands": [
            {"op": "tensor", "left": "X", "right": "Y", "out": "XY"},
            {"op": "tensor", "left": "Y", "right": "X", "out": "YX"},
            {"op": "hom-jets", "source": "XY", "target": "YX", "precision": 1,
             "check_invertible": True},
            {"op": "hom-jets", "source": "XY", "target": "YX", "precision": 2,
             "check_invertible": True},
            {"op": "hom-jets", "source": "XY", "target": "XY", "precision": 1,
             "check_invertible": True},
            {"op": "bound", "left": "X", "right": "Y", "refute_shifts": True},
            {"op": "report"},
        ],
    }


def _ulrich_doc(rng, certify: bool) -> dict:
    """Three linear-form rows, (x_i0 +- x_i1) * x_i1, over Q(zeta_4)."""
    rows = [[f"x{i}_0 {rng.choice('+-')} x{i}_1", f"x{i}_1"] for i in range(3)]
    return {
        "ring": {"conductor": 4, "variables": [f"x{i}_{j}" for i in range(3) for j in range(2)]},
        "commands": [
            {"op": "ulrich", "rows": rows, "certify": certify, "out": "U"},
            {"op": "ulrich", "rows": rows, "certify": False, "out": "V"},
            {"op": "validate", "subject": "V"},
            {"op": "shift", "subject": "V", "steps": 1, "out": "TV"},
            {"op": "validate", "subject": "TV"},
            {"op": "report"},
        ],
    }


# Document sections whose strings are expressions in the ring's variables.
EXPRESSION_KEYS = {"variables", "polynomials", "f", "matrices", "components", "rows", "units"}


def _renamed(rng, doc: dict) -> dict:
    """The document with its variable names permuted among their roles."""
    name = _renaming(rng, doc["ring"]["variables"])
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, name)) + r")\b")

    def walk(value, expression: bool):
        if isinstance(value, str):
            return pattern.sub(lambda m: name[m.group()], value) if expression else value
        if isinstance(value, list):
            return [walk(v, expression) for v in value]
        if isinstance(value, dict):
            return {k: walk(v, expression or k in EXPRESSION_KEYS) for k, v in value.items()}
        return value

    return walk(doc, False)


def _cli_docs(seed: int) -> list[tuple[str, dict, int]]:
    """(name, document, --zeta power).  The pipeline runs at the powers 1 and
    2; the seed renames the variables and sets the signs of the linear forms."""
    rng = _rng("cli-docs", seed)
    docs = [("pipeline-z1", _pipeline_doc(), 1), ("pipeline-z2", _pipeline_doc(), 2)]
    docs += [(f"knorrer-d{d}", _knorrer_doc(d), 1) for d in (2, 3, 4)]
    docs += [("split-idempotent", _split_doc(), 1), ("hom-jets", _hom_doc(), 1),
             ("ulrich-certify", _ulrich_doc(rng, True), 1),
             ("ulrich-plain", _ulrich_doc(rng, False), 1)]
    return [(name, _renamed(rng, doc), zeta) for name, doc, zeta in docs]


def _expected_statuses(doc: dict) -> list[str]:
    """Every command passes, except that certifying rows with a non-monomial
    entry (one holding a sum) refuses."""
    return ["refused" if c["op"] == "ulrich" and c.get("certify", True)
            and any(sign in entry for row in c["rows"] for entry in row for sign in "+-")
            else "pass" for c in doc["commands"]]


def load_goldens() -> dict:
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _doc_task(name: str, doc: dict, path: Path, report: Path, zeta: int,
              golden: str | None) -> Task:
    argv = ["run", str(path), "--format", "machine", "--report", str(report),
            "--zeta", str(zeta)]
    op_names = [f"{name}/{i:02d}-{c['op']}" for i, c in enumerate(doc["commands"])]
    statuses = _expected_statuses(doc)

    def run():
        stamps = []
        # Re-read on every call so the tracer's wrapper, when installed, runs inside.
        inner = mcli.Runner.run_command

        def stamped(self, i, cmd):
            result = inner(self, i, cmd)
            stamps.append(time.perf_counter())
            return result

        out = io.StringIO()
        mcli.Runner.run_command = stamped
        try:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = mcli.main(argv)
                error = None
            except Exception as e:  # a traceback escaping main is a failure
                status, error = None, f"{type(e).__name__}: {e}"
            t_end = time.perf_counter()
        finally:
            mcli.Runner.run_command = inner
        if error is not None or len(stamps) != len(op_names):
            return [(op_names[-1], (t0, t_end), ("error", error or "commands missing"))]
        data = report.read_bytes()
        rep = json.loads(data)
        bounds = [t0] + stamps[:-1] + [t_end]
        records = []
        for i, op in enumerate(op_names):
            records.append((op, (bounds[i], bounds[i + 1]), rep["commands"][i]["status"]))
        records[-1] = (op_names[-1], records[-1][1], {
            "status": rep["commands"][-1]["status"],
            "exit": status, "failed": rep["failed"], "refused": rep["refused"],
            "stdout_is_report": out.getvalue().encode("utf-8") == data,
            "report_sha256": hashlib.sha256(data).hexdigest(),
        })
        return records

    expected = dict(zip(op_names, statuses))
    expected[op_names[-1]] = {
        "status": statuses[-1], "exit": 0, "failed": 0,
        "refused": statuses.count("refused"), "stdout_is_report": True,
        "report_sha256": golden,
    }
    return Task(name, run, expected)


def build_cli_docs(seed: int, workdir: Path, goldens: dict | None = None) -> Workload:
    wl = Workload("cli-docs", [], largest="pipeline-z1/13-extension-ses", selfcheck_task=5)
    # At the default seed the report bytes must equal the recorded goldens;
    # at any seed, every later render must equal the first one of the run.
    if goldens is None:
        goldens = load_goldens() if seed == DEFAULT_SEED else {}
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc, zeta in _cli_docs(seed):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        wl.tasks.append(_doc_task(name, doc, path, workdir / f"{name}.report.json", zeta,
                                  goldens.get(name)))

    def pin_first_render(records):
        for task in wl.tasks:
            last = list(task.expected)[-1]
            want = task.expected[last]
            if want["report_sha256"] is None:
                for op, _, outcome in records:
                    if op == last and isinstance(outcome, dict):
                        want["report_sha256"] = outcome["report_sha256"]

    wl.after_pass = pin_first_render
    return wl


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "cli-docs":
        return build_cli_docs(seed, workdir)
    return BUILDERS[name](seed)


BUILDERS = {"ulrich": build_ulrich, "knorrer": build_knorrer, "jet-refute": build_jet_refute}
NAMES = ["ulrich", "knorrer", "jet-refute", "cli-docs"]
