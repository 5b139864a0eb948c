"""Batch front end: run a problem document and report the results.

A problem document is one JSON file:

    {
      "ring": {"conductor": 3, "variables": ["x1", "x2", "x0"]},
      "polynomials": {"f": "x1*x2*x0"},
      "factorizations": {
        "X": {"f": "x1*x2*x0", "matrices": [[["x1"]], [["x2"]], [["x0"]]]}
      },
      "morphisms": {
        "e": {"source": "X", "target": "X", "components": [[["1"]], [["1"]], [["1"]]]}
      },
      "commands": [
        {"op": "validate", "subject": "X"},
        {"op": "tensor", "left": "X", "right": "Y", "out": "XY"}
      ]
    }

Polynomial values are expression strings (the field generator is `z`);
matrices are row-major arrays of such strings.  Commands run in order and
may store results under fresh names via "out".  Exit status: 0 when every
command passes or soundly refuses, 1 when any verification fails, 2 for
unusable input (JSON or expression syntax errors, unresolved names, bad
flags).  A refusal is not a failure: it means the toolkit declines to
assert something it cannot decide, and the report says so.

Machine reports are deterministic: the same document bytes produce the
same report bytes, because every value is rendered through the canonical
term order and container keys are sorted on output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cyclo import CycloElem, cyclotomic_field
from .errors import MatfacError, Refusal, UndecidableError
from .factorization import MatFac, scale_by_units
from .knorrer import decompose_symmetric, omega_context
from .linalg import Matrix
from .morphisms import (
    Morphism,
    admits_invertible_combination,
    hom_space_jets,
    split_idempotent,
)
from .rings import Polynomial, PolynomialRing
from .structure import (
    constant_term_spot_check,
    coprime_rank_one_cert,
    jet_refute_shift_iso,
    propagate_strong_ind,
    reduce_tensor_witness,
    strong_ind_consequences,
    summand_bound,
)
from .tensor import TensorMatFac, det_check, tensor
from .ulrich import build_from_sum, build_ulrich, extension_ses, indecomposable_ulrich, sum_of_products


class DocumentError(MatfacError):
    """The problem document is unusable: bad JSON shape, bad expression,
    or a reference to a name that does not exist."""


KNOWN_OPS = (
    "validate", "tensor", "shift", "scale", "reduce", "det-check",
    "knorrer", "split-idempotent", "hom-jets", "certify", "bound",
    "ulrich", "extension-ses", "report",
)


# -- document parsing --------------------------------------------------------------


@dataclass
class ProblemDoc:
    ring: PolynomialRing
    polynomials: dict
    factorizations: dict
    morphisms: dict
    commands: list


def _expect(cond: bool, where: str, what: str):
    if not cond:
        raise DocumentError(f"{where}: {what}")


def _parse_poly(ring: PolynomialRing, text, where: str) -> Polynomial:
    _expect(isinstance(text, str), where, f"expected an expression string, got {text!r}")
    try:
        return ring.parse(text)
    except MatfacError as e:
        raise DocumentError(f"{where}: {e}") from e


def _parse_matrix(ring: PolynomialRing, rows, where: str) -> Matrix:
    _expect(isinstance(rows, list) and rows, where, "expected a nonempty array of rows")
    out = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and row, f"{where}[{i}]", "expected a nonempty row")
        out.append([_parse_poly(ring, s, f"{where}[{i}][{j}]") for j, s in enumerate(row)])
    return Matrix(ring, out)


def parse_document(data: dict) -> ProblemDoc:
    _expect(isinstance(data, dict), "document", "top level must be an object")
    allowed = {"ring", "polynomials", "factorizations", "morphisms", "commands"}
    for key in data:
        _expect(key in allowed, "document", f"unknown section {key!r}")
    _expect("ring" in data, "document", "missing required section 'ring'")
    _expect("commands" in data, "document", "missing required section 'commands'")

    rd = data["ring"]
    _expect(isinstance(rd, dict), "ring", "must be an object")
    _expect(isinstance(rd.get("conductor"), int), "ring", "needs an integer 'conductor'")
    variables = rd.get("variables")
    _expect(
        isinstance(variables, list) and variables
        and all(isinstance(v, str) for v in variables),
        "ring", "needs a nonempty 'variables' array of strings",
    )
    try:
        fld = cyclotomic_field(rd["conductor"])
        ring = PolynomialRing(fld, tuple(variables))
    except (MatfacError, ValueError) as e:
        raise DocumentError(f"ring: {e}") from e

    taken: set[str] = set()

    def claim(name, where):
        _expect(isinstance(name, str) and name, where, "names must be nonempty strings")
        _expect(name not in taken, where, f"name {name!r} is already in use")
        taken.add(name)

    polynomials = {}
    for name, text in (data.get("polynomials") or {}).items():
        claim(name, "polynomials")
        polynomials[name] = _parse_poly(ring, text, f"polynomials.{name}")

    factorizations = {}
    for name, spec in (data.get("factorizations") or {}).items():
        claim(name, "factorizations")
        where = f"factorizations.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        _expect("f" in spec and "matrices" in spec, where, "needs 'f' and 'matrices'")
        f = _parse_poly(ring, spec["f"], f"{where}.f")
        mats_in = spec["matrices"]
        _expect(isinstance(mats_in, list) and len(mats_in) >= 2, f"{where}.matrices",
                "expected an array of at least 2 matrices")
        mats = [_parse_matrix(ring, m, f"{where}.matrices[{k}]") for k, m in enumerate(mats_in)]
        try:
            factorizations[name] = MatFac(ring, f, mats)
        except (MatfacError, ValueError) as e:
            raise DocumentError(f"{where}: {e}") from e

    morphisms = {}
    for name, spec in (data.get("morphisms") or {}).items():
        claim(name, "morphisms")
        where = f"morphisms.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        for key in ("source", "target", "components"):
            _expect(key in spec, where, f"needs {key!r}")
        for end in ("source", "target"):
            _expect(spec[end] in factorizations, where,
                    f"{end} {spec[end]!r} is not a declared factorization")
        comps_in = spec["components"]
        _expect(isinstance(comps_in, list), f"{where}.components", "expected an array")
        comps = [_parse_matrix(ring, c, f"{where}.components[{k}]") for k, c in enumerate(comps_in)]
        try:
            morphisms[name] = Morphism(factorizations[spec["source"]],
                                       factorizations[spec["target"]], comps)
        except (MatfacError, ValueError) as e:
            raise DocumentError(f"{where}: {e}") from e

    commands = data["commands"]
    _expect(isinstance(commands, list), "commands", "must be an array")
    for i, cmd in enumerate(commands):
        _expect(isinstance(cmd, dict), f"commands[{i}]", "must be an object")
        op = cmd.get("op")
        _expect(op in KNOWN_OPS, f"commands[{i}]",
                f"unknown op {op!r}; known ops: {', '.join(KNOWN_OPS)}")

    return ProblemDoc(
        ring=ring,
        polynomials=polynomials,
        factorizations=factorizations,
        morphisms=morphisms,
        commands=list(commands),
    )


def serialize_document(doc: ProblemDoc) -> dict:
    """Canonical form of a document: every expression re-rendered in the
    canonical term order.  parse . serialize is the identity on these."""

    def mat_strings(m: Matrix):
        return [[str(p) for p in row] for row in m.rows]

    out = {
        "ring": {
            "conductor": doc.ring.field.m,
            "variables": list(doc.ring.vars),
        },
        "polynomials": {name: str(p) for name, p in doc.polynomials.items()},
        "factorizations": {
            name: {"f": str(x.f), "matrices": [mat_strings(m) for m in x.mats]}
            for name, x in doc.factorizations.items()
        },
        "morphisms": {},
        "commands": doc.commands,
    }
    for name, a in doc.morphisms.items():
        src = next(n for n, x in doc.factorizations.items() if x == a.source)
        tgt = next(n for n, x in doc.factorizations.items() if x == a.target)
        out["morphisms"][name] = {
            "source": src,
            "target": tgt,
            "components": [mat_strings(c) for c in a.comps],
        }
    return out


def canonical_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# -- command execution --------------------------------------------------------------


@dataclass
class CommandResult:
    index: int
    op: str
    status: str      # pass | fail | refused
    summary: str
    data: dict

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "op": self.op,
            "status": self.status,
            "summary": self.summary,
            "data": self.data,
        }


class Runner:
    def __init__(self, doc: ProblemDoc, precision: int | None, zeta_power: int):
        self.doc = doc
        self.ring = doc.ring
        self.precision = precision
        self.zeta_power = zeta_power
        self.facs = dict(doc.factorizations)
        self.mors = dict(doc.morphisms)
        self.results: list[CommandResult] = []

    # -- helpers -------------------------------------------------------------

    def fac(self, cmd, key, where) -> MatFac:
        name = cmd.get(key)
        _expect(isinstance(name, str), where, f"needs a factorization name under {key!r}")
        if name not in self.facs:
            raise DocumentError(f"{where}: unknown factorization {name!r}")
        return self.facs[name]

    def mor(self, cmd, key, where) -> Morphism:
        name = cmd.get(key)
        _expect(isinstance(name, str), where, f"needs a morphism name under {key!r}")
        if name not in self.mors:
            raise DocumentError(f"{where}: unknown morphism {name!r}")
        return self.mors[name]

    def store(self, cmd, value, where):
        name = cmd.get("out")
        if name is None:
            return
        _expect(isinstance(name, str) and name, where, "'out' must be a nonempty string")
        if name in self.facs or name in self.mors or name in self.doc.polynomials:
            raise DocumentError(f"{where}: out name {name!r} is already in use")
        self.facs[name] = value

    def twist(self, d: int) -> CycloElem:
        try:
            return self.ring.field.root_of_unity(d, self.zeta_power)
        except ValueError as e:
            raise MatfacError(str(e)) from e

    def cmd_precision(self, cmd) -> int | None:
        p = cmd.get("precision", self.precision)
        if p is not None and (not isinstance(p, int) or p < 1):
            raise DocumentError("'precision' must be a positive integer")
        return p

    def rows_spec(self, cmd, where):
        rows_in = cmd.get("rows")
        _expect(isinstance(rows_in, list) and len(rows_in) >= 2, where,
                "needs 'rows': an array of at least 2 arrays of expression strings")
        rows = []
        for i, row in enumerate(rows_in):
            _expect(isinstance(row, list) and row, f"{where}.rows[{i}]", "expected a nonempty array")
            rows.append([_parse_poly(self.ring, s, f"{where}.rows[{i}][{j}]")
                         for j, s in enumerate(row)])
        partition = cmd.get("partition")
        if partition is not None:
            try:
                partition = tuple(tuple(tuple(int(i) for i in grp) for grp in row) for row in partition)
            except (TypeError, ValueError) as e:
                raise DocumentError(f"{where}: malformed partition: {e}") from e
        spec = sum_of_products(self.ring, rows, partition)
        problems = spec.problems()
        if problems:
            raise MatfacError("malformed sum of products: " + "; ".join(problems))
        return spec

    # -- the ops ----------------------------------------------------------------

    def run_command(self, i: int, cmd: dict) -> CommandResult:
        op = cmd["op"]
        where = f"commands[{i}]"
        handler = getattr(self, "op_" + op.replace("-", "_"))
        try:
            status, summary, data = handler(cmd, where)
        except (Refusal, UndecidableError) as e:
            status, summary, data = "refused", str(e), {}
        except MatfacError as e:
            if isinstance(e, DocumentError):
                raise
            status, summary, data = "fail", str(e), {}
        return CommandResult(index=i, op=op, status=status, summary=summary, data=data)

    def op_validate(self, cmd, where):
        x = self.fac(cmd, "subject", where)
        rep = x.validate()
        entries = [
            {"start": e.start, "ok": e.ok, "detail": e.detail}
            for e in rep.entries
        ]
        bad = [e.start for e in rep.entries if not e.ok]
        summary = (f"all {x.d} cyclic products equal f*I" if rep.passed
                   else f"cyclic products starting at {bad} do not equal f*I")
        return ("pass" if rep.passed else "fail", summary,
                {"passed": rep.passed, "entries": entries, "rank": x.n, "d": x.d})

    def op_tensor(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        t = tensor(x, y, self.twist(x.d))
        ok = t.validate().passed
        self.store(cmd, t, where)
        return ("pass" if ok else "fail",
                f"rank {t.n} tensor of f = {x.f} and g = {y.f}",
                {"rank": t.n, "d": t.d, "f": str(t.f), "validates": ok})

    def op_shift(self, cmd, where):
        x = self.fac(cmd, "subject", where)
        steps = cmd.get("steps", 1)
        _expect(isinstance(steps, int), where, "'steps' must be an integer")
        y = x.shift(steps)
        ok = y.validate().passed
        self.store(cmd, y, where)
        return ("pass" if ok else "fail", f"shifted by {steps}",
                {"steps": steps, "rank": y.n, "validates": ok})

    def op_scale(self, cmd, where):
        x = self.fac(cmd, "subject", where)
        units_in = cmd.get("units")
        _expect(isinstance(units_in, list) and len(units_in) == x.d, where,
                f"'units' must list exactly d = {x.d} unit expressions")
        units = []
        for j, s in enumerate(units_in):
            p = _parse_poly(self.ring, s, f"{where}.units[{j}]")
            if p.total_degree() > 0:
                raise MatfacError(f"unit {j} is not a scalar: {p}")
            units.append(p.constant_term())
        scaled, witness = scale_by_units(x, units)
        ok = witness.is_morphism() and witness.is_isomorphism()
        self.store(cmd, scaled, where)
        return ("pass" if ok else "fail",
                "scaled by units with an exact isomorphism witness" if ok
                else "scaling witness failed",
                {"validates": scaled.validate().passed, "witness_is_isomorphism": ok})

    def op_reduce(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        side = cmd.get("side", "left")
        _expect(side in ("left", "right"), where, "'side' must be 'left' or 'right'")
        witness, rep = reduce_tensor_witness(x, y, self.twist(x.d), side)
        data = {
            "side": rep.side,
            "killed": list(rep.killed),
            "sum_matches_reduction": rep.sum_matches_reduction,
            "witness_is_isomorphism": rep.witness_is_isomorphism,
            "reduction_validates": rep.reduction_validates,
            "sum_validates": rep.sum_validates,
        }
        summary = ("reduction equals the shifted-copy sum with an exact witness"
                   if rep.passed else "reduction law failed")
        return ("pass" if rep.passed else "fail", summary, data)

    def op_det_check(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        rep = det_check(x, y, self.twist(x.d))
        entries = [{"k": e.k, "ok": e.ok, "determinant": str(e.determinant)}
                   for e in rep.entries]
        summary = (f"all {len(entries)} determinants equal the closed form"
                   if rep.passed else "determinant mismatch")
        return ("pass" if rep.passed else "fail", summary,
                {"expected": str(rep.expected), "entries": entries, "passed": rep.passed})

    def op_knorrer(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        d = x.d
        fld = self.ring.field
        if fld.m % (2 * d) == 0:
            ctx = omega_context(d, omega=fld.root_of_unity(2 * d, self.zeta_power))
        else:
            ctx = omega_context(d, zeta=self.twist(d))
        dec = decompose_symmetric(x, y, ctx)
        ok = (dec.report.passed
              and dec.forward.is_morphism() and dec.backward.is_morphism()
              and dec.forward.is_isomorphism() and dec.backward.is_isomorphism())
        self.store(cmd, dec.summand, where)
        return ("pass" if ok else "fail",
                f"split into {d} shifted copies of a rank-{dec.summand.n} factorization"
                if ok else "symmetric decomposition failed",
                {"summand_rank": dec.summand.n, "total_rank": dec.total.n,
                 "validates": dec.report.passed, "witnesses_invertible": ok})

    def op_split_idempotent(self, cmd, where):
        x = self.fac(cmd, "subject", where)
        e = self.mor(cmd, "idempotent", where)
        res = split_idempotent(x, e, self.cmd_precision(cmd))
        rank_c = res.complement.rank
        additive = res.rank_image + rank_c == x.n
        ok = (additive and res.image.validate().passed
              and res.complement.validate().passed and res.witness.is_isomorphism())
        return ("pass" if ok else "fail",
                f"split into ranks ({res.rank_image}, {rank_c})",
                {"rank_image": res.rank_image, "rank_complement": rank_c,
                 "rank_additive": additive, "summands_validate": ok})

    def op_hom_jets(self, cmd, where):
        s = self.fac(cmd, "source", where)
        t = self.fac(cmd, "target", where)
        basis = hom_space_jets(s, t, self.cmd_precision(cmd))
        data = {"dimension": len(basis.basis), "precision": basis.precision}
        summary = f"hom space has dimension {data['dimension']} at precision {data['precision']}"
        if cmd.get("check_invertible"):
            inv = admits_invertible_combination(basis)
            data["admits_invertible_combination"] = inv
            summary += ", admits an invertible combination" if inv else ", no invertible combination"
        return ("pass", summary, data)

    def _certify(self, x: MatFac):
        if isinstance(x, TensorMatFac):
            return propagate_strong_ind(self._certify(x.left), self._certify(x.right), x.zeta)
        return coprime_rank_one_cert(x)

    def op_certify(self, cmd, where):
        x = self.fac(cmd, "subject", where)
        cert = self._certify(x)
        problems = cert.problems()
        data = {"certificate": cert.as_dict(), "problems": problems}
        if cmd.get("spot_check"):
            data["constant_term_spot_check"] = constant_term_spot_check(x)
        if cmd.get("consequences"):
            rep = strong_ind_consequences(cert)
            data["claims"] = [
                {"claim": c.claim, "index": c.index, "detail": c.detail}
                for c in rep.claims
            ]
        ok = not problems and data.get("constant_term_spot_check", True)
        return ("pass" if ok else "fail",
                "strong indecomposability certified" if ok else "; ".join(problems) or
                "constant-term spot check failed",
                data)

    def op_bound(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        if cmd.get("refute_shifts"):
            p = self.cmd_precision(cmd) or 1
            flags = (jet_refute_shift_iso(x, p).all_refuted,
                     jet_refute_shift_iso(y, p).all_refuted)
        else:
            flags_in = cmd.get("asymmetric", [False, False])
            _expect(isinstance(flags_in, list) and len(flags_in) == 2, where,
                    "'asymmetric' must be a pair of booleans")
            flags = (bool(flags_in[0]), bool(flags_in[1]))
        b = summand_bound(x, y, flags)
        return ("pass",
                f"at most {b.bound} indecomposable summands, each of rank >= {b.min_summand_rank}",
                {"bound": b.bound, "min_summand_rank": b.min_summand_rank,
                 "basis": b.basis, "gcd": b.r, "shift_asymmetric": list(flags),
                 "hypotheses": list(b.hypotheses)})

    @staticmethod
    def _stats_dict(stats) -> dict:
        out = {
            "mu": stats.mu, "rank": stats.rank_R, "multiplicity": stats.e_R,
            "ord_f": stats.ord_f, "ulrich": stats.ulrich,
            "ratio": str(stats.ratio), "irreducible_asserted": stats.irreducible_asserted,
        }
        if stats.note:
            out["note"] = stats.note
        return out

    def op_ulrich(self, cmd, where):
        spec = self.rows_spec(cmd, where)
        zeta = self.ring.field.root_of_unity(spec.k, self.zeta_power)
        if cmd.get("certify", True):
            ub = indecomposable_ulrich(spec, zeta)
            self.store(cmd, ub.certificate.subject, where)
            data = {
                "f": str(spec.f),
                "stats": self._stats_dict(ub.stats),
                "presentation_size": ub.presentation.size,
                "uc_bound": ub.uc_bound,
                "uc_note": ub.uc_note,
                "certificate": ub.certificate.as_dict(),
                "claims": [
                    {"claim": c.claim, "index": c.index, "detail": c.detail}
                    for c in ub.consequences.claims
                ],
            }
            stats = ub.stats
        else:
            pres, stats = build_ulrich(spec, zeta)
            x, _ = build_from_sum(spec, zeta)
            self.store(cmd, x, where)
            data = {
                "f": str(spec.f),
                "stats": self._stats_dict(stats),
                "presentation_size": pres.size,
            }
        summary = (f"Ulrich module: mu = e = {stats.mu}" if stats.ulrich
                   else f"MCM module with mu = {stats.mu}, e = {stats.e_R} (ratio {stats.ratio})")
        return ("pass", summary, data)

    def op_extension_ses(self, cmd, where):
        spec = self.rows_spec(cmd, where)
        zeta = self.ring.field.root_of_unity(spec.k, self.zeta_power)
        x, rep = build_from_sum(spec, zeta)
        if not rep.passed:
            raise MatfacError("sum-of-products build failed verification")
        start = cmd.get("start", 1)
        _expect(isinstance(start, int), where, "'start' must be an integer")
        ses = extension_ses(x, start)
        data = {
            "squares_commute": ses.squares_commute,
            "sub": self._stats_dict(ses.l_stats),
            "middle": self._stats_dict(ses.m_stats),
            "quotient": self._stats_dict(ses.n_stats),
        }
        ok = ses.passed
        ends_ulrich = ses.l_stats.ulrich and ses.n_stats.ulrich
        summary = (f"extension of Ulrich modules with middle ratio {ses.m_stats.ratio}"
                   if ok and ends_ulrich else
                   f"extension computed; middle ratio {ses.m_stats.ratio}" if ok
                   else "commuting-square identity failed")
        return ("pass" if ok else "fail", summary, data)

    def op_report(self, cmd, where):
        facs = {
            name: {"d": x.d, "rank": x.n, "f": str(x.f),
                   "reduced": x.is_reduced()}
            for name, x in sorted(self.facs.items())
        }
        mors = {
            name: {"is_morphism": a.is_morphism()}
            for name, a in sorted(self.mors.items())
        }
        polys = {name: str(p) for name, p in sorted(self.doc.polynomials.items())}
        return ("pass", f"{len(facs)} factorizations, {len(mors)} morphisms",
                {"factorizations": facs, "morphisms": mors, "polynomials": polys})

    # -- driver -----------------------------------------------------------------

    def run(self) -> list[CommandResult]:
        for i, cmd in enumerate(self.doc.commands):
            self.results.append(self.run_command(i, cmd))
        return self.results


# -- entry point ----------------------------------------------------------------------


def _human_lines(results: list[CommandResult]) -> list[str]:
    lines = []
    for r in results:
        lines.append(f"[{r.index}] {r.op}: {r.status.upper()} - {r.summary}")
    n_fail = sum(1 for r in results if r.status == "fail")
    n_ref = sum(1 for r in results if r.status == "refused")
    tail = f"{len(results)} commands, {n_fail} failed"
    if n_ref:
        tail += f", {n_ref} refused"
    lines.append(tail)
    return lines


def run_document(data: dict, precision: int | None = None, zeta_power: int = 1):
    """Parse and execute a problem document; returns (results, exit_status)."""
    doc = parse_document(data)
    runner = Runner(doc, precision, zeta_power)
    results = runner.run()
    status = 1 if any(r.status == "fail" for r in results) else 0
    return results, status


def machine_report(results: list[CommandResult], exit_status: int) -> dict:
    return {
        "commands": [r.as_dict() for r in results],
        "failed": sum(1 for r in results if r.status == "fail"),
        "refused": sum(1 for r in results if r.status == "refused"),
        "exit_status": exit_status,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="matfac",
        description="Exact matrix-factorization toolkit: run a problem document.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON problem document")
    runp.add_argument("document", help="path to the JSON problem document")
    runp.add_argument("--precision", type=int, default=None,
                      help="jet precision override for jet-based commands")
    runp.add_argument("--zeta", type=int, default=1, metavar="K",
                      help="use the K-th power of the canonical primitive root as the twist")
    runp.add_argument("--format", choices=("human", "machine"), default="human",
                      help="stdout format (default: human)")
    runp.add_argument("--report", metavar="PATH", default=None,
                      help="also write the machine-readable report to PATH")
    args = parser.parse_args(argv)

    if args.precision is not None and args.precision < 1:
        print("error: --precision must be a positive integer", file=sys.stderr)
        return 2

    try:
        with open(args.document, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        print(f"error: cannot read document: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: document is not valid JSON: {e}", file=sys.stderr)
        return 2

    try:
        results, status = run_document(data, args.precision, args.zeta)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = machine_report(results, status)
    if args.format == "machine":
        sys.stdout.write(canonical_json(report))
    else:
        for line in _human_lines(results):
            print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
