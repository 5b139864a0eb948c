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
flags, a report path that cannot be written).  A refusal is not a failure:
it means the toolkit declines to assert something it cannot decide, and the
report says so.

Machine reports are deterministic: the same document bytes produce the
same report bytes, because every value is rendered through the canonical
term order and container keys are sorted on output.  Library reports become
report data through one renderer, `_data`: a dataclass is the dict of its
fields, so a report type's fields and verdict are stated once, in the
library.  Each run serialises its report once, and stdout and `--report`
receive that one string.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, is_dataclass

from .cyclo import CycloElem, cyclotomic_field
from .errors import MatfacError, Refusal, _cut, _quote
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
    _propagated,
    constant_term_spot_check,
    coprime_rank_one_cert,
    jet_refute_shift_iso,
    reduce_tensor_witness,
    strong_ind_consequences,
    summand_bound,
)
from .tensor import TensorMatFac, det_check, tensor
from .ulrich import _ulrich_build, build_from_sum, extension_ses, indecomposable_ulrich, sum_of_products


class DocumentError(MatfacError):
    """The problem document is unusable: bad JSON shape, bad expression,
    or a reference to a name that does not exist."""


# The keys each op accepts besides "op"; any other key is a document error.
OP_KEYS = {
    "validate": ("subject",),
    "tensor": ("left", "right", "out"),
    "shift": ("subject", "steps", "out"),
    "scale": ("subject", "units", "out"),
    "reduce": ("left", "right", "side"),
    "det-check": ("left", "right"),
    "knorrer": ("left", "right", "out"),
    "split-idempotent": ("subject", "idempotent", "precision"),
    "hom-jets": ("source", "target", "precision", "check_invertible"),
    "certify": ("subject", "spot_check", "consequences"),
    "bound": ("left", "right", "refute_shifts", "precision", "asymmetric"),
    "ulrich": ("rows", "partition", "certify", "out"),
    "extension-ses": ("rows", "partition", "start"),
    "report": (),
}


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


def _is_int(value) -> bool:
    """An integer document value; JSON true/false are bools, not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _flag(cmd: dict, key: str, where: str, default: bool = False) -> bool:
    """A boolean command key: JSON true or false, never a truthy string."""
    value = cmd.get(key, default)
    _expect(isinstance(value, bool), where, f"{key!r} must be true or false")
    return value


def _parse_poly(ring: PolynomialRing, text, where: str) -> Polynomial:
    _expect(isinstance(text, str), where, f"expected an expression string, got {_quote(text)}")
    try:
        return ring.parse(text)
    except MatfacError as e:
        raise DocumentError(f"{where}: {e}") from e


def _parse_matrix(ring: PolynomialRing, rows, where: str) -> Matrix:
    _expect(isinstance(rows, list) and rows, where, "expected a nonempty array of rows")
    out = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and row, f"{where}[{i}]", "expected a nonempty row")
        _expect(len(row) == len(rows[0]), f"{where}[{i}]",
                f"row has {len(row)} entries, row 0 has {len(rows[0])}")
        out.append([_parse_poly(ring, s, f"{where}[{i}][{j}]") for j, s in enumerate(row)])
    return Matrix(ring, out)


def _located(section: str, name: str) -> str:
    """The location of a declared name, `section.name`, with a long name cut
    as quoted values are, so that an error line stays short."""
    return f"{section}.{_cut(name)}"


def _section(data: dict, key: str) -> dict:
    """An optional top-level section: an object, or absent / null for none."""
    value = data.get(key)
    _expect(value is None or isinstance(value, dict), key, "must be an object")
    return value or {}


def parse_document(data: dict) -> ProblemDoc:
    _expect(isinstance(data, dict), "document", "top level must be an object")
    allowed = {"ring", "polynomials", "factorizations", "morphisms", "commands"}
    for key in data:
        _expect(key in allowed, "document", f"unknown section {_quote(key)}")
    _expect("ring" in data, "document", "missing required section 'ring'")
    _expect("commands" in data, "document", "missing required section 'commands'")

    rd = data["ring"]
    _expect(isinstance(rd, dict), "ring", "must be an object")
    _expect(_is_int(rd.get("conductor")), "ring", "needs an integer 'conductor'")
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
        _expect(name not in taken, where, f"name {_quote(name)} is already in use")
        taken.add(name)

    polynomials = {}
    for name, text in _section(data, "polynomials").items():
        claim(name, "polynomials")
        polynomials[name] = _parse_poly(ring, text, _located("polynomials", name))

    factorizations = {}
    for name, spec in _section(data, "factorizations").items():
        claim(name, "factorizations")
        where = _located("factorizations", name)
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
    for name, spec in _section(data, "morphisms").items():
        claim(name, "morphisms")
        where = _located("morphisms", name)
        _expect(isinstance(spec, dict), where, "must be an object")
        for key in ("source", "target", "components"):
            _expect(key in spec, where, f"needs {key!r}")
        for end in ("source", "target"):
            _expect(isinstance(spec[end], str) and spec[end] in factorizations, where,
                    f"{end} {_quote(spec[end])} is not a declared factorization")
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
        _expect(isinstance(op, str) and op in OP_KEYS, f"commands[{i}]",
                f"unknown op {_quote(op)}; known ops: {', '.join(OP_KEYS)}")
        allowed = OP_KEYS[op]
        for key in cmd:
            _expect(key == "op" or key in allowed, f"commands[{i}]",
                    f"unknown key {_quote(key)} for op {op!r}; allowed: "
                    + (", ".join(allowed) or "none"))

    return ProblemDoc(
        ring=ring,
        polynomials=polynomials,
        factorizations=factorizations,
        morphisms=morphisms,
        commands=list(commands),
    )


def canonical_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _data(value):
    """Report data of a library value: a dataclass is the dict of its fields,
    a list or tuple a list, a polynomial or field element its string, and
    anything else itself."""
    if is_dataclass(value):
        return {f.name: _data(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_data(v) for v in value]
    if isinstance(value, (Polynomial, CycloElem)):
        return str(value)
    return value


# -- command execution --------------------------------------------------------------


@dataclass
class CommandResult:
    index: int
    op: str
    status: str      # pass | fail | refused
    summary: str
    data: dict


class Runner:
    def __init__(self, doc: ProblemDoc, precision: int | None, zeta_power: int):
        self.doc = doc
        self.ring = doc.ring
        self.precision = precision
        self.zeta_power = zeta_power
        self.facs = dict(doc.factorizations)
        self.mors = dict(doc.morphisms)
        self.results: list[CommandResult] = []
        # out name -> the result of the command that failed or refused
        # without binding it
        self.unproduced: dict[str, CommandResult] = {}

    # -- helpers -------------------------------------------------------------

    def _lookup(self, table: dict, kind: str, cmd, key, where):
        name = cmd.get(key)
        _expect(isinstance(name, str), where, f"needs a {kind} name under {key!r}")
        if name not in table:
            missing = self.unproduced.get(name)
            if missing is not None:
                raise MatfacError(
                    f"{kind} {_quote(name)} was not produced: commands[{missing.index}] "
                    f"({missing.op}) {'failed' if missing.status == 'fail' else 'was refused'}")
            raise DocumentError(f"{where}: unknown {kind} {_quote(name)}")
        return table[name]

    def fac(self, cmd, key, where) -> MatFac:
        return self._lookup(self.facs, "factorization", cmd, key, where)

    def mor(self, cmd, key, where) -> Morphism:
        return self._lookup(self.mors, "morphism", cmd, key, where)

    def store(self, cmd, value, where):
        name = cmd.get("out")
        if name is None:
            return
        _expect(isinstance(name, str) and name, where, "'out' must be a nonempty string")
        if not self._free(name):
            raise DocumentError(f"{where}: out name {_quote(name)} is already in use")
        self.facs[name] = value

    def _free(self, name: str) -> bool:
        """Whether `store` may bind name: no factorization, morphism or
        document polynomial has it."""
        return name not in self.facs and name not in self.mors and name not in self.doc.polynomials

    def twist(self, order: int) -> CycloElem:
        """The --zeta power of the canonical primitive `order`-th root; a
        field without one fails the command rather than the run."""
        try:
            return self.ring.field.root_of_unity(order, self.zeta_power)
        except ValueError as e:
            raise MatfacError(str(e)) from e

    def cmd_precision(self, cmd, where) -> int | None:
        p = cmd.get("precision", self.precision)
        _expect(p is None or (_is_int(p) and p >= 1), where,
                "'precision' must be a positive integer")
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
        _expect(all(len(r) == len(rows[0]) for r in rows), f"{where}.rows",
                "rows have unequal lengths")
        partition = cmd.get("partition")
        if partition is not None:
            _expect(isinstance(partition, list)
                    and all(isinstance(row, list) for row in partition)
                    and all(isinstance(grp, list) and all(map(_is_int, grp))
                            for row in partition for grp in row), f"{where}.partition",
                    "expected an array of rows, each an array of blocks of integer indices")
            partition = tuple(tuple(tuple(grp) for grp in row) for row in partition)
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
        except Refusal as e:
            status, summary, data = "refused", str(e), {}
        except MatfacError as e:
            if isinstance(e, DocumentError):
                raise
            status, summary, data = "fail", str(e), {}
        result = CommandResult(i, op, status, summary, data)
        name = cmd.get("out")
        # only a name that `store` would have bound: a later reference to any
        # other stays unusable input
        if status != "pass" and isinstance(name, str) and name and self._free(name):
            self.unproduced[name] = result
        return result

    def op_validate(self, cmd, where):
        x = self.fac(cmd, "subject", where)
        rep = x.validate()
        bad = [e.start for e in rep.entries if not e.ok]
        summary = (f"all {x.d} cyclic products equal f*I" if rep.passed
                   else f"cyclic products starting at {bad} do not equal f*I")
        return ("pass" if rep.passed else "fail", summary, {**_data(rep), "rank": x.n, "d": x.d})

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
        _expect(_is_int(steps), where, "'steps' must be an integer")
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
        ok = witness.is_isomorphism()
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
        summary = ("reduction equals the shifted-copy sum with an exact witness"
                   if rep.passed else "reduction law failed")
        return ("pass" if rep.passed else "fail", summary, _data(rep))

    def op_det_check(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        rep = det_check(x, y, self.twist(x.d))
        summary = (f"all {len(rep.entries)} determinants equal the closed form"
                   if rep.passed else "determinant mismatch")
        return ("pass" if rep.passed else "fail", summary, _data(rep))

    def op_knorrer(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        d = x.d
        fld = self.ring.field
        if fld.m % (2 * d) == 0:
            ctx = omega_context(d, omega=self.twist(2 * d))
        else:
            ctx = omega_context(d, zeta=self.twist(d))
        dec = decompose_symmetric(x, y, ctx)
        ok = (dec.report.passed
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
        res = split_idempotent(x, e, self.cmd_precision(cmd, where))
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
        basis = hom_space_jets(s, t, self.cmd_precision(cmd, where))
        data = {"dimension": basis.dimension, "precision": basis.precision}
        summary = f"hom space has dimension {data['dimension']} at precision {data['precision']}"
        if _flag(cmd, "check_invertible", where):
            inv = admits_invertible_combination(basis)
            data["admits_invertible_combination"] = inv
            summary += ", admits an invertible combination" if inv else ", no invertible combination"
        return ("pass", summary, data)

    def _certify(self, x: MatFac):
        # the tree's nodes are the stored tensors, not rebuilt copies
        if isinstance(x, TensorMatFac):
            return _propagated(self._certify(x.left), self._certify(x.right), x.zeta, x)
        return coprime_rank_one_cert(x)

    def op_certify(self, cmd, where):
        x = self.fac(cmd, "subject", where)
        cert = self._certify(x)
        problems = cert.problems()
        data = {"certificate": cert.as_dict(), "problems": problems}
        if _flag(cmd, "spot_check", where):
            data["constant_term_spot_check"] = constant_term_spot_check(x)
        if _flag(cmd, "consequences", where):
            data["claims"] = _data(strong_ind_consequences(cert).claims)
        ok = not problems and data.get("constant_term_spot_check", True)
        return ("pass" if ok else "fail",
                "strong indecomposability certified" if ok else "; ".join(problems) or
                "constant-term spot check failed",
                data)

    def op_bound(self, cmd, where):
        x = self.fac(cmd, "left", where)
        y = self.fac(cmd, "right", where)
        if _flag(cmd, "refute_shifts", where):
            p = self.cmd_precision(cmd, where) or 1
            flags = (jet_refute_shift_iso(x, p).all_refuted,
                     jet_refute_shift_iso(y, p).all_refuted)
        else:
            flags_in = cmd.get("asymmetric", [False, False])
            _expect(isinstance(flags_in, list) and len(flags_in) == 2
                    and all(isinstance(v, bool) for v in flags_in), where,
                    "'asymmetric' must be a pair of booleans")
            flags = tuple(flags_in)
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
        zeta = self.twist(spec.k)
        if _flag(cmd, "certify", where, default=True):
            ub = indecomposable_ulrich(spec, zeta)
            x, pres, stats = ub.certificate.subject, ub.presentation, ub.stats
            data = {"uc_bound": ub.uc_bound, "uc_note": ub.uc_note,
                    "certificate": ub.certificate.as_dict(),
                    "claims": _data(ub.consequences.claims)}
        else:
            (x, pres, stats), data = _ulrich_build(spec, zeta), {}
        self.store(cmd, x, where)
        data.update(f=str(spec.f), stats=self._stats_dict(stats), presentation_size=pres.size)
        summary = (f"Ulrich module: mu = e = {stats.mu}" if stats.ulrich
                   else f"MCM module with mu = {stats.mu}, e = {stats.e_R} (ratio {stats.ratio})")
        return ("pass", summary, data)

    def op_extension_ses(self, cmd, where):
        spec = self.rows_spec(cmd, where)
        start = cmd.get("start", 1)
        _expect(_is_int(start), where, "'start' must be an integer")
        zeta = self.twist(spec.k)
        x, _ = build_from_sum(spec, zeta)
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


def _human_lines(report: dict) -> list[str]:
    """The human rendering of a machine report, reading its counts."""
    commands = report["commands"]
    lines = [f"[{r['index']}] {r['op']}: {r['status'].upper()} - {r['summary']}"
             for r in commands]
    tail = f"{len(commands)} commands, {report['failed']} failed"
    if report["refused"]:
        tail += f", {report['refused']} refused"
    return lines + [tail]


def run_document(data: dict, precision: int | None = None, zeta_power: int = 1):
    """Parse and execute a problem document; returns (results, exit_status)."""
    results = Runner(parse_document(data), precision, zeta_power).run()
    return results, 1 if any(r.status == "fail" for r in results) else 0


def machine_report(results: list[CommandResult], exit_status: int) -> dict:
    """The report of a run: its command records and the one count of its
    failed and refused commands."""
    statuses = [r.status for r in results]
    return {"commands": _data(results), "failed": statuses.count("fail"),
            "refused": statuses.count("refused"), "exit_status": exit_status}


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
    except ValueError as e:  # bad JSON, bad UTF-8, an integer past the digit limit
        print(f"error: document is not valid JSON: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: document is nested too deeply", file=sys.stderr)
        return 2

    try:
        results, status = run_document(data, args.precision, args.zeta)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = machine_report(results, status)
    text = canonical_json(report) if args.format == "machine" or args.report else ""
    if args.format == "machine":
        sys.stdout.write(text)
    else:
        print("\n".join(_human_lines(report)))
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
