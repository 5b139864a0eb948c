"""Outside-in tracer: wraps the public entry points of each `matfac` module.

Each entry is one layer boundary, named `<module>.<entry>`.  Installing the
tracer replaces every binding of the entry's function: the defining module,
`from`-import aliases in the other `matfac` modules, the package exports,
and class attributes (including aliases such as `__rmul__ = __mul__`).
`uninstall` restores every binding.  A wrapped call is one span; spans are
aggregated as they close (calls, self time and per-entry extras) rather than
kept, because the scalar layers see millions of calls.

Self time is a span's duration minus the durations of the wrapped spans it
directly contains.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# entry -> (defining module, qualified names of the functions it covers)
ENTRIES = {
    "cyclo.mul": ("matfac.cyclo", ["CycloElem.__mul__"]),
    "cyclo.addsub": ("matfac.cyclo", ["CycloElem.__add__", "CycloElem.__sub__",
                                      "CycloElem.__rsub__"]),
    "cyclo.inverse": ("matfac.cyclo", ["CycloElem.inverse"]),
    "rings.mul": ("matfac.rings", ["Polynomial.__mul__"]),
    "rings.addsub": ("matfac.rings", ["Polynomial.__add__", "Polynomial.__sub__",
                                      "Polynomial.__rsub__"]),
    "rings.divexact": ("matfac.rings", ["Polynomial.divexact"]),
    "rings.parse": ("matfac.rings", ["parse_polynomial"]),
    "rings.ring_eq": ("matfac.rings", ["PolynomialRing.__eq__"]),
    "linalg.matmul": ("matfac.linalg", ["Matrix.__matmul__"]),
    "linalg.det_poly": ("matfac.linalg", ["det_bareiss"]),
    "linalg.det_field": ("matfac.linalg", ["_det_field"]),
    "linalg.sparse_nullspace": ("matfac.linalg", ["sparse_nullspace"]),
    "linalg.rref": ("matfac.linalg", ["rref"]),
    "linalg.jet_inverse": ("matfac.linalg", ["jet_inverse"]),
    "factorization.validate": ("matfac.factorization", ["MatFac.validate",
                                                        "JetMatFac.validate"]),
    "factorization.cokernel_presentation": ("matfac.factorization",
                                            ["MatFac.cokernel_presentation"]),
    "tensor.tensor": ("matfac.tensor", ["tensor"]),
    "tensor.det_check": ("matfac.tensor", ["det_check"]),
    "morphisms.hom_space_jets": ("matfac.morphisms", ["hom_space_jets"]),
    "morphisms.admits_invertible_combination": ("matfac.morphisms",
                                                ["admits_invertible_combination"]),
    "morphisms.is_morphism": ("matfac.morphisms", ["Morphism.is_morphism",
                                                   "JetMorphism.is_morphism"]),
    "morphisms.is_isomorphism": ("matfac.morphisms", ["Morphism.is_isomorphism",
                                                      "JetMorphism.is_isomorphism"]),
    "morphisms.split_idempotent": ("matfac.morphisms", ["split_idempotent"]),
    "knorrer.decompose_symmetric": ("matfac.knorrer", ["decompose_symmetric"]),
    "knorrer.block_diagonalize": ("matfac.knorrer", ["block_diagonalize"]),
    "knorrer.alpha_matrix": ("matfac.knorrer", ["alpha_matrix"]),
    "knorrer.root_sum": ("matfac.knorrer", ["root_sum"]),
    "structure.coprime_rank_one_cert": ("matfac.structure", ["coprime_rank_one_cert"]),
    "structure.propagate_strong_ind": ("matfac.structure", ["propagate_strong_ind"]),
    "structure.strong_ind_consequences": ("matfac.structure", ["strong_ind_consequences"]),
    "structure.jet_refute_shift_iso": ("matfac.structure", ["jet_refute_shift_iso"]),
    "structure.reduce_tensor_witness": ("matfac.structure", ["reduce_tensor_witness"]),
    "ulrich.build_from_sum": ("matfac.ulrich", ["build_from_sum"]),
    "ulrich.indecomposable_ulrich": ("matfac.ulrich", ["indecomposable_ulrich"]),
    "ulrich.extension_ses": ("matfac.ulrich", ["extension_ses"]),
    "ulrich.mcm_stats": ("matfac.ulrich", ["mcm_stats"]),
    "cli.parse_document": ("matfac.cli", ["parse_document"]),
    "cli.run_command": ("matfac.cli", ["Runner.run_command"]),
    "cli.canonical_json": ("matfac.cli", ["canonical_json"]),
}

# Entries counted without timing: they are called so often, and are so
# cheap, that a timed span would cost more than the call itself.
COUNT_ONLY = {"rings.ring_eq"}


@dataclass
class EntryStats:
    calls: int = 0
    self_s: float = 0.0
    terms_out: int = 0
    max_terms: int = 0
    max_n: int = 0
    max_unknowns: int = 0
    max_rank: int = 0
    report_bytes: int = 0


def _extras(tracer: "Tracer", entry: str, args, result):
    """Per-entry measurements taken from a call's arguments and result."""
    st = tracer.stats[entry]
    if entry == "rings.mul":
        n = len(result.terms) if hasattr(result, "terms") else 0
        st.terms_out += n
        st.max_terms = max(st.max_terms, n)
    elif entry == "linalg.matmul":
        st.max_n = max(st.max_n, args[0].nrows, args[0].ncols, args[1].ncols)
    elif entry == "linalg.det_poly":
        st.max_n = max(st.max_n, args[0].nrows)
    elif entry == "linalg.sparse_nullspace":
        ncols = args[1]
        st.max_unknowns = max(st.max_unknowns, ncols)
        st.max_rank = max(st.max_rank, ncols - len(result))
    elif entry == "factorization.validate":
        tracer.op_subjects[id(args[0])] = args[0]
    elif entry == "cli.canonical_json":
        st.report_bytes += len(result.encode("utf-8"))


EXTRAS = {"rings.mul", "linalg.matmul", "linalg.det_poly", "linalg.sparse_nullspace",
          "factorization.validate", "cli.canonical_json"}


class Tracer:
    """Aggregating span recorder.  Use `with tracer:` around the traced work."""

    def __init__(self):
        self.stats = {entry: EntryStats() for entry in ENTRIES}
        self._child = []          # child-time accumulators of the open spans
        self._saved = []          # (owner, attribute, original) to restore
        # Validate subjects of the current op, by identity (kept alive so that
        # ids are not reused within the op).
        self.op_subjects = {}
        self.validate_distinct = 0

    # -- op boundaries (for useful_ratio) ---------------------------------------

    def end_op(self):
        self.validate_distinct += len(self.op_subjects)
        self.op_subjects = {}

    def useful_ratio(self) -> float:
        calls = self.stats["factorization.validate"].calls
        return self.validate_distinct / calls if calls else 0.0

    # -- wrapping ----------------------------------------------------------------

    def _timed(self, entry: str, fn):
        st = self.stats[entry]
        child = self._child
        perf = time.perf_counter
        extras = entry in EXTRAS

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st.calls += 1
                st.self_s += dt - child.pop()
                if child:
                    child[-1] += dt
            if extras:
                _extras(self, entry, args, result)
            return result

        return wrapper

    def _counted(self, entry: str, fn):
        st = self.stats[entry]

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        import matfac  # noqa: F401  (loads every submodule but cli)
        import matfac.cli  # noqa: F401
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "matfac" or name.startswith("matfac."))]
        try:
            for entry, (modname, qualnames) in ENTRIES.items():
                make = self._counted if entry in COUNT_ONLY else self._timed
                for qual in qualnames:
                    owner_name, _, attr = qual.rpartition(".")
                    if owner_name:
                        self._wrap_method(getattr(sys.modules[modname], owner_name), attr,
                                          entry, make)
                    else:
                        self._wrap_function(sys.modules[modname].__dict__[attr], modules,
                                            entry, make)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_function(self, fn, modules, entry, make):
        wrapper = make(entry, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, entry, make):
        fn = cls.__dict__[attr]
        wrapper = make(entry, fn)
        for name, value in list(vars(cls).items()):
            if value is fn:
                self._replace(cls, name, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every measured value, named `<module>.<entry>.<stat>`."""
        out = {}
        for entry, st in self.stats.items():
            out[f"{entry}.calls"] = st.calls
            if entry not in COUNT_ONLY:
                out[f"{entry}.self_s"] = st.self_s
        out["rings.mul.terms_out"] = self.stats["rings.mul"].terms_out
        out["rings.mul.max_terms"] = self.stats["rings.mul"].max_terms
        out["linalg.matmul.max_n"] = self.stats["linalg.matmul"].max_n
        out["linalg.det_poly.max_n"] = self.stats["linalg.det_poly"].max_n
        sn = self.stats["linalg.sparse_nullspace"]
        out["linalg.sparse_nullspace.max_unknowns"] = sn.max_unknowns
        out["linalg.sparse_nullspace.max_rank"] = sn.max_rank
        out["factorization.validate.useful_ratio"] = self.useful_ratio()
        out["cli.report_bytes"] = self.stats["cli.canonical_json"].report_bytes
        return out
