"""The mutation record: hand-made faults that the tests must catch.

Each entry of `MUTANTS` names a file, a piece of its text that occurs
exactly once there, the text that replaces it, and the tests that must fail
once it is replaced.  Run from anywhere, with the package's test
dependencies installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

The runner copies the repository (without .git) to a temporary directory,
checks that the named tests pass there unmutated, then applies each mutant
to a fresh copy of its file and runs its tests with pytest.  Every pytest
run, the unmutated one included, passes `--hypothesis-seed=0`, so that a
verdict resting on randomly drawn examples is the same from run to run; a
mutant that survives only some draws needs an explicit `@example` that
kills it.  A listed test that still passes is a survivor; the exit status
is 1 when any mutant has one, else 0.  A run stopped after `TIMEOUT_S`
counts every listed test as failed, so its mutant is reported as "killed
(timed out after 600 s)" and counted apart in the summary: a timeout is no
proof that a test caught the fault.  Tier-1 does not run this (one pytest
run per mutant, about 390 s for the fifty-three here on a 2-vCPU host, most
of it hypothesis shrinking the failing examples); it only checks that every
entry still applies (`tests/test_source.py`).

A change that adds a fast path, a derived verdict or a refusal adds the
mutants that its tests are meant to kill.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# `tensor.tensor` from the validation check on: the slots it builds, each
# recording the product of its cyclic blocks
_TENSOR_SLOTS = (
    "    eye_n = Matrix.identity(ring, x.n)\n"
    "    eye_m = Matrix.identity(ring, y.n)\n"
    "    zpow = [ring.scalar(zeta ** e) for e in range(d)]\n"
    "    # mats[p] is Phi_{p+1}: diagonal block I is kron(I_n, zeta^I psi_{p+1-I}),\n"
    "    # psi_{p+1-I} being y.mats[(p - I) % d]; the cyclic blocks\n"
    "    # kron(phi_{I+1}, I_m) are the same at every slot\n"
    "    cyclic = [x.phi(i + 1).kron(eye_m) for i in range(d)]\n"
    "    mats = [Matrix.block_cyclic(ring, [eye_n.kron(y.mats[(p - i) % d].scale(zpow[i]))\n"
    "                                       for i in range(d)], cyclic, _product=x.f)\n"
    "            for p in range(d)]\n"
)

# name -> (file, text, replacement, tests that must fail)
MUTANTS = {
    "root-rotate-fold": (
        "src/matfac/cyclo.py",
        "            raw[s:s + deg] = x.num\n            out = _fold(field, raw)\n",
        "            raw[s:s + deg] = x.num\n            out = raw[:deg]\n",
        ["tests/test_cyclo.py::test_root_products_inverses_and_orders_match_the_oracles"],
    ),
    "root-sign": (
        "src/matfac/cyclo.py",
        "[-powers[k * half % m] if k % 2 else powers[k * half % m]",
        "[powers[k * half % m] if k % 2 else powers[k * half % m]",
        ["tests/test_cyclo.py::test_root_products_inverses_and_orders_match_the_oracles",
         "tests/test_cyclo.py::test_root_of_unity_order_two_any_conductor"],
    ),
    "factorization-d-check": (
        "src/matfac/factorization.py",
        "        if len(mats) < 2:\n",
        "        if len(mats) < 1:\n",
        ["tests/test_factorization.py::test_jet_factorization_refuses_fewer_than_two_factors",
         "tests/test_factorization.py::"
         "test_exact_and_jet_constructors_accept_and_refuse_together"],
    ),
    "morphism-f-check": (
        "src/matfac/morphisms.py",
        "source.f != target.f:\n            raise MatfacError(\"morphism endpoints",
        "False:\n            raise MatfacError(\"morphism endpoints",
        ["tests/test_morphisms.py::test_endpoint_compatibility_enforced",
         "tests/test_morphisms.py::test_jet_morphism_refuses_endpoints_of_different_f",
         "tests/test_morphisms.py::test_exact_and_jet_morphisms_accept_and_refuse_together"],
    ),
    "conductor-maximum": (
        "src/matfac/cyclo.py",
        "        if m > _MAX_CONDUCTOR:\n",
        "        if False:\n",
        ["tests/test_cyclo.py::test_conductor_maximum_is_refused_before_any_table",
         "tests/test_cli.py::test_conductor_above_the_maximum_exits_2_at_once"],
    ),
    "quote-bound": (
        "src/matfac/errors.py",
        "    if len(text) <= _QUOTE_MAX:\n",
        "    if True:\n",
        ["tests/test_cli.py::test_oversized_values_are_quoted_short",
         "tests/test_cli.py::test_quote_cuts_long_reprs_only"],
    ),
    "ring-any-identifier": (
        "src/matfac/rings.py",
        "            if not _reads_back(v):\n",
        "            if not v.isidentifier():\n",
        ["tests/test_rings.py::test_ring_variable_names_print_and_parse_back",
         "tests/test_cli.py::test_unreadable_ring_variable_names_exit_2_at_ring"],
    ),
    "matrix-keeps-zeros": (
        "src/matfac/linalg.py",
        "tuple([p for p in row if not p[1].is_zero()])",
        "tuple(row)",
        ["tests/test_linalg.py::test_matmul_identity_zero",
         "tests/test_linalg.py::test_every_operation_stores_the_canonical_form"],
    ),
    "matmul-unsorted-rows": (
        "src/matfac/linalg.py",
        "prev + a * b\n            out.append(sorted(acc.items()))\n",
        "prev + a * b\n            out.append(list(acc.items()))\n",
        ["tests/test_linalg.py::test_matmul_identity_zero",
         "tests/test_linalg.py::test_every_operation_stores_the_canonical_form"],
    ),
    "map-moves-zero": (
        "src/matfac/linalg.py",
        "        if not fn(self.space.zero()).is_zero():\n",
        "        if False:\n",
        ["tests/test_linalg.py::test_map_refuses_a_function_that_moves_zero"],
    ),
    "echelon-no-back-substitution": (
        "src/matfac/linalg.py",
        "        for pc in sorted(pivots, reverse=True):\n",
        "        for pc in []:\n",
        ["tests/test_echelon.py::test_rref_matches_oracle",
         "tests/test_echelon.py::test_rref_back_substitutes",
         "tests/test_echelon.py::test_inverse_field",
         "tests/test_linalg.py::test_inverse_field_of_a_triangular_matrix",
         "tests/test_linalg.py::test_sparse_nullspace_matches_dense"],
    ),
    "cycle-read-sign": (
        "src/matfac/linalg.py",
        "c - g if d % 2 == 0 else c + g)",
        "c + g if d % 2 == 0 else c - g)",
        ["tests/test_tensor.py::test_read_determinants_equal_the_computed_cut",
         "tests/test_tensor.py::test_determinant_law_on_grid",
         "tests/test_ulrich.py::test_build_from_sum_rank_and_determinants"],
    ),
    "cycle-read-smallest-d": (
        "src/matfac/linalg.py",
        "    d, g = cycle\n",
        "    d, g = next(e for e in range(2, m.nrows + 1)\n"
        "                if m.nrows % e == 0 and _is_block_cyclic(m, e)), cycle[1]\n",
        ["tests/test_tensor.py::test_the_record_is_read_at_the_builders_d"],
    ),
    "cycle-read-unshaped": (
        "src/matfac/linalg.py",
        "    if cycle is None or not _is_block_cyclic(m, cycle[0]):\n",
        "    if cycle is None:\n",
        ["tests/test_tensor.py::test_read_determinants_equal_the_computed_cut",
         "tests/test_tensor.py::test_a_record_is_read_only_at_the_shape_it_was_made_for"],
    ),
    "cycle-records-right-f": (
        "src/matfac/tensor.py",
        "cyclic, _product=x.f)",
        "cyclic, _product=y.f)",
        ["tests/test_tensor.py::test_read_determinants_equal_the_computed_cut",
         "tests/test_tensor.py::test_determinant_law_on_grid",
         "tests/test_ulrich.py::test_build_from_sum_rank_and_determinants"],
    ),
    "cycle-records-tensor-f": (
        "src/matfac/tensor.py",
        "cyclic, _product=x.f)",
        "cyclic, _product=x.f + y.f)",
        ["tests/test_tensor.py::test_read_determinants_equal_the_computed_cut",
         "tests/test_tensor.py::test_determinant_law_on_grid",
         "tests/test_ulrich.py::test_build_from_sum_rank_and_determinants"],
    ),
    "cycle-records-before-validation": (
        "src/matfac/tensor.py",
        "    _require_validated(x, y)\n" + _TENSOR_SLOTS,
        _TENSOR_SLOTS + "    _require_validated(x, y)\n",
        ["tests/test_tensor.py::"
         "test_tensor_refuses_an_unvalidated_operand_before_building_a_slot"],
    ),
    "det-as-power-sign": (
        "src/matfac/linalg.py",
        "            return (-1) ** exponent, exponent\n",
        "            return 1, exponent\n",
        ["tests/test_linalg.py::test_det_as_power_matches_the_signed_power_oracle",
         "tests/test_linalg.py::test_relative_sign_of_signed_powers"],
    ),
    "slot-detail-column": (
        "src/matfac/factorization.py",
        "min(c for c, _ in set(got) ^ set(want))",
        "max(c for c, _ in set(got) ^ set(want))",
        ["tests/test_factorization.py::test_failing_slot_names_the_entry_a_dense_scan_finds"],
    ),
    "division-exactness": (
        "src/matfac/rings.py",
        "    if qe & guards != guards:\n",
        "    if False:\n",
        ["tests/test_rings.py::test_divexact_matches_the_greedy_oracle"],
    ),
    "pack-guard": (
        "src/matfac/rings.py",
        "    qe = (lead | guards) - ge\n",
        "    qe = (lead - ge) | guards\n",
        ["tests/test_rings.py::test_divexact_matches_the_greedy_oracle"],
    ),
    "delayed-fold": (
        "src/matfac/rings.py",
        "            num = _fold(field, _digits(v, bits, width))\n",
        "            num = _digits(v, bits, width)[:deg]\n",
        ["tests/test_rings.py::test_sum_difference_and_product_match_their_oracles",
         "tests/test_rings.py::test_a_convolution_that_folds_to_zero_leaves_no_term"],
    ),
    "divide-skips-lead-zero": (
        "src/matfac/rings.py",
        "            if rc.is_zero():\n                continue\n",
        "",
        ["tests/test_rings.py::test_divexact_matches_the_greedy_oracle"],
    ),
    "degree-limit": (
        "src/matfac/rings.py",
        "        if (top := max(a) + max(b)) >= ring._limit:\n",
        "        if False:\n",
        ["tests/test_rings.py::test_exponents_at_the_degree_limit_and_past_it"],
    ),
    "one-term-scale": (
        "src/matfac/rings.py",
        "{k + shift: d * c for",
        "{k + shift: d for",
        ["tests/test_rings.py::test_sum_difference_and_product_match_their_oracles"],
    ),
    "sub-sign": (
        "src/matfac/rings.py",
        "                terms[k] = -c\n",
        "                terms[k] = c\n",
        ["tests/test_rings.py::test_sum_difference_and_product_match_their_oracles",
         "tests/test_rings.py::test_jet_kernels_match_the_oracles"],
    ),
    "bareiss-zero-products": (
        "src/matfac/linalg.py",
        "                if not pivot_row[j].is_zero():\n",
        "                if True:\n",
        ["tests/test_linalg.py::test_bareiss_forms_no_difference_with_a_zero_cross_factor"],
    ),
    "bareiss-stale-divisor": (
        "src/matfac/linalg.py",
        "            prev = divisors[stamps[i]]\n",
        "            prev = divisors[k]\n",
        ["tests/test_linalg.py::test_bareiss_matches_cofactor_on_half_zero_matrices"],
    ),
    "bareiss-pivot-not-caught-up": (
        "src/matfac/linalg.py",
        "        if stamps[k] < k:\n",
        "        if False:\n",
        ["tests/test_linalg.py::test_bareiss_matches_cofactor_on_half_zero_matrices"],
    ),
    "ladder-no-escalation": (
        "src/matfac/morphisms.py",
        "for p in sorted({1, precision}))",
        "for p in (1,))",
        ["tests/test_structure.py::test_refutation_escalates_past_precision_one",
         "tests/test_structure.py::test_refutation_solves_the_cheapest_sound_systems",
         "tests/test_structure.py::test_refutation_equals_the_direct_verdict"],
    ),
    "ladder-skips-rung-one": (
        "src/matfac/morphisms.py",
        "for p in sorted({1, precision}))",
        "for p in (precision,))",
        ["tests/test_structure.py::test_refutation_escalates_past_precision_one",
         "tests/test_structure.py::test_refutation_solves_the_cheapest_sound_systems"],
    ),
    "pair-index": (
        "src/matfac/structure.py",
        "refuted={i: refuted[min(i, d - i)] for i in range(1, d)})",
        "refuted={i: refuted[i if 2 * i < d else 1] for i in range(1, d)})",
        ["tests/test_structure.py::test_refutation_pairs_each_shift_with_its_complement"],
    ),
    "knorrer-inverse-scale": (
        "src/matfac/knorrer.py",
        "ctx.omega_pow(-_pexp(d, -j - k)) * inv_d\n",
        "ctx.omega_pow(-_pexp(d, -j - k))\n",
        ["tests/test_knorrer.py::test_closed_form_witnesses_equal_the_field_inverse",
         "tests/test_knorrer.py::test_verdicts_compute_no_determinant_above_d",
         "tests/test_knorrer.py::test_two_fold_witnesses_are_exact_inverses",
         "tests/test_derived.py::test_backward_law_equals_the_fresh_one"],
    ),
    "knorrer-inverse-sign": (
        "src/matfac/knorrer.py",
        "ctx.omega_pow(-_pexp(d, -j - k)) * inv_d",
        "ctx.omega_pow(_pexp(d, -j - k)) * inv_d",
        ["tests/test_knorrer.py::test_closed_form_witnesses_equal_the_field_inverse",
         "tests/test_knorrer.py::test_verdicts_compute_no_determinant_above_d",
         "tests/test_knorrer.py::test_two_fold_witnesses_are_exact_inverses",
         "tests/test_derived.py::test_backward_law_equals_the_fresh_one"],
    ),
    "block-cyclic-row-order": (
        "src/matfac/linalg.py",
        "first, second = (off, on) if i == d - 1 else (on, off)",
        "first, second = (on, off)",
        ["tests/test_linalg.py::test_block_cyclic_reduction_matches_cofactor_oracle"],
    ),
    "knorrer-w-rotation": (
        "src/matfac/knorrer.py",
        "w_0 = Matrix.weighted_permutation(field, list(enumerate(c)))",
        "w_0 = Matrix.weighted_permutation(field, list(enumerate(c[1:] + c[:1])))",
        ["tests/test_knorrer.py::test_two_fold_decomposition_matches_display",
         "tests/test_derived.py::test_backward_law_equals_the_fresh_one",
         "tests/test_derived.py::test_knorrer_derived_reports_equal_the_fresh_ones"],
    ),
    "knorrer-twist-sign": (
        "src/matfac/knorrer.py",
        "-(w_0 @ a_1)",
        "(w_0 @ a_1)",
        ["tests/test_knorrer.py::test_three_fold_decomposition_matches_display",
         "tests/test_derived.py::test_backward_law_equals_the_fresh_one",
         "tests/test_derived.py::test_knorrer_derived_reports_equal_the_fresh_ones"],
    ),
    "knorrer-component-unchecked": (
        "src/matfac/knorrer.py",
        "    held = [s == e for s, e in zip(forward.comps, comps)]\n",
        "    held = [True] * d\n",
        ["tests/test_knorrer.py::test_corrupted_forward_component_fails_every_derived_verdict",
         "tests/test_derived.py::test_backward_law_fails_where_forward_does"],
    ),
    "knorrer-rotation-unchecked": (
        "src/matfac/knorrer.py",
        "    rotated = [all(rows[k] == rows[0][d - k:] + rows[0][:d - k] for k in range(d)),\n"
        "               all(inv_rows[k] == inv_rows[0][k:] + inv_rows[0][:k] for k in range(d))]\n",
        "    rotated = [True, True]\n",
        ["tests/test_knorrer.py::test_inverse_rotated_the_wrong_way_fails_every_derived_verdict",
         "tests/test_derived.py::test_backward_law_fails_where_the_round_trip_does"],
    ),
    # row 1 of A_0^-1 (its first row rotated right by one) in place of row 0
    "knorrer-round-trip-row": (
        "src/matfac/knorrer.py",
        "Matrix(field, [inv_rows[0]]) @ a_0 == e_0",
        "Matrix(field, [inv_rows[0][d - 1:] + inv_rows[0][:d - 1]]) @ a_0 == e_0",
        ["tests/test_knorrer.py::test_two_fold_witnesses_are_exact_inverses",
         "tests/test_derived.py::test_backward_law_equals_the_fresh_one"],
    ),
    "knorrer-summand-roots": (
        "src/matfac/knorrer.py",
        "c = [ctx.omega_pow(2 * q + 1) for q in range(d)]",
        "c = [ctx.omega_pow(2 * q) for q in range(d)]",
        ["tests/test_knorrer.py::test_three_fold_decomposition_matches_display",
         "tests/test_derived.py::test_backward_law_equals_the_fresh_one",
         "tests/test_derived.py::test_knorrer_derived_reports_equal_the_fresh_ones"],
    ),
    "validate-memo": (
        "src/matfac/factorization.py",
        "        if not hasattr(self, \"_report\"):\n"
        "            self._report = self._cyclic_report(self.f)\n",
        "        if True:\n"
        "            self._report = self._cyclic_report(self.f)\n",
        ["tests/test_factorization.py::test_validate_report_is_computed_once"],
    ),
    "jet-constant-reader": (
        "src/matfac/morphisms.py",
        "            if midx == 0:\n",
        "            if midx == 1:\n",
        ["tests/test_morphisms.py::test_hom_space_self_is_one_dimensional_at_constant_precision"],
    ),
    "split-complement": (
        "src/matfac/morphisms.py",
        "        f_cols = rref(fk.constant_terms())[1]",
        "        f_cols = [j for j in range(n) if j not in e_cols]",
        ["tests/test_morphisms.py::test_split_idempotent_bases_are_the_greedy_columns"],
    ),
    "last-slot-always-implied": (
        "src/matfac/morphisms.py",
        "slots = source.d - 1 if reduced and _last_slot_implied(source, target) else source.d",
        "slots = source.d - 1 if reduced else source.d",
        ["tests/test_morphisms.py::test_last_slot_is_kept_without_its_certificate",
         "tests/test_morphisms.py::test_last_slot_is_kept_when_an_endpoint_does_not_validate"],
    ),
    "jet-eq-truncates": (
        "src/matfac/rings.py",
        "self.poly.__eq__(other.poly if isinstance(other, Jet) else other)",
        "self.poly.__eq__(other.poly if isinstance(other, Jet)\n"
        "                                else other.truncate(self.precision)\n"
        "                                if isinstance(other, Polynomial) else other)",
        ["tests/test_rings.py::test_jet_equality_is_an_equivalence_that_agrees_with_the_hash",
         "tests/test_rings.py::test_jets_equal_their_stored_polynomial"],
    ),
    "report-passed-any": (
        "src/matfac/factorization.py",
        "        self.passed = all(e.ok for e in self.entries)\n",
        "        self.passed = any(e.ok for e in self.entries)\n",
        ["tests/test_factorization.py::test_a_report_passes_when_every_entry_does",
         "tests/test_cli.py::test_one_failing_start_fails_the_validation"],
    ),
    "cli-render-str": (
        "src/matfac/cli.py",
        "    if isinstance(value, (Polynomial, CycloElem)):\n        return str(value)\n",
        "    if isinstance(value, (Polynomial, CycloElem)):\n        return value\n",
        ["tests/test_goldens.py::test_cli_docs_reports_match_goldens",
         "tests/test_cli.py::test_mutated_cli_docs_exit_0_1_or_2"],
    ),
    "rational-takes-anything": (
        "src/matfac/cyclo.py",
        "            raise TypeError(f\"a rational must be an int or a Fraction, "
        "not {type(a).__name__}\")\n",
        "            a = Fraction(a)\n",
        ["tests/test_cyclo.py::test_only_exact_scalars_become_field_elements"],
    ),
    "split-precision-unchecked": (
        "src/matfac/morphisms.py",
        "    if precision is not None and precision < 1:\n",
        "    if False:\n",
        ["tests/test_morphisms.py::test_split_idempotent_refuses_a_precision_below_one"],
    ),
    "cert-provenance-isinstance": (
        "src/matfac/structure.py",
        "            if not (isinstance(self.subject, TensorMatFac)\n"
        "                    and self.subject.left is prop.left.subject\n"
        "                    and self.subject.right is prop.right.subject\n"
        "                    and self.subject.zeta == prop.zeta):\n",
        "            if not isinstance(self.subject, TensorMatFac):\n",
        ["tests/test_structure.py::test_tampered_certificate_reports_its_problem"],
    ),
    "cert-zeta-unchecked": (
        "src/matfac/structure.py",
        "                    and self.subject.right is prop.right.subject\n"
        "                    and self.subject.zeta == prop.zeta):\n",
        "                    and self.subject.right is prop.right.subject):\n",
        ["tests/test_structure.py::test_tampered_certificate_reports_its_problem"],
    ),
    "bound-flags-unchecked": (
        "src/matfac/structure.py",
        "    if len(sym_flags) != 2 or not all(isinstance(v, bool) for v in sym_flags):\n",
        "    if False:\n",
        ["tests/test_structure.py::test_summand_bound_refuses_anything_but_a_pair_of_bools"],
    ),
}

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
# the output `_run_tests` gives for a run that `TIMEOUT_S` stopped
TIMED_OUT = f"timed out after {TIMEOUT_S} s"


def _run_tests(copy: Path, tests: list[str]) -> tuple[set[str], str]:
    """Run the tests in the copy; return the listed ids that failed (a
    parametrized test fails when any of its cases does) and pytest's output."""
    # no bytecode cache: a mutant of the same size written within the same
    # second as the original would otherwise run the original's cached code
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return set(tests), TIMED_OUT
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+?)(?:\[| |$)", proc.stdout, re.MULTILINE)
    if proc.returncode not in (0, 1):  # collection error, usage error
        return set(tests), proc.stdout[-2000:] + proc.stderr[-2000:]
    return set(tests) & set(failed), proc.stdout


def run(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = names or list(MUTANTS)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        every_test = sorted({t for n in chosen for t in MUTANTS[n][3]})
        failed, output = _run_tests(copy, every_test)
        if failed:
            print(f"the named tests fail unmutated: {sorted(failed)}\n{output}")
            return 2
        survivors, timeouts = [], []
        for name in chosen:
            file, text, replacement, tests = MUTANTS[name]
            path = copy / file
            original = path.read_text(encoding="utf-8")
            if original.count(text) != 1:
                print(f"{name}: text does not occur exactly once in {file}")
                return 2
            path.write_text(original.replace(text, replacement), encoding="utf-8")
            t0 = time.perf_counter()
            failed, output = _run_tests(copy, tests)
            path.write_text(original, encoding="utf-8")
            alive = [t for t in tests if t not in failed]
            if alive:
                verdict = f"SURVIVED by {', '.join(alive)}"
                survivors.append(name)
            elif output == TIMED_OUT:
                verdict = f"killed ({TIMED_OUT})"
                timeouts.append(name)
            else:
                verdict = "killed"
            print(f"{name}: {verdict} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s"
          + (f", {len(timeouts)} of them by timing out: {', '.join(timeouts)}"
             if timeouts else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
