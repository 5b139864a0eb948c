"""Sums of products -> matrix factorizations -> MCM/Ulrich statistics."""

from fractions import Fraction

import pytest

import matfac.linalg as linalg
import matfac.ulrich as ulrich
from matfac import (
    MatFac,
    MatfacError,
    Matrix,
    Polynomial,
    PolynomialRing,
    Refusal,
    SumOfProducts,
    build_from_sum,
    build_ulrich,
    cyclotomic_field,
    extension_ses,
    indecomposable_ulrich,
    mcm_stats,
    sum_of_products,
)
from matfac.factorization import ValidationEntry, ValidationReport

F3 = cyclotomic_field(3)
R9 = PolynomialRing(F3, ("x1", "x2", "x0", "y1", "y2", "y0", "z1", "z2", "z0"))

ROWS = [
    [R9.variable("x1"), R9.variable("x2"), R9.variable("x0")],
    [R9.variable("y1"), R9.variable("y2"), R9.variable("y0")],
    [R9.variable("z1"), R9.variable("z2"), R9.variable("z0")],
]


@pytest.fixture(scope="module")
def trinomial():
    spec = sum_of_products(R9, ROWS)
    x, report = build_from_sum(spec)
    return spec, x, report


def test_sum_of_products_shape():
    spec = sum_of_products(R9, ROWS)
    assert spec.problems() == []
    assert (spec.n_terms, spec.d, spec.k) == (3, 3, 3)


def test_build_from_sum_rank_and_determinants(trinomial):
    _, x, report = trinomial
    assert report.passed
    assert x.n == 9 and report.rank_expected == 9
    # each slot has det = (sign) * f^(k^(N-2)) = (sign) * f^3
    assert report.det_exponent == 3
    assert len(report.det_signs) == 3
    assert set(report.det_signs) <= {"+", "-"}
    assert x.validate().passed


def test_mcm_stats_first_slot_is_ulrich(trinomial):
    _, x, _ = trinomial
    stats = mcm_stats(x, 1, irreducible=True)
    assert stats.mu == 9
    assert stats.rank_R == 3
    assert stats.ord_f == 3
    assert stats.e_R == 9
    assert stats.ulrich
    assert stats.ratio == Fraction(1)


def test_build_ulrich_matches_slotwise_stats(trinomial):
    spec, x, _ = trinomial
    pres, stats = build_ulrich(spec)
    assert pres.size == 9
    assert stats == mcm_stats(x, 1, irreducible=True)
    assert stats.note is None


def test_mcm_stats_product_of_two_slots(trinomial):
    _, x, _ = trinomial
    stats = mcm_stats(x, 2, irreducible=True)
    assert stats.mu == 9 and stats.rank_R == 6 and stats.e_R == 18
    assert stats.ratio == Fraction(1, 2)
    assert not stats.ulrich


def test_mcm_stats_requires_irreducibility_assertion(trinomial):
    _, x, _ = trinomial
    with pytest.raises(Refusal):
        mcm_stats(x, 1, irreducible=False)


def test_mcm_stats_rejects_full_product(trinomial):
    # ell = d would present f*I, which is not a module presentation here
    _, x, _ = trinomial
    with pytest.raises(MatfacError):
        mcm_stats(x, 3, irreducible=True)


def test_extension_ses(trinomial):
    _, x, _ = trinomial
    ses = extension_ses(x)
    assert ses.passed
    assert ses.squares_commute
    assert ses.l_stats.ulrich and ses.n_stats.ulrich
    assert ses.m_stats.ratio == Fraction(1, 2)
    assert ses.m.size == 9
    # any consecutive pair of slots works, not just the first
    ses2 = extension_ses(x, start=2)
    assert ses2.passed and ses2.m_stats.ratio == Fraction(1, 2)


def test_extension_ses_at_rank_twenty_seven():
    # the monomial build with N = 4 rows of k = 3 variables: M is the
    # product of two rank-27 factors, whose elimination is the bulk of the
    # sequence (its determinant is +-f^18)
    ring = PolynomialRing(F3, tuple(f"x{i}_{j}" for i in range(4) for j in range(3)))
    rows = [[ring.variable(f"x{i}_{j}") for j in range(3)] for i in range(4)]
    x, _ = build_from_sum(sum_of_products(ring, rows))
    ses = extension_ses(x)
    assert ses.m.size == 27 and ses.squares_commute
    assert ses.l_stats.ulrich and ses.n_stats.ulrich
    assert ses.m_stats.ratio == Fraction(1, 2)


def test_extension_ses_divides_little(monkeypatch):
    # the elimination of the rank-9 M rescales no row whose entry below the
    # pivot is zero: the dividends of all its exact divisions hold 244
    # terms, where rescaling every row at every step divides 538
    x, _ = build_from_sum(sum_of_products(R9, ROWS))
    dividend_terms = []
    divexact = Polynomial.divexact

    def counted(self, g):
        dividend_terms.append(len(self.terms))
        return divexact(self, g)

    monkeypatch.setattr(Polynomial, "divexact", counted)
    assert extension_ses(x).passed
    assert 0 < sum(dividend_terms) <= 538 // 2


def test_extension_ses_expands_no_single_factor_power(monkeypatch):
    # L and N present by one factor each (ell = 1), whose determinant the
    # build holds as (+-f)^3 and compares by factors; only M's product of two
    # factors (ell = 2) is eliminated and compared with the expanded f^6
    x, _ = build_from_sum(sum_of_products(R9, ROWS))
    exponents = []
    original = Polynomial.__pow__

    def counted(self, e):
        exponents.append(e)
        return original(self, e)

    monkeypatch.setattr(Polynomial, "__pow__", counted)
    ses = extension_ses(x)
    assert ses.passed
    assert (ses.l_stats.rank_R, ses.m_stats.rank_R, ses.n_stats.rank_R) == (3, 6, 3)
    assert exponents == [6]


def test_extension_ses_checks_once_and_eliminates_once(monkeypatch, count_calls):
    # validation and reducedness are checked once; the statistics are read
    # from the three presentations the sequence builds, and the only
    # elimination is M's product of two factors
    x, _ = build_from_sum(sum_of_products(R9, ROWS))
    counts = {"cokernel_presentation": 0, "validate": 0, "is_reduced": 0}
    for name in counts:
        original = getattr(MatFac, name)

        def counted(self, *args, name=name, original=original):
            counts[name] += 1
            return original(self, *args)

        monkeypatch.setattr(MatFac, name, counted)
    products = []
    matmul = linalg.Matrix.__matmul__

    def counted_matmul(a, b):
        products.append((a.nrows, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(linalg.Matrix, "__matmul__", counted_matmul)
    eliminations = count_calls(linalg.det_bareiss)
    ses = extension_ses(x)
    assert ses.passed and ses.m_stats.rank_R == 6
    assert counts == {"cokernel_presentation": 3, "validate": 1, "is_reduced": 1}
    assert products == [(9, 9), (9, 9)]  # M's product and the commuting square
    assert [m.nrows for (m,) in eliminations] == [9]


def test_mcm_stats_rejects_a_determinant_off_by_a_scalar(trinomial):
    # phi_1 doubled and phi_2 halved still validate and stay reduced, but
    # det(phi_1) = 2^9 (+-f^3) is no signed power of f
    _, x, _ = trinomial
    scaled = MatFac(x.ring, x.f, [x.mats[0].scale(F3.rational(2)),
                                  x.mats[1].scale(F3.rational(Fraction(1, 2))), x.mats[2]])
    assert scaled.validate().passed and scaled.is_reduced()
    for start in (1, 2):
        with pytest.raises(MatfacError, match="not a pure signed power of f"):
            mcm_stats(scaled, 1, irreducible=True, start=start)
    assert mcm_stats(scaled, 2, irreducible=True, start=1).rank_R == 6


def test_squared_factors_not_ulrich():
    rows_sq = [[g * g for g in row] for row in ROWS]
    spec_sq = sum_of_products(R9, rows_sq)
    x_sq, rep_sq = build_from_sum(spec_sq)
    assert rep_sq.passed
    stats = mcm_stats(x_sq, 1, irreducible=True)
    assert stats.mu == 9 and stats.rank_R == 3
    assert stats.ord_f == 6 and stats.e_R == 18
    assert not stats.ulrich
    assert stats.ratio == Fraction(1, 2)
    # build_ulrich flags the k != ord(f) downgrade instead of erroring
    _, stats2 = build_ulrich(spec_sq)
    assert stats2.note is not None and "ord(f) = 6" in stats2.note


def test_two_term_sum():
    spec = sum_of_products(R9, ROWS[:2])
    x, rep = build_from_sum(spec)
    assert rep.passed and x.n == 3 and rep.det_exponent == 1
    stats = mcm_stats(x, 1, irreducible=True)
    assert stats.mu == 3 and stats.e_R == 3 and stats.ulrich


def test_indecomposable_ulrich(trinomial):
    spec, x, _ = trinomial
    ub = indecomposable_ulrich(spec)
    assert ub.stats == mcm_stats(x, 1, irreducible=True)
    assert ub.uc_bound == 3
    assert ub.certificate.problems() == []
    assert ub.presentation.size == 9
    # the presentation is a factor of the certified subject, not of a second build
    assert ub.presentation.matrix is ub.certificate.subject.mats[0]
    claims = [c.claim for c in ub.consequences.claims]
    assert claims.count("indecomposable") == 1
    assert claims.count("shift_inequivalent") == 2
    assert claims.count("cokernel_indecomposable") == 3


def test_indecomposable_ulrich_keeps_downgrade_note():
    rows_sq = [[g * g for g in row] for row in ROWS]
    ub = indecomposable_ulrich(sum_of_products(R9, rows_sq))
    assert ub.stats.note is not None
    assert ub.uc_bound == 3


def test_indecomposable_route_refuses_non_coprime_rows():
    R2 = PolynomialRing(F3, ("x1", "x2", "y1", "y2", "z1", "z2"))
    bad_rows = [
        [R2.variable("x1"), R2.variable("x1"), R2.variable("x2")],
        [R2.variable("y1"), R2.variable("y2"), R2.variable("z1")],
    ]
    with pytest.raises(Refusal):
        indecomposable_ulrich(sum_of_products(R2, bad_rows))


def test_partition_regroups_factors():
    R8 = PolynomialRing(F3, ("x1", "x2", "x3", "x0", "y1", "y2", "y3", "y0"))
    rows4 = [
        [R8.variable(v) for v in ("x1", "x2", "x3", "x0")],
        [R8.variable(v) for v in ("y1", "y2", "y3", "y0")],
    ]
    # rows may group their four factors differently, as long as each is a partition
    part = (((0, 1), (2, 3)), ((0, 2), (1, 3)))
    spec = sum_of_products(R8, rows4, partition=part)
    assert spec.problems() == []
    assert spec.d == 4 and spec.k == 2
    x, rep = build_from_sum(spec)
    assert rep.passed and x.n == 2 and x.d == 2
    stats = mcm_stats(x, 1, irreducible=True)
    assert stats.mu == 2 and stats.rank_R == 1 and stats.ord_f == 4
    assert stats.ratio == Fraction(1, 2) and not stats.ulrich


def test_malformed_partitions_reported():
    R8 = PolynomialRing(F3, ("x1", "x2", "x3", "x0", "y1", "y2", "y3", "y0"))
    rows4 = [
        [R8.variable(v) for v in ("x1", "x2", "x3", "x0")],
        [R8.variable(v) for v in ("y1", "y2", "y3", "y0")],
    ]
    spec = sum_of_products(R8, rows4, partition=(((0, 1), (2, 3)), ((0, 2), (1, 3))))
    bad = SumOfProducts(R8, spec.f, spec.factors,
                        partition=(((0, 1), (2,)), ((0, 2), (1, 3))))
    assert any("cover indices" in p for p in bad.problems())
    bad2 = SumOfProducts(R8, spec.f, spec.factors,
                         partition=(((0, 1), (2, 3)),))
    assert any("one grouping per row" in p for p in bad2.problems())


def test_quadric_over_gaussian_field():
    F4 = cyclotomic_field(4)
    R4 = PolynomialRing(F4, ("x1", "y1", "x2", "y2"))
    rows2 = [[R4.variable("x1"), R4.variable("y1")],
             [R4.variable("x2"), R4.variable("y2")]]
    spec = sum_of_products(R4, rows2)
    x, rep = build_from_sum(spec)
    assert rep.passed and x.n == 2 and x.d == 2
    stats = mcm_stats(x, 1, irreducible=True)
    assert stats.mu == 2 and stats.e_R == 2 and stats.ulrich
    # no room for a middle module in the SES construction when d = 2
    with pytest.raises(MatfacError):
        extension_ses(x)


def test_malformed_sums_rejected():
    F4 = cyclotomic_field(4)
    R4 = PolynomialRing(F4, ("x1", "y1", "x2", "y2"))
    unit_rows = [[R4.variable("x1"), R4.one()],
                 [R4.variable("x2"), R4.variable("y2")]]
    sp = sum_of_products(R4, unit_rows)
    assert any("unit" in p for p in sp.problems())
    good = sum_of_products(R4, [[R4.variable("x1"), R4.variable("y1")],
                                [R4.variable("x2"), R4.variable("y2")]])
    wrong_f = SumOfProducts(R4, R4.variable("x1"), good.factors)
    assert any("not the sum" in p for p in wrong_f.problems())
    with pytest.raises(MatfacError):
        build_from_sum(sp)


@pytest.mark.parametrize("n_rows,linear", [(7, False), (6, True)],
                         ids=["monomial-7x2", "linear-6x2"])
def test_build_ulrich_at_rank_64_and_32(n_rows, linear):
    # rows x_i0 * x_i1, or (x_i0 + x_i1) * x_i1 with a dense linear factor;
    # every factor's determinant is read as (-f)^s with s = 2^(N-2)
    names = [f"x{i}_{j}" for i in range(n_rows) for j in range(2)]
    ring = PolynomialRing(cyclotomic_field(2), tuple(names))
    var = ring.variable
    rows = [[var(f"x{i}_0") + (var(f"x{i}_1") if linear else ring.zero()), var(f"x{i}_1")]
            for i in range(n_rows)]
    pres, stats = build_ulrich(sum_of_products(ring, rows))
    assert pres.size == stats.mu == 2 ** (n_rows - 1)
    assert stats.rank_R == 2 ** (n_rows - 2)
    assert stats.ulrich and stats.note is None


def test_build_ulrich_computes_each_factor_determinant_once(count_calls, count_tensors):
    # each factor's determinant is computed once, in factored form, by one
    # read of its recorded block product (`_block_cyclic_cut`) in the
    # build's verification; the stats ask for the
    # first factor's determinant again and read it from the matrix, and a
    # build eliminates nothing: det_bareiss never runs
    ring = PolynomialRing(cyclotomic_field(2), ("x1", "x2", "y1", "y2", "z1", "z2"))
    rows = [[ring.variable(f"{v}1"), ring.variable(f"{v}2")] for v in "xyz"]
    spec = sum_of_products(ring, rows)
    cuts = count_calls(linalg._block_cyclic_cut)
    eliminations = count_calls(linalg.det_bareiss)
    pres, stats = build_ulrich(spec)
    assert stats.ulrich and pres.size == 4
    assert [m.nrows for (m,) in cuts] == [4] * spec.k
    assert eliminations == []
    # the certified route builds the chain once (N - 1 tensors), the
    # certificate's verification builds none, and each factor's
    # determinant is still computed once
    cuts.clear()
    count_tensors.clear()
    ub = indecomposable_ulrich(spec)
    assert ub.stats.ulrich and ub.presentation.size == 4
    assert len(count_tensors) == spec.n_terms - 1
    assert [m.nrows for (m,) in cuts] == [4] * spec.k
    assert eliminations == []
    # the certificate keeps its verdict: asking again rebuilds nothing
    count_tensors.clear()
    assert ub.certificate.problems() == []
    assert count_tensors == []


def test_ulrich_builds_expand_no_power_of_f(monkeypatch):
    # the factor determinants stop at (+-f) * I_s and are compared with the
    # tensor determinant law by their factors, and the stats are read from
    # the exponent that comparison verified: no power of f is ever expanded
    # and mcm_stats (the oracle) never runs
    powers, stats_calls = [], []
    power, oracle_stats = Polynomial.__pow__, ulrich.mcm_stats

    def counting_power(base, s):
        powers.append((base, s))
        return power(base, s)

    def counting_stats(*args, **kwargs):
        stats_calls.append(args)
        return oracle_stats(*args, **kwargs)

    monkeypatch.setattr(Polynomial, "__pow__", counting_power)
    monkeypatch.setattr(ulrich, "mcm_stats", counting_stats)
    spec = sum_of_products(R9, ROWS)
    for build in (build_ulrich, indecomposable_ulrich):
        build(spec)
        assert powers == []
        assert stats_calls == []


def test_uncertifiable_row_refuses_before_any_tensor(count_tensors):
    rows = ROWS[:2] + [[R9.variable("z1") + R9.variable("z2"), R9.variable("z2"),
                        R9.variable("z0")]]
    with pytest.raises(Refusal):
        indecomposable_ulrich(sum_of_products(R9, rows))
    assert count_tensors == []


@pytest.mark.parametrize("corrupt,found", [
    (lambda power: (power[0], 2 * power[1]), r"found f\^2"),
    (lambda power: (-power[0], power[1]), r"found -f\^1"),
    # what a determinant of 2f would give
    (lambda power: None, "no signed power of f"),
], ids=["doubled", "negated", "non-scalar"])
def test_build_from_sum_raises_on_a_corrupted_factor_determinant(monkeypatch, corrupt, found):
    # factor 1's answer to det = +-f^s of the rank-3 build (law: f^1) is
    # corrupted: a doubled exponent, a negated sign (still +-f^1, but not
    # the sign the tensor determinant law gives), no power at all.  The
    # message names the factor and what was found.
    spec = sum_of_products(R9, ROWS[:2])
    seen = []
    original = linalg.Matrix.det_as_power

    def corrupting(m, g):
        power = original(m, g)
        seen.append(m)
        return corrupt(power) if len(seen) == 2 else power

    monkeypatch.setattr(linalg.Matrix, "det_as_power", corrupting)
    with pytest.raises(MatfacError, match=r"factor 1: determinant is not \+-f\^1: " + found):
        build_from_sum(spec)
    assert len(seen) == 2


def test_build_from_sum_raises_when_the_build_does_not_validate(monkeypatch):
    # the rank-one rows validate (tensor() requires it); the built tensor does not
    original = MatFac.validate

    def failing_above_rank_one(self):
        if self.n == 1:
            return original(self)
        return ValidationReport([ValidationEntry(start=0, ok=False)])

    monkeypatch.setattr(MatFac, "validate", failing_above_rank_one)
    with pytest.raises(MatfacError, match="validates=False"):
        build_from_sum(sum_of_products(R9, ROWS[:2]))


def test_empty_sum_of_products_is_a_problem_not_an_index_error():
    ring = PolynomialRing(cyclotomic_field(3), ("x",))
    spec = sum_of_products(ring, [])
    assert spec.problems() == ["need at least 2 terms, got 0"]
    with pytest.raises(MatfacError, match="need at least 2 terms, got 0"):
        build_from_sum(spec)


def _rows(*rows):
    return [[R9.parse(e) for e in row] for row in rows]


@pytest.mark.parametrize("rows, partition, problems", [
    (_rows(["x1"], ["y1"]), None, ["need at least 2 factors per term, got 1"]),
    (_rows(["x1", "x2"], ["y1", "y2", "y0"]), None, ["rows have unequal lengths"]),
    (_rows(["x1", "x2", "x0"], ["y1", "y2", "y0"]), (((0, 1), (2,)),),
     ["partition must have one grouping per row"]),
    (_rows(["x1", "x2", "x0"], ["y1", "y2", "y0"]), (((0, 1, 2),), ((0, 1, 2),)),
     ["partition blocks per row must be >= 2, got 1"]),
    (_rows(["x1", "x2", "x0"], ["y1", "y2", "y0"]), (((0, 1), (2,)), ((0,), (1,), (2,))),
     ["row 1: expected 2 blocks, got 3"]),
], ids=["one-factor", "unequal-rows", "partition-rows", "one-block", "block-count"])
def test_malformed_sum_of_products_lists_its_problems(rows, partition, problems):
    spec = sum_of_products(R9, rows, partition)
    assert spec.problems() == problems
    with pytest.raises(MatfacError, match="malformed sum of products: "):
        build_from_sum(spec)


def test_module_statistics_refuse_unmet_hypotheses(trinomial):
    _, x, _ = trinomial
    invalid = MatFac(R9, x.f, [x.mats[0], x.mats[0], x.mats[2]])
    with pytest.raises(MatfacError, match="factorization does not validate"):
        mcm_stats(invalid, 1, irreducible=True)
    with pytest.raises(MatfacError, match="factorization does not validate"):
        extension_ses(invalid)
    x1 = R9.variable("x1")
    projective_like = MatFac(R9, x1, [Matrix(R9, [[e]]) for e in (x1, R9.one(), R9.one())])
    with pytest.raises(MatfacError, match="needs a reduced factorization"):
        mcm_stats(projective_like, 1, irreducible=True)
    two_fold = MatFac(R9, x1 * x1, [Matrix(R9, [[x1]])] * 2)
    with pytest.raises(MatfacError, match="extension sequence needs d >= 3"):
        extension_ses(two_fold)
    # (x1, 0) factors f = 0: validated and reduced, but phi_2 presents nothing
    zero_f = MatFac(R9, R9.zero(), [Matrix(R9, [[x1]]), Matrix(R9, [[R9.zero()]])])
    with pytest.raises(MatfacError, match="presentation determinant is zero"):
        mcm_stats(zero_f, 1, irreducible=True, start=2)
    # phi_1 = (x1) presents with determinant x1, no signed power of f = 0
    with pytest.raises(MatfacError, match="not a pure signed power of f"):
        mcm_stats(zero_f, 1, irreducible=True, start=1)
