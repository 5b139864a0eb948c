"""Sums of products -> matrix factorizations -> MCM/Ulrich statistics."""

from fractions import Fraction

import pytest

import matfac.linalg as linalg
from matfac import (
    MatfacError,
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


def test_build_ulrich_computes_each_factor_determinant_once(monkeypatch):
    # build_from_sum already holds det phi_1; mcm_stats must not redo it
    ring = PolynomialRing(cyclotomic_field(2), ("x1", "x2", "y1", "y2", "z1", "z2"))
    rows = [[ring.variable(f"{v}1"), ring.variable(f"{v}2")] for v in "xyz"]
    spec = sum_of_products(ring, rows)
    calls = []
    original = linalg.det_bareiss

    def counting(m):
        calls.append(m.nrows)
        return original(m)

    monkeypatch.setattr(linalg, "det_bareiss", counting)
    pres, stats = build_ulrich(spec)
    assert stats.ulrich and pres.size == 4
    assert calls == [4] * spec.k
