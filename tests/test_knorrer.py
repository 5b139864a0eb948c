"""Symmetric tensor products split into shifted copies of a linear pencil:
root-of-unity sums, circulant base changes, and the decomposition itself."""

import re

import pytest

from matfac import (
    MatFac,
    MatfacError,
    Matrix,
    Morphism,
    OmegaContext,
    PolynomialRing,
    alpha_matrix,
    block_diagonalize,
    cyclotomic_field,
    decompose_symmetric,
    omega_context,
    root_sum,
    tensor,
)

from matfac import knorrer, morphisms
from matfac.cyclo import CycloElem
from matfac.linalg import _det_field, inverse_field, rref
from oracles import det_cofactor


def test_root_sum_product_identity_up_to_d_eight():
    for d in range(2, 9):
        fld = cyclotomic_field(2 * d)
        ctx = omega_context(d, omega=fld.zeta(1))
        for t in range(0, 2 * d):
            if (t + d) % 2:
                continue
            s = root_sum(ctx, t)
            assert not s.is_zero()
            # independent recomputation of both halves of the identity
            direct = fld.zero()
            conj = fld.zero()
            for j in range(d):
                direct = direct + ctx.omega_pow(-j * j + t * j)
                conj = conj + ctx.omega_pow(j * j - t * j)
            assert s == direct
            assert direct * conj == fld.rational(d)


def test_root_sum_parity_requirement():
    ctx = omega_context(3, omega=cyclotomic_field(6).zeta(1))
    with pytest.raises(MatfacError):
        root_sum(ctx, 2)  # t + d odd


def test_alpha_matrix_determinants_are_units():
    for d in range(2, 9):
        fld = cyclotomic_field(2 * d)
        ctx = omega_context(d, omega=fld.zeta(1))
        for k in range(d):
            alpha = alpha_matrix(ctx, k)
            det = det_cofactor(alpha)  # independent of the package determinant
            assert det == alpha.det()
            assert not det.is_zero()
            assert det * det.inverse() == fld.one()


@pytest.mark.parametrize("d", [7, 8])
def test_alpha_matrices_share_the_root_sums_of_their_context(count_calls, d):
    # the d root sums do not depend on k: one context computes each once for
    # all d alpha matrices, which still check their own determinants
    calls = count_calls(root_sum)
    ctx = omega_context(d, omega=cyclotomic_field(2 * d).zeta(1))
    for k in range(d):
        alpha_matrix(ctx, k)
    assert sorted(t for (_, t) in calls) == [d + 2 * s for s in range(1, d + 1)]


def test_omega_pow_reads_the_power_table():
    for d in range(2, 9):
        fld = cyclotomic_field(2 * d)
        ctx = omega_context(d, omega=fld.zeta(1))
        for e in range(-4 * d, 4 * d + 1):
            assert ctx.omega_pow(e) == ctx.omega ** (e % (2 * d))


def test_odd_d_bootstrap_from_d_th_root():
    F3 = cyclotomic_field(3)
    ctx = omega_context(3, zeta=F3.zeta(1))
    # omega = -zeta is a primitive 6th root; its square is the twist
    assert ctx.omega_pow(1) == -F3.zeta(1)
    assert ctx.omega_pow(2) == F3.zeta(2)
    with pytest.raises(MatfacError):
        omega_context(4, zeta=cyclotomic_field(4).zeta(1))  # even d needs a 2d-th root


def test_block_diagonalize_conjugation_identities():
    F = cyclotomic_field(4)
    R = PolynomialRing(F, ("x", "y"))
    ctx = omega_context(2, omega=F.zeta(1))
    a = Matrix(R, [[R.variable("x")]])
    b = Matrix(R, [[R.variable("y")]])
    alphas, diag_blocks, report = block_diagonalize(ctx, a, b)
    assert report.passed
    assert len(alphas) == 2 and len(diag_blocks) == 2
    # diagonal blocks are the expected pencils a - w^(odd) b
    assert diag_blocks[0][0, 0] == R.parse("x - z^3*y")
    assert diag_blocks[0][1, 1] == R.parse("x - z*y")


def test_block_diagonalize_rejects_non_commuting():
    F = cyclotomic_field(4)
    R = PolynomialRing(F, ("x", "y"))
    ctx = omega_context(2, omega=F.zeta(1))
    a = Matrix(R, [[R.parse("x"), R.parse("1")], [R.parse("0"), R.parse("x")]])
    b = Matrix(R, [[R.parse("y"), R.parse("0")], [R.parse("1"), R.parse("y")]])
    with pytest.raises(MatfacError):
        block_diagonalize(ctx, a, b)


def knorrer_pair(R, xname, yname):
    x_var, y_var = R.variable(xname), R.variable(yname)
    d = 2
    X = MatFac(R, x_var * x_var, [Matrix(R, [[x_var]])] * d)
    Y = MatFac(R, y_var * y_var, [Matrix(R, [[y_var]])] * d)
    return X, Y


def test_two_fold_decomposition_matches_display():
    F = cyclotomic_field(4)  # contains i = z
    R = PolynomialRing(F, ("x", "y"))
    X, Y = knorrer_pair(R, "x", "y")
    ctx = omega_context(2, omega=F.zeta(1))
    dec = decompose_symmetric(X, Y, ctx)

    # the tensor itself is the classical corner pattern ((y,x),(x,-y))
    t = tensor(X, Y, ctx.omega_pow(2))
    corner = Matrix(R, [[R.parse("y"), R.parse("x")], [R.parse("x"), R.parse("-y")]])
    assert t.mats[0] == corner and t.mats[1] == corner

    # pencil blocks (x - i y, x + i y), and the sum of its shifts
    assert dec.summand.mats[0] == Matrix(R, [[R.parse("x - z*y")]])
    assert dec.summand.mats[1] == Matrix(R, [[R.parse("x + z*y")]])
    expected_total = dec.summand.direct_sum(dec.summand.shift(1))
    assert dec.total == expected_total
    assert dec.total.mats[0] == Matrix(R, [[R.parse("x - z*y"), R.parse("0")],
                                           [R.parse("0"), R.parse("x + z*y")]])
    assert dec.total.mats[1] == Matrix(R, [[R.parse("x + z*y"), R.parse("0")],
                                           [R.parse("0"), R.parse("x - z*y")]])
    assert dec.report.passed


def test_two_fold_witnesses_are_exact_inverses():
    F = cyclotomic_field(4)
    R = PolynomialRing(F, ("x", "y"))
    X, Y = knorrer_pair(R, "x", "y")
    ctx = omega_context(2, omega=F.zeta(1))
    dec = decompose_symmetric(X, Y, ctx)
    fwd, bwd = dec.forward, dec.backward
    assert fwd.is_morphism() and bwd.is_morphism()
    assert fwd.is_isomorphism() and bwd.is_isomorphism()
    assert fwd.compose(bwd) == Morphism.identity(fwd.target)
    assert bwd.compose(fwd) == Morphism.identity(fwd.source)


def test_three_fold_decomposition_matches_display():
    F = cyclotomic_field(3)
    R = PolynomialRing(F, ("x", "y"))
    x_var, y_var = R.variable("x"), R.variable("y")
    X = MatFac(R, x_var ** 3, [Matrix(R, [[x_var]])] * 3)
    Y = MatFac(R, y_var ** 3, [Matrix(R, [[y_var]])] * 3)
    ctx = omega_context(3, zeta=F.zeta(1))
    dec = decompose_symmetric(X, Y, ctx)

    # the pencil (x + zeta y, x + y, x + zeta^2 y)
    assert dec.summand.mats[0] == Matrix(R, [[R.parse("x + z*y")]])
    assert dec.summand.mats[1] == Matrix(R, [[R.parse("x + y")]])
    assert dec.summand.mats[2] == Matrix(R, [[R.parse("x + z^2*y")]])
    assert dec.summand.validate().passed

    z1 = dec.summand
    expected_total = z1.direct_sum(z1.shift(1)).direct_sum(z1.shift(2))
    assert dec.total == expected_total
    assert dec.report.passed
    assert dec.forward.is_isomorphism() and dec.backward.is_isomorphism()
    assert dec.forward.compose(dec.backward) == Morphism.identity(dec.forward.target)
    assert dec.backward.compose(dec.forward) == Morphism.identity(dec.forward.source)


def test_decompose_requires_strict_symmetry():
    F = cyclotomic_field(3)
    R = PolynomialRing(F, ("x", "y"))
    x_var, y_var = R.variable("x"), R.variable("y")
    asym = MatFac(R, x_var ** 2 * (x_var + x_var),
                  [Matrix(R, [[x_var]]), Matrix(R, [[x_var]]),
                   Matrix(R, [[x_var + x_var]])])
    Y = MatFac(R, y_var ** 3, [Matrix(R, [[y_var]])] * 3)
    ctx = omega_context(3, zeta=F.zeta(1))
    with pytest.raises(MatfacError):
        decompose_symmetric(asym, Y, ctx)


def test_root_sum_rejects_a_non_root_omega():
    # hand-built context bypassing omega_context's checks: omega = 1 gives
    # sums 3 and 3, whose product 9 is not d = 3
    fld = cyclotomic_field(6)
    bad = OmegaContext(d=3, omega=fld.one(), zeta=fld.one())
    with pytest.raises(MatfacError, match="root sum product identity failed"):
        root_sum(bad, 1)


def three_fold_inputs():
    F = cyclotomic_field(3)
    R = PolynomialRing(F, ("x", "y"))
    x_var, y_var = R.variable("x"), R.variable("y")
    X = MatFac(R, x_var ** 3, [Matrix(R, [[x_var]])] * 3)
    Y = MatFac(R, y_var ** 3, [Matrix(R, [[y_var]])] * 3)
    return X, Y, omega_context(3, zeta=F.zeta(1))


def four_verdicts(dec):
    return (dec.forward.is_morphism(), dec.backward.is_morphism(),
            dec.forward.is_isomorphism(), dec.backward.is_isomorphism())


def test_decompose_computes_forward_law_once(monkeypatch):
    # no law is computed at rank dnm: forward's is derived from d x d
    # identities and data checks, backward's from it and the d x d round trip
    laws = []
    original = morphisms._intertwining_report

    def counted(comps, src, tgt):
        laws.append(comps)
        return original(comps, src, tgt)

    monkeypatch.setattr(morphisms, "_intertwining_report", counted)
    monkeypatch.setattr(knorrer, "_intertwining_report", counted)
    dec = decompose_symmetric(*three_fold_inputs())
    assert four_verdicts(dec) == (True, True, True, True)
    assert laws == []
    # the report's law entries are the ones the morphism keeps, each naming
    # its lemma
    assert dec.report.entries[:3] == dec.forward._report.entries
    assert [(e.start, e.ok, e.detail) for e in dec.forward._report.entries] == [
        (p, True, f"from the d x d identities at slot {p} by the mixed-product rule")
        for p in range(3)]
    derived = dec.backward._report
    assert derived.passed
    assert [(e.start, e.ok) for e in derived.entries] == [(0, True), (1, True), (2, True)]
    assert all("forward's law at slot" in e.detail for e in derived.entries)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_verdicts_compute_no_determinant_above_d(d, count_calls):
    # the witnesses are written in closed form and certified by forward's law
    # and the round trip: no determinant, root sum or elimination at any size
    fld = cyclotomic_field(2 * d)
    R = PolynomialRing(fld, ("x", "y"))
    x_var, y_var = R.variable("x"), R.variable("y")
    X = MatFac(R, x_var ** d, [Matrix(R, [[x_var]])] * d).direct_sum(
        MatFac(R, x_var ** d, [Matrix(R, [[x_var]])] * d))
    Y = MatFac(R, y_var ** d, [Matrix(R, [[y_var]])] * d)
    counted = {fn.__name__: count_calls(fn)
               for fn in (_det_field, inverse_field, rref, alpha_matrix, root_sum)}
    dec = decompose_symmetric(X, Y, omega_context(d, omega=fld.zeta(1)))
    assert four_verdicts(dec) == (True, True, True, True) and dec.report.passed
    assert dec.forward.source.n == 2 * d
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 0)

    # the same components outside decompose_symmetric take the determinant
    # route, and agree
    dets = counted["_det_field"]
    for w in (dec.forward, dec.backward):
        plain = Morphism(source=w.source, target=w.target, comps=w.comps)
        assert plain.is_isomorphism()
    assert sorted(m.nrows for (m,) in dets) == [2 * d] * (2 * d)


def test_closed_form_witnesses_equal_the_field_inverse():
    # the circulants of the first rows of alpha_k and alpha_k^-1 = alpha_k*/d,
    # written entry by entry, equal the determinant-certified alpha_matrix and
    # its inverse by elimination, and so do the constant terms of
    # decompose_symmetric's components
    for d in range(2, 11):
        fld = cyclotomic_field(2 * d)
        R = PolynomialRing(fld, ("x", "y"))
        ctx = omega_context(d, omega=fld.zeta(1))
        alphas = [alpha_matrix(ctx, k) for k in range(d)]
        inverses = [inverse_field(alpha) for alpha in alphas]
        assert [Matrix.circulant(fld, knorrer._alpha(ctx, k)) for k in range(d)] == alphas
        assert [Matrix.circulant(fld, knorrer._alpha(ctx, k, inverse=True))
                for k in range(d)] == inverses
        x_var, y_var = R.variable("x"), R.variable("y")
        X = MatFac(R, x_var ** d, [Matrix(R, [[x_var]])] * d)
        Y = MatFac(R, y_var ** d, [Matrix(R, [[y_var]])] * d)
        dec = decompose_symmetric(X, Y, ctx)
        assert [c.constant_terms() for c in dec.forward.comps] == alphas
        assert [c.constant_terms() for c in dec.backward.comps] == inverses


def test_inverse_rotated_the_wrong_way_fails_every_derived_verdict(monkeypatch):
    # alpha_k^-1 built with the exponents of alpha_(-k)^-1: wrong for k = 1, 2,
    # which only the d x d round trip can see
    original = knorrer._alpha
    monkeypatch.setattr(knorrer, "_alpha", lambda ctx, k, inverse=False:
                        original(ctx, -k if inverse else k, inverse))
    dec = decompose_symmetric(*three_fold_inputs())
    assert [e.start for e in dec.report.entries if not e.ok] == [-3]
    assert dec.forward._report.passed
    assert four_verdicts(dec) == (True, False, False, False)
    assert not any(e.ok for e in dec.backward._report.entries)


def test_corrupted_forward_component_fails_every_derived_verdict(monkeypatch):
    # forward's component 1 doubled after the field matrices are built: the
    # round trip still holds, and only forward's rank-dnm law sees it
    built = []

    def corrupting(source, target, comps):
        comps = list(comps)
        if not built:
            comps[1] = comps[1].scale(2)
        built.append(comps)
        return Morphism(source=source, target=target, comps=comps)

    monkeypatch.setattr(knorrer, "Morphism", corrupting)
    dec = decompose_symmetric(*three_fold_inputs())
    assert [e.start for e in dec.report.entries if not e.ok] == [0, 1]
    assert four_verdicts(dec) == (False, False, False, False)
    assert [e.ok for e in dec.backward._report.entries] == [False, False, True]
    # built by hand, backward's components pass their own law: the verdict
    # is derived, never read off how the components were made
    plain = Morphism(source=dec.backward.source, target=dec.backward.target,
                     comps=dec.backward.comps)
    assert plain.is_morphism() and plain.is_isomorphism()


def test_corrupted_inverse_fails_the_round_trip_entry(monkeypatch):
    # every alpha_k^-1 with two unequal entries of its first row swapped
    original = knorrer._alpha

    def corrupted(ctx, k, inverse=False):
        row = original(ctx, k, inverse)
        if inverse:
            j = next(j for j in range(1, len(row)) if row[j] != row[0])
            row[0], row[j] = row[j], row[0]
        return row

    monkeypatch.setattr(knorrer, "_alpha", corrupted)
    dec = decompose_symmetric(*three_fold_inputs())
    assert not dec.report.passed
    assert [e.start for e in dec.report.entries if not e.ok] == [-3]
    assert not dec.backward.is_morphism()
    assert four_verdicts(dec) == (True, False, False, False)
    # the law computed afresh on backward's components fails too
    bwd = dec.backward
    assert not morphisms._intertwining_report(bwd.comps, bwd.source.mats, bwd.target.mats).passed


def test_decompose_makes_quadratically_many_field_products(monkeypatch):
    # the twist identity at slot 0, one row of the round trip and d entries
    # per inverse: doubling d about quadruples the field products, where
    # d x d products at every slot would multiply them by 8
    counts = []
    for d in (16, 32):
        fld = cyclotomic_field(2 * d)
        R = PolynomialRing(fld, ("x", "y"))
        x_var, y_var = R.variable("x"), R.variable("y")
        X = MatFac(R, x_var ** d, [Matrix(R, [[x_var]])] * d)
        Y = MatFac(R, y_var ** d, [Matrix(R, [[y_var]])] * d)
        ctx = omega_context(d, omega=fld.zeta(1))
        decompose_symmetric(X, Y, ctx)  # the field's and the context's tables
        calls = []
        original = CycloElem.__mul__
        monkeypatch.setattr(CycloElem, "__mul__",
                            lambda a, b: calls.append(None) or original(a, b))
        dec = decompose_symmetric(X, Y, ctx)
        monkeypatch.setattr(CycloElem, "__mul__", original)
        assert dec.report.passed
        counts.append(len(calls))
    assert counts[1] <= 4.5 * counts[0]


def test_decompose_builds_no_d_by_d_matrix_but_the_twist_pair(count_calls):
    # the witnesses are first rows: no row or column is copied out of a
    # matrix, e_0 included, and the only field circulants are A_0 and A_1,
    # which the twist identity and the round trip multiply out
    d = 32
    fld = cyclotomic_field(2 * d)
    R = PolynomialRing(fld, ("x", "y"))
    x_var, y_var = R.variable("x"), R.variable("y")
    X = MatFac(R, x_var ** d, [Matrix(R, [[x_var]])] * d)
    Y = MatFac(R, y_var ** d, [Matrix(R, [[y_var]])] * d)
    ctx = omega_context(d, omega=fld.zeta(1))
    copies = count_calls(Matrix.submatrix)
    circulants = count_calls(Matrix.circulant)
    dec = decompose_symmetric(X, Y, ctx)
    assert dec.report.passed
    assert copies == []
    assert len([space for space, _ in circulants if space == fld]) <= 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sum_of_shifts_validates_exactly_when_the_summand_does(d):
    # decompose_symmetric checks Z alone: the sum of its shifts has, at each
    # start, the block sum of Z's cyclic products over all d starts
    fld = cyclotomic_field(2 * d)
    R = PolynomialRing(fld, ("x", "y"))
    x_var, y_var = R.variable("x"), R.variable("y")
    X = MatFac(R, x_var ** d, [Matrix(R, [[x_var]])] * d)
    Y = MatFac(R, y_var ** d, [Matrix(R, [[y_var]])] * d)
    dec = decompose_symmetric(X, Y, omega_context(d, omega=fld.zeta(1)))
    assert dec.total.validate().passed == dec.summand.validate().passed
    assert dec.report.passed
    assert sorted(e.start for e in dec.report.entries if e.start < 0) == [-3, -1]

    z = dec.summand
    tampered = MatFac(R, z.f, [z.mats[0].scale(fld.rational(2))] + list(z.mats[1:]))
    tampered_total = tampered
    for i in range(1, d):
        tampered_total = tampered_total.direct_sum(tampered.shift(i))
    assert not tampered.validate().passed
    assert not any(e.ok for e in tampered_total.validate().entries)


@pytest.mark.parametrize("d, kwargs, message", [
    (1, dict(omega=cyclotomic_field(2).zeta(1)), "need d >= 2"),
    (3, {}, "supply omega (a 2d-th root) or, for odd d, zeta"),
    (3, dict(zeta=cyclotomic_field(3).one()), "zeta is not a primitive 3-th root of unity"),
    (3, dict(omega=cyclotomic_field(3).zeta(1)), "omega is not a primitive 6-th root of unity"),
], ids=["d-one", "no-root", "zeta-not-primitive", "omega-not-primitive"])
def test_omega_context_refuses_roots_it_cannot_use(d, kwargs, message):
    with pytest.raises(MatfacError, match=re.escape(message)):
        omega_context(d, **kwargs)


def test_block_diagonalize_refuses_unequal_shapes_and_spaces():
    F = cyclotomic_field(4)
    R = PolynomialRing(F, ("x", "y"))
    ctx = omega_context(2, omega=F.zeta(1))
    a = Matrix(R, [[R.variable("x")]])
    with pytest.raises(MatfacError, match="need square matrices of equal size"):
        block_diagonalize(ctx, a, Matrix.identity(R, 2))
    other = PolynomialRing(F, ("u",))
    with pytest.raises(MatfacError, match="matrices live over different spaces"):
        block_diagonalize(ctx, a, Matrix(other, [[other.variable("u")]]))


def test_decompose_refuses_mismatched_inputs():
    F = cyclotomic_field(3)
    R = PolynomialRing(F, ("x", "y"))
    x_var, y_var = R.variable("x"), R.variable("y")
    X = MatFac(R, x_var ** 3, [Matrix(R, [[x_var]])] * 3)
    Y = MatFac(R, y_var ** 3, [Matrix(R, [[y_var]])] * 3)
    ctx = omega_context(3, zeta=F.zeta(1))
    S = PolynomialRing(F, ("y",))
    other = MatFac(S, S.variable("y") ** 3, [Matrix(S, [[S.variable("y")]])] * 3)
    with pytest.raises(MatfacError, match="factors live over different rings"):
        decompose_symmetric(X, other, ctx)
    with pytest.raises(MatfacError, match="context and factorizations disagree on d"):
        decompose_symmetric(X, Y, omega_context(2, omega=cyclotomic_field(4).zeta(1)))
    asym = MatFac(R, y_var ** 2 * (y_var + y_var),
                  [Matrix(R, [[y_var]]), Matrix(R, [[y_var]]), Matrix(R, [[y_var + y_var]])])
    with pytest.raises(MatfacError, match="second factor is not shift-symmetric"):
        decompose_symmetric(X, asym, ctx)
