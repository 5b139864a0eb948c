"""Symmetric tensor products split into shifted copies of a linear pencil:
root-of-unity sums, circulant base changes, and the decomposition itself."""

from fractions import Fraction

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
    bad = OmegaContext(d=3, omega=fld.one(), zeta=fld.one(),
                       inv_d=fld.rational(Fraction(1, 3)))
    with pytest.raises(MatfacError, match="root sum product identity failed"):
        root_sum(bad, 1)
