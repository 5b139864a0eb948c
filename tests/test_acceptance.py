"""Acceptance gate: one test per advertised guarantee of the toolkit.

Every check here is exact (field arithmetic, zero tolerance) and most are
cross-checked against independent recomputations -- the cofactor determinant
oracle, hand-built direct sums, frozen matrices.  One pass/fail line per
criterion under pytest -v.
"""

from fractions import Fraction

from matfac import (
    MatFac,
    Matrix,
    Morphism,
    PolynomialRing,
    StrongIndCert,
    admits_invertible_combination,
    alpha_matrix,
    build_from_sum,
    constant_term_spot_check,
    coprime_rank_one_cert,
    cyclotomic_field,
    decompose_symmetric,
    det_check,
    distribute_witness,
    extension_ses,
    hom_space_jets,
    indecomposable_ulrich,
    mcm_stats,
    omega_context,
    propagate_strong_ind,
    reduce_tensor_witness,
    root_sum,
    scale_by_units,
    shift_witness,
    split_idempotent,
    sum_of_products,
    swap_witness,
    tensor,
)

from oracles import det_cofactor

# -- shared fixtures -------------------------------------------------------------

F3 = cyclotomic_field(3)
R9 = PolynomialRing(F3, ("x1", "x2", "x0", "y1", "y2", "y0", "z1", "z2", "z0"))
ZETA = F3.zeta(1)


def rank_one(ring, *names):
    entries = [ring.variable(v) for v in names]
    f = ring.one()
    for e in entries:
        f = f * e
    return MatFac(ring, f, [Matrix(ring, [[e]]) for e in entries])


X = rank_one(R9, "x1", "x2", "x0")
Y = rank_one(R9, "y1", "y2", "y0")
Z = rank_one(R9, "z1", "z2", "z0")


def grid_ring(d):
    fld = cyclotomic_field(d)
    names = tuple(f"u{i}" for i in range(d)) + tuple(f"v{i}" for i in range(d))
    ring = PolynomialRing(fld, names)
    x1 = rank_one(ring, *(f"u{i}" for i in range(d)))
    y1 = rank_one(ring, *(f"v{i}" for i in range(d)))
    return ring, fld, x1, y1


def grid_factor(base, rank):
    return base if rank == 1 else base.direct_sum(base.shift(1))


GRID = [(d, n, m) for d in (2, 3, 4, 5) for n in (1, 2) for m in (1, 2)]


def symmetric_pair(d, n, m):
    """Strictly shift-symmetric factorizations of x^d and y^d of ranks n, m."""
    fld = cyclotomic_field(4 if d == 2 else d)
    ring = PolynomialRing(fld, ("x", "y"))
    xv, yv = ring.variable("x"), ring.variable("y")
    sx = MatFac(ring, xv ** d, [Matrix(ring, [[xv]])] * d)
    sy = MatFac(ring, yv ** d, [Matrix(ring, [[yv]])] * d)
    for _ in range(n - 1):
        sx = sx.direct_sum(MatFac(ring, xv ** d, [Matrix(ring, [[xv]])] * d))
    for _ in range(m - 1):
        sy = sy.direct_sum(MatFac(ring, yv ** d, [Matrix(ring, [[yv]])] * d))
    ctx = (omega_context(2, omega=fld.zeta(1)) if d == 2
           else omega_context(d, zeta=fld.zeta(1)))
    return ring, sx, sy, ctx


ULRICH_ROWS = [
    [R9.variable("x1"), R9.variable("x2"), R9.variable("x0")],
    [R9.variable("y1"), R9.variable("y2"), R9.variable("y0")],
    [R9.variable("z1"), R9.variable("z2"), R9.variable("z0")],
]


# -- criteria ----------------------------------------------------------------------


def test_criterion_01_worked_example_reproduced_exactly():
    def as_matrix(rows):
        return Matrix(R9, [[R9.parse(s) for s in row] for row in rows])

    a1 = as_matrix([["y1", "x1", "0"], ["0", "z*y0", "x2"], ["x0", "0", "z^2*y2"]])
    a2 = as_matrix([["y2", "x1", "0"], ["0", "z*y1", "x2"], ["x0", "0", "z^2*y0"]])
    a0 = as_matrix([["y0", "x1", "0"], ["0", "z*y2", "x2"], ["x0", "0", "z^2*y1"]])
    t = tensor(X, Y, ZETA)
    assert t.mats[0] == a1 and t.mats[1] == a2 and t.mats[2] == a0

    zero3 = Matrix.zero(R9, 3, 3)

    def zscaled(name, power):
        return Matrix.scalar(R9, 3, R9.scalar(F3.zeta(power)) * R9.variable(name))

    t9 = tensor(t, Z, ZETA)
    expected = [
        Matrix.block(R9, [[zscaled("z1", 0), a1, zero3],
                          [zero3, zscaled("z0", 1), a2],
                          [a0, zero3, zscaled("z2", 2)]]),
        Matrix.block(R9, [[zscaled("z2", 0), a1, zero3],
                          [zero3, zscaled("z1", 1), a2],
                          [a0, zero3, zscaled("z0", 2)]]),
        Matrix.block(R9, [[zscaled("z0", 0), a1, zero3],
                          [zero3, zscaled("z2", 1), a2],
                          [a0, zero3, zscaled("z1", 2)]]),
    ]
    assert t9.n == 9
    for p in range(3):
        assert t9.mats[p] == expected[p]
    print("criterion 01: PASS - 3x3 and 9x9 worked examples match entry for entry")


def test_criterion_02_defining_identity_on_every_fixture():
    fixtures = []
    for d, n, m in GRID:
        ring, fld, x1, y1 = grid_ring(d)
        x, y = grid_factor(x1, n), grid_factor(y1, m)
        zeta = fld.root_of_unity(d, 1)
        t = tensor(x, y, zeta)
        units = (zeta, zeta.inverse()) + (fld.one(),) * (d - 2)
        scaled, _ = scale_by_units(x, units)
        fixtures += [x, y, t, t.shift(1), x.direct_sum(x.shift(1)), scaled]
    for d in (2, 3):
        _, sx, sy, ctx = symmetric_pair(d, 1, 1)
        dec = decompose_symmetric(sx, sy, ctx)
        fixtures += [dec.summand, dec.total]
    for w in fixtures:
        # a tensor and its shift carry a derived report: a fresh validation
        # of the same matrices must give the same one
        assert w.validate().passed
        assert MatFac(w.ring, w.f, w.mats).validate() == w.validate()
    print(f"criterion 02: PASS - validate passes on all {len(fixtures)} fixtures")


def test_criterion_03_determinant_law_with_cofactor_oracle():
    for d, n, m in GRID:
        _, fld, x1, y1 = grid_ring(d)
        x, y = grid_factor(x1, n), grid_factor(y1, m)
        zeta = fld.root_of_unity(d, 1)
        rep = det_check(x, y, zeta)
        assert rep.passed
        nm = n * m
        expected = (x.f + y.f) ** nm
        if (nm * (d + 1)) % 2:
            expected = -expected
        assert rep.expected == expected
        for mat in tensor(x, y, zeta).mats:
            assert det_cofactor(mat) == expected
    print(f"criterion 03: PASS - det law on {len(GRID)} grid cells, oracle-checked")


def test_criterion_04_knorrer_two_and_three_fold():
    ring, sx, sy, ctx = symmetric_pair(2, 1, 1)
    dec = decompose_symmetric(sx, sy, ctx)
    assert dec.summand.mats[0] == Matrix(ring, [[ring.parse("x - z*y")]])
    assert dec.summand.mats[1] == Matrix(ring, [[ring.parse("x + z*y")]])
    assert dec.total == dec.summand.direct_sum(dec.summand.shift(1))
    assert dec.forward.compose(dec.backward) == Morphism.identity(dec.total)
    assert dec.backward.compose(dec.forward) == Morphism.identity(dec.forward.source)

    ring, sx, sy, ctx = symmetric_pair(3, 1, 1)
    dec = decompose_symmetric(sx, sy, ctx)
    assert dec.summand.mats[0] == Matrix(ring, [[ring.parse("x + z*y")]])
    assert dec.summand.mats[1] == Matrix(ring, [[ring.parse("x + y")]])
    assert dec.summand.mats[2] == Matrix(ring, [[ring.parse("x + z^2*y")]])
    z1 = dec.summand
    assert dec.total == z1.direct_sum(z1.shift(1)).direct_sum(z1.shift(2))
    assert dec.forward.compose(dec.backward) == Morphism.identity(dec.total)
    assert dec.backward.compose(dec.forward) == Morphism.identity(dec.forward.source)
    print("criterion 04: PASS - pencil displays and conjugation witnesses exact")


def test_criterion_05_root_sums_and_circulant_units_to_d_eight():
    checked = 0
    for d in range(2, 9):
        fld = cyclotomic_field(2 * d)
        ctx = omega_context(d, omega=fld.zeta(1))
        for t in range(2 * d):
            if (t + d) % 2:
                continue
            s = root_sum(ctx, t)
            assert not s.is_zero()
            conj = fld.zero()
            for j in range(d):
                conj = conj + ctx.omega_pow(j * j - t * j)
            assert s * conj == fld.rational(d)
            checked += 1
        for k in range(d):
            det = alpha_matrix(ctx, k).det()
            assert det == det_cofactor(alpha_matrix(ctx, k))
            assert not det.is_zero()
            assert det * det.inverse() == fld.one()
    print(f"criterion 05: PASS - {checked} root sums nonzero, all alpha dets units")


def test_criterion_06_tensor_and_swap_refuted_at_first_jet():
    t1 = tensor(X, Y, ZETA)
    t2 = tensor(Y, X, ZETA)
    assert not admits_invertible_combination(hom_space_jets(t1, t2, 1))
    assert not admits_invertible_combination(hom_space_jets(t2, t1, 1))
    print("criterion 06: PASS - X(x)Y and Y(x)X separated by constant terms at N=1")


def test_criterion_07_reduction_reproduces_shifted_sums():
    def scaled_copies(base, copies, unit, i):
        ring = base.ring
        eye = Matrix.identity(ring, copies)
        shifted = base.shift(-i)
        return MatFac(ring, base.f,
                      [eye.kron(mat).scale(ring.scalar(unit)) for mat in shifted.mats])

    for n in (1, 2):
        for m in (1, 2):
            x = grid_factor(X, n)
            y = grid_factor(Y, m)
            w, rep = reduce_tensor_witness(x, y, ZETA, "left")
            assert rep.passed
            expected = None
            for i in range(3):
                block = scaled_copies(y, x.n, ZETA ** i, i)
                expected = block if expected is None else expected.direct_sum(block)
            assert w.target == expected
            assert w.source == expected  # left reduction is the sum verbatim

            w, rep = reduce_tensor_witness(x, y, ZETA, "right")
            assert rep.passed
            expected = None
            for i in range(3):
                block = scaled_copies(x, y.n, ZETA.inverse() ** i, i)
                expected = block if expected is None else expected.direct_sum(block)
            assert w.target == expected
            assert w.is_isomorphism()
    print("criterion 07: PASS - both reductions equal the hand-built shifted sums")


def test_criterion_08_idempotent_splitting_of_knorrer_projection():
    for d in (2, 3):
        for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
            ring, sx, sy, ctx = symmetric_pair(d, n, m)
            dec = decompose_symmetric(sx, sy, ctx)
            t = dec.forward.source
            nm = n * m
            blocks = [Matrix.identity(ring, nm)]
            blocks += [Matrix.zero(ring, nm, nm)] * (d - 1)
            proj = Matrix.block_diagonal(ring, blocks)
            p0 = Morphism(dec.total, dec.total, [proj] * d)
            e = dec.backward.compose(p0).compose(dec.forward)
            assert e.compose(e) == e
            res = split_idempotent(t, e)
            assert res.rank_image == nm
            assert res.complement.rank == (d - 1) * nm
            assert res.rank_image + res.complement.rank == t.n
            assert res.image.validate().passed
            assert res.complement.validate().passed
            assert res.witness.is_isomorphism()
    print("criterion 08: PASS - splits give ranks (nm, (d-1)nm), summands valid")


def test_criterion_09_ulrich_pipeline():
    spec = sum_of_products(R9, ULRICH_ROWS)
    x, rep = build_from_sum(spec)
    assert rep.passed
    stats = mcm_stats(x, 1, irreducible=True)
    assert stats.mu == 9 and stats.rank_R == 3 and stats.e_R == 9
    assert stats.ulrich
    ub = indecomposable_ulrich(spec)
    assert isinstance(ub.certificate, StrongIndCert)
    assert ub.certificate.problems() == []

    rows_sq = [[g * g for g in row] for row in ULRICH_ROWS]
    x_sq, rep_sq = build_from_sum(sum_of_products(R9, rows_sq))
    assert rep_sq.passed
    stats_sq = mcm_stats(x_sq, 1, irreducible=True)
    assert stats_sq.ratio == Fraction(1, 2)
    assert not stats_sq.ulrich

    x_n2, rep_n2 = build_from_sum(sum_of_products(R9, ULRICH_ROWS[:2]))
    assert rep_n2.passed
    stats_n2 = mcm_stats(x_n2, 1, irreducible=True)
    assert stats_n2.mu == 3 and stats_n2.e_R == 3 and stats_n2.ulrich
    print("criterion 09: PASS - mu=9/rank=3/e=9 Ulrich; a=2 ratio 1/2; N=2 mu=e=3")


def test_criterion_10_extension_short_exact_sequence():
    x, _ = build_from_sum(sum_of_products(R9, ULRICH_ROWS))
    ses = extension_ses(x)
    assert ses.passed
    assert ses.squares_commute
    assert ses.l_stats.ulrich and ses.n_stats.ulrich
    assert ses.m_stats.ratio == Fraction(1, 2)
    print("criterion 10: PASS - L, N Ulrich, middle term at ratio 1/2, squares exact")


def test_criterion_11_morphism_witnesses_and_spot_checks():
    for d, n, m in GRID:
        _, fld, x1, y1 = grid_ring(d)
        x, y = grid_factor(x1, n), grid_factor(y1, m)
        zeta = fld.root_of_unity(d, 1)
        w = swap_witness(x, y, zeta)
        assert w.is_morphism() and w.is_isomorphism()
        w, equal = shift_witness(x, y, zeta)
        assert equal and w.is_morphism() and w.is_isomorphism()
        w = distribute_witness(x, x.shift(1), y, zeta)
        assert w.is_morphism() and w.is_isomorphism()
        units = (zeta, zeta.inverse()) + (fld.one(),) * (d - 2)
        _, w = scale_by_units(x, units)
        assert w.is_morphism() and w.is_isomorphism()

    subjects = []
    for d in (2, 3):
        _, fld, x1, y1 = grid_ring(d)
        cx, cy = coprime_rank_one_cert(x1), coprime_rank_one_cert(y1)
        cxy = propagate_strong_ind(cx, cy, fld.root_of_unity(d, 1))
        assert cxy.problems() == []
        subjects += [cx.subject, cy.subject, cxy.subject]
    for s in subjects:
        assert s.n <= 3 and s.d <= 3
        assert constant_term_spot_check(s)
    print("criterion 11: PASS - all witnesses isomorphisms; spot-checks clean")
