"""Kernel timings: one layer at a time, at fixed sizes, untraced.

Each kernel reports the median over a few repeats of a timed batch, per call:
microseconds for scalar and polynomial products, milliseconds for matrix
products, determinants and nullspaces.  The inputs are fixed (they do not
follow the workload seed), so kernel timings compare across runs.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import matfac as mf
import matfac.linalg as mlinalg
import matfac.morphisms as mmorph

from workloads import coprime_tensor

REPEATS = 5


def _per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _dense_elem(rng: random.Random, field):
    return field.element([Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
                          for _ in range(field.degree)])


def _nullspace_system(x, precision: int):
    """The sparse system hom_space_jets(X, T X) hands to sparse_nullspace."""
    captured = []
    original = mlinalg.sparse_nullspace

    def capture(rows, ncols, field):
        captured.append((rows, ncols, field))
        return original(rows, ncols, field)

    mmorph.sparse_nullspace = capture
    try:
        mf.hom_space_jets(x, x.shift(1), precision)
    finally:
        mmorph.sparse_nullspace = original
    return captured[0]


def measure() -> dict[str, float]:
    rng = random.Random("kernels")
    out = {}
    for m in (3, 4, 12, 14):
        fld = mf.cyclotomic_field(m)
        a, b = _dense_elem(rng, fld), _dense_elem(rng, fld)
        out[f"cyclo.mul_us.m{m}"] = _per_call(lambda: a * b, 200) * 1e6
    fld = mf.cyclotomic_field(12)
    a = _dense_elem(rng, fld)
    out["cyclo.inverse_us.m12"] = _per_call(a.inverse, 50) * 1e6

    ring = mf.PolynomialRing(mf.cyclotomic_field(3), ["u", "v", "w"])
    u, v, w = (ring.variable(n) for n in ("u", "v", "w"))
    z = ring.scalar(ring.field.zeta(1))
    p = (u + v + w + z) ** 3            # 20 terms with non-rational coefficients
    q = (u - v * z + w + 1) ** 3
    out["rings.mul_us.dense"] = _per_call(lambda: p * q, 5) * 1e6

    x9 = coprime_tensor(rng, 3, 3)
    out["linalg.matmul_ms.n9"] = _per_call(lambda: x9.mats[0] @ x9.mats[1], 5) * 1e3
    x27 = coprime_tensor(rng, 4, 3)
    out["linalg.matmul_ms.n27"] = _per_call(lambda: x27.mats[0] @ x27.mats[1], 1) * 1e3
    x8 = coprime_tensor(rng, 4, 2)
    out["linalg.det_poly_ms.n8"] = _per_call(lambda: mlinalg.det_bareiss(x8.mats[0]), 1) * 1e3
    rows, ncols, field = _nullspace_system(x9, 2)
    out["linalg.sparse_nullspace_ms.rank9"] = _per_call(
        lambda: mlinalg.sparse_nullspace(rows, ncols, field), 1, repeats=3) * 1e3
    return out
