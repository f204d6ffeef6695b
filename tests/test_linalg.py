"""Core operator/ket layer: tagged construction, moments, spectra."""

import dataclasses

import numpy as np
import pytest

import waylimit as w
from waylimit.linalg import ROUNDING_TOL, STRUCTURE_TOL, array_variance
from helpers import near_kernel_model

RNG_SEED = 2024


def test_tensor_identity_case():
    eye2 = w.identity(2)
    out = w.tensor(eye2, eye2)
    np.testing.assert_array_equal(out.matrix, np.eye(4))


def test_tensor_basis_kets_fixed_convention():
    up = w.named_state("alpha_z")
    out = w.tensor(up, up)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_total_spin_z_annihilates_opposite_pair():
    # oracle: the 4x4 matrix of S_z x I + I x S_z written out by hand
    total = np.diag([1.0, 0.0, 0.0, -1.0])
    _, _, sz = w.spin_operators()
    lib = w.tensor(sz, w.identity(2)).matrix + w.tensor(w.identity(2), sz).matrix
    np.testing.assert_allclose(lib, total, atol=1e-15)
    pair_state = w.tensor(w.named_state("alpha_z"), w.named_state("beta_z"))
    np.testing.assert_allclose(total @ pair_state.amplitudes, np.zeros(4), atol=1e-15)


def test_tensor_associative_under_fixed_flattening():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        a = w.random_hermitian(2, rng)
        b = w.random_hermitian(3, rng)
        c = w.random_hermitian(2, rng)
        left = w.tensor(w.tensor(a, b), c).matrix
        right = w.tensor(a, w.tensor(b, c)).matrix
        assert w.frobenius_norm(left - right) < 1e-12


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        w.tensor(w.identity(2), w.named_state("alpha_z"))


def test_expectation_eigenstate():
    _, _, sz = w.spin_operators()
    assert w.expectation(sz, w.named_state("alpha_z")) == pytest.approx(0.5, abs=1e-15)


def test_expectation_y_eigenstate():
    _, sy, _ = w.spin_operators()
    assert w.expectation(sy, w.named_state("alpha_y")) == pytest.approx(0.5, abs=1e-15)


def test_expectation_transverse_component_vanishes():
    # oracle: alpha_y from its x-basis combination, 2 alpha_y = (1+i) alpha_x + (1-i) beta_x,
    # then <S_x> = sum over x outcomes of (+-1/2) |coefficient/2|^2
    coeff_up = (1 + 1j) / 2
    coeff_dn = (1 - 1j) / 2
    oracle = 0.5 * abs(coeff_up) ** 2 - 0.5 * abs(coeff_dn) ** 2
    assert oracle == 0.0
    sx, _, _ = w.spin_operators()
    assert w.expectation(sx, w.named_state("alpha_y")) == pytest.approx(0.0, abs=1e-15)


def test_expectation_requires_hermitian_tag():
    plain = w.Operator(np.array([[0, 1], [0, 0]]))
    with pytest.raises(w.StructureError):
        w.expectation(plain, w.named_state("alpha_z"))


def test_expectation_dim_mismatch():
    with pytest.raises(w.DimensionMismatch):
        w.expectation(w.identity(3), w.named_state("alpha_z"))


def test_imaginary_residue_alarms_scale_with_x_v():
    # rounding of <v|X v> grows with X: at 1e8 x a random hermitian matrix
    # the residue passes the absolute STRUCTURE_TOL, not the scaled threshold
    passed = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = w.Operator.hermitian(1e8 * w.random_hermitian(8, rng).matrix)
        v = w.random_ket(8, rng)
        mean = np.vdot(v.amplitudes, x.matrix @ v.amplitudes)
        passed += abs(mean.imag) > STRUCTURE_TOL
        assert w.expectation(x, v) == mean.real
        w.variance(x, v)
    assert passed >= 5
    # at unit scale the threshold stays absolute
    with pytest.raises(w.StructureError, match="^variance mean has imaginary residue 2.000e-10$"):
        array_variance(np.diag([2e-10j, 0.0]), np.array([1.0, 0.0]))


def test_expectation_residue_alarm_near_the_kernel_of_a_large_operator():
    # the rounding of <v|X v> is of order eps ||X||, not eps ||X v||: near a
    # null vector of 1e10 x a random hermitian matrix the residue exceeds
    # STRUCTURE_TOL x max(1, ||X v||), but stays below STRUCTURE_TOL ||X||_F
    _, pair, psi = near_kernel_model()
    x, v = pair.L1.matrix, psi.amplitudes
    mean = complex(np.vdot(v, x @ v))
    assert abs(mean.imag) > STRUCTURE_TOL * max(1.0, w.frobenius_norm(x @ v))
    assert abs(mean.imag) < STRUCTURE_TOL * w.frobenius_norm(x)
    assert w.expectation(pair.L1, psi) == mean.real
    assert 0.0 <= w.variance(pair.L1, psi) < 1e-9
    # at this scale a residue of twice STRUCTURE_TOL ||X||_F still alarms
    shift = 2j * STRUCTURE_TOL * w.frobenius_norm(x)
    with pytest.raises(w.StructureError, match="^variance mean has imaginary residue"):
        array_variance(x + shift * np.eye(8), v)


def test_commutator_dim_mismatch():
    with pytest.raises(w.DimensionMismatch, match="^commutator: dims 2 vs 3$"):
        w.commutator(w.identity(2), w.identity(3))


def test_variance_eigenstate_is_zero():
    _, _, sz = w.spin_operators()
    assert w.variance(sz, w.named_state("alpha_z")) == 0.0


def test_variance_conjugate_state():
    _, _, sz = w.spin_operators()
    assert w.variance(sz, w.named_state("alpha_y")) == pytest.approx(0.25, abs=1e-15)


def test_variance_of_sum_on_up_state():
    # oracle: (S_x + S_z)^2 = I/2 by 2x2 arithmetic, <S_x + S_z> = 1/2 on up,
    # so the variance is 1/2 - 1/4 = 1/4
    sx, _, sz = w.spin_operators()
    sq = (sx.matrix + sz.matrix) @ (sx.matrix + sz.matrix)
    np.testing.assert_allclose(sq, 0.5 * np.eye(2), atol=1e-15)
    total = w.Operator.hermitian(sx.matrix + sz.matrix)
    assert w.variance(total, w.named_state("alpha_z")) == pytest.approx(0.25, abs=1e-15)


def test_variance_matches_moment_formula_and_is_nonnegative():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        x = w.random_hermitian(dim, rng)
        v = w.random_ket(dim, rng)
        var = w.variance(x, v)
        assert var >= 0.0
        second = w.expectation(w.Operator.hermitian(x.matrix @ x.matrix), v)
        mean = w.expectation(x, v)
        assert var == pytest.approx(second - mean ** 2, abs=1e-12)


def test_variance_alarms_and_clamp():
    # a non-hermitian x whose mean <v|x|v> has an imaginary residue
    e0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(w.StructureError, match="imaginary residue"):
        array_variance(np.diag([1j, 0.0]), e0)
    # a Ket may miss norm 1 by ROUNDING_TOL; with X = diag(4, 0) that puts
    # ||X v||^2 = 16 r^2 below <X>^2 = 16 r^4 by about 32 (r - 1), beyond the
    # tolerance
    r = 1.0 + 2.0 ** -40
    with pytest.raises(ArithmeticError, match="negative beyond tolerance"):
        w.variance(w.Operator.hermitian(np.diag([4.0, 0.0])), w.Ket([r, 0.0]))
    with pytest.raises(ArithmeticError, match="negative beyond tolerance"):
        array_variance(np.diag([4.0, 0.0]), np.array([r, 0.0]))
    # with X = diag(1, 0) and r - 1 = 2^-46 the variance is about -2.8e-14,
    # within the tolerance, and is clamped to 0
    r = 1.0 + 2.0 ** -46
    assert r * r - (r * r) ** 2 < 0.0
    assert w.variance(w.Operator.hermitian(np.diag([1.0, 0.0])), w.Ket([r, 0.0])) == 0.0
    assert array_variance(np.diag([1.0, 0.0]), np.array([r, 0.0])) == 0.0


def test_variance_alarm_scales_with_the_second_moment():
    # an exact eigenstate of diag(100, 0) has variance 0, but the rounding of
    # ||X v||^2 - <X>^2 grows with the second moment 10^4, to a few 1e-12 of
    # either sign, beyond the absolute ROUNDING_TOL; the alarm scales with it
    x = w.Operator.hermitian(np.diag([100.0, 0.0]))
    raw = []
    for phi in np.linspace(0.0, 3.0, 301):
        v = w.Ket([np.exp(1j * phi), 0.0])
        xv = x.matrix @ v.amplitudes
        raw.append(float(np.vdot(xv, xv).real) - complex(np.vdot(v.amplitudes, xv)).real ** 2)
        assert 0.0 <= w.variance(x, v) <= 1e4 * ROUNDING_TOL
    # the phases at which an alarm at -ROUNDING_TOL would have fired
    assert sum(r < -ROUNDING_TOL for r in raw) == 67


def test_commutator_spin_relation():
    sx, sy, sz = w.spin_operators()
    got = w.commutator(sx, sz).matrix
    np.testing.assert_allclose(got, -1j * sy.matrix, atol=1e-15)


def test_commutator_with_itself_vanishes():
    _, _, sz = w.spin_operators()
    np.testing.assert_array_equal(w.commutator(sz, sz).matrix, np.zeros((2, 2)))


def test_commutator_disjoint_factors_vanishes():
    sx, _, sz = w.spin_operators()
    left = w.tensor(sx, w.identity(2))
    right = w.tensor(w.identity(2), sz)
    assert w.frobenius_norm(w.commutator(left, right).matrix) == 0.0


def test_commutator_antisymmetry_is_exact():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        x = w.random_hermitian(5, rng)
        y = w.random_hermitian(5, rng)
        np.testing.assert_array_equal(w.commutator(x, y).matrix,
                                      -w.commutator(y, x).matrix)


def test_ket_normalization_enforced():
    # a Ket is always a unit vector; unnormalized data are plain arrays
    with pytest.raises(w.StructureError, match="^ket has norm 1.414[0-9]*, expected 1$"):
        w.Ket([1.0, 1.0])
    assert [f.name for f in dataclasses.fields(w.Ket)] == ["amplitudes"]
    assert not hasattr(w.Ket, "norm_sq")


def test_ket_rejects_non_finite():
    with pytest.raises(w.StructureError):
        w.Ket([np.nan, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(0.0, np.inf), complex(0.0, -np.inf)])
def test_ket_and_operator_reject_every_non_finite_entry(bad):
    amps = np.array([1.0, 0.0, 0.0], dtype=complex)
    amps[1] = bad
    with pytest.raises(w.StructureError, match="ket amplitudes must be finite"):
        w.Ket(amps)
    m = np.eye(3, dtype=complex)
    m[2, 1] = m[1, 2] = bad
    for build in (w.Operator, w.Operator.hermitian, w.Operator.unitary):
        with pytest.raises(w.StructureError, match="operator entries must be finite"):
            build(m)


def _layouts(a):
    """a in C order, in Fortran order, read-only and as strided views without copies."""
    yield np.ascontiguousarray(a)
    yield np.asfortranarray(a)
    frozen = a.copy()
    frozen.setflags(write=False)
    yield frozen
    if a.ndim == 1:
        yield np.repeat(a, 2)[::2]
        yield a[::2]
        yield a[::-1]
        yield a[::-2]
    else:
        yield np.repeat(a, 2, axis=1)[:, ::2]
        yield a.T
        yield a.conj().T
        yield a[::-1, 1:]
        yield np.asfortranarray(a).T


@pytest.mark.parametrize("shape", [(1,), (7,), (64,), (2, 2), (4, 4), (5, 3), (16, 16)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frobenius_norm_is_numpy_norm_bit_for_bit(shape, kind):
    rng = np.random.default_rng(RNG_SEED)
    for scale in (1e-160, 1e-3, 1.0, 1e150):
        a = scale * rng.standard_normal(shape)
        if kind == "complex":
            a = a + 1j * scale * rng.standard_normal(shape)
        for x in _layouts(a):
            assert w.frobenius_norm(x) == float(np.linalg.norm(x))
    # Operators, nested lists and integer input take the same path
    if kind == "complex" and len(shape) == 2 and shape[0] == shape[1]:
        op = w.Operator(a)
        assert w.frobenius_norm(op) == float(np.linalg.norm(op.matrix))
    assert w.frobenius_norm([[3, 4], [0, 12]]) == float(np.linalg.norm([[3, 4], [0, 12]])) == 13.0
    assert w.frobenius_norm(np.zeros(shape)) == 0.0
    # integer arrays of every layout, and nested lists of each kind
    ints = rng.integers(-1000, 1000, size=shape)
    for dtype in (np.int64, np.int32, np.uint8):
        for x in _layouts(ints.astype(dtype)):
            assert w.frobenius_norm(x) == float(np.linalg.norm(x))
    for values in (ints, a):
        assert w.frobenius_norm(values.tolist()) == float(np.linalg.norm(values.tolist()))


def test_operator_tags_validated():
    with pytest.raises(w.StructureError):
        w.Operator.hermitian([[0, 1], [0, 0]])
    with pytest.raises(w.StructureError):
        w.Operator.unitary([[1, 0], [0, 2]])


def test_unitary_check_refuses_an_overflowing_product():
    # finite entries whose product overflows give a NaN residual (inf * 0 in
    # the complex products), which a plain "> tol" test would let through;
    # a finite product whose norm overflows gives an infinite one. Either is
    # refused as an overflow, with no numpy warning (the suite makes a
    # RuntimeWarning an error)
    for m in ([[1e200, 0.0], [0.0, 1.0]], [[1e200, 1e200], [1e200, -1e200]],
              [[1e154, 0.0], [0.0, 1.0]]):
        with pytest.raises(w.StructureError, match="^values overflow the unitary check$"):
            w.Operator.unitary(m)


def test_unitary_residual_is_the_dense_formula_bit_for_bit(monkeypatch):
    # the check subtracts 1 on the diagonal of U^dag U in place; its residual
    # keeps the bits of ||U^dag U - I||_F formed with a dense identity
    import waylimit.linalg as linalg

    seen = []
    real = linalg.exceeds

    def spy(residual, tol, scale=1.0):
        seen.append(residual)
        return real(residual, tol, scale)

    monkeypatch.setattr(linalg, "exceeds", spy)
    rng = np.random.default_rng(RNG_SEED)
    for n in (1, 2, 3, 8, 36):
        u = w.random_unitary(n, rng).matrix
        near = u + 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        far = u + 1e-6 * rng.standard_normal((n, n))
        for m in (u, near, far):
            seen.clear()
            try:
                w.Operator.unitary(m)
            except w.StructureError as exc:
                assert m is far and str(exc).startswith("unitary tag violated, residual ")
            assert seen == [w.frobenius_norm(m.conj().T @ m - np.eye(n))]


def test_eigh_is_kept_read_only_and_is_numpy_eigh_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED)
    for n in (1, 3, 8):
        op = w.random_hermitian(n, rng)
        values, vectors = op.eigh
        assert op.eigh[0] is values and op.eigh[1] is vectors
        expect = np.linalg.eigh(op.matrix)
        assert values.tobytes() == expect[0].tobytes()
        assert vectors.tobytes() == expect[1].tobytes()
        for a in (values, vectors):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    # an untagged operator, even a hermitian matrix, has no kept spectrum
    plain = w.Operator(np.diag([1.0, -1.0]))
    with pytest.raises(w.StructureError, match="^eigh requires a hermitian-tagged operator$"):
        plain.eigh
    with pytest.raises(w.StructureError):
        w.random_unitary(2, rng).eigh


def test_operator_rejects_unknown_tags():
    # the tags are hermitian and unitary; a projector is a plain hermitian matrix
    with pytest.raises(ValueError, match=r"unknown structure tags: \['projection'\]"):
        w.Operator([[1, 0], [0, 0]], {"projection"})
    assert not hasattr(w.Operator, "projection")


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(RNG_SEED)
    u = w.random_unitary(6, rng)
    assert w.frobenius_norm(u.matrix.conj().T @ u.matrix - np.eye(6)) < 1e-12


def test_numeric_thresholds_live_only_in_the_linalg_table():
    # every small float literal of the package is a tolerance, and every
    # tolerance is a module-level constant of linalg's table
    import ast
    from pathlib import Path

    src = Path(w.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "linalg.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and node.targets[0].id.isupper():
                    allowed.update(id(n) for n in ast.walk(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                    and 0.0 < abs(node.value) <= 1e-6 and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []


def test_spectrum_runs_match_the_chained_gap_rule():
    tol = 1e-9
    # the spectrum spans -2 to -0.5, so its gap threshold is tol x 2: gaps just
    # below and just above it, a chain of small gaps that spans more than it,
    # and a repeated value; scaled by 1e3, the threshold and the runs follow
    gap = 2.0 * tol
    base = np.cumsum([-2.0, 0.9 * gap, 1.1 * gap, 0.5, 0.6 * gap, 0.6 * gap,
                      0.6 * gap, 1.0 + gap, 0.0, 3.0 * gap])
    for w_ in (base, 1e3 * base):
        assert np.all(np.diff(w_) >= 0)
        threshold = tol * max(1.0, float(np.abs(w_).max()))
        runs, start = [], 0
        for k in range(1, len(w_) + 1):
            if k == len(w_) or (w_[k] - w_[k - 1]) > threshold:
                runs.append((start, k))
                start = k
        assert w.linalg.spectrum_runs(w_, tol) == tuple(runs)
        assert runs == [(0, 2), (2, 3), (3, 7), (7, 9), (9, 10)]
    assert w.linalg.spectrum_runs(np.array([0.25]), tol) == ((0, 1),)
