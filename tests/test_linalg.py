"""Core operator/ket layer: tagged construction, moments, spectra."""

import numpy as np
import pytest

import waylimit as w
from waylimit.linalg import ROUNDING_TOL, array_variance

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


def test_variance_refuses_an_unnormalized_ket():
    _, _, sz = w.spin_operators()
    with pytest.raises(w.StructureError, match="^variance requires a normalized ket$"):
        w.variance(sz, w.Ket([1.0, 1.0], normalized=False))


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
    # a ket tagged normalized may miss norm 1 by ROUNDING_TOL; with
    # X = diag(4, 0) that puts ||X v||^2 = 16 r^2 below <X>^2 = 16 r^4 by
    # about 32 (r - 1), beyond the tolerance
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
    with pytest.raises(w.StructureError):
        w.Ket([1.0, 1.0])
    w.Ket([1.0, 1.0], normalized=False)  # explicit opt-out is fine


def test_ket_rejects_non_finite():
    with pytest.raises(w.StructureError):
        w.Ket([np.nan, 0.0], normalized=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(0.0, np.inf), complex(0.0, -np.inf)])
def test_ket_and_operator_reject_every_non_finite_entry(bad):
    amps = np.array([1.0, 0.0, 0.0], dtype=complex)
    amps[1] = bad
    for normalized in (True, False):
        with pytest.raises(w.StructureError, match="ket amplitudes must be finite"):
            w.Ket(amps, normalized=normalized)
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
    # a finite product whose norm overflows gives an infinite one
    with np.errstate(over="ignore", invalid="ignore"):
        for m, text in (([[1e200, 0.0], [0.0, 1.0]], "nan"),
                        ([[1e200, 1e200], [1e200, -1e200]], "nan"),
                        ([[1e154, 0.0], [0.0, 1.0]], "inf")):
            with pytest.raises(w.StructureError, match=f"^unitary tag violated, residual {text}$"):
                w.Operator.unitary(m)


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
    # gaps just below and just above tol, a chain of small gaps that spans
    # more than tol, and a repeated value
    w_ = np.cumsum([-2.0, 0.9 * tol, 1.1 * tol, 0.5, 0.6 * tol, 0.6 * tol,
                    0.6 * tol, 1.0 + tol, 0.0, 3.0 * tol])
    assert np.all(np.diff(w_) >= 0)

    runs, start = [], 0
    for k in range(1, len(w_) + 1):
        if k == len(w_) or (w_[k] - w_[k - 1]) > tol:
            runs.append((start, k))
            start = k
    assert w.linalg.spectrum_runs(w_, tol) == tuple(runs)
    assert runs == [(0, 2), (2, 3), (3, 7), (7, 9), (9, 10)]
    assert w.linalg.spectrum_runs(np.array([0.25]), tol) == ((0, 1),)
