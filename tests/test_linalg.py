"""Core operator/ket layer: tagged construction, moments, spectra."""

import numpy as np
import pytest

import waylimit as w

RNG_SEED = 2024


def test_tensor_identity_case():
    eye2 = w.identity(2)
    out = w.tensor(eye2, eye2)
    np.testing.assert_array_equal(out.matrix, np.eye(4))


def test_tensor_basis_kets_fixed_convention():
    up = w.spin_basis("z").up
    out = w.tensor(up, up)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_total_spin_z_annihilates_opposite_pair():
    # oracle: the 4x4 matrix of S_z x I + I x S_z written out by hand
    total = np.diag([1.0, 0.0, 0.0, -1.0])
    _, _, sz = w.spin_operators()
    lib = w.tensor(sz, w.identity(2)).matrix + w.tensor(w.identity(2), sz).matrix
    np.testing.assert_allclose(lib, total, atol=1e-15)
    pair_state = w.tensor(w.spin_basis("z").up, w.spin_basis("z").down)
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
        w.tensor(w.identity(2), w.spin_basis("z").up)


def test_expectation_eigenstate():
    _, _, sz = w.spin_operators()
    assert w.expectation(sz, w.spin_basis("z").up) == pytest.approx(0.5, abs=1e-15)


def test_expectation_y_eigenstate():
    _, sy, _ = w.spin_operators()
    assert w.expectation(sy, w.spin_basis("y").up) == pytest.approx(0.5, abs=1e-15)


def test_expectation_transverse_component_vanishes():
    # oracle: alpha_y from its x-basis combination, 2 alpha_y = (1+i) alpha_x + (1-i) beta_x,
    # then <S_x> = sum over x outcomes of (+-1/2) |coefficient/2|^2
    coeff_up = (1 + 1j) / 2
    coeff_dn = (1 - 1j) / 2
    oracle = 0.5 * abs(coeff_up) ** 2 - 0.5 * abs(coeff_dn) ** 2
    assert oracle == 0.0
    sx, _, _ = w.spin_operators()
    assert w.expectation(sx, w.spin_basis("y").up) == pytest.approx(0.0, abs=1e-15)


def test_expectation_requires_hermitian_tag():
    plain = w.Operator.plain(np.array([[0, 1], [0, 0]]))
    with pytest.raises(w.StructureError):
        w.expectation(plain, w.spin_basis("z").up)


def test_expectation_dim_mismatch():
    with pytest.raises(w.DimensionMismatch):
        w.expectation(w.identity(3), w.spin_basis("z").up)


def test_variance_eigenstate_is_zero():
    _, _, sz = w.spin_operators()
    assert w.variance(sz, w.spin_basis("z").up) == 0.0


def test_variance_conjugate_state():
    _, _, sz = w.spin_operators()
    assert w.variance(sz, w.spin_basis("y").up) == pytest.approx(0.25, abs=1e-15)


def test_variance_of_sum_on_up_state():
    # oracle: (S_x + S_z)^2 = I/2 by 2x2 arithmetic, <S_x + S_z> = 1/2 on up,
    # so the variance is 1/2 - 1/4 = 1/4
    sx, _, sz = w.spin_operators()
    sq = (sx.matrix + sz.matrix) @ (sx.matrix + sz.matrix)
    np.testing.assert_allclose(sq, 0.5 * np.eye(2), atol=1e-15)
    total = w.Operator.hermitian(sx.matrix + sz.matrix)
    assert w.variance(total, w.spin_basis("z").up) == pytest.approx(0.25, abs=1e-15)


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


def test_spectral_spin_z():
    _, _, sz = w.spin_operators()
    dec = w.spectral(sz)
    np.testing.assert_allclose(dec.eigenvalues, [-0.5, 0.5])
    down = w.spin_basis("z").down.amplitudes
    up = w.spin_basis("z").up.amplitudes
    np.testing.assert_allclose(dec.projectors[0].matrix, np.outer(down, down.conj()), atol=1e-12)
    np.testing.assert_allclose(dec.projectors[1].matrix, np.outer(up, up.conj()), atol=1e-12)


def test_spectral_merges_degenerate_identity():
    dec = w.spectral(w.identity(2))
    assert dec.eigenvalues == (1.0,)
    np.testing.assert_allclose(dec.projectors[0].matrix, np.eye(2), atol=1e-12)


def test_spectral_composite_spin_x():
    # oracle: S_x x I diagonalized by hand in the x basis, rank-2 projectors
    # P(+-) = |x,+-><x,+-| x I
    up = w.spin_basis("x").up.amplitudes
    down = w.spin_basis("x").down.amplitudes
    p_plus = np.kron(np.outer(up, up.conj()), np.eye(2))
    p_minus = np.kron(np.outer(down, down.conj()), np.eye(2))
    sx, _, _ = w.spin_operators()
    dec = w.spectral(w.tensor(sx, w.identity(2)))
    np.testing.assert_allclose(dec.eigenvalues, [-0.5, 0.5])
    np.testing.assert_allclose(dec.projectors[0].matrix, p_minus, atol=1e-12)
    np.testing.assert_allclose(dec.projectors[1].matrix, p_plus, atol=1e-12)


def test_spectral_reconstruction_up_to_dim_64():
    rng = np.random.default_rng(RNG_SEED)
    for dim in (3, 17, 64):
        x = w.random_hermitian(dim, rng)
        dec = w.spectral(x)
        recon = sum(v * p.matrix for v, p in zip(dec.eigenvalues, dec.projectors))
        assert w.frobenius_norm(recon - x.matrix) < 1e-9


def test_spectral_requires_hermitian():
    with pytest.raises(w.StructureError):
        w.spectral(w.Operator.plain(np.array([[0, 1], [0, 0]])))


def test_ket_normalization_enforced():
    with pytest.raises(w.StructureError):
        w.Ket([1.0, 1.0])
    w.Ket([1.0, 1.0], normalized=False)  # explicit opt-out is fine


def test_ket_rejects_non_finite():
    with pytest.raises(w.StructureError):
        w.Ket([np.nan, 0.0], normalized=False)


def test_operator_tags_validated():
    with pytest.raises(w.StructureError):
        w.Operator.hermitian([[0, 1], [0, 0]])
    with pytest.raises(w.StructureError):
        w.Operator.unitary([[1, 0], [0, 2]])
    with pytest.raises(w.StructureError):
        w.Operator.projection([[0.5, 0], [0, 0.7]])


def test_projection_tag_implies_hermitian():
    p = w.Operator.projection([[1, 0], [0, 0]])
    assert p.has("hermitian")


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
