"""Spin toolkit, demo models, and the partial +/-1/2 interaction form."""

import numpy as np
import pytest

import waylimit as w
from helpers import SWAP_MATRIX, conservative_yw_embedding

RNG_SEED = 7


def test_spin_operator_spectra():
    for op in w.spin_operators():
        np.testing.assert_allclose(np.linalg.eigvalsh(op.matrix), [-0.5, 0.5], atol=1e-15)


def test_spin_commutation_relations():
    sx, sy, sz = w.spin_operators()
    np.testing.assert_allclose(w.commutator(sx, sz).matrix, -1j * sy.matrix, atol=1e-12)
    np.testing.assert_allclose(w.commutator(sx, sy).matrix, 1j * sz.matrix, atol=1e-12)
    np.testing.assert_allclose(w.commutator(sy, sz).matrix, 1j * sx.matrix, atol=1e-12)


def test_spin_squares():
    for op in w.spin_operators():
        np.testing.assert_allclose(op.matrix @ op.matrix, 0.25 * np.eye(2), atol=1e-15)


def test_spin_bases_eigenrelations():
    ops = dict(zip("xyz", w.spin_operators()))
    for axis, op in ops.items():
        up = w.named_state(f"alpha_{axis}").amplitudes
        down = w.named_state(f"beta_{axis}").amplitudes
        np.testing.assert_allclose(op.matrix @ up, 0.5 * up, atol=1e-15)
        np.testing.assert_allclose(op.matrix @ down, -0.5 * down, atol=1e-15)
        assert abs(np.vdot(up, down)) < 1e-15


def test_y_up_from_x_basis_combination():
    up, down = w.named_state("alpha_x").amplitudes, w.named_state("beta_x").amplitudes
    combo = ((1 + 1j) * up + (1 - 1j) * down) / 2.0
    np.testing.assert_allclose(combo, w.named_state("alpha_y").amplitudes, atol=1e-12)


def test_named_state_lookup():
    np.testing.assert_allclose(w.named_state("beta_y").amplitudes,
                               np.array([1.0, -1.0j]) / np.sqrt(2.0))
    for bad in ("gamma_w", "alpha_w", "alpha", "alpha_x_y"):
        with pytest.raises(ValueError, match="unknown named state"):
            w.named_state(bad)


def test_swap_demo_witness():
    model, pair = w.swap_demo_model()
    np.testing.assert_allclose(model.U.matrix, SWAP_MATRIX, atol=1e-15)
    assert w.acl_residual(model, pair) < 1e-12
    assert w.sup_noise(model) < 1e-12
    assert w.yanase_residual(model.M, pair.L2) > 0.1


def test_yw_model_validation():
    good = w.yw_sample_model()
    assert good.probe_dim == 4

    with pytest.raises(w.StructureError):  # broken isometry
        w.YWModel(probe_dim=2, xi=w.Ket([1, 0]),
                  xi_plus=[1, 0],
                  xi_minus=[0, 0.3],
                  eta_plus=[0, 0.5],
                  eta_minus=[0, 0],
                  M=w.Operator.hermitian(np.diag([0.5, -0.5])))

    with pytest.raises(w.StructureError):  # xi_plus not a +1/2 eigenstate
        w.YWModel(probe_dim=2, xi=w.Ket([1, 0]),
                  xi_plus=[0, 1],
                  xi_minus=[1, 0],
                  eta_plus=[0, 0],
                  eta_minus=[0, 0],
                  M=w.Operator.hermitian(np.diag([0.5, -0.5])))

    with pytest.raises(w.StructureError):  # record spectrum leaves [-1/2, 1/2]
        w.YWModel(probe_dim=2, xi=w.Ket([1, 0]),
                  xi_plus=[1, 0],
                  xi_minus=[0, 1],
                  eta_plus=[0, 0],
                  eta_minus=[0, 0],
                  M=w.Operator.hermitian(np.diag([0.5, -1.5])))

    # the branches are plain complex arrays: converted, finite, of the probe's size
    with pytest.raises(w.StructureError, match="^eta_plus amplitudes must be finite$"):
        w.YWModel(probe_dim=2, xi=w.Ket([1, 0]), xi_plus=[1, 0], xi_minus=[0, 1],
                  eta_plus=[0, np.nan], eta_minus=[0, 0],
                  M=w.Operator.hermitian(np.diag([0.5, -0.5])))
    with pytest.raises(ValueError, match="^xi_minus has dim 0, expected 2$"):
        w.YWModel(probe_dim=2, xi=w.Ket([1, 0]), xi_plus=[1, 0], xi_minus=[],
                  eta_plus=[0, 0], eta_minus=[0, 0],
                  M=w.Operator.hermitian(np.diag([0.5, -0.5])))

    # an untagged M, though its matrix is hermitian
    with pytest.raises(w.StructureError, match="^M must be hermitian on the probe space$"):
        w.YWModel(probe_dim=2, xi=w.Ket([1, 0]),
                  xi_plus=[1, 0],
                  xi_minus=[0, 1],
                  eta_plus=[0, 0],
                  eta_minus=[0, 0],
                  M=w.Operator(np.diag([0.5, -0.5])))


def test_yw_eps_y_values():
    sample = w.yw_sample_model()
    assert w.yw_eps_y(sample) == pytest.approx(0.1, abs=1e-12)

    perfect = w.YWModel(probe_dim=2, xi=w.Ket([1, 0]),
                        xi_plus=[1, 0],
                        xi_minus=[0, 1],
                        eta_plus=[0, 0],
                        eta_minus=[0, 0],
                        M=w.Operator.hermitian(np.diag([0.5, -0.5])))
    assert w.yw_eps_y(perfect) == 0.0

    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        yw = w.random_yw_model(int(rng.integers(2, 9)), rng)
        assert 0.0 <= w.yw_eps_y(yw) <= 2.0 + 1e-12


def test_yw_error_closed_form_cases():
    perfect = w.yw_sample_model()
    # oracle by substitution: eta components sit at record values +-1/4, so
    # each contributes (1/4 -+ 1/2)^2 |eta|^2 = (1/16)(0.05)
    expected = 0.5 * (0.25 - 0.5) ** 2 * 0.05 + 0.5 * (-0.25 + 0.5) ** 2 * 0.05
    assert w.yw_error_at_alpha_y(perfect) == pytest.approx(expected, abs=1e-15)

    # flipped branches that still record the right value: zero error while
    # eps_y stays positive
    m = w.Operator.hermitian(np.diag([0.5, 0.5, -0.5, -0.5]))
    leak = np.sqrt(0.3)
    keep = np.sqrt(0.7)
    noisefree = w.YWModel(
        probe_dim=4, xi=w.Ket([1, 0, 0, 0]),
        xi_plus=[keep, 0, 0, 0],
        xi_minus=[0, 0, keep, 0],
        eta_plus=[0, leak, 0, 0],
        eta_minus=[0, 0, 0, leak],
        M=m)
    assert w.yw_error_at_alpha_y(noisefree) == pytest.approx(0.0, abs=1e-15)
    assert w.yw_eps_y(noisefree) == pytest.approx(0.6, abs=1e-12)


def test_yw_error_independent_reconstruction():
    # independent oracle: rebuild the noise at the y-up state from the raw
    # partial data, using 2 alpha_y = (1+i) alpha_x + (1-i) beta_x and the
    # defining images, instead of the closed form
    rng = np.random.default_rng(RNG_SEED)
    ax = w.named_state("alpha_x").amplitudes
    bx = w.named_state("beta_x").amplitudes
    for _ in range(50):
        d = int(rng.integers(2, 7))
        yw = w.random_yw_model(d, rng)
        v_plus = np.kron(ax, yw.xi_plus) + np.kron(bx, yw.eta_plus)
        v_minus = np.kron(bx, yw.xi_minus) + np.kron(ax, yw.eta_minus)
        # U N (alpha_y x xi) = (I x M) U (alpha_y x xi) - U (S_x alpha_y x xi)
        u_alpha_y = ((1 + 1j) * v_plus + (1 - 1j) * v_minus) / 2.0
        u_sx_alpha_y = ((1 + 1j) * 0.5 * v_plus - (1 - 1j) * 0.5 * v_minus) / 2.0
        im = np.kron(np.eye(2), yw.M.matrix)
        residual_vec = im @ u_alpha_y - u_sx_alpha_y
        oracle = float(np.real(np.vdot(residual_vec, residual_vec)))
        assert w.yw_error_at_alpha_y(yw) == pytest.approx(oracle, abs=1e-12)


def test_yw_relation_random_models():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        yw = w.random_yw_model(int(rng.integers(2, 9)), rng)
        assert 2.0 * w.yw_error_at_alpha_y(yw) <= w.yw_eps_y(yw) + 1e-10
    with pytest.raises(ValueError, match="^probe_dim must be at least 2$"):
        w.random_yw_model(1, rng)


def test_yw_check_bound_substitutions():
    sample = w.yw_sample_model()
    eps_y_sq, floor, _ = w.yw_check_bound(sample, 0.0)
    assert floor == pytest.approx(0.5, abs=1e-15)
    _, floor, _ = w.yw_check_bound(sample, 1.0)
    assert floor == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        w.yw_check_bound(sample, -1.0)
    for v in (0.0, 1e-300, 0.1, 1.0 / 3.0, 7.5, 1e300):
        assert w.yw_check_bound(sample, v)[1] == 1.0 / (2.0 + 8.0 * v)


def test_yw_check_bound_slack_is_the_inequality_slack():
    from waylimit.bounds import INEQUALITY_SLACK

    sample = w.yw_sample_model()
    eps_y_sq = w.yw_eps_y(sample)

    def variance_for_floor(floor):
        # floor = 1 / (2 + 8 v)
        return (1.0 / floor - 2.0) / 8.0

    _, floor, passed = w.yw_check_bound(
        sample, variance_for_floor(eps_y_sq + 0.5 * INEQUALITY_SLACK))
    assert eps_y_sq < floor and passed
    _, floor, passed = w.yw_check_bound(
        sample, variance_for_floor(eps_y_sq + 2.0 * INEQUALITY_SLACK))
    assert floor - eps_y_sq > INEQUALITY_SLACK and not passed


def test_yw_check_bound_swap_embedding():
    # hand-built conservative embedding on a qubit probe: U = SWAP with
    # xi = up_x gives xi+ = up_x, eta- = down_x, everything else zero,
    # and the record I/2 commutes with the probe spin
    ax = w.named_state("alpha_x")
    bx = w.named_state("beta_x")
    yw = w.YWModel(probe_dim=2, xi=ax,
                   xi_plus=ax.amplitudes,
                   xi_minus=[0, 0],
                   eta_plus=[0, 0],
                   eta_minus=bx.amplitudes,
                   M=w.Operator.hermitian(0.5 * np.eye(2)))
    _, _, sz = w.spin_operators()
    variance = w.variance(sz, ax)  # 1/4 for the x eigenstate
    eps_y_sq, floor, passed = w.yw_check_bound(yw, variance)
    assert eps_y_sq == pytest.approx(1.0, abs=1e-12)
    assert floor == pytest.approx(0.25, abs=1e-12)
    assert passed


def test_yw_check_bound_conservative_embeddings():
    rng = np.random.default_rng(RNG_SEED)
    psi = w.named_state("alpha_y")
    checked = 0
    for d in range(3, 9):
        values = [0.5] * ((d + 1) // 2) + [-0.5] * (d - (d + 1) // 2)
        out = conservative_yw_embedding(rng, values)
        if out is None:
            continue
        yw, model, pair, var = out
        eps_y_sq, floor, passed = w.yw_check_bound(yw, var)
        assert passed
        # the closed form agrees with the embedding model's actual error
        pe = w.error_probability(model, psi)
        assert w.yw_error_at_alpha_y(yw) == pytest.approx(pe, abs=1e-8)
        assert 2.0 * pe <= eps_y_sq + 1e-8
        assert pe >= w.optimal_spin_bound(var) - 1e-9
        checked += 1
    # a wider-spectrum probe exercises variances beyond 1/4
    out = conservative_yw_embedding(rng, [1.0, 0.0, 0.0, -1.0])
    if out is not None:
        yw, model, pair, var = out
        assert w.yw_check_bound(yw, var)[2]
        checked += 1
    assert checked >= 5


def test_yw_sample_model_invariants():
    sample = w.yw_sample_model()
    assert w.yw_eps_y(sample) == pytest.approx(0.1, abs=1e-12)
    plus = sum(float(np.vdot(v, v).real) for v in (sample.xi_plus, sample.eta_plus))
    assert plus == pytest.approx(1.0, abs=1e-12)


def test_yw_branches_are_read_only_complex_arrays():
    # lists, real arrays and random draws all become read-only 1-D complex arrays
    for yw in (w.yw_sample_model(), w.random_yw_model(3, np.random.default_rng(RNG_SEED))):
        for name in ("xi_plus", "xi_minus", "eta_plus", "eta_minus"):
            amp = getattr(yw, name)
            assert type(amp) is np.ndarray and amp.dtype == np.complex128
            assert amp.shape == (yw.probe_dim,) and not amp.flags.writeable
    # eps_y^2 is the sum of squared norms taken with vdot, bit for bit
    assert w.yw_eps_y(w.yw_sample_model()) == 0.09999999999999999
