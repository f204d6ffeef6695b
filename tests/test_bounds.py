"""Conservation residuals, the uncertainty chain, and every lower bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import waylimit as w
from waylimit.bounds import BoundTerms, _state_figures, bound_terms
from waylimit.linalg import RATIO_FLOOR, ROUNDING_TOL, STRUCTURE_TOL, _moment_variance
from helpers import (CNOT_Z_CONTROL_X_FLIP, SWAP_MATRIX, dense_figures,
                     large_eigenvalue_probe_model, near_kernel_model,
                     random_conservative_model)

RNG_SEED = 99


def test_acl_residual_swap():
    # oracle: hand 4x4 commutator of SWAP with diag(1, 0, 0, -1)
    total = np.diag([1.0, 0.0, 0.0, -1.0])
    oracle = np.linalg.norm(SWAP_MATRIX @ total - total @ SWAP_MATRIX)
    assert oracle == 0.0
    model, pair = w.swap_demo_model()
    assert w.acl_residual(model, pair) < 1e-12
    trivial, tpair = w.trivial_demo_model()
    assert w.acl_residual(trivial, tpair) == 0.0


def test_acl_residual_cnot_violates():
    total = np.diag([1.0, 0.0, 0.0, -1.0])
    oracle = np.linalg.norm(CNOT_Z_CONTROL_X_FLIP @ total - total @ CNOT_Z_CONTROL_X_FLIP)
    assert oracle > 0.5
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(2, 2, w.named_state("alpha_z"),
                               w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP), sz, sz)
    pair = w.ConservationPair(L1=sz, L2=sz)
    assert w.acl_residual(model, pair) == pytest.approx(oracle, abs=1e-12)


def test_acl_residual_exp_map_constructions():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        model, pair = random_conservative_model(rng)
        assert w.acl_residual(model, pair) < 1e-10


def test_yanase_residual_values():
    sx, sy, sz = w.spin_operators()
    assert w.yanase_residual(sz, sz) == 0.0
    # oracle: [S_x, S_z] = -i S_y whose Frobenius norm is 1/sqrt(2)
    assert w.yanase_residual(sx, sz) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    diag = w.Operator.hermitian(np.diag([0.3, -0.7]))
    assert w.yanase_residual(diag, sz) == 0.0


def test_commutator_identity_swap():
    # oracle: both sides evaluated directly on 4x4 matrices
    sx, _, sz = w.spin_operators()
    total = np.kron(sz.matrix, np.eye(2)) + np.kron(np.eye(2), sz.matrix)
    probe_rec = SWAP_MATRIX.conj().T @ np.kron(np.eye(2), sx.matrix) @ SWAP_MATRIX
    n = probe_rec - np.kron(sx.matrix, np.eye(2))
    lhs = n @ total - total @ n
    im = np.kron(np.eye(2), sx.matrix)
    il2 = np.kron(np.eye(2), sz.matrix)
    ai = np.kron(sx.matrix, np.eye(2))
    l1i = np.kron(sz.matrix, np.eye(2))
    rhs = SWAP_MATRIX.conj().T @ (im @ il2 - il2 @ im) @ SWAP_MATRIX - (ai @ l1i - l1i @ ai)
    assert np.linalg.norm(lhs - rhs) < 1e-12
    model, pair = w.swap_demo_model()
    assert w.commutator_identity_residual(model, pair) < 1e-10


def test_commutator_identity_all_terms_vanish():
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(2, 2, w.named_state("alpha_z"),
                               w.Operator.unitary(np.eye(4)), sz, sz)
    pair = w.ConservationPair(L1=sz, L2=sz)
    assert w.commutator_identity_residual(model, pair) < 1e-14


def test_commutator_identity_random_conservative():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        model, pair = random_conservative_model(rng)
        assert w.commutator_identity_residual(model, pair) < 1e-9


def test_commutator_identity_precondition_distinct():
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(2, 2, w.named_state("alpha_z"),
                               w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP), sz, sz)
    pair = w.ConservationPair(L1=sz, L2=sz)
    with pytest.raises(w.PreconditionError):
        w.commutator_identity_residual(model, pair)
    bad_pair = w.ConservationPair(L1=sz, L2=w.Operator.hermitian(np.eye(3)))
    with pytest.raises(w.DimensionMismatch):
        w.commutator_identity_residual(model, bad_pair)


def test_conservation_pair_refuses_an_untagged_operator():
    _, _, sz = w.spin_operators()
    with pytest.raises(ValueError, match="^conserved quantities must carry the hermitian tag$"):
        w.ConservationPair(L1=sz, L2=w.Operator(sz.matrix))


def test_uncertainty_pair_swap():
    model, pair = w.swap_demo_model()
    lhs, rhs = w.uncertainty_pair(model, pair, w.named_state("alpha_y"))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_uncertainty_pair_random():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        model, pair = random_conservative_model(rng)
        lhs, rhs = w.uncertainty_pair(model, pair, w.random_ket(model.object_dim, rng))
        assert lhs >= rhs - 1e-9


def test_uncertainty_pair_commuting_case():
    # N commutes with the total conserved quantity when A = M = L1 = L2 = S_z
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(2, 2, w.named_state("alpha_x"),
                               w.Operator.unitary(np.eye(4)), sz, sz)
    pair = w.ConservationPair(L1=sz, L2=sz)
    _, rhs = w.uncertainty_pair(model, pair, w.named_state("alpha_y"))
    assert rhs == pytest.approx(0.0, abs=1e-14)


def _dense_robertson(model, pair, psi):
    """(var(N) var(L), |<v|[N, L]|v>|^2 / 4) in v = psi x xi, with N and
    L = L1 x I + I x L2 built by np.kron on the composite space."""
    io, ip = np.eye(model.object_dim), np.eye(model.probe_dim)
    u = model.U.matrix
    n = u.conj().T @ np.kron(io, model.M.matrix) @ u - np.kron(model.A.matrix, ip)
    total = np.kron(pair.L1.matrix, ip) + np.kron(io, pair.L2.matrix)
    v = np.kron(psi.amplitudes, model.xi.amplitudes)

    def var(x):
        xv = x @ v
        return np.vdot(xv, xv).real - np.vdot(v, xv).real ** 2

    return var(n) * var(total), abs(np.vdot(v, (n @ total - total @ n) @ v)) ** 2 / 4.0


def test_uncertainty_pair_matches_the_kron_oracle():
    # Robertson's relation needs no conservation law, so the oracle covers
    # conservative, non-Yanase and non-conservative models alike
    rng = np.random.default_rng(RNG_SEED + 6)
    sx, _, sz = w.spin_operators()
    cases = [random_conservative_model(rng, yanase=yanase)
             for yanase in (True, False) for _ in range(20)]
    for _ in range(20):
        od, pd = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        model = w.MeasurementModel(od, pd, w.random_ket(pd, rng), w.random_unitary(od * pd, rng),
                                   w.random_hermitian(pd, rng), w.random_hermitian(od, rng))
        pair = w.ConservationPair(L1=w.random_hermitian(od, rng), L2=w.random_hermitian(pd, rng))
        assert w.acl_residual(model, pair) > 0.1
        cases.append((model, pair))
    cnot = w.MeasurementModel(2, 2, w.named_state("alpha_x"),
                              w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP), sz, sx)
    cases.append((cnot, w.ConservationPair(L1=sz, L2=sz)))
    for model, pair in cases:
        psi = w.random_ket(model.object_dim, rng)
        lhs, rhs = w.uncertainty_pair(model, pair, psi)
        dense_lhs, dense_rhs = _dense_robertson(model, pair, psi)
        assert lhs == pytest.approx(dense_lhs, rel=1e-12)
        assert rhs == pytest.approx(dense_rhs, rel=1e-12)


def test_uncertainty_pair_alarm_on_a_broken_variance(monkeypatch):
    # the centred images keep rhs <= lhs by Cauchy-Schwarz, so what the pair
    # still tests is that N and L act as hermitian operators: a probe factor
    # i X, anti-hermitian, gives its mean an imaginary residue. N v comes from
    # the model's kept reduced form, so its factor is patched before the form
    # is built; L v applies L2 in bounds, at a probe state with <L2> != 0
    import waylimit.bounds as bounds_module
    import waylimit.measurement as measurement_module

    swap, pair = w.swap_demo_model()
    psi = w.named_state("alpha_y")

    def model(xi):
        return w.MeasurementModel(2, 2, xi, w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP),
                                  swap.M, swap.A)

    for module, xi, name in ((measurement_module, swap.xi, "N"),
                             (bounds_module, w.named_state("alpha_z"), "L")):
        w.uncertainty_pair(model(xi), pair, psi)
        with monkeypatch.context() as patch:
            apply = module.apply_on_probe
            patch.setattr(module, "apply_on_probe", lambda *args: 1j * apply(*args))
            with pytest.raises(w.StructureError, match=rf"^mean of {name} has imaginary residue"):
                w.uncertainty_pair(model(xi), pair, psi)


def test_variance_additivity_exact_cases():
    _, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=sz, L2=sz)
    res = w.variance_additivity_residual(pair, w.named_state("alpha_y"), w.named_state("alpha_z"))
    # oracle by 2x2 arithmetic: 1/4 + 0 on the parts, 1/4 total
    assert res < 1e-13


def test_variance_additivity_random():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(1000):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        pair = w.ConservationPair(L1=w.random_hermitian(d1, rng),
                                  L2=w.random_hermitian(d2, rng))
        res = w.variance_additivity_residual(
            pair, w.random_ket(d1, rng), w.random_ket(d2, rng))
        assert res < 1e-10


def test_fundamental_bound_swap_numerator_cancels():
    # oracle: the propagated record commutator equals the object commutator
    # exactly for SWAP, so the numerator vanishes at every state
    sx, _, sz = w.spin_operators()
    im = np.kron(np.eye(2), sx.matrix)
    il2 = np.kron(np.eye(2), sz.matrix)
    propagated = SWAP_MATRIX.conj().T @ (im @ il2 - il2 @ im) @ SWAP_MATRIX
    object_side = np.kron(sx.matrix @ sz.matrix - sz.matrix @ sx.matrix, np.eye(2))
    assert np.linalg.norm(propagated - object_side) < 1e-14
    model, pair = w.swap_demo_model()
    assert w.fundamental_bound(model, pair, w.named_state("alpha_y")) == pytest.approx(0.0, abs=1e-12)


def test_fundamental_reduces_to_yanase_bound():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        model, pair = random_conservative_model(rng)
        psi = w.random_ket(model.object_dim, rng)
        fb = w.fundamental_bound(model, pair, psi)
        yb = w.yanase_bound(model, pair, psi)
        assert fb == pytest.approx(yb, abs=1e-10)


def test_master_inequality_random_models():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        model, pair = random_conservative_model(rng)
        psi = w.random_ket(model.object_dim, rng)
        eps_sq = w.noise(model, psi) ** 2
        assert eps_sq >= w.fundamental_bound(model, pair, psi) - 1e-9


def test_fundamental_bound_degenerate_denominator_convention():
    # both conserved variances vanish on eigenstate inputs; the commutator
    # expectation then vanishes with them, so the bound returns 0 (no
    # constraint) rather than dividing by zero
    sx, _, sz = w.spin_operators()
    model = w.MeasurementModel(2, 2, w.named_state("alpha_z"),
                               w.Operator.unitary(np.eye(4)),
                               w.Operator.hermitian(np.zeros((2, 2))), sx)
    pair = w.ConservationPair(L1=sz, L2=sz)
    assert w.fundamental_bound(model, pair, w.named_state("alpha_z")) == 0.0


def test_yanase_bound_closed_form():
    # spin scenario: numerator <S_y>^2 = 1/4 at the y-up state, denominator
    # 4 (1/4) + 4 v, so the bound is 1 / (4 + 16 v)
    sx, _, sz = w.spin_operators()
    for xi, var in ((w.named_state("alpha_x"), 0.25), (w.named_state("alpha_z"), 0.0)):
        model = w.MeasurementModel(2, 2, xi, w.Operator.unitary(np.eye(4)),
                                   sz, sx)
        pair = w.ConservationPair(L1=sz, L2=sz)
        got = w.yanase_bound(model, pair, w.named_state("alpha_y"))
        assert got == pytest.approx(1.0 / (4.0 + 16.0 * var), abs=1e-12)


def test_yanase_bound_commuting_observable():
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(2, 2, w.named_state("alpha_x"),
                               w.Operator.unitary(np.eye(4)), sz, sz)
    pair = w.ConservationPair(L1=sz, L2=sz)
    assert w.yanase_bound(model, pair, w.named_state("alpha_y")) == 0.0


def test_yanase_bound_precondition():
    model, pair = w.swap_demo_model()  # [M, L2] != 0 there
    with pytest.raises(w.PreconditionError):
        w.yanase_bound(model, pair, w.named_state("alpha_y"))


def test_spin_bound_substitutions():
    sx, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=sz, L2=sz)
    model = w.MeasurementModel(2, 2, w.named_state("alpha_z"),
                               w.Operator.unitary(np.eye(4)), sz, sx)
    # probe eigenstate: v = 0, bound 1/4
    assert w.spin_bound(model, pair, w.named_state("alpha_y")) == pytest.approx(0.25, abs=1e-12)
    # <S_y> = 0 at a z eigenstate
    assert w.spin_bound(model, pair, w.named_state("alpha_z")) == pytest.approx(0.0, abs=1e-12)
    # probe variance 1 via a three-level ladder
    ladder = w.Operator.hermitian(np.diag([1.0, 0.0, -1.0]))
    xi = w.Ket(np.array([1.0, 0.0, 1.0]) / np.sqrt(2))
    model3 = w.MeasurementModel(2, 3, xi, w.Operator.unitary(np.eye(6)),
                                ladder, sx)
    pair3 = w.ConservationPair(L1=sz, L2=ladder)
    assert w.spin_bound(model3, pair3, w.named_state("alpha_y")) == pytest.approx(1.0 / 20.0, abs=1e-12)


def test_spin_bound_scenario_preconditions():
    _, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=sz, L2=sz)
    model = w.MeasurementModel(2, 2, w.named_state("alpha_z"),
                               w.Operator.unitary(np.eye(4)), sz, sz)
    with pytest.raises(w.PreconditionError):
        w.spin_bound(model, pair, w.named_state("alpha_y"))  # A != S_x


def test_spin_bound_matches_the_closed_form_oracle():
    # [S_x, S_z] = -i S_y, so the floor is <S_y>^2 / (4 var(S_z, psi) + 4 var(L2, xi))
    rng = np.random.default_rng(RNG_SEED + 7)
    _, sy, sz = w.spin_operators()
    for _ in range(100):
        model, pair = random_conservative_model(rng, object_dim=2, spin_scenario=True)
        psi = w.random_ket(2, rng)
        oracle = w.expectation(sy, psi) ** 2 \
            / (4.0 * w.variance(sz, psi) + 4.0 * w.variance(pair.L2, model.xi))
        assert w.spin_bound(model, pair, psi) == pytest.approx(oracle, rel=1e-15)


def test_optimal_spin_bound_values():
    assert w.optimal_spin_bound(0.0) == 0.25
    # oracle: max variance of the qubit conserved component is 1/4
    assert w.optimal_spin_bound(0.25) == pytest.approx(0.125, abs=1e-15)
    assert w.optimal_spin_bound(10.0) == pytest.approx(1.0 / 164.0, abs=1e-15)


def test_optimal_spin_bound_monotone():
    grid = np.linspace(0.0, 50.0, 200)
    values = [w.optimal_spin_bound(v) for v in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        w.optimal_spin_bound(-1e-3)


def test_bound_comparison_cases():
    old, new = w.bound_comparison(100.0, 0.0)
    assert old == pytest.approx(1.0 / 800.0, abs=1e-15)
    assert new == pytest.approx(1.0 / 802.0, abs=1e-15)
    assert abs(old - new) / new < 0.003

    old, new = w.bound_comparison(0.0, 0.0)
    assert math.isinf(old)
    assert new == pytest.approx(0.5, abs=1e-15)

    old, new = w.bound_comparison(1.0, 3.0)
    assert old == pytest.approx(1.0 / 80.0, abs=1e-15)
    assert new == pytest.approx(1.0 / 10.0, abs=1e-15)
    assert new > old  # the variance form is tighter here

    with pytest.raises(ValueError):
        w.bound_comparison(-0.5, 0.0)

    # the variance form is twice the optimal floor, bit for bit 1 / (2 + 8 v)
    for v in (0.0, 1e-300, 0.1, 1.0 / 3.0, 7.5, 1e300):
        assert w.bound_comparison(v, 0.5)[1] == 1.0 / (2.0 + 8.0 * v)


def test_bound_comparison_refuses_a_nan_variance():
    # refused as a negative variance is, not returned as (nan, nan)
    with pytest.raises(ValueError, match="^variance must be nonnegative, got nan$"):
        w.bound_comparison(math.nan, 0.0)


def test_bound_report_violation_flags():
    # hand-made reports: the checker must flag exactly the broken inequality
    clean = dict(eps_sq=0.3, fundamental_bound=0.1, yanase_bound=0.1,
                 spin_bound=0.1, acl_residual=0.0, yanase_residual=0.0,
                 commutator_identity_residual=0.0,
                 uncertainty_lhs=0.2, uncertainty_rhs=0.1, noise_scale=1.0)
    assert w.BoundReport(**clean).violations() == ()
    assert w.BoundReport(**{**clean, "eps_sq": 0.05}).violations() == \
        ("fundamental_bound", "yanase_bound", "spin_bound")
    assert w.BoundReport(**{**clean, "uncertainty_lhs": 0.0}).violations() == \
        ("uncertainty",)
    # a non-conservative model is not held to the conservation bounds: its
    # commutator identity, behind the ACL gate, is null
    loose = {**clean, "eps_sq": 0.05, "acl_residual": 0.5, "commutator_identity_residual": None}
    assert w.BoundReport(**loose).violations() == ()


def test_bound_report_null_reasons():
    psi = w.named_state("alpha_y")
    sx, _, sz = w.spin_operators()
    swap, pair = w.swap_demo_model()
    reasons = w.bound_report(swap, pair, psi).null_reasons
    yanase = "Yanase condition fails: [M, L2] residual 7.071e-01, tolerance 1e-09"
    assert reasons == {"yanase_bound": yanase, "spin_bound": yanase}
    trivial, tpair = w.trivial_demo_model()
    assert w.bound_report(trivial, tpair, psi).null_reasons == {}
    # each part of the spin scenario, and the conservation law
    a_sz = w.MeasurementModel(2, 2, w.named_state("alpha_z"), w.Operator.unitary(np.eye(4)), sz, sz)
    assert w.bound_report(a_sz, tpair, psi).null_reasons == \
        {"spin_bound": "not the spin scenario: needs A = S_x"}
    l1_sx = w.ConservationPair(L1=sx, L2=sz)
    report = w.bound_report(trivial, l1_sx, psi)
    assert report.spin_bound is None
    assert report.null_reasons == {"spin_bound": "not the spin scenario: needs L1 = S_z"}
    model3, pair3 = random_conservative_model(np.random.default_rng(RNG_SEED), object_dim=3)
    report = w.bound_report(model3, pair3, w.random_ket(3, np.random.default_rng(1)))
    assert report.null_reasons == {"spin_bound": "not the spin scenario: needs a two-level object"}
    cnot = w.MeasurementModel(2, 2, w.named_state("alpha_z"),
                              w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP), sz, sx)
    report = w.bound_report(cnot, tpair, psi)
    assert report.commutator_identity_residual is None
    assert report.null_reasons == {"commutator_identity_residual":
                                   f"conservation law fails: acl residual "
                                   f"{report.acl_residual:.3e}, tolerance 1e-10"}
    # each null reason is the message the public function raises
    for model, mpair, state in ((swap, pair, psi), (a_sz, tpair, psi), (trivial, l1_sx, psi),
                                (model3, pair3, w.random_ket(3, np.random.default_rng(1))),
                                (cnot, tpair, psi)):
        reasons = w.bound_report(model, mpair, state).null_reasons
        assert reasons
        for name, reason in reasons.items():
            args = (model, mpair) if name == "commutator_identity_residual" \
                else (model, mpair, state)
            with pytest.raises(w.PreconditionError) as info:
                getattr(w, name)(*args)
            assert str(info.value) == reason


@pytest.mark.parametrize("eps, acl", [(2e-10, 3.97e-10), (5e-10, 9.91e-10)])
def test_acl_band_between_the_old_thresholds(eps, acl):
    # ACL residuals in [1e-10, 1e-9) once passed the commutator identity's
    # precondition while the report left the bounds unchecked; one constant
    # now decides both
    model, pair = w.swap_demo_model()
    h = w.random_hermitian(4, np.random.default_rng(0)).matrix
    lam, vecs = np.linalg.eigh(h)
    u = model.U.matrix @ ((vecs * np.exp(1j * eps * lam)) @ vecs.conj().T)
    near = w.MeasurementModel(2, 2, model.xi, w.Operator.unitary(u), model.M, model.A)
    report = w.bound_report(near, pair, w.named_state("alpha_y"))
    assert report.acl_residual == pytest.approx(acl, rel=1e-2)
    assert report.commutator_identity_residual is None
    reason = report.null_reasons["commutator_identity_residual"]
    assert reason == f"conservation law fails: acl residual {report.acl_residual:.3e}, " \
                     f"tolerance 1e-10"
    with pytest.raises(w.PreconditionError, match="conservation law fails"):
        w.commutator_identity_residual(near, pair)
    # the bound inequalities stay unchecked, as before
    assert report.violations() == ()
    assert w.BoundReport(**{**report.__dict__, "eps_sq": -1.0}).violations() == ()


def test_bound_report_demo_models():
    psi = w.named_state("alpha_y")
    model, pair = w.swap_demo_model()
    report = w.bound_report(model, pair, psi)
    assert report.eps_sq == pytest.approx(0.0, abs=1e-12)
    assert report.fundamental_bound == pytest.approx(0.0, abs=1e-12)
    assert report.yanase_bound is None  # Yanase condition fails for SWAP
    assert report.violations() == ()

    trivial, tpair = w.trivial_demo_model()
    report = w.bound_report(trivial, tpair, psi)
    assert report.eps_sq == pytest.approx(0.25, abs=1e-12)
    assert report.yanase_bound == pytest.approx(0.125, abs=1e-12)
    assert report.spin_bound == pytest.approx(0.125, abs=1e-12)
    assert report.violations() == ()


# Reduced-form figures against composite-space np.kron formulas. The models
# with yanase=False have [M, L2] != 0, so the probe term
# Y^dag (I x [M, L2]) Y of the fundamental bound is nonzero there.

ORACLE_TOL = 1e-10


def _assert_matches_dense(model, pair, psi):
    eps_sq, sup, fb, yb = dense_figures(model, pair, psi)
    assert w.noise(model, psi) ** 2 == pytest.approx(eps_sq, rel=ORACLE_TOL, abs=ORACLE_TOL)
    assert w.sup_noise(model) == pytest.approx(sup, rel=ORACLE_TOL, abs=ORACLE_TOL)
    assert w.fundamental_bound(model, pair, psi) == \
        pytest.approx(fb, rel=ORACLE_TOL, abs=ORACLE_TOL)
    if w.yanase_residual(model.M, pair.L2) < 1e-9:
        assert w.yanase_bound(model, pair, psi) == \
            pytest.approx(yb, rel=ORACLE_TOL, abs=ORACLE_TOL)
    return fb, yb


def test_reduced_form_matches_dense_with_probe_term():
    rng = np.random.default_rng(RNG_SEED)
    largest_probe_effect = 0.0
    for _ in range(100):
        model, pair = random_conservative_model(rng, yanase=False)
        psi = w.random_ket(model.object_dim, rng)
        fb, yb = _assert_matches_dense(model, pair, psi)
        largest_probe_effect = max(largest_probe_effect, abs(fb - yb))
        assert w.noise(model, psi) ** 2 >= fb - 1e-9
    # the probe term genuinely moves the bound on these models
    assert largest_probe_effect > 1e-3


def test_reduced_form_matches_dense_yanase_models():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(100):
        model, pair = random_conservative_model(rng)
        _assert_matches_dense(model, pair, w.random_ket(model.object_dim, rng))


def _rebuilt(model):
    """The same model as a new object, with nothing cached."""
    return w.MeasurementModel(model.object_dim, model.probe_dim, model.xi, model.U,
                              model.M, model.A)


def test_bound_terms_memo_alternating_pairs():
    rng = np.random.default_rng(RNG_SEED + 2)
    model, yanase_pair = random_conservative_model(rng, object_dim=3, probe_dim=4)
    other = w.ConservationPair(L1=w.random_hermitian(3, rng), L2=w.random_hermitian(4, rng))
    assert w.yanase_residual(model.M, other.L2) > 0.1
    states = [w.random_ket(3, rng) for _ in range(3)]
    for pair in (yanase_pair, other, yanase_pair, other):
        for psi in states:
            fb = w.fundamental_bound(model, pair, psi)
            assert fb == w.fundamental_bound(_rebuilt(model), pair, psi)
            _, _, dense_fb, dense_yb = dense_figures(model, pair, psi)
            assert fb == pytest.approx(dense_fb, rel=ORACLE_TOL, abs=ORACLE_TOL)
            if pair is yanase_pair:
                yb = w.yanase_bound(model, pair, psi)
                assert yb == w.yanase_bound(_rebuilt(model), pair, psi)
                assert yb == pytest.approx(dense_yb, rel=ORACLE_TOL, abs=ORACLE_TOL)
            else:
                # the Yanase pair was cached a moment ago; this one still fails
                with pytest.raises(w.PreconditionError):
                    w.yanase_bound(model, pair, psi)
        # a hit hands back the terms built for this very pair
        assert bound_terms(model, pair) is bound_terms(model, pair)


def test_bound_terms_memo_still_checks_new_pairs():
    rng = np.random.default_rng(RNG_SEED + 3)
    model, pair = random_conservative_model(rng, object_dim=2, probe_dim=3)
    psi = w.random_ket(2, rng)
    first = w.fundamental_bound(model, pair, psi)
    assert w.fundamental_bound(model, pair, psi) == first  # a cache hit
    for l1, l2 in ((w.random_hermitian(3, rng), pair.L2), (pair.L1, w.random_hermitian(2, rng))):
        wrong = w.ConservationPair(L1=l1, L2=l2)
        for bound in (w.fundamental_bound, w.yanase_bound, w.spin_bound):
            with pytest.raises(w.DimensionMismatch):
                bound(model, wrong, psi)
    # an equal but distinct pair object is compiled and checked on its own
    twin = w.ConservationPair(L1=pair.L1, L2=pair.L2)
    assert bound_terms(model, twin) is not bound_terms(model, pair)
    assert w.fundamental_bound(model, pair, psi) == first


# An oracle for the state pass, which forms the three means <psi|d|psi>,
# <psi|c|psi> and <psi|L1|psi> from one product of the images with conj(psi):
# the same figures with one np.vdot per mean and per norm.

def _vdot_figures(terms, psi):
    a = psi.amplitudes
    da, ca, la = (block @ a for block in np.split(terms.stack, 3))
    second = float(np.vdot(la, la).real)
    mean = complex(np.vdot(a, la))
    assert abs(mean.imag) <= STRUCTURE_TOL
    var = second - mean.real ** 2
    if var < 0.0:
        assert var >= -ROUNDING_TOL
        var = 0.0
    return (complex(np.vdot(a, da)), complex(np.vdot(a, ca)),
            4.0 * var + 4.0 * terms.var_l2)


def _ratio(num, den):
    if den < RATIO_FLOOR:
        return 0.0 if num < RATIO_FLOOR else math.inf
    return num / den


def _vdot_bounds(model, pair, psi):
    """(fundamental, Yanase-form) bound from the np.vdot figures."""
    d, c, den = _vdot_figures(bound_terms(model, pair), psi)
    return _ratio(abs(d) ** 2, den), _ratio(abs(c) ** 2, den)


def test_bound_convention_at_joint_eigenstates():
    # psi and xi eigenstates of L1 and L2: both variances vanish
    sx, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=sz, L2=sz)
    psi, xi = w.named_state("alpha_z"), w.named_state("beta_z")
    # conservative: U (psi x xi) stays in one sector, so the numerator vanishes too
    swap, _ = w.swap_demo_model()
    conservative = w.MeasurementModel(2, 2, xi, swap.U, sx, sx)
    assert w.fundamental_bound(conservative, pair, psi) == 0.0
    assert dense_figures(conservative, pair, psi)[2] == 0.0
    assert _vdot_bounds(conservative, pair, psi)[0] == 0.0
    commuting = w.MeasurementModel(2, 2, xi, swap.U, sz, sx)
    assert w.yanase_bound(commuting, pair, psi) == 0.0
    assert dense_figures(commuting, pair, psi)[3] == _vdot_bounds(commuting, pair, psi)[1] == 0.0
    # a probe rotation breaks the conservation law; <[M, L2]> survives while
    # both variances are 0, so no finite noise satisfies the bound
    rx = np.cos(np.pi / 4) * np.eye(2) - 2j * np.sin(np.pi / 4) * sx.matrix
    rotated = w.MeasurementModel(2, 2, xi, w.Operator.unitary(np.kron(np.eye(2), rx)),
                                 sx, sx)
    assert w.acl_residual(rotated, pair) > 0.1
    assert math.isinf(w.fundamental_bound(rotated, pair, psi))
    assert math.isinf(dense_figures(rotated, pair, psi)[2])
    assert math.isinf(_vdot_bounds(rotated, pair, psi)[0])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), object_dim=st.integers(2, 4),
       probe_dim=st.integers(2, 8), spin=st.booleans(), ladder=st.booleans(),
       yanase=st.booleans())
def test_property_master_inequality_and_dense_agreement(seed, object_dim, probe_dim,
                                                        spin, ladder, yanase):
    rng = np.random.default_rng(seed)
    model, pair = random_conservative_model(
        rng, object_dim, probe_dim, spin_scenario=spin and object_dim == 2,
        probe_ladder=ladder, yanase=yanase)
    psi = w.random_ket(model.object_dim, rng)
    assert w.noise(model, psi) ** 2 >= w.fundamental_bound(model, pair, psi) - 1e-9
    _assert_matches_dense(model, pair, psi)
    assert w.variance_additivity_residual(pair, psi, model.xi) < 1e-10
    assert w.commutator_identity_residual(model, pair) < 1e-9
    # the compiled D is the probe-traced commutator-identity side, and it
    # equals the traced [N, L1 x I + I x L2] since the model is conservative
    io, ip = np.eye(model.object_dim), np.eye(model.probe_dim)
    u = model.U.matrix
    im, il2 = np.kron(io, model.M.matrix), np.kron(io, pair.L2.matrix)
    ai, l1i = np.kron(model.A.matrix, ip), np.kron(pair.L1.matrix, ip)
    embed = np.kron(io, model.xi.amplitudes[:, None])
    side = u.conj().T @ (im @ il2 - il2 @ im) @ u - (ai @ l1i - l1i @ ai)
    n = u.conj().T @ im @ u - ai
    total = l1i + il2
    d = bound_terms(model, pair).stack[:model.object_dim]
    assert np.linalg.norm(d - embed.conj().T @ side @ embed) < 1e-10
    assert np.linalg.norm(d - embed.conj().T @ (n @ total - total @ n) @ embed) < 1e-9


# The shared per-state pass: both bounds read one set of figures per ket
# object, kept on the compiled terms. A fresh model (no caches) and the dense
# np.kron oracle are the references.

@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), object_dim=st.integers(2, 4),
       probe_dim=st.integers(2, 6),
       calls=st.lists(st.tuples(st.sampled_from(("fundamental_bound", "yanase_bound")),
                                st.integers(0, 1), st.integers(0, 1)),
                      min_size=1, max_size=12))
def test_shared_state_pass_interleaved_calls(seed, object_dim, probe_dim, calls):
    rng = np.random.default_rng(seed)
    model, pair = random_conservative_model(rng, object_dim, probe_dim,
                                            spin_scenario=False)
    # a second pair with the same L2, so the Yanase condition holds for both
    pairs = (pair, w.ConservationPair(L1=w.random_hermitian(model.object_dim, rng),
                                      L2=pair.L2))
    states = [w.random_ket(model.object_dim, rng) for _ in range(2)]
    for name, p, s in calls:
        value = getattr(w, name)(model, pairs[p], states[s])
        assert value == getattr(w, name)(_rebuilt(model), pairs[p], states[s])
        dense = dense_figures(model, pairs[p], states[s])
        expected = dense[2] if name == "fundamental_bound" else dense[3]
        assert value == pytest.approx(expected, rel=ORACLE_TOL, abs=ORACLE_TOL)


def test_shared_state_pass_keys_on_the_ket_object():
    rng = np.random.default_rng(RNG_SEED + 4)
    model, pair = random_conservative_model(rng, object_dim=3, probe_dim=4)
    raw = w.random_ket(3, rng).amplitudes.copy()
    psi = w.Ket(raw)
    fb, yb = w.fundamental_bound(model, pair, psi), w.yanase_bound(model, pair, psi)
    # a second ket with equal amplitudes gets its own figures, equal in value
    twin = w.Ket(psi.amplitudes)
    assert (w.fundamental_bound(model, pair, twin), w.yanase_bound(model, pair, twin)) == (fb, yb)
    assert list(bound_terms(model, pair)._state) == [twin]
    # a ket copies its amplitudes: changing the source array after a hit
    # changes neither the cached figures nor the next ket's
    raw[:] = w.random_ket(3, rng).amplitudes
    other = w.Ket(raw)
    assert w.fundamental_bound(model, pair, psi) == fb
    assert w.fundamental_bound(model, pair, other) == \
        w.fundamental_bound(_rebuilt(model), pair, other) != fb
    assert w.yanase_bound(model, pair, other) == w.yanase_bound(_rebuilt(model), pair, other)


def test_shared_state_pass_still_checks_each_ket():
    rng = np.random.default_rng(RNG_SEED + 5)
    model, pair = random_conservative_model(rng, object_dim=2, probe_dim=3)
    psi = w.random_ket(2, rng)
    wrong_dim = w.random_ket(3, rng)
    for bound in (w.fundamental_bound, w.yanase_bound):
        for first in (w.fundamental_bound, w.yanase_bound):
            first(model, pair, psi)
            bound(model, pair, psi)  # a hit
            with pytest.raises(w.DimensionMismatch):
                bound(model, pair, wrong_dim)
            assert bound(model, pair, psi) == bound(_rebuilt(model), pair, psi)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), object_dim=st.integers(2, 4),
       probe_dim=st.integers(2, 6), yanase=st.booleans(), spin=st.booleans(),
       conservative=st.booleans())
def test_bound_report_fields_equal_the_public_functions(seed, object_dim, probe_dim,
                                                        yanase, spin, conservative):
    rng = np.random.default_rng(seed)
    model, pair = random_conservative_model(
        rng, object_dim, probe_dim, spin_scenario=spin and object_dim == 2, yanase=yanase)
    if not conservative:
        model = w.MeasurementModel(model.object_dim, model.probe_dim, model.xi,
                                   w.random_unitary(model.U.dim, rng), model.M, model.A)
    psi = w.random_ket(model.object_dim, rng)
    report = w.bound_report(model, pair, psi)
    fresh = _rebuilt(model)
    eps = w.noise(fresh, psi)
    assert report.eps_sq == eps * eps
    assert report.fundamental_bound == w.fundamental_bound(fresh, pair, psi)
    assert report.yanase_residual == w.yanase_residual(model.M, pair.L2)
    assert report.acl_residual == w.acl_residual(fresh, pair)
    assert (report.uncertainty_lhs, report.uncertainty_rhs) == \
        w.uncertainty_pair(fresh, pair, psi)
    for name in ("yanase_bound", "spin_bound", "commutator_identity_residual"):
        args = (fresh, pair) if name == "commutator_identity_residual" else (fresh, pair, psi)
        if name in report.null_reasons:
            assert getattr(report, name) is None
            with pytest.raises(w.PreconditionError) as info:
                getattr(w, name)(*args)
            assert str(info.value) == report.null_reasons[name]
        else:
            assert getattr(report, name) == getattr(w, name)(*args)
    assert ("commutator_identity_residual" in report.null_reasons) is not conservative
    dense = dense_figures(model, pair, psi)
    assert report.fundamental_bound == pytest.approx(dense[2], rel=ORACLE_TOL, abs=ORACLE_TOL)
    if report.yanase_bound is not None:
        assert report.yanase_bound == pytest.approx(dense[3], rel=ORACLE_TOL, abs=ORACLE_TOL)


def test_bound_report_lifts_l_once_per_pair(monkeypatch):
    # the lift L1 x I is the first product of L = L1 x I + I x L2; a report on
    # a fresh pair builds it once, and a second report on the pair not at all
    rng = np.random.default_rng(RNG_SEED + 7)
    model, built = random_conservative_model(rng, 3, 4, yanase=True)
    pair, psi = w.ConservationPair(L1=built.L1, L2=built.L2), w.random_ket(3, rng)
    kron, lifts = w.bounds.kron, []

    def spy(x, y):
        lifts.append(x is pair.L1.matrix)
        return kron(x, y)

    monkeypatch.setattr(w.bounds, "kron", spy)
    w.bound_report(model, pair, psi)
    assert sum(lifts) == 1
    w.bound_report(model, pair, w.random_ket(3, rng))
    assert sum(lifts) == 1
    assert pair.total() is pair.total()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), object_dim=st.integers(2, 4),
       probe_dim=st.integers(2, 8), ladder=st.booleans(), yanase=st.booleans())
def test_state_pass_matches_the_vdot_oracle(seed, object_dim, probe_dim, ladder, yanase):
    rng = np.random.default_rng(seed)
    model, pair = random_conservative_model(rng, object_dim, probe_dim, spin_scenario=False,
                                            probe_ladder=ladder, yanase=yanase)
    terms = bound_terms(model, pair)
    for _ in range(5):
        psi = w.random_ket(object_dim, rng)
        got, want = _state_figures(terms, psi), _vdot_figures(terms, psi)
        for g, x in zip(got[:2], want[:2]):
            assert abs(g - x) <= 1e-15 * max(1.0, abs(x))
        # the denominator is a difference, 4 ||L1 psi||^2 - 4 <L1>^2 + 4 var(L2, xi),
        # which each formula rounds on its own; scale by the terms, not the result
        la = terms.stack[2 * object_dim:] @ psi.amplitudes
        mean = np.vdot(psi.amplitudes, la).real
        scale = 4.0 * (np.vdot(la, la).real + mean ** 2 + terms.var_l2)
        assert abs(got[2] - want[2]) <= 1e-15 * max(1.0, scale)
        # the bounds are the ratios of those figures
        assert w.fundamental_bound(model, pair, psi) == _ratio(abs(got[0]) ** 2, got[2])
        if yanase:
            assert w.yanase_bound(model, pair, psi) == _ratio(abs(got[1]) ** 2, got[2])


@pytest.mark.parametrize("object_dim", [2, 3, 4])
@pytest.mark.parametrize("ladder", [True, False], ids=["degenerate-L2", "random-L2"])
def test_flat_stack_figures_equal_the_stacked_matmul_read(object_dim, ladder):
    # the flat [d; c; L1] table read by .dot gives the bits of the batched
    # (3, d_o, d_o) table read by @, and the table itself the bits of its @ build
    rng = np.random.default_rng([object_dim, ladder])
    for _ in range(4):
        model, pair = random_conservative_model(rng, object_dim, int(rng.integers(2, 7)),
                                                spin_scenario=False, probe_ladder=ladder,
                                                yanase=bool(rng.integers(2)))
        terms = bound_terms(model, pair)
        assert terms.stack.shape == (3 * object_dim, object_dim)
        y, l1 = model.reduced.y, pair.L1.matrix
        m, l2, a_op = model.M.matrix, pair.L2.matrix, model.A.matrix
        k, c = m @ l2 - l2 @ m, a_op @ l1 - l1 @ a_op
        ky = (k @ y.reshape(object_dim, model.probe_dim, -1)).reshape(y.shape)
        stacked = np.array((y.conj().T @ ky - c, c, l1))
        assert np.array_equal(terms.stack.reshape(stacked.shape), stacked)
        for _ in range(25):
            psi = w.random_ket(object_dim, rng)
            a = psi.amplitudes
            images = stacked @ a
            d, cm, mean = (images @ a.conj()).tolist()
            second = float(np.vdot(images[2], images[2]).real)
            var = _moment_variance(second, mean, terms.norm_l1)
            want = (d, cm, 4.0 * var + 4.0 * terms.var_l2, 4.0 * (second + terms.second_l2))
            assert _state_figures(terms, psi) == want


def _overflowing_inputs():
    """Per case, (prepare, call, where) on finite entries: prepare builds what call
    reads and must not overflow; call overflows in a product of function where."""
    sx, sy, sz = w.spin_operators()
    huge = w.Operator.hermitian(np.full((2, 2), 1.5e308))  # huge psi = 2.1e308 (1, 1)
    psi = w.Ket(np.array([1.0, 1.0]) / math.sqrt(2.0))
    # W = (I x M) (I x xi) - A x xi: W psi overflows with A
    noisy = w.MeasurementModel(2, 2, w.named_state("alpha_z"), w.identity(4), sz, huge)
    # [A, L1] = 1.5e308 i (sigma_x - sigma_z): it holds the table's d and c
    # blocks at 1.5e308 while ||L1||_F stays finite, and the rows of d psi overflow
    model = w.MeasurementModel(2, 2, w.named_state("alpha_z"), w.identity(4), sz,
                               w.Operator.hermitian(1e160 * sy.matrix))
    pair = w.ConservationPair(L1=w.Operator.hermitian(3e148 * (sx.matrix + sz.matrix)), L2=sz)
    tilted = w.Ket(np.array([1.0, -1.0]) / math.sqrt(2.0))
    # A L1 overflows, so building the bound terms raises
    wide_model = w.MeasurementModel(2, 2, w.named_state("alpha_z"), w.identity(4), sz,
                                    w.Operator.hermitian(1e200 * sx.matrix))
    wide = w.ConservationPair(L1=w.Operator.hermitian(1e200 * sz.matrix), L2=sz)
    # L1 = 1e148 diag(-1, 0, 1) and A_jk = 1e160 i / (l_k - l_j) give [A, L1] =
    # 1e308 i (J - I), J all ones: d psi stays finite at the uniform psi, and
    # <psi|d|psi> = -2e308 i overflows in the product of the images with conj(psi)
    l1 = np.array([-1.0, 0.0, 1.0])
    gaps = np.subtract.outer(l1, l1).T + np.eye(3)
    mean_model = w.MeasurementModel(3, 2, w.named_state("alpha_z"), w.identity(6), sz,
                                    w.Operator.hermitian(1e160j * (1.0 / gaps - np.eye(3))))
    mean_pair = w.ConservationPair(L1=w.Operator.hermitian(np.diag(1e148 * l1)), L2=sz)
    uniform = w.Ket(np.ones(3) / math.sqrt(3.0))
    return {
        "noise": (lambda: noisy.reduced, lambda: w.noise(noisy, psi), "noise"),
        "bound-terms": (lambda: wide_model.reduced,
                        lambda: w.fundamental_bound(wide_model, wide, psi), "_commutator_matrix"),
        "bound-figures": (lambda: bound_terms(model, pair),
                          lambda: w.fundamental_bound(model, pair, tilted), "_state_figures"),
        "bound-means": (lambda: bound_terms(mean_model, mean_pair),
                        lambda: w.fundamental_bound(mean_model, mean_pair, uniform),
                        "_state_figures"),
        "expectation": (lambda: None, lambda: w.expectation(huge, psi), "expectation"),
        "variance": (lambda: None, lambda: w.variance(huge, psi), "array_variance"),
        "uncertainty-N": (lambda: noisy.reduced, lambda: w.uncertainty_pair(
            noisy, w.ConservationPair(L1=sz, L2=sz), psi), "uncertainty_pair"),
        "uncertainty-L": (lambda: model.reduced, lambda: w.uncertainty_pair(
            model, w.ConservationPair(L1=huge, L2=sz), psi), "uncertainty_pair"),
    }


@pytest.mark.parametrize("case", list(_overflowing_inputs()))
def test_overflowing_products_raise_under_the_cli_errstate(case):
    # under the command line's errstate, a product on the verify path that
    # overflows raises where it is formed: ndarray.dot and @ check numpy's
    # overflow flag, np.vdot does not, so a product moved to np.vdot returns
    # inf, and what raises, if anything, is a later norm or an invalid value
    prepare, call, where = _overflowing_inputs()[case]
    with np.errstate(over="raise", invalid="raise"):
        prepare()
        with pytest.raises(FloatingPointError, match="^overflow") as caught:
            call()
    assert caught.traceback[-1].name == where


def _hand_terms(l1):
    """BoundTerms with d = c = 0, the Yanase condition holding, the given L1
    slot and its norm, and var(L2, xi) and <L2^2> in xi 1/4."""
    zero = np.zeros_like(l1, dtype=complex)
    return BoundTerms(np.concatenate((zero, zero, l1)), 0.0, "", 0.25, 0.25,
                      w.frobenius_norm(l1))


def test_state_pass_variance_alarms():
    # a non-hermitian L1 slot whose mean has an imaginary residue
    with pytest.raises(w.StructureError, match="imaginary residue"):
        _state_figures(_hand_terms(np.diag([1j, 0.0])), w.Ket([1.0, 0.0]))
    # a Ket may miss norm 1 by ROUNDING_TOL; with L1 = diag(4, 0)
    # that puts ||L1 psi||^2 = 16 r^2 below <L1>^2 = 16 r^4 by about 32 (r - 1)
    r = 1.0 + 2.0 ** -40
    with pytest.raises(ArithmeticError, match="negative beyond tolerance"):
        _state_figures(_hand_terms(np.diag([4.0, 0.0])), w.Ket([r, 0.0]))
    # with L1 = diag(1, 0) and r - 1 = 2^-46 the variance is about -2.8e-14,
    # within the tolerance, and is clamped to 0: 4 var(L1) + 4 var(L2) = 1
    r = 1.0 + 2.0 ** -46
    assert r * r - (r * r) ** 2 < 0.0
    assert _state_figures(_hand_terms(np.diag([1.0, 0.0])), w.Ket([r, 0.0]))[2] == 1.0


def test_bounds_at_an_exact_eigenstate_of_a_large_probe_quantity():
    # var(L2, xi) rounds to -3.6e-12 at L2 = diag(100, 0); an alarm relative
    # to the second moment clamps it to 0, so the bounds are the spin floor
    model, pair = large_eigenvalue_probe_model()
    psi = w.named_state("alpha_y")
    assert bound_terms(model, pair).var_l2 == 0.0
    assert w.fundamental_bound(model, pair, psi) == pytest.approx(0.25, abs=1e-15)
    assert w.yanase_bound(model, pair, psi) == w.fundamental_bound(model, pair, psi)
    assert w.bound_report(model, pair, psi).violations() == ()


def test_bound_report_near_the_kernel_of_a_large_conserved_quantity():
    # <psi|L1|psi> rounds with an imaginary residue of about 1e-7 at a null
    # vector of L1 = 1e10 (H - lambda_3 I); it is rounding, not a broken tag,
    # in both the state pass and the uncertainty pair
    model, pair, psi = near_kernel_model()
    report = w.bound_report(model, pair, psi)
    assert report.violations() == ()
    assert report.acl_residual == 0.0 and report.yanase_residual == 0.0
    # [A, L1] = 1e10 [H, H] vanishes up to rounding, and so do both bounds
    assert 0.0 <= report.fundamental_bound == report.yanase_bound < 1e-9
    # var(N) = var(S_z, x-up) + var(H, psi) = 1/4, var(L) = var(S_z, x-up) = 1/4
    assert report.uncertainty_lhs == pytest.approx(0.0625, rel=1e-9)
