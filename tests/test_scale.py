"""A change of units leaves every verdict unchanged.

The bounds are ratios of squares in the conserved quantities, and eps^2 and
the bounds are quadratic in the observables, so scaling L1 and L2 by c keeps
every figure, and scaling M and A by c multiplies eps^2 and the bounds by
c^2. The models here come from the commutant map with random bases, so their
conserved quantities, interactions and spectra round, unlike the swap demo's.
A theorem inequality's slack scales with its operands too, so a valid model
passes and a violated inequality fails in any units.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import waylimit as w
from helpers import CNOT_Z_CONTROL_X_FLIP, near_kernel_probe_model, random_conservative_model

SEEDS = (1, 2, 3, 5)
BOUNDS = ("fundamental_bound", "yanase_bound", "spin_bound")


def _scaled(op, c):
    return w.Operator.hermitian(c * op.matrix)


def _report(model, pair, psi):
    report = w.bound_report(model, pair, psi)
    assert report.violations() == ()
    return report


def _null_fields(report):
    return sorted(report.null_reasons)


@pytest.mark.parametrize("yanase", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_conserved_quantities_keep_every_figure(seed, yanase):
    rng = np.random.default_rng(seed)
    model, pair = random_conservative_model(rng, 3, 4, yanase=yanase)
    psi = w.random_ket(3, rng)
    base = _report(model, pair, psi)
    assert base.commutator_identity_residual is not None
    for c in (1e-12, 1e-10, 1e-9, 1e-7, 1e-6, 1e-3, 1e3, 1e5, 1e6):
        scaled = w.ConservationPair(L1=_scaled(pair.L1, c), L2=_scaled(pair.L2, c))
        report = _report(model, scaled, psi)
        assert _null_fields(report) == _null_fields(base), c
        assert report.eps_sq == base.eps_sq
        for name in BOUNDS:
            if getattr(base, name) is not None:
                assert getattr(report, name) == pytest.approx(getattr(base, name), rel=1e-9), c


@pytest.mark.parametrize("yanase", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_observables_scale_noise_and_bounds_by_c_squared(seed, yanase):
    rng = np.random.default_rng(seed)
    model, pair = random_conservative_model(rng, 3, 4, yanase=yanase)
    psi = w.random_ket(3, rng)
    base = _report(model, pair, psi)
    for c in (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e8):
        scaled = w.MeasurementModel(model.object_dim, model.probe_dim, model.xi, model.U,
                                    _scaled(model.M, c), _scaled(model.A, c))
        report = _report(scaled, pair, psi)
        assert _null_fields(report) == _null_fields(base), c
        assert report.commutator_identity_residual is not None
        for name in ("eps_sq", *BOUNDS):
            if getattr(base, name) is not None:
                assert getattr(report, name) == pytest.approx(c * c * getattr(base, name),
                                                              rel=1e-9), (c, name)


@pytest.mark.parametrize("c", [1.0, 1e-9, 1e-12])
def test_small_units_keep_the_gates_of_a_non_conservative_model(c):
    # the swap demo with U a CNOT and L1 = L2 = c S_z: [U, L] and [M, L2]
    # both scale with c, so each gate refuses at every c, as at unit scale
    swap, _ = w.swap_demo_model()
    _, _, sz = w.spin_operators()
    cnot = w.MeasurementModel(2, 2, swap.xi, w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP),
                              swap.M, swap.A)
    pair = w.ConservationPair(L1=_scaled(sz, c), L2=_scaled(sz, c))
    report = w.bound_report(cnot, pair, w.named_state("alpha_y"))
    assert report.commutator_identity_residual is None and report.yanase_bound is None
    reasons = report.null_reasons
    assert reasons["commutator_identity_residual"].startswith("conservation law fails"), c
    assert reasons["yanase_bound"].startswith("Yanase condition fails"), c
    assert report.violations() == ()


def test_small_units_keep_the_optimizer_yanase_gate():
    # M = S_x against L2 = 1e-10 S_z: the residual 7.071e-11 is 1.414 x ||M||_F ||L2||_F
    sx, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=_scaled(sz, 1e-10), L2=_scaled(sz, 1e-10))
    config = w.OptimizerConfig(restarts=1, max_iters=2)
    with pytest.raises(w.PreconditionError,
                       match=r"^Yanase condition fails: \[M, L2\] residual 7.071e-11, "):
        w.optimize_noise(sx, pair, sx, w.named_state("alpha_x"), w.named_state("alpha_y"),
                         config)


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_pair_keeps_its_commutant_sectors(seed):
    # a ladder L2 in a random basis and L1 = S_z: degenerate sectors whose
    # eigenvalues round apart by more than ROUNDING_TOL once L is large
    rng = np.random.default_rng(seed)
    _, pair = random_conservative_model(rng, 2, 5, spin_scenario=True, probe_ladder=True)

    def sizes(basis):
        return [stop - start for start, stop in basis.sectors]

    expected = sizes(w.commutant_basis(pair))
    assert max(expected) > 1
    for c in (1e2, 1e4, 1e6):
        scaled = w.ConservationPair(L1=_scaled(pair.L1, c), L2=_scaled(pair.L2, c))
        assert sizes(w.commutant_basis(scaled)) == expected, c
        assert sizes(w.commutant_basis(scaled.total())) == expected, c


def test_large_rotated_spectrum_loads_as_hermitian():
    # V diag(1e6 vals) V^dag rounds away from hermitian by about 1e-10, in
    # proportion to its norm, not past it
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        v = w.random_unitary(8, rng).matrix
        vals = 1e6 * rng.uniform(-1.0, 1.0, size=8)
        op = w.Operator.hermitian((v * vals) @ v.conj().T)
        assert np.allclose(np.linalg.eigvalsh(op.matrix), np.sort(vals), rtol=0, atol=1e-8)
    # at the same scale, a broken tag is still refused
    broken = np.diag(1e6 * np.ones(2)).astype(complex)
    broken[0, 1] = 1e-3
    with pytest.raises(w.StructureError, match="hermitian tag violated"):
        w.Operator.hermitian(broken)


def test_small_conserved_quantities_keep_their_levels_and_sectors():
    # L1 = c S_z and L2 = c diag(1, 0, -1) with the 3-level ladder's xi: at any c
    # the record alternates over L2's 3 levels, L has 4 sectors and 10
    # parameters, and both readouts reach the unit-scale optimum sin^2(pi/8)
    sx, _, sz = w.spin_operators()
    _, _, xi = w.spin_ladder_probe(3)
    parity = w.Operator.hermitian(np.diag([0.5, -0.5, 0.5]))
    psi = w.named_state("alpha_y")
    config = w.OptimizerConfig(restarts=2, max_iters=30)

    def run(c):
        pair = w.ConservationPair(L1=_scaled(sz, c),
                                  L2=w.Operator.hermitian(np.diag([c, 0.0, -c])))
        record = w.record_observable(pair.L2)
        basis = w.commutant_basis(pair)
        finals = [w.optimize_noise(sx, pair, m, xi, psi, config).final_objective
                  for m in (record, parity)]
        return record, basis, finals

    _, _, (want, _) = run(1.0)
    assert want == pytest.approx(np.sin(np.pi / 8) ** 2, rel=1e-12)
    for c in (1e-9, 1e-10, 1e-12, 1e-13):
        record, basis, finals = run(c)
        np.testing.assert_allclose(record.matrix, parity.matrix, rtol=0, atol=1e-15)
        assert (len(basis.sectors), basis.size) == (4, 10), c
        for got in finals:
            assert got == pytest.approx(want, rel=1e-12), c


def test_robertson_relation_holds_near_the_kernel_at_any_scale_of_a():
    # both variances, and so Robertson's lhs, are about 0, while <N> grows with
    # A: an uncentred rhs would read <N> times the rounding residue of <L>, 6.9e-8
    # against lhs 0 at A x 1e4, and 6.9 at A x 1e8
    for c in (1e2, 1e4, 1e6, 1e8):
        model, pair, psi = near_kernel_probe_model(c)
        report = w.bound_report(model, pair, psi)
        assert report.violations() == (), c
        assert report.uncertainty_rhs < report.uncertainty_lhs, c


def _scaled_observables_report(c):
    """The report of the seed-1 3 x 4 Yanase model with A and M scaled by c, at
    the seed-5 object state; its bounds are 0.135 c^2."""
    model, pair = random_conservative_model(np.random.default_rng(1), 3, 4, yanase=True)
    scaled = w.MeasurementModel(3, 4, model.xi, model.U, _scaled(model.M, c),
                                _scaled(model.A, c))
    return w.bound_report(scaled, pair, w.random_ket(3, np.random.default_rng(5)))


def test_a_zero_noise_is_flagged_below_both_bounds_in_any_units():
    # the slack scales with A and M: an absolute 1e-9 would exceed both bounds from c = 1e-5 down
    for c in (1.0, 1e-5, 1e-9, 1e-12):
        report = _scaled_observables_report(c)
        assert report.violations() == (), c
        assert replace(report, eps_sq=0.0).violations() == \
            ("fundamental_bound", "yanase_bound"), c


def test_a_relative_shortfall_below_a_bound_is_flagged_in_small_units():
    report = _scaled_observables_report(1e-9)
    for name in ("fundamental_bound", "yanase_bound"):
        bound = getattr(report, name)
        assert name in replace(report, eps_sq=bound * (1.0 - 1e-6)).violations()
        # a shortfall at the level of rounding is not
        assert name not in replace(report, eps_sq=bound * (1.0 - 1e-12)).violations()


def test_search_soundness_alarm_in_small_units(monkeypatch):
    # the 3-level ladder at y-up has the Yanase floor (1/4) / (4 var(S_z) +
    # 4 var(L2)) = 1/12, c^2 / 12 with A and M scaled by c; a noise patched to
    # 1e-6 relative below it is an iterate below the bound
    import waylimit.optimizer as optimizer

    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(3)
    c = 1e-9
    monkeypatch.setattr(optimizer, "noise", lambda *args: math.sqrt(c * c / 12.0 * (1.0 - 1e-6)))
    with pytest.raises(w.TheoremViolation, match="below the bound 8.33333333"):
        w.optimize_noise(_scaled(sx, c), w.ConservationPair(L1=sz, L2=l2), _scaled(m, c), xi,
                         w.named_state("alpha_y"), w.OptimizerConfig(restarts=1, max_iters=3))


def _ladder_search(c, objective):
    # the 3-level ladder with A = c S_x and M = c x its record: the objective
    # and its gradient are c^2 times those at c = 1
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(3)
    return (_scaled(sx, c), w.ConservationPair(L1=sz, L2=l2), _scaled(m, c), xi,
            w.named_state("alpha_y"), w.OptimizerConfig(restarts=2, max_iters=30, seed=0,
                                                        objective=objective))


@pytest.mark.parametrize("objective", ["state", "sup"])
def test_search_is_scale_covariant_in_a_and_m(objective):
    # the stop, the step length and the descent test are read at the search's
    # scale, so every c makes the same moves as c = 1
    base = w.optimize_noise(*_ladder_search(1.0, objective))
    assert len(base.objective_trace) > 1
    for c in (0.1, 1e-3, 1e-6, 1e-9):
        run = w.optimize_noise(*_ladder_search(c, objective))
        assert run.final_objective / (c * c) == pytest.approx(base.final_objective, rel=1e-12), c
        assert len(run.objective_trace) == len(base.objective_trace), c
        assert run.converged == base.converged, c


@pytest.mark.parametrize("c", [1e-5, 1e-8])
def test_sup_gradient_matches_central_differences_in_small_units(c):
    # the top eigenspace of W^dag W is read at its own scale: two eigenvalues
    # of order c^2 that differ by a fraction stay apart
    from waylimit.optimizer import _Problem

    problem = _Problem(*_ladder_search(c, "sup"))
    x = np.random.default_rng(7).uniform(-np.pi, np.pi, problem.n_params)
    g = problem.gradient(x, problem.evaluate(x)[1])
    oracle = w.numerical_gradient(lambda y: problem.evaluate(y)[0], x, 1e-5)
    assert np.linalg.norm(oracle) > 0.01 * c * c
    assert np.linalg.norm(g - oracle) <= 1e-6 * np.linalg.norm(oracle)
