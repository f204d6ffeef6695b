"""Commutant parametrization and the noise search."""

import numpy as np
import pytest

import waylimit as w
from helpers import SWAP_MATRIX, random_conservative_model
from waylimit.optimizer import _Problem

RNG_SEED = 40


def _two_qubit_total_sz():
    _, _, sz = w.spin_operators()
    return w.ConservationPair(L1=sz, L2=sz).total()


def test_commutant_count_two_qubit_spin_z():
    # eigenspace dims 1, 2, 1 give 1 + 4 + 1 generators
    basis = w.commutant_basis(_two_qubit_total_sz())
    assert basis.size == 6


def test_commutant_count_identity_and_nondegenerate():
    assert w.commutant_basis(w.identity(3)).size == 9
    nondeg = w.Operator.hermitian(np.diag([0.3, 1.1, -2.0, 0.9]))
    assert w.commutant_basis(nondeg).size == 4
    with pytest.raises(ValueError, match="^commutant_basis needs a hermitian operator$"):
        w.commutant_basis(w.Operator(nondeg.matrix))


def test_operator_basis_is_the_eigh_of_its_matrix():
    # the benchmark's seeded models are built on this basis, bit for bit
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(8):
        _, pair = random_conservative_model(rng)
        for op in (pair.L2, pair.total()):
            vectors = np.linalg.eigh(op.matrix)[1]
            assert w.commutant_basis(op).vectors.tobytes() == vectors.tobytes()


def test_commutant_generators_orthonormal_and_commuting():
    rng = np.random.default_rng(RNG_SEED)
    ladder = w.Operator.hermitian(np.diag([1.5, 0.5, 0.5, -0.5, -0.5, -1.5]))
    basis = w.commutant_basis(ladder)
    mats = [g.matrix for g in basis.generators]
    for i, gi in enumerate(mats):
        assert w.frobenius_norm(gi @ ladder.matrix - ladder.matrix @ gi) < 1e-11
        for j, gj in enumerate(mats):
            inner = np.real(np.trace(gi.conj().T @ gj))
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_conservative_unitary_zero_is_identity():
    basis = w.commutant_basis(_two_qubit_total_sz())
    u = w.conservative_unitary(basis, np.zeros(basis.size))
    np.testing.assert_allclose(u.matrix, np.eye(4), atol=1e-12)


def test_conservative_unitary_exchange_block_gives_swap_sector():
    # oracle: exp(i t s) on the middle sector with s the normalized exchange
    # generator equals cos(t/sqrt(2)) I + i sin(t/sqrt(2)) sqrt(2) s; at
    # t = pi/sqrt(2) this is i times the sector swap
    basis = w.commutant_basis(_two_qubit_total_sz())
    exchange_index = None
    target = np.zeros((4, 4))
    target[1, 2] = target[2, 1] = 1.0 / np.sqrt(2.0)
    for k, g in enumerate(basis.generators):
        if w.frobenius_norm(g.matrix - target) < 1e-12:
            exchange_index = k
    assert exchange_index is not None
    theta = np.zeros(basis.size)
    theta[exchange_index] = np.pi / np.sqrt(2.0)
    u = w.conservative_unitary(basis, theta)
    sector = u.matrix[1:3, 1:3]
    np.testing.assert_allclose(sector, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_conservative_unitary_random_theta_conserves():
    rng = np.random.default_rng(RNG_SEED)
    ladder = w.Operator.hermitian(np.diag([1.0, 0.0, -1.0]))
    _, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=sz, L2=ladder)
    basis = w.commutant_basis(pair.total())
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, basis.size)
        u = w.conservative_unitary(basis, theta)
        l = pair.total().matrix
        assert w.frobenius_norm(u.matrix @ l - l @ u.matrix) < 1e-10
        assert w.frobenius_norm(u.matrix.conj().T @ u.matrix - np.eye(6)) < 1e-10


def _dense_unitary(basis, theta):
    # oracle: eigh of the dense generator sum, as the interaction is defined
    h = sum(t * g.matrix for t, g in zip(theta, basis.generators))
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def test_sector_unitary_matches_dense_oracle():
    rng = np.random.default_rng(RNG_SEED)
    _, _, sz = w.spin_operators()
    l2_osc, _, _ = w.oscillator_probe(2, w.CoherentAmplitudes(0.01, 0.01))
    # the oscillator has sectors of several sizes, the random L2 only size 1
    for l2, sizes in ((l2_osc, {2, 3, 4}), (w.random_hermitian(4, rng), {1})):
        basis = w.commutant_basis(w.ConservationPair(L1=sz, L2=l2).total())
        assert {stop - start for start, stop in basis.sectors} == sizes
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, basis.size)
            u = w.conservative_unitary(basis, theta)
            np.testing.assert_allclose(u.matrix, _dense_unitary(basis, theta), atol=1e-12)


def _pairs_with_one_dimensional_sectors(rng):
    """Random L1 (3 levels) and L2 (4 levels): twelve 1 x 1 sectors; and the
    S_z object with a three-level ladder: sectors of size 1, 2 and 2."""
    _, _, sz = w.spin_operators()
    l2, _, _ = w.spin_ladder_probe(3)
    return (w.ConservationPair(L1=w.random_hermitian(3, rng), L2=w.random_hermitian(4, rng)),
            w.ConservationPair(L1=sz, L2=l2))


def test_pair_basis_unitary_matches_dense_oracle_on_one_dimensional_sectors():
    # a batched eigh of 1 x 1 blocks gives e^{i theta} on each column
    rng = np.random.default_rng(RNG_SEED)
    for pair, sizes in zip(_pairs_with_one_dimensional_sectors(rng), ([1] * 12, [1, 2, 2, 1])):
        basis = w.commutant_basis(pair)
        assert [stop - start for start, stop in basis.sectors] == sizes
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, basis.size)
            u = w.conservative_unitary(basis, theta)
            np.testing.assert_allclose(u.matrix, _dense_unitary(basis, theta), rtol=0, atol=1e-12)


def test_sector_gradient_on_one_dimensional_sectors():
    # d Re tr(Gamma^dag U(theta)) for a random Gamma = left @ right^dag: on a
    # 1 x 1 block the divided difference reduces to i e^{i theta}
    rng = np.random.default_rng(RNG_SEED)
    for pair in _pairs_with_one_dimensional_sectors(rng):
        basis = w.commutant_basis(pair)
        dim = basis.vectors.shape[0]
        left, right = (rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
                       for _ in range(2))
        gamma = left @ right.conj().T

        def f(theta):
            return float(np.real(np.vdot(gamma, w.conservative_unitary(basis, theta).matrix)))

        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, basis.size)
            g = basis._gradient(theta, left, right)
            oracle = w.numerical_gradient(f, theta, 1e-5)
            assert np.linalg.norm(oracle) > 0.1
            assert np.linalg.norm(g - oracle) <= 1e-6 * np.linalg.norm(oracle)


def _objective(problem):
    """The search's objective as a function of x, for the central-difference oracle."""
    return lambda x: problem.evaluate(x)[0]


@pytest.mark.parametrize("objective", ["state", "sup"])
def test_analytic_gradient_on_one_dimensional_sectors(objective):
    # with every sector 1 x 1, U and a Yanase M are both diagonal in V, so the
    # objective does not depend on theta and both gradients vanish; the
    # mixed pair has a gradient to match
    rng = np.random.default_rng(RNG_SEED)
    for pair in _pairs_with_one_dimensional_sectors(rng):
        do, dp = pair.L1.dim, pair.L2.dim
        problem = _Problem(w.random_hermitian(do, rng), pair, w.record_observable(pair.L2),
                           w.random_ket(dp, rng), w.random_ket(do, rng),
                           w.OptimizerConfig(restarts=1, seed=RNG_SEED, objective=objective))
        for restart in (1, 2, 3):
            x = problem.initial_point(restart)
            f, model = problem.evaluate(x)
            if objective == "sup":
                top = np.linalg.eigvalsh(model.reduced.w.conj().T @ model.reduced.w)
                assert top[-1] - top[-2] > 1e-3
            g = problem.gradient(x, model)
            oracle = w.numerical_gradient(_objective(problem), x, 1e-5)
            if pair.L1.dim == 3:
                np.testing.assert_allclose(g, 0.0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(oracle, 0.0, rtol=0, atol=1e-9)
            else:
                assert np.linalg.norm(oracle) > 1e-3
                assert np.linalg.norm(g - oracle) <= 1e-6 * np.linalg.norm(oracle)


def _dense_check_inputs(total, vectors):
    """The constructor's per-column inputs taken densely from L V: each
    column's Rayleigh quotient and ||L v_k - lam_k v_k||."""
    image = total @ vectors
    values = np.real(np.sum(vectors.conj() * image, axis=0)
                     / np.sum(np.abs(vectors) ** 2, axis=0))
    return values, np.linalg.norm(image - vectors * values, axis=0)


def _ladder_total_basis():
    _, _, sz = w.spin_operators()
    l2, _, _ = w.spin_ladder_probe(3)
    total = w.ConservationPair(L1=sz, L2=l2).total().matrix
    return total, w.commutant_basis(w.Operator.hermitian(total))


def _perturbed(vectors):
    out = vectors.copy()
    out[:, 1] += 1e-6 * np.arange(out.shape[0])
    return out


def test_commutant_basis_rejects_perturbed_sector_vector():
    total, basis = _ladder_total_basis()
    rebuilt = w.CommutantBasis(basis.vectors, basis.sectors,
                               *_dense_check_inputs(total, basis.vectors))
    assert rebuilt.size == basis.size
    vectors = _perturbed(basis.vectors)
    with pytest.raises(ValueError, match="fails to commute"):
        w.CommutantBasis(vectors, basis.sectors, *_dense_check_inputs(total, vectors))
    values, residuals = _dense_check_inputs(total, basis.vectors)
    with pytest.raises(ValueError, match="tile"):
        w.CommutantBasis(basis.vectors, basis.sectors[1:], values, residuals)
    with pytest.raises(ValueError, match=r"^values has shape \(5,\), expected \(6,\)$"):
        w.CommutantBasis(basis.vectors, basis.sectors, values[1:], residuals)
    with pytest.raises(ValueError, match=r"^residuals has shape \(1, 6\), expected \(6,\)$"):
        w.CommutantBasis(basis.vectors, basis.sectors, values, residuals[None, :])
    for k in range(2):
        inputs = [values.copy(), residuals.copy()]
        inputs[k][2] = np.nan
        with pytest.raises(ValueError, match="^sector 1 fails to commute, residual bound nan$"):
            w.CommutantBasis(basis.vectors, basis.sectors, *inputs)


def _pairs_with_every_sector_kind(rng):
    """A degenerate L2 in a random basis, a degenerate L1 whose sums with L2
    coincide across levels, and random spectra (one-dimensional sectors)."""
    def rotated(values):
        v = w.random_unitary(len(values), rng).matrix
        return w.Operator.hermitian((v * values) @ v.conj().T)

    _, _, sz = w.spin_operators()
    return (w.ConservationPair(L1=sz, L2=rotated(np.array([1.0, 0.0, 0.0, -1.0, -1.0]))),
            w.ConservationPair(L1=rotated(np.array([0.5, 0.5, -0.5])),
                               L2=rotated(np.array([1.5, 0.5, -0.5, -1.5]))),
            w.ConservationPair(L1=w.random_hermitian(3, rng), L2=w.random_hermitian(4, rng)))


def test_pair_basis_spans_the_dense_commutant():
    rng = np.random.default_rng(RNG_SEED)
    expected = ([2, 4, 3, 1], [1, 3, 3, 3, 2], [1] * 12)
    for pair, oracle in zip(_pairs_with_every_sector_kind(rng), expected):
        dense = w.commutant_basis(pair.total())
        basis = w.commutant_basis(pair)
        sizes = [stop - start for start, stop in basis.sectors]
        assert sizes == [stop - start for start, stop in dense.sectors] == oracle
        for (start, stop), (d_start, d_stop) in zip(basis.sectors, dense.sectors):
            vs, ds = basis.vectors[:, start:stop], dense.vectors[:, d_start:d_stop]
            np.testing.assert_allclose(vs @ vs.conj().T, ds @ ds.conj().T, rtol=0, atol=1e-12)
        for g in dense.generators:
            w.hermitian_coordinates(basis, g)  # raises outside the span


def test_pair_basis_is_the_sorted_kron_of_the_factors():
    # the sector check certifies the factors, not the assembly: this pins it
    for pair in _pairs_with_every_sector_kind(np.random.default_rng(RNG_SEED)):
        w1, v1 = np.linalg.eigh(pair.L1.matrix)
        w2, v2 = np.linalg.eigh(pair.L2.matrix)
        order = np.argsort(np.add.outer(w1, w2).ravel(), kind="stable")
        vectors = w.commutant_basis(pair).vectors
        assert vectors.tobytes() == np.kron(v1, v2)[:, order].tobytes()


def test_pair_basis_with_misgrouped_factors_is_refused():
    rng = np.random.default_rng(RNG_SEED)
    pair = _pairs_with_every_sector_kind(rng)[0]
    basis = w.commutant_basis(pair)
    _, v1 = np.linalg.eigh(pair.L1.matrix)
    _, v2 = np.linalg.eigh(pair.L2.matrix)
    # the kron columns unsorted, and the factors in the wrong order
    for vectors in (np.kron(v1, v2), np.kron(v2, v1)):
        with pytest.raises(ValueError, match="fails to commute"):
            w.CommutantBasis(vectors, basis.sectors,
                             *_dense_check_inputs(pair.total().matrix, vectors))


def _exact_sector_bounds(total, vectors, sectors, values):
    """2 ||L V_s - c_s V_s||_F ||V_s||_F from a dense L, c_s the mean of the
    sector's values: the figure the per-column bound must not undercut."""
    out = []
    for start, stop in sectors:
        vs = vectors[:, start:stop]
        c = np.mean(values[start:stop])
        out.append(2.0 * np.linalg.norm(total @ vs - c * vs) * np.linalg.norm(vs))
    return np.array(out)


def test_sector_bound_is_at_least_the_exact_residual(monkeypatch):
    import waylimit.optimizer as opt

    # the constructor tests' bases, with the inputs taken densely
    total, basis = _ladder_total_basis()
    rng = np.random.default_rng(RNG_SEED)
    pair = _pairs_with_every_sector_kind(rng)[0]
    _, v1 = np.linalg.eigh(pair.L1.matrix)
    _, v2 = np.linalg.eigh(pair.L2.matrix)
    misgrouped = w.commutant_basis(pair).sectors
    cases = [(total, basis.vectors, basis.sectors), (total, _perturbed(basis.vectors), basis.sectors),
             (pair.total().matrix, np.kron(v1, v2), misgrouped),
             (pair.total().matrix, np.kron(v2, v1), misgrouped)]
    for dense, vectors, sectors in cases:
        values, residuals = _dense_check_inputs(dense, vectors)
        edges = [0] + [stop for _, stop in sectors]
        bound = opt._sector_commutator_bounds(vectors, edges, values, residuals)
        exact = _exact_sector_bounds(dense, vectors, sectors, values)
        assert np.all(bound >= exact * (1.0 - 1e-12))
    # and the factor residuals of commutant_basis(pair), read where the check reads them
    seen = []
    real = opt._sector_commutator_bounds

    def spy(v, edges, values, residuals):
        seen.append((v, values, real(v, edges, values, residuals)))
        return seen[-1][2]

    monkeypatch.setattr(opt, "_sector_commutator_bounds", spy)
    for pair in _pairs_with_every_sector_kind(rng):
        basis = w.commutant_basis(pair)
        (v, values, bound), = seen
        seen.clear()
        exact = _exact_sector_bounds(pair.total().matrix, v, basis.sectors, values)
        # both are at rounding level here; the bound may fall below the exact
        # figure only by the rounding of forming L V densely
        assert np.all(bound >= exact - 1e-14) and np.all(bound < 1e-12)


def test_pair_basis_never_forms_the_total(monkeypatch):
    pair = _pairs_with_every_sector_kind(np.random.default_rng(RNG_SEED))[1]
    calls = []
    monkeypatch.setattr(w.ConservationPair, "total", lambda self: calls.append(self))
    basis = w.commutant_basis(pair)
    assert calls == [] and basis.vectors.shape == (12, 12)
    assert not hasattr(basis, "conserved")


def test_restart_zero_does_not_depend_on_the_eigenbasis(monkeypatch):
    # plain descent from theta = 0 is invariant under an orthogonal change of
    # coordinates inside each sector, so the dense eigenbasis gives the same path
    import waylimit.optimizer as opt

    sx, _, sz = w.spin_operators()
    # the ladder's two bases differ by a permutation, the oscillator's by a rotation
    l2, m, xi = w.oscillator_probe(2, w.CoherentAmplitudes(0.01, 0.01j))
    oscillator = (sx, w.ConservationPair(L1=sz, L2=l2), m, xi, w.named_state("alpha_y"))
    config = w.OptimizerConfig(restarts=1, max_iters=30, seed=3)
    for problem in (_ladder_problem(5), oscillator):
        pair_run = w.optimize_noise(*problem, config)
        original = opt.commutant_basis
        monkeypatch.setattr(opt, "commutant_basis", lambda pair: original(pair.total()))
        dense_run = w.optimize_noise(*problem, config)
        monkeypatch.undo()
        assert pair_run.final_objective == pytest.approx(dense_run.final_objective,
                                                         rel=0, abs=1e-12)
        np.testing.assert_allclose(pair_run.result_model.U.matrix,
                                   dense_run.result_model.U.matrix, rtol=0, atol=1e-9)


def test_conservative_unitary_length_mismatch():
    basis = w.commutant_basis(_two_qubit_total_sz())
    with pytest.raises(ValueError):
        w.conservative_unitary(basis, np.zeros(basis.size + 1))


def test_hermitian_coordinates_roundtrip():
    basis = w.commutant_basis(_two_qubit_total_sz())
    h = w.Operator.hermitian((np.pi / 2.0) * (np.eye(4) - SWAP_MATRIX))
    theta = w.hermitian_coordinates(basis, h)
    u = w.conservative_unitary(basis, theta)
    np.testing.assert_allclose(u.matrix, SWAP_MATRIX, atol=1e-12)
    sx, _, _ = w.spin_operators()
    outside = w.Operator.hermitian(np.kron(sx.matrix, np.eye(2)))
    with pytest.raises(ValueError):
        w.hermitian_coordinates(basis, outside)
    # block diagonal but anti-hermitian: no real theta rebuilds it
    with pytest.raises(ValueError, match="outside the commutant span, residual 2.000e"):
        w.hermitian_coordinates(basis, w.Operator(1j * np.eye(4)))
    # every generator maps to its unit vector, in the standard basis and in a rotated one
    for b in (basis, w.commutant_basis(w.ConservationPair(L1=sx, L2=sx))):
        for k, g in enumerate(b.generators):
            np.testing.assert_allclose(w.hermitian_coordinates(b, g), np.eye(b.size)[k],
                                       rtol=0, atol=1e-15)


def test_record_observable_patterns():
    _, _, sz = w.spin_operators()
    np.testing.assert_allclose(w.record_observable(sz).matrix, sz.matrix, atol=1e-12)
    ladder = w.Operator.hermitian(np.diag([1.0, 0.0, -1.0]))
    rec = w.record_observable(ladder)
    assert w.frobenius_norm(w.commutator(rec, ladder).matrix) < 1e-12
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rec.matrix)),
                               [-0.5, 0.5, 0.5], atol=1e-12)
    degenerate = w.Operator.hermitian(np.diag([1.0, 1.0, 0.0]))
    rec = w.record_observable(degenerate)
    assert w.frobenius_norm(w.commutator(rec, degenerate).matrix) < 1e-12


def test_optimizer_requires_yanase():
    sx, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=sz, L2=sz)
    with pytest.raises(w.PreconditionError):
        w.optimize_noise(sx, pair, sx, w.named_state("alpha_x"),
                         w.named_state("alpha_y"), w.OptimizerConfig(restarts=1))


def test_optimizer_no_iterations_reports_initial_value():
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(2)
    pair = w.ConservationPair(L1=sz, L2=l2)
    run = w.optimize_noise(sx, pair, m, xi, w.named_state("alpha_y"),
                           w.OptimizerConfig(restarts=1, max_iters=0, seed=1))
    # identity interaction: eps^2 = <M^2> + <S_x^2> = 1/2 at the y-up state
    assert run.final_objective == pytest.approx(0.5, abs=1e-12)
    assert run.objective_trace == (run.final_objective,)


def test_optimizer_qubit_probe_floor_and_progress():
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(2)
    pair = w.ConservationPair(L1=sz, L2=l2)
    run = w.optimize_noise(sx, pair, m, xi, w.named_state("alpha_y"),
                           w.OptimizerConfig(restarts=4, max_iters=60, seed=5))
    assert run.final_objective >= 0.125 - 1e-9
    assert run.final_objective <= 0.5
    assert run.bound_value == pytest.approx(0.125, abs=1e-9)
    assert all(a >= b - 1e-15 for a, b in
               zip(run.objective_trace, run.objective_trace[1:]))


def test_optimizer_commuting_observable_reaches_zero():
    _, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(2)
    pair = w.ConservationPair(L1=sz, L2=l2)
    run = w.optimize_noise(sz, pair, m, xi, w.named_state("alpha_y"),
                           w.OptimizerConfig(restarts=8, max_iters=120, seed=2))
    assert run.final_objective < 1e-8


def test_optimizer_deterministic():
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(3)
    pair = w.ConservationPair(L1=sz, L2=l2)
    config = w.OptimizerConfig(restarts=3, max_iters=25, seed=77)
    first = w.optimize_noise(sx, pair, m, xi, w.named_state("alpha_y"), config)
    second = w.optimize_noise(sx, pair, m, xi, w.named_state("alpha_y"), config)
    assert first.objective_trace == second.objective_trace
    np.testing.assert_array_equal(first.theta, second.theta)


def test_numerical_gradient_consistency():
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(2)
    pair = w.ConservationPair(L1=sz, L2=l2)
    basis = w.commutant_basis(pair.total())
    psi = w.named_state("alpha_y")

    def objective(theta):
        u = w.conservative_unitary(basis, theta)
        model = w.MeasurementModel(2, 2, xi, u, m, sx)
        return w.noise(model, psi) ** 2

    rng = np.random.default_rng(RNG_SEED)
    step = 1e-5
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, basis.size)
        g = w.numerical_gradient(objective, x, step)
        for i in range(basis.size):
            fwd = x.copy()
            fwd[i] += step
            bwd = x.copy()
            bwd[i] -= step
            expected = (objective(fwd) - objective(bwd)) / (2 * step)
            scale = max(abs(expected), 1e-6)
            assert abs(g[i] - expected) / scale < 1e-4


def test_sweep_rows_spin_ladder():
    config = w.OptimizerConfig(restarts=4, max_iters=120, seed=13)
    rows = w.sweep_probe_size("spin_ladder", [2, 3, 4], config)
    assert [row.size for row in rows] == [2.0, 3.0, 4.0]
    assert rows[0].bound == pytest.approx(0.125, abs=1e-12)
    bounds = [row.bound for row in rows]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    for row in rows:
        assert row.achieved >= row.bound - 1e-9
        assert row.error == ""
    achieved = [row.achieved for row in rows]
    assert all(a >= b - 1e-9 for a, b in zip(achieved, achieved[1:]))


def test_sweep_records_failures_in_row():
    config = w.OptimizerConfig(restarts=1, max_iters=5, seed=13)
    rows = w.sweep_probe_size("oscillator", [0.0, 10.0], config)
    assert rows[0].error == ""
    assert rows[0].achieved >= rows[0].bound - 1e-9
    # size 10 fails its row, naming the cutoff it needs and the limit
    assert rows[1].error == ("|alpha|^2 + |beta|^2 = 10 needs n_max = 22; "
                             "full oscillator interactions are limited to n_max <= 8")
    assert np.isnan(rows[1].achieved)
    # the probe was never built, so it has neither a variance nor a bound
    assert np.isnan(rows[1].var_mz)
    assert np.isnan(rows[1].bound)
    # row k searched with seed config.seed + k, the failed row too
    assert [row.seed for row in rows] == [13, 14]
    # an unknown family is refused before any row
    with pytest.raises(ValueError, match="^unknown probe family 'harmonic'$"):
        w.sweep_probe_size("harmonic", [1.0], config)


def test_oscillator_sweep_computes_every_size_up_to_the_cutoff_limit():
    config = w.OptimizerConfig(restarts=1, max_iters=3, seed=13)
    rows = w.sweep_probe_size("oscillator", [0.01, 0.1, 1.0], config)
    for row in rows:
        assert row.error == ""
        assert np.isfinite(row.achieved)
        assert row.achieved >= row.bound - 1e-9
        assert row.bound == 1.0 / (4.0 + 16.0 * row.var_mz)


def test_soundness_guard_never_trips_on_valid_problems():
    # the inequality is a theorem; a violation raises and would fail here
    rng = np.random.default_rng(RNG_SEED)
    sx, _, sz = w.spin_operators()
    for d in (2, 3):
        l2, m, xi = w.spin_ladder_probe(d)
        pair = w.ConservationPair(L1=sz, L2=l2)
        w.optimize_noise(sx, pair, m, xi, w.named_state("alpha_y"),
                         w.OptimizerConfig(restarts=2, max_iters=40,
                                           seed=int(rng.integers(1000))))


def test_optimize_xi_moves_the_probe_state():
    # a moving probe state is the case a stale per-model cache would expose
    sx, _, sz = w.spin_operators()
    l2, m, _ = w.spin_ladder_probe(3)
    # the ladder's own sine profile does not move under the descent (its xi
    # gradient stays ~0), so start from an asymmetric state
    raw = np.array([1.0, 0.5j, 0.25])
    xi0 = w.Ket(raw / np.linalg.norm(raw))
    pair = w.ConservationPair(L1=sz, L2=l2)
    psi = w.named_state("alpha_y")
    config = w.OptimizerConfig(restarts=1, max_iters=4, seed=3, optimize_xi=True)
    run = w.optimize_noise(sx, pair, m, xi0, psi, config)
    xi = run.result_model.xi
    assert isinstance(xi, w.Ket)
    assert w.frobenius_norm(xi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(xi.amplitudes - xi0.amplitudes) > 1e-6
    assert run.final_objective == pytest.approx(w.noise(run.result_model, psi) ** 2,
                                                abs=1e-12)
    assert run.final_objective >= w.yanase_bound(run.result_model, pair, psi) - 1e-9
    again = w.optimize_noise(sx, pair, m, xi0, psi, config)
    assert again.objective_trace == run.objective_trace
    assert again.theta.tobytes() == run.theta.tobytes()
    assert again.result_model.xi.amplitudes.tobytes() == xi.amplitudes.tobytes()
    assert again.result_model.U.matrix.tobytes() == run.result_model.U.matrix.tobytes()


def _gradient_problems():
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(3)
    yield sx, w.ConservationPair(L1=sz, L2=l2), m, xi
    l2, m, xi = w.oscillator_probe(2, w.CoherentAmplitudes(0.02, 0.01j))
    yield sx, w.ConservationPair(L1=sz, L2=l2), m, xi


@pytest.mark.parametrize("optimize_xi", [False, True])
@pytest.mark.parametrize("objective", ["state", "sup"])
def test_analytic_gradient_matches_central_differences(objective, optimize_xi):
    psi = w.named_state("alpha_y")
    for a, pair, m, xi in _gradient_problems():
        config = w.OptimizerConfig(restarts=1, seed=RNG_SEED, objective=objective,
                                   optimize_xi=optimize_xi)
        problem = _Problem(a, pair, m, xi, psi, config)
        for restart in (1, 2, 3):
            x = problem.initial_point(restart)
            f, model = problem.evaluate(x)
            if objective == "sup":
                # Hellmann-Feynman needs a simple top eigenvalue
                top = np.linalg.eigvalsh(model.reduced.w.conj().T @ model.reduced.w)
                assert top[-1] - top[-2] > 1e-3
            g = problem.gradient(x, model)
            oracle = w.numerical_gradient(_objective(problem), x, 1e-5)
            assert g.shape == (problem.n_params,)
            assert np.linalg.norm(g - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_sup_gradient_at_a_double_top_eigenvalue():
    # at the identity interaction W^dag W = 1/2 I. Central differences then
    # give the mean over the top eigenspace, and so must the analytic
    # gradient: for the two-level ladder the xi block of a single top
    # eigenvector depends on which one eigh returns.
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(2)
    problem = _Problem(sx, w.ConservationPair(L1=sz, L2=l2), m, xi,
                       w.named_state("alpha_y"),
                       w.OptimizerConfig(restarts=1, objective="sup", optimize_xi=True))
    x = problem.initial_point(0)
    f, model = problem.evaluate(x)
    np.testing.assert_allclose(np.linalg.eigvalsh(model.reduced.w.conj().T @ model.reduced.w),
                               [0.5, 0.5], atol=1e-12)
    g = problem.gradient(x, model)
    # the xi block of the difference quotient converges only linearly in the
    # step here, so the step is small
    oracle = w.numerical_gradient(_objective(problem), x, 1e-7)
    assert np.linalg.norm(oracle) > 0.1
    assert np.linalg.norm(g - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_split_refuses_collapsed_probe_parameters():
    # the probe state is raw / ||raw||; raw parameters at zero have no direction
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(2)
    problem = _Problem(sx, w.ConservationPair(L1=sz, L2=l2), m, xi, w.named_state("alpha_y"),
                       w.OptimizerConfig(restarts=1, optimize_xi=True))
    x = problem.initial_point(0)
    x[problem.n_theta:] = 0.0
    with pytest.raises(ArithmeticError, match="^probe-state parameters collapsed to zero$"):
        problem.split(x)


def test_xi_gradient_at_the_ladder_sine_state_matches_the_oracle():
    # from the sine profile at the identity interaction the objective does
    # not depend on xi; away from it the xi block is large
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(3)
    pair = w.ConservationPair(L1=sz, L2=l2)
    problem = _Problem(sx, pair, m, xi, w.named_state("alpha_y"),
                       w.OptimizerConfig(restarts=1, optimize_xi=True))
    rng = np.random.default_rng(RNG_SEED)
    for scale in (0.0, 1.0):
        x = problem.initial_point(0)
        x[:problem.n_theta] = scale * rng.uniform(-1.0, 1.0, problem.n_theta)
        g = problem.gradient(x, problem.evaluate(x)[1])[problem.n_theta:]
        oracle = w.numerical_gradient(_objective(problem), x, 1e-5)[problem.n_theta:]
        assert np.linalg.norm(g - oracle) <= 1e-9 + 1e-6 * np.linalg.norm(oracle)
        if scale:
            assert np.linalg.norm(oracle) > 0.1


def test_oscillator_probe_at_the_largest_cutoff():
    # |alpha|^2 + |beta|^2 = 1: the oscillator sweep's size 1, whose derived
    # cutoff is this limit
    sx, _, sz = w.spin_operators()
    half = np.sqrt(0.5)
    l2, m, xi = w.oscillator_probe(8, w.CoherentAmplitudes(half, 1j * half))
    assert l2.dim == 81
    pair = w.ConservationPair(L1=sz, L2=l2)
    psi = w.named_state("alpha_y")
    # the soundness check runs on every accepted iterate and raises on a violation
    run = w.optimize_noise(sx, pair, m, xi, psi,
                           w.OptimizerConfig(restarts=1, max_iters=5, seed=RNG_SEED))
    assert len(run.objective_trace) > 1
    assert run.final_objective >= run.bound_value - 1e-9
    assert w.acl_residual(run.result_model, pair) < 1e-9
    with pytest.raises(ValueError, match="n_max <= 8"):
        w.oscillator_probe(9, w.CoherentAmplitudes(half, half))


def _ladder_problem(levels=3):
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(levels)
    return sx, w.ConservationPair(L1=sz, L2=l2), m, xi, w.named_state("alpha_y")


def _oscillator_problem():
    # the oscillator-optimize benchmark's shape: n_max = 5, D = 72, 32 sectors
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.oscillator_probe(5, w.CoherentAmplitudes(0.15, 0.12j))
    return sx, w.ConservationPair(L1=sz, L2=l2), m, xi, w.named_state("alpha_y")


def test_one_iteration_builds_each_point_once(monkeypatch):
    # the benchmark's shape: bench/run.py infers line-search evaluations from
    # the direct conservative_unitary calls (initial objective, soundness
    # checks, line search, final model), so each must still happen; the
    # bounds are compiled once, for the one probe state
    import waylimit.bounds as bounds
    import waylimit.optimizer as opt

    thetas, models, checks, compiles = [], [], [], []
    real_unitary, real_model, real_check = (opt.conservative_unitary, opt.MeasurementModel,
                                            w.Operator.unitary)
    real_terms = bounds.BoundTerms

    def counted_unitary(basis, theta):
        thetas.append(np.asarray(theta, dtype=float).tobytes())
        return real_unitary(basis, theta)

    def counted_model(*args):
        models.append(args)
        return real_model(*args)

    def counted_check(matrix):
        checks.append(1)
        return real_check(matrix)

    def counted_terms(*args):
        compiles.append(1)
        return real_terms(*args)

    monkeypatch.setattr(opt, "conservative_unitary", counted_unitary)
    monkeypatch.setattr(opt, "MeasurementModel", counted_model)
    monkeypatch.setattr(w.Operator, "unitary", staticmethod(counted_check))
    monkeypatch.setattr(bounds, "BoundTerms", counted_terms)
    for problem in (_ladder_problem, _oscillator_problem):
        a, pair, m, xi, psi = problem()
        for spy in (thetas, models, checks, compiles):
            spy.clear()
        run = w.optimize_noise(a, pair, m, xi, psi,
                               w.OptimizerConfig(restarts=1, max_iters=1, seed=11))
        assert len(run.objective_trace) == 2
        assert len(thetas) == 5
        assert len(models) == 2
        assert len(checks) == len(set(thetas)) == 2
        assert len(compiles) == 1


LADDER_CONFIGS = [
    w.OptimizerConfig(restarts=3, max_iters=20, seed=4),
    w.OptimizerConfig(restarts=2, max_iters=10, seed=6, objective="sup", optimize_xi=True),
]


@pytest.mark.parametrize("config", LADDER_CONFIGS)
def test_floor_is_one_yanase_bound_per_probe_state(monkeypatch, config):
    # the floor does not depend on U: it is computed once per probe state and
    # is the bits that yanase_bound gives on the result model
    import waylimit.optimizer as opt

    computed, checked = [], []
    real_bound, real_check = opt.yanase_bound, _Problem.check_soundness

    def counted_bound(model, pair, psi):
        computed.append(model.xi.amplitudes.tobytes())
        return real_bound(model, pair, psi)

    def counted_check(self, x):
        checked.append(self.model_at(x).xi.amplitudes.tobytes())
        return real_check(self, x)

    monkeypatch.setattr(opt, "yanase_bound", counted_bound)
    monkeypatch.setattr(_Problem, "check_soundness", counted_check)
    a, pair, m, xi, psi = _ladder_problem()
    run = w.optimize_noise(a, pair, m, xi, psi, config)
    assert run.bound_value == w.yanase_bound(run.result_model, pair, psi)
    states = set(checked) | {run.result_model.xi.amplitudes.tobytes()}
    assert len(computed) == len(set(computed)) == len(states)
    assert set(computed) == states
    if not config.optimize_xi:
        assert computed == [xi.amplitudes.tobytes()]


def test_soundness_alarm_stays_on_every_accepted_iterate(monkeypatch):
    # the floor is kept, the comparison is not: an accepted iterate whose
    # noise reads 0 still raises
    import waylimit.optimizer as opt

    calls = []
    real_noise = opt.noise

    def noise_zero_on_the_accepted_step(model, psi):
        calls.append(1)
        # initial objective, initial soundness check, one line-search point;
        # then the soundness check of the accepted step
        return real_noise(model, psi) if len(calls) <= 3 else 0.0

    monkeypatch.setattr(opt, "noise", noise_zero_on_the_accepted_step)
    a, pair, m, xi, psi = _ladder_problem()
    with pytest.raises(w.TheoremViolation, match="accepted iterate has squared noise 0 below"):
        w.optimize_noise(a, pair, m, xi, psi, w.OptimizerConfig(restarts=1, max_iters=1, seed=11))
    assert len(calls) == 4


def test_conservative_unitary_keeps_the_last_theta():
    basis = w.commutant_basis(_two_qubit_total_sz())
    theta = np.linspace(-1.0, 1.0, basis.size)
    first = w.conservative_unitary(basis, theta)
    assert first.has("unitary")
    assert w.conservative_unitary(basis, theta.copy()) is first
    other = w.conservative_unitary(basis, theta + 0.25)
    assert other is not first
    assert not np.array_equal(other.matrix, first.matrix)


@pytest.mark.parametrize("config", LADDER_CONFIGS)
def test_result_model_unitary_matches_a_fresh_build(config):
    a, pair, m, xi, psi = _ladder_problem()
    run = w.optimize_noise(a, pair, m, xi, psi, config)
    # theta are coordinates in the pair's basis, V1 x V2 sorted
    fresh = w.conservative_unitary(w.commutant_basis(pair), run.theta)
    assert run.result_model.U.matrix.tobytes() == fresh.matrix.tobytes()


def test_sector_generators_table_is_shared_and_read_only():
    from waylimit.optimizer import _sector_generators

    for d in range(1, 7):
        table = _sector_generators(d)
        assert _sector_generators(d) is table
        with pytest.raises(ValueError):
            table[0, 0, 0] = 2.0
        # the order the basis documents: |i><i|, then for each j > i the
        # symmetric and the antisymmetric pair
        expected = []
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, i] = 1.0
            expected.append(e)
            for j in range(i + 1, d):
                s, t = np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex)
                s[i, j] = s[j, i] = 1.0 / np.sqrt(2.0)
                t[i, j], t[j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
                expected += [s, t]
        assert table.tobytes() == np.array(expected).tobytes()
