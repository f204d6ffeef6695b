"""Indirect measurement model: outcome statistics, noise, worst case."""

import numpy as np
import pytest

import waylimit as w
from waylimit.outcomes import _levels
from helpers import CNOT_Z_CONTROL_X_FLIP, SWAP_MATRIX, random_conservative_model

RNG_SEED = 515


def _swap_model():
    model, _ = w.swap_demo_model()
    return model


def test_heisenberg_probe_identity_evolution():
    model, _ = w.trivial_demo_model()
    sx, _, _ = w.spin_operators()
    model = w.MeasurementModel(2, 2, model.xi, model.U, sx, model.A)
    expected = w.tensor(w.identity(2), sx).matrix
    np.testing.assert_allclose(w.heisenberg_probe(model).matrix, expected, atol=1e-15)


def test_heisenberg_probe_swap_conjugation():
    # oracle: explicit 4x4 conjugation with the hand-built SWAP
    sx, _, _ = w.spin_operators()
    expected = SWAP_MATRIX.conj().T @ np.kron(np.eye(2), sx.matrix) @ SWAP_MATRIX
    np.testing.assert_allclose(expected, np.kron(sx.matrix, np.eye(2)), atol=1e-15)
    got = w.heisenberg_probe(_swap_model())
    np.testing.assert_allclose(got.matrix, expected, atol=1e-15)


def test_heisenberg_probe_cnot_gives_precise_z_readout():
    _, _, sz = w.spin_operators()
    expected = CNOT_Z_CONTROL_X_FLIP.conj().T \
        @ np.kron(np.eye(2), sz.matrix) @ CNOT_Z_CONTROL_X_FLIP
    model = w.MeasurementModel(
        2, 2, w.named_state("alpha_z"), w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP), sz, sz)
    np.testing.assert_allclose(w.heisenberg_probe(model).matrix, expected, atol=1e-15)
    # the readout reproduces the z statistics of any input state
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        assert w.bsf_deviation(model, w.random_ket(2, rng)) < 1e-10


def test_outcome_distribution_swap_eigenstate():
    # oracle: for U = SWAP the outcome statistics are the x statistics of psi
    dist = w.outcome_distribution(_swap_model(), w.named_state("alpha_x"))
    assert len(dist.outcomes) == 2
    assert dist.probability_near(0.5) == pytest.approx(1.0, abs=1e-12)
    assert dist.probability_near(-0.5) == pytest.approx(0.0, abs=1e-12)


def test_outcome_distribution_swap_superposition():
    psi = w.named_state("alpha_y")
    up = w.named_state("alpha_x").amplitudes
    down = w.named_state("beta_x").amplitudes
    p_up = abs(np.vdot(up, psi.amplitudes)) ** 2
    p_down = abs(np.vdot(down, psi.amplitudes)) ** 2
    dist = w.outcome_distribution(_swap_model(), psi)
    assert dist.probability_near(0.5) == pytest.approx(p_up, abs=1e-12)
    assert dist.probability_near(-0.5) == pytest.approx(p_down, abs=1e-12)
    assert p_up == pytest.approx(0.5, abs=1e-12)


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        model, _ = random_conservative_model(rng)
        dist = w.outcome_distribution(model, w.random_ket(model.object_dim, rng))
        assert sum(p for _, p in dist.outcomes) == pytest.approx(1.0, abs=1e-9)


def test_outcome_interval_probability():
    dist = w.outcome_distribution(_swap_model(), w.named_state("alpha_y"))
    assert dist.probability_in_interval(-1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert dist.probability_in_interval(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert dist.probability_in_interval(0.6, 1.0) == 0.0
    with pytest.raises(ValueError):
        dist.probability_in_interval(1.0, 0.0)


def _observable(values, rng):
    """(operator, {level: projector}) for a hermitian matrix with the given
    eigenvalues in a random basis; the projectors come from the basis, not
    from an eigensolver."""
    basis = w.random_unitary(len(values), rng).matrix
    projectors = {}
    for k, value in enumerate(values):
        col = basis[:, k:k + 1]
        projectors[value] = projectors.get(value, 0.0) + col @ col.conj().T
    return w.Operator.hermitian((basis * values) @ basis.conj().T), projectors


def _oracle_levels(projectors, v, tol=1e-9):
    """(value, probability) per level, merging values within tol: a merged level
    is valued at the rank-weighted mean of its values; p = ||P v||^2."""
    groups = []
    for value in sorted(projectors):
        if groups and value - groups[-1][-1] <= tol:
            groups[-1].append(value)
        else:
            groups.append([value])
    levels = []
    for group in groups:
        p = sum(projectors[value] for value in group)
        ranks = [np.trace(projectors[value]).real for value in group]
        mean = sum(r * value for r, value in zip(ranks, group)) / sum(ranks)
        levels.append((mean, float(np.linalg.norm(p @ v) ** 2)))
    return levels


def test_outcome_statistics_match_projector_oracle_up_to_dim_64():
    # oracle: with M = sum_k m_k Q_k and A = sum_j a_j R_j, the outcome m_k has
    # probability ||U^dag (I x Q_k) U (psi x xi)||^2 and the Born weight of a_j
    # is ||R_j psi||^2. Both spectra hold a pair closer than EQUALITY_TOL,
    # which must come out as one level, and M has levels A lacks.
    rng = np.random.default_rng(RNG_SEED)
    for od, pd in ((2, 2), (2, 5), (3, 4), (4, 8), (2, 32), (4, 16)):
        model, _ = random_conservative_model(rng, object_dim=od, probe_dim=pd)
        m_values = list(rng.choice([-0.5, 0.5, 1.5, 0.5 + 4e-10], size=pd - 2)) + [-0.5, 0.5]
        a_values = list(rng.choice([-0.5, 0.5, -0.5 + 4e-10], size=od - 2)) + [-0.5, 0.5]
        m, m_proj = _observable(m_values, rng)
        a, a_proj = _observable(a_values, rng)
        model = w.MeasurementModel(od, pd, model.xi, model.U, m, a)
        u = model.U.matrix
        lifted = {value: u.conj().T @ np.kron(np.eye(od), q) @ u for value, q in m_proj.items()}
        for _ in range(3):
            psi = w.random_ket(od, rng)
            v = np.kron(psi.amplitudes, model.xi.amplitudes)
            expected = _oracle_levels(lifted, v)
            got = w.outcome_distribution(model, psi).outcomes
            assert len(got) == len(expected)
            for (value, p), (want_value, want_p) in zip(got, expected):
                assert value == pytest.approx(want_value, abs=1e-12)
                assert p == pytest.approx(want_p, abs=1e-12)
            born = _oracle_levels(a_proj, psi.amplitudes)
            deviation = max(abs(sum(p for value, p in expected if abs(value - b) <= 1e-9) - q)
                            for b, q in born)
            stray = sum(p for value, p in expected
                        if all(abs(value - b) > 1e-9 for b, _ in born))
            assert w.bsf_deviation(model, psi) == pytest.approx(max(deviation, stray), abs=1e-12)


def test_outcome_statistics_read_the_reduced_form(monkeypatch):
    # M's levels in Y psi: no Heisenberg operator and no D x D eigh or array
    rng = np.random.default_rng(RNG_SEED + 3)
    model, _ = random_conservative_model(rng, object_dim=3, probe_dim=4)
    psi = w.random_ket(3, rng)
    before = (w.outcome_distribution(model, psi).outcomes, w.bsf_deviation(model, psi))
    # new M and A: model's own keep the decompositions the calls above made
    fresh = w.MeasurementModel(3, 4, model.xi, model.U, w.Operator.hermitian(model.M.matrix),
                               w.Operator.hermitian(model.A.matrix))

    def refuse(model):
        raise AssertionError("heisenberg_probe called")

    shapes = []
    eigh, kron = np.linalg.eigh, np.kron
    monkeypatch.setattr(w.measurement, "heisenberg_probe", refuse)
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (shapes.append(x.shape), eigh(x))[1])
    monkeypatch.setattr(np, "kron", lambda a, b: (shapes.append(kron(a, b).shape),
                                                  kron(a, b))[1])
    assert (w.outcome_distribution(fresh, psi).outcomes, w.bsf_deviation(fresh, psi)) == before
    assert shapes and all(max(shape) < 12 for shape in shapes)


def test_outcome_statistics_decompose_m_and_a_once(monkeypatch):
    # every call reads the decomposition M or A keeps; fresh operators, as
    # spin_operators() may already keep theirs
    demo, _ = w.swap_demo_model()
    m, a = (w.Operator.hermitian(op.matrix) for op in (demo.M, demo.A))
    model = w.MeasurementModel(2, 2, demo.xi, demo.U, m, a)
    psi = w.named_state("alpha_y")
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (calls.append(x), eigh(x))[1])
    for _ in range(2):
        w.outcome_distribution(model, psi)
        w.bsf_deviation(model, psi)
        w.error_probability(model, psi)
    assert len(calls) == 2
    assert calls[0] is m.matrix and calls[1] is a.matrix
    # a yw_model's record-spectrum check leaves the decomposition on its M
    calls.clear()
    yw = w.yw_sample_model()
    assert len(calls) == 1 and calls[0] is yw.M.matrix
    assert yw.M.eigh[0][0] == -0.5 and len(calls) == 1


def test_levels_refuses_a_weight_beyond_the_clamp():
    # a weight may pass 1 by rounding only; a column set heavier than that is
    # refused, and one within ROUNDING_TOL is clamped to 1
    x = w.Operator.hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(ArithmeticError,
                       match="^outcome probability 1.125 outside clamp tolerance$"):
        _levels(x, np.array([[0.75, 0.75], [0.0, 0.0]]))
    assert _levels(x, np.array([[1.0 + 2.0 ** -45, 0.0]]).T) == ((0.0, 1.0), (1.0, 0.0))


def test_outcome_distribution_merges_a_level_pair_closer_than_equality_tol():
    # record values 0.3 and 0.3 + 4e-10 are one outcome, valued at their mean
    _, _, sz = w.spin_operators()
    m = w.Operator.hermitian(np.diag([0.3, 0.3 + 4e-10, 2.0]))
    model = w.MeasurementModel(2, 3, w.Ket([0.6, 0.8, 0.0]), w.identity(6), m, sz)
    dist = w.outcome_distribution(model, w.named_state("alpha_x"))
    assert len(dist.outcomes) == 2
    assert dist.outcomes[0][0] == pytest.approx(0.3 + 2e-10, abs=1e-15)
    assert dist.outcomes[0][1] == pytest.approx(1.0, abs=1e-12)
    assert dist.outcomes[1] == (2.0, 0.0)


def test_outcome_distribution_refuses_a_level_chain_it_cannot_rebuild():
    # gaps of 0.9e-9 chain ten values near 1 into one level whose mean misses
    # the ends by 4e-9, so the merged spectrum does not rebuild the record
    _, _, sz = w.spin_operators()
    m = w.Operator.hermitian(np.diag(1.0 + 0.9e-9 * np.arange(10)))
    xi = w.Ket(np.eye(10)[0])
    model = w.MeasurementModel(2, 10, xi, w.identity(20), m, sz)
    with pytest.raises(ArithmeticError, match="spectral reconstruction residual"):
        w.outcome_distribution(model, w.named_state("alpha_z"))


def test_outcome_distribution_spin_z_levels():
    # oracle: the CNOT readout of S_z has the levels -1/2 < +1/2 with the z
    # statistics of psi; a z eigenstate puts all its weight on one level
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(
        2, 2, w.named_state("alpha_z"), w.Operator.unitary(CNOT_Z_CONTROL_X_FLIP), sz, sz)
    assert w.outcome_distribution(model, w.named_state("alpha_z")).outcomes == ((-0.5, 0.0), (0.5, 1.0))
    assert w.outcome_distribution(model, w.named_state("beta_z")).outcomes == ((-0.5, 1.0), (0.5, 0.0))


def test_outcome_distribution_merges_degenerate_identity():
    # a record M = I has one level, 1, of probability 1
    trivial, _ = w.trivial_demo_model()
    model = w.MeasurementModel(2, 2, trivial.xi, trivial.U, w.identity(2), trivial.A)
    (value, p), = w.outcome_distribution(model, w.named_state("alpha_y")).outcomes
    assert value == 1.0
    assert p == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_composite_spin_x():
    # oracle: the swap model propagates its record to S_x x I, whose doubly
    # degenerate levels have the rank-2 projectors P(+-) = |x,+-><x,+-| x I
    up = w.named_state("alpha_x").amplitudes
    down = w.named_state("beta_x").amplitudes
    p_plus = np.kron(np.outer(up, up.conj()), np.eye(2))
    p_minus = np.kron(np.outer(down, down.conj()), np.eye(2))
    model = _swap_model()
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        psi = w.random_ket(2, rng)
        v = np.kron(psi.amplitudes, model.xi.amplitudes)
        dist = w.outcome_distribution(model, psi)
        assert [value for value, _ in dist.outcomes] == pytest.approx([-0.5, 0.5], abs=1e-12)
        assert dist.outcomes[0][1] == pytest.approx(np.linalg.norm(p_minus @ v) ** 2, abs=1e-12)
        assert dist.outcomes[1][1] == pytest.approx(np.linalg.norm(p_plus @ v) ** 2, abs=1e-12)


def test_outcome_statistics_need_hermitian_tagged_observables():
    # the statistics read M and A as plain arrays; the model checks their tags
    sx, _, _ = w.spin_operators()
    plain = w.Operator(sx.matrix)
    for m, a in ((plain, sx), (sx, plain)):
        with pytest.raises(w.StructureError, match="must carry the hermitian tag"):
            w.MeasurementModel(2, 2, w.named_state("alpha_x"), w.identity(4), m, a)


def test_outcome_distribution_phase_invariance():
    rng = np.random.default_rng(RNG_SEED)
    model, _ = random_conservative_model(rng)
    psi = w.random_ket(model.object_dim, rng)
    rotated = w.Ket(np.exp(0.71j) * psi.amplitudes)
    base = w.outcome_distribution(model, psi)
    shifted = w.outcome_distribution(model, rotated)
    for (v1, p1), (v2, p2) in zip(base.outcomes, shifted.outcomes):
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)
    xi_rotated = w.Ket(np.exp(-1.3j) * model.xi.amplitudes)
    remodel = w.MeasurementModel(model.object_dim, model.probe_dim,
                                 xi_rotated, model.U, model.M, model.A)
    for (v1, p1), (v2, p2) in zip(base.outcomes,
                                  w.outcome_distribution(remodel, psi).outcomes):
        assert p1 == pytest.approx(p2, abs=1e-12)


def test_bsf_deviation_swap_is_zero():
    rng = np.random.default_rng(RNG_SEED)
    model = _swap_model()
    # and at A = M = 1e8 S_x, whose levels round by about 1e-8, and at
    # A = M = 1e-10 S_x, whose levels lie 1e-10 apart: each matches its own
    scaled = [w.MeasurementModel(2, 2, model.xi, model.U, op, op)
              for op in (w.Operator.hermitian(c * model.A.matrix) for c in (1e8, 1e-10))]
    for _ in range(25):
        psi = w.random_ket(2, rng)
        assert w.bsf_deviation(model, psi) < 1e-10
        for small in scaled:
            assert w.bsf_deviation(small, psi) < 1e-10


def test_outcome_statistics_keep_their_figures_in_any_units():
    # A and M scaled by c: values scale by c while the probabilities and the BSF
    # deviation, with its stray mass on M's 1.5, stay, as levels split and
    # outcomes match A at their own scale
    rng = np.random.default_rng(RNG_SEED + 5)
    model, _ = random_conservative_model(rng, object_dim=3, probe_dim=4)
    m, _ = _observable([-0.5, 0.5, 0.5, 1.5], rng)
    a, _ = _observable([-0.5, 0.5, 1.0], rng)
    psi = w.random_ket(3, rng)
    base = w.MeasurementModel(3, 4, model.xi, model.U, m, a)
    want = w.outcome_distribution(base, psi).outcomes
    deviation = w.bsf_deviation(base, psi)
    assert deviation > 0.01
    for c in (1e-13, 1e-10, 1e8):
        scaled = w.MeasurementModel(3, 4, model.xi, model.U,
                                    *(w.Operator.hermitian(c * op.matrix) for op in (m, a)))
        got = w.outcome_distribution(scaled, psi).outcomes
        assert len(got) == len(want)
        for (value, p), (want_value, want_p) in zip(got, want):
            assert value == pytest.approx(c * want_value, rel=1e-9)
            assert p == pytest.approx(want_p, abs=1e-12)
        assert w.bsf_deviation(scaled, psi) == pytest.approx(deviation, abs=1e-12)


def test_bsf_deviation_disjoint_spectra_is_one():
    # record values {5, 7} never meet spec(A) = {-1/2, 1/2}
    sx, _, _ = w.spin_operators()
    model = w.MeasurementModel(
        2, 2, w.named_state("alpha_z"), w.Operator.unitary(np.eye(4)),
        w.Operator.hermitian(np.diag([5.0, 7.0])), sx)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        assert w.bsf_deviation(model, w.random_ket(2, rng)) == pytest.approx(1.0, abs=1e-12)


def test_bsf_deviation_mismatched_eigenstates():
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(
        2, 2, w.named_state("alpha_z"), w.Operator.unitary(np.eye(4)), sz, sz)
    # probe sits at +1/2 while the object is at -1/2: both values off by 1
    assert w.bsf_deviation(model, w.named_state("beta_z")) == pytest.approx(1.0, abs=1e-12)
    # matching value: perfect
    assert w.bsf_deviation(model, w.named_state("alpha_z")) == pytest.approx(0.0, abs=1e-12)


def test_noise_operator_swap_vanishes():
    n = w.noise_operator(_swap_model())
    assert w.frobenius_norm(n.matrix) < 1e-14


def test_noise_operator_null_record():
    model, _ = w.trivial_demo_model()
    sx, _, _ = w.spin_operators()
    expected = -np.kron(sx.matrix, np.eye(2))
    np.testing.assert_allclose(w.noise_operator(model).matrix, expected, atol=1e-15)


def test_noise_operator_hermitian_on_random_models():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(5):
        model, _ = random_conservative_model(rng)
        n = w.noise_operator(model)
        assert n.has("hermitian")


def test_noise_values():
    rng = np.random.default_rng(RNG_SEED)
    swap = _swap_model()
    for _ in range(5):
        assert w.noise(swap, w.random_ket(2, rng)) < 1e-14
    trivial, _ = w.trivial_demo_model()
    assert w.noise(trivial, w.named_state("alpha_x")) == pytest.approx(0.5, abs=1e-12)


def test_noise_dominates_noise_operator_spread():
    # eps^2 - (Delta N)^2 = <N>^2 exactly
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        model, _ = random_conservative_model(rng)
        psi = w.random_ket(model.object_dim, rng)
        v = w.tensor(psi, model.xi)
        n = w.noise_operator(model)
        eps_sq = w.noise(model, psi) ** 2
        spread = w.variance(n, v)
        mean = w.expectation(n, v)
        assert eps_sq >= spread - 1e-12
        assert eps_sq - spread == pytest.approx(mean ** 2, abs=1e-10)


def test_sup_noise_values():
    assert w.sup_noise(_swap_model()) < 1e-14
    trivial, _ = w.trivial_demo_model()
    assert w.sup_noise(trivial) == pytest.approx(0.5, abs=1e-12)


def test_sup_noise_dominates_samples():
    # sampling envelope; it genuinely saturates only for two-level objects,
    # the exact check below is the eigenvalue computation itself
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(5):
        model, _ = random_conservative_model(rng, object_dim=2, probe_dim=3)
        sup = w.sup_noise(model)
        best = 0.0
        for _ in range(1000):
            best = max(best, w.noise(model, w.random_ket(model.object_dim, rng)))
        assert sup >= best - 1e-9
        assert sup <= best + 1e-2


def test_sup_noise_attained_by_top_eigenvector():
    rng = np.random.default_rng(RNG_SEED)
    for od, pd in ((2, 3), (3, 4), (4, 5)):
        model, _ = random_conservative_model(rng, object_dim=od, probe_dim=pd)
        sup = w.sup_noise(model)
        n = w.noise_operator(model).matrix
        n2 = (n @ n).reshape(model.object_dim, model.probe_dim,
                             model.object_dim, model.probe_dim)
        xi = model.xi.amplitudes
        b = np.einsum("p,ipjq,q->ij", xi.conj(), n2, xi)
        _, vecs = np.linalg.eigh(b)
        top = w.Ket(vecs[:, -1] / np.linalg.norm(vecs[:, -1]))
        assert w.noise(model, top) == pytest.approx(sup, abs=1e-9)
        for _ in range(50):
            assert w.noise(model, w.random_ket(od, rng)) <= sup + 1e-9


def test_error_probability_values():
    assert w.error_probability(_swap_model(), w.named_state("alpha_y")) < 1e-14
    trivial, _ = w.trivial_demo_model()
    assert w.error_probability(trivial, w.named_state("alpha_y")) == pytest.approx(0.25, abs=1e-12)


def test_error_probability_matches_dense_oracle():
    # oracle: ||(U^dag (I x M) U - A x I)(psi x xi)||^2 for A of spectrum
    # {-1/2, 1/2}, one end moved by less than EQUALITY_TOL
    rng = np.random.default_rng(RNG_SEED)
    for pd in (2, 5, 32):
        model, _ = random_conservative_model(rng, object_dim=2, probe_dim=pd)
        a, _ = _observable([-0.5, 0.5 + 5e-10], rng)
        model = w.MeasurementModel(2, pd, model.xi, model.U, model.M, a)
        u = model.U.matrix
        n = u.conj().T @ np.kron(np.eye(2), model.M.matrix) @ u - np.kron(a.matrix, np.eye(pd))
        for _ in range(3):
            psi = w.random_ket(2, rng)
            v = np.kron(psi.amplitudes, model.xi.amplitudes)
            assert w.error_probability(model, psi) == pytest.approx(
                np.linalg.norm(n @ v) ** 2, abs=1e-12)


def test_error_probability_requires_half_spectrum():
    trivial, _ = w.trivial_demo_model()
    three = w.MeasurementModel(3, 2, trivial.xi, w.Operator.unitary(np.eye(6)), trivial.M,
                               w.identity(3))
    with pytest.raises(w.PreconditionError, match="two-level objects only"):
        w.error_probability(three, w.Ket([1.0, 0.0, 0.0]))
    bad = w.MeasurementModel(2, 2, trivial.xi, trivial.U, trivial.M,
                             w.Operator.hermitian(np.diag([1.0, -1.0])))
    with pytest.raises(w.PreconditionError):
        w.error_probability(bad, w.named_state("alpha_y"))
    # 1/2 and 1/2 + 4e-10 are one level, so the spectrum has one value
    merged = w.MeasurementModel(2, 2, trivial.xi, trivial.U, trivial.M,
                                w.Operator.hermitian(np.diag([0.5, 0.5 + 4e-10])))
    with pytest.raises(w.PreconditionError, match="got \\(0.5000000002,\\)"):
        w.error_probability(merged, w.named_state("alpha_y"))


def test_error_probability_qubit_probe_floor():
    # oracle: the qubit's spin-z variance is at most 1/4, so the closed-form
    # floor is 1/(4 + 16/4) = 1/8 for every conservative Yanase-compliant
    # spin model whose probe conserved quantity is the qubit spin itself
    rng = np.random.default_rng(RNG_SEED)
    psi = w.named_state("alpha_y")
    for _ in range(50):
        model, pair = random_conservative_model(rng, object_dim=2, probe_dim=2,
                                                spin_scenario=True, probe_ladder=True)
        assert w.error_probability(model, psi) >= 0.125 - 1e-9


def test_noiseless_implies_precise_on_the_zero_noise_witness():
    model = _swap_model()
    assert w.sup_noise(model) < 1e-10
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        assert w.bsf_deviation(model, w.random_ket(2, rng)) < 1e-8


def test_model_validation_errors():
    sx, _, _ = w.spin_operators()
    with pytest.raises(w.DimensionMismatch):
        w.MeasurementModel(2, 2, w.named_state("alpha_x"),
                           w.Operator.unitary(np.eye(6)), sx, sx)
    with pytest.raises(w.StructureError):
        w.MeasurementModel(2, 2, w.named_state("alpha_x"),
                           w.Operator(np.eye(4)), sx, sx)


def test_outcome_distribution_refuses_invalid_probabilities():
    with pytest.raises(ValueError, match=r"^probability 1\.5 for outcome 0\.5 outside \[0, 1\]$"):
        w.OutcomeDistribution(((0.5, 1.5), (-0.5, -0.5)))
    with pytest.raises(ValueError, match="^probabilities sum to 0.90000000000000002, not 1$"):
        w.OutcomeDistribution(((0.5, 0.4), (-0.5, 0.5)))
