"""Truncated two-mode probe: coherent states and the conserved angular momentum."""

import math

import numpy as np
import pytest

import waylimit as w

RNG_SEED = 31415


def test_coherent_vacuum():
    ket = w.coherent_state(0.0, 4)
    np.testing.assert_allclose(ket.amplitudes, [1, 0, 0, 0, 0], atol=1e-15)


def test_coherent_mean_occupation():
    n = w.number_operator(41)
    for amp in (0.5, 1.0, 2.0, 1.3 - 0.7j):
        ket = w.coherent_state(amp, 40)
        assert w.expectation(n, ket) == pytest.approx(abs(amp) ** 2, abs=1e-8)


def test_coherent_occupation_variance():
    # oracle: direct truncated-series moments, independent of the operator layer
    amp = 1.7
    n_max = 40
    weights = np.array([amp ** n / math.sqrt(math.factorial(n))
                        for n in range(n_max + 1)])
    weights *= np.exp(-0.5 * amp ** 2)
    weights /= np.linalg.norm(weights)
    ns = np.arange(n_max + 1)
    mean = float(np.sum(ns * weights ** 2))
    second = float(np.sum(ns ** 2 * weights ** 2))
    oracle = second - mean ** 2
    assert oracle == pytest.approx(amp ** 2, abs=1e-7)

    ket = w.coherent_state(amp, n_max)
    n = w.number_operator(n_max + 1)
    assert w.variance(n, ket) == pytest.approx(oracle, abs=1e-10)


def test_coherent_cutoff_guard():
    # the tail check is the only cutoff criterion
    with pytest.raises(ValueError, match="truncated tail mass"):
        w.coherent_state(2.0, 10)
    with pytest.raises(ValueError, match="truncated tail mass"):
        w.coherent_state(2.0, 16)  # tail mass ~1e-6


def test_coherent_state_refuses_a_negative_cutoff():
    with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
        w.coherent_state(0.1, -1)
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        w.FockSpace(-1)


def test_ladder_commutator_on_interior():
    levels = 12
    a = w.lowering_operator(levels).matrix
    comm = a @ a.conj().T - a.conj().T @ a
    np.testing.assert_allclose(comm[:levels - 1, :levels - 1],
                               np.eye(levels - 1), atol=1e-12)


def test_m_z_is_hermitian_and_conserves_total_number():
    space = w.FockSpace(6)
    mz = w.m_z_operator(space)
    assert w.frobenius_norm(mz.matrix - mz.matrix.conj().T) < 1e-12
    total = w.total_number_operator(space)
    assert w.frobenius_norm(w.commutator(mz, total).matrix) < 1e-10


def test_m_z_vacuum_mean():
    space = w.FockSpace(5)
    vac = w.two_mode_coherent_state(w.CoherentAmplitudes(0.0, 0.0), space)
    assert w.expectation(w.m_z_operator(space), vac) == pytest.approx(0.0, abs=1e-14)


def test_m_z_variance_law():
    space = w.FockSpace(40)
    mz = w.m_z_operator(space)
    rng = np.random.default_rng(RNG_SEED)
    for mag_a, mag_b in ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
        phase_a, phase_b = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        amps = w.CoherentAmplitudes(mag_a * phase_a, mag_b * phase_b)
        ket = w.two_mode_coherent_state(amps, space)
        assert w.variance(mz, ket) == pytest.approx(amps.magnitude_sq, abs=1e-6)


def test_m_z_mean_sign_convention():
    # oracle fixed by the normal-ordered computation for the convention
    # i (a_x a_y^dag - a_x^dag a_y): the mean is +2 Im(conj(alpha) beta)
    space = w.FockSpace(30)
    mz = w.m_z_operator(space)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(4):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ket = w.two_mode_coherent_state(w.CoherentAmplitudes(alpha, beta), space)
        expected = 2.0 * np.imag(np.conj(alpha) * beta)
        assert w.expectation(mz, ket) == pytest.approx(expected, abs=1e-6)


def test_variance_law_error_shrinks_with_cutoff():
    # one displaced mode; n_max = 20 is the smallest cutoff its tail check
    # accepts, where the truncation error is still visible
    amps = w.CoherentAmplitudes(2.0, 0.0)
    errors = []
    for n_max in (20, 28, 40):
        space = w.FockSpace(n_max)
        ket = w.two_mode_coherent_state(amps, space)
        var = w.variance(w.m_z_operator(space), ket)
        errors.append(abs(var - amps.magnitude_sq))
    assert errors[0] >= errors[1] >= errors[2] - 1e-15
    assert errors[-1] < 1e-6


def test_oscillator_bound_values():
    assert w.oscillator_bound(w.CoherentAmplitudes(0.0, 0.0)) == 0.25
    assert w.oscillator_bound(w.CoherentAmplitudes(1.0, 1.0)) == pytest.approx(1 / 36, abs=1e-15)
    big = w.oscillator_bound(w.CoherentAmplitudes(100.0, 100.0))
    assert big == pytest.approx(1.0 / 320004.0, abs=1e-18)


def test_oscillator_bound_matches_spin_form_exactly():
    for mag_sq in (0.0, 0.3, 2.0, 1e4):
        amps = w.CoherentAmplitudes(np.sqrt(mag_sq / 2), 1j * np.sqrt(mag_sq / 2))
        assert w.oscillator_bound(amps) == w.optimal_spin_bound(amps.magnitude_sq)


def test_oscillator_bound_refuses_a_nan_amplitude():
    # |alpha|^2 + |beta|^2 is NaN, refused as a negative variance is, not a NaN floor
    with pytest.raises(ValueError, match="^variance must be nonnegative, got nan$"):
        w.oscillator_bound(w.CoherentAmplitudes(complex(math.nan, 0.0), 0.0))


def test_two_mode_combined_guard():
    # each mode's tail check refuses it; there is no separate joint guard
    with pytest.raises(ValueError, match="truncated tail mass"):
        w.two_mode_coherent_state(w.CoherentAmplitudes(1.2, 1.2), w.FockSpace(10))


def _amplitude_grid():
    rng = np.random.default_rng(RNG_SEED)
    # per-mode |amp|^2 up to 0.49, so every cutoff stays within the limit of 8
    for mag_a in (0.0, 0.05, 0.2, 0.45, 0.6, 0.7):
        for mag_b in (0.0, 0.1, 0.35, 0.5):
            phase_a, phase_b = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            yield w.CoherentAmplitudes(mag_a, mag_b)
            yield w.CoherentAmplitudes(mag_a * phase_a, mag_b * phase_b)


def test_fock_cutoff_is_the_smallest_that_passes_the_tail_check():
    cutoffs = set()
    for amps in _amplitude_grid():
        n = w.fock_cutoff(amps)
        cutoffs.add(n)
        ket = w.two_mode_coherent_state(amps, w.FockSpace(n))
        assert ket.dim == (n + 1) ** 2
        if n > 0:
            with pytest.raises(ValueError, match="truncated tail mass"):
                w.two_mode_coherent_state(amps, w.FockSpace(n - 1))
    assert min(cutoffs) == 0 and max(cutoffs) == 8


def test_fock_cutoff_of_the_sweep_sizes():
    # a sweep size v is |alpha|^2 = |beta|^2 = v / 2
    def cutoff(size):
        half = np.sqrt(size / 2.0)
        return w.fock_cutoff(w.CoherentAmplitudes(half, half))

    assert [cutoff(v) for v in (0.0, 0.005, 0.01, 0.1, 0.5, 1.0)] == [0, 2, 3, 4, 6, 8]
    # the tail rule holds at any size; only the full interactions are limited
    assert [cutoff(v) for v in (2.0, 2000.0)] == [11, 1182]
    amps = w.CoherentAmplitudes(1.0, 1.0)  # size 2
    with pytest.raises(ValueError) as refusal:
        w.oscillator_probe(w.fock_cutoff(amps), amps)
    assert str(refusal.value) == ("|alpha|^2 + |beta|^2 = 2 needs n_max = 11; "
                                  "full oscillator interactions are limited to n_max <= 8")
    # weights that underflow can meet no cutoff, and the rule says so and stops
    for size in (2965.0, 1e4):
        with pytest.raises(ValueError, match="no cutoff holds"):
            cutoff(size)
