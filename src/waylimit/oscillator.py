"""Truncated two-mode oscillator probe: coherent states and the conserved
z angular momentum.

Only the two transverse modes enter the conserved quantity, so the third
mode of an isotropic oscillator is omitted; it would tensor a spectator
factor onto every quantity handled here. The angular momentum normalized to
hbar = 1 is i (a_x a_y^dag - a_x^dag a_y) in the fixed mode order x (x) y,
y index fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import optimal_spin_bound
from .linalg import TAIL_TOL, Ket, Operator, tensor

MAX_CUTOFF = 8  # largest n_max with full interactions (D = 162, 822 parameters)


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Two modes truncated at occupation n_max each."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")

    @property
    def per_mode_dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True, eq=False)
class CoherentAmplitudes:
    """Amplitudes of the x- and y-mode coherent states."""

    alpha: complex
    beta: complex

    @property
    def magnitude_sq(self) -> float:
        return abs(self.alpha) ** 2 + abs(self.beta) ** 2


def lowering_operator(levels: int) -> Operator:
    """Single-mode lowering operator on a ladder of the given length."""
    a = np.zeros((levels, levels), dtype=np.complex128)
    for n in range(1, levels):
        a[n - 1, n] = np.sqrt(n)
    return Operator(a)


def number_operator(levels: int) -> Operator:
    return Operator.hermitian(np.diag(np.arange(levels, dtype=float)))


def _fock_weights(amp: complex, n_max: int):
    """Fock weights 0..n_max of a coherent state and the mass they keep."""
    weights = np.empty(n_max + 1, dtype=np.complex128)
    weights[0] = np.exp(-0.5 * abs(amp) ** 2)
    for n in range(n_max):
        weights[n + 1] = weights[n] * amp / np.sqrt(n + 1.0)
    return weights, float(np.real(np.vdot(weights, weights)))


def fock_cutoff(amps: CoherentAmplitudes) -> int:
    """The smallest n_max at which coherent_state's tail check passes for
    both modes; refused above MAX_CUTOFF, naming the n_max needed. Weights come
    from _fock_weights up to a doubling cap; its recurrence runs in order, so
    each prefix's np.vdot has coherent_state's bits."""
    modes, n, cap = (amps.alpha, amps.beta), 0, MAX_CUTOFF
    weights = [_fock_weights(a, cap)[0] for a in modes]
    while short := [(w[n], kept) for w in weights
                    if 1.0 - (kept := float(np.real(np.vdot(w[:n + 1], w[:n + 1])))) >= TAIL_TOL]:
        # a zero weight, or one adding nothing to a kept mass > 0, lies past the Poisson peak
        if any(last == 0 or 0 < kept == kept + abs(last) ** 2 for last, kept in short):
            raise ValueError(f"no cutoff holds |alpha|^2 + |beta|^2 = {amps.magnitude_sq:.6g}")
        n += 1
        if n > cap:
            cap *= 2
            weights = [_fock_weights(a, cap)[0] for a in modes]
    if n > MAX_CUTOFF:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {amps.magnitude_sq:.6g} needs n_max = {n}; "
                         f"full oscillator interactions are limited to n_max <= {MAX_CUTOFF}")
    return n


def coherent_state(amp: complex, n_max: int) -> Ket:
    """Truncated coherent state, renormalized; the tail it drops must be below TAIL_TOL."""
    weights, kept = _fock_weights(amp, n_max)
    if 1.0 - kept >= TAIL_TOL:
        raise ValueError(f"cutoff too small: truncated tail mass {1.0 - kept:.3e} >= {TAIL_TOL:g}")
    return Ket(weights / np.sqrt(kept))


def two_mode_coherent_state(amps: CoherentAmplitudes, space: FockSpace) -> Ket:
    """Product of the two truncated coherent states, each tail-checked."""
    return tensor(*(coherent_state(amp, space.n_max) for amp in (amps.alpha, amps.beta)))


def m_z_operator(space: FockSpace) -> Operator:
    """Conserved z angular momentum of the two transverse modes, hbar = 1."""
    a = lowering_operator(space.per_mode_dim).matrix
    cross = np.kron(a, a.conj().T)
    return Operator.hermitian(1j * (cross - cross.conj().T))


def total_number_operator(space: FockSpace) -> Operator:
    n = number_operator(space.per_mode_dim).matrix
    eye = np.eye(space.per_mode_dim)
    return Operator.hermitian(np.kron(n, eye) + np.kron(eye, n))


def oscillator_bound(amps: CoherentAmplitudes) -> float:
    """Error floor of a coherent two-mode probe; vanishes for macroscopic amplitudes."""
    return optimal_spin_bound(amps.magnitude_sq)
