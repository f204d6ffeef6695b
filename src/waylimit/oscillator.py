"""Truncated two-mode oscillator probe: coherent states and the conserved
z angular momentum.

Only the two transverse modes enter the conserved quantity, so the third
mode of an isotropic oscillator is omitted; it would tensor a spectator
factor onto every quantity handled here. The angular momentum normalized to
hbar = 1 is i (a_x a_y^dag - a_x^dag a_y) in the fixed mode order x (x) y,
y index fastest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import optimal_spin_bound
from .linalg import TAIL_TOL, Ket, Operator, kron, tensor


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
    a.reshape(-1)[1::levels + 1] = np.sqrt(np.arange(1, levels))  # the superdiagonal
    return Operator(a)


def number_operator(levels: int) -> Operator:
    return Operator.hermitian(np.diag(np.arange(levels, dtype=float)))


def _fock_weights(amp: complex):
    """Fock weights n = 0, 1, ... of a coherent state, each with the mass kept up to it."""
    amp = complex(amp)  # numpy scalars would make each step a numpy operation
    weight, kept = complex(math.exp(-0.5 * abs(amp) ** 2)), 0.0
    for n in itertools.count(1):
        kept += weight.real ** 2 + weight.imag ** 2
        yield weight, kept
        weight = weight * amp / math.sqrt(n)


def fock_cutoff(amps: CoherentAmplitudes) -> int:
    """The smallest n_max at which coherent_state's tail check passes for
    both modes: each mode reads the weights until its dropped tail is below
    TAIL_TOL. Refused when the weights underflow before that."""
    cutoffs = []
    for amp in (amps.alpha, amps.beta):
        previous = 0.0
        for n, (weight, kept) in enumerate(_fock_weights(amp)):
            if not 1.0 - kept >= TAIL_TOL:  # coherent_state's tail check passes
                break
            # a zero weight, or one adding nothing to a kept mass > 0, lies past the Poisson peak
            if weight == 0 or 0 < previous == kept:
                raise ValueError(f"no cutoff holds |alpha|^2 + |beta|^2 = {amps.magnitude_sq:.6g}")
            previous = kept
        cutoffs.append(n)
    return max(cutoffs)


def coherent_state(amp: complex, n_max: int) -> Ket:
    """Coherent state truncated at n_max, renormalized; the tail it drops must be
    below TAIL_TOL, the check ``fock_cutoff`` meets."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    weights = list(itertools.islice(_fock_weights(amp), n_max + 1))
    kept = weights[-1][1]
    if 1.0 - kept >= TAIL_TOL:
        raise ValueError(f"cutoff too small: truncated tail mass {1.0 - kept:.3e} >= {TAIL_TOL:g}")
    return Ket(np.array([weight for weight, _ in weights]) / math.sqrt(kept))


def two_mode_coherent_state(amps: CoherentAmplitudes, space: FockSpace) -> Ket:
    """Product of the two truncated coherent states, each tail-checked."""
    return tensor(*(coherent_state(amp, space.n_max) for amp in (amps.alpha, amps.beta)))


def m_z_operator(space: FockSpace) -> Operator:
    """Conserved z angular momentum of the two transverse modes, hbar = 1."""
    a = lowering_operator(space.per_mode_dim).matrix
    cross = kron(a, a.conj().T)
    return Operator.hermitian(1j * (cross - cross.conj().T))


def total_number_operator(space: FockSpace) -> Operator:
    n = number_operator(space.per_mode_dim).matrix
    eye = np.eye(space.per_mode_dim)
    return Operator.hermitian(kron(n, eye) + kron(eye, n))


def oscillator_bound(amps: CoherentAmplitudes) -> float:
    """Error floor of a coherent two-mode probe; vanishes for macroscopic amplitudes."""
    return optimal_spin_bound(amps.magnitude_sq)
