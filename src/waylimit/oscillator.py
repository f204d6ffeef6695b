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

    @property
    def dim(self) -> int:
        return self.per_mode_dim ** 2


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


def coherent_state(amp: complex, n_max: int) -> Ket:
    """Truncated coherent state, renormalized; the dropped tail must be below TAIL_TOL.

    The cutoff guard |amp|^2 <= n_max / 4 keeps the Poisson weight well away
    from the truncation edge for the cutoffs used here; the tail itself is
    checked as well so the renormalization is always a no-op to tolerance.
    """
    if abs(amp) ** 2 > n_max / 4.0:
        raise ValueError(
            f"cutoff too small: |amp|^2 = {abs(amp) ** 2:.6g} exceeds n_max/4 = {n_max / 4.0:.6g}")
    weights = np.empty(n_max + 1, dtype=np.complex128)
    weights[0] = np.exp(-0.5 * abs(amp) ** 2)
    for n in range(n_max):
        weights[n + 1] = weights[n] * amp / np.sqrt(n + 1.0)
    kept = float(np.real(np.vdot(weights, weights)))
    if 1.0 - kept >= TAIL_TOL:
        raise ValueError(
            f"cutoff too small: truncated tail mass {1.0 - kept:.3e} >= {TAIL_TOL:g}")
    return Ket(weights / np.sqrt(kept))


def two_mode_coherent_state(amps: CoherentAmplitudes, space: FockSpace) -> Ket:
    """Product of the two truncated coherent states on the composite space."""
    if amps.magnitude_sq > space.n_max / 4.0:
        raise ValueError(
            f"cutoff too small: |alpha|^2 + |beta|^2 = {amps.magnitude_sq:.6g} "
            f"exceeds n_max/4 = {space.n_max / 4.0:.6g}")
    return tensor(coherent_state(amps.alpha, space.n_max),
                  coherent_state(amps.beta, space.n_max))


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
