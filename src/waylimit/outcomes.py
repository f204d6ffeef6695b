"""Outcome statistics of a measurement model: the distribution of the record,
its mismatch with the Born statistical formula for A, and the error
probability of a spin-1/2 readout.

Each is read off the model's reduced form (``MeasurementModel.reduced``) and
the decomposition M or A keeps (``Operator.eigh``). Verifying a model file
needs none of them, so a cold ``verify`` neither compiles nor loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    EQUALITY_TOL,
    Ket,
    Operator,
    PreconditionError,
    ROUNDING_TOL,
    exceeds,
    frobenius_norm,
    spectrum_runs,
)
from .measurement import MeasurementModel, noise


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Finitely many (value, probability) outcomes of one measurement."""

    outcomes: tuple

    def __post_init__(self):
        total = 0.0
        for value, p in self.outcomes:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p!r} for outcome {value!r} outside [0, 1]")
            total += p
        if abs(total - 1.0) > EQUALITY_TOL:
            raise ValueError(f"probabilities sum to {total:.17g}, not 1")

    def probability_near(self, value: float) -> float:
        """Mass of the outcomes equal to value at its scale |value|."""
        return sum(p for v, p in self.outcomes
                   if not exceeds(abs(v - value), EQUALITY_TOL, abs(value)))

    def probability_in_interval(self, lo: float, hi: float) -> float:
        """Mass of the spectral values contained in [lo, hi].

        Finite dimensions make every interval a finite union of spectral
        values, so this is the general event probability.
        """
        if lo > hi:
            raise ValueError(f"empty interval [{lo!r}, {hi!r}]")
        return sum(p for v, p in self.outcomes if lo <= v <= hi)


def _levels(op: Operator, v: np.ndarray) -> tuple:
    """(value, weight) of each level of a hermitian op in v, a unit vector or
    columns whose squared norms sum to 1.

    The decomposition op keeps (``Operator.eigh``); eigenvalues within
    EQUALITY_TOL of their neighbour (``spectrum_runs``) merge into one level,
    valued at their mean, weighing ||V_k^dag v||_F^2 for its eigenvectors V_k.
    The merged spectrum must rebuild op within EQUALITY_TOL at the scale
    ||op||_F; a weight, a sum of squares, may pass 1 by rounding only."""
    w, vecs = op.eigh
    runs = spectrum_runs(w, EQUALITY_TOL)
    merged = np.concatenate([np.full(stop - start, np.mean(w[start:stop]))
                             for start, stop in runs])
    r = frobenius_norm((vecs * merged) @ vecs.conj().T - op.matrix)
    if exceeds(r, EQUALITY_TOL, lambda: frobenius_norm(op.matrix)):
        raise ArithmeticError(f"spectral reconstruction residual {r:.3e}")
    c = vecs.conj().T @ v
    levels = []
    for start, stop in runs:
        p = float(np.vdot(c[start:stop], c[start:stop]).real)
        if p > 1.0 + ROUNDING_TOL:
            raise ArithmeticError(f"outcome probability {p:.17g} outside clamp tolerance")
        levels.append((float(merged[start]), min(p, 1.0)))
    return tuple(levels)


def outcome_distribution(model: MeasurementModel, psi: Ket) -> OutcomeDistribution:
    """Probability of each spectral value of the propagated record observable:
    M's levels in the probe columns of U (psi x xi) = Y psi, no D x D operator."""
    model.check_object_state(psi)
    after = (model.reduced.y @ psi.amplitudes).reshape(model.object_dim, -1).T
    return OutcomeDistribution(_levels(model.M, after))


def bsf_deviation(model: MeasurementModel, psi: Ket) -> float:
    """Worst-case mismatch with the Born statistical formula for A.

    Outcome values are matched to spectral values of A within EQUALITY_TOL at
    the value's scale; the mass on outcomes with no counterpart in the spectrum
    of A is an unambiguous violation and enters the maximum whole."""
    dist = outcome_distribution(model, psi)
    born = _levels(model.A, psi.amplitudes)
    deviation = max(abs(dist.probability_near(value) - q) for value, q in born)
    stray = sum(p for outcome, p in dist.outcomes
                if all(exceeds(abs(outcome - value), EQUALITY_TOL, abs(value))
                       for value, _ in born))
    return max(deviation, stray)


def error_probability(model: MeasurementModel, psi: Ket) -> float:
    """Squared noise read as an error probability; spin-1/2 readouts only."""
    if model.object_dim != 2:
        raise PreconditionError("error probability is defined for two-level objects only")
    model.check_object_state(psi)
    values = tuple(value for value, _ in _levels(model.A, psi.amplitudes))
    if len(values) != 2 or abs(values[0] + 0.5) > EQUALITY_TOL \
            or abs(values[1] - 0.5) > EQUALITY_TOL:
        raise PreconditionError(
            f"error probability needs spectrum {{-1/2, +1/2}}, got {values}")
    e = noise(model, psi)
    return e * e
