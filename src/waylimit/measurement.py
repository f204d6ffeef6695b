"""Indirect measurement models and their noise figures.

A model is the tuple (probe state xi, interaction U, record observable M)
together with the object observable A it is meant to measure. In the
Heisenberg picture the recorded quantity after the interaction is
U^dag (I x M) U, and the noise operator N is its mismatch with A x I.

Per-state figures (noise, worst-case noise, the outcome statistics and the
bounds, see ``bounds``) are read off the model's reduced form, where the probe
state is traced in: two D x d_o matrices (D = d_o d_p) built once per model in
O(D^2 d_o), then O(D d_o) work per state. The dense composite-space operators
stay for the derivation-chain checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DimensionMismatch,
    EQUALITY_TOL,
    Ket,
    Operator,
    PreconditionError,
    ROUNDING_TOL,
    StructureError,
    apply_on_probe,
    exceeds,
    frobenius_norm,
    spectrum_runs,
    tolerance,
)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Probe state, interaction unitary, record observable, measured observable."""

    object_dim: int
    probe_dim: int
    xi: Ket
    U: Operator
    M: Operator
    A: Operator
    # bounds.bound_terms keeps the compiled terms of one conservation pair here
    _bound_terms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.object_dim < 1 or self.probe_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.xi.dim != self.probe_dim:
            raise DimensionMismatch(f"xi has dim {self.xi.dim}, expected probe_dim {self.probe_dim}")
        if self.U.dim != self.object_dim * self.probe_dim:
            raise DimensionMismatch(
                f"U has dim {self.U.dim}, expected {self.object_dim * self.probe_dim}")
        if not self.U.has("unitary"):
            raise StructureError("U must carry the unitary tag")
        if self.M.dim != self.probe_dim:
            raise DimensionMismatch(f"M has dim {self.M.dim}, expected probe_dim {self.probe_dim}")
        if not self.M.has("hermitian"):
            raise StructureError("M must carry the hermitian tag")
        if self.A.dim != self.object_dim:
            raise DimensionMismatch(f"A has dim {self.A.dim}, expected object_dim {self.object_dim}")
        if not self.A.has("hermitian"):
            raise StructureError("A must carry the hermitian tag")

    def check_object_state(self, psi: Ket):
        if psi.dim != self.object_dim:
            raise DimensionMismatch(f"psi has dim {psi.dim}, expected object_dim {self.object_dim}")

    @cached_property
    def reduced(self) -> "ReducedForm":
        """The model with xi traced in, built on first use and kept; the model is
        frozen and its arrays are read-only, so the form cannot go stale."""
        do, dp = self.object_dim, self.probe_dim
        u, xi = self.U.matrix, self.xi.amplitudes
        # U (I x xi): contract U's input probe index
        y = (u.reshape(do, dp, do, dp) @ xi).reshape(-1, do)
        # U^dag (I x M) U (I x xi) - (A x xi)
        recorded = u.conj().T @ apply_on_probe(self.M.matrix, y, do)
        w = recorded - (self.A.matrix[:, None, :] * xi[None, :, None]).reshape(-1, do)
        return ReducedForm(y, w)


@dataclass(frozen=True, eq=False)
class ReducedForm:
    """Two D x d_o matrices (D = d_o d_p) that carry every per-state figure.

    y = U (I x xi) maps an object state psi to the composite state after the
    interaction, U (psi x xi); w = N (I x xi) maps it to N (psi x xi). So
    eps(psi) = ||w psi||, and the worst case is the top singular value of w.
    """

    y: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.y.setflags(write=False)
        self.w.setflags(write=False)


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


def heisenberg_probe(model: MeasurementModel) -> Operator:
    """The record observable propagated back through the interaction: U^dag (I x M) U."""
    im = np.kron(np.eye(model.object_dim), model.M.matrix)
    u = model.U.matrix
    return Operator.hermitian(u.conj().T @ im @ u)


def _levels(x: np.ndarray, v: np.ndarray) -> tuple:
    """(value, weight) of each level of hermitian x in v, a unit vector or
    columns whose squared norms sum to 1.

    One eigh; eigenvalues within EQUALITY_TOL of their neighbour (at the scale
    of the largest |eigenvalue|) merge into one level, valued at their mean,
    weighing ||V_k^dag v||_F^2 for its eigenvectors V_k. The merged spectrum
    must rebuild x within EQUALITY_TOL at the scale ||x||_F; a weight, a sum
    of squares, may pass 1 by rounding only."""
    w, vecs = np.linalg.eigh(x)
    runs = spectrum_runs(w, tolerance(EQUALITY_TOL, max(-w[0], w[-1])))
    merged = np.concatenate([np.full(stop - start, np.mean(w[start:stop]))
                             for start, stop in runs])
    r = frobenius_norm((vecs * merged) @ vecs.conj().T - x)
    if exceeds(r, EQUALITY_TOL, lambda: frobenius_norm(x)):
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
    return OutcomeDistribution(_levels(model.M.matrix, after))


def bsf_deviation(model: MeasurementModel, psi: Ket) -> float:
    """Worst-case mismatch with the Born statistical formula for A.

    Outcome values are matched to spectral values of A within EQUALITY_TOL at
    the value's scale; the mass on outcomes with no counterpart in the spectrum
    of A is an unambiguous violation and enters the maximum whole."""
    dist = outcome_distribution(model, psi)
    born = _levels(model.A.matrix, psi.amplitudes)
    deviation = max(abs(dist.probability_near(value) - q) for value, q in born)
    stray = sum(p for outcome, p in dist.outcomes
                if all(exceeds(abs(outcome - value), EQUALITY_TOL, abs(value))
                       for value, _ in born))
    return max(deviation, stray)


def noise_operator(model: MeasurementModel) -> Operator:
    """Mismatch between the recorded and the measured quantity on the composite space."""
    ai = np.kron(model.A.matrix, np.eye(model.probe_dim))
    return Operator.hermitian(heisenberg_probe(model).matrix - ai)


def noise(model: MeasurementModel, psi: Ket) -> float:
    """Root-mean-square error of the record for input state psi: ||W psi|| on the
    model's cached reduced form, W = N (I x xi), which is ||N (psi x xi)||."""
    model.check_object_state(psi)
    return frobenius_norm(model.reduced.w @ psi.amplitudes)


def sup_noise(model: MeasurementModel) -> float:
    """Least upper bound of the noise over all input states: the sqrt of the top
    eigenvalue of W^dag W, the probe-state expectation of N^dag N on the object
    space, with W = N (I x xi) from the model's cached reduced form."""
    w = model.reduced.w
    top = float(np.linalg.eigvalsh(w.conj().T @ w)[-1])
    return float(np.sqrt(max(top, 0.0)))


def error_probability(model: MeasurementModel, psi: Ket) -> float:
    """Squared noise read as an error probability; spin-1/2 readouts only."""
    if model.object_dim != 2:
        raise PreconditionError("error probability is defined for two-level objects only")
    model.check_object_state(psi)
    values = tuple(value for value, _ in _levels(model.A.matrix, psi.amplitudes))
    if len(values) != 2 or abs(values[0] + 0.5) > EQUALITY_TOL \
            or abs(values[1] - 0.5) > EQUALITY_TOL:
        raise PreconditionError(
            f"error probability needs spectrum {{-1/2, +1/2}}, got {values}")
    e = noise(model, psi)
    return e * e
