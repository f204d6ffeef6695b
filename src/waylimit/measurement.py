"""Indirect measurement models and their noise figures.

A model is the tuple (probe state xi, interaction U, record observable M)
together with the object observable A it is meant to measure. In the
Heisenberg picture the recorded quantity after the interaction is
U^dag (I x M) U, and the noise operator N is its mismatch with A x I.

Per-state figures (noise, worst-case noise, the bounds, see ``bounds``, and
the outcome statistics, see ``outcomes``) are read off the model's reduced
form, where the probe state is traced in: two D x d_o matrices (D = d_o d_p)
built once per model in O(D^2 d_o), then O(D d_o) work per state. The dense
composite-space operators stay for the derivation-chain checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DimensionMismatch,
    Ket,
    Operator,
    StructureError,
    apply_on_probe,
    frobenius_norm,
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


def heisenberg_probe(model: MeasurementModel) -> Operator:
    """The record observable propagated back through the interaction: U^dag (I x M) U."""
    im = np.kron(np.eye(model.object_dim), model.M.matrix)
    u = model.U.matrix
    return Operator.hermitian(u.conj().T @ im @ u)


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
