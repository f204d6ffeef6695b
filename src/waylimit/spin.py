"""Spin-1/2 toolkit and the canonical demo models.

``named_state`` is the one constructor of the six spin eigenkets (alpha_x
... beta_z) and ``spin_operators`` the one shared set of S_x, S_y and S_z.
The partially specified interaction form of the ``yw-sample`` demo, and
everything else about it, lives in ``yw``, which ``yw_sample_model`` imports
when it is called.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .bounds import ConservationPair
from .linalg import Ket, Operator
from .measurement import MeasurementModel

HALF = 0.5

_SX = np.array([[0.0, HALF], [HALF, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128)
_SZ = np.array([[HALF, 0.0], [0.0, -HALF]], dtype=np.complex128)

# exchanges the two qubits of object (x) probe
SWAP = np.eye(4)[[0, 2, 1, 3]]
SWAP.setflags(write=False)

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_KETS = {
    ("x", +1): np.array([_SQRT_HALF, _SQRT_HALF]),
    ("x", -1): np.array([_SQRT_HALF, -_SQRT_HALF]),
    ("y", +1): np.array([_SQRT_HALF, 1j * _SQRT_HALF]),
    ("y", -1): np.array([_SQRT_HALF, -1j * _SQRT_HALF]),
    ("z", +1): np.array([1.0, 0.0]),
    ("z", -1): np.array([0.0, 1.0]),
}


@functools.cache
def spin_operators():
    """The three spin-1/2 observables (S_x, S_y, S_z) in the z basis, hbar = 1.

    One immutable set, built on first use and shared by every caller."""
    return (Operator.hermitian(_SX), Operator.hermitian(_SY), Operator.hermitian(_SZ))


def named_state(name: str) -> Ket:
    """The up (alpha) and down (beta) eigenkets of S_x, S_y and S_z, named
    alpha_x ... beta_z as on the command line."""
    try:
        kind, axis = name.split("_")
        sign = {"alpha": +1, "beta": -1}[kind]
        return Ket(_KETS[(axis, sign)])
    except (ValueError, KeyError):
        raise ValueError(f"unknown named state {name!r}") from None


def _two_qubit_demo(u: Operator, m: Optional[Operator] = None):
    """A demo model on two qubits: A = S_x, L1 = L2 = S_z, xi = up_x, the
    interaction u and the record m (S_x when None)."""
    sx, _, sz = spin_operators()
    model = MeasurementModel(object_dim=2, probe_dim=2, xi=named_state("alpha_x"), U=u,
                             M=sx if m is None else m, A=sx)
    return model, ConservationPair(L1=sz, L2=sz)


def swap_demo_model():
    """Two-qubit model with U = SWAP: conservative, zero noise, Yanase-violating.

    This is the witness that the conservation law alone does not forbid a
    noiseless measurement once the record observable is allowed to clash
    with the probe's conserved quantity.
    """
    return _two_qubit_demo(Operator.unitary(SWAP))


def trivial_demo_model():
    """No interaction and a null record: the noise is the full spread of A."""
    return _two_qubit_demo(Operator.unitary(np.eye(4)), Operator.hermitian(np.zeros((2, 2))))


def yw_sample_model() -> YWModel:
    """Fixed well-formed sample with eps_y^2 = 0.1, used by the demo command:
    xi_plus, xi_minus, eta_plus and eta_minus are the rows of one diagonal."""
    from .yw import YWModel

    branches = np.diag(np.sqrt([0.95, 0.95, 0.05, 0.05]))
    return YWModel(4, Ket([1.0, 0.0, 0.0, 0.0]), *branches,
                   M=Operator.hermitian(np.diag([HALF, -HALF, 0.25, -0.25])))
