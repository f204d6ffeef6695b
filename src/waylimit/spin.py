"""Spin-1/2 toolkit, canonical demo models, and the partially specified
interaction form recording +/- 1/2 outcomes on the probe.

The partial form fixes only the images of the two x-eigenstate inputs,

    U(up_x  x xi) = up_x  x xi_plus  + down_x x eta_plus,
    U(down_x x xi) = down_x x xi_minus + up_x  x eta_minus,

with xi_plus / xi_minus eigenstates of the record observable at +1/2 and
-1/2. The eta components are the amplitudes of getting the object flipped,
and eps_y^2 = |eta_plus|^2 + |eta_minus|^2 is the total weight of those
unsuccessful branches. No full unitary is ever constructed here; extensions
are nonunique and nothing below needs one.

``named_state`` is the one constructor of the six spin eigenkets (alpha_x
... beta_z) and ``spin_operators`` the one shared set of S_x, S_y and S_z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import ConservationPair, optimal_spin_bound
from .linalg import (
    EQUALITY_TOL,
    INEQUALITY_SLACK,
    Ket,
    Operator,
    ROUNDING_TOL,
    STRUCTURE_TOL,
    StructureError,
    frobenius_norm,
)
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


@dataclass(frozen=True, eq=False)
class YWModel:
    """Partial interaction data for +/- 1/2 readouts; see the module docstring.

    Validity means: each input image has unit norm (isometry), the two images
    are orthogonal, xi_plus / xi_minus are record-observable eigenstates at
    +/- 1/2, and the record spectrum lies inside [-1/2, 1/2].
    """

    probe_dim: int
    xi: Ket
    xi_plus: Ket
    xi_minus: Ket
    eta_plus: Ket
    eta_minus: Ket
    M: Operator

    def __post_init__(self):
        for name in ("xi", "xi_plus", "xi_minus", "eta_plus", "eta_minus", "M"):
            dim = getattr(self, name).dim
            if dim != self.probe_dim:
                raise ValueError(f"{name} has dim {dim}, expected {self.probe_dim}")
        if not self.xi.normalized:
            raise StructureError("xi must be normalized")
        if not self.M.has("hermitian"):
            raise StructureError("M must be hermitian on the probe space")

        plus = self.xi_plus.norm_sq() + self.eta_plus.norm_sq()
        minus = self.xi_minus.norm_sq() + self.eta_minus.norm_sq()
        if abs(plus - 1.0) > STRUCTURE_TOL or abs(minus - 1.0) > STRUCTURE_TOL:
            raise StructureError(
                f"image norms {plus:.12g}, {minus:.12g} break the isometry condition")

        overlap = complex(np.vdot(self.xi_plus.amplitudes, self.eta_minus.amplitudes)) \
            + complex(np.vdot(self.eta_plus.amplitudes, self.xi_minus.amplitudes))
        if abs(overlap) > STRUCTURE_TOL:
            raise StructureError(f"image overlap {abs(overlap):.3e} breaks orthogonality")

        m = self.M.matrix
        rp = frobenius_norm(m @ self.xi_plus.amplitudes - HALF * self.xi_plus.amplitudes)
        rm = frobenius_norm(m @ self.xi_minus.amplitudes + HALF * self.xi_minus.amplitudes)
        if rp > STRUCTURE_TOL or rm > STRUCTURE_TOL:
            raise StructureError(
                f"xi_plus/xi_minus are not +/-1/2 eigenstates (residuals {rp:.3e}, {rm:.3e})")

        w = np.linalg.eigvalsh(m)
        if w[0] < -HALF - EQUALITY_TOL or w[-1] > HALF + EQUALITY_TOL:
            raise StructureError(
                f"record spectrum [{w[0]:.12g}, {w[-1]:.12g}] leaves [-1/2, 1/2]")


def yw_eps_y(yw: YWModel) -> float:
    """Summed weight of the two unsuccessful branches (the squared figure)."""
    return yw.eta_plus.norm_sq() + yw.eta_minus.norm_sq()


def yw_error_at_alpha_y(yw: YWModel) -> float:
    """Squared noise at the y-up input state, from the closed form.

    Equals the error probability there (hbar = 1). Only the eta branches
    weighted by how far the record sits from the intended +/- 1/2 value
    contribute, so eps_y can exceed this when the flipped branches still
    record the right value.
    """
    m = yw.M.matrix
    eye = np.eye(yw.probe_dim)
    plus = frobenius_norm((m - HALF * eye) @ yw.eta_plus.amplitudes) ** 2
    minus = frobenius_norm((m + HALF * eye) @ yw.eta_minus.amplitudes) ** 2
    return 0.5 * plus + 0.5 * minus


def yw_check_bound(yw: YWModel, delta_mz_sq: float):
    """Check eps_y^2 against the floor 1 / (2 + 8 v).

    v is the probe conserved-quantity variance of a conservative embedding of
    the partial data; it cannot be derived from the partial data alone, so the
    caller supplies it. The floor is twice the optimal spin floor. Returns
    (eps_y_sq, floor, passed).
    """
    floor = 2.0 * optimal_spin_bound(delta_mz_sq)
    eps_y_sq = yw_eps_y(yw)
    return eps_y_sq, floor, eps_y_sq >= floor - INEQUALITY_SLACK


def yw_sample_model() -> YWModel:
    """Fixed well-formed sample with eps_y^2 = 0.1, used by the demo command."""
    zeros = np.zeros(4)

    def unit(index, scale):
        v = zeros.copy()
        v[index] = scale
        return Ket(v, normalized=False)

    keep = np.sqrt(0.95)
    leak = np.sqrt(0.05)
    return YWModel(
        probe_dim=4,
        xi=Ket([1.0, 0.0, 0.0, 0.0]),
        xi_plus=unit(0, keep),
        xi_minus=unit(1, keep),
        eta_plus=unit(2, leak),
        eta_minus=unit(3, leak),
        M=Operator.hermitian(np.diag([HALF, -HALF, 0.25, -0.25])),
    )


def random_yw_model(probe_dim: int, rng: np.random.Generator) -> YWModel:
    """Draw a valid random partial model on a probe of the given dimension.

    The record observable gets one +1/2 and one -1/2 eigenvector plus random
    interior spectrum. The two input images are built as orthonormal vectors
    of the composite space whose pointer components sit exactly in the
    required eigenspaces, so every validity condition holds by construction.
    """
    if probe_dim < 2:
        raise ValueError("probe_dim must be at least 2")
    d = probe_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    basis, _ = np.linalg.qr(g)
    values = np.concatenate(([HALF, -HALF], rng.uniform(-HALF, HALF, size=d - 2)))
    m = (basis * values) @ basis.conj().T
    up = basis[:, 0]
    down = basis[:, 1]

    ax, bx = _KETS[("x", +1)], _KETS[("x", -1)]

    # First image: the up_x branch keeps a random fraction, the rest leaks.
    keep = np.sqrt(rng.uniform(0.0, 1.0))
    eta_plus = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    eta_plus *= np.sqrt(1.0 - keep ** 2) / frobenius_norm(eta_plus)
    xi_plus = keep * up
    v1 = np.kron(ax, xi_plus) + np.kron(bx, eta_plus)

    # Second image: any unit vector of the form down_x (x) (c * down) +
    # up_x (x) eta orthogonal to v1. Orthogonalize inside that subspace,
    # against the subspace component of v1.
    w = np.kron(bx, complex(rng.standard_normal() + 1j * rng.standard_normal()) * down) \
        + np.kron(ax, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    v1_in = np.kron(bx, np.vdot(down, eta_plus) * down) + np.kron(ax, xi_plus)
    nrm = np.vdot(v1_in, v1_in)
    if abs(nrm) > ROUNDING_TOL ** 2:
        w = w - v1_in * (np.vdot(v1_in, w) / nrm)
    w /= frobenius_norm(w)

    return YWModel(
        probe_dim=d,
        xi=Ket(basis[:, int(rng.integers(0, d))]),
        xi_plus=Ket(xi_plus, normalized=False),
        xi_minus=Ket(_extract(w, bx, d), normalized=False),
        eta_plus=Ket(eta_plus, normalized=False),
        eta_minus=Ket(_extract(w, ax, d), normalized=False),
        M=Operator.hermitian(m),
    )


def _extract(v: np.ndarray, object_ket: np.ndarray, probe_dim: int) -> np.ndarray:
    """Probe component of a composite vector along a given object ket."""
    t = v.reshape(2, probe_dim)
    return object_ket.conj() @ t
