"""The partially specified interaction form recording +/- 1/2 outcomes on the probe.

The partial form fixes only the images of the two x-eigenstate inputs,

    U(up_x  x xi) = up_x  x xi_plus  + down_x x eta_plus,
    U(down_x x xi) = down_x x xi_minus + up_x  x eta_minus,

with xi_plus / xi_minus eigenstates of the record observable at +1/2 and
-1/2. The eta components are the amplitudes of getting the object flipped,
and eps_y^2 = |eta_plus|^2 + |eta_minus|^2 is the total weight of those
unsuccessful branches. No full unitary is ever constructed here; extensions
are nonunique and nothing below needs one.

Only a ``kind: yw_model`` file and the ``yw-sample`` demo need this module,
so a cold ``verify`` of a model file neither compiles nor loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import optimal_spin_bound
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
from .spin import _KETS, HALF


def _weight(amplitudes: np.ndarray) -> float:
    return float(np.vdot(amplitudes, amplitudes).real)


@dataclass(frozen=True, eq=False)
class YWModel:
    """Partial interaction data for +/- 1/2 readouts; see the module docstring.

    The branches are read-only complex arrays, not kets: their squared norms
    are weights. Validity means: each input image has unit norm (isometry),
    the two images are orthogonal, xi_plus / xi_minus are record-observable
    eigenstates at +/- 1/2, and the record spectrum lies inside [-1/2, 1/2].
    """

    probe_dim: int
    xi: Ket
    xi_plus: np.ndarray
    xi_minus: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    M: Operator

    def __post_init__(self):
        for name in ("xi", "xi_plus", "xi_minus", "eta_plus", "eta_minus", "M"):
            value = getattr(self, name)
            if name not in ("xi", "M"):  # a branch: a plain complex array
                value = np.array(value, dtype=np.complex128).reshape(-1)
                if not np.isfinite(value).all():
                    raise StructureError(f"{name} amplitudes must be finite")
                value.setflags(write=False)
                object.__setattr__(self, name, value)
            dim = value.size if isinstance(value, np.ndarray) else value.dim
            if dim != self.probe_dim:
                raise ValueError(f"{name} has dim {dim}, expected {self.probe_dim}")
        if not self.M.has("hermitian"):
            raise StructureError("M must be hermitian on the probe space")

        plus = _weight(self.xi_plus) + _weight(self.eta_plus)
        minus = _weight(self.xi_minus) + _weight(self.eta_minus)
        if abs(plus - 1.0) > STRUCTURE_TOL or abs(minus - 1.0) > STRUCTURE_TOL:
            raise StructureError(
                f"image norms {plus:.12g}, {minus:.12g} break the isometry condition")

        overlap = complex(np.vdot(self.xi_plus, self.eta_minus)) \
            + complex(np.vdot(self.eta_plus, self.xi_minus))
        if abs(overlap) > STRUCTURE_TOL:
            raise StructureError(f"image overlap {abs(overlap):.3e} breaks orthogonality")

        m = self.M.matrix
        rp = frobenius_norm(m @ self.xi_plus - HALF * self.xi_plus)
        rm = frobenius_norm(m @ self.xi_minus + HALF * self.xi_minus)
        if rp > STRUCTURE_TOL or rm > STRUCTURE_TOL:
            raise StructureError(
                f"xi_plus/xi_minus are not +/-1/2 eigenstates (residuals {rp:.3e}, {rm:.3e})")

        w = self.M.eigh[0]
        if w[0] < -HALF - EQUALITY_TOL or w[-1] > HALF + EQUALITY_TOL:
            raise StructureError(
                f"record spectrum [{w[0]:.12g}, {w[-1]:.12g}] leaves [-1/2, 1/2]")


def yw_eps_y(yw: YWModel) -> float:
    """Summed weight of the two unsuccessful branches (the squared figure)."""
    return _weight(yw.eta_plus) + _weight(yw.eta_minus)


def yw_error_at_alpha_y(yw: YWModel) -> float:
    """Squared noise at the y-up input state, from the closed form.

    Equals the error probability there (hbar = 1). Only the eta branches
    weighted by how far the record sits from the intended +/- 1/2 value
    contribute, so eps_y can exceed this when the flipped branches still
    record the right value.
    """
    m = yw.M.matrix
    eye = np.eye(yw.probe_dim)
    plus = frobenius_norm((m - HALF * eye) @ yw.eta_plus) ** 2
    minus = frobenius_norm((m + HALF * eye) @ yw.eta_minus) ** 2
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
        xi_plus=xi_plus,
        xi_minus=_extract(w, bx, d),
        eta_plus=eta_plus,
        eta_minus=_extract(w, ax, d),
        M=Operator.hermitian(m),
    )


def _extract(v: np.ndarray, object_ket: np.ndarray, probe_dim: int) -> np.ndarray:
    """Probe component of a composite vector along a given object ket."""
    t = v.reshape(2, probe_dim)
    return object_ket.conj() @ t
