"""Conservation-law residuals, the uncertainty chain, and the noise lower bounds.

The additive conservation law (ACL) for a pair (L1 on the object, L2 on the
probe) is [U, L1 x I + I x L2] = 0. With the ACL, the Robertson uncertainty
relation applied to the noise operator and the total conserved quantity gives
a lower bound on the squared noise; adding the Yanase condition [M, L2] = 0
reduces its numerator to the object-side commutator, and specializing to the
spin-1/2 scenario (A = S_x, L1 = S_z) gives the closed-form error floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    DimensionMismatch,
    Ket,
    Operator,
    PreconditionError,
    TheoremViolation,
    expectation,
    frobenius_norm,
    identity,
    tensor,
    variance,
)
from .measurement import MeasurementModel, noise, noise_operator

ACL_GATE_TOL = 1e-10            # "model is conservative" gate for report checks
ACL_PRECONDITION_TOL = 1e-9     # precondition for ACL-derived identities
YANASE_PRECONDITION_TOL = 1e-9
DENOMINATOR_FLOOR = 1e-14
NUMERATOR_FLOOR = 1e-14
INEQUALITY_SLACK = 1e-9
ROBERTSON_SLACK = 1e-9
SPIN_SCENARIO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConservationPair:
    """Conserved quantities L1 (object side) and L2 (probe side)."""

    L1: Operator
    L2: Operator

    def __post_init__(self):
        if not self.L1.has("hermitian") or not self.L2.has("hermitian"):
            raise ValueError("conserved quantities must carry the hermitian tag")

    def total(self) -> Operator:
        """L1 x I + I x L2 on the composite space."""
        m = tensor(self.L1, identity(self.L2.dim)).matrix \
            + tensor(identity(self.L1.dim), self.L2).matrix
        return Operator.hermitian(m)


def _check_pair(model: MeasurementModel, pair: ConservationPair):
    if pair.L1.dim != model.object_dim:
        raise DimensionMismatch(f"L1 has dim {pair.L1.dim}, expected object_dim {model.object_dim}")
    if pair.L2.dim != model.probe_dim:
        raise DimensionMismatch(f"L2 has dim {pair.L2.dim}, expected probe_dim {model.probe_dim}")


def acl_residual(model: MeasurementModel, pair: ConservationPair) -> float:
    """Frobenius norm of [U, L1 x I + I x L2]; zero means the interaction conserves the sum."""
    _check_pair(model, pair)
    u = model.U.matrix
    l = pair.total().matrix
    return frobenius_norm(u @ l - l @ u)


def _commutator_matrix(x: Operator, y: Operator) -> np.ndarray:
    return x.matrix @ y.matrix - y.matrix @ x.matrix


def yanase_residual(m: Operator, l2: Operator) -> float:
    """Frobenius norm of [M, L2]; zero means the record observable is itself measurable."""
    if m.dim != l2.dim:
        raise DimensionMismatch(f"M has dim {m.dim}, L2 has dim {l2.dim}")
    return frobenius_norm(_commutator_matrix(m, l2))


def commutator_identity_residual(model: MeasurementModel, pair: ConservationPair) -> float:
    """Residual of the ACL-derived commutator identity; requires a conservative model.

    Both sides are built densely on the composite space,
    [N, L1 x I + I x L2] = U^dag (I x [M, L2]) U - [A, L1] x I, so this stays
    an independent check of the reduced form the bounds are evaluated from.
    """
    r = acl_residual(model, pair)
    if r >= ACL_PRECONDITION_TOL:
        raise PreconditionError(
            f"commutator identity assumes the conservation law, acl residual {r:.3e}")
    n = noise_operator(model).matrix
    ltot = pair.total().matrix
    lhs = n @ ltot - ltot @ n
    u = model.U.matrix
    im = tensor(identity(model.object_dim), model.M).matrix
    il2 = tensor(identity(model.object_dim), pair.L2).matrix
    ai = tensor(model.A, identity(model.probe_dim)).matrix
    l1i = tensor(pair.L1, identity(model.probe_dim)).matrix
    probe_term = u.conj().T @ (im @ il2 - il2 @ im) @ u
    object_term = ai @ l1i - l1i @ ai
    return frobenius_norm(lhs - (probe_term - object_term))


def uncertainty_pair(model: MeasurementModel, pair: ConservationPair, psi: Ket):
    """Robertson pair for the noise operator against the total conserved quantity.

    Returns (lhs, rhs) with lhs the product of variances and rhs the squared
    half-magnitude of the commutator expectation, both in psi x xi.
    """
    _check_pair(model, pair)
    v = model.composite_state(psi)
    n = noise_operator(model)
    ltot = pair.total()
    lhs = variance(n, v) * variance(ltot, v)
    comm = n.matrix @ ltot.matrix - ltot.matrix @ n.matrix
    mean = complex(np.vdot(v.amplitudes, comm @ v.amplitudes))
    rhs = 0.25 * abs(mean) ** 2
    if lhs < rhs - ROBERTSON_SLACK:
        raise TheoremViolation(
            f"uncertainty relation failed: lhs {lhs:.17g} < rhs {rhs:.17g}")
    return lhs, rhs


def variance_additivity_residual(pair: ConservationPair, psi: Ket, xi: Ket) -> float:
    """On a product state the variance of L1 x I + I x L2 is the sum of the parts."""
    v = tensor(psi, xi)
    total = variance(pair.total(), v)
    part1 = variance(tensor(pair.L1, identity(pair.L2.dim)), v)
    part2 = variance(tensor(identity(pair.L1.dim), pair.L2), v)
    return abs(total - part1 - part2)


def _bounded_ratio(num: float, den: float) -> float:
    """num/den with the degenerate-denominator convention.

    Zero variance with a vanishing numerator is an empty constraint (0);
    zero variance with a surviving numerator means no finite noise satisfies
    the bound (the infinity sentinel).
    """
    if den < DENOMINATOR_FLOOR:
        return 0.0 if num < NUMERATOR_FLOOR else math.inf
    return num / den


def _state_bound(mean: complex, model: MeasurementModel, pair: ConservationPair,
                 psi: Ket) -> float:
    """|mean|^2 over the variance of L1 x I + I x L2 in psi x xi, times 4.

    On a product state that variance is var(L1, psi) + var(L2, xi)
    (variance additivity), so no composite operator is built.
    """
    den = 4.0 * variance(pair.L1, psi) + 4.0 * variance(pair.L2, model.xi)
    return _bounded_ratio(abs(mean) ** 2, den)


def _object_mean(x: np.ndarray, psi: Ket) -> complex:
    return complex(np.vdot(psi.amplitudes, x @ psi.amplitudes))


def fundamental_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """Lower bound on the squared noise implied by the conservation law alone.

    The numerator is |<psi| Y^dag (I x [M, L2]) Y - [A, L1] |psi>|^2 with
    Y = U (I x xi) from the model's cached reduced form, the probe-traced
    expectation of the ACL side of the commutator identity; the denominator
    is 4 var(L1, psi) + 4 var(L2, xi).
    """
    _check_pair(model, pair)
    model.check_object_state(psi)
    # U (psi x xi) as a (d_o, d_p) array; I x [M, L2] acts on its probe index
    after = (model.reduced.y @ psi.amplitudes).reshape(model.object_dim, model.probe_dim)
    probe_mean = complex(np.vdot(after, after @ _commutator_matrix(model.M, pair.L2).T))
    mean = probe_mean - _object_mean(_commutator_matrix(model.A, pair.L1), psi)
    return _state_bound(mean, model, pair, psi)


def yanase_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """The conservation-law bound once the record observable commutes with L2.

    The numerator reduces to |<psi|[A, L1]|psi>|^2; the denominator is the
    same as the fundamental bound's.
    """
    _check_pair(model, pair)
    r = yanase_residual(model.M, pair.L2)
    if r >= YANASE_PRECONDITION_TOL:
        raise PreconditionError(f"Yanase condition fails, [M, L2] residual {r:.3e}")
    model.check_object_state(psi)
    return _state_bound(_object_mean(_commutator_matrix(model.A, pair.L1), psi),
                        model, pair, psi)


def _spin_xyz():
    from .spin import spin_operators
    return spin_operators()


def spin_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """Closed-form noise floor for the spin-1/2 scenario A = S_x, L1 = S_z."""
    _check_pair(model, pair)
    sx, sy, sz = _spin_xyz()
    if model.object_dim != 2:
        raise PreconditionError("spin bound needs a two-level object")
    if frobenius_norm(model.A.matrix - sx.matrix) > SPIN_SCENARIO_TOL:
        raise PreconditionError("spin bound needs A = S_x")
    if frobenius_norm(pair.L1.matrix - sz.matrix) > SPIN_SCENARIO_TOL:
        raise PreconditionError("spin bound needs L1 = S_z")
    r = yanase_residual(model.M, pair.L2)
    if r >= YANASE_PRECONDITION_TOL:
        raise PreconditionError(f"spin bound assumes the Yanase condition, residual {r:.3e}")
    mean_sy = expectation(sy, psi)
    den = 4.0 * variance(sz, psi) + 4.0 * variance(pair.L2, model.xi)
    return _bounded_ratio(mean_sy ** 2, den)


def optimal_spin_bound(delta_mz_sq: float) -> float:
    """Error floor 1 / (4 + 16 v) for probe conserved-quantity variance v."""
    if delta_mz_sq < 0.0:
        raise ValueError(f"variance must be nonnegative, got {delta_mz_sq!r}")
    return 1.0 / (4.0 + 16.0 * delta_mz_sq)


def bound_comparison(delta_mz_sq: float, mean_mz: float):
    """Old mean-square bound next to the tighter variance bound, for reporting.

    Returns (old, new) where old = 1 / (8 <m^2>) with an infinity sentinel at
    <m^2> = 0, and new = 1 / (2 + 8 v).
    """
    if delta_mz_sq < 0.0:
        raise ValueError(f"variance must be nonnegative, got {delta_mz_sq!r}")
    mean_square = delta_mz_sq + mean_mz ** 2
    old = math.inf if mean_square < DENOMINATOR_FLOOR else 1.0 / (8.0 * mean_square)
    new = 1.0 / (2.0 + 8.0 * delta_mz_sq)
    return old, new


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Every evaluated quantity for one model and one input state.

    yanase_bound, spin_bound and commutator_identity_residual are None when
    their preconditions (Yanase condition, spin scenario, conservation law)
    do not apply to the model at hand.
    """

    eps_sq: float
    fundamental_bound: float
    yanase_bound: Optional[float]
    spin_bound: Optional[float]
    acl_residual: float
    yanase_residual: float
    commutator_identity_residual: Optional[float]
    uncertainty_lhs: float
    uncertainty_rhs: float

    def violations(self) -> tuple:
        """Names of the applicable inequalities that fail, empty when all hold."""
        bad = []
        if self.acl_residual < ACL_GATE_TOL:
            if not self.eps_sq >= self.fundamental_bound - INEQUALITY_SLACK:
                bad.append("fundamental_bound")
            if self.yanase_bound is not None \
                    and not self.eps_sq >= self.yanase_bound - INEQUALITY_SLACK:
                bad.append("yanase_bound")
            if self.spin_bound is not None \
                    and not self.eps_sq >= self.spin_bound - INEQUALITY_SLACK:
                bad.append("spin_bound")
        if not self.uncertainty_lhs >= self.uncertainty_rhs - ROBERTSON_SLACK:
            bad.append("uncertainty")
        return tuple(bad)


def bound_report(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> BoundReport:
    """Evaluate everything that applies to (model, pair, psi) in one record."""
    _check_pair(model, pair)
    acl = acl_residual(model, pair)
    yr = yanase_residual(model.M, pair.L2)
    eps = noise(model, psi)
    fb = fundamental_bound(model, pair, psi)
    yb = yanase_bound(model, pair, psi) if yr < YANASE_PRECONDITION_TOL else None
    sb = None
    try:
        sb = spin_bound(model, pair, psi)
    except PreconditionError:
        pass
    cir = commutator_identity_residual(model, pair) if acl < ACL_PRECONDITION_TOL else None
    lhs, rhs = uncertainty_pair(model, pair, psi)
    return BoundReport(
        eps_sq=eps * eps,
        fundamental_bound=fb,
        yanase_bound=yb,
        spin_bound=sb,
        acl_residual=acl,
        yanase_residual=yr,
        commutator_identity_residual=cir,
        uncertainty_lhs=lhs,
        uncertainty_rhs=rhs,
    )
