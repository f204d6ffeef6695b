"""Conservation-law residuals, the uncertainty chain, and the noise lower bounds.

The additive conservation law (ACL) for a pair (L1 on the object, L2 on the
probe) is [U, L1 x I + I x L2] = 0. With the ACL, the Robertson uncertainty
relation applied to the noise operator and the total conserved quantity gives
a lower bound on the squared noise; adding the Yanase condition [M, L2] = 0
reduces its numerator to the object-side commutator, and specializing to the
spin-1/2 scenario (A = S_x, L1 = S_z) gives the closed-form error floors.

The bounds read terms that depend only on (model, pair) from ``bound_terms``,
which compiles them on the object space once, in O(D d_o (d_o + d_p) + d_p^3)
(D = d_o d_p), and keeps them on the model; each state then costs O(d_o^2)
per bound. The residuals of the derivation chain stay dense and independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    ACL_GATE_TOL,
    DimensionMismatch,
    EQUALITY_TOL,
    INEQUALITY_SLACK,
    Ket,
    Operator,
    PRECONDITION_TOL,
    PreconditionError,
    RATIO_FLOOR,
    TheoremViolation,
    array_variance,
    expectation,
    frobenius_norm,
    identity,
    tensor,
    variance,
)
from .measurement import MeasurementModel, noise, noise_operator


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
    return _acl_residual(model, pair.total())


def _acl_residual(model: MeasurementModel, ltot: Operator) -> float:
    u = model.U.matrix
    l = ltot.matrix
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
    _check_pair(model, pair)
    ltot = pair.total()
    r = _acl_residual(model, ltot)
    if r >= PRECONDITION_TOL:
        raise PreconditionError(
            f"commutator identity assumes the conservation law, acl residual {r:.3e}")
    return _identity_residual(model, pair, noise_operator(model), ltot)


def _identity_residual(model: MeasurementModel, pair: ConservationPair,
                       n: Operator, ltot: Operator) -> float:
    """The commutator identity's residual from the dense noise operator and
    total; the caller has checked the pair and the conservation law."""
    lhs = n.matrix @ ltot.matrix - ltot.matrix @ n.matrix
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
    return _robertson_pair(model.composite_state(psi), noise_operator(model), pair.total())


def _robertson_pair(v: Ket, n: Operator, ltot: Operator):
    """``uncertainty_pair`` in the composite state v, from the dense noise
    operator and total."""
    lhs = variance(n, v) * variance(ltot, v)
    comm = n.matrix @ ltot.matrix - ltot.matrix @ n.matrix
    mean = complex(np.vdot(v.amplitudes, comm @ v.amplitudes))
    rhs = 0.25 * abs(mean) ** 2
    if lhs < rhs - INEQUALITY_SLACK:
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
    if den < RATIO_FLOOR:
        return 0.0 if num < RATIO_FLOOR else math.inf
    return num / den


@dataclass(frozen=True, eq=False)
class BoundTerms:
    """The terms of the bounds that depend only on (model, pair), on the object space.

    d = Y^dag (I x [M, L2]) Y - [A, L1], with Y = U (I x xi), is the
    probe-traced right side of the commutator identity, so
    <psi x xi|[N, L1 x I + I x L2]|psi x xi> = <psi|d|psi>; c = [A, L1] is
    its object side. yanase_residual is ||[M, L2]||_F and var_l2 is
    var(L2, xi), the probe's share of the bounds' denominator.
    """

    d: np.ndarray
    c: np.ndarray
    yanase_residual: float
    var_l2: float

    def __post_init__(self):
        self.d.setflags(write=False)
        self.c.setflags(write=False)


def bound_terms(model: MeasurementModel, pair: ConservationPair) -> BoundTerms:
    """The bounds' (model, pair) terms, built on first use and kept on the model.

    The model keeps the terms of one pair at a time, keyed by the pair object
    itself: a ConservationPair compares by identity (eq=False), and the key
    keeps it alive, so no other pair can match it. The pair is checked
    against the model on every miss. Model and pair are frozen and their
    arrays read-only, so a hit cannot be stale.
    """
    terms = model._bound_terms.get(pair)
    if terms is None:
        _check_pair(model, pair)
        do, dp = model.object_dim, model.probe_dim
        y = model.reduced.y
        k = _commutator_matrix(model.M, pair.L2)
        c = _commutator_matrix(model.A, pair.L1)
        # I x [M, L2] acts on the probe index of Y, a (d_o, d_p, d_o) tensor
        ky = (k @ y.reshape(do, dp, do)).reshape(-1, do)
        terms = BoundTerms(y.conj().T @ ky - c, c, frobenius_norm(k),
                           variance(pair.L2, model.xi))
        model._bound_terms.clear()
        model._bound_terms[pair] = terms
    return terms


def _quadratic_bound(x: np.ndarray, pair: ConservationPair, terms: BoundTerms,
                     psi: Ket) -> float:
    """|<psi|x|psi>|^2 over the variance of L1 x I + I x L2 in psi x xi, times 4.

    On a product state that variance is var(L1, psi) + var(L2, xi)
    (variance additivity); the second term is compiled with the pair.
    The caller has checked psi against the model.
    """
    a = psi.amplitudes
    mean = complex(np.vdot(a, x @ a))
    den = 4.0 * array_variance(pair.L1.matrix, a) + 4.0 * terms.var_l2
    return _bounded_ratio(abs(mean) ** 2, den)


def fundamental_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """Lower bound on the squared noise implied by the conservation law alone.

    The numerator is |<psi|D|psi>|^2 with D = Y^dag (I x [M, L2]) Y - [A, L1]
    and Y = U (I x xi), the probe-traced expectation of the ACL side of the
    commutator identity; the denominator is 4 var(L1, psi) + 4 var(L2, xi).
    D and var(L2, xi) are compiled once per (model, pair) by ``bound_terms``
    in O(D d_o (d_o + d_p) + d_p^3); each state then costs O(d_o^2).
    """
    terms = bound_terms(model, pair)
    model.check_object_state(psi)
    return _quadratic_bound(terms.d, pair, terms, psi)


def yanase_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """The conservation-law bound once the record observable commutes with L2.

    The numerator reduces to |<psi|[A, L1]|psi>|^2; the denominator is the
    same as the fundamental bound's.
    """
    terms = bound_terms(model, pair)
    r = terms.yanase_residual
    if r >= PRECONDITION_TOL:
        raise PreconditionError(f"Yanase condition fails, [M, L2] residual {r:.3e}")
    model.check_object_state(psi)
    return _quadratic_bound(terms.c, pair, terms, psi)


@functools.cache
def _spin_xyz():
    # imported here because spin imports this module; the operators are
    # immutable, so one set serves every call
    from .spin import spin_operators
    return spin_operators()


def _spin_scenario_gap(model: MeasurementModel, pair: ConservationPair) -> Optional[str]:
    """The first part of the spin-1/2 scenario the model lacks, or None."""
    sx, _, sz = _spin_xyz()
    if model.object_dim != 2:
        return "a two-level object"
    if frobenius_norm(model.A.matrix - sx.matrix) > EQUALITY_TOL:
        return "A = S_x"
    if frobenius_norm(pair.L1.matrix - sz.matrix) > EQUALITY_TOL:
        return "L1 = S_z"
    return None


def spin_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """Closed-form noise floor for the spin-1/2 scenario A = S_x, L1 = S_z."""
    terms = bound_terms(model, pair)
    gap = _spin_scenario_gap(model, pair)
    if gap:
        raise PreconditionError(f"spin bound needs {gap}")
    r = terms.yanase_residual
    if r >= PRECONDITION_TOL:
        raise PreconditionError(f"spin bound assumes the Yanase condition, residual {r:.3e}")
    _, sy, sz = _spin_xyz()
    mean_sy = expectation(sy, psi)
    den = 4.0 * variance(sz, psi) + 4.0 * terms.var_l2
    return _bounded_ratio(mean_sy ** 2, den)


def optimal_spin_bound(delta_mz_sq: float) -> float:
    """Error floor 1 / (4 + 16 v) for probe conserved-quantity variance v."""
    if delta_mz_sq < 0.0:
        raise ValueError(f"variance must be nonnegative, got {delta_mz_sq!r}")
    return 1.0 / (4.0 + 16.0 * delta_mz_sq)


def bound_comparison(delta_mz_sq: float, mean_mz: float):
    """Old mean-square bound next to the tighter variance bound, for reporting.

    Returns (old, new) where old = 1 / (8 <m^2>) with an infinity sentinel at
    <m^2> = 0, and new = 1 / (2 + 8 v), twice the optimal spin floor.
    """
    new = 2.0 * optimal_spin_bound(delta_mz_sq)
    mean_square = delta_mz_sq + mean_mz ** 2
    old = math.inf if mean_square < RATIO_FLOOR else 1.0 / (8.0 * mean_square)
    return old, new


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Every evaluated quantity for one model and one input state.

    yanase_bound, spin_bound and commutator_identity_residual are None when
    their preconditions (Yanase condition, spin scenario, conservation law)
    do not apply to the model at hand; null_reasons then maps each such
    field name to the precondition that failed.
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
    null_reasons: dict = field(default_factory=dict)

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
        if not self.uncertainty_lhs >= self.uncertainty_rhs - INEQUALITY_SLACK:
            bad.append("uncertainty")
        return tuple(bad)


def bound_report(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> BoundReport:
    """Evaluate everything that applies to (model, pair, psi) in one record.

    The dense checks share one total L1 x I + I x L2, one ACL residual and
    one noise operator; they stay independent of the reduced form.
    """
    terms = bound_terms(model, pair)
    ltot = pair.total()
    acl = _acl_residual(model, ltot)
    eps = noise(model, psi)
    fb = fundamental_bound(model, pair, psi)
    reasons = {}
    yb = sb = cir = None
    yr = terms.yanase_residual
    if yr >= PRECONDITION_TOL:
        reasons["yanase_bound"] = (f"Yanase condition fails: [M, L2] residual {yr:.3e}, "
                                   f"tolerance {PRECONDITION_TOL:g}")
    else:
        yb = yanase_bound(model, pair, psi)
    spin_gap = _spin_scenario_gap(model, pair)
    if spin_gap:
        reasons["spin_bound"] = f"not the spin scenario: needs {spin_gap}"
    elif yb is None:
        reasons["spin_bound"] = reasons["yanase_bound"]
    else:
        sb = spin_bound(model, pair, psi)
    n = noise_operator(model)
    if acl < PRECONDITION_TOL:
        cir = _identity_residual(model, pair, n, ltot)
    else:
        reasons["commutator_identity_residual"] = (
            f"conservation law fails: acl residual {acl:.3e}, "
            f"tolerance {PRECONDITION_TOL:g}")
    lhs, rhs = _robertson_pair(model.composite_state(psi), n, ltot)
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
        null_reasons=reasons,
    )
