"""Conservation-law residuals, the uncertainty chain, and the noise lower bounds.

The additive conservation law (ACL) for a pair (L1 on the object, L2 on the
probe) is [U, L1 x I + I x L2] = 0. With the ACL, the Robertson uncertainty
relation applied to the noise operator and the total conserved quantity gives
a lower bound on the squared noise; adding the Yanase condition [M, L2] = 0
reduces its numerator to the object-side commutator, and specializing to the
spin-1/2 scenario (A = S_x, L1 = S_z) gives the closed-form error floors.

Each function that needs a step's condition checks it and raises
``PreconditionError`` (``require_yanase`` is the Yanase test, and
``commutator_identity_residual`` holds the one ACL gate); ``bound_report``
keeps those messages as null reasons. A residual is zero at its operands' scale
(``linalg.exceeds``) and a bound's terms at their second moments (``_bounded_ratio``),
in any units; ``BoundReport.violations`` decides each theorem inequality by the same
rule, the bounds against eps^2 at ``noise_scale`` and Robertson's relation at its lhs.

The bounds read their (model, pair) terms from ``bound_terms``, compiled on
the object space once in O(D d_o (d_o + d_p) + d_p^3) (D = d_o d_p), and each
state costs one O(d_o^2) pass that both bounds share. The commutator identity is the
one check of the model's reduced form against the dense N and L = L1 x I + I x L2
(lifted once per pair), behind the [U, L] gate; the uncertainty pair reads N v off the
reduced form and keeps L v (v = psi x xi) in factor form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    _commutator_matrix,
    _moment_variance,
    _real_mean,
    apply_on_probe,
    exceeds,
    frobenius_norm,
    kron,
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
        """L1 x I + I x L2 on the composite space, built on first use and kept; the
        pair is frozen and its operators are read-only, so it cannot go stale."""
        return self._total

    @cached_property
    def _total(self) -> Operator:
        return Operator.hermitian(kron(self.L1.matrix, np.eye(self.L2.dim))
                                  + kron(np.eye(self.L1.dim), self.L2.matrix))


def check_pair(model: MeasurementModel, pair: ConservationPair):
    """Raise DimensionMismatch unless L1 acts on the object and L2 on the probe."""
    if pair.L1.dim != model.object_dim:
        raise DimensionMismatch(f"L1 has dim {pair.L1.dim}, expected object_dim {model.object_dim}")
    if pair.L2.dim != model.probe_dim:
        raise DimensionMismatch(f"L2 has dim {pair.L2.dim}, expected probe_dim {model.probe_dim}")


def acl_residual(model: MeasurementModel, pair: ConservationPair) -> float:
    """Frobenius norm of [U, L1 x I + I x L2]; zero means the interaction conserves the sum."""
    check_pair(model, pair)
    return frobenius_norm(_commutator_matrix(model.U, pair.total()))


def yanase_residual(m: Operator, l2: Operator) -> float:
    """Frobenius norm of [M, L2]; zero means the record observable is itself measurable."""
    if m.dim != l2.dim:
        raise DimensionMismatch(f"M has dim {m.dim}, L2 has dim {l2.dim}")
    return frobenius_norm(_commutator_matrix(m, l2))


def require_yanase(residual: float, m: Operator, l2: Operator):
    """The Yanase condition's one test, on the residual of [M, L2] at the
    scale ||M||_F ||L2||_F."""
    if exceeds(residual, PRECONDITION_TOL,
               lambda: frobenius_norm(m.matrix) * frobenius_norm(l2.matrix)):
        raise PreconditionError(f"Yanase condition fails: [M, L2] residual {residual:.3e}, "
                                f"tolerance {PRECONDITION_TOL:g}")


def commutator_identity_residual(model: MeasurementModel, pair: ConservationPair) -> float:
    """Residual of the ACL-derived commutator identity; requires a conservative model.

    [N, L1 x I + I x L2] = U^dag (I x [M, L2]) U - [A, L1] x I, the left side
    dense and the right one from the lifts of [M, L2] and [A, L1], so this
    stays an independent check of the reduced form the bounds are evaluated from.
    Its precondition, the one ACL gate, reads [U, L] at the scale ||L||_F, on the same L."""
    acl, total = acl_residual(model, pair), pair.total()
    if exceeds(acl, ACL_GATE_TOL, lambda: frobenius_norm(total.matrix)):
        raise PreconditionError(f"conservation law fails: acl residual {acl:.3e}, "
                                f"tolerance {ACL_GATE_TOL:g}")
    u = model.U.matrix
    lhs = _commutator_matrix(noise_operator(model), total)
    ik = kron(np.eye(model.object_dim), _commutator_matrix(model.M, pair.L2))
    ci = kron(_commutator_matrix(model.A, pair.L1), np.eye(model.probe_dim))
    return frobenius_norm(lhs - (u.conj().T.dot(ik).dot(u) - ci))


def uncertainty_pair(model: MeasurementModel, pair: ConservationPair, psi: Ket):
    """Robertson pair for the noise operator against the total conserved quantity.

    Returns (lhs, rhs) = (||n'||^2 ||l'||^2, (Im<n'|l'>)^2) in v = psi x xi, from the
    centred images n' = N v - <N> v and l' = L v - <L> v, with N v = W psi off the reduced
    form and L v = (L1 psi) x xi + psi x (L2 xi), whose low bits a lift loses at large L1:
    the product of variances and, as <v|[N, L]|v> = 2i Im<n'|l'> for hermitian N and L, the
    squared half-magnitude of <v|[N, L]|v>. Cauchy-Schwarz keeps rhs <= lhs up to rounding."""
    check_pair(model, pair)
    model.check_object_state(psi)
    a, xi = psi.amplitudes, model.xi.amplitudes
    v, n = kron(a, xi), model.reduced.w.dot(a)
    l1, l2 = pair.L1.matrix, pair.L2.matrix
    l = kron(l1.dot(a), xi) + apply_on_probe(l2, v, model.object_dim)
    n -= _real_mean(complex(np.vdot(v, n)),
                    lambda: frobenius_norm(model.M) + frobenius_norm(model.A), "mean of N") * v
    l -= _real_mean(complex(np.vdot(v, l)),
                    lambda: frobenius_norm(l1) + frobenius_norm(l2), "mean of L") * v
    return float(np.vdot(n, n).real) * float(np.vdot(l, l).real), float(np.vdot(n, l).imag) ** 2


def variance_additivity_residual(pair: ConservationPair, psi: Ket, xi: Ket) -> float:
    """|var(L1 x I + I x L2) - var(L1, psi) - var(L2, xi)| on psi x xi: the bounds' split."""
    total = variance(pair.total(), tensor(psi, xi))
    return abs(total - variance(pair.L1, psi) - variance(pair.L2, xi))


def noise_scale(a, m) -> float:
    """(||A||_F + ||M||_F)^2: it bounds ||N||^2, so eps^2 and every valid bound, in any units."""
    return (frobenius_norm(a) + frobenius_norm(m)) ** 2


def _bounded_ratio(num: float, den: float, scale: float) -> float:
    """num/den, where num and den are zero up to RATIO_FLOOR x scale, the second
    moments den's variances come from: the rule of ``exceeds``, inlined on the
    per-state path. Both are quadratic in L, so units change no ratio. Zero
    variance is an empty constraint (0) with a vanishing numerator, and with a
    surviving one no finite noise satisfies the bound (the infinity sentinel)."""
    if den <= RATIO_FLOOR * scale:
        return 0.0 if num <= RATIO_FLOOR * scale else math.inf
    return num / den


@dataclass(frozen=True, eq=False)
class BoundTerms:
    """The terms of the bounds that depend only on (model, pair), on the object space.

    stack is the flat (3 d_o, d_o) table [d; c; L1], the three blocks one above
    the other, so that one ``stack.dot(psi)``, read as three rows, serves both
    numerators and the denominator's var(L1, psi). Here
    d = Y^dag (I x [M, L2]) Y - [A, L1], with Y = U (I x xi), is the
    probe-traced right side of the commutator identity, so
    <psi x xi|[N, L1 x I + I x L2]|psi x xi> = <psi|d|psi>; c = [A, L1] is its
    object side. yanase_residual is ||[M, L2]||_F and yanase_refusal the reason
    ``require_yanase`` gives ("" if none); var_l2 = var(L2, xi) and second_l2 =
    <L2^2> in xi are the probe's shares of the denominator and of its scale; norm_l1 = ||L1||_F."""

    stack: np.ndarray
    yanase_residual: float
    yanase_refusal: str
    var_l2: float
    second_l2: float
    norm_l1: float
    # _state_figures keeps the figures of the last object state here
    _state: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.stack.setflags(write=False)


def bound_terms(model: MeasurementModel, pair: ConservationPair) -> BoundTerms:
    """The bounds' (model, pair) terms, built on first use and kept on the model,
    for one pair at a time, keyed by the pair object itself: a ConservationPair
    compares by identity (eq=False) and the key keeps it alive, so no other pair
    can match it. The pair is checked against the model on every miss. Model
    and pair are frozen and their arrays read-only, so a hit cannot be stale."""
    terms = model._bound_terms.get(pair)
    if terms is None:
        check_pair(model, pair)
        y = model.reduced.y
        k = _commutator_matrix(model.M, pair.L2)
        c = _commutator_matrix(model.A, pair.L1)
        ky = apply_on_probe(k, y, model.object_dim)
        residual, refusal = frobenius_norm(k), ""
        try:  # a verdict on (model, pair), so yanase_bound does not test it per state
            require_yanase(residual, model.M, pair.L2)
        except PreconditionError as exc:
            refusal = str(exc)
        xi, l2xi = model.xi.amplitudes, pair.L2.matrix.dot(model.xi.amplitudes)
        second = float(np.vdot(l2xi, l2xi).real)
        terms = BoundTerms(np.concatenate((y.conj().T.dot(ky) - c, c, pair.L1.matrix)),
                           residual, refusal,
                           _moment_variance(second, complex(np.vdot(xi, l2xi)),
                                            lambda: frobenius_norm(pair.L2.matrix)),
                           second, frobenius_norm(pair.L1.matrix))
        model._bound_terms.clear()
        model._bound_terms[pair] = terms
    return terms


def _state_figures(terms: BoundTerms, psi: Ket) -> tuple:
    """(<psi|d|psi>, <psi|c|psi>, 4 var(L1 x I + I x L2), 4 (<L1^2> + <L2^2>))
    in psi x xi, in one pass: the image of psi under the flat stack, read as three
    rows, times conj(psi), gives the three means, two ``.dot`` calls in all, and on
    a product state var(L1 x I + I x L2) is var(L1, psi) + var(L2, xi). The figures
    of one ket at a time are kept, keyed by the ket object itself (compared by
    identity, read-only, kept alive), so a hit is neither stale nor another ket's.
    The caller has checked psi."""
    figures = terms._state.get(psi)
    if figures is None:
        a = psi.amplitudes
        images = terms.stack.dot(a).reshape(3, -1)
        d, c, l1 = images.dot(a.conj()).tolist()
        la = images[2]
        second_l1 = float(np.vdot(la, la).real)
        var_l1 = _moment_variance(second_l1, l1, terms.norm_l1)
        figures = (d, c, 4.0 * var_l1 + 4.0 * terms.var_l2,
                   4.0 * (second_l1 + terms.second_l2))
        terms._state.clear()
        terms._state[psi] = figures
    return figures


def fundamental_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """Lower bound on the squared noise implied by the conservation law alone:
    |<psi|d|psi>|^2 / (4 var(L1, psi) + 4 var(L2, xi)) with d as in
    ``BoundTerms``, from one per-state pass shared with ``yanase_bound``."""
    terms = bound_terms(model, pair)
    model.check_object_state(psi)
    mean, _, den, scale = _state_figures(terms, psi)
    return _bounded_ratio(abs(mean) ** 2, den, scale)


def yanase_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """The conservation-law bound once the record observable commutes with L2:
    the numerator reduces to |<psi|[A, L1]|psi>|^2, over the same denominator."""
    terms = bound_terms(model, pair)
    if terms.yanase_refusal:
        raise PreconditionError(terms.yanase_refusal)
    model.check_object_state(psi)
    _, mean, den, scale = _state_figures(terms, psi)
    return _bounded_ratio(abs(mean) ** 2, den, scale)


def spin_bound(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> float:
    """Closed-form noise floor for the spin-1/2 scenario A = S_x, L1 = S_z,
    which needs the Yanase condition too. There [A, L1] = -i S_y, so the floor
    <S_y>^2 / (4 var(S_z, psi) + 4 var(L2, xi)) is the Yanase bound itself."""
    # imported here because spin imports this module
    from .spin import spin_operators

    check_pair(model, pair)
    sx, _, sz = spin_operators()
    # the first part of the scenario the model lacks
    gap = ("a two-level object" if model.object_dim != 2
           else "A = S_x" if frobenius_norm(model.A.matrix - sx.matrix) > EQUALITY_TOL
           else "L1 = S_z" if frobenius_norm(pair.L1.matrix - sz.matrix) > EQUALITY_TOL
           else None)
    if gap:
        raise PreconditionError(f"not the spin scenario: needs {gap}")
    return yanase_bound(model, pair, psi)


def optimal_spin_bound(delta_mz_sq: float) -> float:
    """Error floor 1 / (4 + 16 v) for probe conserved-quantity variance v; a
    negative or NaN v is refused."""
    if not delta_mz_sq >= 0.0:
        raise ValueError(f"variance must be nonnegative, got {delta_mz_sq!r}")
    return 1.0 / (4.0 + 16.0 * delta_mz_sq)


def bound_comparison(delta_mz_sq: float, mean_mz: float):
    """Old mean-square bound next to the tighter variance bound, for reporting.

    Returns (old, new) where old = 1 / (8 <m^2>) with an infinity sentinel at
    <m^2> = 0, and new = 1 / (2 + 8 v), twice the optimal spin floor.
    """
    new = 2.0 * optimal_spin_bound(delta_mz_sq)
    mean_square = delta_mz_sq + mean_mz ** 2
    old = math.inf if mean_square == 0.0 else 1.0 / (8.0 * mean_square)
    return old, new


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Every evaluated quantity for one model and one input state.

    yanase_bound, spin_bound and commutator_identity_residual are None when
    their preconditions (Yanase condition, spin scenario, conservation law)
    do not apply to the model at hand; null_reasons then maps each such
    field name to the message of the PreconditionError that the public function
    of the same name raises. ``violations`` reads the bounds at noise_scale(A, M).
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
    noise_scale: float
    null_reasons: dict = field(default_factory=dict)

    def violations(self) -> tuple:
        """Names of the applicable inequalities that fail, empty when all hold."""
        # (name, lhs, rhs, scale) of each inequality lhs >= rhs; the bounds need the ACL
        tests = [(name, self.eps_sq, getattr(self, name), self.noise_scale) for name in
                 ("fundamental_bound", "yanase_bound", "spin_bound")
                 if self.commutator_identity_residual is not None]
        lhs = self.uncertainty_lhs  # Robertson's relation, at the scale of its lhs
        tests.append(("uncertainty", lhs, self.uncertainty_rhs, lhs))
        return tuple(name for name, lhs, rhs, scale in tests
                     if rhs is not None and exceeds(rhs - lhs, INEQUALITY_SLACK, scale))


def bound_report(model: MeasurementModel, pair: ConservationPair, psi: Ket) -> BoundReport:
    """Evaluate everything that applies to (model, pair, psi) in one record.

    Each field is the value of the public function of the same name; one
    whose function raises PreconditionError is None, with the message as its
    null reason. The commutator identity is the chain check independent of
    the reduced form (see the module docstring).
    """
    terms = bound_terms(model, pair)
    eps = noise(model, psi)
    fb = fundamental_bound(model, pair, psi)
    optional, reasons = {}, {}
    for name, fn, args in (("yanase_bound", yanase_bound, (model, pair, psi)),
                           ("spin_bound", spin_bound, (model, pair, psi)),
                           ("commutator_identity_residual", commutator_identity_residual,
                            (model, pair))):
        try:
            optional[name] = fn(*args)
        except PreconditionError as exc:
            optional[name], reasons[name] = None, str(exc)
    lhs, rhs = uncertainty_pair(model, pair, psi)
    return BoundReport(
        eps_sq=eps * eps,
        fundamental_bound=fb,
        acl_residual=acl_residual(model, pair),
        yanase_residual=terms.yanase_residual,
        uncertainty_lhs=lhs,
        uncertainty_rhs=rhs,
        noise_scale=noise_scale(model.A, model.M),
        null_reasons=reasons,
        **optional,
    )
