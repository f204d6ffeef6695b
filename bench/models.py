"""Seeded inputs for the benchmark and a dense oracle that checks outputs.

The oracle uses plain ``np.kron`` formulas on raw arrays and shares no code
with waylimit, so a faster implementation that drifts shows up as a failure.
"""

from __future__ import annotations

import math

import numpy as np

# Acceptance-criterion-1 mix, stratified so that every batch holds each
# (object dimension 2..4, probe dimension 2..8) pair once and every seed gets
# the same batches; only matrices and states change with the seed. Half the
# batches use degenerate ladder spectra for L2, and in half of them the
# two-level objects are in the spin scenario (A = S_x, L1 = S_z).
DIMS = tuple((od, pd) for od in (2, 3, 4) for pd in range(2, 9))
BATCH_KINDS = ((True, True), (True, False), (False, True), (False, False))  # (ladder, spin)
BATCHES = tuple(tuple((od, pd, ladder, spin and od == 2) for od, pd in DIMS)
                for ladder, spin in BATCH_KINDS)

ORACLE_TOL = 1e-9
_FLOOR = 1e-14  # degenerate-denominator convention of waylimit.bounds


def conservative_model_arrays(w, rng, od, pd, ladder, spin):
    """Raw arrays of one exactly conservative model, built like a user would:
    U from the commutant map of L1 x I + I x L2, M in the commutant of L2.

    This follows tests/helpers.random_conservative_model draw for draw, but is
    kept as a copy so that edits to the test helpers cannot change the
    benchmark's inputs for a given seed."""
    if spin:
        sx, _, sz = w.spin_operators()
        a, l1 = sx, sz
    else:
        a = w.random_hermitian(od, rng)
        l1 = w.random_hermitian(od, rng)
    vals = (pd - 1) / 2.0 - np.arange(pd) if ladder else rng.uniform(-1.0, 1.0, size=pd)
    vbasis = w.random_unitary(pd, rng).matrix
    l2 = w.Operator.hermitian((vbasis * vals) @ vbasis.conj().T)
    com_l2 = w.commutant_basis(l2)
    coeff = rng.standard_normal(com_l2.size)
    m = sum(c * g.matrix for c, g in zip(coeff, com_l2.generators))
    m = (m + m.conj().T) / 2.0
    pair = w.ConservationPair(L1=l1, L2=l2)
    basis = w.commutant_basis(pair.total())
    u = w.conservative_unitary(basis, rng.uniform(-np.pi, np.pi, size=basis.size))
    xi = w.random_ket(pd, rng)
    return {"od": od, "pd": pd, "A": a.matrix, "L1": l1.matrix, "L2": l2.matrix,
            "M": m, "U": u.matrix, "xi": xi.amplitudes}


def load_model(w, raw):
    """Build the tagged waylimit objects of a model from its raw arrays."""
    model = w.MeasurementModel(raw["od"], raw["pd"], w.Ket(raw["xi"]),
                               w.Operator.unitary(raw["U"]),
                               w.Operator.hermitian(raw["M"]),
                               w.Operator.hermitian(raw["A"]))
    return model, w.ConservationPair(L1=w.Operator.hermitian(raw["L1"]),
                                     L2=w.Operator.hermitian(raw["L2"]))


def model_arrays(model, pair):
    """Raw arrays of a waylimit model, for the oracle."""
    return {"od": model.object_dim, "pd": model.probe_dim, "A": model.A.matrix,
            "L1": pair.L1.matrix, "L2": pair.L2.matrix, "M": model.M.matrix,
            "U": model.U.matrix, "xi": model.xi.amplitudes}


def _ratio(num, den):
    if den < _FLOOR:
        return 0.0 if num < _FLOOR else math.inf
    return num / den


def _var(op, v):
    mean = np.vdot(v, op @ v).real
    return np.vdot(op @ v, op @ v).real - mean ** 2


def oracle_pair(raw, psi):
    """(eps^2, fundamental bound, Yanase bound) from dense kron formulas."""
    io, ip = np.eye(raw["od"]), np.eye(raw["pd"])
    u = raw["U"]
    im, il2 = np.kron(io, raw["M"]), np.kron(io, raw["L2"])
    ai, l1i = np.kron(raw["A"], ip), np.kron(raw["L1"], ip)
    v = np.kron(psi, raw["xi"])
    n = u.conj().T @ im @ u - ai
    eps_sq = np.linalg.norm(n @ v) ** 2
    object_term = ai @ l1i - l1i @ ai
    rhs = u.conj().T @ (im @ il2 - il2 @ im) @ u - object_term
    den = 4.0 * _var(l1i, v) + 4.0 * _var(il2, v)
    fb = _ratio(abs(np.vdot(v, rhs @ v)) ** 2, den)
    yb = _ratio(abs(np.vdot(v, object_term @ v)) ** 2, den)
    return eps_sq, fb, yb


def oracle_acl(raw):
    """Frobenius norm of [U, L1 x I + I x L2]."""
    l_total = np.kron(raw["L1"], np.eye(raw["pd"])) + np.kron(np.eye(raw["od"]), raw["L2"])
    return float(np.linalg.norm(raw["U"] @ l_total - l_total @ raw["U"]))


def matches(a, b, tol=ORACLE_TOL):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))
