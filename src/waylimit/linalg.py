"""Dense complex kets and tagged operators, and the tolerance table: every
numeric threshold of the package, defined once here.

Everything downstream (measurement models, conservation-law residuals and
bounds, the interaction optimizer) is built on these primitives. Tags are
checked where values enter; inside, a composite lift is a plain ``np.kron``,
and ``apply_on_probe`` applies a probe operator to composite columns.

Conventions, fixed once and asserted in the test suite:
  * hbar = 1 everywhere,
  * composite spaces are object (x) probe with the probe index varying
    fastest (the numpy.kron order),
  * values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Tolerances: every numeric threshold of the package, one constant per meaning.
# Two checks share a constant only when they share its value and its meaning.
# Each is the threshold at unit scale (as environment.tolerances reports it): a
# residual from operands of size s is zero up to tol x max(1, s) (``exceeds``).
# The bare constant is read only where the scale is fixed (a ket's norm, a
# probability, the spin-1/2 forms, the probe-state collapse) and by the search's
# stopping rules; README.md ("Tolerances") lists every check and its scale.
STRUCTURE_TOL = 1e-10              # residual of a structural identity or tag
ROUNDING_TOL = 1e-12               # zero up to rounding
EQUALITY_TOL = 1e-9                # two values treated as equal
INEQUALITY_SLACK = 1e-9            # slack on a theorem inequality before the alarm
PRECONDITION_TOL = 1e-9            # [M, L2] residual below which the Yanase condition holds
RATIO_FLOOR = 1e-14                # a bound's terms up to this x their second moments are zero
ACL_GATE_TOL = 1e-10               # [U, L1 x I + I x L2] residual below which the ACL holds
GENERATOR_COMMUTATION_TOL = 1e-11  # commutator bound of each commutant sector
TAIL_TOL = 1e-8                    # coherent-state mass a Fock cutoff may drop
GRADIENT_TOL = 1e-10               # gradient norm at which the optimizer stops
DESCENT_MARGIN = 1e-15             # decrease a line-search step must reach to be taken


def tolerance(tol: float, scale: float) -> float:
    """The threshold of a residual from operands of size scale: rounding grows with them."""
    return tol * max(1.0, scale)


def exceeds(residual: float, tol: float, scale=1.0) -> bool:
    """Whether a residual is not zero: past ``tolerance(tol, scale)``, NaN, or at
    an overflowing scale. scale is a number, or a function called only when the
    residual passes tol, so a residual that passes at unit scale costs no norm."""
    if residual <= tol:
        return False
    return not residual <= tolerance(tol, scale() if callable(scale) else scale) < math.inf


class DimensionMismatch(ValueError):
    """Operands live on spaces of different dimension."""


class StructureError(ValueError):
    """A declared structure tag (or normalization) fails its residual check."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class TheoremViolation(RuntimeError):
    """An inequality that holds mathematically failed numerically."""


def frobenius_norm(x) -> float:
    """Frobenius norm of an Operator or raw array (a vector's 2-norm).

    This is numpy's own formula from ``np.linalg.norm``, so the bits are the
    same, without the cost of its argument dispatch, which dominated the tag
    checks on small matrices; a plain float or complex array skips even the
    conversions, and a contiguous 1-D one the ``ravel``.
    """
    if type(x) is not np.ndarray or x.dtype.kind not in "fc":
        x = x.matrix if isinstance(x, Operator) else np.asarray(x)
        if x.dtype.kind not in "fc":
            x = x.astype(float)
    r = x if x.ndim == 1 and x.flags.c_contiguous else x.ravel(order="K")
    if r.dtype.kind == "c":
        re, im = r.real, r.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(r.dot(r))


@dataclass(frozen=True, eq=False)
class Ket:
    """A unit state vector, checked where it is built; unnormalized data are arrays."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.size == 0:
            raise ValueError("ket needs at least one amplitude")
        if not np.isfinite(amp).all():
            raise StructureError("ket amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        n = frobenius_norm(amp)
        if abs(n - 1.0) > ROUNDING_TOL:
            raise StructureError(f"ket has norm {n:.17g}, expected 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Operator:
    """A square complex matrix with declared structure tags.

    Tags are a subset of {"hermitian", "unitary"}; each tag is verified
    against its residual threshold at construction time, so a tagged operator
    can be trusted downstream.
    """

    matrix: np.ndarray = field(repr=False)
    structure: frozenset = frozenset()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"operator must be a nonempty square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise StructureError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

        tags = frozenset(self.structure)
        unknown = tags - {"hermitian", "unitary"}
        if unknown:
            raise ValueError(f"unknown structure tags: {sorted(unknown)}")
        object.__setattr__(self, "structure", tags)

        if "hermitian" in tags:
            r = frobenius_norm(m - m.conj().T)
            if exceeds(r, STRUCTURE_TOL, lambda: frobenius_norm(m)):
                raise StructureError(f"hermitian tag violated, residual {r:.3e}")
        if "unitary" in tags:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
                g = m.conj().T @ m
                g.reshape(-1)[::m.shape[0] + 1] -= 1.0  # U^dag U - I, on the diagonal only
                r = frobenius_norm(g)
            if exceeds(r, STRUCTURE_TOL):
                raise StructureError(f"unitary tag violated, residual {r:.3e}" if math.isfinite(r)
                                     else "values overflow the unitary check")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigh(self) -> tuple:
        """(w, V) of ``np.linalg.eigh`` of a hermitian-tagged operator, read-only. Kept
        from first use (the operator is frozen, its matrix read-only), so the record
        pointer, commutant sectors, outcome levels and yw_model check share it."""
        if "hermitian" not in self.structure:
            raise StructureError("eigh requires a hermitian-tagged operator")
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def has(self, tag: str) -> bool:
        return tag in self.structure

    @classmethod
    def hermitian(cls, matrix) -> "Operator":
        return cls(matrix, frozenset({"hermitian"}))

    @classmethod
    def unitary(cls, matrix) -> "Operator":
        return cls(matrix, frozenset({"unitary"}))


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim), frozenset({"hermitian", "unitary"}))


def tensor(a, b):
    """Kronecker product of two kets or two operators (first factor's index is slow)."""
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        # kron preserves each tag when both factors carry it
        return Operator(np.kron(a.matrix, b.matrix), a.structure & b.structure)
    raise TypeError("tensor expects two kets or two operators, not a mix")


def apply_on_probe(x: np.ndarray, cols: np.ndarray, object_dim: int) -> np.ndarray:
    """(I x X) cols for X on the probe and composite columns cols, by reshape."""
    return (x @ cols.reshape(object_dim, x.shape[0], -1)).reshape(cols.shape)


def _check_state_input(x: Operator, v: Ket, what: str):
    if not x.has("hermitian"):
        raise StructureError(f"{what} requires a hermitian-tagged operator")
    if x.dim != v.dim:
        raise DimensionMismatch(f"{what}: operator dim {x.dim} vs ket dim {v.dim}")


def expectation(x: Operator, v: Ket) -> float:
    """<v|X|v> for hermitian X, with the imaginary-residue alarm of ``_moment_variance``."""
    _check_state_input(x, v, "expectation")
    mean = complex(np.vdot(v.amplitudes, x.matrix @ v.amplitudes))
    if exceeds(abs(mean.imag), STRUCTURE_TOL, lambda: frobenius_norm(x.matrix)):
        raise StructureError(f"expectation has imaginary residue {mean.imag:.3e}")
    return mean.real


def variance(x: Operator, v: Ket) -> float:
    """<X^2> - <X>^2 in state v, clamped to zero within a small negative tolerance."""
    _check_state_input(x, v, "variance")
    return array_variance(x.matrix, v.amplitudes)


def array_variance(x: np.ndarray, v: np.ndarray) -> float:
    """``variance`` on plain arrays, for callers that have already checked that
    x is hermitian, that the dimensions agree and that v is a unit vector; the
    imaginary-residue and negative-clamp alarms stay."""
    xv = x @ v
    return _moment_variance(float(np.vdot(xv, xv).real), complex(np.vdot(v, xv)), x)


def _moment_variance(second: float, mean: complex, *parts: np.ndarray) -> float:
    """second - mean^2 from ||X v||^2 and <v|X|v>, X hermitian and a sum of parts
    up to unitaries and kron with identities. The mean's imaginary residue is an
    alarm unless zero at the scale sum ||part||_F, a bound on ||X||, with which
    it rounds; a negative variance is clamped to 0 when zero at the scale of the
    second moment, with which it rounds, else an alarm."""
    if exceeds(abs(mean.imag), STRUCTURE_TOL, lambda: sum(map(frobenius_norm, parts))):
        raise StructureError(f"variance mean has imaginary residue {mean.imag:.3e}")
    var = second - mean.real ** 2
    if var < 0.0:
        if exceeds(-var, ROUNDING_TOL, second):
            raise ArithmeticError(f"variance {var:.3e} negative beyond tolerance")
        var = 0.0
    return var


def commutator(x: Operator, y: Operator) -> Operator:
    """XY - YX, untagged."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"commutator: dims {x.dim} vs {y.dim}")
    return Operator(x.matrix @ y.matrix - y.matrix @ x.matrix)


def spectrum_runs(w: np.ndarray, tol: float) -> tuple:
    """(start, stop) index ranges of the runs of an ascending spectrum w: a run ends
    where the next value lies more than ``tolerance(tol, s)`` above, s the largest
    |value|, so gaps within that threshold chain and one run may span more than it."""
    cuts = (np.flatnonzero(np.diff(w) > tolerance(tol, max(-w[0], w[-1]))) + 1).tolist()
    return tuple(zip([0, *cuts], [*cuts, len(w)]))


def random_ket(dim: int, rng: np.random.Generator) -> Ket:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(v / frobenius_norm(v))


def random_hermitian(dim: int, rng: np.random.Generator) -> Operator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) * (1.0 / (2.0 * np.sqrt(dim)))
    return Operator.hermitian(h)


def random_unitary(dim: int, rng: np.random.Generator) -> Operator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return Operator.unitary(q * phases)
