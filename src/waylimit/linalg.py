"""Dense complex kets and tagged operators, the spectral toolkit, and the
tolerance table: every numeric threshold of the package, defined once here.

Everything downstream (measurement models, conservation-law residuals and
bounds, the interaction optimizer) is built on these primitives.

Conventions, fixed once and asserted in the test suite:
  * hbar = 1 everywhere,
  * composite spaces are object (x) probe with the probe index varying
    fastest (the numpy.kron order),
  * values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerances: every numeric threshold of the package, one constant per meaning.
# Two checks share a constant only when they share its value and its meaning;
# README.md ("Tolerances") lists the checks that read each one.
STRUCTURE_TOL = 1e-10              # residual of a structural identity or tag
ROUNDING_TOL = 1e-12               # zero up to rounding
EQUALITY_TOL = 1e-9                # two values treated as equal
INEQUALITY_SLACK = 1e-9            # slack on a theorem inequality before the alarm
PRECONDITION_TOL = 1e-9            # residual below which a precondition holds
RATIO_FLOOR = 1e-14                # a ratio's denominator or numerator below this is zero
ACL_GATE_TOL = 1e-10               # conservation residual below which reports check bounds
GENERATOR_COMMUTATION_TOL = 1e-11  # commutator bound of each commutant sector
TAIL_TOL = 1e-8                    # coherent-state mass a Fock cutoff may drop
GRADIENT_TOL = 1e-10               # gradient norm at which the optimizer stops
DESCENT_MARGIN = 1e-15             # decrease a line-search step must reach to be taken


class DimensionMismatch(ValueError):
    """Operands live on spaces of different dimension."""


class StructureError(ValueError):
    """A declared structure tag (or normalization) fails its residual check."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class TheoremViolation(RuntimeError):
    """An inequality that holds mathematically failed numerically."""


def frobenius_norm(x) -> float:
    """Frobenius norm of an Operator or raw matrix."""
    m = x.matrix if isinstance(x, Operator) else np.asarray(x)
    return float(np.linalg.norm(m))


@dataclass(frozen=True, eq=False)
class Ket:
    """A state vector; ``normalized=False`` marks intentionally unnormalized data."""

    amplitudes: np.ndarray = field(repr=False)
    normalized: bool = True

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.size == 0:
            raise ValueError("ket needs at least one amplitude")
        if not np.all(np.isfinite(amp)):
            raise StructureError("ket amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        if self.normalized:
            n = float(np.linalg.norm(amp))
            if abs(n - 1.0) > ROUNDING_TOL:
                raise StructureError(f"ket tagged normalized has norm {n:.17g}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))


@dataclass(frozen=True, eq=False)
class Operator:
    """A square complex matrix with declared structure tags.

    Tags are a subset of {"hermitian", "unitary", "projection"}; each tag is
    verified against its residual threshold at construction time, so a tagged
    operator can be trusted downstream. "projection" implies "hermitian".
    """

    matrix: np.ndarray = field(repr=False)
    structure: frozenset = frozenset()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"operator must be a nonempty square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise StructureError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

        tags = frozenset(self.structure)
        unknown = tags - {"hermitian", "unitary", "projection"}
        if unknown:
            raise ValueError(f"unknown structure tags: {sorted(unknown)}")
        if "projection" in tags:
            tags = tags | {"hermitian"}
        object.__setattr__(self, "structure", tags)

        if "hermitian" in tags:
            r = frobenius_norm(m - m.conj().T)
            if r > STRUCTURE_TOL:
                raise StructureError(f"hermitian tag violated, residual {r:.3e}")
        if "unitary" in tags:
            r = frobenius_norm(m.conj().T @ m - np.eye(m.shape[0]))
            if r > STRUCTURE_TOL:
                raise StructureError(f"unitary tag violated, residual {r:.3e}")
        if "projection" in tags:
            r = frobenius_norm(m @ m - m)
            if r > STRUCTURE_TOL:
                raise StructureError(f"projection tag violated, residual {r:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def has(self, tag: str) -> bool:
        return tag in self.structure

    @classmethod
    def hermitian(cls, matrix) -> "Operator":
        return cls(matrix, frozenset({"hermitian"}))

    @classmethod
    def unitary(cls, matrix) -> "Operator":
        return cls(matrix, frozenset({"unitary"}))

    @classmethod
    def projection(cls, matrix) -> "Operator":
        return cls(matrix, frozenset({"projection", "hermitian"}))

    @classmethod
    def plain(cls, matrix) -> "Operator":
        return cls(matrix)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Merged eigenvalues (ascending) with their orthogonal projectors."""

    eigenvalues: tuple
    projectors: tuple

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.projectors) or not self.projectors:
            raise ValueError("eigenvalues and projectors must pair up")
        dim = self.projectors[0].dim
        total = np.zeros((dim, dim), dtype=np.complex128)
        for p in self.projectors:
            if p.dim != dim:
                raise DimensionMismatch("projectors live on different spaces")
            if not p.has("projection"):
                raise StructureError("spectral projectors must carry the projection tag")
            total = total + p.matrix
        r = frobenius_norm(total - np.eye(dim))
        if r > STRUCTURE_TOL:
            raise StructureError(f"spectral projectors do not resolve the identity, residual {r:.3e}")
        for i, p in enumerate(self.projectors):
            for q in self.projectors[i + 1:]:
                r = frobenius_norm(p.matrix @ q.matrix)
                if r > STRUCTURE_TOL:
                    raise StructureError(f"spectral projectors not mutually orthogonal, residual {r:.3e}")

    @property
    def dim(self) -> int:
        return self.projectors[0].dim


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim), frozenset({"hermitian", "unitary"}))


def tensor(a, b):
    """Kronecker product of two kets or two operators (first factor's index is slow)."""
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes),
                   normalized=a.normalized and b.normalized)
    if isinstance(a, Operator) and isinstance(b, Operator):
        # kron preserves each of the three tags when both factors carry it
        return Operator(np.kron(a.matrix, b.matrix), a.structure & b.structure)
    raise TypeError("tensor expects two kets or two operators, not a mix")


def _check_state_input(x: Operator, v: Ket, what: str):
    if not x.has("hermitian"):
        raise StructureError(f"{what} requires a hermitian-tagged operator")
    if x.dim != v.dim:
        raise DimensionMismatch(f"{what}: operator dim {x.dim} vs ket dim {v.dim}")
    if not v.normalized:
        raise StructureError(f"{what} requires a normalized ket")


def expectation(x: Operator, v: Ket) -> float:
    """<v|X|v> for hermitian X; the imaginary residue is checked and dropped."""
    _check_state_input(x, v, "expectation")
    val = complex(np.vdot(v.amplitudes, x.matrix @ v.amplitudes))
    if abs(val.imag) > STRUCTURE_TOL:
        raise StructureError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def variance(x: Operator, v: Ket) -> float:
    """<X^2> - <X>^2 in state v, clamped to zero within a small negative tolerance."""
    _check_state_input(x, v, "variance")
    return array_variance(x.matrix, v.amplitudes)


def array_variance(x: np.ndarray, v: np.ndarray) -> float:
    """``variance`` on plain arrays, for callers that have already checked that
    x is hermitian, that the dimensions agree and that v is normalized; the
    imaginary-residue and negative-clamp alarms stay."""
    xv = x @ v
    second = float(np.vdot(xv, xv).real)
    mean = complex(np.vdot(v, xv))
    if abs(mean.imag) > STRUCTURE_TOL:
        raise StructureError(f"variance mean has imaginary residue {mean.imag:.3e}")
    var = second - mean.real ** 2
    if var < 0.0:
        if var < -ROUNDING_TOL:
            raise ArithmeticError(f"variance {var:.3e} negative beyond tolerance")
        var = 0.0
    return var


def commutator(x: Operator, y: Operator) -> Operator:
    """XY - YX, untagged."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"commutator: dims {x.dim} vs {y.dim}")
    return Operator(x.matrix @ y.matrix - y.matrix @ x.matrix)


def spectrum_runs(w: np.ndarray, tol: float) -> tuple:
    """(start, stop) index ranges of the runs of an ascending spectrum w: a run
    ends where the next value lies more than tol above, so gaps of at most tol
    chain and one run may span more than tol."""
    edges = [0, *(np.flatnonzero(np.diff(w) > tol) + 1).tolist(), len(w)]
    return tuple(zip(edges[:-1], edges[1:]))


def spectral(x: Operator) -> SpectralDecomposition:
    """Eigendecomposition with near-degenerate eigenvalues merged into one projector."""
    if not x.has("hermitian"):
        raise StructureError("spectral requires a hermitian-tagged operator")
    w, vecs = np.linalg.eigh(x.matrix)
    values = []
    projectors = []
    for start, stop in spectrum_runs(w, EQUALITY_TOL):
        block = vecs[:, start:stop]
        values.append(float(np.mean(w[start:stop])))
        projectors.append(Operator.projection(block @ block.conj().T))
    recon = sum(v * p.matrix for v, p in zip(values, projectors))
    r = frobenius_norm(recon - x.matrix)
    if r > EQUALITY_TOL:
        raise ArithmeticError(f"spectral reconstruction residual {r:.3e}")
    return SpectralDecomposition(tuple(values), tuple(projectors))


def random_ket(dim: int, rng: np.random.Generator) -> Ket:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(v / np.linalg.norm(v))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> Operator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) * (scale / (2.0 * np.sqrt(dim)))
    return Operator.hermitian(h)


def random_unitary(dim: int, rng: np.random.Generator) -> Operator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return Operator.unitary(q * phases)
