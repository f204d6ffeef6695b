"""Search over conservation-respecting interactions for low-noise readouts.

Feasibility is exact by construction: interactions are generated as
exp(i sum_k theta_k G_k) where the G_k span the hermitian commutant of the
total conserved quantity, so every candidate conserves it to rounding. The
commutant is block diagonal in that quantity's eigenbasis V1 x V2, the kron
of the eigenvectors of L1 and L2, so no D x D matrix of it is needed; theta
are coordinates in a basis of V, its sectors and per-size generator blocks.
An interaction is built from one small eigendecomposition per eigenspace,
and the same decompositions give the exact gradient (Daleckii-Krein divided
differences). The search is plain local descent on that gradient with
seeded random restarts, checked on every accepted iterate against the Yanase
floor, computed once per probe state; the lower bounds are the certificate
on the other side, so no global-optimality claim is needed or made.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from functools import cache, cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import (
    ConservationPair,
    noise_scale,
    optimal_spin_bound,
    require_yanase,
    yanase_bound,
    yanase_residual,
)
from .linalg import (
    DESCENT_MARGIN,
    DimensionMismatch,
    EQUALITY_TOL,
    GENERATOR_COMMUTATION_TOL,
    GRADIENT_TOL,
    INEQUALITY_SLACK,
    Ket,
    Operator,
    ROUNDING_TOL,
    TheoremViolation,
    apply_on_probe,
    exceeds,
    frobenius_norm,
    spectrum_runs,
    variance,
)
from .measurement import MeasurementModel, noise, sup_noise
from .oscillator import (
    CoherentAmplitudes,
    FockSpace,
    fock_cutoff,
    m_z_operator,
    two_mode_coherent_state,
)
from .spin import named_state, spin_operators

INIT_STEP = 0.5
MAX_BACKTRACKS = 40
MAX_CUTOFF = 8  # largest oscillator n_max with full interactions (D = 162, 822 parameters)
# (w, V, column norms, residuals) of zero on one dimension: the second factor
# with which commutant_basis runs a single operator through the pair form
_ZERO_FACTOR = (np.zeros(1), np.ones((1, 1)), np.ones(1), np.zeros(1))


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Hermitian commutant of a conserved operator L, held in L's eigenbasis.

    ``vectors`` are eigenvectors of L as columns and ``sectors`` the
    ``(start, stop)`` column ranges of its eigenspaces. ``values`` and
    ``residuals`` give, per column k, an eigenvalue lam_k and a bound res_k
    on ||L v_k - lam_k v_k||; the constructor's check reads them and does not
    keep them. An operator commutes with L exactly when it is block diagonal
    in this basis. The generators are, sector by sector, a
    Frobenius-orthonormal hermitian basis of the d x d block, mapped back
    with the sector's vectors: for each i, |i><i| and then, for each j > i,
    (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2. The optimizer
    works on the blocks; the dense ``generators`` are built only when asked for.
    """

    vectors: np.ndarray = field(repr=False)
    sectors: tuple
    values: InitVar[np.ndarray]
    residuals: InitVar[np.ndarray]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, values, residuals):
        v = np.array(self.vectors, dtype=np.complex128)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        edges = [0] + [stop for _, stop in self.sectors]
        if v.shape != (edges[-1], edges[-1]) or any(b <= a for a, b in zip(edges, edges[1:])) \
                or [start for start, _ in self.sectors] != edges[:-1]:
            raise ValueError("sectors must tile the columns of a square eigenvector matrix")
        for name, given in (("values", values), ("residuals", residuals)):
            if np.shape(given) != (len(v),):
                raise ValueError(f"{name} has shape {np.shape(given)}, expected {(len(v),)}")
        bound = _sector_commutator_bounds(v, edges, values, residuals)
        worst = int(bound.argmax())  # the first NaN, if there is one
        if exceeds(bound[worst], GENERATOR_COMMUTATION_TOL, lambda: np.abs(values).max()):
            raise ValueError(f"sector {worst} fails to commute, "
                             f"residual bound {bound[worst]:.3e}")

    @cached_property
    def size(self) -> int:
        return sum((stop - start) ** 2 for start, stop in self.sectors)

    @cached_property
    def generators(self) -> tuple:
        out = []
        for start, stop in self.sectors:
            vs = self.vectors[:, start:stop]
            for e in _sector_generators(stop - start):
                # @, not .dot: a 1 x 1 sector's outer product rounds apart under .dot
                out.append(Operator.hermitian(vs @ e @ vs.conj().T))
        return tuple(out)

    @cached_property
    def _groups(self) -> tuple:
        """Sectors grouped by size d, one batched eigh per group: (d, columns
        (n, d), theta indices (n, d^2), generator blocks flattened to (d^2, d^2),
        and the sectors' eigenvectors as a contiguous (n, D, d) stack). The index
        tables come from array arithmetic on the sector edges; each table is built
        once per basis, on first use, is read-only, and copies no other table."""
        edges = np.array([0] + [stop for _, stop in self.sectors])
        starts, sizes = edges[:-1], edges[1:] - edges[:-1]
        offsets = (sizes ** 2).cumsum() - sizes ** 2
        groups = []
        for d in sorted(set(sizes.tolist())):
            members = sizes == d
            cols = starts[members][:, None] + np.arange(d)
            params = offsets[members][:, None] + np.arange(d * d)
            gens = _sector_generators(d).reshape(d * d, d * d)
            vs = np.ascontiguousarray(self.vectors[:, cols].transpose(1, 0, 2))
            for table in (cols, params, vs):
                table.setflags(write=False)
            groups.append((d, cols, params, gens, vs))
        return tuple(groups)

    def _exponential(self, theta: np.ndarray):
        """exp(i sum theta_k G_k) = V (+)_s exp(iH_s) V^dag, V^dag formed here:
        (per group, the eigenvalues and eigenvectors of the stacked blocks H_s;
        U as a unitary-tagged Operator). The last result is kept, so a repeated
        theta (a soundness check or the final model at an evaluated point) and
        the gradient there reuse it, and U's O(D^3) unitary check runs once per
        distinct theta."""
        key = theta.tobytes()
        if key not in self._memo:
            vk = np.empty(self.vectors.shape, dtype=np.complex128)
            blocks = []
            for d, cols, params, gens, vs in self._groups:
                lam, q = np.linalg.eigh(theta[params].dot(gens).reshape(-1, d, d))
                k = (q * np.exp(1j * lam)[:, None, :]) @ q.conj().transpose(0, 2, 1)
                vk[:, cols] = np.matmul(vs, k).transpose(1, 0, 2)
                blocks.append((lam, q))
            self._memo.clear()
            self._memo[key] = (tuple(blocks), Operator.unitary(vk.dot(self.vectors.conj().T)))
        return self._memo[key]

    def _gradient(self, theta: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Gradient in theta of Re tr(Gamma^dag U(theta)) for Gamma = left @ right^dag.

        Daleckii-Krein: with H_s = Q diag(lam) Q^dag, d exp(iH_s) =
        Q (F o (Q^dag dH_s Q)) Q^dag, F holding the divided differences of
        exp(ix). Only the diagonal blocks of V^dag Gamma V enter.
        """
        blocks, _ = self._exponential(theta)
        vh = self.vectors.conj().T
        lt, rt = vh.dot(left), vh.dot(right)
        grad = np.empty(self.size)
        for (d, cols, params, gens, _), (lam, q) in zip(self._groups, blocks):
            qh = q.conj().transpose(0, 2, 1)
            gamma = lt[cols] @ rt[cols].conj().transpose(0, 2, 1)
            a, b = lam[:, :, None], lam[:, None, :]
            # (e^{ia} - e^{ib}) / (a - b) = i e^{i(a+b)/2} sinc((a-b)/2), which
            # is i e^{ia} on the diagonal without a separate case
            f = 1j * np.exp(0.5j * (a + b)) * np.sinc((a - b) / (2.0 * np.pi))
            p = q @ (f.conj() * (qh @ gamma @ q)) @ qh
            grad[params] = p.reshape(len(cols), d * d).dot(gens.conj().T).real
        return grad


@cache
def _sector_generators(d: int) -> np.ndarray:
    """The d^2 generators of one d x d sector block, in the basis's order.

    A pure table of d, built once per size and shared read-only by every basis.
    """
    e = np.zeros((d * d, d, d), dtype=np.complex128)
    k = 0
    for i in range(d):
        e[k, i, i] = 1.0
        k += 1
        for j in range(i + 1, d):
            e[k, i, j] = e[k, j, i] = 1.0 / np.sqrt(2.0)
            e[k + 1, i, j] = 1j / np.sqrt(2.0)
            e[k + 1, j, i] = -1j / np.sqrt(2.0)
            k += 2
    e.setflags(write=False)
    return e


def _sector_commutator_bounds(v: np.ndarray, edges: list, values, residuals) -> np.ndarray:
    """Per sector s, a bound on the commutator of L with each of its generators.

    With c_s the mean of the sector's values and R_s = L V_s - c_s V_s,
    [L, V_s E V_s^dag] = R_s E V_s^dag - V_s E R_s^dag; every generator's
    block E has spectral norm <= 1, so 2 ||R_s||_F ||V_s||_F bounds them all.
    Column k of R_s is (L v_k - lam_k v_k) + (lam_k - c_s) v_k, so
    ||R_s||_F^2 <= sum_k (res_k + |lam_k - c_s| ||v_k||)^2, with no L in sight.
    """
    edges = np.asarray(edges)
    starts, sizes = edges[:-1], edges[1:] - edges[:-1]
    c = np.add.reduceat(values, starts) / sizes
    norms = _column_norms(v)
    cols = residuals + np.abs(values - c.repeat(sizes)) * norms
    return 2.0 * np.sqrt(np.add.reduceat(cols ** 2, starts) * np.add.reduceat(norms ** 2, starts))


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The column norms of a complex matrix by the formula ``np.linalg.norm`` uses
    along one axis, so the bits are the same, without the cost of its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def _eigh_residuals(l: Operator) -> tuple:
    """The eigendecomposition w, V that a hermitian L keeps (``Operator.eigh``),
    with the norms of V's columns and of the residual columns of L V - V diag(w)."""
    w, v = l.eigh
    return w, v, _column_norms(v), _column_norms(l.matrix.dot(v) - v * w)


def commutant_basis(conserved: Operator | ConservationPair) -> CommutantBasis:
    """Hermitian commutant of a hermitian operator, one d^2 block of generators
    per eigenspace.

    Given a ConservationPair, L = L1 x I + I x L2 has the eigenbasis V1 x V2,
    the kron of the eigenvectors of L1 and L2 with eigenvalues w1[i] + w2[j],
    sorted stably: no D x D L, and no eigh of its own. Each factor's w and V
    are the decomposition it keeps (``Operator.eigh``), so a probe L2 that
    ``record_observable`` has read is not decomposed again. A single operator
    is L1, with L2 = 0 on one dimension (``_ZERO_FACTOR``). As
    L (v1_i x v2_j) - (w1[i] + w2[j]) v1_i x v2_j = e1_i x v2_j + v1_i x e2_j
    exactly, with e = L V - V diag(w) per factor, column (i, j) has residual
    at most ||e1_i|| ||v2_j|| + ||v1_i|| ||e2_j||: the sector check certifies
    the factors, not the assembly of V. Sectors are the runs of eigenvalues
    within ROUNDING_TOL at the scale of the largest |eigenvalue|.
    """
    if isinstance(conserved, ConservationPair):
        factors = map(_eigh_residuals, (conserved.L1, conserved.L2))
    elif conserved.has("hermitian"):
        factors = (_eigh_residuals(conserved), _ZERO_FACTOR)
    else:
        raise ValueError("commutant_basis needs a hermitian operator")
    (w1, v1, n1, r1), (w2, v2, n2, r2) = factors
    sums = np.add.outer(w1, w2).ravel()
    order = sums.argsort(kind="stable")
    values = sums[order]
    # column k is v1_i x v2_j for (i, j) = divmod(order[k], d_p): the
    # columns of kron(v1, v2)[:, order], bit for bit, in one pass
    i, j = np.divmod(order, len(w2))
    v = (v1[:, None, i] * v2[None, :, j]).reshape(len(order), len(order))
    runs = spectrum_runs(values, ROUNDING_TOL)
    return CommutantBasis(v, runs, values, r1[i] * n2[j] + n1[i] * r2[j])


def conservative_unitary(basis: CommutantBasis, theta: Sequence[float]) -> Operator:
    """exp(i sum theta_k G_k) = V (+)_s exp(i H_s) V^dag, one small eigh per
    sector; conserves the basis's operator by construction. The unitary tag is
    checked when the basis first builds it; at the basis's last theta, the
    same object is returned."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (basis.size,):
        raise ValueError(f"theta has length {theta.size}, expected {basis.size}")
    return basis._exponential(theta)[1]


def hermitian_coordinates(basis: CommutantBasis, h: Operator) -> np.ndarray:
    """Coefficients of a hermitian matrix in the basis; fails if it lies outside:
    V^dag H V projected on each sector's generator blocks, for a unitary V,
    leaves ||sum theta_k G_k - H||, zero at the scale ||H||_F."""
    rest = basis.vectors.conj().T.dot(h.matrix).dot(basis.vectors)
    theta = np.empty(basis.size)
    for d, cols, params, gens, _ in basis._groups:
        block = (cols[:, :, None], cols[:, None, :])
        theta[params] = rest[block].reshape(len(cols), d * d).dot(gens.conj().T).real
        rest[block] -= theta[params].dot(gens).reshape(-1, d, d)
    r = frobenius_norm(rest)
    if exceeds(r, EQUALITY_TOL, lambda: frobenius_norm(h.matrix)):
        raise ValueError(f"matrix lies outside the commutant span, residual {r:.3e}")
    return theta


def record_observable(l2: Operator) -> Operator:
    """Parity pointer for a probe: +/-1/2 alternating up the levels of L2.

    A function of L2, so the Yanase condition holds by construction. The
    alternation puts a sign boundary in every conserved sector, which lets
    larger probes push the achievable noise down; a single-step sign pattern
    pins the optimum at 1/4 regardless of size. The eigendecomposition is
    the one L2 keeps (``Operator.eigh``), so ``commutant_basis`` of a pair
    with this L2 reads it again and does not repeat it."""
    w, vecs = l2.eigh
    runs = spectrum_runs(w, EQUALITY_TOL)
    level = np.arange(len(runs)).repeat([stop - start for start, stop in runs])
    # anchor +1/2 at the top of the spectrum; for a spin-1/2 probe this
    # reproduces the spin itself
    f = 0.5 * (-1.0) ** (level[-1] - level)
    return Operator.hermitian((vecs * f).dot(vecs.conj().T))


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 80
    seed: int = 0
    objective: str = "state"          # "state" minimizes eps(psi)^2, "sup" the worst case
    optimize_xi: bool = False
    theta0: Optional[tuple] = None    # None means the zero vector (U = identity)

    def __post_init__(self):
        if self.objective not in ("state", "sup"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True, eq=False)
class OptimizationRun:
    """Record of one optimization: winning restart plus per-restart summaries.
    The fields are in the order in which ``waylimit optimize`` writes them."""

    seed: int
    objective: str
    final_objective: float
    bound_value: float
    converged: bool
    theta: np.ndarray
    objective_trace: tuple
    restart_final_objectives: tuple
    result_model: MeasurementModel


def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                       step: float) -> np.ndarray:
    """Central-difference gradient, evaluated coordinate by coordinate in order."""
    g = np.zeros_like(x)
    for i in range(x.size):
        forward = x.copy()
        forward[i] += step
        backward = x.copy()
        backward[i] -= step
        g[i] = (f(forward) - f(backward)) / (2.0 * step)
    return g


class _Problem:
    """Fixed data of one optimization: spaces, observables, commutant basis."""

    def __init__(self, a: Operator, pair: ConservationPair, m: Operator,
                 xi0: Ket, psi: Ket, config: OptimizerConfig):
        require_yanase(yanase_residual(m, pair.L2), m, pair.L2)
        self.a = a
        self.pair = pair
        self.m = m
        self.xi0 = xi0
        self.psi = psi
        self.config = config
        self.object_dim = a.dim
        self.probe_dim = pair.L2.dim
        self.basis = commutant_basis(pair)
        self.n_theta = self.basis.size
        self.n_params = self.n_theta + (2 * self.probe_dim if config.optimize_xi else 0)
        self._models = {}
        self._floors = {}
        self._noise_scale = noise_scale(a, m)  # the soundness check's scale; A and M are fixed
        # the search's scale (RMS |a| + RMS |m|)^2: degree 2 in A, M; 1 for S_x and a record
        self._descent_scale = (frobenius_norm(a) / math.sqrt(a.dim)
                               + frobenius_norm(m) / math.sqrt(m.dim)) ** 2

    def _raw_xi(self, x: np.ndarray) -> np.ndarray:
        return x[self.n_theta:self.n_theta + self.probe_dim] \
            + 1j * x[self.n_theta + self.probe_dim:]

    def split(self, x: np.ndarray):
        theta = x[:self.n_theta]
        if not self.config.optimize_xi:
            return theta, self.xi0
        raw = self._raw_xi(x)
        nrm = frobenius_norm(raw)
        if nrm < ROUNDING_TOL:
            raise ArithmeticError("probe-state parameters collapsed to zero")
        return theta, Ket(raw / nrm)

    def model_at(self, x: np.ndarray) -> MeasurementModel:
        """The model at x. The last one is kept, keyed by x, so the soundness
        check and the final model at an evaluated point reuse its reduced form
        and bound terms. conservative_unitary is still called every time:
        bench/run.py infers line-search evaluations from its calls."""
        u = conservative_unitary(self.basis, x[:self.n_theta])
        key = x.tobytes()
        if key not in self._models:
            self._models.clear()
            self._models[key] = MeasurementModel(self.object_dim, self.probe_dim,
                                                 self.split(x)[1], u, self.m, self.a)
        return self._models[key]

    def evaluate(self, x: np.ndarray):
        """The objective at x and the model it was read from."""
        model = self.model_at(x)
        if self.config.objective == "sup":
            s = sup_noise(model)
            return s * s, model
        e = noise(model, self.psi)
        return e * e, model

    def gradient(self, x: np.ndarray, model: MeasurementModel) -> np.ndarray:
        """Gradient of the objective at x, where model is model_at(x).

        Both objectives are ||N v||^2 with v = phi x xi: phi is psi for
        "state"; for "sup" (Hellmann-Feynman) it is the top eigenvector of
        W^dag W, and the gradient is averaged over that eigenspace when the
        top eigenvalue is degenerate, which is the limit of central
        differences at a double eigenvalue. With n = N v and U varying,
        d||N v||^2 = Re tr(Gamma^dag dU), Gamma = 2((I x M) U v n^dag +
        (I x M) U n v^dag); the basis turns Gamma into the theta gradient.
        """
        theta, xi = x[:self.n_theta], model.xi
        red = model.reduced
        if self.config.objective == "sup":
            lam, vecs = np.linalg.eigh(red.w.conj().T.dot(red.w))
            phis = vecs[:, spectrum_runs(lam, EQUALITY_TOL)[-1][0]:]
        else:
            phis = self.psi.amplitudes[:, None]
        count = phis.shape[1]
        do, dp = self.object_dim, self.probe_dim
        u, m = model.U.matrix, self.m.matrix
        n = red.w.dot(phis)
        m_un = apply_on_probe(m, u.dot(n), do)
        v = (phis[:, None, :] * xi.amplitudes[None, :, None]).reshape(-1, count)
        grad = self.basis._gradient(
            theta, (2.0 / count) * np.hstack([apply_on_probe(m, red.y.dot(phis), do), m_un]),
            np.hstack([n, v]))
        if not self.config.optimize_xi:
            return grad
        # d||N (phi x xi)||^2 = 2 Re <g, dxi> with g = (phi^dag x I) N n;
        # then the chain rule through xi = raw / ||raw||
        nn = u.conj().T.dot(m_un) - self.a.matrix.dot(n.reshape(do, -1)).reshape(n.shape)
        g = np.einsum("ak,apk->p", phis.conj(), nn.reshape(do, dp, count)) / count
        amps = xi.amplitudes
        gxi = 2.0 * (g - np.real(np.vdot(amps, g)) * amps) / frobenius_norm(self._raw_xi(x))
        return np.concatenate([grad, gxi.real, gxi.imag])

    def floor(self, model: MeasurementModel) -> float:
        """The Yanase floor |<psi|[A, L1]|psi>|^2 / (4 var(L1, psi) + 4 var(L2, xi))
        at the model's probe state. It does not depend on U, so yanase_bound
        runs on the first model with each probe state, and the value of the
        last state is kept."""
        key = model.xi.amplitudes.tobytes()
        if key not in self._floors:
            self._floors.clear()
            self._floors[key] = yanase_bound(model, self.pair, self.psi)
        return self._floors[key]

    def check_soundness(self, x: np.ndarray):
        model = self.model_at(x)
        e = noise(model, self.psi)
        floor = self.floor(model)
        if exceeds(floor - e * e, INEQUALITY_SLACK, self._noise_scale):
            raise TheoremViolation(
                f"accepted iterate has squared noise {e * e:.17g} below the "
                f"bound {floor:.17g}")

    def initial_point(self, restart: int) -> np.ndarray:
        x = np.zeros(self.n_params)
        if self.config.theta0 is not None:
            t0 = np.asarray(self.config.theta0, dtype=float)
            if t0.shape != (self.n_theta,):
                raise DimensionMismatch(
                    f"theta0 has length {t0.size}, expected {self.n_theta}")
            x[:self.n_theta] = t0
        if self.config.optimize_xi:
            x[self.n_theta:] = np.concatenate([self.xi0.amplitudes.real, self.xi0.amplitudes.imag])
        if restart > 0:
            rng = np.random.default_rng([self.config.seed, restart])
            x[:self.n_theta] = rng.uniform(-np.pi, np.pi, size=self.n_theta)
            if self.config.optimize_xi:
                raw = rng.standard_normal(self.probe_dim) \
                    + 1j * rng.standard_normal(self.probe_dim)
                raw /= frobenius_norm(raw)
                x[self.n_theta:] = np.concatenate([raw.real, raw.imag])
        return x

    def _regauge(self, x: np.ndarray) -> np.ndarray:
        # The probe-state block is scale invariant; keep it on the unit sphere.
        if not self.config.optimize_xi:
            return x
        out = x.copy()
        out[self.n_theta:] /= frobenius_norm(self._raw_xi(x))
        return out

    def descend(self, restart: int):
        x = self.initial_point(restart)
        f, model = self.evaluate(x)
        self.check_soundness(x)
        trace = [f]
        step, s = INIT_STEP, self._descent_scale
        converged = False
        for _ in range(self.config.max_iters):
            g = self.gradient(x, model)
            gnorm = frobenius_norm(g)
            if not exceeds(gnorm, GRADIENT_TOL, s):
                converged = True
                break
            alpha = step / max(gnorm, s)
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                x_try = self._regauge(x - alpha * g)
                f_try, model_try = self.evaluate(x_try)
                if f_try < f - DESCENT_MARGIN * s:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:  # no descent along -g: stopped, not converged
                break
            x, f, model = x_try, f_try, model_try
            trace.append(f)
            self.check_soundness(x)
            step = min(alpha * max(gnorm, s) * 2.0, 4.0)
        return f, tuple(trace), x, converged


def optimize_noise(a: Operator, pair: ConservationPair, m: Operator, xi0: Ket,
                   psi: Ket, config: OptimizerConfig) -> OptimizationRun:
    """Minimize the (squared) noise over conservative interactions.

    Restart 0 starts from theta0 (the identity interaction by default); the
    remaining restarts start from seeded random coefficients. Restarts run
    one after another, and the winner is selected by lowest objective with
    the restart index as the deterministic tie break.
    """
    problem = _Problem(a, pair, m, xi0, psi, config)
    results = [problem.descend(r) for r in range(config.restarts)]

    best_index = min(range(len(results)), key=lambda r: (results[r][0], r))
    best_f, best_trace, best_x, best_converged = results[best_index]
    theta, _ = problem.split(best_x)
    model = problem.model_at(best_x)
    floor = problem.floor(model)
    return OptimizationRun(
        seed=config.seed,
        objective=config.objective,
        theta=np.array(theta, dtype=float),
        objective_trace=best_trace,
        result_model=model,
        bound_value=floor,
        final_objective=best_f,
        converged=best_converged,
        restart_final_objectives=tuple(r[0] for r in results),
    )


def spin_ladder_probe(levels: int):
    """Ladder probe: conserved quantity diag(j .. -j), parity record, and a
    sine-profile probe state.

    The sine profile maximizes the total nearest-level overlap, which is the
    quantity the best conservative interaction converts into record
    correlation; for two levels it reduces to the equal superposition.
    """
    if levels < 2:
        raise ValueError("ladder probe needs at least two levels")
    j = (levels - 1) / 2.0
    values = j - np.arange(levels, dtype=float)
    l2 = Operator.hermitian(np.diag(values))
    xi = np.sin(np.arange(1, levels + 1) * np.pi / (levels + 1)).astype(np.complex128)
    xi /= frobenius_norm(xi)
    return l2, record_observable(l2), Ket(xi)


def oscillator_probe(n_max: int, amps: CoherentAmplitudes):
    """Two-mode oscillator probe truncated at n_max (``fock_cutoff(amps)`` in
    the sweep and ``optimize``), with a coherent initial state.

    The composite space has D = 2 (n_max + 1)^2 dimensions. One objective
    evaluation, and one gradient, costs O(D^3) = O(n_max^6) in products with
    the D x D eigenvector matrix (the sector eigendecompositions are smaller);
    the interaction has O(n_max^3) parameters. This is the one place that
    refuses n_max above MAX_CUTOFF, naming the amplitudes; the variance law is
    validated at larger cutoffs elsewhere.
    """
    if n_max > MAX_CUTOFF:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {amps.magnitude_sq:.6g} needs n_max = {n_max}; "
                         f"full oscillator interactions are limited to n_max <= {MAX_CUTOFF}")
    space = FockSpace(n_max)
    l2 = m_z_operator(space)
    return l2, record_observable(l2), two_mode_coherent_state(amps, space)


@dataclass(frozen=True)
class SweepRow:
    """One size of the probe-size sweep, searched with seed ``seed``; a size
    whose probe could not be built keeps its refusal in error, and NaN figures."""

    family: str
    size: float
    var_mz: float
    bound: float
    achieved: float
    gap_ratio: float
    seed: int
    error: str = ""


def sweep_probe_size(family: str, sizes: Sequence, config: OptimizerConfig) -> list:
    """Bound versus best achieved error for a family of growing probes.

    The spin scenario is fixed (A = S_x, L1 = S_z, input state y-up). An
    oscillator size v is |alpha|^2 = |beta|^2 = v/2 at its ``fock_cutoff``.
    Row k searches with seed config.seed + k. A size whose probe cannot be
    built (a ValueError) is kept as a failed row, and the sweep goes on; a
    failure inside the search is a bug, and propagates.
    """
    if family not in ("spin_ladder", "oscillator"):
        raise ValueError(f"unknown probe family {family!r}")
    sx, _, sz = spin_operators()
    psi = named_state("alpha_y")
    rows = []
    for index, size in enumerate(sizes):
        row_config = replace(config, seed=config.seed + index)
        try:
            if family == "spin_ladder":
                l2, m, xi = spin_ladder_probe(int(size))
            else:
                half = np.sqrt(float(size) / 2.0)
                amps = CoherentAmplitudes(half, half)
                l2, m, xi = oscillator_probe(fock_cutoff(amps), amps)
        except ValueError as exc:
            rows.append(SweepRow(family, float(size), *[math.nan] * 4, row_config.seed, str(exc)))
            continue
        pair = ConservationPair(L1=sz, L2=l2)
        var = variance(l2, xi)
        bound = optimal_spin_bound(var)
        achieved = optimize_noise(sx, pair, m, xi, psi, row_config).final_objective
        rows.append(SweepRow(family, float(size), var, bound, achieved,
                             achieved / bound, row_config.seed))
    return rows
