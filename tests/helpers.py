"""Shared generators for the test suite.

Everything here is seeded and deterministic. The conservative model
generator mirrors how the optimizer builds feasible interactions (commutant
exponential map), since that is the only way to get exactly conservative
unitaries; oracle values in the tests themselves are computed independently.
"""

import math

import numpy as np

import waylimit as w

# Hand-built two-qubit gates used as oracles, basis order
# (up,up), (up,down), (down,up), (down,down) with the probe index fastest.
SWAP_MATRIX = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)

CNOT_Z_CONTROL_X_FLIP = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)


def large_eigenvalue_probe_model():
    """(model, pair) with xi = (e^{0.05i}, 0), an exact eigenstate of
    L2 = diag(100, 0), U = I, A = S_x, L1 = S_z and M = diag(1/2, -1/2).
    var(L2, xi) is 0, but ||L2 xi||^2 - <L2>^2 rounds to -3.6e-12."""
    sx, _, sz = w.spin_operators()
    model = w.MeasurementModel(2, 2, w.Ket([np.exp(0.05j), 0.0]), w.identity(4),
                               w.Operator.hermitian(np.diag([0.5, -0.5])), sx)
    return model, w.ConservationPair(L1=sz, L2=w.Operator.hermitian(np.diag([100.0, 0.0])))


def near_kernel_model():
    """(model, pair, psi) with L1 = 1e10 (H - lambda_3 I) for a random 8-level
    hermitian H and psi its eigenvector of lambda_3, U = I on 8 x 2 levels,
    A = H, L2 = M = S_z and xi = x-up. ||L1 psi|| is about 5e-6 against ||L1||_F = 3e10,
    and <psi|L1|psi> rounds with an imaginary residue of about 1e-7."""
    rng = np.random.default_rng(2024 + 12)
    h = w.random_hermitian(8, rng).matrix
    values, vectors = np.linalg.eigh(h)
    x = 1e10 * (h - values[3] * np.eye(8))
    l1 = w.Operator.hermitian((x + x.conj().T) / 2)
    psi = w.Ket(vectors[:, 3] / w.frobenius_norm(vectors[:, 3]))
    _, _, sz = w.spin_operators()
    model = w.MeasurementModel(8, 2, w.named_state("alpha_x"), w.identity(16), sz,
                               w.Operator.hermitian(h))
    return model, w.ConservationPair(L1=l1, L2=sz), psi


def random_conservative_model(rng, object_dim=None, probe_dim=None,
                              spin_scenario=None, probe_ladder=None,
                              yanase=True):
    """Draw (model, pair) with U from the commutant map and, by default, [M, L2] = 0.

    Half the probe draws use the spin-j ladder spectrum in a random basis so
    the total conserved quantity has genuinely degenerate sectors; half the
    two-level-object draws use the spin scenario (A = S_x, L1 = S_z). With
    yanase=False the record observable M is a random hermitian matrix, so
    [M, L2] != 0 and the probe term of the fundamental bound survives.
    """
    od = object_dim if object_dim else int(rng.integers(2, 5))
    pd = probe_dim if probe_dim else int(rng.integers(2, 9))
    spin = spin_scenario if spin_scenario is not None \
        else (od == 2 and rng.random() < 0.5)
    if spin:
        od = 2
        sx, _, sz = w.spin_operators()
        a, l1 = sx, sz
    else:
        a = w.random_hermitian(od, rng)
        l1 = w.random_hermitian(od, rng)

    ladder = probe_ladder if probe_ladder is not None else (rng.random() < 0.5)
    if ladder:
        vals = (pd - 1) / 2.0 - np.arange(pd)
    else:
        vals = rng.uniform(-1.0, 1.0, size=pd)
    vbasis = w.random_unitary(pd, rng).matrix
    l2 = w.Operator.hermitian((vbasis * vals) @ vbasis.conj().T)

    if yanase:
        com_l2 = w.commutant_basis(l2)
        coeff = rng.standard_normal(com_l2.size)
        m_mat = sum(c * g.matrix for c, g in zip(coeff, com_l2.generators))
        m = w.Operator.hermitian((m_mat + m_mat.conj().T) / 2.0)
    else:
        m = w.random_hermitian(pd, rng)

    pair = w.ConservationPair(L1=l1, L2=l2)
    basis = w.commutant_basis(pair.total())
    theta = rng.uniform(-np.pi, np.pi, size=basis.size)
    u = w.conservative_unitary(basis, theta)
    xi = w.random_ket(pd, rng)
    return w.MeasurementModel(od, pd, xi, u, m, a), pair


def _dense_ratio(num, den):
    if den < 1e-14:
        return 0.0 if num < 1e-14 else math.inf
    return num / den


def dense_figures(model, pair, psi):
    """(eps^2, sup noise, fundamental bound, Yanase-form bound) from np.kron
    formulas on the composite space, an oracle for the reduced-form figures."""
    io, ip = np.eye(model.object_dim), np.eye(model.probe_dim)
    xi = model.xi.amplitudes
    u = model.U.matrix
    im, il2 = np.kron(io, model.M.matrix), np.kron(io, pair.L2.matrix)
    ai, l1i = np.kron(model.A.matrix, ip), np.kron(pair.L1.matrix, ip)
    n = u.conj().T @ im @ u - ai
    v = np.kron(psi.amplitudes, xi)
    eps_sq = float(np.linalg.norm(n @ v) ** 2)
    embed = np.kron(io, xi[:, None])            # psi -> psi x xi
    top = np.linalg.eigvalsh(embed.conj().T @ n @ n @ embed)[-1]
    sup = float(np.sqrt(max(top, 0.0)))
    object_term = ai @ l1i - l1i @ ai
    rhs = u.conj().T @ (im @ il2 - il2 @ im) @ u - object_term
    total = l1i + il2
    tv = total @ v
    den = 4.0 * (np.vdot(tv, tv).real - np.vdot(v, tv).real ** 2)
    fb = _dense_ratio(abs(np.vdot(v, rhs @ v)) ** 2, den)
    yb = _dense_ratio(abs(np.vdot(v, object_term @ v)) ** 2, den)
    return eps_sq, sup, fb, yb


def _partial_map(u_matrix, object_bra, object_ket, probe_dim):
    """Probe-space map xi -> (<object_bra| x I) U (|object_ket> x xi)."""
    t = u_matrix.reshape(2, probe_dim, 2, probe_dim)
    return np.einsum("i,ipjq,j->pq", object_bra.conj(), t, object_ket)


def conservative_yw_embedding(rng, probe_values, attempts=40):
    """Partial-interaction data realized by an actual conservative model.

    probe_values is the (diagonal) spectrum of the probe conserved quantity;
    adjacent distinct values must differ by 1 so the total conserved quantity
    has mixing sectors. The probe state is solved numerically so that, inside
    every eigenvalue cluster of L2, the pointer components of the two input
    images are orthogonal; the record observable is then assembled from those
    components, which makes it commute with L2 exactly and gives the eigenstate
    conditions by construction.

    Returns (yw, model, pair, variance) or None when no solution was found.
    """
    from scipy.optimize import least_squares

    d = len(probe_values)
    l2 = w.Operator.hermitian(np.diag(np.asarray(probe_values, dtype=float)))
    sx, _, sz = w.spin_operators()
    pair = w.ConservationPair(L1=sz, L2=l2)
    basis = w.commutant_basis(pair.total())

    ax = np.array([1.0, 1.0]) / np.sqrt(2.0)
    bx = np.array([1.0, -1.0]) / np.sqrt(2.0)

    clusters = []
    sorted_vals = np.asarray(probe_values, dtype=float)
    for value in np.unique(np.round(sorted_vals, 9)):
        clusters.append(np.where(np.abs(sorted_vals - value) < 1e-9)[0])

    for _ in range(attempts):
        theta = rng.uniform(-np.pi, np.pi, size=basis.size)
        u = w.conservative_unitary(basis, theta)
        k_plus = _partial_map(u.matrix, ax, ax, d)
        k_minus = _partial_map(u.matrix, bx, bx, d)
        quads = []
        for idx in clusters:
            q = np.zeros((d, d))
            q[idx, idx] = 1.0
            quads.append(k_plus.conj().T @ q @ k_minus)

        def residuals(x):
            xi = x[:d] + 1j * x[d:]
            out = [np.real(np.vdot(xi, xi)) - 1.0]
            for q in quads:
                g = complex(xi.conj() @ (q @ xi))
                out.extend([g.real, g.imag])
            return np.array(out)

        x0 = rng.standard_normal(2 * d)
        x0 /= np.linalg.norm(x0)
        sol = least_squares(residuals, x0, xtol=3e-16, ftol=3e-16, gtol=3e-16)
        if np.max(np.abs(residuals(sol.x))) > 1e-13:
            continue
        xi_vec = sol.x[:d] + 1j * sol.x[d:]
        xi_vec /= np.linalg.norm(xi_vec)

        v1 = u.matrix @ np.kron(ax, xi_vec)
        v2 = u.matrix @ np.kron(bx, xi_vec)
        xi_plus = np.einsum("i,ip->p", ax.conj(), v1.reshape(2, d))
        eta_plus = np.einsum("i,ip->p", bx.conj(), v1.reshape(2, d))
        xi_minus = np.einsum("i,ip->p", bx.conj(), v2.reshape(2, d))
        eta_minus = np.einsum("i,ip->p", ax.conj(), v2.reshape(2, d))

        # Assemble the record observable cluster by cluster and clean the
        # rounding-level overlap out of the minus pointer.
        m = np.zeros((d, d), dtype=complex)
        ok = True
        for idx in clusters:
            up = np.zeros(d, dtype=complex)
            up[idx] = xi_plus[idx]
            dn = np.zeros(d, dtype=complex)
            dn[idx] = xi_minus[idx]
            nu, nd = np.linalg.norm(up), np.linalg.norm(dn)
            if nu > 1e-11 and nu < 1e-3:
                ok = False
                break
            if nd > 1e-11 and nd < 1e-3:
                ok = False
                break
            if nu > 1e-11:
                uhat = up / nu
                m += 0.5 * np.outer(uhat, uhat.conj())
                if nd > 1e-11:
                    dn = dn - uhat * np.vdot(uhat, dn)
                    xi_minus[idx] = dn[idx]
                    nd = np.linalg.norm(dn)
            if nd > 1e-11:
                dhat = dn / nd
                m -= 0.5 * np.outer(dhat, dhat.conj())
        if not ok:
            continue

        yw = w.YWModel(
            probe_dim=d,
            xi=w.Ket(xi_vec),
            xi_plus=xi_plus,
            xi_minus=xi_minus,
            eta_plus=eta_plus,
            eta_minus=eta_minus,
            M=w.Operator.hermitian(m),
        )
        model = w.MeasurementModel(2, d, w.Ket(xi_vec), u,
                                   w.Operator.hermitian(m), sx)
        return yw, model, pair, w.variance(l2, w.Ket(xi_vec))
    return None
