"""Admissible weight tables on discretized states.

Weights are evaluated at the cell nodes, treating a component as the atomic
measure sum of w_i * delta_{a_i}; branch membership for the piecewise
coupling and Lyapunov weights is decided from the cell matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernelbasis import inf_support, segment_nodes
from .quad import opnorm

SYM_TOL = 1e-12
COND_GUARD = 1e12


@dataclass(frozen=True)
class WeightTable:
    Phi: np.ndarray          # (I, n, n) symmetric positive definite
    C_phi: float             # smallest admissibility constant over the cells
    norm_op: np.ndarray      # (I, n, n) w_i Phi_i, for weighted_norms
    mu_op: np.ndarray        # (I, n, n) w_i M_s,i^T Phi_i, for mu_sigma_phi

    @property
    def size(self):
        return self.Phi.shape[0]


def _sym_eigvalsh(mat):
    """Whether a matrix (or each matrix of a stack) is symmetric to SYM_TOL,
    and the ascending eigenvalues of its symmetric part."""
    tr = np.swapaxes(mat, -1, -2)
    size = np.maximum(np.linalg.norm(mat, axis=(-2, -1)), 1e-300)
    sym = np.linalg.norm(mat - tr, axis=(-2, -1)) <= SYM_TOL * size
    return sym, np.linalg.eigvalsh(0.5 * (mat + tr))


def _finish_table(component, phi, name):
    """The table of a stack of cell matrices, each of which must be
    symmetric positive definite with condition number at most COND_GUARD;
    an error names the first cell that is not."""
    sym, vals = _sym_eigvalsh(phi)
    lo, hi = vals[:, 0], vals[:, -1]
    bad = np.stack([~sym, lo <= 0.0, hi > COND_GUARD * lo])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        why = ("matrix not symmetric", "matrix not positive definite",
               "condition number above guard")[int(np.argmax(bad[:, i]))]
        raise ValueError(f"{name} cell {i}: {why}")
    root = (1.0 + component.a) ** 0.5
    w = component.w[:, None, None]
    return WeightTable(Phi=phi, C_phi=float(max(np.max(hi * root),
                                                np.max(1.0 / (lo * root)))),
                       norm_op=w * phi,
                       mu_op=w * (np.swapaxes(component.Ms, -1, -2) @ phi))


def build_custom(component, mats):
    return _finish_table(component, np.array(mats, dtype=float), "custom")


def _cell_sets(component, L, R):
    """Masks of the cells in the coupling sets A_L and B_R, whose M_sigma is
    symmetric positive definite with 1 / lambda_min <= L and with
    lambda_max <= R respectively."""
    sym, vals = _sym_eigvalsh(component.Ms)
    spd = sym & (vals[:, 0] > 0.0)
    low = np.where(spd, vals[:, 0], 1.0)
    return spd & (1.0 / low <= L), spd & (vals[:, -1] <= R)


def _check_split(component, m, weight):
    """inf supp of the component positive and below the split point m."""
    kappa = float(np.min(component.a))
    if kappa <= 0.0:
        raise ValueError(f"{weight} requires inf supp > 0")
    if m <= kappa:
        raise ValueError("m must exceed inf supp")


def build_phi_coupling(component, m, delta, L, R):
    """Four-branch coupling weight decided per cell from M_sigma: m^(1/2)
    a^(-1/2) on the tail a >= m, else M_sigma^-1 on A_L and B_R,
    (delta a^(1/2) + M_sigma)^-1 on B_R alone and the identity elsewhere."""
    _check_split(component, m, "coupling weight")
    if delta <= 0.0 or L <= 0.0 or R <= 0.0:
        raise ValueError("delta, L, R must be positive")
    a, ms, eye = component.a, component.Ms, np.eye(component.n)
    in_aL, in_bR = _cell_sets(component, L, R)
    tail = a >= m
    phi = np.broadcast_to(eye, ms.shape).copy()
    inv = in_aL & in_bR & ~tail
    phi[inv] = np.linalg.inv(ms[inv])
    shift = in_bR & ~in_aL & ~tail
    phi[shift] = np.linalg.inv((delta * a[shift] ** 0.5)[:, None, None] * eye
                               + ms[shift])
    phi[tail] = (m ** 0.5 * a[tail] ** -0.5)[:, None, None] * eye
    return _finish_table(component, phi, f"coupling(m={m},delta={delta},"
                                         f"L={L},R={R})")


def build_psi_lyapunov(component, m):
    """Two-branch Lyapunov weight decided per cell from M_b:
    (a^(1/2) / m + M_b)^-1 on A_m, the cells a < m whose M_b is symmetric
    with spectrum in [0, m], and a^(-1/2) elsewhere."""
    _check_split(component, m, "Lyapunov weight")
    a, mb, eye = component.a, component.Mb, np.eye(component.n)
    sym, vals = _sym_eigvalsh(mb)
    in_am = (a < m) & sym & (vals[:, 0] >= 0.0) & (vals[:, -1] <= m)
    psi = (a ** -0.5)[:, None, None] * eye
    psi[in_am] = np.linalg.inv((a[in_am] ** 0.5 / m)[:, None, None] * eye
                               + mb[in_am])
    return _finish_table(component, psi, f"lyapunov(m={m})")


def weighted_norms(component, table, z):
    """Phi-weighted norm of z with shape (..., I, n)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-2] != component.size or z.shape[-1] != component.n:
        raise ValueError("state shape does not match the component")
    return np.sqrt(np.einsum("ipq,...ip,...iq->...", table.norm_op, z, z))


def mu_sigma_phi(component, table, z):
    """mu_{sigma,Phi}[z] = sum_i w_i M_sigma,i^T Phi_i z_i, batched over z of
    shape (..., I, n); used in the coupling inner loop."""
    return np.einsum("ipq,...iq->...p", table.mu_op, z)


def distance_dphi(z1, z2, component, phi_table):
    norm = weighted_norms(component, phi_table,
                          np.asarray(z1, float) - np.asarray(z2, float))
    return np.minimum(norm, 1.0)


def distance_dphipsi(z1, z2, component, phi_table, psi_table):
    d = distance_dphi(z1, z2, component, phi_table)
    n1 = weighted_norms(component, psi_table, z1)
    n2 = weighted_norms(component, psi_table, z2)
    return np.sqrt(d * (1.0 + n1 ** 2 + n2 ** 2))


@dataclass(frozen=True)
class CouplingConstants:
    m: float
    delta: float
    L: float
    R: float
    alpha: float
    beta: float
    epsilon: float
    C: float

    @property
    def lam(self):
        return self.C

    @property
    def certified(self):
        return self.epsilon <= 0.5


def compute_coupling_constants(component, coeffs, m, delta=None, L=None,
                               R=np.inf):
    """Constants of the contraction argument, on the discrete component.

    When delta / L are omitted they follow the schedule driven by the tail
    integral; lam = C(m, delta, L) is the coupling gain.
    """
    if coeffs.C_bLip is None or coeffs.C_sLip is None:
        raise ValueError("Lipschitz metadata required")
    kappa = float(np.min(component.a))
    if kappa <= 0.0:
        raise ValueError("coupling constants require inf supp > 0")
    a, w = component.a, component.w
    mb_op, ms_op = opnorm(component.Mb), opnorm(component.Ms)
    tail = a >= m
    tail_int = float(np.sum(w[tail] * a[tail] ** -0.5 * (1 + ms_op[tail]) ** 2))
    if delta is None:
        delta = m ** -0.5 * (tail_int + 1.0 / m) ** 0.5
    if L is None:
        L = (tail_int + 1.0 / m) ** -0.5
    in_aL, in_bR = _cell_sets(component, L, R)
    alpha = (delta * float(np.sum(w[~in_aL] * a[~in_aL] ** -0.5))
             + float(np.sum(w[~in_bR] * a[~in_bR] ** -1.0
                            * (1 + ms_op[~in_bR]) ** 2))
             + m ** -0.5 * tail_int)
    beta = max(L * m ** 0.5, 1.0 / delta, m ** 0.5)
    int_b = float(np.sum(w * a ** -1.5 * mb_op ** 2))
    int_s = float(np.sum(w * a ** -0.5 * ms_op ** 2))
    eps = (2.0 * coeffs.C_bLip * (alpha * beta * int_b) ** 0.5
           + 2.0 * coeffs.C_sLip ** 2 * alpha * beta * int_s)
    c_const = 2.0 * beta * (coeffs.C_bLip ** 2 * int_b
                            + coeffs.C_sLip ** 2 * int_s)
    return CouplingConstants(m=m, delta=delta, L=L, R=R, alpha=alpha,
                             beta=beta, epsilon=eps, C=c_const)


def find_certified_constants(component, coeffs, R=np.inf):
    """Double m from 2 kappa until epsilon <= 1/2; None past 2^20 kappa."""
    kappa = float(np.min(component.a))
    m = 2.0 * kappa
    while m <= 2 ** 20 * kappa:
        consts = compute_coupling_constants(component, coeffs, m, R=R)
        if consts.certified:
            return consts
        m *= 2.0
    return None


@dataclass(frozen=True)
class LyapunovReport:
    passed: bool
    margin: float
    I: float
    kappa: float
    details: dict


def _sym_nnd(mat):
    """Every matrix of a stack (or one matrix) symmetric and nonnegative
    definite."""
    sym, vals = _sym_eigvalsh(mat)
    return bool(np.all(sym & (vals[..., 0] >= -1e-12)))


def check_lyapunov_sufficient(basis, coeffs):
    """Checkable sufficient conditions for the Lyapunov estimate.

    Conditions: kappa > 0; M_b symmetric nonnegative definite (on the
    atoms and at the quadrature nodes of the segments); drift coercivity
    gamma times I = integral of theta^{-1} |M_b|_op d mu below 1; sigma
    sublinear with exponent p in (0, 1).
    """
    details = {}
    kappa = inf_support(basis)
    details["kappa_positive"] = kappa > 0.0

    sym_nnd = all(_sym_nnd(a.Mb) for a in basis.atoms)
    i_val = 0.0
    for a in basis.atoms:
        i_val += a.mass * opnorm(a.Mb) / a.theta if a.theta > 0 else np.inf
    for seg in basis.segments:
        th, w, mb, _ = segment_nodes(seg, 0.0, seg.span)
        sym_nnd = _sym_nnd(mb) and sym_nnd
        i_val += float(np.sum(w * opnorm(mb) / th))
    details["Mb_symmetric_nnd"] = sym_nnd
    gamma = coeffs.gamma
    details["gamma_available"] = gamma is not None
    smallness = (gamma is not None and gamma * i_val < 1.0)
    details["drift_smallness"] = smallness
    details["sigma_sublinear"] = (coeffs.p is not None
                                  and 0.0 < coeffs.p < 1.0
                                  and coeffs.C_ssub is not None)
    passed = (details["kappa_positive"] and sym_nnd and smallness
              and details["sigma_sublinear"])
    margin = 1.0 - gamma * i_val if gamma is not None else -np.inf
    return LyapunovReport(passed=passed, margin=margin, I=i_val, kappa=kappa,
                          details=details)
