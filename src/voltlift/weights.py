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
    tag: str
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


def _assert_spd(mat, where):
    sym, vals = _sym_eigvalsh(mat)
    if not sym:
        raise ValueError(f"{where}: matrix not symmetric")
    if vals[0] <= 0.0:
        raise ValueError(f"{where}: matrix not positive definite")
    if vals[-1] / vals[0] > COND_GUARD:
        raise ValueError(f"{where}: condition number above guard")
    return vals


def _finish_table(component, mats, tag):
    c_phi = 0.0
    for i, m in enumerate(mats):
        vals = _assert_spd(m, f"{tag} cell {i}")
        root = (1.0 + component.a[i]) ** 0.5
        c_phi = max(c_phi, vals[-1] * root, 1.0 / (vals[0] * root))
    phi = np.stack(mats)
    w = component.w[:, None, None]
    return WeightTable(Phi=phi, tag=tag, C_phi=c_phi, norm_op=w * phi,
                       mu_op=w * (np.swapaxes(component.Ms, -1, -2) @ phi))


def build_custom(component, mats, tag="custom"):
    return _finish_table(component, [np.atleast_2d(np.asarray(m, float))
                                     for m in mats], tag)


def build_phi_coupling(component, m, delta, L, R):
    """Four-branch coupling weight decided per cell from M_sigma."""
    kappa = float(np.min(component.a))
    if kappa <= 0.0:
        raise ValueError("coupling weight requires inf supp > 0")
    if m <= kappa:
        raise ValueError("m must exceed inf supp")
    if delta <= 0.0 or L <= 0.0 or R <= 0.0:
        raise ValueError("delta, L, R must be positive")
    eye = np.eye(component.n)
    mats = []
    for i in range(component.size):
        theta = component.a[i]
        ms = component.Ms[i]
        if theta >= m:
            mats.append(m ** 0.5 * theta ** -0.5 * eye)
            continue
        sym, vals = _sym_eigvalsh(ms)
        spd = sym and vals[0] > 0.0
        in_bR = spd and vals[-1] <= R
        in_aL = spd and 1.0 / vals[0] <= L
        if in_aL and in_bR:
            mats.append(np.linalg.inv(ms))
        elif in_bR:
            mats.append(np.linalg.inv(delta * theta ** 0.5 * eye + ms))
        else:
            mats.append(eye.copy())
    return _finish_table(component, mats, f"coupling(m={m},delta={delta},"
                                          f"L={L},R={R})")


def build_psi_lyapunov(component, m):
    """Two-branch Lyapunov weight decided per cell from M_b."""
    kappa = float(np.min(component.a))
    if kappa <= 0.0:
        raise ValueError("Lyapunov weight requires inf supp > 0")
    if m <= kappa:
        raise ValueError("m must exceed inf supp")
    eye = np.eye(component.n)
    mats = []
    for i in range(component.size):
        theta = component.a[i]
        mb = component.Mb[i]
        sym, vals = _sym_eigvalsh(mb)
        in_am = (theta < m and sym and vals[0] >= 0.0 and vals[-1] <= m)
        if in_am:
            mats.append(np.linalg.inv(theta ** 0.5 / m * eye + mb))
        else:
            mats.append(theta ** -0.5 * eye)
    return _finish_table(component, mats, f"lyapunov(m={m})")


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


def _cell_sets(component, L, R, m):
    """Membership masks for the coupling sets, decided per cell."""
    in_aL = np.zeros(component.size, dtype=bool)
    in_bR = np.zeros(component.size, dtype=bool)
    ms_op = np.zeros(component.size)
    for i in range(component.size):
        ms = component.Ms[i]
        ms_op[i] = opnorm(ms)
        sym, vals = _sym_eigvalsh(ms)
        if sym and vals[0] > 0.0:
            in_aL[i] = 1.0 / vals[0] <= L
            in_bR[i] = vals[-1] <= R
    return in_aL, in_bR, ms_op


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
    mb_op = np.array([opnorm(component.Mb[i]) for i in range(component.size)])
    in_aL_inf, in_bR, ms_op = _cell_sets(component, np.inf, R, m)
    tail = a >= m
    tail_int = float(np.sum(w[tail] * a[tail] ** -0.5 * (1 + ms_op[tail]) ** 2))
    if delta is None:
        delta = m ** -0.5 * (tail_int + 1.0 / m) ** 0.5
    if L is None:
        L = (tail_int + 1.0 / m) ** -0.5
    in_aL, in_bR, ms_op = _cell_sets(component, L, R, m)
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
