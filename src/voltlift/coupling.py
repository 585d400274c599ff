"""Generalized coupling at the lifted finite-dimensional level.

Two copies of the lifted SDE are driven by the same Brownian increments; the
second carries an extra drift lam * M_sigma * mu_{sigma,Phi}[Y - Yhat] whose
Girsanov cost is recorded as the integrated control energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (_batch, _by_trajectory, _check_finite,
                       _initial_states, _stacked_increments, lifted_step,
                       step_operators)
from .weights import mu_sigma_phi, weighted_norms


@dataclass(frozen=True)
class CoupledRun:
    times: np.ndarray        # (M+1,)
    dist_phi: np.ndarray     # (M+1, n_traj)
    energy: np.ndarray       # (M+1, n_traj); E(t) = 1/2 int |u|^2
    y_final: np.ndarray      # (n_traj, I, n) Y_T, the uncontrolled copy
    yh_final: np.ndarray     # (n_traj, I, n) Yhat_T, the controlled copy


def _coupled_step(component, coeffs, table, ops, y, yh, x, xh, v, dw):
    """Advance both trajectory-last copies on the shared dw (the second with
    the control drift lam * M_s v, the control block of ops.forcing); return
    them and the new mu_{sigma,Phi}[y - yh], (n, n_traj)."""
    y, x = lifted_step(ops, coeffs, y, x, dw)
    yh, xh = lifted_step(ops, coeffs, yh, xh, dw, v)
    return y, yh, x, xh, mu_sigma_phi(
        component, table, _by_trajectory(component, y - yh)).T


def _control(coeffs, xh, v, lam):
    """u = lam * sigma(xh)^T (sigma sigma^T)^{-1} v for trajectory-last xh
    and v, as (n_traj, d).  Nonzero 1x1 Gram matrices are divided by, which
    gives the bits of np.linalg.solve without its per-call cost."""
    s = coeffs.sigma(xh.T)
    gram = np.einsum("...pd,...qd->...pq", s, s)
    if gram.shape[-1] == 1 and np.all(gram):
        sol = v.T / gram[..., 0]
    else:
        try:
            sol = np.linalg.solve(gram, v.T[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(
                "singular diffusion Gram matrix: ellipticity violated along "
                "the path") from exc
    return lam * np.einsum("...pd,...p->...d", s, sol)


def simulate_coupled_pair(component, coeffs, table, lam, y1, y2, plans):
    """Coupled ensemble from initial lifted states y1, y2 (shared by all
    trajectories); plans is a list of NoisePlan with common (h, T).  It runs
    in the calling thread: see README, Determinism."""
    if lam <= 0.0:
        raise ValueError("coupling gain lam must be positive")
    h, m, n_traj = plans[0].h, plans[0].n_steps, len(plans)
    batch = _batch(plans)
    ops = step_operators(component, h, lam)
    y, x = _initial_states(ops, y1, len(batch))
    yh, xh = _initial_states(ops, y2, len(batch))

    times = np.arange(m + 1) * h
    dist = np.empty((m + 1, n_traj))
    energy = np.empty((m + 1, n_traj))
    diff = _by_trajectory(component, y - yh)
    dist[0] = weighted_norms(component, table, diff)[:n_traj]
    v = mu_sigma_phi(component, table, diff).T
    energy[0] = 0.0
    for step, dw in enumerate(_stacked_increments(batch), start=1):
        # left-point quadrature of the control energy
        u = _control(coeffs, xh, v, lam)[:n_traj]
        energy[step] = energy[step - 1] + 0.5 * h * np.sum(u ** 2, axis=-1)
        y, yh, x, xh, v = _coupled_step(component, coeffs, table, ops, y, yh,
                                        x, xh, v, dw)
        _check_finite("coupled", step, batch, y, yh)
        dist[step] = weighted_norms(
            component, table, _by_trajectory(component, y - yh))[:n_traj]
    return CoupledRun(times=times, dist_phi=dist, energy=energy,
                      y_final=_by_trajectory(component, y)[:n_traj].copy(),
                      yh_final=_by_trajectory(component, yh)[:n_traj].copy())


@dataclass(frozen=True)
class ContractionReport:
    r_hat: float | None
    contraction_ok: bool
    kl_ok: bool
    mean_dist: np.ndarray
    stderr_dist: np.ndarray
    envelope: np.ndarray
    mean_energy_final: float
    kl_budget: float


def contraction_report(run, kappa, lam, c_ue=1.0):
    """Fit the decay rate of the ensemble mean distance and check the
    exp(-kappa t / 2) envelope and the Girsanov energy budget, each to
    within three standard errors.

    The budget is stated in raw coupling-weight units: the rescaled weight
    C_UE * lam * Phi turns it into one half of the squared initial distance,
    so in raw units the bound is (C_UE * lam / 2) * dist(0)^2.
    """
    dist = run.dist_phi
    n_traj = dist.shape[1]
    mean = dist.mean(axis=1)
    stderr = dist.std(axis=1, ddof=1) / np.sqrt(n_traj) if n_traj > 1 \
        else np.zeros_like(mean)
    d0 = mean[0]
    envelope = np.exp(-0.5 * kappa * run.times) * d0

    if d0 == 0.0:
        r_hat = None
        contraction_ok = bool(np.all(mean <= 3.0 * stderr + 1e-30))
    else:
        contraction_ok = bool(np.all(
            mean <= envelope + 3.0 * stderr + 1e-30))
        mask = mean > 0.0
        t_fit = run.times[mask]
        r_hat = None
        if t_fit.size >= 2:
            slope, _ = np.polyfit(t_fit, np.log(mean[mask]), 1)
            r_hat = -float(slope)

    energy_final = run.energy[-1].mean()
    energy_se = (run.energy[-1].std(ddof=1) / np.sqrt(n_traj)
                 if n_traj > 1 else 0.0)
    budget = 0.5 * c_ue * lam * d0 ** 2
    kl_ok = bool(energy_final <= budget + 3.0 * energy_se + 1e-30)
    return ContractionReport(r_hat=r_hat, contraction_ok=contraction_ok,
                             kl_ok=kl_ok, mean_dist=mean, stderr_dist=stderr,
                             envelope=envelope,
                             mean_energy_final=float(energy_final),
                             kl_budget=float(budget))

