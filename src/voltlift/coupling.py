"""Generalized coupling at the lifted finite-dimensional level.

Two copies of the lifted SDE are driven by the same Brownian increments; the
second carries an extra drift lam * M_sigma * mu_{sigma,Phi}[Y - Yhat] whose
Girsanov cost is recorded as the integrated control energy.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .dynamics import (STAT_ROWS, _batch, _by_trajectory, _check_finite,
                       _check_plans, _initial_states, _stacked_increments,
                       _step_in_parts, lifted_step, step_operators)
from .ergodics import decay_rate
from .weights import mu_sigma_phi, weighted_norms


@dataclass(frozen=True)
class CoupledRun:
    times: np.ndarray        # (M+1,)
    mean_dist: np.ndarray    # (M+1,) ensemble mean of the Phi-distance
    stderr_dist: np.ndarray  # (M+1,) its standard error
    energy: np.ndarray       # (n_traj,) E(T) = 1/2 int_0^T |u|^2
    y_final: np.ndarray      # (n_traj, I, n) Y_T, the uncontrolled copy
    yh_final: np.ndarray     # (n_traj, I, n) Yhat_T, the controlled copy


def mean_stderr(samples):
    """Mean and standard error (ddof=1; 0 for one sample), last axis."""
    n = samples.shape[-1]
    return samples.mean(axis=-1), (samples.std(axis=-1, ddof=1) / np.sqrt(n)
                                   if n > 1 else np.zeros(samples.shape[:-1]))


def _gap(component, table, y, yh):
    """mu_{sigma,Phi}[y - yh], (n, n_traj), and |y - yh|_Phi, (n_traj,)."""
    diff = _by_trajectory(component, y - yh)
    return (mu_sigma_phi(component, table, diff).T,
            weighted_norms(component, table, diff))


def _coupled_step(component, coeffs, table, ops, y, yh, x, xh, v, dw):
    """Advance both trajectory-last copies on the shared dw (the second with
    the control drift lam * M_s v, the control block of ops.forcing); return
    them and their new _gap."""
    y, x = lifted_step(ops, coeffs, y, x, dw)
    yh, xh = lifted_step(ops, coeffs, yh, xh, dw, v)
    return (y, yh, x, xh) + _gap(component, table, y, yh)


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


def _pair_steps(component, coeffs, table, lam, plans, y, yh):
    """Step the trajectory-last copies y, yh, one column per row of the
    _batch of plans; yield (step, dist, energy, y, yh) at step 0 and after
    every step, with the energies of the plans alone."""
    h, batch = plans[0].h, _batch(plans)
    ops = step_operators(component, h, lam, len(batch))
    x, xh = ops.observe(y), ops.observe(yh)
    v, dist = _gap(component, table, y, yh)
    energy = np.zeros(len(plans))
    yield 0, dist, energy, y, yh
    with closing(_stacked_increments(batch)) as noise:
        for step, dw in enumerate(noise, start=1):
            # left-point quadrature of the control energy
            u = _control(coeffs, xh, v, lam)[:len(plans)]
            energy += 0.5 * h * np.sum(u ** 2, axis=-1)
            y, yh, x, xh, v, dist = _coupled_step(
                component, coeffs, table, ops, y, yh, x, xh, v, dw)
            _check_finite("coupled", step, batch, y, yh, observed=(x, xh))
            yield step, dist, energy, y, yh


def simulate_coupled_pair(component, coeffs, table, lam, y1, y2, plans):
    """Coupled ensemble from initial lifted states y1, y2 (one state, or
    one per trajectory); plans is a list of NoisePlan with common (h, T).
    Step s's distances wait in row s % STAT_ROWS until their block of rows
    is full: one mean_stderr per block gives each row the bits of its own
    call.  The rows from _fork_row on are stepped in a child process, which
    fills their columns of each block (README, "The second process")."""
    if lam <= 0.0:
        raise ValueError("coupling gain lam must be positive")
    # checked here as well as in each part's _stacked_increments, so that a
    # plan that disagrees is named against the batch's first, as in one
    # process, and not against the first of the child's part
    _check_plans(plans)
    h, m, n_traj = plans[0].h, plans[0].n_steps, len(plans)
    ops = step_operators(component, h)
    y, _ = _initial_states(ops, y1, plans)
    yh, _ = _initial_states(ops, y2, plans)
    mean, stderr = np.empty(m + 1), np.empty(m + 1)

    def part(rows):
        return _pair_steps(component, coeffs, table, lam, plans[rows],
                           y[:, rows].copy(), yh[:, rows].copy())

    def block(b, rows):  # the distances of steps STAT_ROWS * b, ...
        done = slice(STAT_ROWS * b, STAT_ROWS * b + len(rows))
        mean[done], stderr[done] = mean_stderr(rows[:, :n_traj])

    energy, y_end, yh_end = _step_in_parts(part, plans, len(y), block)
    return CoupledRun(times=np.arange(m + 1) * h, mean_dist=mean,
                      stderr_dist=stderr, energy=energy,
                      y_final=_by_trajectory(component, y_end)[:n_traj].copy(),
                      yh_final=_by_trajectory(component,
                                              yh_end)[:n_traj].copy())


@dataclass(frozen=True)
class ContractionReport:
    r_hat: float | None
    contraction_ok: bool
    kl_ok: bool
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
    mean, stderr = run.mean_dist, run.stderr_dist
    d0 = mean[0]
    envelope = np.exp(-0.5 * kappa * run.times) * d0

    # the envelope is 0 when d0 is, and no decay rate is fitted then
    contraction_ok = bool(np.all(mean <= envelope + 3.0 * stderr + 1e-30))
    rate, _ = decay_rate(run.times, mean)
    r_hat = None if d0 == 0.0 or np.isnan(rate) else float(rate)

    energy_final, energy_se = mean_stderr(run.energy)
    budget = 0.5 * c_ue * lam * d0 ** 2
    kl_ok = bool(energy_final <= budget + 3.0 * energy_se + 1e-30)
    return ContractionReport(r_hat=r_hat, contraction_ok=contraction_ok,
                             kl_ok=kl_ok, envelope=envelope,
                             mean_energy_final=float(energy_final),
                             kl_budget=float(budget))

