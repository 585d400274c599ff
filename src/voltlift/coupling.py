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
                       _diffusion, _initial_states, _noise_term,
                       _stacked_increments, _step_in_parts, lifted_step,
                       step_operators)
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


def _coupled_step(component, coeffs, table, ops, y, yh, x, xh, v, sigma, dw):
    """Advance both trajectory-last copies on the shared dw (the second with
    the control drift lam * M_s v, the control block of ops.forcing); return
    them and their new _gap.  A constant _diffusion sigma gives both copies
    one noise term."""
    noise = _noise_term(sigma, x, dw)
    y, x = lifted_step(ops, coeffs, y, x, noise)
    if callable(sigma):
        noise = _noise_term(sigma, xh, dw)
    yh, xh = lifted_step(ops, coeffs, yh, xh, noise, v)
    return (y, yh, x, xh) + _gap(component, table, y, yh)


def _gram(s):
    """sigma sigma^T of each (..., n, d) diffusion matrix."""
    return np.einsum("...pd,...qd->...pq", s, s)


def _control(sigma, gram, xh, v, lam):
    """u = lam * sigma(xh)^T (sigma sigma^T)^{-1} v for trajectory-last xh
    and v, as (n_traj, d), for a _diffusion sigma and the _gram of a
    constant one (None: formed per trajectory).  Nonzero 1x1 Gram matrices
    are divided by, which gives the bits of np.linalg.solve without its
    per-call cost; a constant one's -0.0 where einsum gives +0.0 reaches
    only u^2."""
    if callable(sigma):
        sigma = sigma(xh.T)
        gram = _gram(sigma)
    if gram.shape[-1] == 1 and gram.all():
        sol = v.T / gram[..., 0]
        if gram.ndim == 2:
            return lam * (sol * sigma[0])
    else:
        try:
            sol = np.linalg.solve(gram, v.T[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(
                "singular diffusion Gram matrix: ellipticity violated along "
                "the path") from exc
    return lam * np.einsum("...pd,...p->...d", sigma, sol)


def _pair_steps(component, coeffs, table, lam, batch, y, yh):
    """Step the trajectory-last copies y, yh, one column per row of the
    _batch of batch; yield (step, dist, energy, y, yh) at step 0 and after
    every step, with the energies of the batch's own rows alone."""
    h, stepped, sigma = batch.h, _batch(batch), _diffusion(coeffs)
    gram = None if callable(sigma) else _gram(sigma)
    ops = step_operators(component, h, lam, len(stepped))
    x, xh = ops.observe(y), ops.observe(yh)
    v, dist = _gap(component, table, y, yh)
    energy = np.zeros(len(batch))
    yield 0, dist, energy, y, yh
    with closing(_stacked_increments(stepped)) as noise:
        for step, dw in enumerate(noise, start=1):
            # left-point quadrature of the control energy
            u = _control(sigma, gram, xh, v, lam)[:len(batch)]
            energy += 0.5 * h * (u * u).sum(-1)
            y, yh, x, xh, v, dist = _coupled_step(
                component, coeffs, table, ops, y, yh, x, xh, v, sigma, dw)
            _check_finite("coupled", step, stepped, y, yh, observed=(x, xh))
            yield step, dist, energy, y, yh


def simulate_coupled_pair(component, coeffs, table, lam, y1, y2, batch):
    """Coupled ensemble from initial lifted states y1, y2 (one state, or
    one per trajectory), on the noise of a NoiseBatch.
    Step s's distances wait in row s % STAT_ROWS until their block of rows
    is full: one mean_stderr per block gives each row the bits of its own
    call.  The rows from _fork_row on are stepped in a child process, which
    fills their columns of each block (README, "The second process")."""
    if lam <= 0.0:
        raise ValueError("coupling gain lam must be positive")
    h, m, n_traj = batch.h, batch.n_steps, len(batch)
    ops = step_operators(component, h)
    y, _ = _initial_states(ops, y1, batch)
    yh, _ = _initial_states(ops, y2, batch)
    mean, stderr = np.empty(m + 1), np.empty(m + 1)

    def part(rows):
        return _pair_steps(component, coeffs, table, lam, batch[rows],
                           y[:, rows].copy(), yh[:, rows].copy())

    def block(b, rows):  # the distances of steps STAT_ROWS * b, ...
        done = slice(STAT_ROWS * b, STAT_ROWS * b + len(rows))
        mean[done], stderr[done] = mean_stderr(rows[:, :n_traj])

    energy, y_end, yh_end = _step_in_parts(part, batch, len(y), block)
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

