"""Integrators for the lifted SDE and the direct Volterra discretization.

The lifted scheme is an exponential (exact-linear-part) Euler step; the
direct scheme is a left-point Volterra Euler with integrated drift weights.
Both consume Brownian increments from counter-based per-trajectory streams
so that paths can be cross-validated on identical noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from numpy.random import Generator, Philox

DRIFT_FACTOR_CUTOFF = 1e-8
NOISE_BLOCK_STEPS = 256


@dataclass(frozen=True)
class CoefficientModel:
    b: object                 # (..., n) -> (..., n)
    sigma: object             # (..., n) -> (..., n, d)
    n: int = 1
    d: int = 1
    C_bLip: float | None = None
    C_sLip: float | None = None
    gamma: float | None = None     # <b(x), x> <= gamma |x|^2 + C_bLG
    C_bLG: float | None = None
    p: float | None = None         # |sigma(x)| <= C_ssub (1 + |x|^p)
    C_ssub: float | None = None
    C_UE: float | None = None      # sigma sigma^T >= I / C_UE


def truncate_coefficients(coeffs, radius):
    """Clamp arguments to the ball of the given radius before evaluating."""
    if radius <= 0.0:
        raise ValueError("truncation radius must be positive")

    def clamp(x):
        x = np.asarray(x, dtype=float)
        norm = np.linalg.norm(x, axis=-1, keepdims=True)
        scale = np.where(norm > radius, radius / np.maximum(norm, 1e-300), 1.0)
        return x * scale

    return replace(coeffs, b=lambda x: coeffs.b(clamp(x)),
                   sigma=lambda x: coeffs.sigma(clamp(x)))


@dataclass(frozen=True)
class NoisePlan:
    seed: int
    trajectory_index: int
    h: float
    T: float
    d: int = 1

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step size h must be positive")
        if self.T < 0.0:
            raise ValueError("horizon T must be nonnegative")
        if self.seed < 0 or self.trajectory_index < 0:
            raise ValueError("seed and trajectory index must be nonnegative")

    @property
    def n_steps(self):
        return int(round(self.T / self.h))

    def generator(self):
        key = np.array([self.seed, self.trajectory_index], dtype=np.uint64)
        return Generator(Philox(key=key))

    def increments(self):
        """Brownian increments, shape (n_steps, d); step index = row."""
        gen = self.generator()
        return gen.standard_normal((self.n_steps, self.d)) * math.sqrt(self.h)


def _stacked_increments(plans):
    """Yield each step's (n_traj, d) increments for equal-shape plans, drawing
    every trajectory's Philox stream in blocks of NOISE_BLOCK_STEPS steps:
    the values of one NoisePlan.increments draw; memory is flat in T."""
    m, d, scale = plans[0].n_steps, plans[0].d, math.sqrt(plans[0].h)
    gens = [p.generator() for p in plans]
    for start in range(0, m, NOISE_BLOCK_STEPS):
        block = np.empty((len(plans), min(NOISE_BLOCK_STEPS, m - start), d))
        for gen, rows in zip(gens, block):
            gen.standard_normal(out=rows)
        # step-major and C-ordered, so each step's rows are contiguous
        yield from np.multiply(block.transpose(1, 0, 2), scale, order="C")


def make_plans(seed, n_traj, h, T, d=1, first_index=0):
    return [NoisePlan(seed, first_index + i, h, T, d) for i in range(n_traj)]


@dataclass(frozen=True)
class LiftedPath:
    times: np.ndarray      # (M+1,)
    states: np.ndarray     # (M+1, I, n)
    observables: np.ndarray  # (M+1, n)


def _step_factors(component, h):
    decay = np.exp(-component.a * h)
    phi = np.where(component.a * h < DRIFT_FACTOR_CUTOFF,
                   h, (1.0 - decay) / np.where(component.a == 0.0, 1.0,
                                               component.a))
    return decay, phi


def lifted_step(component, coeffs, z, x, dw, decay, phi, extra=None):
    """One exponential-Euler step, batched over leading axes of z.

    z: (..., I, n); x: (..., n); dw: (..., d).  extra, shaped like z, is a
    factor-space drift added to M_b b(x) (the coupling control).
    """
    bx = coeffs.b(x)
    sx = coeffs.sigma(x)
    noise_vec = np.einsum("...pd,...d->...p", sx, dw)
    drift = np.einsum("ipq,...q->...ip", component.Mb, bx)
    if extra is not None:
        drift = drift + extra
    kick = np.einsum("ipq,...q->...ip", component.Ms, noise_vec)
    z = (decay[:, None] * z + phi[:, None] * drift + decay[:, None] * kick)
    x = np.einsum("i,...ip->...p", component.w, z)
    return z, x


def _initial_states(component, z0, n_traj):
    """(n_traj, I, n) copies of z0 (shared or per trajectory) and their x."""
    shape = (n_traj, component.size, component.n)
    z = np.broadcast_to(np.asarray(z0, dtype=float).reshape(
        (-1,) + shape[1:]), shape).copy()
    return z, np.einsum("i,tip->tp", component.w, z)


def _check_finite(kind, step, plans, *states):
    """Abort naming the step and first trajectory with a non-finite state."""
    if all(np.isfinite(z).all() for z in states):
        return
    bad = np.any([~np.isfinite(z.reshape(len(plans), -1)).all(axis=1)
                  for z in states], axis=0)
    j = plans[np.argmax(bad)].trajectory_index
    raise FloatingPointError(
        f"non-finite {kind} state at step {step}, trajectory {j}")


def _lifted_steps(component, coeffs, z0, plans):
    """Integrate the ensemble of plans; yield (step, z, x) for step 0 and
    after every step.  Each yielded array is new, never updated in place."""
    z, x = _initial_states(component, z0, len(plans))
    decay, phi = _step_factors(component, plans[0].h)
    yield 0, z, x
    for step, dw in enumerate(_stacked_increments(plans), start=1):
        z, x = lifted_step(component, coeffs, z, x, dw, decay, phi)
        _check_finite("lifted", step, plans, z)
        yield step, z, x


def simulate_lifted(component, coeffs, z0, plan):
    """Integrate one trajectory, recording every state."""
    m = plan.n_steps
    states = np.empty((m + 1, component.size, component.n))
    obs = np.empty((m + 1, component.n))
    for step, z, x in _lifted_steps(component, coeffs, z0, [plan]):
        states[step], obs[step] = z[0], x[0]
    return LiftedPath(times=np.arange(m + 1) * plan.h, states=states,
                      observables=obs)


def simulate_lifted_ensemble(component, coeffs, z0, plans, record_times=None):
    """Integrate one trajectory per plan from z0 (one state, or one per
    trajectory).  Returns (times, X, z_final) with X of shape
    (n_rec, n_traj, n); record_times=None records the final time only."""
    h, m = plans[0].h, plans[0].n_steps
    rec_steps = ([m] if record_times is None
                 else [int(round(t / h)) for t in record_times])
    if any(s < 0 or s > m for s in rec_steps):
        raise ValueError("record time outside the simulated horizon")
    rec = dict.fromkeys(rec_steps)
    for step, z, x in _lifted_steps(component, coeffs, z0, plans):
        if step in rec:
            rec[step] = x
    return (np.array([s * h for s in rec_steps]),
            np.stack([rec[s] for s in rec_steps]), z)


@cache
def _gauss_legendre(order):
    """Nodes and weights on (-1, 1), built once per order on first use, so
    that a run which never calls the direct scheme never loads
    numpy.polynomial."""
    return np.polynomial.legendre.leggauss(order)


def _gauss_legendre_integral(f, lo, hi, order=12):
    nodes, wts = _gauss_legendre(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * sum(w * f(mid + half * s) for s, w in zip(nodes, wts))


def volterra_weights(k_b, k_s, h, m):
    """Quadrature weights for the direct scheme.

    Drift: KB_l = integral of K_b over ((l-1)h, lh); K_b may be singular
    at 0+ but is locally integrable.  Diffusion: left-point values K_s(l h)
    for l >= 2; the first weight is the root-mean-square of K_s over (0, h)
    so the Ito isometry of the first step is matched.
    """
    kb = []
    ks = []
    for ell in range(1, m + 1):
        lo, hi = (ell - 1) * h, ell * h
        if ell == 1:
            # s = u^2 flattens the possible endpoint singularity
            kb.append(_gauss_legendre_integral(
                lambda u: 2.0 * u * np.atleast_2d(k_b(u * u)),
                math.sqrt(1e-300), math.sqrt(h), order=64))
            mean_sq = _gauss_legendre_integral(
                lambda u: 2.0 * u * np.atleast_2d(k_s(u * u)) ** 2,
                math.sqrt(1e-300), math.sqrt(h), order=64) / h
            ks.append(np.sqrt(np.maximum(mean_sq, 0.0))
                      if mean_sq.shape == (1, 1)
                      else _matrix_sqrt(mean_sq))
        else:
            kb.append(_gauss_legendre_integral(
                lambda s: np.atleast_2d(k_b(s)), lo, hi, order=12))
            ks.append(np.atleast_2d(k_s(hi)))
    return np.stack(kb), np.stack(ks)


def _matrix_sqrt(a):
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def simulate_volterra_direct(kernels, coeffs, forcing, plan):
    """Left-point Euler for the Volterra equation itself (single trajectory).

    kernels: (K_b, K_s) evaluators t -> (n, n); forcing: t -> (n,).
    """
    k_b, k_s = kernels
    h, m, n = plan.h, plan.n_steps, coeffs.n
    kb, ks = volterra_weights(k_b, k_s, h, m)
    incs = plan.increments()
    x = np.empty((m + 1, n))
    bvals = np.empty((m, n))
    svals = np.empty((m, n))
    x[0] = np.atleast_1d(forcing(0.0))
    for step in range(1, m + 1):
        j = step - 1
        bvals[j] = coeffs.b(x[j])
        svals[j] = np.einsum("pd,d->p", np.atleast_2d(coeffs.sigma(x[j])
                                                      ).reshape(n, coeffs.d),
                             incs[j])
        drift = np.einsum("lpq,lq->p", kb[:step][::-1], bvals[:step])
        noise = np.einsum("lpq,lq->p", ks[:step][::-1], svals[:step])
        x[step] = np.atleast_1d(forcing(step * h)) + drift + noise
        _check_finite("Volterra", step, [plan], x[step])
    return np.arange(m + 1) * h, x


# -- coefficient presets -----------------------------------------------------

def _const_sigma(value, n, d):
    mat = np.broadcast_to(np.atleast_2d(value), (n, d)).astype(float)

    def sigma(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(mat, x.shape[:-1] + (n, d)).copy()

    return sigma


def preset_linear(beta=1.0, c=0.0, sigma0=1.0, n=1):
    """b(x) = -beta x + c with constant diffusion."""
    cvec = np.atleast_1d(np.asarray(c, dtype=float))
    if cvec.shape not in ((1,), (n,)):
        raise ValueError(f"c must be a number or a list of n = {n} numbers, "
                         f"got {c!r}")
    cvec = np.broadcast_to(cvec, (n,)).copy()

    def b(x):
        return -beta * np.asarray(x, dtype=float) + cvec

    # <b(x), x> = -beta |x|^2 + <c, x> <= (-beta + eps)|x|^2 + |c|^2/(4 eps)
    eps = 0.5 if np.any(cvec != 0.0) else 0.0
    return CoefficientModel(
        b=b, sigma=_const_sigma(sigma0, n, n), n=n, d=n,
        C_bLip=abs(beta), C_sLip=0.0,
        gamma=max(-beta + eps, 1e-12),
        C_bLG=float(np.dot(cvec, cvec)) / 2.0 + 1e-12,
        p=0.5, C_ssub=abs(sigma0) * math.sqrt(n),
        C_UE=1.0 / sigma0 ** 2 if sigma0 != 0.0 else None)


def preset_tanh(scale=1.0, sigma0=1.0, n=1):
    """Bounded Lipschitz drift b(x) = -x + scale*tanh(x), constant diffusion."""
    def b(x):
        x = np.asarray(x, dtype=float)
        return -x + scale * np.tanh(x)

    return CoefficientModel(
        b=b, sigma=_const_sigma(sigma0, n, n), n=n, d=n,
        C_bLip=1.0 + abs(scale), C_sLip=0.0,
        gamma=max(abs(scale) - 1.0, 1e-12) if scale >= 0 else 1e-12,
        C_bLG=abs(scale) + 1.0,
        p=0.5, C_ssub=abs(sigma0) * math.sqrt(n), C_UE=1.0 / sigma0 ** 2)


def preset_double_well(sigma0=1.0, n=1, gamma=0.25):
    """Gradient drift of V(x) = (|x|^2 - 1)^2 / 4: b(x) = -x (|x|^2 - 1).

    <b(x), x> = |x|^2 (1 - |x|^2) <= gamma |x|^2 + ((1 - gamma)/2)^2 for any
    gamma in (0, 1]; not globally Lipschitz, so no C_bLip is declared.
    """
    def b(x):
        x = np.asarray(x, dtype=float)
        sq = np.sum(x * x, axis=-1, keepdims=True)
        return -x * (sq - 1.0)

    return CoefficientModel(
        b=b, sigma=_const_sigma(sigma0, n, n), n=n, d=n,
        C_bLip=None, C_sLip=0.0,
        gamma=gamma, C_bLG=((1.0 - gamma) / 2.0) ** 2 + 1e-12,
        p=0.5, C_ssub=abs(sigma0) * math.sqrt(n), C_UE=1.0 / sigma0 ** 2)


PRESETS = {
    "linear": preset_linear,
    "tanh": preset_tanh,
    "double_well": preset_double_well,
}


def make_preset(name, **kwargs):
    if name not in PRESETS:
        raise ValueError(f"unknown coefficient preset {name!r}")
    return PRESETS[name](**kwargs)
