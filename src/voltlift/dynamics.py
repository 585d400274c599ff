"""Integrators for the lifted SDE and the direct Volterra discretization.

The lifted scheme is an exponential (exact-linear-part) Euler step; the
direct scheme is a left-point Volterra Euler with drift weights integrated
on the rule of ``quad.nodes``.  Both run a batch of plans on one noise
source, ``_stacked_increments``, which draws counter-based per-trajectory
streams, so that paths can be cross-validated on identical noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .quad import nodes

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


@dataclass(frozen=True)
class StepOperators:
    """The exponential-Euler step of one component at one step size h, as
    operators on trajectory-last states z of shape (I*n, n_traj), row i*n+p
    holding entry p of factor i."""
    n: int
    decay: np.ndarray    # (I*n, 1): exp(-a h), repeated over n
    forcing: np.ndarray  # (k*n, I*n): [(lam phi M_s ;) phi M_b ; decay M_s]
    w: np.ndarray        # (I,): x = sum_i w_i z_i

    def observe(self, z):
        return np.einsum("i,ipt->pt", self.w, z.reshape(len(self.w), self.n,
                                                        -1))


def step_operators(component, h, lam=None):
    """Operators of the step; lam adds the coupling control's block, which
    the controlled copy applies to v = mu_{sigma,Phi}[y - yh].  It comes
    first, so that the noise is summed last: once y - yh falls below the
    states' resolution, late in a coupled run, that order keeps more of
    its bits."""
    a, size, n = component.a, component.size, component.n
    decay = np.exp(-a * h)
    phi = np.where(a * h < DRIFT_FACTOR_CUTOFF,
                   h, (1.0 - decay) / np.where(a == 0.0, 1.0, a))
    blocks = [phi[:, None, None] * component.Mb,
              decay[:, None, None] * component.Ms]
    if lam is not None:
        blocks.insert(0, lam * phi[:, None, None] * component.Ms)
    # block[i, p, q] maps forcing entry q to state row i*n+p
    forcing = np.concatenate([b.transpose(2, 0, 1).reshape(n, size * n)
                              for b in blocks])
    return StepOperators(n=n, decay=np.repeat(decay, n)[:, None],
                         forcing=forcing, w=component.w)


def lifted_step(ops, coeffs, z, x, dw, v=None):
    """One exponential-Euler step of trajectory-last states: z (I*n, n_traj),
    x (n, n_traj), dw (n_traj, d).  v (n, n_traj), the coupling control's
    input, meets the control block of ops.forcing; without v the last two
    blocks apply."""
    xt = x.T
    forcing = [coeffs.b(xt).T,
               np.einsum("tpd,td->pt", coeffs.sigma(xt), dw)]
    if v is not None:
        forcing.insert(0, v)
    forcing = np.concatenate(forcing)
    z = ops.decay * z
    z += np.einsum("kj,kt->jt", ops.forcing[-len(forcing):], forcing)
    return z, ops.observe(z)


def _batch(plans):
    """plans, a lone plan twice.  numpy drops a trajectory axis of length 1
    from an einsum and may then sum over the factors in its inner loop, in
    another order; two columns keep a trajectory's bits the same in every
    batch."""
    return plans * 2 if len(plans) == 1 else plans


def _initial_states(ops, z0, n_traj):
    """(I*n, n_traj) copies of z0 (one state shared, or one per trajectory)
    and their x."""
    z = np.asarray(z0, dtype=float).reshape(-1, ops.forcing.shape[1]).T
    z = np.broadcast_to(z, (z.shape[0], n_traj)).copy()
    return z, ops.observe(z)


def _by_trajectory(component, z):
    """A trajectory-last state as (n_traj, I, n), a view."""
    return z.T.reshape(z.shape[1], component.size, component.n)


def _check_finite(kind, step, plans, *states):
    """Abort naming the step and first trajectory with a non-finite state."""
    if all(np.isfinite(z).all() for z in states):
        return
    bad = np.any([~np.isfinite(z).all(axis=0) for z in states], axis=0)
    j = plans[np.argmax(bad)].trajectory_index
    raise FloatingPointError(
        f"non-finite {kind} state at step {step}, trajectory {j}")


def _lifted_steps(component, coeffs, z0, plans):
    """Integrate the ensemble of plans (a lone plan twice, see _batch);
    yield (step, z, x), trajectory-last, for step 0 and after every step.
    Each yielded array is new, never updated in place."""
    plans = _batch(plans)
    ops = step_operators(component, plans[0].h)
    z, x = _initial_states(ops, z0, len(plans))
    yield 0, z, x
    for step, dw in enumerate(_stacked_increments(plans), start=1):
        z, x = lifted_step(ops, coeffs, z, x, dw)
        _check_finite("lifted", step, plans, z)
        yield step, z, x


def simulate_lifted(component, coeffs, z0, plan):
    """Integrate one trajectory, recording every state."""
    m = plan.n_steps
    states = np.empty((m + 1, component.size, component.n))
    obs = np.empty((m + 1, component.n))
    for step, z, x in _lifted_steps(component, coeffs, z0, [plan]):
        states[step], obs[step] = _by_trajectory(component, z)[0], x[:, 0]
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
    n_traj = len(plans)
    for step, z, x in _lifted_steps(component, coeffs, z0, plans):
        if step in rec:
            rec[step] = x[:, :n_traj].T
    return (np.array([s * h for s in rec_steps]),
            np.stack([rec[s] for s in rec_steps]),
            _by_trajectory(component, z)[:n_traj].copy())


def volterra_weights(k_b, k_s, h, m):
    """Quadrature weights for the direct scheme, each of shape (m, n, n).

    Drift: KB_l = integral of K_b over ((l-1)h, lh), on the rule of
    ``quad.nodes``; K_b may be singular at 0+ but is locally integrable.
    Diffusion: left-point values K_s(l h) for l >= 2; the first weight is
    the symmetric square root of the mean of K_s K_s^T over (0, h), so the
    Ito isometry of the first step is matched.  A kernel written for a
    scalar t is called on t[..., None, None] and so broadcasts to
    t.shape + (n, n).
    """
    def at(k, t):
        val = np.asarray(k(t[..., None, None]), dtype=float)
        return np.broadcast_to(val, t.shape + val.shape[-2:])

    lo, hi = np.arange(m) * h, np.arange(1, m + 1) * h
    u, w = nodes(lo, hi)
    kb = np.einsum("ln,lnpq->lpq", w, at(k_b, lo[:, None] + u))
    ks = at(k_s, u[0])
    gram = ks @ np.swapaxes(ks, -1, -2)
    vals, vecs = np.linalg.eigh(np.einsum("n,npq->pq", w[0], gram) / h)
    first = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    return kb, np.concatenate([first[None], at(k_s, hi[1:])])


def simulate_volterra_direct(kernels, coeffs, forcing, plans):
    """Left-point Euler for the Volterra equation itself, one trajectory
    per plan (a list with common (h, T)), on the noise of the lifted
    integrators.  kernels: (K_b, K_s), see volterra_weights; forcing:
    t -> (n,).  Returns (times, x) with x of shape (m+1, n_traj, n)."""
    h, m, n, n_traj = plans[0].h, plans[0].n_steps, coeffs.n, len(plans)
    batch = _batch(plans)
    kb, ks = volterra_weights(*kernels, h, m)
    # trajectory-last, as in lifted_step: einsum's inner loop then runs
    # over the trajectories, and each history sum keeps one order in
    # any batch
    x = np.empty((m + 1, n, len(batch)))
    bvals = np.empty((m, n, len(batch)))
    svals = np.empty((m, n, len(batch)))
    x[0] = np.atleast_1d(forcing(0.0))[:, None]
    for step, dw in enumerate(_stacked_increments(batch), start=1):
        xt = x[step - 1].T
        bvals[step - 1] = coeffs.b(xt).T
        svals[step - 1] = np.einsum("tpd,td->pt", coeffs.sigma(xt), dw)
        x[step] = (np.atleast_1d(forcing(step * h))[:, None]
                   + np.einsum("lpq,lqt->pt", kb[step - 1::-1],
                               bvals[:step])
                   + np.einsum("lpq,lqt->pt", ks[step - 1::-1],
                               svals[:step]))
        _check_finite("Volterra", step, batch, x[step])
    return np.arange(m + 1) * h, x[..., :n_traj].transpose(0, 2, 1)


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
