"""Ensemble Monte Carlo diagnostics: Wasserstein estimators, decay fits,
stationarity tests, lift-independence and invariant-measure convergence.

The stationarity and lift-independence verdicts are relative to
same-distribution bootstrap noise floors (noise_floor) rather than analytic
rates.  ergodic_decay needs no floor: its two ensembles share their noise,
and its rate's error is the batch-means error over the lane blocks.  The
coupling verdicts (coupling.contraction_report) are relative to the
exp(-kappa t / 2) envelope.  Each ensemble, and ergodic_decay's two
together, runs as one batch of dynamics.simulate_lifted_ensemble, which
steps a large one in two processes with the bits of one; the diagnostics
run on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import build_component, epsilon_k
from .dynamics import (DIAGNOSTIC_STREAM, NOISE_LANES, keyed_generator,
                       make_plans, simulate_lifted_ensemble)
from .kernelbasis import DIFFUSION, DRIFT, eval_kernel
from .weights import check_lyapunov_sufficient


N_DIRECTIONS = 32  # random unit directions of sliced_w1 when n >= 2


def _w1_sorted(a, b):
    """Mean exact W1 between the rows of a and b, sorted along the last
    axis.  Equal sizes overwrite a: a temporary of that size costs time."""
    na, nb = a.shape[-1], b.shape[-1]
    if na == 0 or nb == 0:
        raise ValueError("empty sample set")
    if na == nb:
        a -= b
        return float(np.mean(np.abs(a, out=a)))
    # unequal sizes: integrate |F_a^{-1} - F_b^{-1}| over the merged grid
    qa, qb = np.arange(1, na + 1) / na, np.arange(1, nb + 1) / nb
    qs = np.union1d(qa, qb)
    ia, ib = (np.minimum(np.searchsorted(q, qs - 1e-15), len(q) - 1)
              for q in (qa, qb))
    return float(np.mean(np.abs(a[..., ia] - b[..., ib])
                         @ np.diff(qs, prepend=0.0)))


def _projected_w1(a, b, dirs):
    """Mean exact W1 of the rows of a and b, (N, n) and (M, n), projected
    onto each unit direction, a row of dirs (n_dirs, n): every W1 the
    package reports."""
    pa, pb = dirs @ a.T, dirs @ b.T
    pa.sort(axis=1)
    pb.sort(axis=1)
    return _w1_sorted(pa, pb)


def wasserstein1_1d(samples_a, samples_b):
    """Exact empirical W1 on the line: _projected_w1 of one direction."""
    return _projected_w1(*(np.asarray(s, dtype=float).reshape(-1, 1)
                           for s in (samples_a, samples_b)), np.ones((1, 1)))


def _directions(seed, n):
    """The unit directions of sliced_w1, (n_dirs, n): the single direction 1
    when n = 1, else N_DIRECTIONS drawn from the diagnostic stream keyed by
    seed."""
    if n == 1:
        return np.ones((1, 1))
    dirs = keyed_generator(seed, DIAGNOSTIC_STREAM).standard_normal(
        (N_DIRECTIONS, n))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def sliced_w1(samples_a, samples_b, seed=0):
    """Mean exact W1 of two samples of (N, n) rows (a 1-d sample: n = 1)
    projected onto the _directions of seed; for n = 1 that is
    wasserstein1_1d."""
    a, b = (np.asarray(s, dtype=float).reshape(len(s), -1)
            for s in (samples_a, samples_b))
    return _projected_w1(a, b, _directions(seed, a.shape[-1]))


def noise_floor(samples_a, samples_b, n_boot=100, seed=0):
    """Same-distribution bootstrap floor: resample two sets of rows from the
    pooled rows and take mean + 3 std of their sliced W1 on the directions
    of seed, the statistic the floor gates."""
    a, b = (np.asarray(s, dtype=float).reshape(len(s), -1)
            for s in (samples_a, samples_b))
    pool = np.concatenate([a, b])
    gen = keyed_generator(seed, DIAGNOSTIC_STREAM + 1)
    dirs = _directions(seed, pool.shape[-1])
    vals = np.array([
        _projected_w1(pool[gen.choice(len(pool), size=len(a))],
                      pool[gen.choice(len(pool), size=len(b))], dirs)
        for _ in range(n_boot)])
    return float(vals.mean() + 3.0 * vals.std(ddof=1))


def run_ensemble(component, coeffs, z0, seed, n_traj, h, T, record_times,
                 first_index=0):
    """(times, X): the simulated record times, each a whole number of steps
    (see simulate_lifted_ensemble), and X there, shape (n_rec, n_traj, n),
    of the trajectories first_index, ..., first_index + n_traj - 1 of seed,
    started from z0 (one state, or one per trajectory).  They run as one
    batch; a trajectory's bits do not depend on its batch."""
    plans = make_plans(seed, n_traj, h, T, d=coeffs.d,
                       first_index=first_index)
    return simulate_lifted_ensemble(component, coeffs, z0, plans,
                                    record_times=record_times)[:2]


def decay_rate(times, values):
    """Least-squares (rate, intercept) of log v = intercept - rate t, v > 0."""
    mask = values > 0.0
    if mask.sum() < 2:
        return np.nan, np.nan
    slope, intercept = np.polyfit(times[mask], np.log(values[mask]), 1)
    return -slope, intercept


@dataclass(frozen=True)
class DecayFit:
    times: np.ndarray
    w1: np.ndarray
    r_hat: float
    intercept: float
    r_stderr: float


def ergodic_decay(component, coeffs, y1, y2, n_traj, times, seed=0, h=1e-2):
    """W1(t) between the X-marginals of two ensembles started at the states
    y1, y2 on common noise (both run trajectories 0, ..., n_traj - 1 of
    seed: the synchronous coupling), with a log-linear decay fit.  Both
    step as one batch, so a non-finite state aborts at the earliest step of
    either, and both are at the simulated times: each of times rounded to
    a step.  Each full lane block of NOISE_LANES trajectories has a stream
    of its own, so its fitted rate is an independent replicate; the rate's
    standard error is the batch-means error over the finite ones, NaN with
    fewer than two."""
    if n_traj < 2:
        raise ValueError("need at least two trajectories")
    if component.source is not None:
        rep = check_lyapunov_sufficient(component.source, coeffs)
        if not rep.passed:
            import warnings
            warnings.warn("Lyapunov sufficiency check failed; the decay fit "
                          "may not stabilize", stacklevel=2)
    # one batch, lane block by lane block: a block's trajectories from y1,
    # then the same from y2, so each block is drawn once for both and a
    # fork splits the batch between blocks
    order = np.argsort(np.tile(np.arange(n_traj) // NOISE_LANES, 2),
                       kind="stable")
    copy = order // n_traj
    sim_times, X, _ = simulate_lifted_ensemble(
        component, coeffs, np.stack([np.ravel(y1), np.ravel(y2)])[copy],
        make_plans(seed, n_traj, h, max(times), d=coeffs.d)[order % n_traj],
        record_times=times)
    ens1, ens2 = X[:, copy == 0], X[:, copy == 1]
    dirs = _directions(seed, ens1.shape[-1])

    def w1_of(lanes):
        return np.array([_projected_w1(sa[lanes], sb[lanes], dirs)
                         for sa, sb in zip(ens1, ens2)])

    w1 = w1_of(slice(None))
    r_hat, intercept = decay_rate(sim_times, w1)
    rates = np.array([
        decay_rate(sim_times, w1_of(slice(j, j + NOISE_LANES)))[0]
        for j in range(0, n_traj - NOISE_LANES + 1, NOISE_LANES)])
    rates = rates[np.isfinite(rates)]
    r_se = (float(np.std(rates, ddof=1) / np.sqrt(len(rates)))
            if len(rates) > 1 else np.nan)
    return DecayFit(times=sim_times, w1=w1, r_hat=float(r_hat),
                    intercept=float(intercept), r_stderr=r_se)


@dataclass(frozen=True)
class StationarityResult:
    lags: np.ndarray
    w1: np.ndarray
    floors: np.ndarray
    passed: np.ndarray   # per-lag booleans

    @property
    def all_pass(self):
        return bool(np.all(self.passed))


def _check_lags(burn_in, lags, h):
    """Each burn_in + lag rounds to a step of h of its own, after burn_in's:
    a lag of no step would compare the marginal with itself, and two lags
    on one step would repeat a row."""
    burn_step = round(burn_in / h)
    seen = {}
    for lag in lags:
        step = round((burn_in + lag) / h)
        if step <= burn_step:
            raise ValueError(f"lags entry {lag!r} puts burn_in + lag on "
                             f"step {step} of h = {h!r}, not after "
                             f"burn_in's step {burn_step}")
        if step in seen:
            raise ValueError(f"lags entries {seen[step]!r} and {lag!r} put "
                             f"burn_in + lag on the same step {step} of "
                             f"h = {h!r}")
        seen[step] = lag


def stationarity_test(component, coeffs, burn_in, lags, n_traj, z0, seed=0,
                      h=1e-2, n_boot=100):
    """Compare the X-marginal at burn_in against burn_in + lag for each lag.
    The lags reported are the simulated ones: each time rounded to a step,
    which _check_lags requires distinct."""
    if len(lags) == 0:
        raise ValueError("lags must be nonempty")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    _check_lags(burn_in, lags, h)
    lags = np.asarray(sorted(lags), dtype=float)
    record = [burn_in] + [burn_in + l for l in lags]
    T = record[-1]
    rec_times, ens = run_ensemble(component, coeffs, z0, seed, n_traj, h, T,
                                  record)
    lags = rec_times[1:] - rec_times[0]
    ref = ens[0]
    w1 = np.empty(lags.size)
    floors = np.empty(lags.size)
    for i in range(lags.size):
        cur = ens[i + 1]
        w1[i] = sliced_w1(ref, cur, seed=seed)
        floors[i] = noise_floor(ref, cur, n_boot, (seed + i) % 2 ** 64)
    return StationarityResult(lags=lags, w1=w1, floors=floors,
                              passed=w1 <= floors)


@dataclass(frozen=True)
class LiftIndependenceResult:
    w1: float
    floor: float
    eps_bias: float

    @property
    def passed(self):
        return self.w1 <= self.floor + self.eps_bias


def lift_independence_test(basis_a, basis_b, coeffs, T, n_traj, k=64,
                           seed=0, h=1e-2, theta_max="auto"):
    """Stationary X-marginals of two bases generating the same kernel pair
    (to a relative 1e-3 at nine times in [0.1, 5])."""
    for which in (DRIFT, DIFFUSION):
        for t in np.geomspace(1e-1, 5.0, 9):
            ka = eval_kernel(basis_a, which, float(t))
            kb = eval_kernel(basis_b, which, float(t))
            scale = max(np.linalg.norm(ka), np.linalg.norm(kb), 1e-300)
            if np.linalg.norm(ka - kb) > 1e-3 * scale:
                raise ValueError(
                    f"bases generate different {which} kernels at t={t}")
    comp_a = build_component(basis_a, k, theta_max)
    comp_b = build_component(basis_b, k, theta_max)
    z0a = np.zeros((comp_a.size, basis_a.n))
    z0b = np.zeros((comp_b.size, basis_b.n))
    x_a = run_ensemble(comp_a, coeffs, z0a, seed, n_traj, h, T, [T])[1][-1]
    x_b = run_ensemble(comp_b, coeffs, z0b, seed, n_traj, h, T, [T],
                       first_index=n_traj)[1][-1]
    w1 = sliced_w1(x_a, x_b, seed=seed)
    floor = noise_floor(x_a, x_b, seed=seed)
    bias = (epsilon_k(basis_a, comp_a) + epsilon_k(basis_b, comp_b))
    return LiftIndependenceResult(w1=float(w1), floor=float(floor),
                                  eps_bias=float(bias))


@dataclass(frozen=True)
class IpmTrend:
    ks: np.ndarray
    eps: np.ndarray
    w1: np.ndarray          # distance to the finest rung, per coarser rung
    finest_floor: float
    spearman: float

    @property
    def trend_positive(self):
        return self.spearman > 0.0


def ipm_convergence(basis, coeffs, ks, T, n_traj, seed=0, h=1e-2):
    """W1 between each rung's stationary X-marginal and the finest rung's,
    each rung cut off at its automatic theta_max and run on common noise:
    trajectories 0, ..., n_traj - 1 of seed."""
    if len(ks) < 2:
        raise ValueError("ladder needs at least two rungs")
    ks = sorted(ks)
    rep = check_lyapunov_sufficient(basis, coeffs)
    if not rep.passed:
        raise ValueError("Lyapunov sufficiency check failed for this ladder")
    marginals = []
    eps = []
    for k in ks:
        comp = build_component(basis, k)
        eps.append(epsilon_k(basis, comp))
        z0 = np.zeros((comp.size, basis.n))
        marginals.append(run_ensemble(comp, coeffs, z0, seed, n_traj, h, T,
                                      [T])[1][-1])
    finest = marginals[-1]
    w1 = np.array([sliced_w1(mk, finest, seed=seed) for mk in marginals[:-1]])
    floor = noise_floor(finest, finest, seed=seed)
    return IpmTrend(ks=np.asarray(ks[:-1]), eps=np.asarray(eps[:-1]), w1=w1,
                    finest_floor=float(floor),
                    spearman=_spearman(eps[:-1], w1))


def _spearman(x, y):
    """Spearman rank correlation of two samples, ties taking their mean
    rank; NaN when a sample has one entry or is constant."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return float("nan")
    # rank = 1 + #smaller + (#equal - 1) / 2; quadratic, for ladder sizes
    ranks = [(v[:, None] > v).sum(1) + 0.5 * ((v[:, None] == v).sum(1) + 1)
             for v in (x, y)]
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])

