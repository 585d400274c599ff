"""Ensemble Monte Carlo diagnostics: Wasserstein estimators, decay fits,
stationarity tests, lift-independence and invariant-measure convergence.

All pass/fail verdicts are relative to same-distribution bootstrap noise
floors rather than analytic rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import build_component, epsilon_k
from .dynamics import make_plans, simulate_lifted_ensemble
from .kernelbasis import DIFFUSION, DRIFT, eval_kernel
from .weights import check_lyapunov_sufficient

# Trajectories per batch, a bound on memory: a run of ergodic_2d (4096
# trajectories) peaked at 93 MB in one batch against 53 MB in chunks of 1024.
CHUNK = 1024


def wasserstein1_1d(samples_a, samples_b):
    """Exact empirical W1 on the line via quantile coupling."""
    a = np.sort(np.asarray(samples_a, dtype=float).ravel())
    b = np.sort(np.asarray(samples_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    # unequal sizes: integrate |F_a^{-1} - F_b^{-1}| over the merged grid
    qa = np.arange(1, a.size + 1) / a.size
    qb = np.arange(1, b.size + 1) / b.size
    qs = np.union1d(qa, qb)
    widths = np.diff(np.concatenate(([0.0], qs)))
    ia = np.minimum(np.searchsorted(qa, qs - 1e-15), a.size - 1)
    ib = np.minimum(np.searchsorted(qb, qs - 1e-15), b.size - 1)
    return float(np.sum(widths * np.abs(a[ia] - b[ib])))


def sliced_w1(samples_a, samples_b, n_directions=32, seed=0):
    """Average 1-d W1 over random unit directions (exact for n = 1)."""
    if n_directions < 1:
        raise ValueError("need at least one direction")
    a = np.atleast_2d(np.asarray(samples_a, dtype=float))
    b = np.atleast_2d(np.asarray(samples_b, dtype=float))
    n = a.shape[-1]
    if n == 1:
        return wasserstein1_1d(a, b)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                            dtype=np.uint64)))
    dirs = gen.standard_normal((n_directions, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = [wasserstein1_1d(a @ u, b @ u) for u in dirs]
    return float(np.mean(vals))


def noise_floor(samples_a, samples_b, n_boot=100, seed=0):
    """Same-distribution bootstrap floor: resample two sets of rows from the
    pooled rows and take mean + 3 std of their marginal W1, the
    statistic the floor gates."""
    a, b = (np.asarray(s, float).reshape(len(s), -1)
            for s in (samples_a, samples_b))
    pool = np.concatenate([a, b])
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 1],
                                                            dtype=np.uint64)))
    vals = np.empty(n_boot)
    for i in range(n_boot):
        xa = pool[gen.choice(len(pool), size=len(a))]
        xb = pool[gen.choice(len(pool), size=len(b))]
        vals[i] = sliced_w1(xa, xb, seed=seed)
    return float(vals.mean() + 3.0 * vals.std(ddof=1))


def run_ensemble(component, coeffs, z0, seed, n_traj, h, T, record_times,
                 first_index=0):
    """X at record_times, shape (n_rec, n_traj, n), of the trajectories
    first_index, ..., first_index + n_traj - 1 of seed, started from z0
    (one state, or one per trajectory).  They run in chunks of CHUNK, one
    after another; a trajectory's bits do not depend on its chunk."""
    z0 = np.asarray(z0)
    if z0.ndim == 3 and len(z0) != n_traj:
        raise ValueError(f"z0 holds {len(z0)} initial states for "
                         f"{n_traj} trajectories")
    chunks = []
    for start in range(0, n_traj, CHUNK):
        count = min(CHUNK, n_traj - start)
        plans = make_plans(seed, count, h, T, d=coeffs.d,
                           first_index=first_index + start)
        z0_chunk = z0[start:start + count] if z0.ndim == 3 else z0
        chunks.append(simulate_lifted_ensemble(
            component, coeffs, z0_chunk, plans, record_times=record_times)[1])
    return np.concatenate(chunks, axis=1)


@dataclass(frozen=True)
class DecayFit:
    times: np.ndarray
    w1: np.ndarray
    r_hat: float
    intercept: float
    r_stderr: float


def ergodic_decay(component, coeffs, y1, y2, n_traj, times, seed=0, h=1e-2,
                  n_boot=100):
    """W1(t) between the X-marginals of two ensembles started at y1, y2,
    with a log-linear decay fit and a bootstrap standard error for the rate."""
    if n_traj < 2:
        raise ValueError("need at least two trajectories")
    if component.source is not None:
        rep = check_lyapunov_sufficient(component.source, coeffs)
        if not rep.passed:
            import warnings
            warnings.warn("Lyapunov sufficiency check failed; the decay fit "
                          "may not stabilize", stacklevel=2)
    T = max(times)
    ens1 = run_ensemble(component, coeffs, y1, seed, n_traj, h, T, times)
    ens2 = run_ensemble(component, coeffs, y2, seed, n_traj, h, T, times,
                        first_index=n_traj)

    def marginal_w1(sa, sb):
        return np.array([sliced_w1(sa[i], sb[i], seed=seed)
                         for i in range(len(times))])

    def fit(vals):
        mask = vals > 0.0
        if mask.sum() < 2:
            return np.nan, np.nan
        slope, icept = np.polyfit(np.asarray(times)[mask],
                                  np.log(vals[mask]), 1)
        return -slope, icept

    w1 = marginal_w1(ens1, ens2)
    r_hat, intercept = fit(w1)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 2],
                                                            dtype=np.uint64)))
    boots = []
    for _ in range(n_boot):
        ia = gen.integers(0, n_traj, n_traj)
        ib = gen.integers(0, n_traj, n_traj)
        r_b, _ = fit(marginal_w1(ens1[:, ia], ens2[:, ib]))
        if np.isfinite(r_b):
            boots.append(r_b)
    r_se = float(np.std(boots, ddof=1)) if len(boots) > 1 else np.nan
    return DecayFit(times=np.asarray(times, float), w1=w1, r_hat=float(r_hat),
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


def stationarity_test(component, coeffs, burn_in, lags, n_traj, z0, seed=0,
                      h=1e-2, n_boot=100):
    """Compare the X-marginal at burn_in against burn_in + lag for each lag."""
    if len(lags) == 0:
        raise ValueError("lags must be nonempty")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    lags = np.asarray(sorted(lags), dtype=float)
    record = [burn_in] + [burn_in + l for l in lags]
    T = record[-1]
    ens = run_ensemble(component, coeffs, z0, seed, n_traj, h, T, record)
    ref = ens[0]
    w1 = np.empty(lags.size)
    floors = np.empty(lags.size)
    for i in range(lags.size):
        cur = ens[i + 1]
        w1[i] = sliced_w1(ref, cur, seed=seed)
        floors[i] = noise_floor(ref, cur, n_boot=n_boot, seed=seed + i)
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
    x_a = run_ensemble(comp_a, coeffs, z0a, seed, n_traj, h, T, [T])[-1]
    x_b = run_ensemble(comp_b, coeffs, z0b, seed, n_traj, h, T, [T],
                       first_index=n_traj)[-1]
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
    each rung cut off at its automatic theta_max."""
    if len(ks) < 2:
        raise ValueError("ladder needs at least two rungs")
    ks = sorted(ks)
    rep = check_lyapunov_sufficient(basis, coeffs)
    if not rep.passed:
        raise ValueError("Lyapunov sufficiency check failed for this ladder")
    marginals = []
    eps = []
    for i, k in enumerate(ks):
        comp = build_component(basis, k)
        eps.append(epsilon_k(basis, comp))
        z0 = np.zeros((comp.size, basis.n))
        marginals.append(run_ensemble(comp, coeffs, z0, seed, n_traj, h, T,
                                      [T], first_index=i * n_traj)[-1])
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

