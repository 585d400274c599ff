import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from voltlift import dynamics, ergodics
from voltlift.discretize import build_component
from voltlift.dynamics import (DIAGNOSTIC_STREAM, NoisePlan, keyed_generator,
                               make_preset, simulate_lifted)
from voltlift.ergodics import (N_DIRECTIONS, _directions, _spearman,
                               _w1_sorted, decay_rate, ergodic_decay,
                               lift_independence_test, noise_floor,
                               run_ensemble, sliced_w1, stationarity_test,
                               wasserstein1_1d)
from voltlift.kernelbasis import make_expsum_basis

EYE = np.eye(1)


def ou_setup(rate=1.0):
    basis = make_expsum_basis([(rate, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=rate + 1.0)
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    return comp, coeffs


# scipy's implementation is the independent oracle for the 1-d distance
@settings(max_examples=50, deadline=None)
@given(a=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
       b=st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_w1_matches_scipy(a, b):
    got = wasserstein1_1d(np.array(a), np.array(b))
    want = stats.wasserstein_distance(a, b)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_spearman_matches_scipy_exactly():
    rng = np.random.default_rng(5)
    cases = [([1.0], [2.0]), ([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]),
             ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])]
    for _ in range(2000):
        size = int(rng.integers(1, 13))
        # few distinct values, so most samples carry ties
        cases.append((rng.integers(0, 4, size) * 0.25,
                      rng.integers(0, 4, size) * 0.5 + rng.random(size)
                      * (rng.random() < 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        for x, y in cases:
            want = stats.spearmanr(x, y)[0]
            got = _spearman(x, y)
            assert got == want or (np.isnan(got) and np.isnan(want)), (x, y)
    assert np.isnan(_spearman([1.0], [2.0]))
    assert np.isnan(_spearman([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]))


def test_w1_translation_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    assert wasserstein1_1d(x, x + 2.5) == pytest.approx(2.5, rel=1e-12)
    assert wasserstein1_1d(x, x) == 0.0


def test_w1_rejects_empty():
    with pytest.raises(ValueError):
        wasserstein1_1d(np.array([]), np.array([1.0]))


def test_sliced_w1_reduces_to_exact_in_1d():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((200, 1))
    b = rng.standard_normal((300, 1)) + 1.0
    assert sliced_w1(a, b) == pytest.approx(
        wasserstein1_1d(a, b), rel=1e-12)
    # a 1-d sample is N rows of dimension 1, not one row of dimension N
    a, b = rng.standard_normal(500), rng.standard_normal(500) * 2.0
    assert sliced_w1(a, b) == wasserstein1_1d(a, b)


def test_sliced_w1_multidim_bounds():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((400, 3))
    b = a + np.array([2.0, 0.0, 0.0])
    val = sliced_w1(a, b, seed=3)
    # sliced distance of a pure shift is E|<u, shift>| <= |shift|
    assert 0.0 < val <= 2.0 + 1e-9


def test_sliced_w1_is_the_mean_over_its_directions():
    # equal and unequal sample sizes, against one direction at a time
    rng = np.random.default_rng(7)
    dirs = keyed_generator(8, DIAGNOSTIC_STREAM).standard_normal((32, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for n_b in (500, 350):
        a = rng.standard_normal((500, 3))
        b = rng.standard_normal((n_b, 3)) * 1.5 + np.array([0.5, 0.0, -1.0])
        want = np.mean([wasserstein1_1d(a @ u, b @ u) for u in dirs])
        assert sliced_w1(a, b, seed=8) == pytest.approx(want, rel=1e-12)


def test_sliced_w1_directions_are_not_trajectory_noise():
    # with h = 1 the increments of trajectory 0 of a seed are its raw
    # normals; the directions must come from a stream of their own
    rng = np.random.default_rng(6)
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((300, 2)) + np.array([1.0, -0.5])
    noise = NoisePlan(5, 0, 1.0, 32.0, d=2).increments()
    dirs = noise / np.linalg.norm(noise, axis=1, keepdims=True)
    from_noise = np.mean([wasserstein1_1d(a @ u, b @ u) for u in dirs])
    assert sliced_w1(a, b, seed=5) != from_noise


def test_directions_are_one_at_n1():
    # at n = 1 the statistic and its bootstrap slice along the line itself,
    # once: 32 copies of it would give the same W1 at 32 times the sorts
    np.testing.assert_array_equal(_directions(4, 1), [[1.0]])
    dirs = _directions(4, 3)
    assert dirs.shape == (N_DIRECTIONS, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                               rtol=1e-15)
    np.testing.assert_array_equal(dirs, _directions(4, 3))


def test_noise_floor_deterministic_and_positive():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(400)
    b = rng.standard_normal(400)
    f1 = noise_floor(a, b, seed=9)
    f2 = noise_floor(a, b, seed=9)
    assert f1 == f2
    assert f1 > 0.0
    # same-distribution samples stay below the floor
    assert wasserstein1_1d(a, b) <= f1


def test_noise_floor_bootstraps_the_sliced_statistic():
    # a zero column scales every projection by |u_1|, so the floor of the
    # padded rows is c times the 1-d floor, c = mean |u_1| over the
    # directions sliced_w1 draws for the seed
    rng = np.random.default_rng(4)
    a = rng.standard_normal((500, 1))
    b = rng.standard_normal((500, 1))
    zero = np.zeros((500, 1))
    dirs = keyed_generator(3, DIAGNOSTIC_STREAM).standard_normal((32, 2))
    c = np.mean(np.abs(dirs[:, 0]) / np.linalg.norm(dirs, axis=1))
    padded = noise_floor(np.hstack([a, zero]), np.hstack([b, zero]), seed=3)
    assert padded == pytest.approx(c * noise_floor(a, b, seed=3), rel=1e-12)


def test_run_ensemble_bits_across_a_lane_block_boundary():
    # trajectories 200-499 straddle lane blocks 0 and 1; two runs split at
    # the unaligned index 330, and trajectory 257 run alone, give the bits
    # of the one batch
    basis = make_expsum_basis([(1.0, np.eye(2),
                                np.array([[1.0, 0.3], [0.3, 1.0]]))])
    comp = build_component(basis, 1, 2.0)
    coeffs = make_preset("tanh", n=2, scale=0.5, sigma0=1.0)
    z0, rec = np.full((1, 2), 0.5), [0.5, 1.0]
    times, whole = run_ensemble(comp, coeffs, z0, seed=4, n_traj=300,
                                h=0.05, T=1.0, record_times=rec,
                                first_index=200)
    parts = [run_ensemble(comp, coeffs, z0, seed=4, n_traj=count, h=0.05,
                          T=1.0, record_times=rec, first_index=first)[1]
             for first, count in ((200, 130), (330, 170))]
    np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)
    solo = simulate_lifted(comp, coeffs, z0, NoisePlan(4, 257, 0.05, 1.0, 2))
    np.testing.assert_array_equal(times, solo.times[[10, 20]])
    np.testing.assert_array_equal(whole[:, 57], solo.observables[[10, 20]])


def test_run_ensemble_per_trajectory_initial_states():
    comp, coeffs = ou_setup()
    z0 = np.arange(6, dtype=float).reshape(6, 1, 1)
    _, ens = run_ensemble(comp, coeffs, z0, seed=0, n_traj=6, h=0.5, T=0.5,
                          record_times=[0.0])
    np.testing.assert_allclose(ens[0, :, 0], np.arange(6.0))
    with pytest.raises(ValueError, match="1025 initial states for 2048"):
        run_ensemble(comp, coeffs, np.zeros((1025, 1, 1)), seed=0,
                     n_traj=2048, h=0.5, T=0.5, record_times=[0.0])


def test_ergodic_decay_ou_rate():
    comp, coeffs = ou_setup()
    times = np.linspace(0.5, 3.0, 6)
    fit = ergodic_decay(comp, coeffs, np.full((1, 1), 1.0),
                        np.zeros((1, 1)), 2048, times, seed=11, h=1e-2)
    # with additive noise and a linear drift, X1 - X2 is deterministic on
    # common noise: the rate is exact up to rounding, in every lane block
    assert abs(fit.r_hat - 1.0) <= 1e-12
    assert fit.r_stderr <= 1e-12
    assert np.all(fit.w1 > 0.0)


def test_ergodic_decay_reports_and_fits_the_simulated_times():
    # 0.013 is not a whole number of steps of 0.01: the integrator records
    # X at step 1, t = 0.01, so the rows and the fit take that time
    comp, coeffs = ou_setup()
    fit = ergodic_decay(comp, coeffs, np.full((1, 1), 1.0), np.zeros((1, 1)),
                        64, [0.013, 0.02], seed=0, h=0.01)
    np.testing.assert_array_equal(fit.times, [0.01, 0.02])
    slope = (np.log(fit.w1[1]) - np.log(fit.w1[0])) / (0.02 - 0.01)
    assert fit.r_hat == pytest.approx(-slope, rel=1e-9)


def test_ergodic_decay_warns_without_lyapunov():
    comp, _ = ou_setup()
    shaky = make_preset("linear", beta=-1.5, sigma0=1.0)  # expansive drift
    with pytest.warns(UserWarning):
        ergodic_decay(comp, shaky, np.full((1, 1), 1.0), np.zeros((1, 1)),
                      64, [0.5, 1.0], seed=0, h=0.05)


def test_stationarity_accepts_stationary_start():
    comp, coeffs = ou_setup()
    h = 0.01
    svar = h / (np.exp(2 * h) - 1.0)
    gen = np.random.Generator(np.random.Philox(key=np.array([42, 0],
                                                            dtype=np.uint64)))
    z0 = gen.standard_normal((1024, 1, 1)) * np.sqrt(svar)
    res = stationarity_test(comp, coeffs, burn_in=0.0, lags=[1.0, 2.0],
                            n_traj=1024, z0=z0, seed=6, h=h)
    assert res.all_pass


def test_stationarity_detects_transient():
    comp, coeffs = ou_setup()
    res = stationarity_test(comp, coeffs, burn_in=0.0, lags=[1.0],
                            n_traj=512, z0=np.full((1, 1), 2.0), seed=7,
                            h=0.01)
    assert not res.passed[0]


def test_stationarity_reports_the_simulated_lags():
    # 0.013 and 0.026 round to steps 1 and 3 at h = 0.01: the rows report
    # the lags of 0.01 and 0.03 that were simulated
    comp, coeffs = ou_setup()
    res = stationarity_test(comp, coeffs, burn_in=0.0, lags=[0.026, 0.013],
                            n_traj=64, z0=np.zeros((1, 1)), seed=0, h=0.01,
                            n_boot=5)
    np.testing.assert_array_equal(res.lags, [0.01, 0.03])


def test_stationarity_validates_arguments(monkeypatch):
    # each is rejected before any trajectory is simulated
    def no_run(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(ergodics, "run_ensemble", no_run)
    comp, coeffs = ou_setup()
    with pytest.raises(ValueError):
        stationarity_test(comp, coeffs, burn_in=-1.0, lags=[1.0], n_traj=4,
                          z0=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        stationarity_test(comp, coeffs, burn_in=1.0, lags=[], n_traj=4,
                          z0=np.zeros((1, 1)))
    # at h = 0.5, 5.2 rounds to burn_in's step 10, 4.0 is step 8, and 6.1
    # and 6.2 both round to step 12
    for lags, message in (
            ([0.2, 1.0], "lags entry 0.2 puts burn_in + lag on step 10"),
            ([-1.0], "lags entry -1.0 puts burn_in + lag on step 8"),
            ([1.1, 1.2], "lags entries 1.1 and 1.2 put burn_in + lag on the "
                         "same step 12")):
        with pytest.raises(ValueError, match=re.escape(message)):
            stationarity_test(comp, coeffs, burn_in=5.0, lags=lags, n_traj=4,
                              z0=np.zeros((1, 1)), h=0.5)


def test_lift_independence_rejects_mismatched_kernels():
    a = make_expsum_basis([(1.0, EYE, EYE)])
    b = make_expsum_basis([(2.0, EYE, EYE)])
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    with pytest.raises(ValueError, match="different"):
        lift_independence_test(a, b, coeffs, T=1.0, n_traj=8)



# -- the lane-block standard error and the two-thread bootstrap, against
# -- plain single-thread loops

def _sliced_w1_one_thread(samples_a, samples_b, seed):
    a, b = (np.asarray(s, dtype=float).reshape(len(s), -1)
            for s in (samples_a, samples_b))
    n = a.shape[-1]
    dirs = (keyed_generator(seed, DIAGNOSTIC_STREAM).standard_normal((32, n))
            if n > 1 else np.ones((1, 1)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa, pb = dirs @ a.T, dirs @ b.T
    pa.sort(axis=1)
    pb.sort(axis=1)
    return _w1_sorted(pa, pb)


def _noise_floor_one_thread(a, b, n_boot, seed):
    a, b = (np.asarray(s, float).reshape(len(s), -1) for s in (a, b))
    pool = np.concatenate([a, b])
    gen = keyed_generator(seed, DIAGNOSTIC_STREAM + 1)
    vals = np.empty(n_boot)
    for i in range(n_boot):
        xa = pool[gen.choice(len(pool), size=len(a))]
        xb = pool[gen.choice(len(pool), size=len(b))]
        vals[i] = _sliced_w1_one_thread(xa, xb, seed)
    return float(vals.mean() + 3.0 * vals.std(ddof=1))


def _lane_block_stderr_one_loop(ens1, ens2, times, seed):
    """std / sqrt(count) of the finite rates fitted to each full block of
    256 trajectories, NaN with fewer than two."""
    rates = []
    for first in range(0, ens1.shape[1] - 255, 256):
        w1 = np.array([_sliced_w1_one_thread(ens1[i, first:first + 256],
                                             ens2[i, first:first + 256],
                                             seed)
                       for i in range(len(times))])
        rate = decay_rate(times, w1)[0]
        if np.isfinite(rate):
            rates.append(rate)
    if len(rates) < 2:
        return np.nan
    return float(np.std(rates, ddof=1) / np.sqrt(len(rates)))


@pytest.fixture
def switching():
    """Switch threads every microsecond while the test runs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _ensembles(n, y1, y2, n_traj, times):
    """Both ensembles on common noise, as ergodic_decay runs them."""
    mat = np.eye(n)
    comp = build_component(make_expsum_basis([(1.0, mat, mat)]), 1, 2.0)
    coeffs = make_preset("tanh", n=n, scale=0.5, sigma0=1.0)
    sim, ens1 = run_ensemble(comp, coeffs, y1, 3, n_traj, 0.05, max(times),
                             times)
    ens2 = run_ensemble(comp, coeffs, y2, 3, n_traj, 0.05, max(times),
                        times)[1]
    return comp, coeffs, sim, ens1, ens2


@pytest.mark.parametrize("n_traj", [511, 512, 600])
@pytest.mark.parametrize("n", [1, 2])
def test_ergodic_decay_stderr_is_the_lane_block_batch_means(n, n_traj):
    # 511 trajectories hold one full lane block, so no standard error; the
    # 88 trajectories past 512 of the 600 are in no full block
    times = [0.1, 0.2, 0.4]
    y1, y2 = np.ones((1, n)), np.zeros((1, n))
    comp, coeffs, sim, ens1, ens2 = _ensembles(n, y1, y2, n_traj, times)
    fit = ergodic_decay(comp, coeffs, y1, y2, n_traj, times, seed=3, h=0.05)
    np.testing.assert_array_equal(
        fit.w1, [_sliced_w1_one_thread(a, b, 3) for a, b in zip(ens1, ens2)])
    np.testing.assert_array_equal(
        fit.r_stderr, _lane_block_stderr_one_loop(ens1, ens2, sim, 3))
    assert np.isnan(fit.r_stderr) == (n_traj < 512)


@pytest.mark.parametrize("cpus", [
    1, pytest.param(2, marks=pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"),
        reason="batches fork only where sched_getaffinity is"))])
def test_ergodic_decay_forked_batch_keeps_the_two_ensembles_bits(
        monkeypatch, cpus):
    # n = 2, 1024 trajectories: the batch of both copies holds 4096 state
    # entries, which two CPUs split into two parts of 2048; two run_ensemble
    # calls of 2048 entries each step in one process
    times = [0.1, 0.2, 0.4]
    y1, y2 = np.ones((1, 2)), np.zeros((1, 2))
    comp, coeffs, sim, ens1, ens2 = _ensembles(2, y1, y2, 1024, times)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    fit = ergodic_decay(comp, coeffs, y1, y2, 1024, times, seed=3, h=0.05)
    assert len(forks) == cpus - 1
    w1 = [_sliced_w1_one_thread(a, b, 3) for a, b in zip(ens1, ens2)]
    np.testing.assert_array_equal(fit.w1, w1)
    assert fit.r_hat == decay_rate(sim, np.array(w1))[0]
    np.testing.assert_array_equal(
        fit.r_stderr, _lane_block_stderr_one_loop(ens1, ens2, sim, 3))


def test_ergodic_decay_keys_each_lane_block_once(monkeypatch):
    # 600 trajectories in lane blocks 0, 1 and 2 (the last partial): both
    # copies share one generator per block
    keys = []

    def counted(seed, stream):
        keys.append((seed, stream))
        return keyed_generator(seed, stream)

    monkeypatch.setattr(dynamics, "keyed_generator", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    comp, coeffs = ou_setup()
    ergodic_decay(comp, coeffs, np.ones((1, 1)), np.zeros((1, 1)), 600,
                  [0.1, 0.2], seed=5, h=0.05)
    assert keys == [(5, 0), (5, 1), (5, 2)]


def test_ergodic_decay_rate_agrees_with_the_coupled_distance():
    # the synchronous coupling's mean distance E|X1 - X2| decays at the
    # rate of W1 and needs no noise floor: its fitted rate lies within 3
    # standard errors of r_hat on a shortened ergodic_2d workload
    basis = make_expsum_basis([(1.0, np.eye(2),
                                np.array([[1.0, 0.3], [0.3, 1.0]]))])
    comp = build_component(basis, 1, "auto")
    coeffs = make_preset("tanh", n=2, scale=0.5, sigma0=1.0)
    y1, y2, times = np.ones((1, 2)), np.zeros((1, 2)), [0.5, 1.0, 2.0, 4.0]
    fit = ergodic_decay(comp, coeffs, y1, y2, 1024, times, seed=17, h=0.01)
    ens = [run_ensemble(comp, coeffs, y, 17, 1024, 0.01, 4.0, times)[1]
           for y in (y1, y2)]
    dist = np.linalg.norm(ens[0] - ens[1], axis=-1).mean(axis=1)
    rate = decay_rate(fit.times, dist)[0]
    assert 0.0 < fit.r_stderr < 1e-2
    assert abs(fit.r_hat - rate) <= 3.0 * fit.r_stderr


@pytest.mark.parametrize("n_boot", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_bootstrap_keeps_the_single_thread_bits(switching, n, n_boot):
    # unequal sizes take the merged-quantile W1
    times = [0.1, 0.2, 0.4]
    _, _, _, ens1, ens2 = _ensembles(n, np.ones((1, n)), np.zeros((1, n)),
                                     48, times)
    a, b = ens1[-1], ens2[-1][:30]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # std of one value
        np.testing.assert_array_equal(
            noise_floor(a, b, n_boot=n_boot, seed=5),
            _noise_floor_one_thread(a, b, n_boot, 5))


def test_bootstrap_memory_bounded():
    # noise_floor's 100 replicates for two 4096-row samples of n = 2: a
    # pool of 8192 rows; per side a replicate's gathered rows and their
    # projections, freed before the next; and the one resample index being
    # drawn; 1% covers the directions, the replicates' values and the frames
    n_traj, n = 4096, 2
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((n_traj, n)), rng.standard_normal((n_traj, n))
    pool = 2 * n_traj * n * 8
    per_side = n_traj * n * 8 + N_DIRECTIONS * n_traj * 8
    index = n_traj * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        noise_floor(a, b, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.01 * (pool + 2 * per_side + index)