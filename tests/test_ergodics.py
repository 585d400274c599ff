import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from voltlift.discretize import build_component
from voltlift.dynamics import make_preset
from voltlift.ergodics import (_spearman, ergodic_decay,
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


def test_sliced_w1_multidim_bounds():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((400, 3))
    b = a + np.array([2.0, 0.0, 0.0])
    val = sliced_w1(a, b, n_directions=64, seed=3)
    # sliced distance of a pure shift is E|<u, shift>| <= |shift|
    assert 0.0 < val <= 2.0 + 1e-9


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
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 0],
                                                            dtype=np.uint64)))
    dirs = gen.standard_normal((32, 2))
    c = np.mean(np.abs(dirs[:, 0]) / np.linalg.norm(dirs, axis=1))
    padded = noise_floor(np.hstack([a, zero]), np.hstack([b, zero]), seed=3)
    assert padded == pytest.approx(c * noise_floor(a, b, seed=3), rel=1e-12)


def test_run_ensemble_thread_invariance():
    comp, coeffs = ou_setup()
    kw = dict(z0=np.zeros((1, 1)), seed=4, n_traj=2048, h=0.05, T=1.0,
              record_times=[0.5, 1.0])
    e1 = run_ensemble(comp, coeffs, threads=1, **kw)
    e4 = run_ensemble(comp, coeffs, threads=4, **kw)
    np.testing.assert_array_equal(e1.samples, e4.samples)


def test_run_ensemble_per_trajectory_initial_states():
    comp, coeffs = ou_setup()
    z0 = np.arange(6, dtype=float).reshape(6, 1, 1)
    ens = run_ensemble(comp, coeffs, z0, seed=0, n_traj=6, h=0.5, T=0.5,
                       record_times=[0.0])
    np.testing.assert_allclose(ens.samples[0, :, 0], np.arange(6.0))


def test_ergodic_decay_ou_rate():
    comp, coeffs = ou_setup()
    times = np.linspace(0.5, 3.0, 6)
    fit = ergodic_decay(comp, coeffs, np.full((1, 1), 1.0),
                        np.zeros((1, 1)), 2048, times, seed=11, h=1e-2,
                        threads=2, n_boot=40)
    assert abs(fit.r_hat - 1.0) <= 3.0 * fit.r_stderr
    assert np.all(fit.w1 > 0.0)


def test_ergodic_decay_warns_without_lyapunov():
    comp, _ = ou_setup()
    shaky = make_preset("linear", beta=-1.5, sigma0=1.0)  # expansive drift
    with pytest.warns(UserWarning):
        ergodic_decay(comp, shaky, np.full((1, 1), 1.0), np.zeros((1, 1)),
                      64, [0.5, 1.0], seed=0, h=0.05, n_boot=5)


def test_stationarity_accepts_stationary_start():
    comp, coeffs = ou_setup()
    h = 0.01
    svar = h / (np.exp(2 * h) - 1.0)
    gen = np.random.Generator(np.random.Philox(key=np.array([42, 0],
                                                            dtype=np.uint64)))
    z0 = gen.standard_normal((1024, 1, 1)) * np.sqrt(svar)
    res = stationarity_test(comp, coeffs, burn_in=0.0, lags=[1.0, 2.0],
                            n_traj=1024, z0=z0, seed=6, h=h, threads=2)
    assert res.all_pass


def test_stationarity_detects_transient():
    comp, coeffs = ou_setup()
    res = stationarity_test(comp, coeffs, burn_in=0.0, lags=[1.0],
                            n_traj=512, z0=np.full((1, 1), 2.0), seed=7,
                            h=0.01, threads=2)
    assert not res.passed[0]


def test_stationarity_validates_arguments():
    comp, coeffs = ou_setup()
    with pytest.raises(ValueError):
        stationarity_test(comp, coeffs, burn_in=-1.0, lags=[1.0], n_traj=4,
                          z0=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        stationarity_test(comp, coeffs, burn_in=1.0, lags=[], n_traj=4,
                          z0=np.zeros((1, 1)))


def test_lift_independence_rejects_mismatched_kernels():
    a = make_expsum_basis([(1.0, EYE, EYE)])
    b = make_expsum_basis([(2.0, EYE, EYE)])
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    with pytest.raises(ValueError, match="different"):
        lift_independence_test(a, b, coeffs, T=1.0, n_traj=8)

