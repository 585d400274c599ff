import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltlift.discretize import build_component
from voltlift.dynamics import (NOISE_BLOCK_STEPS, CoefficientModel, NoisePlan,
                               _stacked_increments, forcing_term,
                               make_plans, make_preset, preset_linear,
                               simulate_lifted, simulate_lifted_ensemble,
                               simulate_volterra_direct,
                               spot_check_coefficients,
                               truncate_coefficients, volterra_weights)
from voltlift.kernelbasis import make_expsum_basis

EYE = np.eye(1)


def zero_coeffs(n=1, d=1):
    return CoefficientModel(
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.zeros(x.shape[:-1] + (n, d)), n=n, d=d)


def test_noise_plan_reproducible_and_indexed():
    p1 = NoisePlan(seed=7, trajectory_index=0, h=0.01, T=1.0, d=2)
    p2 = NoisePlan(seed=7, trajectory_index=0, h=0.01, T=1.0, d=2)
    p3 = NoisePlan(seed=7, trajectory_index=1, h=0.01, T=1.0, d=2)
    i1, i2, i3 = p1.increments(), p2.increments(), p3.increments()
    assert i1.shape == (100, 2)
    np.testing.assert_array_equal(i1, i2)
    assert not np.array_equal(i1, i3)


def test_noise_plan_validates_inputs():
    with pytest.raises(ValueError):
        NoisePlan(seed=0, trajectory_index=0, h=-0.1, T=1.0, d=1)
    with pytest.raises(ValueError):
        NoisePlan(seed=-1, trajectory_index=0, h=0.1, T=1.0, d=1)


def test_increment_variance_scales_with_h():
    plan = NoisePlan(seed=1, trajectory_index=0, h=0.25, T=2500.0, d=1)
    incs = plan.increments()
    assert incs.var() == pytest.approx(0.25, rel=0.05)


def test_make_plans_trajectory_offsets():
    plans = make_plans(5, 3, 0.1, 1.0, d=1, first_index=10)
    assert [p.trajectory_index for p in plans] == [10, 11, 12]
    # trajectory streams depend only on (seed, index), not batching
    solo = NoisePlan(seed=5, trajectory_index=11, h=0.1, T=1.0, d=1)
    np.testing.assert_array_equal(plans[1].increments(), solo.increments())


def test_exact_linear_decay_without_coefficients():
    basis = make_expsum_basis([(0.7, EYE, EYE), (40.0, EYE, EYE)])
    comp = build_component(basis, 2, theta_max=100.0)
    plan = NoisePlan(seed=0, trajectory_index=0, h=0.05, T=0.5, d=1)
    path = simulate_lifted(comp, zero_coeffs(), np.full((2, 1), 2.0), plan)
    exact = 2.0 * np.exp(-comp.a[None, :, None]
                         * path.times[:, None, None])
    np.testing.assert_allclose(path.states, exact, rtol=1e-13)


def test_small_rate_uses_plain_step():
    # a * h below the cutoff: the drift factor degrades gracefully to h
    basis = make_expsum_basis([(1e-7, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=1.0)
    coeffs = preset_linear(beta=0.0, c=2.0, sigma0=0.0)
    plan = NoisePlan(seed=0, trajectory_index=0, h=0.01, T=1.0, d=1)
    path = simulate_lifted(comp, coeffs, np.zeros((1, 1)), plan)
    assert path.observables[-1, 0] == pytest.approx(2.0, rel=1e-4)


def test_ensemble_matches_single_trajectory():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("tanh", scale=0.5, sigma0=1.0)
    plans = make_plans(3, 4, 0.02, 1.0, d=1)
    times, xs, z_final = simulate_lifted_ensemble(
        comp, coeffs, np.zeros((1, 1)), plans, record_times=[0.5, 1.0])
    assert xs.shape == (2, 4, 1)
    solo = simulate_lifted(comp, coeffs, np.zeros((1, 1)), plans[2])
    np.testing.assert_array_equal(xs[-1, 2], solo.observables[-1])
    np.testing.assert_array_equal(z_final[2], solo.states[-1])


def test_block_noise_matches_full_draw():
    # a horizon of 2.5 blocks: streams drawn block by block give the same
    # values as one full-horizon draw per trajectory
    h = 0.1
    plans = make_plans(4, 3, h, 2.5 * NOISE_BLOCK_STEPS * h, d=2,
                       first_index=5)
    blocks = np.stack(list(_stacked_increments(plans)))
    full = np.stack([p.increments() for p in plans], axis=1)
    assert blocks.shape == (plans[0].n_steps, 3, 2)
    np.testing.assert_array_equal(blocks, full)


def test_ensemble_memory_bounded_in_horizon():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("tanh", scale=0.5, sigma0=1.0)

    def peak(T):
        plans = make_plans(0, 64, 0.05, T, d=1)
        tracemalloc.start()
        try:
            simulate_lifted_ensemble(comp, coeffs, np.zeros((1, 1)), plans)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200.0) <= 1.5 * peak(20.0)


def test_nan_abort_reports_step():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    bad = CoefficientModel(
        b=lambda x: np.full_like(x, np.inf),
        sigma=lambda x: np.zeros(x.shape[:-1] + (1, 1)), n=1, d=1)
    plan = NoisePlan(seed=0, trajectory_index=0, h=0.1, T=1.0, d=1)
    with pytest.raises(FloatingPointError, match="step 1"):
        simulate_lifted(comp, bad, np.zeros((1, 1)), plan)


def test_nan_abort_names_trajectory():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("double_well")
    plans = make_plans(0, 4, 0.1, 1.0, d=1, first_index=10)
    z0 = np.zeros((4, 1, 1))
    z0[2] = 1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError) as err:
        simulate_lifted_ensemble(comp, coeffs, z0, plans)
    assert "step 1" in str(err.value)
    assert "trajectory 12" in str(err.value)


def test_forcing_term():
    basis = make_expsum_basis([(2.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=4.0)
    z0 = np.array([[3.0]])
    assert forcing_term(comp, z0, 1.5)[0] == pytest.approx(
        3.0 * math.exp(-3.0), rel=1e-14)


def test_volterra_weights_constant_kernel():
    kb, ks = volterra_weights(lambda t: EYE, lambda t: EYE, h=0.1, m=4)
    np.testing.assert_allclose(kb, np.full((4, 1, 1), 0.1), rtol=1e-10)
    np.testing.assert_allclose(ks, np.ones((4, 1, 1)), rtol=1e-10)


def test_volterra_weights_singular_drift_kernel():
    # integral of t^(-1/2) over (0, h) is 2 sqrt(h)
    kb, _ = volterra_weights(lambda t: t ** -0.5 * EYE, lambda t: EYE,
                             h=0.04, m=1)
    assert kb[0, 0, 0] == pytest.approx(0.4, rel=1e-6)


def test_volterra_weights_first_diffusion_is_rms():
    # K(t) = sqrt(t): mean square over (0, h) is h/2
    _, ks = volterra_weights(lambda t: EYE, lambda t: np.sqrt(t) * EYE,
                             h=0.08, m=2)
    assert ks[0, 0, 0] == pytest.approx(math.sqrt(0.04), rel=1e-6)
    assert ks[1, 0, 0] == pytest.approx(math.sqrt(0.16), rel=1e-12)


def test_direct_scheme_tracks_lifted_scheme():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("tanh", scale=1.0, sigma0=0.5)
    kernels = (basis.closed_forms["drift"], basis.closed_forms["diffusion"])
    plan = NoisePlan(seed=9, trajectory_index=0, h=0.005, T=2.0, d=1)
    lifted = simulate_lifted(comp, coeffs, np.zeros((1, 1)), plan)
    _, direct = simulate_volterra_direct(kernels, coeffs,
                                         lambda t: np.zeros(1), plan)
    assert np.max(np.abs(lifted.observables - direct)) < 0.05


def test_presets_pass_spot_checks():
    for name, kwargs in (("linear", dict(beta=1.0, c=0.5)),
                         ("tanh", dict(scale=2.0)),
                         ("double_well", dict(sigma0=0.7))):
        coeffs = make_preset(name, **kwargs)
        spot_check_coefficients(coeffs)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        make_preset("cubic")


def test_truncation_clamps_large_arguments():
    coeffs = make_preset("double_well", sigma0=1.0)
    trunc = truncate_coefficients(coeffs, radius=2.0)
    x_far = np.array([10.0])
    x_edge = np.array([2.0])
    np.testing.assert_allclose(trunc.b(x_far), coeffs.b(x_edge))
    x_near = np.array([0.5])
    np.testing.assert_allclose(trunc.b(x_near), coeffs.b(x_near))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), idx=st.integers(0, 10_000))
def test_noise_streams_deterministic(seed, idx):
    a = NoisePlan(seed=seed, trajectory_index=idx, h=0.5, T=2.0, d=1)
    b = NoisePlan(seed=seed, trajectory_index=idx, h=0.5, T=2.0, d=1)
    np.testing.assert_array_equal(a.increments(), b.increments())
