import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltlift.discretize import build_component
from voltlift.dynamics import (NOISE_BLOCK_STEPS, CoefficientModel, NoisePlan,
                               _stacked_increments, lifted_step, make_plans,
                               make_preset, preset_linear, simulate_lifted,
                               simulate_lifted_ensemble,
                               simulate_volterra_direct, step_operators,
                               truncate_coefficients, volterra_weights)
from voltlift.kernelbasis import (make_expsum_basis,
                                  make_tempered_fractional_basis)
from voltlift.quad import integrate_density

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


def frac16_setup():
    # the coupling_frac benchmark's component: 16 factors, n = 1
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    return (build_component(basis, 16, 64.0),
            make_preset("tanh", scale=0.1, sigma0=1.0))


def ergodic_2d_setup():
    # the ergodic_2d benchmark's component: one factor, n = 2
    basis = make_expsum_basis([(1.0, np.eye(2),
                                np.array([[1.0, 0.3], [0.3, 1.0]]))])
    return (build_component(basis, 1, 2.0),
            make_preset("tanh", n=2, scale=0.5, sigma0=1.0))


@pytest.mark.parametrize("setup", [frac16_setup, ergodic_2d_setup])
def test_trajectory_bits_do_not_depend_on_its_batch(setup):
    comp, coeffs = setup()
    z0 = np.full((comp.size, comp.n), 0.5)
    plans = make_plans(11, 5, 0.01, 0.6, d=coeffs.d)
    times, xs, z_final = simulate_lifted_ensemble(
        comp, coeffs, z0, plans, record_times=[0.3, 0.6])
    for j in (0, 3, 4):
        solo = simulate_lifted(comp, coeffs, z0, plans[j])
        np.testing.assert_array_equal(xs[:, j], solo.observables[[30, 60]])
        np.testing.assert_array_equal(z_final[j], solo.states[-1])


def explicit_step(comp, coeffs, z, dw, h, extra=None):
    """decay z + phi (M_b b(x) + extra) + decay M_s sigma(x) dw, written
    out per factor for states z of shape (n_traj, I, n)."""
    decay = np.exp(-comp.a * h)[:, None]
    phi = ((1.0 - np.exp(-comp.a * h)) / comp.a)[:, None]
    x = np.einsum("i,tip->tp", comp.w, z)
    drift = np.einsum("ipq,tq->tip", comp.Mb, coeffs.b(x))
    if extra is not None:
        drift = drift + extra
    noise = np.einsum("tpd,td->tp", coeffs.sigma(x), dw)
    return (decay * z + phi * drift
            + decay * np.einsum("ipq,tq->tip", comp.Ms, noise))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("controlled", [False, True])
def test_step_operators_match_the_explicit_update(n, controlled):
    rng = np.random.default_rng(n + 2 * controlled)
    size, n_traj, h, lam = 5, 7, 0.02, 1.7
    basis = make_expsum_basis([
        (rate, rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        for rate in (0.3, 1.0, 4.0, 20.0, 90.0)])
    comp = build_component(basis, size, 100.0)
    amp, tilt = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    coeffs = CoefficientModel(
        b=lambda x: np.sin(x) - x,
        sigma=lambda x: amp + 0.3 * np.tanh(x)[..., :, None] * tilt,
        n=n, d=n)
    z = rng.normal(size=(n_traj, size, n))
    dw = rng.normal(size=(n_traj, n)) * np.sqrt(h)
    v = rng.normal(size=(n_traj, n)) if controlled else None
    ops = step_operators(comp, h, lam if controlled else None)
    zt = z.reshape(n_traj, -1).T.copy()
    got, x = lifted_step(ops, coeffs, zt, ops.observe(zt), dw,
                         None if v is None else v.T.copy())
    got = got.T.reshape(n_traj, size, n)
    extra = (None if v is None
             else lam * np.einsum("ipq,tq->tip", comp.Ms, v))
    want = explicit_step(comp, coeffs, z, dw, h, extra)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * scale
    assert np.abs(x.T - np.einsum("i,tip->tp", comp.w, want)).max() \
        <= 1e-13 * scale


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


def test_volterra_weights_first_diffusion_matches_ks_ks_transpose():
    # a constant K_s: the first weight W must satisfy W W^T = K_s K_s^T
    k_s = np.array([[1.0, 0.3], [0.3, 1.0]])
    _, ks = volterra_weights(lambda t: np.eye(2), lambda t: k_s, h=0.1, m=3)
    np.testing.assert_allclose(ks[0] @ ks[0].T, k_s @ k_s.T, rtol=0.0,
                               atol=1e-12)


def test_direct_scheme_tracks_lifted_scheme():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("tanh", scale=1.0, sigma0=0.5)
    kernels = (basis.closed_forms["drift"], basis.closed_forms["diffusion"])
    plan = NoisePlan(seed=9, trajectory_index=0, h=0.005, T=2.0, d=1)
    lifted = simulate_lifted(comp, coeffs, np.zeros((1, 1)), plan)
    _, direct = simulate_volterra_direct(kernels, coeffs,
                                         lambda t: np.zeros(1), [plan])
    assert np.max(np.abs(lifted.observables - direct[:, 0])) < 0.05


@pytest.mark.parametrize("n", [1, 2])
def test_direct_trajectory_bits_do_not_depend_on_its_batch(n):
    eye = np.eye(n)
    ms = eye if n == 1 else np.array([[1.0, 0.3], [0.3, 1.0]])
    basis = make_expsum_basis([(0.5, eye, ms), (2.0, 0.5 * eye, eye)])
    kernels = (basis.closed_forms["drift"], basis.closed_forms["diffusion"])
    coeffs = make_preset("tanh", scale=1.0, sigma0=0.5, n=n)

    def forcing(t):
        return np.full(n, np.cos(t))

    plans = make_plans(4, 5, 0.01, 0.5, d=n)
    _, batch = simulate_volterra_direct(kernels, coeffs, forcing, plans)
    assert batch.shape == (51, 5, n)
    for j in range(5):
        _, solo = simulate_volterra_direct(kernels, coeffs, forcing,
                                           plans[j:j + 1])
        np.testing.assert_array_equal(solo[:, 0], batch[:, j])


def test_volterra_weights_of_a_singular_kernel_match_qags():
    # K_b(t) = t^(-1/2) e^(-t) / Gamma(1/2), K_s(t) = t^(-1/4) e^(-t) /
    # Gamma(3/4): drift weights are integrals over each step, the first
    # diffusion weight is the RMS of K_s over the first step
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    k_b, k_s = basis.closed_forms["drift"], basis.closed_forms["diffusion"]
    h, m = 1.0 / 16.0, 8
    kb, ks = volterra_weights(k_b, k_s, h, m)
    for ell in range(m):
        want = integrate_density(lambda t: k_b(t)[0, 0], ell * h,
                                 (ell + 1) * h)
        assert kb[ell, 0, 0] == pytest.approx(want, rel=1e-12)
    rms = math.sqrt(integrate_density(lambda t: k_s(t)[0, 0] ** 2, 0.0, h)
                    / h)
    assert ks[0, 0, 0] == pytest.approx(rms, rel=1e-12)


def spot_check_coefficients(coeffs, seed=0, samples=1000, radius=5.0):
    """Sample random point pairs and check each bound the metadata declares;
    one flag per declared bound."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-radius, radius, size=(samples, coeffs.n))
    y = rng.uniform(-radius, radius, size=(samples, coeffs.n))
    out = {}
    bx, by = coeffs.b(x), coeffs.b(y)
    sx, sy = coeffs.sigma(x), coeffs.sigma(y)
    gap = np.linalg.norm(x - y, axis=-1) + 1e-300
    if coeffs.C_bLip is not None:
        out["b_lipschitz"] = bool(np.all(np.linalg.norm(bx - by, axis=-1)
                                         <= coeffs.C_bLip * gap * (1 + 1e-9)))
    if coeffs.C_sLip is not None:
        dn = np.linalg.norm((sx - sy).reshape(samples, -1), axis=-1)
        out["sigma_lipschitz"] = bool(np.all(
            dn <= coeffs.C_sLip * gap * (1 + 1e-9)))
    if coeffs.gamma is not None and coeffs.C_bLG is not None:
        lhs = np.einsum("sp,sp->s", bx, x)
        rhs = coeffs.gamma * np.einsum("sp,sp->s", x, x) + coeffs.C_bLG
        out["b_coercive"] = bool(np.all(lhs <= rhs * (1 + 1e-9) + 1e-9))
    if coeffs.p is not None and coeffs.C_ssub is not None:
        sn = np.linalg.norm(sx.reshape(samples, -1), axis=-1)
        bound = coeffs.C_ssub * (1 + np.linalg.norm(x, axis=-1) ** coeffs.p)
        out["sigma_sublinear"] = bool(np.all(sn <= bound * (1 + 1e-9)))
    if coeffs.C_UE is not None:
        gram = np.einsum("spd,sqd->spq", sx, sx)
        eig = np.linalg.eigvalsh(gram)[:, 0]
        out["uniform_ellipticity"] = bool(np.all(
            eig >= 1.0 / coeffs.C_UE - 1e-9))
    return out


def test_presets_pass_spot_checks():
    flags = {}
    for name, kwargs in (("linear", dict(beta=1.0, c=0.5)),
                         ("tanh", dict(scale=2.0)),
                         ("double_well", dict(sigma0=0.7))):
        coeffs = make_preset(name, **kwargs)
        flags.update({(name, k): v for k, v in
                      spot_check_coefficients(coeffs).items()})
    # double_well declares no drift Lipschitz constant
    assert len(flags) == 14
    assert all(flags.values()), [k for k, v in flags.items() if not v]


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
