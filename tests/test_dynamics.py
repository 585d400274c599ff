import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltlift.coupling import simulate_coupled_pair
from voltlift.discretize import build_component
from voltlift import dynamics
from voltlift.dynamics import (NOISE_BLOCK_STEPS, NOISE_LANES,
                               CoefficientModel, NoiseBatch, NoisePlan,
                               _lane_blocks, _noise_term,
                               _stacked_increments, lifted_step,
                               make_plans, make_preset, preset_linear,
                               simulate_lifted, simulate_lifted_ensemble,
                               simulate_volterra_direct, step_operators,
                               truncate_coefficients, volterra_weights)
from voltlift.kernelbasis import (make_expsum_basis,
                                  make_tempered_fractional_basis)
from voltlift.quad import integrate_density
from voltlift.weights import build_custom

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
    # second key words from 2**63 on are the diagnostics' streams
    NoisePlan(seed=0, trajectory_index=2 ** 63 - 1, h=0.1, T=1.0, d=1)
    with pytest.raises(ValueError, match="diagnostic"):
        NoisePlan(seed=0, trajectory_index=2 ** 63, h=0.1, T=1.0, d=1)


def test_noise_batch_holds_a_read_only_copy_of_its_index():
    idx = np.array([700, 3, 255])
    batch = NoiseBatch(9, idx, 0.1, 1.0, 2)
    idx[0] = 0
    assert batch.index.tolist() == [700, 3, 255]
    assert not batch.index.flags.writeable
    assert (len(batch), batch.n_steps, batch[0].trajectory_index) \
        == (3, 10, 700)
    rows = batch[1:]
    assert type(rows) is NoiseBatch and rows.index.tolist() == [3, 255]
    assert batch[[2, 2]].index.tolist() == [255, 255]


def test_a_batch_rejects_no_trajectories_and_a_seed_past_64_bits():
    # each named by its field: an empty batch raised IndexError from its
    # first row, and a seed of 2**64 an OverflowError from the Philox key
    comp = build_component(make_expsum_basis([(1.0, EYE, EYE)]), 1, 2.0)
    with pytest.raises(ValueError, match="index must be 1-d, nonempty"):
        simulate_lifted_ensemble(comp, make_preset("linear"),
                                 np.zeros((1, 1)), make_plans(0, 0, 0.1, 1.0))
    with pytest.raises(ValueError, match="seed"):
        make_plans(2 ** 64, 2, 0.1, 1.0)
    assert len(make_plans(2 ** 64 - 1, 2, 0.1, 1.0)) == 2


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
    x = ops.observe(zt)
    got, x = lifted_step(ops, coeffs, zt, x, _noise_term(coeffs.sigma, x, dw),
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


def test_stacked_noise_takes_each_plans_lane_in_any_order():
    # plans from three lane blocks, out of order and one twice: each row is
    # its plan's lane of its block's stream
    h = 0.1
    idx = [700, 3, 255, 256, 4, 511, 3]
    plans = NoiseBatch(9, idx, h, 1.5 * NOISE_BLOCK_STEPS * h, 2)
    rows = np.stack(list(_stacked_increments(plans)))
    np.testing.assert_array_equal(
        rows, np.stack([p.increments() for p in plans], axis=1))


def lane_blocks_twice(plans):
    """plans of trajectories 0, 1, ... twice, lane block by lane block (a
    block's rows, then the same again), as ergodic_decay batches its two
    copies."""
    rows = np.arange(len(plans))
    return plans[np.concatenate([np.tile(rows[j:j + NOISE_LANES], 2)
                                 for j in range(0, len(plans), NOISE_LANES)])]


def test_stacked_noise_of_each_lane_twice():
    # 600 trajectories, the last lane block partial: each row is its plan's
    # lane, and each block is keyed once and copied in two slices
    h = 0.1
    plans = lane_blocks_twice(make_plans(6, 600, h, 1.5 * NOISE_BLOCK_STEPS
                                         * h, d=2))
    rows = np.stack(list(_stacked_increments(plans)))
    np.testing.assert_array_equal(
        rows, np.stack([p.increments() for p in plans], axis=1))
    blocks = _lane_blocks(plans)
    assert len(blocks) == 3
    for _, runs in blocks:
        assert len(runs) == 2
        assert all(isinstance(i, slice) for run in runs for i in run)


def _noise_peak(plans):
    """Peak bytes the noise source holds while a consumer walks its rows,
    besides the lane blocks' generators."""
    tracemalloc.start()
    try:
        blocks = _lane_blocks(plans)
        generators = tracemalloc.get_traced_memory()[0]
        del blocks
        tracemalloc.reset_peak()
        # dw holds a step's rows while the next block is drawn, as in
        # every integrator
        for dw in _stacked_increments(plans):
            pass
        return tracemalloc.get_traced_memory()[1] - generators
    finally:
        tracemalloc.stop()


def test_noise_memory_bounded_in_batch():
    # a 4096-trajectory, d = 2 batch (the size of the ergodic_2d
    # ensembles) holds at most NOISE_BUFFER = 2**19 normals of noise; 1%
    # covers the array views and frames around them
    assert _noise_peak(make_plans(0, 4096, 0.01, 4.0, d=2)) \
        <= 1.01 * 2 ** 19 * 8
    # a 1024-trajectory, d = 1 batch (one process's part of coupling_frac)
    # draws blocks of at most 64 steps: two blocks of its rows and one
    # lane buffer
    assert _noise_peak(make_plans(0, 1024, 0.01, 4.0)) \
        <= 1.01 * (2 * 64 * 1024 + 64 * 256) * 8
    # both copies of the ergodic_2d ensembles in one batch of 8192 rows,
    # each lane twice
    assert _noise_peak(lane_blocks_twice(make_plans(0, 4096, 0.01, 4.0,
                                                    d=2))) \
        <= 1.01 * 2 ** 19 * 8


def test_held_rows_keep_their_values_across_blocks():
    # a 4096-trajectory, d = 2 batch draws 31 steps a block; holding every
    # row of 5 blocks shows any block overwritten while a consumer still
    # holds it, in the first and the last lane block
    h = 0.01
    plans = make_plans(3, 4096, h, 150 * h, d=2)
    rows = np.stack(list(_stacked_increments(plans)))
    assert rows.shape == (150, 4096, 2)
    for j in (0, 1, 130, 255, 3840, 3969, 4094, 4095):
        np.testing.assert_array_equal(rows[:, j], plans[j].increments())


def test_concurrent_noise_sources_keep_their_rows():
    # four consumers on two cores, switching threads every microsecond:
    # a block or lane buffer shared between noise sources shows in the rows
    h = 0.1
    plans = make_plans(5, 300, h, 3.5 * NOISE_BLOCK_STEPS * h)
    want = np.stack([plans[j].increments() for j in (0, 299)], axis=1)
    got = [None] * 4

    def consume(k):
        got[k] = np.stack([dw[[0, 299]].copy()
                           for dw in _stacked_increments(plans)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for rows in got:
        np.testing.assert_array_equal(rows, want)


def _inf_at_call(k, row):
    """A zero drift that returns inf in one row at its k-th call."""
    calls = itertools.count(1)

    def b(x):
        out = np.zeros_like(x)
        if next(calls) == k:
            out[row] = np.inf
        return out

    return CoefficientModel(b=b, sigma=lambda x: np.ones(x.shape + (1,)))


@pytest.mark.parametrize("coupled", [False, True])
def test_abort_mid_run_leaves_no_thread(coupled):
    # the drift turns non-finite at call 300, with noise blocks still to
    # draw after it; the coupled pair calls it twice a step
    comp = build_component(make_expsum_basis([(1.0, EYE, EYE)]), 1, 2.0)
    coeffs = _inf_at_call(300, 2)
    plans = make_plans(0, 4, 0.01, 10.0, first_index=10)
    z = np.zeros((1, 1))
    before = threading.active_count()
    with pytest.raises(FloatingPointError) as err:
        if coupled:
            simulate_coupled_pair(comp, coeffs, build_custom(comp, [EYE]),
                                  1.0, z, z, plans)
        else:
            simulate_lifted_ensemble(comp, coeffs, z, plans)
    step = 150 if coupled else 300
    assert f"at step {step}, trajectory 12" in str(err.value)
    assert threading.active_count() == before


@pytest.mark.parametrize("integrator", ["lifted", "ensemble", "coupled",
                                        "volterra"])
def test_no_integrator_starts_a_thread(integrator):
    # the drift counts the threads at each of its calls, made while the
    # integrator runs; 300 trajectories of one factor step in one process
    seen = set()

    def b(x):
        seen.add(threading.active_count())
        return -np.asarray(x, dtype=float)

    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, 2.0)
    coeffs = replace(make_preset("linear"), b=b)
    plans = make_plans(0, 300, 0.01, 1.5)
    z = np.zeros((1, 1))
    before = threading.active_count()
    if integrator == "lifted":
        simulate_lifted(comp, coeffs, z, plans[0])
    elif integrator == "ensemble":
        simulate_lifted_ensemble(comp, coeffs, z, plans)
    elif integrator == "coupled":
        simulate_coupled_pair(comp, coeffs, build_custom(comp, [EYE]), 1.0,
                              np.ones((1, 1)), z, plans)
    else:
        simulate_volterra_direct((basis.closed_forms["drift"],
                                  basis.closed_forms["diffusion"]), coeffs,
                                 lambda t: np.zeros(1), plans)
    assert seen == {before}


class _FailsOnSecondFill:
    """A lane block's generator that raises on its second fill."""

    def __init__(self, gen):
        self.gen, self.fills = gen, 0

    def standard_normal(self, out):
        self.fills += 1
        if self.fills == 2:
            raise ZeroDivisionError("second fill")
        return self.gen.standard_normal(out=out)


@pytest.mark.parametrize("block", [0, 15])
def test_a_failed_fill_leaves_no_thread(monkeypatch, block):
    # 4096 trajectories, d = 1: 16 lane blocks, 62 steps a block.  Lane
    # block `block` fails in the second step block; its error reaches the
    # consumer after the first block's rows, the first lane block's as
    # the last's
    lane_blocks = dynamics._lane_blocks

    def failing(plans):
        blocks = lane_blocks(plans)
        gen, runs = blocks[block]
        blocks[block] = (_FailsOnSecondFill(gen), runs)
        return blocks

    monkeypatch.setattr(dynamics, "_lane_blocks", failing)
    plans = make_plans(0, 4096, 0.01, 2.0)
    before = threading.active_count()
    rows = 0
    with pytest.raises(ZeroDivisionError, match="second fill"):
        for _ in _stacked_increments(plans):
            rows += 1
    assert rows == 62
    assert threading.active_count() == before


@pytest.mark.parametrize("d", [1, 2, 3])
def test_noise_term_is_the_einsum(d):
    # one multiply-add per noise column, in column order: einsum's bits for
    # d <= 2; at d = 3 only the order of the sum may differ.  A constant
    # diffusion, one (3, d) matrix, gives the bits of its broadcast.
    rng = np.random.default_rng(d)
    sigma = rng.standard_normal((1000, 3, d))
    dw = rng.standard_normal((1000, d))
    x = np.zeros((3, 1000))
    got = _noise_term(lambda xt: sigma, x, dw)
    want = np.einsum("tpd,td->pt", sigma, dw)
    const = sigma[0]
    np.testing.assert_array_equal(
        _noise_term(const, x, dw),
        _noise_term(lambda xt: np.broadcast_to(const, sigma.shape), x, dw))
    if d < 3:
        np.testing.assert_array_equal(got, want)
    else:
        # relative to the sum of the terms' magnitudes, which cancellation
        # in a single entry does not shrink
        scale = np.einsum("tpd,td->pt", np.abs(sigma), np.abs(dw))
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


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


def test_coupled_pair_memory_bounded_in_horizon():
    # what grows with T is only the (M+1,) per-step statistics; 256
    # trajectories keep them small against the per-step work arrays
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("tanh", scale=0.5, sigma0=1.0)
    table = build_custom(comp, [EYE])

    def peak(T):
        plans = make_plans(0, 256, 0.05, T, d=1)
        tracemalloc.start()
        try:
            simulate_coupled_pair(comp, coeffs, table, 1.0, np.ones((1, 1)),
                                  np.zeros((1, 1)), plans)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200.0) <= 1.5 * peak(20.0)


@pytest.mark.parametrize("count", [1, 2])
def test_lifted_ensemble_rejects_a_stack_of_other_count(count):
    comp, coeffs = ergodic_2d_setup()
    plans = make_plans(0, 3, 0.1, 0.2, d=2)
    with pytest.raises(ValueError,
                       match=f"{count} initial states for 3 trajectories"):
        simulate_lifted_ensemble(comp, coeffs, np.zeros((count, 1, 2)),
                                 plans)
    # a lone plan takes a stack of one, though it runs as two columns
    lone = simulate_lifted(comp, coeffs, np.full((1, 1, 2), 0.5), plans[0])
    shared = simulate_lifted(comp, coeffs, np.full((1, 2), 0.5), plans[0])
    np.testing.assert_array_equal(lone.states, shared.states)


@pytest.mark.parametrize("count", [1, 2])
def test_coupled_pair_rejects_a_stack_of_other_count(count):
    comp = build_component(make_expsum_basis([(1.0, EYE, EYE)]), 1, 2.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(0, 3, 0.1, 0.2)
    z = np.zeros((1, 1))
    for y1, y2 in ((np.zeros((count, 1, 1)), z), (z, np.ones((count, 1, 1)))):
        with pytest.raises(ValueError,
                           match=f"{count} initial states for 3 trajectories"):
            simulate_coupled_pair(comp, make_preset("linear"), table, 1.0,
                                  y1, y2, plans)


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
                                         lambda t: np.zeros(1), plan)
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


def test_preset_diffusion_is_full_rank():
    # a number sigma0 drives each of the n components with its own
    # Brownian motion, so sigma sigma^T is sigma0^2 I as C_UE declares
    coeffs = make_preset("tanh", n=2)
    np.testing.assert_array_equal(coeffs.sigma(0), np.eye(2))
    assert coeffs.sigma(np.zeros((5, 2))).shape == (5, 2, 2)
    assert coeffs.C_UE == 1.0
    mat = [[2.0, 0.0], [1.0, 1.0]]
    coeffs = make_preset("linear", n=2, sigma0=mat)
    np.testing.assert_array_equal(coeffs.sigma(np.zeros(2)), mat)
    least = np.linalg.eigvalsh(np.array(mat) @ np.array(mat).T)[0]
    assert coeffs.C_UE == pytest.approx(1.0 / least, rel=1e-14)
    with pytest.raises(ValueError, match=r"got shape \(2, 3\)"):
        make_preset("double_well", n=2, sigma0=np.ones((2, 3)))


def test_coupled_pair_runs_on_a_two_dimensional_preset():
    # the all-ones diffusion of a scalar sigma0 had a singular Gram matrix
    basis = make_expsum_basis([(1.0, np.eye(2), np.eye(2))])
    comp = build_component(basis, 2, theta_max=2.0)
    run = simulate_coupled_pair(
        comp, make_preset("linear", n=2), build_custom(comp, [np.eye(2)]),
        1.0, np.ones((1, 2)), np.zeros((1, 2)), make_plans(0, 8, 0.05, 1.0,
                                                            d=2))
    assert np.all(np.isfinite(run.mean_dist))
    assert run.mean_dist[-1] < run.mean_dist[0]


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
