import itertools
import json
import os
import signal
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voltlift import coupling, dynamics
from voltlift.cli import _build_inputs, main, resolve_config
from voltlift.coupling import (STAT_ROWS, _control, _coupled_step, _gap,
                               contraction_report, mean_stderr,
                               simulate_coupled_pair)
from voltlift.discretize import build_component
from voltlift.dynamics import (FORK_MIN_PART_ENTRIES, CoefficientModel,
                               _batch, _by_trajectory, _fork_row,
                               _ForkedPart, _initial_states,
                               _stacked_increments, make_plans, make_preset,
                               simulate_lifted_ensemble,
                               simulate_volterra_direct, step_operators)
from voltlift.kernelbasis import (make_expsum_basis,
                                  make_tempered_fractional_basis)
from voltlift.weights import (build_custom, build_phi_coupling,
                              build_psi_lyapunov, compute_coupling_constants,
                              distance_dphipsi, find_certified_constants)

EYE = np.eye(1)
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "coupling.json"


def atom_setup():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    return comp


def test_deterministic_benchmark_rate():
    # b = 0, sigma = 1, identity weight on a single atom: the difference
    # contracts at exactly kappa + lam * w per unit time as h -> 0
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    lam = 0.5
    plans = make_plans(0, 2, 1e-3, 3.0, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, lam,
                                np.full((1, 1), 0.1), np.zeros((1, 1)),
                                plans)
    rep = contraction_report(run, kappa=1.0, lam=lam, c_ue=1.0)
    assert rep.r_hat == pytest.approx(1.5, rel=5e-3)


def test_zero_initial_distance_is_trivially_contracted():
    comp = atom_setup()
    coeffs = make_preset("tanh", scale=0.2, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(1, 8, 1e-2, 1.0, d=1)
    z = np.full((1, 1), 0.3)
    run = simulate_coupled_pair(comp, coeffs, table, 1.0, z, z, plans)
    rep = contraction_report(run, kappa=1.0, lam=1.0)
    assert rep.r_hat is None
    assert rep.contraction_ok
    assert np.all(run.mean_dist <= 1e-12)


def test_energy_is_left_point_quadrature_of_control():
    # sigma = 1, one atom and the identity weight: u = lam (y - yh), so
    # |u| = lam * dist at every step; a single trajectory's mean distance
    # is its distance, and its standard error is zero
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    energies = []
    for T in (0.25, 0.5):
        run = simulate_coupled_pair(comp, coeffs, table, 0.7,
                                    np.full((1, 1), 1.0), np.zeros((1, 1)),
                                    make_plans(2, 1, 0.05, T, d=1))
        assert np.all(run.stderr_dist == 0.0)
        u_sq = (0.7 * run.mean_dist) ** 2
        want = 0.5 * 0.05 * np.sum(u_sq[:-1])
        np.testing.assert_allclose(run.energy, [want], rtol=1e-12)
        energies.append(run.energy[0])
    assert 0.0 < energies[0] <= energies[1]


def test_common_noise_cancels_for_constant_sigma():
    # with additive noise the difference process is deterministic, so every
    # trajectory reports the same distance curve: no spread across them
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(5, 6, 1e-2, 1.0, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, 1.0,
                                np.full((1, 1), 0.2), np.zeros((1, 1)),
                                plans)
    assert run.mean_dist[0] == pytest.approx(0.2, rel=1e-15)
    assert np.max(run.stderr_dist) < 1e-14


def test_degenerate_diffusion_aborts(monkeypatch):
    # a zero sigma per step, and a zero constant one (the preset's C_sLip
    # 0), abort at step 1's control, before the first coupled step, with
    # no divide-by-zero warning
    comp = atom_setup()
    degenerate = CoefficientModel(
        b=lambda x: -x, sigma=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        n=1, d=1)
    table = build_custom(comp, [EYE])
    plans = make_plans(0, 1, 0.1, 0.5, d=1)
    steps = []

    def counted(*args):
        steps.append(1)
        return _coupled_step(*args)

    monkeypatch.setattr(coupling, "_coupled_step", counted)
    for coeffs in (degenerate, make_preset("linear", sigma0=0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match="singular diffusion Gram matrix"):
                simulate_coupled_pair(comp, coeffs, table, 1.0,
                                      np.full((1, 1), 1.0), np.zeros((1, 1)),
                                      plans)
        assert steps == []


def test_control_divides_a_1x1_gram_matrix_as_solve_does():
    rng = np.random.default_rng(5)
    coeffs = CoefficientModel(
        b=lambda x: -x, sigma=lambda x: (0.2 + np.exp(np.sin(3.0 * x)))[
            ..., None], n=1, d=1)
    for n_traj in (1, 2, 7, 1000):
        xh = rng.normal(size=(1, n_traj)) * 3.0
        v = rng.normal(size=(1, n_traj)) * 10.0 ** rng.uniform(-8, 8)
        s = coeffs.sigma(xh.T)
        gram = np.einsum("tpd,tqd->tpq", s, s)
        sol = np.linalg.solve(gram, v.T[..., None])[..., 0]
        want = 1.3 * np.einsum("tpd,tp->td", s, sol)
        np.testing.assert_array_equal(
            _control(coeffs.sigma, None, xh, v, 1.3), want)


def test_zero_gram_matrix_raises_not_warns():
    coeffs = CoefficientModel(
        b=lambda x: -x, sigma=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        n=1, d=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="singular diffusion"):
            _control(coeffs.sigma, None, np.ones((1, 3)), np.ones((1, 3)),
                     1.0)


def assert_same_bits(got, want):
    """Equal arrays down to the sign of each zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def constant_diffusion_run(case, coeffs):
    """The output arrays of one run of case, a pair, a lifted ensemble or
    the direct scheme, on a model of constant diffusion."""
    n = coeffs.n
    if case == "ensemble":
        ms = np.eye(n) + 0.3 * (1.0 - np.eye(n))
        comp = build_component(make_expsum_basis([(1.0, np.eye(n), ms),
                                                  (5.0, 0.5 * ms, ms)]),
                               2, theta_max=10.0)
        run = simulate_lifted_ensemble(comp, coeffs, np.full((2, n), 0.5),
                                       make_plans(3, 40, 0.01, 1.0, d=n),
                                       record_times=[0.25, 1.0])
        return dict(zip(("times", "X", "z_final"), run))
    if case == "direct_2d":
        ms = np.array([[1.0, 0.3], [0.3, 1.0]])
        basis = make_expsum_basis([(0.5, np.eye(2), ms), (2.0, ms, np.eye(2))])
        run = simulate_volterra_direct(
            (basis.closed_forms["drift"], basis.closed_forms["diffusion"]),
            coeffs, lambda t: np.array([np.cos(t), 0.5]),
            make_plans(6, 9, 0.01, 0.5, d=2))
        return dict(zip(("times", "x"), run))
    comp, _, table, lam, y1, y2, _ = pair_setup(
        "two_dim" if case == "pair_2d" else "frac")
    if case == "pair_equal_start":
        y2 = y1
    run = simulate_coupled_pair(comp, coeffs, table, lam, y1, y2,
                                make_plans(2, 40, 0.01, 1.0, d=coeffs.d))
    return vars(run)


SIGMA_2 = [[0.9, 0.3], [-0.4, 1.1]]
SIGMA_3 = [[0.9, 0.3, -0.2], [-0.4, 1.1, 0.1], [0.2, -0.3, 0.8]]


@pytest.mark.parametrize("case, sigma0", [
    ("pair", 0.7), ("pair_2d", SIGMA_2), ("pair_equal_start", -0.7),
    ("ensemble", SIGMA_2), ("ensemble", SIGMA_3), ("direct_2d", SIGMA_2)])
def test_constant_diffusion_keeps_the_per_step_bits(case, sigma0):
    # a preset's sigma (C_sLip 0) steps as one matrix: a pair forms its
    # noise term once a step for both copies and its Gram matrix once a
    # run.  The same sigma declared state-dependent (C_sLip None) is called
    # per trajectory and step, and every output keeps its bits.  At d = 3
    # the order of the noise columns' sum shows in them.
    n = len(sigma0) if np.ndim(sigma0) else 1
    constant = make_preset("tanh", scale=0.1, sigma0=sigma0, n=n)
    per_step = replace(constant, C_sLip=None)
    assert not callable(dynamics._diffusion(constant))
    assert callable(dynamics._diffusion(per_step))
    got = constant_diffusion_run(case, constant)
    want = constant_diffusion_run(case, per_step)
    assert got.keys() == want.keys()
    for key in got:
        assert_same_bits(got[key], want[key])
    if case == "pair_equal_start":
        # v = 0: the constant path's u is -0.0, the einsum's +0.0, and
        # only u^2 reaches the energy
        assert np.all(got["energy"] == 0.0)
        sigma = dynamics._diffusion(constant)
        zero = np.zeros((1, 3))
        u = _control(sigma, coupling._gram(sigma), zero, zero, 0.5)
        assert np.all(np.signbit(u))
        assert not np.any(np.signbit(_control(constant.sigma, None, zero,
                                              zero, 0.5)))


def test_coupled_trajectory_bits_do_not_depend_on_its_batch():
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    comp = build_component(basis, 16, 64.0)
    coeffs = make_preset("tanh", scale=0.1, sigma0=1.0)
    consts = compute_coupling_constants(comp, coeffs, m=8.0)
    table = build_phi_coupling(comp, consts.m, consts.delta, consts.L, 1e300)
    y1, y2 = np.ones((16, 1)), np.zeros((16, 1))
    plans = make_plans(7, 5, 0.01, 0.3, d=1)
    batch = simulate_coupled_pair(comp, coeffs, table, consts.lam, y1, y2,
                                  plans)
    for j in (0, 2, 4):
        solo = simulate_coupled_pair(comp, coeffs, table, consts.lam, y1, y2,
                                     plans[j:j + 1])
        for name in ("energy", "y_final", "yh_final"):
            np.testing.assert_array_equal(getattr(solo, name)[0],
                                          getattr(batch, name)[j], name)


def test_invalid_gain_rejected():
    comp = atom_setup()
    coeffs = make_preset("linear")
    table = build_custom(comp, [EYE])
    plans = make_plans(0, 1, 0.1, 0.5, d=1)
    with pytest.raises(ValueError):
        simulate_coupled_pair(comp, coeffs, table, 0.0,
                              np.zeros((1, 1)), np.zeros((1, 1)), plans)


def test_kl_budget_arithmetic():
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_phi_coupling(comp, m=2.0, delta=0.5, L=2.0, R=10.0)
    plans = make_plans(3, 16, 1e-2, 4.0, d=1)
    lam = 2.0
    run = simulate_coupled_pair(comp, coeffs, table, lam,
                                np.full((1, 1), 0.5), np.zeros((1, 1)),
                                plans)
    rep = contraction_report(run, kappa=1.0, lam=lam, c_ue=1.0)
    d0 = run.mean_dist[0]
    assert rep.kl_budget == pytest.approx(0.5 * lam * d0 ** 2, rel=1e-12)
    assert isinstance(rep.kl_ok, bool)
    assert rep.mean_energy_final >= 0.0


def test_verdict_d_phipsi_matches_a_direct_coupled_run(tmp_path):
    assert main(["run", "--config", str(CONFIG), "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "verdict.json").read_text())["d_phipsi"]
    cfg = resolve_config(json.loads(CONFIG.read_text()))
    bases, coeffs = _build_inputs(cfg)
    d = cfg["discretization"]
    comp = build_component(bases["basis"], d["k"], d["theta_max"])
    consts = find_certified_constants(comp, coeffs)
    phi = build_phi_coupling(comp, consts.m, consts.delta, consts.L, 1e300)
    psi = build_psi_lyapunov(comp, consts.m)
    y1 = np.full((comp.size, 1), cfg["initial"]["y1"])
    y2 = np.full((comp.size, 1), cfg["initial"]["y2"])
    plans = make_plans(cfg["rng"]["seed"], cfg["rng"]["trajectories"],
                       cfg["scheme"]["h"], cfg["scheme"]["T"])
    run = simulate_coupled_pair(comp, coeffs, phi, consts.lam, y1, y2, plans)
    d_end = distance_dphipsi(run.y_final, run.yh_final, comp, phi, psi)
    assert got["t0"] == distance_dphipsi(y1, y2, comp, phi, psi)
    assert got["T"] == d_end.mean()
    assert got["T_stderr"] == pytest.approx(
        d_end.std(ddof=1) / np.sqrt(d_end.size), rel=1e-12)
    assert got["ratio"] == got["T"] / got["t0"]
    assert got["ratio"] < 1.0


def test_final_states_are_the_last_step():
    comp = atom_setup()
    coeffs = make_preset("tanh", scale=0.2, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(4, 3, 1e-2, 0.5, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, 1.0,
                                np.full((1, 1), 0.4), np.zeros((1, 1)), plans)
    assert run.y_final.shape == run.yh_final.shape == (3, 1, 1)
    # the last recorded distance is the mean weighted norm of the final gap
    gap = np.abs(run.y_final - run.yh_final)[:, 0, 0]
    np.testing.assert_allclose(run.mean_dist[-1], gap.mean(), rtol=1e-14)
    np.testing.assert_allclose(run.stderr_dist[-1],
                               gap.std(ddof=1) / np.sqrt(3), rtol=1e-14)


def test_verdict_ratio_is_null_at_zero_initial_distance(tmp_path):
    doc = json.loads(CONFIG.read_text())
    doc.update(initial={"y1": 0.5, "y2": 0.5}, scheme={"h": 0.01, "T": 0.5},
               rng={"seed": 1, "trajectories": 4})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "verdict.json").read_text())["d_phipsi"]
    assert got["t0"] == 0.0
    assert got["ratio"] is None


def per_step_pair(comp, coeffs, table, lam, y1, y2, plans):
    """The coupled pair stepped as before row blocks: a broadcast decay
    column, a scan of both states for non-finite entries, one mean_stderr
    per step and sigma called per step."""
    h, m, n_traj = plans[0].h, plans[0].n_steps, len(plans)
    batch = _batch(plans)
    ops = step_operators(comp, h, lam)
    assert ops.decay.shape == (comp.size * comp.n, 1)
    y, yh = _initial_states(comp, y1, plans), _initial_states(comp, y2, plans)
    x, xh = ops.observe(y), ops.observe(yh)
    mean, stderr = np.empty(m + 1), np.empty(m + 1)
    v, dist = _gap(comp, table, y, yh)
    mean[0], stderr[0] = mean_stderr(dist[:n_traj])
    energy = np.zeros(n_traj)
    for step, dw in enumerate(_stacked_increments(batch), start=1):
        u = _control(coeffs.sigma, None, xh, v, lam)[:n_traj]
        energy += 0.5 * h * np.sum(u ** 2, axis=-1)
        y, yh, x, xh, v, dist = _coupled_step(comp, coeffs, table, ops, y,
                                              yh, x, xh, v, coeffs.sigma, dw)
        assert np.isfinite(y).all() and np.isfinite(yh).all()
        mean[step], stderr[step] = mean_stderr(dist[:n_traj])
    return dict(mean_dist=mean, stderr_dist=stderr, energy=energy,
                y_final=_by_trajectory(comp, y)[:n_traj],
                yh_final=_by_trajectory(comp, yh)[:n_traj])


def pair_setup(kind):
    """(component, coefficients, table, lam, y1, y2, plan count)."""
    if kind.startswith("held"):
        # frac with a drift that sleeps in this process alone, which holds
        # the caller back while a forked child runs ahead
        comp, coeffs, *rest = pair_setup("frac")
        caller, b = os.getpid(), coeffs.b

        def held(x):
            if os.getpid() == caller:
                time.sleep(2e-4)
            return b(x)

        return (comp, replace(coeffs, b=held), *rest)
    if kind == "two_dim":
        mb, ms = np.array([[1.0, 0.2], [0.0, 1.0]]), np.array([[1.0, 0.3],
                                                               [0.3, 1.0]])
        comp = build_component(make_expsum_basis([(1.0, mb, ms),
                                                  (5.0, 0.5 * mb, ms)]),
                               2, theta_max=10.0)
        coeffs = make_preset("tanh", n=2, scale=0.5, sigma0=ms)
        table = build_custom(comp, [np.eye(2), 2.0 * np.eye(2)])
        return comp, coeffs, table, 0.8, np.ones((2, 2)), np.zeros((2, 2)), 4
    comp = build_component(make_tempered_fractional_basis(0.5, 0.75, 1.0,
                                                          1.0), 16, 64.0)
    coeffs = make_preset("tanh", scale=0.1, sigma0=1.0)
    consts = compute_coupling_constants(comp, coeffs, m=8.0)
    table = build_phi_coupling(comp, consts.m, consts.delta, consts.L, 1e300)
    n_plans = 1 if kind == "lone" else 5
    return (comp, coeffs, table, consts.lam, np.ones((16, 1)),
            np.zeros((16, 1)), n_plans)


@pytest.mark.parametrize("kind", ["frac", "two_dim", "lone"])
@pytest.mark.parametrize("m", [0, 1, STAT_ROWS - 1, STAT_ROWS, STAT_ROWS + 1,
                               3 * STAT_ROWS + 5])
def test_row_blocks_keep_the_per_step_bits(kind, m):
    comp, coeffs, table, lam, y1, y2, n_plans = pair_setup(kind)
    plans = make_plans(3, n_plans, 0.01, m * 0.01, d=coeffs.d)
    assert plans[0].n_steps == m
    run = simulate_coupled_pair(comp, coeffs, table, lam, y1, y2, plans)
    want = per_step_pair(comp, coeffs, table, lam, y1, y2, plans)
    assert len(run.mean_dist) == m + 1
    for name, value in want.items():
        np.testing.assert_array_equal(getattr(run, name), value, name)


def overflow_setup():
    """Two unit-weight atoms with no drift and unit noise: states near the
    largest float stay finite while their x = z_1 + z_2 overflows."""
    comp = build_component(make_expsum_basis([(0.01, EYE, EYE),
                                              (0.02, EYE, EYE)]),
                           2, theta_max=1.0)
    coeffs = CoefficientModel(
        b=np.zeros_like, sigma=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        n=1, d=1)
    return comp, coeffs, build_custom(comp, [EYE, EYE])


def test_finite_states_whose_observable_overflows_run_on():
    comp, coeffs, table = overflow_setup()
    assert np.all(comp.w == 1.0)
    big = np.full((2, 1), 1e308)
    plans = make_plans(0, 3, 0.01, 0.1, d=1)
    with np.errstate(over="ignore"):
        _, X, z = simulate_lifted_ensemble(comp, coeffs, big, plans)
        run = simulate_coupled_pair(comp, coeffs, table, 1.0, big, big,
                                    plans)
    assert np.all(np.isinf(X)) and np.isfinite(z).all()
    assert np.isfinite(run.y_final).all() and np.isfinite(run.yh_final).all()


@pytest.mark.parametrize("kind", ["lifted", "coupled"])
def test_nan_in_an_interior_factor_aborts_naming_it(kind):
    comp, coeffs, table, lam, _, _, _ = pair_setup("frac")
    plans = make_plans(2, 5, 0.01, 0.5, d=1, first_index=10)
    z0 = np.ones((5, 16, 1))
    z0[3, 7, 0] = np.nan
    match = f"non-finite {kind} state at step 1, trajectory 13"
    with pytest.raises(FloatingPointError, match=match):
        if kind == "lifted":
            simulate_lifted_ensemble(comp, coeffs, z0, plans)
        else:
            simulate_coupled_pair(comp, coeffs, table, lam, np.zeros(z0.shape),
                                  z0, plans)


def run_on_cpus(monkeypatch, cpus, integrate, *args):
    """integrate(*args) on a host of the given CPU count, and the number of
    processes it forked."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # raising=False: macOS has no sched_getaffinity to replace
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    try:
        return integrate(*args), len(forks)
    finally:
        monkeypatch.undo()


def run_integrator(integrator, comp, coeffs, table, lam, y1, y2, plans):
    """The outputs by name of the coupled pair, or of the lifted ensemble
    from y1 recorded at steps 0, 1, m // 2 and m."""
    if integrator == "coupled":
        return vars(simulate_coupled_pair(comp, coeffs, table, lam, y1, y2,
                                          plans))
    h, m = plans[0].h, plans[0].n_steps
    times, X, z = simulate_lifted_ensemble(
        comp, coeffs, y1, plans,
        record_times=[s * h for s in sorted({0, min(1, m), m // 2, m})])
    return dict(times=times, X=X, z_final=z)


# Both integrators that fork; the coupled pair's cases keep their ids
INTEGRATORS = pytest.mark.parametrize("integrator", [
    pytest.param("coupled", id=pytest.HIDDEN_PARAM), "lifted"])


@INTEGRATORS
@pytest.mark.parametrize("kind,n_traj,first,m,forks", [
    ("frac", 512, 0, 3 * STAT_ROWS + 5, 1),
    ("frac", 1100, 0, 9 * STAT_ROWS + 6, 1),  # a partial last lane block
    ("frac", 2048, 0, 2 * STAT_ROWS, 1),
    ("frac", 1024, 100, 0, 1),  # a batch that starts inside a lane block
    ("two_dim", 1024, 0, 3 * STAT_ROWS + 5, 1),
    # the only boundaries would leave one trajectory in a part
    ("frac", 257, 0, STAT_ROWS + 3, 0),
    ("frac", 258, 255, STAT_ROWS + 3, 0),
    ("frac", 600, 255, STAT_ROWS + 3, 1),  # split at row 257, not 1
    # a child held up on a full pipe: the pair's child sends 40 blocks of
    # 128 KiB, 5 times the pipe; the ensemble's final arrays outgrow the
    # one-page pipe of held_4k
    ("held", 2048, 0, 40 * STAT_ROWS, 1),
    ("held_4k", 2048, 0, 40 * STAT_ROWS, 1),
])
def test_two_processes_keep_the_one_process_bits(monkeypatch, kind, n_traj,
                                                 first, m, forks, integrator):
    comp, coeffs, table, lam, y1, y2, _ = pair_setup(kind)
    plans = make_plans(3, n_traj, 0.01, m * 0.01, d=coeffs.d,
                       first_index=first)
    assert n_traj * len(y1.reshape(-1)) >= 2 * FORK_MIN_PART_ENTRIES
    args = (integrator, comp, coeffs, table, lam, y1, y2, plans)
    one, no_forks = run_on_cpus(monkeypatch, 1, run_integrator, *args)
    assert no_forks == 0
    if kind == "held_4k":  # below the default that a refused size leaves
        monkeypatch.setattr(dynamics, "PIPE_BYTES", 4096)
    two, two_forks = run_on_cpus(monkeypatch, 2, run_integrator, *args)
    assert two_forks == forks
    if integrator == "coupled":
        assert len(two["mean_dist"]) == m + 1
    assert two.keys() == one.keys()
    for name in one:
        np.testing.assert_array_equal(two[name], one[name], name)


def test_fork_row_splits_at_the_lane_block_nearest_the_middle(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert _fork_row(make_plans(0, 2048, 0.1, 1.0), 16) == 1024
    assert _fork_row(make_plans(0, 1100, 0.1, 1.0), 16) == 512
    # indices 100, ...: blocks start at rows 156, 412, 668 and 924
    assert _fork_row(make_plans(0, 1024, 0.1, 1.0, first_index=100), 16) \
        == 412
    assert _fork_row(make_plans(0, 256, 0.1, 1.0), 16) is None  # one block
    # a part of fewer than 2048 entries: 1 or 4 trajectories of 16 factors
    assert _fork_row(make_plans(0, 257, 0.1, 1.0), 16) is None
    assert _fork_row(make_plans(0, 258, 0.1, 1.0, first_index=255), 16) \
        is None
    assert _fork_row(make_plans(0, 260, 0.1, 1.0), 16) is None
    # the boundary at row 1 is out of reach, 257 is not
    assert _fork_row(make_plans(0, 600, 0.1, 1.0, first_index=255), 16) \
        == 257
    assert _fork_row(make_plans(0, 384, 0.1, 1.0), 16) == 256  # 128 rows
    assert _fork_row(make_plans(0, 4097, 0.1, 1.0), 1) == 2048
    assert _fork_row(make_plans(0, 4095, 0.1, 1.0), 1) is None
    # a lone trajectory of 4096 entries is no part
    assert _fork_row(make_plans(0, 3, 0.1, 1.0, first_index=255), 4096) \
        is None
    assert _fork_row(make_plans(0, 2048, 0.1, 1.0), 1) is None  # too small
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _fork_row(make_plans(0, 2048, 0.1, 1.0), 16) is None


def drift_failing(at, error=None, per_step=2):
    """tanh(0.1)-like drift, called per_step times a step, that makes
    trajectory j's uncontrolled copy (the first call of a step) NaN at
    step at[j], or raises error at the first such step.  A process tells
    its trajectories apart by their initial x, (j + 1) * sum(w)."""
    state = {"calls": 0}

    def b(x):
        x = np.asarray(x, dtype=float)
        state["calls"] += 1
        if state["calls"] == 1:
            state["ids"] = np.rint(x[:, 0] / state["w"]).astype(int) - 1
        out = -x + 0.1 * np.tanh(x)
        step, call = divmod(state["calls"] - 1, per_step)
        step, uncontrolled = step + 1, call == 0
        for row, j in enumerate(state["ids"]):
            if uncontrolled and at.get(j) == step:
                if error is not None:
                    raise error
                out[row] = np.nan
        return out

    return b, state


def failing_run(integrator, at, error=None):
    """run_integrator's arguments: 1024 trajectories whose drift fails as
    drift_failing says."""
    comp, coeffs, table, lam, _, _, _ = pair_setup("frac")
    b, state = drift_failing(at, error, 2 if integrator == "coupled" else 1)
    state["w"] = comp.w.sum()
    z0 = np.arange(1.0, 1025.0)[:, None, None] * np.ones((1024, 16, 1))
    plans = make_plans(2, 1024, 0.01, 0.6, d=1)
    return (integrator, comp, replace(coeffs, b=b), table, lam, z0,
            np.zeros_like(z0), plans)


@INTEGRATORS
@pytest.mark.parametrize("at,step,j", [
    ({700: 20}, 20, 700),  # in the child's part
    ({100: 20}, 20, 100),  # in the caller's part
    ({100: 20, 700: 20}, 20, 100),  # both at one step: the lower trajectory
    ({100: 40, 700: 3}, 3, 700),  # the child's earlier
    ({100: 20, 700: 18}, 18, 700),  # the child's earlier, in a later block
    ({100: 3, 700: 40}, 3, 100),  # the caller's earlier
])
def test_a_non_finite_state_aborts_as_in_one_process(monkeypatch, at, step,
                                                     j, integrator):
    threads = threading.active_count()
    errors = []
    for cpus in (1, 2):
        with pytest.raises(FloatingPointError) as err:
            run_on_cpus(monkeypatch, cpus, run_integrator,
                        *failing_run(integrator, at))
        errors.append(str(err.value))
        assert threading.active_count() == threads
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errors[0] == errors[1] == \
        f"non-finite {integrator} state at step {step}, trajectory {j}"


@INTEGRATORS
@pytest.mark.parametrize("where", ["caller", "child"])
def test_an_error_in_either_part_leaves_no_process(monkeypatch, where,
                                                   integrator):
    threads = threading.active_count()
    j = {"caller": 100, "child": 700}[where]
    with pytest.raises(KeyError, match=f"trajectory {j}"):
        run_on_cpus(monkeypatch, 2, run_integrator, *failing_run(
            integrator, {j: 10}, KeyError(f"trajectory {j}")))
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgumentError(Exception):
    """Pickled by its args, one string, which its constructor cannot take
    back."""

    def __init__(self, j, why):
        super().__init__(f"trajectory {j}: {why}")


class UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@INTEGRATORS
@pytest.mark.parametrize("error", [
    TwoArgumentError(700, "drift failed"),
    UnpicklableError("trajectory 700: drift failed"),
])
def test_a_child_error_that_does_not_pickle_keeps_its_step(monkeypatch,
                                                          error, integrator):
    # the caller's part raises the same error at a later step: the child's,
    # at the lower step, is raised as a RuntimeError naming its type and text
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        run_on_cpus(monkeypatch, 2, run_integrator, *failing_run(
            integrator, {700: 10, 100: 30}, error))
    assert str(err.value) == (
        f"{type(error).__qualname__} in the child process: "
        "trajectory 700: drift failed")
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="batches fork only where sched_getaffinity is")
def test_a_child_whose_caller_has_gone_exits_by_itself():
    # an endless child: once the caller's end of the pipe is closed, its
    # next write fails and it ends with os._exit(0), not by SIGKILL
    def endless():
        for step in itertools.count():
            yield step, np.full(4, float(step))

    part, status = _ForkedPart(endless()), None
    try:
        rows = np.empty((STAT_ROWS, 4))
        part.fill(rows)
        np.testing.assert_array_equal(rows[:, 0], np.arange(STAT_ROWS))
        part.pipe.close()
        deadline = time.monotonic() + 10.0
        while status is None:
            pid, code = os.waitpid(part.pid, os.WNOHANG)
            if pid:
                status = code
            else:
                assert time.monotonic() < deadline, "the child still runs"
                time.sleep(1e-3)
    finally:
        if status is None:
            os.kill(part.pid, signal.SIGKILL)
            os.waitpid(part.pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
