"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success; a failed assertion is the
FAIL line. Criteria with runtime budgets assert wall-clock bounds measured
inside the test.
"""

import json
import time

import numpy as np
import pytest

from voltlift.cli import main as cli_main
from voltlift.coupling import contraction_report, simulate_coupled_pair
from voltlift.discretize import (build_component, epsilon_k,
                                 reconstructed_kernel)
from voltlift.dynamics import (CoefficientModel, NoisePlan, make_plans,
                               make_preset, simulate_lifted,
                               simulate_lifted_ensemble,
                               simulate_volterra_direct)
from voltlift.ergodics import (ergodic_decay, ipm_convergence,
                               lift_independence_test, noise_floor,
                               run_ensemble, stationarity_test,
                               wasserstein1_1d)
from voltlift.kernelbasis import (DIFFUSION, DRIFT, DensitySegment,
                                  LiftingBasis, make_expsum_basis,
                                  make_tempered_fractional_basis)
from voltlift.weights import (build_custom, build_phi_coupling,
                              check_lyapunov_sufficient,
                              find_certified_constants)

EYE = np.eye(1)


def report(num, text):
    print(f"[acceptance] criterion {num:02d}: PASS - {text}")


def test_criterion_01_kernel_reconstruction():
    t0 = time.perf_counter()
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    comp = build_component(basis, 200, theta_max="auto")
    worst = 0.0
    for which in (DRIFT, DIFFUSION):
        exact_fn = basis.closed_forms[which]
        for t in np.geomspace(1e-2, 10.0, 40):
            got = reconstructed_kernel(comp, which, float(t))
            want = exact_fn(float(t))
            worst = max(worst, float(np.linalg.norm(got - want)
                                     / np.linalg.norm(want)))
    elapsed = time.perf_counter() - t0
    assert worst <= 0.01
    assert elapsed < 10.0
    report(1, f"max rel err {worst:.2e} over both kernels in {elapsed:.1f}s")


def test_criterion_02_epsilon_ladder():
    t0 = time.perf_counter()
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    eps = [epsilon_k(basis, build_component(basis, k))
           for k in (8, 16, 32, 64, 128)]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    expsum = make_expsum_basis([(1.0, EYE, EYE), (7.0, EYE, EYE)])
    comp = build_component(expsum, 2, theta_max=10.0)
    assert epsilon_k(expsum, comp) == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"eps ladder {['%.3f' % e for e in eps]} strictly decreasing, "
              f"expsum exact, in {elapsed:.1f}s")


def test_criterion_03_integrator_exactness():
    basis = make_expsum_basis([(1.0, EYE, EYE), (1e5, EYE, EYE)])
    comp = build_component(basis, 2, theta_max=2e5)
    silent = CoefficientModel(
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.zeros(x.shape[:-1] + (1, 1)), n=1, d=1)
    plan = NoisePlan(seed=0, trajectory_index=0, h=1e-2, T=0.1, d=1)
    path = simulate_lifted(comp, silent, np.full((2, 1), 0.7), plan)
    exact = 0.7 * np.exp(-comp.a[None, :, None]
                         * path.times[:, None, None])
    rel = np.abs(path.states - exact) / np.maximum(np.abs(exact), 1e-300)
    worst = float(rel.max())
    assert comp.a[1] * plan.h == pytest.approx(1e3)   # stiff case included
    assert worst <= 10.0 * np.finfo(float).eps
    report(3, f"max rel err {worst / np.finfo(float).eps:.2f} eps "
              f"with a*h up to 1e3")


def test_criterion_04_ou_stationary_variance():
    t0 = time.perf_counter()
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    n = 8192
    ens = run_ensemble(comp, coeffs, np.zeros((1, 1)), seed=1, n_traj=n,
                       h=1e-2, T=50.0, record_times=[50.0])
    var = float(ens[-1][:, 0].var(ddof=1))
    se = var * np.sqrt(2.0 / n)
    elapsed = time.perf_counter() - t0
    assert abs(var - 0.5) <= 3.0 * se
    assert elapsed < 120.0
    report(4, f"variance {var:.4f} vs 1/2 within 3se ({3 * se:.4f}) "
              f"in {elapsed:.1f}s")


def test_criterion_05_lift_vs_direct_cross_validation():
    basis = make_expsum_basis([(0.5, EYE, EYE), (2.0, EYE, EYE)])
    comp = build_component(basis, 2, theta_max=4.0)
    coeffs = make_preset("tanh", scale=1.0, sigma0=0.5)
    kernels = (basis.closed_forms[DRIFT], basis.closed_forms[DIFFUSION])
    gaps = []
    for h in (2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7):
        plans = make_plans(3, 32, h, 4.0, d=1)
        times, direct = simulate_volterra_direct(
            kernels, coeffs, lambda t: np.zeros(1), plans)
        _, lifted, _ = simulate_lifted_ensemble(
            comp, coeffs, np.zeros((2, 1)), plans, record_times=times)
        gaps.append(float(np.sqrt(np.mean((lifted - direct) ** 2))))
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    assert all(r >= 1.2 for r in ratios)
    report(5, f"gap ratios per halving {['%.2f' % r for r in ratios]}")


def test_criterion_06_coupling_contraction_and_kl():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("tanh", scale=0.1, sigma0=1.0)
    consts = find_certified_constants(comp, coeffs)
    assert consts is not None and consts.certified
    table = build_phi_coupling(comp, consts.m, consts.delta, consts.L,
                               min(consts.R, 1e300))
    plans = make_plans(7, 256, 1e-2, 6.0, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, consts.lam,
                                np.full((1, 1), 1.0), np.zeros((1, 1)),
                                plans)
    rep = contraction_report(run, kappa=1.0, lam=consts.lam,
                             c_ue=coeffs.C_UE)
    assert rep.contraction_ok
    assert rep.kl_ok

    # deterministic linear benchmark: rate kappa + lam * w, closed form
    bench = make_preset("linear", beta=0.0, sigma0=1.0)
    ident = build_custom(comp, [EYE])
    lam = 0.5
    run2 = simulate_coupled_pair(comp, bench, ident, lam,
                                 np.full((1, 1), 0.1), np.zeros((1, 1)),
                                 make_plans(0, 2, 1e-3, 5.0, d=1))
    rep2 = contraction_report(run2, kappa=1.0, lam=lam, c_ue=1.0)
    assert rep2.r_hat == pytest.approx(1.5, rel=0.01)
    report(6, f"certified eps={consts.epsilon:.3f}, envelope and KL ok, "
              f"benchmark rate {rep2.r_hat:.4f} vs 1.5")


def test_criterion_07_ergodic_decay():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    ou = make_preset("linear", beta=0.0, sigma0=1.0)
    times = np.linspace(0.5, 3.0, 6)
    fit = ergodic_decay(comp, ou, np.full((1, 1), 1.0), np.zeros((1, 1)),
                        4096, times, seed=11, h=1e-2)
    assert abs(fit.r_hat - 1.0) <= 3.0 * fit.r_stderr

    well = make_preset("double_well", sigma0=1.0)
    assert check_lyapunov_sufficient(basis, well).passed
    times2 = np.linspace(0.5, 6.0, 8)
    fit2 = ergodic_decay(comp, well, np.full((1, 1), 2.0),
                         np.zeros((1, 1)), 4096, times2, seed=12, h=1e-2)
    e1 = run_ensemble(comp, well, np.full((1, 1), 2.0), 12, 4096, 1e-2,
                      6.0, [6.0])
    e2 = run_ensemble(comp, well, np.zeros((1, 1)), 12, 4096, 1e-2, 6.0,
                      [6.0], first_index=4096)
    floor = noise_floor(e1[-1], e2[-1], seed=5)
    assert fit2.r_hat > 0.0
    assert fit2.w1[-1] <= floor
    report(7, f"OU rate {fit.r_hat:.3f} (3se {3 * fit.r_stderr:.3f}), "
              f"double-well rate {fit2.r_hat:.3f} > 0, final W1 under floor")


def test_criterion_08_lyapunov_ground_truth():
    atom = make_expsum_basis([(1.0, EYE, EYE)])
    ok = make_preset("double_well", sigma0=1.0, gamma=0.25)
    rep = check_lyapunov_sufficient(atom, ok)
    assert rep.I == pytest.approx(1.0, rel=1e-12)
    assert rep.passed
    bad = make_preset("double_well", sigma0=1.0, gamma=1.5)
    assert not check_lyapunov_sufficient(atom, bad).passed

    tf = make_tempered_fractional_basis(0.5, 0.75, 2.0, 2.0)
    lin = make_preset("linear", beta=1.0, sigma0=1.0)
    rep2 = check_lyapunov_sufficient(tf, lin)
    assert rep2.I == pytest.approx(2.0 ** -0.5, abs=1e-6)
    report(8, f"atom I=1 gate works, quadrature I={rep2.I:.8f} matches "
              f"2^(-1/2) to {abs(rep2.I - 2 ** -0.5):.1e}")


def test_criterion_09_stationarity_calibration():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    h = 1e-2
    svar = h / (np.exp(2 * h) - 1.0)   # stationary variance of the scheme
    n_traj = 512
    failures = 0
    for seed in range(100):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, 9], dtype=np.uint64)))
        z0 = gen.standard_normal((n_traj, 1, 1)) * np.sqrt(svar)
        res = stationarity_test(comp, coeffs, burn_in=0.0,
                                lags=[1.0, 2.0, 5.0], n_traj=n_traj, z0=z0,
                                seed=seed, h=h, n_boot=60)
        failures += 0 if res.all_pass else 1
    assert failures <= 5

    transient = stationarity_test(comp, coeffs, burn_in=0.0, lags=[1.0],
                                  n_traj=512, z0=np.full((1, 1), 2.0),
                                  seed=3, h=h)
    assert not transient.passed[0]
    report(9, f"{failures}/100 false positives (<= 5), transient start "
              f"rejected at lag 1")


def test_criterion_10_lift_independence():
    atom = make_expsum_basis([(1.0, EYE, EYE)])
    seg = DensitySegment(
        lower=0.995, upper=1.005,
        rho=lambda t: 100.0 * np.ones_like(np.asarray(t, float)),
        Mb=lambda t: EYE, Ms=lambda t: EYE, family="table", params={})
    density = LiftingBasis(n=1, atoms=[], segments=[seg], closed_forms={})
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    res = lift_independence_test(atom, density, coeffs, T=8.0, n_traj=4096,
                                 k=16, seed=21, h=1e-2, theta_max=2.0)
    assert res.passed
    assert res.w1 <= res.floor + res.eps_bias

    mismatched = make_expsum_basis([(2.0, EYE, EYE)])
    with pytest.raises(ValueError):
        lift_independence_test(atom, mismatched, coeffs, T=1.0, n_traj=8)
    report(10, f"W1 {res.w1:.4f} <= floor {res.floor:.4f} + bias "
               f"{res.eps_bias:.4f}; mismatch rejected")


def test_criterion_11_ipm_convergence_trend():
    t0 = time.perf_counter()
    basis = make_tempered_fractional_basis(0.5, 0.55, 1.0, 1.0)
    coeffs = make_preset("linear", beta=1.0, sigma0=1.0)
    trend = ipm_convergence(basis, coeffs, [8, 16, 32, 64], T=8.0,
                            n_traj=4096, seed=31, h=2e-2)
    elapsed = time.perf_counter() - t0
    assert trend.spearman > 0.0
    assert trend.w1[0] > trend.finest_floor
    assert elapsed < 900.0
    report(11, f"spearman {trend.spearman:.2f} > 0, coarsest W1 "
               f"{trend.w1[0]:.4f} > floor {trend.finest_floor:.4f}, "
               f"{elapsed:.0f}s")


def test_criterion_12_determinism_across_threads(tmp_path):
    cfg = {"experiment": "ergodic",
           "basis": {"kind": "expsum",
                     "terms": [{"rate": 1.0, "Mb": [[1.0]], "Ms": [[1.0]]}]},
           "discretization": {"k": 1, "theta_max": 2.0},
           "coefficients": {"preset": "linear", "beta": 0.0, "sigma0": 1.0},
           "scheme": {"h": 0.02, "T": 2.0},
           "rng": {"seed": 17, "trajectories": 2048},
           "t_grid": [0.5, 1.0, 2.0],
           "output_dir": str(tmp_path / "unused")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for i, threads in enumerate((1, 3, 3)):
        out = tmp_path / f"run{i}"
        assert cli_main(["run", "--config", str(path), "--out", str(out),
                         "--threads", str(threads)]) == 0
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]

    cfg["experiment"] = "stationarity"
    cfg["burn_in"] = 1.0
    cfg["lags"] = [0.5, 1.0]
    path.write_text(json.dumps(cfg))
    outs = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"stat{i}"
        assert cli_main(["run", "--config", str(path), "--out", str(out),
                         "--threads", str(threads)]) == 0
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]
    report(12, "result CSVs byte-identical across reruns and thread counts")
