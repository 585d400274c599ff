"""Batch front door: JSON experiment configs in, CSV/JSON artifacts out.

Exit codes: 0 completed, 2 precondition/config failure, 3 numerical abort.
Result CSVs are byte-identical across reruns and worker counts; wall-clock
metadata lives in a separate file so the CSV body stays deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import coupling as cpl
from . import ergodics as erg
from .discretize import build_component, epsilon_k, reconstructed_kernel
from .dynamics import (NoisePlan, make_plans, make_preset, simulate_lifted,
                       truncate_coefficients)
from .kernelbasis import (DIFFUSION, DRIFT, basis_from_json, eval_kernel,
                          inf_support, make_expsum_basis,
                          make_tempered_fractional_basis)
from .weights import (build_phi_coupling, check_lyapunov_sufficient,
                      compute_coupling_constants, find_certified_constants)

EXPERIMENTS = ("kernel_error", "simulate", "coupling", "ergodic",
               "stationarity", "lift_independence", "ipm_convergence",
               "lyapunov_check")

DEFAULTS = {
    "discretization": {"k": 64, "theta_max": "auto"},
    "scheme": {"h": 1e-2, "T": 10.0},
    "rng": {"seed": 0, "trajectories": 1024},
    "output_dir": "out",
}

ALLOWED_KEYS = {
    "": {"experiment", "basis", "basis_b", "discretization", "coefficients",
         "scheme", "rng", "output_dir", "t_grid", "lags", "burn_in",
         "ladder", "initial", "coupling"},
    "basis": {"kind", "file", "terms", "alpha_b", "alpha_s", "kappa_b",
              "kappa_s", "gamma_b", "gamma_s", "n"},
    "discretization": {"k", "theta_max"},
    "coefficients": {"preset", "beta", "c", "scale", "sigma0", "n", "gamma",
                     "truncate"},
    "scheme": {"h", "T"},
    "rng": {"seed", "trajectories"},
    "initial": {"y1", "y2"},
    "coupling": {"m", "delta", "L", "R", "lam"},
}


class ConfigError(Exception):
    pass


def _check_keys(section, obj):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {section or '<root>'} must be an object")
    unknown = set(obj) - ALLOWED_KEYS[section]
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {section or '<root>'}: {sorted(unknown)}")


def resolve_config(raw):
    _check_keys("", raw)
    cfg = {}
    exp = raw.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
    cfg["experiment"] = exp
    if "basis" not in raw:
        raise ConfigError("basis section is required")
    for sec in ("basis", "basis_b"):
        if sec in raw:
            _check_keys("basis", raw[sec])
            cfg[sec] = dict(raw[sec])
    for sec in ("discretization", "scheme", "rng"):
        merged = dict(DEFAULTS[sec])
        if sec in raw:
            _check_keys(sec, raw[sec])
            merged.update(raw[sec])
        cfg[sec] = merged
    if "coefficients" in raw:
        _check_keys("coefficients", raw["coefficients"])
        cfg["coefficients"] = dict(raw["coefficients"])
    else:
        cfg["coefficients"] = {"preset": "linear"}
    if "initial" in raw:
        _check_keys("initial", raw["initial"])
        cfg["initial"] = dict(raw["initial"])
    else:
        cfg["initial"] = {"y1": 1.0, "y2": 0.0}
    if "coupling" in raw:
        _check_keys("coupling", raw["coupling"])
        cfg["coupling"] = dict(raw["coupling"])
    cfg["output_dir"] = raw.get("output_dir", DEFAULTS["output_dir"])
    cfg["t_grid"] = raw.get("t_grid",
                            list(np.geomspace(1e-2, 10.0, 25)))
    cfg["lags"] = raw.get("lags", [1.0, 2.0, 5.0])
    cfg["burn_in"] = raw.get("burn_in", 5.0)
    cfg["ladder"] = raw.get("ladder", [8, 16, 32, 64])

    for sec, key in (("scheme", "h"), ("scheme", "T")):
        v = cfg[sec][key]
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and v > 0):
            raise ConfigError(f"{sec}.{key} must be a finite positive number,"
                              f" got {v!r}")
    for sec, key, least in (("rng", "seed", 0), ("rng", "trajectories", 1),
                            ("discretization", "k", 1)):
        v = cfg[sec][key]
        if not (isinstance(v, int) and not isinstance(v, bool)
                and v >= least):
            raise ConfigError(f"{sec}.{key} must be an integer of at least "
                              f"{least}, got {v!r}")
    return cfg


def build_basis(spec):
    if "file" in spec:
        try:
            text = Path(spec["file"]).read_text()
        except OSError as exc:
            raise ConfigError(f"basis.file: {exc}") from exc
        return basis_from_json(text)
    kind = spec.get("kind")
    if kind == "expsum":
        terms = [(t["rate"], np.asarray(t["Mb"], float),
                  np.asarray(t["Ms"], float)) for t in spec["terms"]]
        return make_expsum_basis(terms)
    if kind == "tempered_fractional":
        return make_tempered_fractional_basis(
            spec["alpha_b"], spec["alpha_s"], spec["kappa_b"],
            spec["kappa_s"], spec.get("gamma_b"), spec.get("gamma_s"),
            spec.get("n", 1))
    raise ConfigError(f"unknown basis kind {kind!r}")


def build_coefficients(spec):
    kwargs = {k: v for k, v in spec.items() if k not in ("preset", "truncate")}
    coeffs = make_preset(spec.get("preset", "linear"), **kwargs)
    if "truncate" in spec:
        coeffs = truncate_coefficients(coeffs, spec["truncate"])
    return coeffs


def _fmt(x):
    return f"{x:.17g}"


def _write_rows(path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fill(component, value):
    return np.full((component.size, component.n), float(value))


def run_experiment(cfg, out_dir, threads=1):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True, default=float) + "\n")
    basis = build_basis(cfg["basis"])
    coeffs = build_coefficients(cfg["coefficients"])
    k = cfg["discretization"]["k"]
    theta_max = cfg["discretization"]["theta_max"]
    h, T = cfg["scheme"]["h"], cfg["scheme"]["T"]
    seed, n_traj = cfg["rng"]["seed"], cfg["rng"]["trajectories"]
    exp = cfg["experiment"]
    verdict = {"experiment": exp, "seed": seed}
    rows = []
    header = "experiment,k,t_or_lag,estimate,stderr,floor"

    if exp == "lyapunov_check":
        rep = check_lyapunov_sufficient(basis, coeffs)
        verdict.update(passed=rep.passed, margin=rep.margin, I=rep.I,
                       kappa=rep.kappa, details=rep.details)
        rows.append((exp, 0, 0.0, rep.I, 0.0, 0.0))

    elif exp == "kernel_error":
        component = build_component(basis, k, theta_max)
        max_rel = 0.0
        kcsv = [("which", "t", "exact", "reconstructed", "rel_err")]
        for which in (DRIFT, DIFFUSION):
            for t in cfg["t_grid"]:
                t = float(t)
                exact = basis.closed_forms[which](t) \
                    if which in basis.closed_forms \
                    else eval_kernel(basis, which, t)
                rec = reconstructed_kernel(component, which, t)
                rel = (np.linalg.norm(rec - exact)
                       / max(np.linalg.norm(exact), 1e-300))
                max_rel = max(max_rel, rel)
                kcsv.append((which, _fmt(t), _fmt(float(exact.ravel()[0])),
                             _fmt(float(rec.ravel()[0])), _fmt(float(rel))))
                rows.append((exp, component.size, t, float(rel), 0.0, 0.0))
        (out_dir / "kernel_error.csv").write_text(
            "\n".join(",".join(map(str, r)) for r in kcsv) + "\n")
        verdict.update(max_rel_err=max_rel, k=component.size,
                       theta_max=component.theta_max)
        print(f"kernel_error: max relative error {max_rel:.3e}")

    elif exp == "simulate":
        component = build_component(basis, k, theta_max)
        z0 = _fill(component, cfg["initial"]["y1"])
        plan = NoisePlan(seed, 0, h, T, d=coeffs.d)
        path = simulate_lifted(component, coeffs, z0, plan)
        _write_rows(out_dir / "path.csv",
                    "t," + ",".join(f"X_{i+1}" for i in range(component.n)),
                    [(float(t),) + tuple(map(float, x))
                     for t, x in zip(path.times, path.observables)])
        verdict.update(final_X=[float(v) for v in path.observables[-1]])
        rows.append((exp, component.size, T,
                     float(path.observables[-1][0]), 0.0, 0.0))

    elif exp == "coupling":
        component = build_component(basis, k, theta_max)
        ccfg = cfg.get("coupling", {})
        if "m" in ccfg:
            consts = compute_coupling_constants(
                component, coeffs, ccfg["m"], ccfg.get("delta"),
                ccfg.get("L"), ccfg.get("R", np.inf))
        else:
            consts = find_certified_constants(component, coeffs)
            if consts is None:
                raise ConfigError("no certified coupling constants found")
        lam = ccfg.get("lam", consts.lam)
        table = build_phi_coupling(component, consts.m, consts.delta,
                                   consts.L, min(consts.R, 1e300))
        y1 = _fill(component, cfg["initial"]["y1"])
        y2 = _fill(component, cfg["initial"]["y2"])
        plans = make_plans(seed, n_traj, h, T, d=coeffs.d)
        run = cpl.simulate_coupled_pair(component, coeffs, table, lam, y1,
                                        y2, plans)
        kappa = inf_support(basis)
        rep = cpl.contraction_report(run, kappa, lam=lam,
                                     c_ue=coeffs.C_UE or 1.0)
        for i, t in enumerate(run.times):
            rows.append((exp, component.size, float(t),
                         float(rep.mean_dist[i]), float(rep.stderr_dist[i]),
                         float(rep.envelope[i])))
        verdict.update(epsilon=consts.epsilon, certified=consts.certified,
                       lam=lam, r_hat=rep.r_hat,
                       bounds={"contraction": rep.contraction_ok,
                               "kl": rep.kl_ok},
                       kl_energy=rep.mean_energy_final,
                       kl_budget=rep.kl_budget)

    elif exp == "ergodic":
        component = build_component(basis, k, theta_max)
        times = [t for t in cfg["t_grid"] if 0 < t <= T]
        fit = erg.ergodic_decay(component, coeffs,
                                _fill(component, cfg["initial"]["y1"]),
                                _fill(component, cfg["initial"]["y2"]),
                                n_traj, times, seed=seed, h=h,
                                threads=threads)
        for t, v in zip(fit.times, fit.w1):
            rows.append((exp, component.size, float(t), float(v), 0.0, 0.0))
        verdict.update(r_hat=fit.r_hat, intercept=fit.intercept,
                       r_stderr=fit.r_stderr)

    elif exp == "stationarity":
        component = build_component(basis, k, theta_max)
        res = erg.stationarity_test(component, coeffs, cfg["burn_in"],
                                    cfg["lags"], n_traj,
                                    _fill(component, cfg["initial"]["y1"]),
                                    seed=seed, h=h, threads=threads)
        for lag, v, fl in zip(res.lags, res.w1, res.floors):
            rows.append((exp, component.size, float(lag), float(v), 0.0,
                         float(fl)))
        verdict.update(passed=res.all_pass,
                       per_lag=[bool(p) for p in res.passed])

    elif exp == "lift_independence":
        if "basis_b" not in cfg:
            raise ConfigError("lift_independence requires basis_b")
        basis_b = build_basis(cfg["basis_b"])
        res = erg.lift_independence_test(basis, basis_b, coeffs, T, n_traj,
                                         k=k,
                                         seed=seed, h=h, threads=threads)
        rows.append((exp, k, T, res.w1, 0.0, res.floor))
        verdict.update(w1=res.w1, floor=res.floor, eps_bias=res.eps_bias,
                       passed=res.passed)

    elif exp == "ipm_convergence":
        trend = erg.ipm_convergence(basis, coeffs, cfg["ladder"], T, n_traj,
                                    seed=seed, h=h, threads=threads)
        for kk, ee, vv in zip(trend.ks, trend.eps, trend.w1):
            rows.append((exp, int(kk), float(ee), float(vv), 0.0,
                         trend.finest_floor))
        verdict.update(spearman=trend.spearman,
                       trend_positive=trend.trend_positive,
                       finest_floor=trend.finest_floor)

    _write_rows(out_dir / "results.csv", header, rows)
    (out_dir / "verdict.json").write_text(
        json.dumps(verdict, indent=2, sort_keys=True, default=float) + "\n")
    (out_dir / "run_meta.json").write_text(
        json.dumps({"wall_time": time.time()}) + "\n")
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(prog="voltlift")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "run":
            p.add_argument("--out", default=None)
            p.add_argument("--seed-override", type=int, default=None)
            p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
        cfg = resolve_config(raw)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for spec in (cfg["basis"], cfg.get("basis_b", {})):
        if "file" in spec:  # named relative to the config that references it
            spec["file"] = str(Path(args.config).parent / spec["file"])

    if args.command == "validate":
        print("config ok")
        return 0

    if args.seed_override is not None:
        cfg["rng"]["seed"] = args.seed_override
    out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
    try:
        run_experiment(cfg, out_dir, threads=args.threads)
    except FloatingPointError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ConfigError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
