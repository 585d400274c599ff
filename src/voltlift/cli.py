"""Batch front door: JSON experiment configs in, CSV/JSON artifacts out.

Exit codes: 0 completed, 2 precondition/config failure, 3 numerical abort.
Result CSVs are byte-identical across reruns; wall-clock metadata lives in
a separate file so the CSV body stays deterministic.  ``run --threads N``
is accepted and ignored: voltlift starts no thread, and a large lifted
ensemble or coupled pair steps its later lane blocks in one forked child
process with the bits of one process (README, "The second process").
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import coupling as cpl
from . import ergodics as erg
from .discretize import build_component, reconstructed_kernel
from .dynamics import (PRESETS, make_plans, simulate_lifted_ensemble,
                       truncate_coefficients)
from .kernelbasis import (DIFFUSION, DRIFT, basis_from_json, eval_kernel,
                          inf_support, make_expsum_basis,
                          make_tempered_fractional_basis)
from .weights import (build_phi_coupling, build_psi_lyapunov,
                      check_lyapunov_sufficient, compute_coupling_constants,
                      distance_dphipsi, find_certified_constants)


class ConfigError(Exception):
    pass


COMMON = ("basis", "coefficients", "rng", "output_dir")  # read by every run
SPECS = ("basis", "basis_b", "coefficients")  # checked by their builders
# The default of every top-level key that has one.  Other than a spec, a
# value must have its default's type and a section its default's keys (see
# _resolve).  A null coupling constant is derived by certification.
SCHEMA = {
    "coefficients": {"preset": "linear"},
    "discretization": {"k": 64, "theta_max": "auto"},
    "scheme": {"h": 1e-2, "T": 10.0},
    "rng": {"seed": 0, "trajectories": 1024},
    "initial": {"y1": 1.0, "y2": 0.0},
    "coupling": dict.fromkeys(("m", "delta", "L", "R", "lam")),
    "output_dir": "out",
    "t_grid": list(np.geomspace(1e-2, 10.0, 25)),
    "lags": [1.0, 2.0, 5.0],
    "burn_in": 5.0,
    "ladder": [8, 16, 32, 64],
}


def _is_number(v):
    # compared exactly, an int beyond the float range is not finite
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _check_leaves(key, value):
    """Every leaf of a spec is a finite number, except the names."""
    if isinstance(value, dict):
        for k, v in value.items():
            if k not in ("kind", "file", "preset"):
                _check_leaves(f"{key}.{k}", v)
            elif not isinstance(v, str):
                raise ConfigError(f"{key}.{k} must be a string, got {v!r}")
    elif isinstance(value, list):
        for v in value:
            _check_leaves(key, v)
    elif not _is_number(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _resolve(key, value, default):
    """value checked against the type of its default; a section gets the
    default of every key it leaves out, and a null default accepts null."""
    if value is None and default is None:
        return None
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"section {key} must be an object")
        unknown = set(value) - set(default)
        if unknown:
            raise ConfigError(f"unknown key(s) in {key}: {sorted(unknown)}")
        return {k: _resolve(f"{key}.{k}", value[k], d) if k in value else d
                for k, d in default.items()}
    if isinstance(default, list):  # each entry checked like the default's
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_resolve(f"{key} entry", v, default[0]) for v in value]
    if key == "output_dir":
        expected, ok = "a string", isinstance(value, str)
    elif (key in ("scheme.h", "scheme.T", "t_grid entry")
          or key.startswith("coupling.")):
        expected = "a finite positive number"
        ok = _is_number(value) and value > 0
    elif key == "rng.seed":  # the first word of a Philox key
        expected = "an integer in [0, 2**64)"
        ok = type(value) is int and 0 <= value < 2 ** 64
    elif isinstance(default, int):  # k, trajectories, ladder rungs
        expected = "an integer of at least 1"
        ok = _is_number(value) and isinstance(value, int) and value >= 1
    else:
        auto = default == "auto"  # theta_max
        expected = 'a finite number or "auto"' if auto else "a finite number"
        ok = _is_number(value) or auto and value == "auto"
    if ok:
        return value
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


def resolve_config(raw):
    """The keys the experiment reads, checked, with their defaults filled.
    A key that only another experiment reads is accepted and left out."""
    if not isinstance(raw, dict):
        raise ConfigError("the config must be a JSON object")
    exp = raw.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}")
    unknown = set(raw) - {"experiment", *COMMON}.union(
        *(keys for keys, _ in EXPERIMENTS.values()))
    if unknown:
        raise ConfigError(f"unknown key(s) in <root>: {sorted(unknown)}")
    cfg = {"experiment": exp}
    for key in COMMON + EXPERIMENTS[exp][0]:
        if key not in raw:
            if key not in SCHEMA:
                raise ConfigError(f"{exp} requires {key}")
            cfg[key] = copy.deepcopy(SCHEMA[key])
        elif key in SPECS:
            if not isinstance(raw[key], dict):
                raise ConfigError(f"section {key} must be an object")
            _check_leaves(key, raw[key])
            cfg[key] = dict(raw[key])
        else:
            cfg[key] = _resolve(key, raw[key], SCHEMA[key])
    _check_steps(cfg, default_t_grid="t_grid" not in raw)
    _check_samples(cfg)
    return cfg


def _check_steps(cfg, default_t_grid):
    """The ergodic run's record times in (0, scheme.T] fall on distinct
    nonzero steps, the stationarity run's lags on distinct steps after
    burn_in's, and a run that reads scheme takes at least one step.
    Of a default t_grid, only the first entry on each nonzero step is kept:
    its first entries share a step at the default scheme.h."""
    if "scheme" not in cfg:
        return
    h, T = cfg["scheme"]["h"], cfg["scheme"]["T"]
    if not math.isfinite(T / h):
        raise ConfigError(f"scheme.h = {h!r} is too small for scheme.T = "
                          f"{T!r}: T / h overflows")
    if cfg["experiment"] == "ergodic":
        seen = {}
        for t in cfg["t_grid"]:
            if not 0 < t <= T:  # the runner leaves it out
                continue
            step = round(t / h)
            if default_t_grid and (step == 0 or step in seen):
                continue
            if step == 0:
                raise ConfigError(f"t_grid entry {t!r} rounds to step 0 "
                                  f"of scheme.h = {h!r}")
            if step in seen:
                raise ConfigError(f"t_grid entries {seen[step]!r} and {t!r} "
                                  f"round to the same step {step} of "
                                  f"scheme.h = {h!r}")
            seen[step] = t
        if default_t_grid:
            cfg["t_grid"] = list(seen.values())
    if cfg["experiment"] == "stationarity":
        try:
            erg._check_lags(cfg["burn_in"], cfg["lags"], h)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if round(T / h) == 0:
        raise ConfigError(f"scheme.h = {h!r} leaves scheme.T = {T!r} no "
                          "step: round(T / h) = 0")


def _check_samples(cfg):
    """An ergodic run compares ensembles of at least two trajectories, and
    a kernel_error run checks at least one time."""
    n_traj = cfg["rng"]["trajectories"]
    if cfg["experiment"] == "ergodic" and n_traj < 2:
        raise ConfigError(f"rng.trajectories must be at least 2 in an "
                          f"ergodic run, got {n_traj}")
    if cfg["experiment"] == "kernel_error" and not cfg["t_grid"]:
        raise ConfigError("t_grid must hold at least one time in a "
                          "kernel_error run, got []")


def _call_checked(key, fn, spec):
    """fn(**spec) once spec binds to fn's signature; an unknown or missing
    key, or a value fn rejects, is a config error naming key."""
    try:
        inspect.signature(fn).bind(**spec)
        return fn(**spec)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _expsum_basis(terms):
    if not isinstance(terms, list) or not all(
            isinstance(t, dict) and set(t) == {"rate", "Mb", "Ms"}
            for t in terms):
        raise ValueError(f"terms must be a list of {{rate, Mb, Ms}} objects, "
                         f"got {terms!r}")
    return make_expsum_basis([(t["rate"], t["Mb"], t["Ms"]) for t in terms])


def _build_basis(key, spec):
    spec = dict(spec)
    if "file" in spec:
        path = spec.pop("file")
        if spec:
            raise ConfigError(f"unknown key(s) in {key}: {sorted(spec)}")
        try:
            return basis_from_json(Path(path).read_text())
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{key}.file: {exc}") from exc
    # looked up per call, so a rebinding of these module names takes effect
    kinds = {"expsum": _expsum_basis,
             "tempered_fractional": make_tempered_fractional_basis}
    kind = spec.pop("kind", None)
    if kind not in kinds:
        raise ConfigError(f"{key}.kind must be one of {sorted(kinds)}, "
                          f"got {kind!r}")
    return _call_checked(key, kinds[kind], spec)


def build_coefficients(spec):
    kwargs = dict(spec)
    preset = kwargs.pop("preset", "linear")
    truncate = kwargs.pop("truncate", None)
    if preset not in PRESETS:
        raise ConfigError(f"coefficients.preset must be one of "
                          f"{sorted(PRESETS)}, got {preset!r}")
    coeffs = _call_checked("coefficients", PRESETS[preset], kwargs)
    if truncate is not None:
        coeffs = _call_checked("coefficients", truncate_coefficients,
                               {"coeffs": coeffs, "radius": truncate})
    return coeffs


def _build_inputs(cfg):
    """The bases, by config key, and the coefficient model."""
    bases = {key: _build_basis(key, cfg[key])
             for key in ("basis", "basis_b") if key in cfg}
    return bases, build_coefficients(cfg["coefficients"])


def _fmt(x):
    return f"{x:.17g}"


def _json_null(value):
    """value with each non-finite float as None: JSON has no NaN or inf."""
    if isinstance(value, dict):
        return {k: _json_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_null(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def _run_meta():
    """The wall-clock time, the peak RSS of this process and of its reaped
    children (the forked part of a large ensemble or coupled pair among
    them), and versions."""
    meta = {"wall_time": time.time(),
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__}}
    if resource is not None:  # ru_maxrss is in kB on Linux, bytes on macOS
        unit = 1024 if sys.platform == "darwin" else 1
        for key, who in (("ru_maxrss_kb", resource.RUSAGE_SELF),
                         ("children_ru_maxrss_kb", resource.RUSAGE_CHILDREN)):
            meta[key] = resource.getrusage(who).ru_maxrss // unit
    return meta


def _write_rows(path, header, rows):
    lines = [header] + [",".join(_fmt(v) if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _initial(cfg, component):  # every factor at initial.y1, and at .y2
    return [np.full((component.size, component.n), float(cfg["initial"][y]))
            for y in ("y1", "y2")]


def _component(cfg, basis):
    d = cfg["discretization"]
    return build_component(basis, d["k"], d["theta_max"])


def _mc(cfg):  # keywords shared by the Monte Carlo diagnostics
    return dict(seed=cfg["rng"]["seed"], h=cfg["scheme"]["h"])


# Runners: (cfg, basis, coeffs, out_dir[, basis_b]) ->
# (results.csv rows after the experiment column, verdict fields).
def _lyapunov_check(cfg, basis, coeffs, out_dir):
    rep = check_lyapunov_sufficient(basis, coeffs)
    return [(0, 0.0, rep.I, 0.0, 0.0)], dict(
        passed=rep.passed, margin=rep.margin, I=rep.I, kappa=rep.kappa,
        details=rep.details)


def _kernel_error(cfg, basis, coeffs, out_dir):
    component = _component(cfg, basis)
    rows, kcsv, max_rel = [], [], 0.0
    for which in (DRIFT, DIFFUSION):
        for t in map(float, cfg["t_grid"]):
            closed = basis.closed_forms.get(which)
            exact = closed(t) if closed else eval_kernel(basis, which, t)
            rec = reconstructed_kernel(component, which, t)
            rel = (np.linalg.norm(rec - exact)
                   / max(np.linalg.norm(exact), 1e-300))
            max_rel = max(max_rel, rel)
            kcsv.append((which, t, float(exact.ravel()[0]),
                         float(rec.ravel()[0]), float(rel)))
            rows.append((component.size, t, float(rel), 0.0, 0.0))
    _write_rows(out_dir / "kernel_error.csv",
                "which,t,exact,reconstructed,rel_err", kcsv)
    print(f"kernel_error: max relative error {max_rel:.3e}")
    return rows, dict(max_rel_err=max_rel, k=component.size,
                      theta_max=component.theta_max)


def _simulate(cfg, basis, coeffs, out_dir):
    component = _component(cfg, basis)
    h, T = cfg["scheme"]["h"], cfg["scheme"]["T"]
    plans = make_plans(cfg["rng"]["seed"], 1, h, T, d=coeffs.d)
    # X at every step, and no state but the last: path.csv holds only X
    times, X, _ = simulate_lifted_ensemble(
        component, coeffs, _initial(cfg, component)[0], plans,
        record_times=np.arange(plans.n_steps + 1) * h)
    _write_rows(out_dir / "path.csv",
                "t," + ",".join(f"X_{i+1}" for i in range(component.n)),
                [(float(t),) + tuple(map(float, x))
                 for t, x in zip(times, X[:, 0])])
    final = X[-1, 0]
    return [(component.size, T, float(final[0]), 0.0, 0.0)], dict(
        final_X=[float(v) for v in final])


def _coupling(cfg, basis, coeffs, out_dir):
    given = {k: v for k, v in cfg["coupling"].items() if v is not None}
    lam = given.pop("lam", None)
    unpaired = sorted(given.keys() & {"delta", "L"})
    if unpaired and "m" not in given:
        raise ConfigError(" and ".join(f"coupling.{k}" for k in unpaired)
                          + " need coupling.m: certification chooses m, "
                          "delta and L together")
    component = _component(cfg, basis)
    try:  # the square of a Lipschitz constant near the float range raises
        consts = (compute_coupling_constants(component, coeffs, **given)
                  if "m" in given else
                  find_certified_constants(component, coeffs, **given))
    except OverflowError:
        raise ConfigError(
            f"coefficients: the coupling constants overflow at C_bLip = "
            f"{coeffs.C_bLip!r}, C_sLip = {coeffs.C_sLip!r}") from None
    if consts is None:
        raise ConfigError("no certified coupling constants found")
    lam = consts.lam if lam is None else lam
    table = build_phi_coupling(component, consts.m, consts.delta,
                               consts.L, min(consts.R, 1e300))
    psi = build_psi_lyapunov(component, consts.m)
    y1, y2 = _initial(cfg, component)
    plans = make_plans(cfg["rng"]["seed"], cfg["rng"]["trajectories"],
                       cfg["scheme"]["h"], cfg["scheme"]["T"], d=coeffs.d)
    run = cpl.simulate_coupled_pair(component, coeffs, table, lam, y1, y2,
                                    plans)
    rep = cpl.contraction_report(run, inf_support(basis), lam=lam,
                                 c_ue=coeffs.C_UE or 1.0)
    rows = [(component.size, float(t), float(mu), float(se), float(env))
            for t, mu, se, env in zip(run.times, run.mean_dist,
                                      run.stderr_dist, rep.envelope)]
    # d_{Phi,Psi} at both ends of the horizon: its ratio is the Harris
    # contraction factor the coupling achieves by time T
    d0 = float(distance_dphipsi(y1, y2, component, table, psi))
    d_mean, d_se = map(float, cpl.mean_stderr(distance_dphipsi(
        run.y_final, run.yh_final, component, table, psi)))
    return rows, dict(epsilon=consts.epsilon, certified=consts.certified,
                      lam=lam, r_hat=rep.r_hat,
                      bounds={"contraction": rep.contraction_ok,
                              "kl": rep.kl_ok},
                      kl_energy=rep.mean_energy_final,
                      kl_budget=rep.kl_budget,
                      d_phipsi={"t0": d0, "T": d_mean, "T_stderr": d_se,
                                "ratio": d_mean / d0 if d0 > 0.0 else None})


def _ergodic(cfg, basis, coeffs, out_dir):
    component = _component(cfg, basis)
    times = [t for t in cfg["t_grid"] if 0 < t <= cfg["scheme"]["T"]]
    if not times:
        raise ConfigError("t_grid has no entry in (0, scheme.T]")
    fit = erg.ergodic_decay(component, coeffs, *_initial(cfg, component),
                            cfg["rng"]["trajectories"], times, **_mc(cfg))
    rows = [(component.size, float(t), float(v), 0.0, 0.0)
            for t, v in zip(fit.times, fit.w1)]
    return rows, dict(r_hat=fit.r_hat, intercept=fit.intercept,
                      r_stderr=fit.r_stderr)


def _stationarity(cfg, basis, coeffs, out_dir):
    component = _component(cfg, basis)
    res = erg.stationarity_test(component, coeffs, cfg["burn_in"],
                                cfg["lags"], cfg["rng"]["trajectories"],
                                _initial(cfg, component)[0], **_mc(cfg))
    rows = [(component.size, float(lag), float(v), 0.0, float(fl))
            for lag, v, fl in zip(res.lags, res.w1, res.floors)]
    return rows, dict(passed=res.all_pass,
                      per_lag=[bool(p) for p in res.passed])


def _lift_independence(cfg, basis, coeffs, out_dir, basis_b):
    d, T = cfg["discretization"], cfg["scheme"]["T"]
    res = erg.lift_independence_test(basis, basis_b, coeffs, T,
                                     cfg["rng"]["trajectories"], k=d["k"],
                                     theta_max=d["theta_max"], **_mc(cfg))
    return [(d["k"], T, res.w1, 0.0, res.floor)], dict(
        w1=res.w1, floor=res.floor, eps_bias=res.eps_bias,
        passed=res.passed)


def _ipm_convergence(cfg, basis, coeffs, out_dir):
    trend = erg.ipm_convergence(basis, coeffs, cfg["ladder"],
                                cfg["scheme"]["T"], cfg["rng"]["trajectories"],
                                **_mc(cfg))
    rows = [(int(kk), float(ee), float(vv), 0.0, trend.finest_floor)
            for kk, ee, vv in zip(trend.ks, trend.eps, trend.w1)]
    return rows, dict(spearman=trend.spearman,
                      trend_positive=trend.trend_positive,
                      finest_floor=trend.finest_floor)


# experiment -> (top-level keys it reads besides COMMON, runner)
EXPERIMENTS = {
    "kernel_error": (("discretization", "t_grid"), _kernel_error),
    "simulate": (("discretization", "scheme", "initial"), _simulate),
    "coupling": (("discretization", "scheme", "initial", "coupling"),
                 _coupling),
    "ergodic": (("discretization", "scheme", "initial", "t_grid"), _ergodic),
    "stationarity": (("discretization", "scheme", "initial", "burn_in",
                      "lags"), _stationarity),
    "lift_independence": (("basis_b", "discretization", "scheme"),
                          _lift_independence),
    "ipm_convergence": (("scheme", "ladder"), _ipm_convergence),
    "lyapunov_check": ((), _lyapunov_check),
}


def run_experiment(cfg, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True, default=float) + "\n")
    bases, coeffs = _build_inputs(cfg)
    exp = cfg["experiment"]
    rows, fields = EXPERIMENTS[exp][1](cfg, coeffs=coeffs, out_dir=out_dir,
                                       **bases)
    _write_rows(out_dir / "results.csv",
                "experiment,k,t_or_lag,estimate,stderr,floor",
                [(exp,) + row for row in rows])
    verdict = {"experiment": exp, "seed": cfg["rng"]["seed"], **fields}
    (out_dir / "verdict.json").write_text(json.dumps(
        _json_null(verdict), indent=2, sort_keys=True, default=float,
        allow_nan=False) + "\n")
    (out_dir / "run_meta.json").write_text(json.dumps(_run_meta()) + "\n")
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
            p.add_argument("--threads", type=int, default=1,
                           help="accepted and ignored")
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(json.loads(Path(args.config).read_text()))
        for spec in (cfg["basis"], cfg.get("basis_b", {})):
            if "file" in spec:  # relative to its config, recorded absolute
                spec["file"] = str(Path(args.config).absolute().parent
                                   / spec["file"])
        if args.command == "validate":
            _build_inputs(cfg)  # all of run but discretizing and simulating
            print("config ok")
            return 0
        if args.seed_override is not None:
            cfg["rng"]["seed"] = _resolve("rng.seed", args.seed_override, 0)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
    try:
        run_experiment(cfg, out_dir)
    except FloatingPointError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ConfigError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        msg = "out of memory"
        if "scheme" in cfg:  # only the runs that step read it
            h, T = cfg["scheme"]["h"], cfg["scheme"]["T"]
            msg += (f" for scheme.T = {T!r} at scheme.h = {h!r}, "
                    f"{round(T / h)} steps")
        print(f"precondition failure: {msg}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
