"""Self-test of the benchmark: metric derivations and tracer hygiene.

Run from the repository root (about 15 s):

    python3 perfbench/selftest.py

Each workload runs once in this process on a tiny copy of its config,
under the tracer.  The factor-step and noise counts the benchmark derives
from the config must equal what the tracer counted at the step and noise
entry points, and after the traced run every voltlift binding must be the
original object again.  The end-to-end times must be scaled by the host
probes around each run.
"""

import copy
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import voltlift.cli as cli  # noqa: E402
from voltlift import dynamics  # noqa: E402

WORK = ROOT / ".bench_build" / "selftest"


def tiny(name):
    cfg = copy.deepcopy(workloads.CONFIGS[name])
    cfg["rng"]["trajectories"] = 40
    if name == "frac_ladder":
        cfg["ladder"] = [4, 8, 12]
        cfg["scheme"]["T"] = 0.4
    elif name == "ergodic_2d":
        cfg["t_grid"] = [0.1, 0.2, 0.3]
        cfg["scheme"]["T"] = 0.3
    else:
        cfg["discretization"]["k"] = 4
        cfg["scheme"]["T"] = 0.3
    return cfg


def bindings():
    """Identity of every public or private attribute of every voltlift
    module and of NoisePlan (dunder bookkeeping such as the warnings
    registry excluded), to compare before and after patching."""
    snap = {}
    for owner in tracer._voltlift_modules() + [dynamics.NoisePlan]:
        for k, v in vars(owner).items():
            if not k.startswith("__"):
                snap[(owner.__name__, k)] = id(v)
    return snap


def run_traced(name, cfg):
    out = WORK / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(cli.json.dumps(cfg))
    with tracer.Tracer() as tr:
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                       "--seed-override", "3", "--threads", "2"])
    rows, verdict = workloads.read_results(out)
    return rc, rows, tr


class Derivations(unittest.TestCase):
    """Counts derived from configs against counts seen by the tracer."""

    def check(self, name, ensembles, chunked):
        before = bindings()
        cfg = tiny(name)
        rc, rows, tr = run_traced(name, cfg)
        self.assertEqual(rc, 0)
        self.assertEqual(bindings(), before, "tracer left voltlift patched")

        spans = tr.spans()
        stepped = sum(s.work for s in spans
                      if s.name in ("dynamics.lifted_step",
                                    "coupling._coupled_step"))
        self.assertEqual(workloads.factor_steps(name, cfg, rows), stepped)

        n_traj = cfg["rng"]["trajectories"]
        steps = round(cfg["scheme"]["T"] / cfg["scheme"]["h"])
        d = cli.build_coefficients(cfg["coefficients"]).d
        metrics = tracer.layer_metrics(spans, tr.density_evals(),
                                       tr.noise_buffer_bytes(), 2)
        self.assertEqual(metrics["dynamics.noise.normals"],
                         ensembles * n_traj * steps * d)
        rows_per_buffer = min(n_traj, 1024) if chunked else n_traj
        self.assertAlmostEqual(metrics["dynamics.noise.buffer_mb"],
                               rows_per_buffer * steps * d * 8 / 1e6)

        # self times telescope: per thread they add up to the CPU time of
        # that thread's root spans
        for thread in {s.thread for s in spans}:
            mine = [s for s in spans if s.thread == thread]
            roots = sum(s.cpu_s for s in mine if s.parent is None)
            self.assertAlmostEqual(sum(s.self_s for s in mine), roots,
                                   places=9)
        return metrics, spans

    def test_frac_ladder(self):
        metrics, _ = self.check("frac_ladder", ensembles=3, chunked=True)
        self.assertGreater(metrics["kernelbasis.density_evals"], 0)
        self.assertGreater(metrics["discretize.auto_theta_max.probes"], 0)
        self.assertEqual(metrics["discretize.epsilon_k.calls"],
                         metrics["discretize.auto_theta_max.probes"] + 3)

    def test_ergodic_2d(self):
        metrics, _ = self.check("ergodic_2d", ensembles=2, chunked=True)
        self.assertEqual(metrics["kernelbasis.density_evals"], 0)
        self.assertEqual(metrics["quad.integrate_density.calls"], 0)

    def test_coupling_frac(self):
        metrics, _ = self.check("coupling_frac", ensembles=1, chunked=False)
        self.assertEqual(metrics["dynamics.lifted_step.calls"], 0)
        self.assertGreater(metrics["weights.compute_coupling_constants.calls"],
                           0)


class Scaling(unittest.TestCase):

    def test_end_to_end_times_scale_by_host_probe(self):
        base = {"trace": 0, "sha256": "", "peak_rss_mb": 100.0,
                "factor_steps": 600}
        slow = dict(base, wall_s=6.0, setup_s=2.0,
                    host_s=2 * run.PROBE_NOMINAL_S)
        nominal = dict(base, wall_s=3.0, setup_s=1.0,
                       host_s=run.PROBE_NOMINAL_S)
        for runs in ([slow], [nominal], [slow, nominal, slow]):
            self.assertEqual(run.end_to_end(runs), {
                "wall_s": 3.0, "setup_s": 1.0, "factor_steps_per_s": 300.0,
                "peak_rss_mb": 100.0})


class Hygiene(unittest.TestCase):

    def test_phase_timer_restores_and_times_outermost_calls(self):
        before = bindings()
        cfg = tiny("frac_ladder")
        out = WORK / "phase"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        (out / "config.json").write_text(cli.json.dumps(cfg))
        with tracer.PhaseTimer() as phase:
            rc = cli.main(["run", "--config", str(out / "config.json"),
                           "--out", str(out), "--threads", "1"])
        self.assertEqual(rc, 0)
        self.assertGreater(phase.seconds, 0.0)
        self.assertEqual(bindings(), before)

    def test_checks_reject_wrong_outputs(self):
        frac = [{"k": "4", "t_or_lag": "3.5", "estimate": "0.1"},
                {"k": "8", "t_or_lag": "2.8", "estimate": "0.09"}]
        good = {"trend_positive": True, "finest_floor": 0.04}
        self.assertEqual(workloads.check_output("frac_ladder", frac, good), [])
        flat = [dict(frac[0]), dict(frac[1], t_or_lag="3.5")]
        self.assertTrue(workloads.check_output("frac_ladder", flat, good))
        self.assertTrue(workloads.check_output(
            "frac_ladder", frac, dict(good, finest_floor=0.2)))
        erg = [{"estimate": "0.4"}, {"estimate": "0.02"}]
        self.assertEqual(workloads.check_output(
            "ergodic_2d", erg, {"r_hat": 0.1}), [])
        self.assertTrue(workloads.check_output(
            "ergodic_2d", erg, {"r_hat": float("nan")}))
        self.assertTrue(workloads.check_output(
            "ergodic_2d", erg[::-1], {"r_hat": 0.1}))
        ok = {"certified": True, "bounds": {"contraction": True, "kl": True}}
        self.assertEqual(workloads.check_output("coupling_frac", [], ok), [])
        self.assertEqual(workloads.check_output(
            "coupling_frac", [], dict(ok, bounds={"contraction": True,
                                                  "kl": False})),
            ["bounds.kl"])

    def test_refuses_directory_without_checkout(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "ergodic_2d", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    WORK.mkdir(parents=True, exist_ok=True)
    unittest.main()
