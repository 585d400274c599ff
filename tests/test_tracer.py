"""perfbench/tracer.py, loaded from its path, around toy runs through
cli.main: every name it wraps must still resolve, and its wrapper of the
noise source must still read the batch."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from voltlift import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

TOYS = {
    # ergodic_2d's kind of run: one atom at n = 2
    "ergodic": {
        "experiment": "ergodic",
        "basis": {"kind": "expsum", "terms": [
            {"rate": 1.0, "Mb": [[1.0, 0.0], [0.0, 1.0]],
             "Ms": [[1.0, 0.3], [0.3, 1.0]]}]},
        "coefficients": {"preset": "tanh", "n": 2, "scale": 0.5,
                         "sigma0": 1.0},
        "scheme": {"h": 0.05, "T": 1.0},
        "t_grid": [0.5, 1.0],
        "rng": {"seed": 3, "trajectories": 64},
    },
    # coupling_frac's: the coupled pair on a tempered fractional lift
    "coupling": {
        "experiment": "coupling",
        "basis": {"kind": "tempered_fractional", "alpha_b": 0.5,
                  "alpha_s": 0.75, "kappa_b": 1.0, "kappa_s": 1.0},
        "coefficients": {"preset": "tanh", "scale": 0.1, "sigma0": 1.0},
        "discretization": {"k": 4, "theta_max": 64.0},
        "scheme": {"h": 0.05, "T": 0.5},
        "rng": {"seed": 3, "trajectories": 16},
    },
}


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(TOYS))
def test_a_traced_toy_run_exits_0_with_every_span_target(tmp_path,
                                                         monkeypatch, name):
    tracer = load_tracer(monkeypatch)
    targets = [tracer._resolve(module, path)
               for module, path in tracer.SPAN_TARGETS]
    before = [vars(owner)[attr] for owner, attr in targets]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TOYS[name]))
    with tracer.Tracer() as tr:
        rc = cli.main(["run", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
    assert rc == 0
    assert [vars(owner)[attr] for owner, attr in targets] == before
    spans = tr.spans()
    assert {"cli.run_experiment", "dynamics.make_plans",
            "dynamics.lifted_step"} <= {s.name for s in spans}
    assert tr.noise_buffer_bytes() > 0  # the noise source's wrapper ran
    metrics = tracer.layer_metrics(spans, tr.density_evals(),
                                   tr.noise_buffer_bytes(), 1)
    assert metrics["dynamics.lifted_step.calls"] > 0
