"""Span tracer that wraps voltlift's public entry points from outside.

The tracer replaces each target function at every place a voltlift module
binds it (``cli``, ``ergodics`` and ``coupling`` import functions by name),
records one span per call on a per-thread stack, and puts every original
back when its ``with`` block ends.  Spans stay in memory until ``spans()``
is read.

``PhaseTimer`` is the light variant used by untraced runs: it times only
the outermost ``build_component`` / ``epsilon_k`` calls, which is the
benchmark's ``setup_s`` phase.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute path) of every wrapped callable.  Some feed no metric
# directly; they are spans so that the self time of their callers (the
# CLI, build_component, the coupled pair) excludes them.
SPAN_TARGETS = (
    ("voltlift.cli", "run_experiment"),
    ("voltlift.kernelbasis", "make_expsum_basis"),
    ("voltlift.kernelbasis", "make_tempered_fractional_basis"),
    ("voltlift.kernelbasis", "basis_from_json"),
    ("voltlift.kernelbasis", "eval_kernel"),
    ("voltlift.kernelbasis", "inf_support"),
    ("voltlift.quad", "integrate_density"),
    ("voltlift.quad", "diverges_at_lower"),
    ("voltlift.discretize", "build_component"),
    ("voltlift.discretize", "auto_theta_max"),
    ("voltlift.discretize", "epsilon_k"),
    ("voltlift.dynamics", "make_preset"),
    ("voltlift.dynamics", "make_plans"),
    ("voltlift.dynamics", "NoisePlan.increments"),
    ("voltlift.dynamics", "lifted_step"),
    ("voltlift.dynamics", "simulate_lifted"),
    ("voltlift.dynamics", "simulate_lifted_ensemble"),
    ("voltlift.weights", "mu_sigma_phi"),
    ("voltlift.weights", "weighted_norms"),
    ("voltlift.weights", "compute_coupling_constants"),
    ("voltlift.weights", "find_certified_constants"),
    ("voltlift.weights", "build_phi_coupling"),
    ("voltlift.weights", "check_lyapunov_sufficient"),
    ("voltlift.coupling", "simulate_coupled_pair"),
    ("voltlift.coupling", "_coupled_step"),
    ("voltlift.coupling", "contraction_report"),
    ("voltlift.ergodics", "run_ensemble"),
    ("voltlift.ergodics", "wasserstein1_1d"),
    ("voltlift.ergodics", "sliced_w1"),
    ("voltlift.ergodics", "noise_floor"),
    ("voltlift.ergodics", "ergodic_decay"),
    ("voltlift.ergodics", "ipm_convergence"),
)

# Basis factories whose returned segments get counting rho/Mb/Ms callables.
BASIS_FACTORIES = {"make_expsum_basis", "make_tempered_fractional_basis",
                   "basis_from_json"}


def _work_normals(args, kwargs):
    plan = args[0]
    return plan.n_steps * plan.d


def _work_factor_steps(args, kwargs):
    component, z = args[0], args[2]
    return z.size // component.n


def _work_coupled_factor_steps(args, kwargs):
    # the coupled pair advances two lifted states, y and yhat
    component, y = args[0], args[4]
    return 2 * (y.size // component.n)


# Work done by one call, computed from the call's arguments.
WORK = {
    "dynamics.NoisePlan.increments": _work_normals,
    "dynamics.lifted_step": _work_factor_steps,
    "coupling._coupled_step": _work_coupled_factor_steps,
}


def _voltlift_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "voltlift"
                                  or name.startswith("voltlift."))]


def _resolve(module, path):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Replace a function at every voltlift binding and undo it later."""

    def __init__(self):
        self._undo = []

    def patch(self, module, path, make_wrapper):
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            sites = [owner]
        else:
            sites = _voltlift_modules()
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapper)
                    self._undo.append((site, name, original))

    def restore(self):
        while self._undo:
            site, name, original = self._undo.pop()
            setattr(site, name, original)


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: str
    start: float          # wall clock, time.perf_counter
    end: float
    cpu_s: float          # CPU time of this thread inside the span
    self_s: float         # cpu_s minus the CPU time of child spans
    nested: bool          # a span of the same name is open below it
    work: int | None


class _ThreadState:
    def __init__(self, name):
        self.name = name
        self.stack = []       # open frames: [span id, name, child CPU s]
        self.spans = []
        self.density_evals = 0
        self.noise_buffer_bytes = 0


class Tracer:
    """Per-thread span stacks around SPAN_TARGETS, plus density counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count()
        self._patcher = Patcher()

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def __enter__(self):
        import voltlift.cli  # noqa: F401  (loads every voltlift module)
        for module, path in SPAN_TARGETS:
            name = module.removeprefix("voltlift.") + "." + path
            wrap = self._span_wrapper(name, WORK.get(name),
                                      path in BASIS_FACTORIES)
            self._patcher.patch(module, path, wrap)
        self._patcher.patch("voltlift.dynamics", "_stacked_increments",
                            self._noise_buffer_wrapper)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def _span_wrapper(self, name, work, counts_density):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                st = tracer._state()
                parent = st.stack[-1][0] if st.stack else None
                nested = any(f[1] == name for f in st.stack)
                frame = [next(tracer._ids), name, 0.0]
                st.stack.append(frame)
                t0, c0 = time.perf_counter(), time.thread_time()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    cpu = time.thread_time() - c0
                    t1 = time.perf_counter()
                    st.stack.pop()
                    if st.stack:
                        st.stack[-1][2] += cpu
                    st.spans.append(Span(
                        frame[0], parent, name, st.name, t0, t1, cpu,
                        cpu - frame[2], nested,
                        work(args, kwargs) if work else None))
                return tracer._count_density(out) if counts_density else out
            return span
        return make

    def _noise_buffer_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def stacked(plans):
            st = tracer._state()
            st.noise_buffer_bytes = max(
                st.noise_buffer_bytes,
                len(plans) * plans[0].n_steps * plans[0].d * 8)
            return fn(plans)
        return stacked

    def _count_density(self, basis):
        tracer = self

        def counted(fn):
            @functools.wraps(fn)
            def call(theta):
                tracer._state().density_evals += 1
                return fn(theta)
            return call

        segs = tuple(dataclasses.replace(s, rho=counted(s.rho),
                                         Mb=counted(s.Mb), Ms=counted(s.Ms))
                     for s in basis.segments)
        return dataclasses.replace(basis, segments=segs)

    def spans(self):
        with self._lock:
            return [s for st in self._threads for s in st.spans]

    def density_evals(self):
        with self._lock:
            return sum(st.density_evals for st in self._threads)

    def noise_buffer_bytes(self):
        with self._lock:
            return max((st.noise_buffer_bytes for st in self._threads),
                       default=0)


def layer_metrics(spans, density_evals, noise_buffer_bytes, threads):
    """Per-layer metrics of one traced run.

    Span seconds are thread CPU seconds summed over threads, so time a pool
    worker spends waiting for the interpreter lock is not charged to the
    layer it waits in.  ``ergodics.run_ensemble.wall_s`` is wall time.
    """
    calls = Counter()
    self_s = defaultdict(float)
    outer_s = defaultdict(float)
    wall_s = defaultdict(float)
    work = defaultdict(int)
    ids = {s.id: s for s in spans}
    probes = 0
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        if not s.nested:
            outer_s[s.name] += s.cpu_s
            wall_s[s.name] += s.end - s.start
        if s.work is not None:
            work[s.name] += s.work
        parent = ids.get(s.parent)
        if (s.name == "discretize.build_component" and parent is not None
                and parent.name == "discretize.auto_theta_max"):
            probes += 1

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ens_wall = wall_s["ergodics.run_ensemble"]
    normals = work["dynamics.NoisePlan.increments"]
    noise_s = outer_s["dynamics.NoisePlan.increments"]
    return {
        "cli.run_experiment.self_s": self_s["cli.run_experiment"],
        "kernelbasis.density_evals": density_evals,
        "quad.integrate_density.calls": calls["quad.integrate_density"],
        "quad.integrate_density.self_s": self_s["quad.integrate_density"],
        "discretize.auto_theta_max.s": outer_s["discretize.auto_theta_max"],
        "discretize.auto_theta_max.probes": probes,
        "discretize.epsilon_k.calls": calls["discretize.epsilon_k"],
        "discretize.epsilon_k.s": outer_s["discretize.epsilon_k"],
        "discretize.build_component.self_s":
            self_s["discretize.build_component"],
        "dynamics.noise.normals": normals,
        "dynamics.noise.s": noise_s,
        "dynamics.noise.ns_per_normal": per(noise_s, normals, 1e9),
        "dynamics.noise.buffer_mb": noise_buffer_bytes / 1e6,
        "dynamics.lifted_step.calls": calls["dynamics.lifted_step"],
        "dynamics.lifted_step.self_s": self_s["dynamics.lifted_step"],
        "dynamics.lifted_step.ns_per_factor_step": per(
            self_s["dynamics.lifted_step"], work["dynamics.lifted_step"], 1e9),
        "dynamics.simulate_lifted_ensemble.self_s":
            self_s["dynamics.simulate_lifted_ensemble"],
        "coupling.simulate_coupled_pair.self_s":
            self_s["coupling.simulate_coupled_pair"],
        "coupling.step.ns_per_factor_step": per(
            outer_s["coupling._coupled_step"],
            work["coupling._coupled_step"], 1e9),
        "weights.mu_sigma_phi.self_s": self_s["weights.mu_sigma_phi"],
        "weights.weighted_norms.self_s": self_s["weights.weighted_norms"],
        "weights.compute_coupling_constants.calls":
            calls["weights.compute_coupling_constants"],
        "ergodics.run_ensemble.wall_s": ens_wall,
        # worker busy time is the CPU time inside simulate_lifted_ensemble
        "ergodics.pool.utilization": per(
            outer_s["dynamics.simulate_lifted_ensemble"], ens_wall * threads),
        "ergodics.wasserstein1_1d.calls": calls["ergodics.wasserstein1_1d"],
        "ergodics.wasserstein1_1d.self_s": self_s["ergodics.wasserstein1_1d"],
        "ergodics.sliced_w1.self_s": self_s["ergodics.sliced_w1"],
        "ergodics.noise_floor.s": outer_s["ergodics.noise_floor"],
    }


class PhaseTimer:
    """Total time inside the outermost build_component / epsilon_k calls."""

    NAMES = ("build_component", "epsilon_k")

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._patcher = Patcher()

    def __enter__(self):
        import voltlift.cli  # noqa: F401
        for name in self.NAMES:
            self._patcher.patch("voltlift.discretize", name, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def _wrap(self, fn):
        timer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if timer._depth:
                return fn(*args, **kwargs)
            timer._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.seconds += time.perf_counter() - t0
                timer._depth -= 1
        return timed
