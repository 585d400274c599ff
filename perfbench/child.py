"""Run one `voltlift run` in this fresh process and record its timings.

Usage: python3 perfbench/child.py SRC CONFIG OUT SEED THREADS TRACE

SRC is the directory holding the ``voltlift`` package.  With TRACE 0 only
the set-up phase is timed (PhaseTimer); with TRACE 1 every public entry
point is wrapped (Tracer) and the spans go to OUT/spans.json.  The result
is written to OUT/child.json.
"""

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import tracer


def main(argv):
    src, config, out, seed, threads, trace = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import voltlift.cli as cli
    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    probe = tracer.Tracer() if trace == "1" else tracer.PhaseTimer()
    with probe:
        t1 = time.perf_counter()
        rc = cli.main(["run", "--config", config, "--out", out,
                       "--seed-override", seed, "--threads", threads])
        run_s = time.perf_counter() - t1
    result = {
        "rc": rc,
        "wall_s": import_s + run_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if trace == "1":
        spans = probe.spans()
        result["layers"] = tracer.layer_metrics(
            spans, probe.density_evals(), probe.noise_buffer_bytes(),
            int(threads))
        Path(out, "spans.json").write_text(json.dumps(
            [dataclasses.astuple(s) for s in spans]))
    else:
        result["setup_s"] = import_s + probe.seconds
    Path(out, "child.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
