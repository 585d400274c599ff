"""Time the coupled pair in one process and in two, around the break-even.

simulate_coupled_pair hands the later lane blocks of a batch to a child
process when each part holds at least coupling.FORK_MIN_PART_ENTRIES state
entries (trajectories x I x n of one copy).  This script times the call alone, one process against two, in
alternating runs: one-factor batches on configs/coupling.json's lift (600
steps) and 16-factor batches on the tempered-fractional lift of the
coupling_frac benchmark workload (2000 steps).  It checks that both sides
give the same bits and prints the median of each side and the gain.

    PYTHONPATH=src python scripts/coupled_pair_break_even.py --repeats 7

A host with one usable CPU steps both sides in one process.
"""

import argparse
import math
import os
import statistics
import time

import numpy as np

from voltlift import coupling
from voltlift.discretize import build_component
from voltlift.dynamics import make_plans, make_preset
from voltlift.kernelbasis import (make_expsum_basis,
                                  make_tempered_fractional_basis)
from voltlift.weights import build_phi_coupling, find_certified_constants


def pair_inputs(factors):
    """(component, coefficients, table, lam, y1, y2, steps) of the one-atom
    lift or of the 16-factor tempered-fractional lift."""
    if factors == 1:
        basis = make_expsum_basis([(1.0, np.eye(1), np.eye(1))])
        theta_max, steps = "auto", 600
    else:
        basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
        theta_max, steps = 64.0, 2000
    comp = build_component(basis, factors, theta_max)
    coeffs = make_preset("tanh", scale=0.1, sigma0=1.0)
    consts = find_certified_constants(comp, coeffs)
    table = build_phi_coupling(comp, consts.m, consts.delta, consts.L,
                               min(consts.R, 1e300))
    return (comp, coeffs, table, consts.lam, np.ones((comp.size, comp.n)),
            np.zeros((comp.size, comp.n)), steps)


def timed(fork_min_part_entries, args):
    """One simulate_coupled_pair(*args) call with the given threshold: its
    wall time and run."""
    saved, coupling.FORK_MIN_PART_ENTRIES = (coupling.FORK_MIN_PART_ENTRIES,
                                             fork_min_part_entries)
    try:
        start = time.perf_counter()
        run = coupling.simulate_coupled_pair(*args)
        return time.perf_counter() - start, run
    finally:
        coupling.FORK_MIN_PART_ENTRIES = saved


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--one-factor", type=int, nargs="*",
                    default=[1024, 2048, 4096],
                    help="trajectories of the one-factor batches")
    ap.add_argument("--sixteen-factor", type=int, nargs="*",
                    default=[512, 1024, 2048],
                    help="trajectories of the 16-factor batches")
    ap.add_argument("--steps", type=int, default=None,
                    help="steps of every batch (default 600 for one "
                         "factor, 2000 for 16)")
    ap.add_argument("--repeats", type=int, default=7,
                    help="alternating pairs of runs per batch")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        print("one usable CPU, or no sched_getaffinity: both sides step in "
              "one process")
    print("| batch | entries | steps | one process | two processes | gain "
          "| runs |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for factors, batches in ((1, args.one_factor),
                             (16, args.sixteen_factor)):
        if not batches:
            continue
        *inputs, steps = pair_inputs(factors)
        steps = steps if args.steps is None else args.steps
        h = 0.01
        for n_traj in batches:
            plans = make_plans(args.seed, n_traj, h, steps * h, d=1)
            call = (*inputs, plans)
            times = {math.inf: [], 0: []}  # never fork, fork when it can
            runs = {}
            for _ in range(args.repeats):
                for threshold in times:
                    seconds, runs[threshold] = timed(threshold, call)
                    times[threshold].append(seconds)
            for name in ("mean_dist", "stderr_dist", "energy", "y_final",
                         "yh_final"):
                np.testing.assert_array_equal(getattr(runs[0], name),
                                              getattr(runs[math.inf], name),
                                              name)
            one, two = (statistics.median(times[t]) for t in times)
            print(f"| {n_traj} × {factors} factor{'s' * (factors > 1)} "
                  f"| {n_traj * factors} | {plans[0].n_steps} | {one:.3f} s "
                  f"| {two:.3f} s | {100 * (one - two) / one:+.1f}% "
                  f"| {args.repeats} |")


if __name__ == "__main__":
    main()
