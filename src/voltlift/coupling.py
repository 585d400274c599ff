"""Generalized coupling at the lifted finite-dimensional level.

Two copies of the lifted SDE are driven by the same Brownian increments; the
second carries an extra drift lam * M_sigma * mu_{sigma,Phi}[Y - Yhat] whose
Girsanov cost is recorded as the integrated control energy.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from contextlib import closing, nullcontext
from dataclasses import dataclass

import numpy as np

from .dynamics import (NOISE_LANES, _batch, _by_trajectory, _check_finite,
                       _check_plans, _initial_states, _stacked_increments,
                       lifted_step, step_operators)
from .ergodics import decay_rate
from .weights import mu_sigma_phi, weighted_norms

# steps whose distances are held before their mean and standard error
STAT_ROWS = 16
# state entries of one copy (trajectories x I x n) that each part of a
# batch needs before a child process steps one part: with fewer, the
# per-step calls that both processes make outweigh the arithmetic a part
# takes off the other (README, "The coupled pair's second process")
FORK_MIN_PART_ENTRIES = 2048
# blocks of STAT_ROWS steps the child process may run ahead of the caller
RING_BLOCKS = 8


@dataclass(frozen=True)
class CoupledRun:
    times: np.ndarray        # (M+1,)
    mean_dist: np.ndarray    # (M+1,) ensemble mean of the Phi-distance
    stderr_dist: np.ndarray  # (M+1,) its standard error
    energy: np.ndarray       # (n_traj,) E(T) = 1/2 int_0^T |u|^2
    y_final: np.ndarray      # (n_traj, I, n) Y_T, the uncontrolled copy
    yh_final: np.ndarray     # (n_traj, I, n) Yhat_T, the controlled copy


def mean_stderr(samples):
    """Mean and standard error (ddof=1; 0 for one sample), last axis."""
    n = samples.shape[-1]
    return samples.mean(axis=-1), (samples.std(axis=-1, ddof=1) / np.sqrt(n)
                                   if n > 1 else np.zeros(samples.shape[:-1]))


def _gap(component, table, y, yh):
    """mu_{sigma,Phi}[y - yh], (n, n_traj), and |y - yh|_Phi, (n_traj,)."""
    diff = _by_trajectory(component, y - yh)
    return (mu_sigma_phi(component, table, diff).T,
            weighted_norms(component, table, diff))


def _coupled_step(component, coeffs, table, ops, y, yh, x, xh, v, dw):
    """Advance both trajectory-last copies on the shared dw (the second with
    the control drift lam * M_s v, the control block of ops.forcing); return
    them and their new _gap."""
    y, x = lifted_step(ops, coeffs, y, x, dw)
    yh, xh = lifted_step(ops, coeffs, yh, xh, dw, v)
    return (y, yh, x, xh) + _gap(component, table, y, yh)


def _control(coeffs, xh, v, lam):
    """u = lam * sigma(xh)^T (sigma sigma^T)^{-1} v for trajectory-last xh
    and v, as (n_traj, d).  Nonzero 1x1 Gram matrices are divided by, which
    gives the bits of np.linalg.solve without its per-call cost."""
    s = coeffs.sigma(xh.T)
    gram = np.einsum("...pd,...qd->...pq", s, s)
    if gram.shape[-1] == 1 and np.all(gram):
        sol = v.T / gram[..., 0]
    else:
        try:
            sol = np.linalg.solve(gram, v.T[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(
                "singular diffusion Gram matrix: ellipticity violated along "
                "the path") from exc
    return lam * np.einsum("...pd,...p->...d", s, sol)


def _pair_steps(component, coeffs, table, lam, plans, y, yh):
    """Step the trajectory-last copies y, yh, one column per row of the
    _batch of plans; yield (step, dist, energy, y, yh) at step 0 and after
    every step, with the energies of the plans alone."""
    h, batch = plans[0].h, _batch(plans)
    ops = step_operators(component, h, lam, len(batch))
    x, xh = ops.observe(y), ops.observe(yh)
    v, dist = _gap(component, table, y, yh)
    energy = np.zeros(len(plans))
    yield 0, dist, energy, y, yh
    with closing(_stacked_increments(batch)) as noise:
        for step, dw in enumerate(noise, start=1):
            # left-point quadrature of the control energy
            u = _control(coeffs, xh, v, lam)[:len(plans)]
            energy += 0.5 * h * np.sum(u ** 2, axis=-1)
            y, yh, x, xh, v, dist = _coupled_step(
                component, coeffs, table, ops, y, yh, x, xh, v, dw)
            _check_finite("coupled", step, batch, y, yh, observed=(x, xh))
            yield step, dist, energy, y, yh


def _fork_row(plans, size):
    """The row of the batch from which a child process steps it: the
    lane-block boundary nearest the middle that leaves each part at least
    FORK_MIN_PART_ENTRIES state entries (size a trajectory) and two
    trajectories (a lone one would be stepped twice, see _batch, in a part
    whose states hold it once).  None, and the calling process steps every
    row, when there is no such boundary, on one usable CPU or on a platform
    without sched_getaffinity (Windows, which has no fork, and macOS)."""
    if (len(plans) * size < 2 * FORK_MIN_PART_ENTRIES
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return None
    least = max(2, -(-FORK_MIN_PART_ENTRIES // size))  # rows of a part
    blocks = [(p.seed, p.trajectory_index // NOISE_LANES) for p in plans]
    starts = [r for r in range(least, len(plans) - least + 1)
              if blocks[r] != blocks[r - 1]]
    return min(starts, key=lambda r: abs(2 * r - len(plans)), default=None)


def _pickled_error(step, exc):
    """(step, exc) pickled, if it loads again: an error whose constructor
    takes other arguments than its args, or that holds an object pickle
    cannot write, goes as a RuntimeError naming its type and text."""
    try:
        data = pickle.dumps((step, exc))
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps((step, RuntimeError(
            f"{type(exc).__qualname__} in the coupled pair's child process: "
            f"{exc}")))


class _ForkedPart:
    """The steps of the last rows of a coupled batch, run in a child process
    made by os.fork() (README, "The coupled pair's second process").  The
    child writes block b of its distances to slot b % RING_BLOCKS of a ring
    in shared anonymous memory and sends one byte; the caller copies the
    block out and, if the child has a block still to write there, sends a
    byte back that frees the slot.  At the end the child writes its
    energies and final states after the ring and sends b"d"; on an error
    it sends b"e" and the pickled (step, error).  Leaving the with block
    kills the child if it still runs and reaps it."""

    def __init__(self, steps, width, size, m):
        self.last, self.blocks, self.error = m // STAT_ROWS, 0, None
        # the ring, then the energies and final states; unmapped with the
        # last view of it
        shared = np.frombuffer(mmap.mmap(-1, 8 * width * (
            RING_BLOCKS * STAT_ROWS + 1 + 2 * size)), dtype=float)
        ring, energy, y, yh = np.split(shared, np.cumsum(
            [RING_BLOCKS * STAT_ROWS * width, width, size * width]))
        self.ring = ring.reshape(RING_BLOCKS, STAT_ROWS, width)
        self.results = (energy, y.reshape(size, width),
                        yh.reshape(size, width))
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(ready_r)
            os.close(free_w)
            self._serve(steps, ready_w, free_r)
        os.close(ready_w)
        os.close(free_r)
        self.ready, self.free = open(ready_r, "rb"), free_w

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.kill(self.pid, signal.SIGKILL)  # a child that has exited ignores it
        os.waitpid(self.pid, 0)
        self.ready.close()
        os.close(self.free)

    def _serve(self, steps, ready, free):
        """The child's side: step, write and send, then end the process."""
        step = -1
        try:
            with open(ready, "wb") as out:
                try:
                    for step, dist, *last in steps:
                        b, r = divmod(step, STAT_ROWS)
                        if r == 0 and step:
                            out.write(b"b")
                            out.flush()
                            if b >= RING_BLOCKS and not os.read(free, 1):
                                return  # the caller has gone
                        self.ring[b % RING_BLOCKS, r] = dist
                    for dst, src in zip(self.results, last):
                        dst[...] = src
                    out.write(b"bd")
                except BaseException as exc:
                    out.write(b"e" + _pickled_error(step + 1, exc))
        finally:
            os._exit(0)

    def _next(self):
        """Read the child's next message: count a block, or keep its error
        (one that ends it without a message comes after every step)."""
        kind = self.ready.read(1)
        if kind == b"b":
            self.blocks += 1
        elif kind == b"e":
            try:
                self.error = pickle.loads(self.ready.read())
            except Exception as exc:  # a message cut short
                self.error = (math.inf, RuntimeError(
                    f"the coupled pair's child process {self.pid} sent an "
                    f"unreadable error: {exc!r}"))
        elif kind != b"d":
            self.error = (math.inf, RuntimeError(
                f"the coupled pair's child process {self.pid} ended "
                "without a result"))
        return kind

    def fill(self, b, rows):
        """Copy the child's first len(rows) rows of block b into rows and
        free its slot, or raise what the child raised."""
        if self._next() != b"b":
            raise self.error[1]
        rows[...] = self.ring[b % RING_BLOCKS, :len(rows)]
        if b + RING_BLOCKS <= self.last:
            os.write(self.free, b"f")

    def finals(self):
        """The child's energies and final trajectory-last states."""
        if self._next() != b"d":
            raise self.error[1]
        return [view.copy() for view in self.results]

    def raise_first(self, at):
        """The caller failed at step at: raise the child's error if it came
        at an earlier step, which one process would have raised; on a tie
        the caller's, whose trajectories come first, stands."""
        while self.error is None and STAT_ROWS * self.blocks < at - 1:
            self._next()  # block b arrives once step 16 (b + 1) passed
        if self.error is not None and self.error[0] < at:
            raise self.error[1] from None


def simulate_coupled_pair(component, coeffs, table, lam, y1, y2, plans):
    """Coupled ensemble from initial lifted states y1, y2 (one state, or
    one per trajectory); plans is a list of NoisePlan with common (h, T).
    Step s's distances wait in row s % STAT_ROWS until their block of rows
    is full: one mean_stderr per block gives each row the bits of its own
    call.  The rows from _fork_row on are stepped in a child process, which
    fills their columns of each block (README, "The coupled pair's second
    process")."""
    if lam <= 0.0:
        raise ValueError("coupling gain lam must be positive")
    # checked here as well as in each part's _stacked_increments, so that a
    # plan that disagrees is named against the batch's first, as in one
    # process, and not against the first of the child's part
    _check_plans(plans)
    h, m, n_traj = plans[0].h, plans[0].n_steps, len(plans)
    ops = step_operators(component, h)
    y, _ = _initial_states(ops, y1, plans)
    yh, _ = _initial_states(ops, y2, plans)
    mean, stderr = np.empty(m + 1), np.empty(m + 1)
    rows = np.empty((STAT_ROWS, y.shape[1]))
    split = _fork_row(plans, len(y))
    child = None if split is None else _ForkedPart(_pair_steps(
        component, coeffs, table, lam, plans[split:], y[:, split:].copy(),
        yh[:, split:].copy()), n_traj - split, len(y), m)
    own = slice(split)  # the calling process's rows, all without a child

    def flush(b, k):  # rows[:k] hold steps STAT_ROWS * b, ..., + k - 1
        if child:
            child.fill(b, rows[:k, split:])
        block = slice(STAT_ROWS * b, STAT_ROWS * b + k)
        mean[block], stderr[block] = mean_stderr(rows[:k, :n_traj])

    with child or nullcontext():
        step = -1
        try:
            for step, dist, energy, y, yh in _pair_steps(
                    component, coeffs, table, lam, plans[own],
                    y[:, own].copy(), yh[:, own].copy()):
                b, r = divmod(step, STAT_ROWS)
                if r == 0 and step:  # the rows hold the block before
                    flush(b - 1, STAT_ROWS)
                rows[r, own] = dist
            flush(b, r + 1)
            if child:
                energy, y, yh = (np.concatenate(pair, axis=-1) for pair in
                                 zip((energy, y, yh), child.finals()))
        except Exception:
            if child:
                child.raise_first(step + 1)
            raise
    return CoupledRun(times=np.arange(m + 1) * h, mean_dist=mean,
                      stderr_dist=stderr, energy=energy,
                      y_final=_by_trajectory(component, y)[:n_traj].copy(),
                      yh_final=_by_trajectory(component, yh)[:n_traj].copy())


@dataclass(frozen=True)
class ContractionReport:
    r_hat: float | None
    contraction_ok: bool
    kl_ok: bool
    envelope: np.ndarray
    mean_energy_final: float
    kl_budget: float


def contraction_report(run, kappa, lam, c_ue=1.0):
    """Fit the decay rate of the ensemble mean distance and check the
    exp(-kappa t / 2) envelope and the Girsanov energy budget, each to
    within three standard errors.

    The budget is stated in raw coupling-weight units: the rescaled weight
    C_UE * lam * Phi turns it into one half of the squared initial distance,
    so in raw units the bound is (C_UE * lam / 2) * dist(0)^2.
    """
    mean, stderr = run.mean_dist, run.stderr_dist
    d0 = mean[0]
    envelope = np.exp(-0.5 * kappa * run.times) * d0

    # the envelope is 0 when d0 is, and no decay rate is fitted then
    contraction_ok = bool(np.all(mean <= envelope + 3.0 * stderr + 1e-30))
    rate, _ = decay_rate(run.times, mean)
    r_hat = None if d0 == 0.0 or np.isnan(rate) else float(rate)

    energy_final, energy_se = mean_stderr(run.energy)
    budget = 0.5 * c_ue * lam * d0 ** 2
    kl_ok = bool(energy_final <= budget + 3.0 * energy_se + 1e-30)
    return ContractionReport(r_hat=r_hat, contraction_ok=contraction_ok,
                             kl_ok=kl_ok, envelope=envelope,
                             mean_energy_final=float(energy_final),
                             kl_budget=float(budget))

