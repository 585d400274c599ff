"""Integrators for the lifted SDE and the direct Volterra discretization.

The lifted scheme is an exponential (exact-linear-part) Euler step; the
direct scheme is a left-point Volterra Euler with drift weights integrated
on the rule of ``quad.nodes``.  Both run a NoiseBatch on one noise
source, ``_stacked_increments``, which draws counter-based streams, one per
block of NOISE_LANES trajectories, so that paths can be cross-validated on
identical noise.  voltlift starts no thread: a large lifted ensemble or
coupled pair steps its later lane blocks in one forked child process
(``_step_in_parts``), which sends its rows back as pickles down one pipe,
with the bits of one process.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from contextlib import closing, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import Generator, Philox

from .quad import nodes

DRIFT_FACTOR_CUTOFF = 1e-8
NOISE_BLOCK_STEPS = 64
NOISE_LANES = 256
# normals of noise a batch holds at once, at most
NOISE_BUFFER = 2 ** 19
DIAGNOSTIC_STREAM = 2 ** 63
# steps a forked part reports at a time, and the coupled pair's distance
# rows per mean and standard error
STAT_ROWS = 16
# state entries (trajectories x I x n) that each part of a batch needs
# before a child process steps one part: with fewer, the per-step calls
# that both processes make outweigh the arithmetic a part takes off the
# other (README, "The second process")
FORK_MIN_PART_ENTRIES = 2048
# bytes a forked part's pipe holds: Linux's default pipe-max-size, 8
# blocks of the distances of a coupled pair's 1024-trajectory child
PIPE_BYTES = 2 ** 20


def keyed_generator(seed, stream):
    """The Philox generator keyed (seed, stream): trajectory j of a seed
    draws lane j % NOISE_LANES of stream j // NOISE_LANES (its lane block),
    a diagnostic stream DIAGNOSTIC_STREAM + k."""
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


@dataclass(frozen=True)
class CoefficientModel:
    b: object                 # (..., n) -> (..., n)
    sigma: object             # (..., n) -> (..., n, d)
    n: int = 1
    d: int = 1
    C_bLip: float | None = None
    C_sLip: float | None = None
    gamma: float | None = None     # <b(x), x> <= gamma |x|^2 + C_bLG
    C_bLG: float | None = None
    p: float | None = None         # |sigma(x)| <= C_ssub (1 + |x|^p)
    C_ssub: float | None = None
    C_UE: float | None = None      # sigma sigma^T >= I / C_UE


def truncate_coefficients(coeffs, radius):
    """Clamp arguments to the ball of the given radius before evaluating."""
    if radius <= 0.0:
        raise ValueError("truncation radius must be positive")

    def clamp(x):
        x = np.asarray(x, dtype=float)
        norm = np.linalg.norm(x, axis=-1, keepdims=True)
        scale = np.where(norm > radius, radius / np.maximum(norm, 1e-300), 1.0)
        return x * scale

    return replace(coeffs, b=lambda x: coeffs.b(clamp(x)),
                   sigma=lambda x: coeffs.sigma(clamp(x)))


@dataclass(frozen=True, eq=False)
class NoiseBatch:
    """Trajectories index of seed (a read-only int64 array, in any order),
    each n_steps steps of h in d noise dimensions: the noise of a batch
    that an integrator steps together.  batch[j] is row j's NoisePlan; a
    slice or an index array of rows is a batch again."""
    seed: int
    index: np.ndarray
    h: float
    T: float
    d: int = 1
    n_steps: int = field(init=False)

    def __post_init__(self):
        index = np.asarray(self.index)
        if not (index.ndim == 1 and index.size and index.dtype.kind in "iu"
                and index.min() >= 0 and index.max() < DIAGNOSTIC_STREAM):
            raise ValueError(f"index must be 1-d, nonempty and in [0, 2**63), "
                             f"below the diagnostic streams, got {index!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")
        if not (self.h > 0.0 and self.T >= 0.0):
            raise ValueError(f"h must be positive and T nonnegative, got "
                             f"h = {self.h!r}, T = {self.T!r}")
        object.__setattr__(self, "index", index.astype(np.int64))
        self.index.flags.writeable = False
        object.__setattr__(self, "n_steps", int(round(self.T / self.h)))

    def __len__(self):
        return len(self.index)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            return NoisePlan(self.seed, self.index[rows], self.h, self.T,
                             self.d)
        return NoiseBatch(self.seed, self.index[rows], self.h, self.T, self.d)


class NoisePlan(NoiseBatch):
    """The batch of one trajectory, with its reference increments."""

    def __init__(self, seed, trajectory_index, h, T, d=1):
        super().__init__(seed, [trajectory_index], h, T, d)

    @property
    def trajectory_index(self):
        return int(self.index[0])

    def increments(self):
        """Brownian increments, (n_steps, d): the trajectory's lane of its
        block's whole stream, drawn step-major as (n_steps, NOISE_LANES, d)."""
        block, lane = divmod(self.trajectory_index, NOISE_LANES)
        lanes = keyed_generator(self.seed, block).standard_normal(
            (self.n_steps, NOISE_LANES, self.d))
        return lanes[:, lane] * math.sqrt(self.h)


def make_plans(seed, n_traj, h, T, d=1, first_index=0):
    """The NoiseBatch of n_traj trajectories of seed from first_index on."""
    return NoiseBatch(seed, np.arange(first_index, first_index + n_traj), h,
                      T, d)


def _lane_blocks(batch):
    """Per lane block of the batch: its generator, keyed once, and the runs
    of batch rows it fills, each (rows, lanes) as two slices of one length
    where both run up by one: a run is one slice copy, where a gather of a
    block's lanes would cost as much as their draw."""
    block, lane = np.divmod(batch.index, NOISE_LANES)
    starts = np.flatnonzero((np.diff(batch.index, prepend=-1) != 1)
                            | (lane == 0)).tolist()
    runs = {}
    for start, end in zip(starts, starts[1:] + [len(batch)]):
        first = int(lane[start])
        runs.setdefault(int(block[start]), []).append(
            (slice(start, end), slice(first, first + end - start)))
    return [(keyed_generator(batch.seed, b), own) for b, own in runs.items()]


def _stacked_increments(batch):
    """Yield each step's (n_traj, d) increments for a NoiseBatch: the values
    of NoisePlan.increments.  Each lane block's stream is drawn once for
    all its rows, step-major, a few steps at a time, through one lane
    buffer.  A step block is drawn while the one before is still held, so
    two blocks and the lane buffer hold at most NOISE_BUFFER normals, flat
    in T."""
    m, d, scale = batch.n_steps, batch.d, math.sqrt(batch.h)
    blocks = _lane_blocks(batch)
    steps = max(1, min(NOISE_BLOCK_STEPS,
                       NOISE_BUFFER // ((2 * len(batch) + NOISE_LANES) * d)))
    lanes = np.empty((steps, NOISE_LANES, d))
    for start in range(0, m, steps):
        # step-major and C-ordered, so each step's rows are contiguous
        out = np.empty((min(steps, m - start), len(batch), d))
        for gen, runs in blocks:
            drawn = lanes[:len(out)]
            gen.standard_normal(out=drawn)
            drawn *= scale
            for dst, src in runs:
                out[:, dst] = drawn[:, src]
        yield from out


@dataclass(frozen=True)
class LiftedPath:
    times: np.ndarray      # (M+1,)
    states: np.ndarray     # (M+1, I, n)
    observables: np.ndarray  # (M+1, n)


@dataclass(frozen=True)
class StepOperators:
    """The exponential-Euler step of one component at one step size h, as
    operators on trajectory-last states z of shape (I*n, n_traj), row i*n+p
    holding entry p of factor i."""
    n: int
    decay: np.ndarray    # (I*n, width): exp(-a h), repeated over n and width
    forcing: np.ndarray  # (k*n, I*n): [(lam phi M_s ;) phi M_b ; decay M_s]
    w: np.ndarray        # (I,): x = sum_i w_i z_i

    def observe(self, z):
        return np.einsum("i,ipt->pt", self.w, z.reshape(len(self.w), self.n,
                                                        -1))


def step_operators(component, h, lam=None, width=1):
    """Operators of the step; lam adds the coupling control's block, which
    the controlled copy applies to v = mu_{sigma,Phi}[y - yh].  It comes
    first, so that the noise is summed last: once y - yh falls below the
    states' resolution, late in a coupled run, that order keeps more of
    its bits.  The decay spans width trajectories: numpy multiplies two
    arrays of one shape faster than it broadcasts a column."""
    a, size, n = component.a, component.size, component.n
    decay = np.exp(-a * h)
    phi = np.where(a * h < DRIFT_FACTOR_CUTOFF,
                   h, (1.0 - decay) / np.where(a == 0.0, 1.0, a))
    blocks = [phi[:, None, None] * component.Mb,
              decay[:, None, None] * component.Ms]
    if lam is not None:
        blocks.insert(0, lam * phi[:, None, None] * component.Ms)
    # block[i, p, q] maps forcing entry q to state row i*n+p
    forcing = np.concatenate([b.transpose(2, 0, 1).reshape(n, size * n)
                              for b in blocks])
    return StepOperators(n=n, decay=np.tile(np.repeat(decay, n)[:, None],
                                            width),
                         forcing=forcing, w=component.w)


def _noise_term(sigma, dw):
    """sigma(x) dW, trajectory-last (n, n_traj), for sigma of shape
    (n_traj, n, d) and dw (n_traj, d): from zeros, one multiply-add per
    noise column in column order, which is einsum's sum for d <= 2."""
    out = np.zeros((sigma.shape[1], len(dw)))
    for col in range(dw.shape[1]):
        out += sigma[:, :, col].T * dw[:, col]
    return out


def lifted_step(ops, coeffs, z, x, dw, v=None):
    """One exponential-Euler step of trajectory-last states: z (I*n, n_traj),
    x (n, n_traj), dw (n_traj, d).  v (n, n_traj), the coupling control's
    input, meets the control block of ops.forcing; without v the last two
    blocks apply."""
    xt = x.T
    forcing = [coeffs.b(xt).T, _noise_term(coeffs.sigma(xt), dw)]
    if v is not None:
        forcing.insert(0, v)
    forcing = np.concatenate(forcing)
    z = ops.decay * z
    z += np.einsum("kj,kt->jt", ops.forcing[-len(forcing):], forcing)
    return z, ops.observe(z)


def _batch(batch):
    """batch, a lone trajectory twice.  numpy drops a trajectory axis of
    length 1 from an einsum and may then sum over the factors in its inner
    loop, in another order; two columns keep a trajectory's bits the same
    in every batch."""
    return batch[[0, 0]] if len(batch) == 1 else batch


def _initial_states(ops, z0, batch):
    """Trajectory-last copies of z0 for the _batch of batch (one state
    shared, or a stack of one per trajectory) and their x."""
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 3 and len(z0) != len(batch):
        raise ValueError(f"z0 holds {len(z0)} initial states for "
                         f"{len(batch)} trajectories")
    z = z0.reshape(-1, ops.forcing.shape[1]).T
    z = np.broadcast_to(z, (z.shape[0], len(_batch(batch)))).copy()
    return z, ops.observe(z)


def _by_trajectory(component, z):
    """A trajectory-last state as (n_traj, I, n), a view."""
    return z.T.reshape(z.shape[1], component.size, component.n)


def _check_finite(kind, step, batch, *states, observed=()):
    """Abort naming the step and first trajectory with a non-finite state.
    A NaN or inf in z makes its x = sum_i w_i z_i non-finite (w is finite),
    so finite observed x prove the states finite; a non-finite x, which a
    finite z may also give by overflow, falls back to the scan of z."""
    if observed and all(np.isfinite(x).all() for x in observed):
        return
    if all(np.isfinite(z).all() for z in states):
        return
    bad = np.any([~np.isfinite(z).all(axis=0) for z in states], axis=0)
    j = batch.index[np.argmax(bad)]
    raise FloatingPointError(
        f"non-finite {kind} state at step {step}, trajectory {j}")


def _lifted_steps(component, coeffs, z, batch):
    """Step the trajectory-last states z, one column per row of the _batch
    of batch; yield (step, z, x) for step 0 and after every step.  Each
    yielded array is new, never updated in place."""
    stepped = _batch(batch)
    ops = step_operators(component, batch.h, width=len(stepped))
    x = ops.observe(z)
    yield 0, z, x
    with closing(_stacked_increments(stepped)) as noise:
        for step, dw in enumerate(noise, start=1):
            z, x = lifted_step(ops, coeffs, z, x, dw)
            _check_finite("lifted", step, stepped, z, observed=(x,))
            yield step, z, x


def _fork_row(batch, size):
    """The row of the batch from which a child process steps it: the
    lane-block boundary nearest the middle that leaves each part at least
    FORK_MIN_PART_ENTRIES state entries (size a trajectory) and two
    trajectories (a lone one would be stepped twice, see _batch, in a part
    whose states hold it once).  None, and the calling process steps every
    row, when there is no such boundary, on one usable CPU or on a platform
    without sched_getaffinity (Windows, which has no fork, and macOS)."""
    n = len(batch)
    if (n * size < 2 * FORK_MIN_PART_ENTRIES
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return None
    least = max(2, -(-FORK_MIN_PART_ENTRIES // size))  # rows of a part
    # the rows least, ..., n - least that start a lane block
    starts = least + np.flatnonzero(np.diff(
        batch.index[least - 1:n - least + 1] // NOISE_LANES))
    return int(starts[np.argmin(abs(2 * starts - n))]) if starts.size else None


def _pickled_error(step, exc):
    """The message ("e", step, exc) pickled, if it loads again: an error
    whose constructor takes other arguments than its args, or that holds an
    object pickle cannot write, goes as a RuntimeError naming its type and
    text."""
    try:
        data = pickle.dumps(("e", step, exc))
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(("e", step, RuntimeError(
            f"{type(exc).__qualname__} in the child process: {exc}")))


class _ForkedPart:
    """The steps of the last rows of a batch, run in a child process made
    by os.fork() (README, "The second process").  steps yields (step, row,
    *last) at step 0 and after every step.  The child sends each message as
    one pickle down a pipe of PIPE_BYTES (the kernel's default size where
    it refuses that): ("b", rows) after each block of STAT_ROWS steps and
    for the last block, ("d", last) at the end, ("e", step, error) on an
    error.  A full pipe holds the child back; one whose reader has gone
    fails its write, and the child exits.  Leaving the with block kills
    the child if it still runs and reaps it."""

    def __init__(self, steps):
        import fcntl  # here, not above: Windows has none and never forks
        self.blocks, self.error = 0, None
        read, write = os.pipe()
        try:
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:  # above the host's pipe-max-size
            pass
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            os.close(read)
            self._serve(steps, write)
        os.close(write)
        self.pipe = open(read, "rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.kill(self.pid, signal.SIGKILL)  # a child that has exited ignores it
        os.waitpid(self.pid, 0)
        self.pipe.close()

    def _serve(self, steps, write):
        """The child's side: step and send, then end the process."""
        step = -1
        try:
            with open(write, "wb") as out:
                def send(*message):
                    pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
                    out.flush()

                try:
                    rows = []
                    for step, row, *last in steps:
                        if len(rows) == STAT_ROWS:
                            send("b", np.array(rows))
                            rows = []
                        rows.append(row)
                    send("b", np.array(rows))
                    send("d", last)
                except BaseException as exc:
                    out.write(_pickled_error(step + 1, exc))
        finally:
            os._exit(0)

    def _next(self):
        """Read the child's next message, (kind, body): count a block, or
        keep its error as (step, error) (one that ends it without a message
        comes after every step)."""
        try:
            kind, *body = pickle.load(self.pipe)
        except Exception as exc:  # no message, or one cut short
            kind, body = "e", (math.inf, RuntimeError(
                f"child process {self.pid} ended without a result: {exc!r}"))
        if kind == "b":
            self.blocks += 1
        elif kind == "e":
            self.error = tuple(body)
        return kind, body[0]

    def fill(self, rows):
        """Wait for the child's next block and copy its rows into rows, or
        raise what the child raised."""
        kind, body = self._next()
        if kind != "b":
            raise self.error[1]
        rows[...] = body

    def finals(self):
        """The child's last arrays."""
        kind, body = self._next()
        if kind != "d":
            raise self.error[1]
        return body

    def raise_first(self, at):
        """The caller failed at step at: raise the child's error if it came
        at an earlier step, which one process would have raised; on a tie
        the caller's, whose trajectories come first, stands."""
        while self.error is None and STAT_ROWS * self.blocks < at - 1:
            self._next()  # block b arrives once step 16 (b + 1) passed
        if self.error is not None and self.error[0] < at:
            raise self.error[1] from None


def _step_in_parts(part, batch, size, block=None):
    """Step a NoiseBatch with size state entries a trajectory, in two
    processes where _fork_row splits it.  part(rows) steps batch[rows] and
    yields (step, row, *last) at step 0 and after every step; the child
    steps the rows from the split on, and the calling process the rest.
    block(b, rows), if given, gets the rows of steps STAT_ROWS * b, ...
    from both parts, a column per row of the _batch of batch.  Returns
    each last array of both parts joined on its last, trajectory, axis."""
    split = _fork_row(batch, size)
    own = slice(split)  # the calling process's rows, all without a child
    rows = np.empty((STAT_ROWS, len(_batch(batch)) if block else 0))
    child = None if split is None else _ForkedPart(part(slice(split, None)))

    def flush(b, k):  # rows[:k] hold steps STAT_ROWS * b, ..., + k - 1
        if child:
            child.fill(rows[:k, split:])
        if block:
            block(b, rows[:k])

    with child or nullcontext():
        step = -1
        try:
            for step, row, *last in part(own):
                b, r = divmod(step, STAT_ROWS)
                if r == 0 and step:  # the rows hold the block before
                    flush(b - 1, STAT_ROWS)
                rows[r, own] = row
            flush(b, r + 1)
            if child:
                last = [np.concatenate(pair, axis=-1)
                        for pair in zip(last, child.finals())]
        except Exception:
            if child:
                child.raise_first(step + 1)
            raise
    return last


def simulate_lifted(component, coeffs, z0, plan):
    """Integrate one trajectory, recording every state."""
    m = plan.n_steps
    states = np.empty((m + 1, component.size, component.n))
    obs = np.empty((m + 1, component.n))
    z, _ = _initial_states(step_operators(component, plan.h), z0, plan)
    for step, z, x in _lifted_steps(component, coeffs, z, plan):
        states[step], obs[step] = _by_trajectory(component, z)[0], x[:, 0]
    return LiftedPath(times=np.arange(m + 1) * plan.h, states=states,
                      observables=obs)


def simulate_lifted_ensemble(component, coeffs, z0, batch, record_times=None):
    """Integrate the trajectories of a NoiseBatch from z0 (one state, or
    one per trajectory).  Returns (times, X, z_final) with X of shape
    (n_rec, n_traj, n); record_times=None records the final time only.
    The rows from _fork_row on are stepped in a child process (README,
    "The second process")."""
    h, m = batch.h, batch.n_steps
    rec_steps = (np.array([m]) if record_times is None else
                 np.rint(np.asarray(record_times, dtype=float) / h)
                 .astype(np.int64))
    if np.any((rec_steps < 0) | (rec_steps > m)):
        raise ValueError("record time outside the simulated horizon")
    order = np.argsort(rec_steps, kind="stable")  # records in step order
    z, _ = _initial_states(step_operators(component, h), z0, batch)

    def part(rows):
        n_part, k = len(batch[rows]), 0
        X = np.empty((len(rec_steps), component.n, n_part))
        for step, zs, x in _lifted_steps(component, coeffs, z[:, rows].copy(),
                                         batch[rows]):
            while k < len(order) and rec_steps[order[k]] == step:
                X[order[k]] = x[:, :n_part]
                k += 1
            yield step, (), X, zs[:, :n_part]

    X, z = _step_in_parts(part, batch, len(z))
    return (rec_steps * h, np.ascontiguousarray(X.transpose(0, 2, 1)),
            _by_trajectory(component, z).copy())


def volterra_weights(k_b, k_s, h, m):
    """Quadrature weights for the direct scheme, each of shape (m, n, n).

    Drift: KB_l = integral of K_b over ((l-1)h, lh), on the rule of
    ``quad.nodes``; K_b may be singular at 0+ but is locally integrable.
    Diffusion: left-point values K_s(l h) for l >= 2; the first weight is
    the symmetric square root of the mean of K_s K_s^T over (0, h), so the
    Ito isometry of the first step is matched.  A kernel written for a
    scalar t is called on t[..., None, None] and so broadcasts to
    t.shape + (n, n).
    """
    def at(k, t):
        val = np.asarray(k(t[..., None, None]), dtype=float)
        return np.broadcast_to(val, t.shape + val.shape[-2:])

    lo, hi = np.arange(m) * h, np.arange(1, m + 1) * h
    u, w = nodes(lo, hi)
    kb = np.einsum("ln,lnpq->lpq", w, at(k_b, lo[:, None] + u))
    ks = at(k_s, u[0])
    gram = ks @ np.swapaxes(ks, -1, -2)
    vals, vecs = np.linalg.eigh(np.einsum("n,npq->pq", w[0], gram) / h)
    first = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    return kb, np.concatenate([first[None], at(k_s, hi[1:])])


def simulate_volterra_direct(kernels, coeffs, forcing, batch):
    """Left-point Euler for the Volterra equation itself, one trajectory
    per row of a NoiseBatch, on the noise of the lifted integrators.
    kernels: (K_b, K_s), see volterra_weights; forcing: t -> (n,).
    Returns (times, x) with x of shape (m+1, n_traj, n)."""
    h, m, n, n_traj = batch.h, batch.n_steps, coeffs.n, len(batch)
    stepped = _batch(batch)
    kb, ks = volterra_weights(*kernels, h, m)
    # trajectory-last, as in lifted_step: einsum's inner loop then runs
    # over the trajectories, and each history sum keeps one order in
    # any batch
    x = np.empty((m + 1, n, len(stepped)))
    bvals = np.empty((m, n, len(stepped)))
    svals = np.empty((m, n, len(stepped)))
    x[0] = np.atleast_1d(forcing(0.0))[:, None]
    with closing(_stacked_increments(stepped)) as noise:
        for step, dw in enumerate(noise, start=1):
            xt = x[step - 1].T
            bvals[step - 1] = coeffs.b(xt).T
            svals[step - 1] = _noise_term(coeffs.sigma(xt), dw)
            x[step] = (np.atleast_1d(forcing(step * h))[:, None]
                       + np.einsum("lpq,lqt->pt", kb[step - 1::-1],
                                   bvals[:step])
                       + np.einsum("lpq,lqt->pt", ks[step - 1::-1],
                                   svals[:step]))
            _check_finite("Volterra", step, stepped, x[step])
    return np.arange(m + 1) * h, x[..., :n_traj].transpose(0, 2, 1)


# -- coefficient presets -----------------------------------------------------

def _const_diffusion(sigma0, n):
    """CoefficientModel fields of the constant diffusion sigma0 * I, or of
    sigma0 itself when it is an (n, n) matrix: C_ssub is its Frobenius
    norm, and 1 / C_UE the least eigenvalue of sigma sigma^T (C_UE None
    when that is 0)."""
    mat = np.asarray(sigma0, dtype=float)
    if mat.ndim == 0:
        least = float(sigma0) ** 2
        mat = mat * np.eye(n)
    elif mat.shape == (n, n):
        least = np.linalg.eigvalsh(mat @ mat.T)[0]
    else:
        raise ValueError(f"sigma0 must be a number or an (n, d) = ({n}, {n}) "
                         f"matrix, got shape {mat.shape}")

    # one read-only broadcast view per leading shape, built on first use:
    # a coupled run asks for the same shape three times a step
    views = {}

    def sigma(x):
        lead = np.shape(x)[:-1]
        view = views.get(lead)
        if view is None:
            view = views[lead] = np.broadcast_to(mat, lead + (n, n))
        return view

    return dict(sigma=sigma, n=n, d=n, C_sLip=0.0, p=0.5,
                C_ssub=float(np.linalg.norm(mat)),
                C_UE=1.0 / least if least > 0.0 else None)


def preset_linear(beta=1.0, c=0.0, sigma0=1.0, n=1):
    """b(x) = -beta x + c with constant diffusion."""
    cvec = np.atleast_1d(np.asarray(c, dtype=float))
    if cvec.shape not in ((1,), (n,)):
        raise ValueError(f"c must be a number or a list of n = {n} numbers, "
                         f"got {c!r}")
    cvec = np.broadcast_to(cvec, (n,)).copy()

    def b(x):
        return -beta * np.asarray(x, dtype=float) + cvec

    # <b(x), x> = -beta |x|^2 + <c, x> <= (-beta + eps)|x|^2 + |c|^2/(4 eps)
    eps = 0.5 if np.any(cvec != 0.0) else 0.0
    return CoefficientModel(
        b=b, C_bLip=abs(beta), gamma=max(-beta + eps, 1e-12),
        C_bLG=float(np.dot(cvec, cvec)) / 2.0 + 1e-12,
        **_const_diffusion(sigma0, n))


def preset_tanh(scale=1.0, sigma0=1.0, n=1):
    """Bounded Lipschitz drift b(x) = -x + scale*tanh(x), constant diffusion."""
    def b(x):
        x = np.asarray(x, dtype=float)
        return -x + scale * np.tanh(x)

    return CoefficientModel(
        b=b, C_bLip=1.0 + abs(scale),
        gamma=max(abs(scale) - 1.0, 1e-12) if scale >= 0 else 1e-12,
        C_bLG=abs(scale) + 1.0, **_const_diffusion(sigma0, n))


def preset_double_well(sigma0=1.0, n=1, gamma=0.25):
    """Gradient drift of V(x) = (|x|^2 - 1)^2 / 4: b(x) = -x (|x|^2 - 1).

    <b(x), x> = |x|^2 (1 - |x|^2) <= gamma |x|^2 + ((1 - gamma)/2)^2 for any
    gamma in (0, 1]; not globally Lipschitz, so no C_bLip is declared.
    """
    def b(x):
        x = np.asarray(x, dtype=float)
        sq = np.sum(x * x, axis=-1, keepdims=True)
        return -x * (sq - 1.0)

    return CoefficientModel(
        b=b, C_bLip=None, gamma=gamma,
        C_bLG=((1.0 - gamma) / 2.0) ** 2 + 1e-12,
        **_const_diffusion(sigma0, n))


PRESETS = {
    "linear": preset_linear,
    "tanh": preset_tanh,
    "double_well": preset_double_well,
}


def make_preset(name, **kwargs):
    if name not in PRESETS:
        raise ValueError(f"unknown coefficient preset {name!r}")
    return PRESETS[name](**kwargs)
