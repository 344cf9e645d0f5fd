"""Monte Carlo engine: Brownian motion on the half-plane and on rotationally
symmetric surfaces via radial/angular SDEs.

Half-plane (ds^2 = y^-2(dx^2+dy^2), generator Delta/2 in coordinates:
dx = y dB1, dy = y dB2):
  the y-update is exact in law per step, y_{n+1} = y_n exp(dB2 - dt/2),
  which forbids y <= 0; the x-update uses y at the step midpoint.

Radial SDE on a surface with profile p:
  dr_t = dX_t + f(r_t) dt,  f = p'/(2p),
with the angular clock tau_t = int_0^t p(r_s)^-2 ds and theta_t = Y_{tau_t}
for an independent driving motion Y.  One integrator,
_simulate_radial_block, advances all paths together in one run.  It records
every path's r every stride-th step, and traces the first `angles` paths:
they also carry tau and theta and are recorded every cfg.record_stride
steps.  simulate_radial traces every path, radial_terminal none, and
kaimanovich_tail_limit records all paths once per time unit and traces the
figure paths.  Increments are drawn _STEP_BLOCK steps at a time into one
(_STEP_BLOCK + 1, paths) array, the only radial state: each step overwrites
its increment's row with r after the step, so the step loop only steps.
Once per block the records are read from its rows, and tau and theta of the
traced paths are summed over it in step order from the carried values,
which adds exactly what a per-step update adds.  H(r) - t is derived from
the recorded radii after the loop, with a capped path's clock stopped at its
cap time.  The buffers take paths x (_STEP_BLOCK + records) plus traced
paths x (3 _STEP_BLOCK + 3 traced records), never paths x steps.

Workers: the path range of each run is cut into contiguous chunks, and their
results are yielded in path order as they come (_in_chunks): one chunk per
worker for a radial run, and for a half-plane run blocks of at most
_BLOCK_ROWS records (halfplane_blocks), which a caller such as the CLI's CSV
writer can format on the workers and consume one at a time.  A radial chunk
returns its overflow error, and the run raises the one a single process
would meet first.  The worker count is min(cfg.threads, usable cores,
n_paths // _MIN_CHUNK); SimConfig turns threads = None into the usable core
count and refuses a cap below 1.  More than one worker runs the chunks on a
pool of forked processes that exists only for the call.  One worker runs the
same chunk body in-process, and so does every run where fork is missing, or
unsafe because the caller runs other threads.
Each worker allocates only its chunk's share of the step block.

Reproducibility: every path owns a counter-based Philox stream keyed by
(seed, 2*path_index + substream), so results are bit-identical regardless of
batching, step blocking or worker count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .model_spaces import KAIMANOVICH_R_CAP, ProfileFunction, builtin_profile, json_int

__all__ = [
    "SimConfig",
    "HalfPlanePath",
    "RadialProcess",
    "TailLimitResult",
    "path_rng",
    "simulate_halfplane",
    "halfplane_blocks",
    "simulate_radial",
    "kaimanovich_tail_limit",
    "KAIMANOVICH_R_CAP",
]

# A tail-limit path has converged when H(r)-t moved at most this much over
# its last unit of time.
_TAIL_CONVERGENCE_TOL = 0.05

# r beyond which even log-space bookkeeping would degrade; paths must not get here.
_R_ABORT = 1e100

# Steps of increments drawn at once per path by the radial integrator.
_STEP_BLOCK = 1024

# Fewest paths worth a worker: a run of fewer than 2 * _MIN_CHUNK paths stays
# in one process, where forking would cost more than it saves.
_MIN_CHUNK = 256

# Records per streamed half-plane block (about 4 MB of CSV at 17 digits), and
# the paths (at most) and path-steps per tile of _halfplane_chunk.
_BLOCK_ROWS = 1 << 16
_TILE = 64
_TILE_STEPS = 1 << 17


@dataclass(frozen=True)
class SimConfig:
    seed: int
    n_paths: int
    t_max: float
    dt: float = 1e-2
    record_stride: int = 1
    threads: int | None = None   # worker cap; None becomes the usable core count

    def __post_init__(self):
        for name in ("seed", "n_paths", "record_stride", "threads"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, json_int(value, name, ValueError))
        if not (0 <= self.seed < 2 ** 63):
            raise ValueError("seed must fit in a 63-bit nonnegative integer")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (0 < self.dt < math.inf and 0 < self.t_max < math.inf):
            raise ValueError(f"dt and t_max must be finite and positive, got {self.dt} and {self.t_max}")
        steps = self.t_max / self.dt
        if not math.isfinite(steps) or round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_max/dt must be a whole number of steps, got {steps}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.threads is None:
            object.__setattr__(self, "threads", _usable_cores())
        if self.threads < 1:
            raise ValueError(f"threads must be an integer >= 1, got {self.threads!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    def record_steps(self, stride: int) -> np.ndarray:
        """Step indices 0, stride, 2 stride, ... and the last step n_steps."""
        return np.union1d(np.arange(0, self.n_steps + 1, stride), self.n_steps)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _n_workers(cfg: SimConfig) -> int:
    """min(cfg.threads, usable cores, n_paths // _MIN_CHUNK), at least 1; and 1
    where fork is missing, or unsafe because the caller runs other threads."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(cfg.threads, _usable_cores(), cfg.n_paths // _MIN_CHUNK))


# The chunk job of the running pool: set in each forked worker by the pool
# initializer, so the job (profiles hold lambdas) is inherited, never pickled.
_JOB = None


def _set_job(job) -> None:
    global _JOB
    _JOB = job


def _run_chunk(bounds):
    return _JOB(*bounds)


def _join(parts: tuple, axis: int = 0) -> np.ndarray:
    """The chunks' arrays joined in path order; a lone chunk's array as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _in_chunks(job, cfg: SimConfig, block: int | None = None):
    """Yield job(lo, hi) over contiguous path ranges that cover 0..n_paths-1, in path order.

    The ranges hold at most `block` paths, and without it there is one range
    per worker.  Each result is yielded once it and those before it are in;
    only path ranges and job results cross the pipes.  A job that raises
    raises here when its result is due.
    """
    m, w = cfg.n_paths, _n_workers(cfg)
    size = min(block or m, -(-m // w))
    bounds = [(lo, min(lo + size, m)) for lo in range(0, m, size)]
    if w == 1:
        yield from (job(lo, hi) for lo, hi in bounds)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(w, mp_context=fork, initializer=_set_job, initargs=(job,))
    # the shutdown joins every worker, also when the caller stops early;
    # a killed worker raises BrokenProcessPool
    try:
        yield from pool.map(_run_chunk, bounds)
    finally:
        pool.shutdown(cancel_futures=True)


@cache
def _philox_key() -> type:
    """A seed sequence that hands Philox its key as given.  Philox(key=...)
    would also build, and discard, a SeedSequence from OS entropy, which
    costs more than the stream.  Built on first use, so that importing the
    package loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its two uint64 key words

    return PhiloxKey


def path_rng(seed: int, path_index: int, substream: int = 0) -> np.random.Generator:
    """Counter-based stream for one path; independent of all other paths.

    The stream of Generator(Philox(key=[seed, 2*path_index + substream])).
    """
    key = np.array([seed, 2 * path_index + substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key()(key)))


@dataclass(frozen=True)
class HalfPlanePath:
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray


def simulate_halfplane(cfg: SimConfig) -> list[HalfPlanePath]:
    """Paths from the basepoint (0, 1), recorded every cfg.record_stride steps."""
    x, y = (_join(parts) for parts in zip(*halfplane_blocks(cfg, lambda lo, x, y: (x, y))))
    times = cfg.record_steps(cfg.record_stride) * cfg.dt
    return [HalfPlanePath(times=times, x=x[i], y=y[i]) for i in range(cfg.n_paths)]


def halfplane_blocks(cfg: SimConfig, fmt):
    """fmt(lo, x, y) for blocks of consecutive paths, in path order.

    x and y are the (paths, records) arrays of paths lo, lo + 1, ... at the
    steps cfg.record_steps(cfg.record_stride).  A block holds at most
    _BLOCK_ROWS records, and at least one path.  fmt runs on the workers, so
    only its results cross the pipes, and each is yielded as it comes.
    """
    rec = cfg.record_steps(cfg.record_stride)

    def job(lo, hi):
        return fmt(lo, *_halfplane_chunk(cfg, rec, lo, hi))

    return _in_chunks(job, cfg, max(1, _BLOCK_ROWS // len(rec)))


def _halfplane_chunk(cfg: SimConfig, rec: np.ndarray, lo: int, hi: int):
    """x and y of paths lo..hi-1 at the recorded steps, as (paths, records) arrays.

    The paths run in tiles of at most _TILE paths and _TILE_STEPS path-steps:
    each path draws its increments into its own row of the tile, and the sums
    run along the rows, so every path gets the values a path alone would.
    """
    n, dt = cfg.n_steps, cfg.dt
    sqdt = math.sqrt(dt)
    xs, ys = np.empty((2, hi - lo, len(rec)))
    tile = max(1, min(_TILE, _TILE_STEPS // n))
    for t0 in range(lo, hi, tile):
        t1 = min(t0 + tile, hi)
        db = np.empty((t1 - t0, n, 2))
        for i in range(t0, t1):
            path_rng(cfg.seed, i).standard_normal(out=db[i - t0])
        db *= sqdt
        # y is geometric Brownian motion: exact update in law
        log_y = np.zeros((t1 - t0, n + 1))
        log_y[:, 1:] = np.cumsum(db[:, :, 1] - dt / 2.0, axis=1)
        y = np.exp(log_y)
        y_mid = 0.5 * (y[:, :-1] + y[:, 1:])
        x = np.zeros((t1 - t0, n + 1))
        x[:, 1:] = np.cumsum(y_mid * db[:, :, 0], axis=1)
        xs[t0 - lo:t1 - lo], ys[t0 - lo:t1 - lo] = x[:, rec], y[:, rec]
    return xs, ys


@dataclass(frozen=True)
class RadialProcess:
    times: np.ndarray
    r: np.ndarray
    h_minus_t: np.ndarray  # H(r_t) - t with H(r) = log(1 + r^2)
    tau: np.ndarray        # angular clock, non-decreasing
    theta: np.ndarray
    n_reflections: int
    capped: bool
    cap_time: float | None = None


def _h(r: np.ndarray) -> np.ndarray:
    return np.log1p(r * r)


@dataclass(frozen=True)
class _RadialRun:
    """Output of _simulate_radial_block: recorded arrays are (records, paths)."""

    r: np.ndarray
    h_minus_t: np.ndarray
    n_reflections: np.ndarray    # per path
    capped: np.ndarray
    traced: list[RadialProcess]  # the first `angles` paths, with tau and theta


def _draw(rngs: list, out: np.ndarray) -> np.ndarray:
    """Fill column i of out with the next len(out) normals of stream i."""
    for i, rng in enumerate(rngs):
        out[:, i] = rng.standard_normal(len(out))
    return out


def _simulate_radial_block(profile, cfg, r0, r_cap, stride, angles=0) -> _RadialRun:
    """Euler-Maruyama on dr = dX + f(r) dt with reflection at 0, all paths at once.

    A step proposal r <= 0 is reflected (|r|) and counted.  If r_cap is set, a
    path that reaches it has its whole state frozen there and is flagged
    capped; if any path exceeds the float-safe range the run aborts.  Every
    path's r is recorded at every stride-th step and at the last.  The first
    `angles` paths also integrate tau and theta and come back as
    RadialProcess objects recorded every cfg.record_stride steps.  The paths
    run in chunks (_radial_chunk), on workers when there are several
    (_in_chunks).
    """
    if not 0 < r0 < math.inf:
        raise ValueError(f"need r0 > 0 and finite, got {r0}")
    if r_cap is not None and not r0 < r_cap:  # NaN fails too
        raise ValueError(f"need r_cap > r0, got r_cap = {r_cap} and r0 = {r0}")
    steps = cfg.record_steps(stride)
    traced_steps = cfg.record_steps(cfg.record_stride)

    def chunk(lo, hi):
        try:
            return _radial_chunk(profile, cfg, r0, r_cap, steps, traced_steps, angles, lo, hi)
        except OverflowError as e:  # the run raises the one a single process would meet
            return e

    parts = list(_in_chunks(chunk, cfg))
    errors = [p for p in parts if isinstance(p, OverflowError)]
    if errors:  # the earliest step, then the lowest path
        raise min(errors, key=lambda e: e.at)
    # record arrays are (..., records, paths) and per-path arrays (paths,): join on the last axis
    r_rec, traced_rec, reflections, cap_step = (_join(p, axis=-1) for p in zip(*parts))
    frozen = cap_step < cfg.n_steps
    cap_time = np.where(frozen, (cap_step + 1) * cfg.dt, np.nan)

    def h_minus_t(rec_steps, r):
        # a frozen path keeps H(r) - cap_time: r is frozen and cap_time is the same product
        return _h(r) - np.fmin(rec_steps[:, None] * cfg.dt, cap_time[:r.shape[1]])

    times = traced_steps * cfg.dt
    r_tr, tau, theta = traced_rec
    hmt_tr = h_minus_t(traced_steps, r_tr)
    traced = [
        RadialProcess(
            times=times,
            r=r_tr[:, i].copy(),
            h_minus_t=hmt_tr[:, i].copy(),
            tau=tau[:, i].copy(),
            theta=theta[:, i].copy(),
            n_reflections=int(reflections[i]),
            capped=bool(frozen[i]),
            cap_time=float(cap_time[i]) if frozen[i] else None,
        )
        for i in range(r_tr.shape[1])
    ]
    return _RadialRun(r=r_rec, h_minus_t=h_minus_t(steps, r_rec), n_reflections=reflections,
                      capped=frozen, traced=traced)


def _radial_chunk(profile, cfg, r0, r_cap, steps, traced_steps, angles, lo, hi):
    """The step loop of _simulate_radial_block over the streams of paths lo..hi-1.

    rows[0] carries r into a step block and rows[k + 1] holds the increment of
    step start + k until that step overwrites it with r after the step.
    Returns r at the recorded steps as a (records, paths) array; r, tau and
    theta of the chunk's paths below `angles` at traced_steps as a
    (3, records, traced paths) array; then per path the reflection count and
    the step it froze in (n_steps: none).  An overflow error carries
    .at = (step, path) for _simulate_radial_block.
    """
    n, dt, m = cfg.n_steps, cfg.dt, hi - lo
    a = min(max(angles - lo, 0), m)
    sqdt = math.sqrt(dt)
    rngs = [path_rng(cfg.seed, i, substream=0) for i in range(lo, hi)]
    ang_rngs = [path_rng(cfg.seed, i, substream=1) for i in range(lo, lo + a)]

    frozen = np.zeros(m, dtype=bool)
    n_frozen = 0
    cap_step = np.full(m, n)  # the step each path froze in, the last it moved in (n: none)
    reflections = np.zeros(m, dtype=int)
    r_rec = np.empty((len(steps), m))
    traced_rec = np.empty((3, len(traced_steps), a))
    move = np.empty(m)
    flags = np.empty(m, dtype=bool)
    size = min(_STEP_BLOCK, n)
    rows = np.empty((size + 1, m))
    rows[0] = r0
    clock = np.zeros((2, size + 1, a))  # tau and theta of the traced paths, row for row
    ang_buf = np.empty((size, a))
    for start in range(0, n, _STEP_BLOCK):
        block = min(_STEP_BLOCK, n - start)
        dX = _draw(rngs, rows[1:block + 1])
        dX *= sqdt
        for k in range(block):
            r, nxt = rows[k], rows[k + 1]
            np.multiply(profile.drift(r), dt, out=move)
            move += r
            nxt += move
            if n_frozen:
                np.copyto(nxt, r, where=frozen)
            if np.fmin.reduce(nxt) <= 0.0:  # some path reflects; a frozen one sits at r_cap > 0
                reflections += np.less_equal(nxt, 0.0, out=flags)
            np.abs(nxt, out=nxt)
            top = np.fmax.reduce(nxt)
            if top > _R_ABORT:
                path = lo + int(np.argmax(nxt > _R_ABORT))
                t = (start + k + 1) * dt
                err = OverflowError(f"path {path} exceeded r = {_R_ABORT:g} at t = {t:g}")
                err.at = (start + k, path)
                raise err
            # a frozen path sits at r >= r_cap, so a count above n_frozen means a new one
            if r_cap is not None and top >= r_cap and (
                    np.count_nonzero(np.greater_equal(nxt, r_cap, out=flags)) > n_frozen):
                flags ^= frozen  # the new ones
                cap_step[flags] = start + k
                frozen |= flags
                n_frozen = np.count_nonzero(frozen)
        # rows 0..block hold r after steps start..start + block; an edge record is read twice
        due = (steps >= start) & (steps <= start + block)
        r_rec[due] = rows[steps[due] - start]
        if a:
            _advance_clock(profile, dt, rows[1:block + 1, :a], clock[:, :block + 1],
                           _draw(ang_rngs, ang_buf[:block]), start, cap_step[:a])
            due = (traced_steps >= start) & (traced_steps <= start + block)
            traced_rec[0, due] = rows[traced_steps[due] - start, :a]
            traced_rec[1:, due] = clock[:, traced_steps[due] - start]
            clock[:, 0] = clock[:, block]
        rows[0] = rows[block]
    return r_rec, traced_rec, reflections, cap_step


def _advance_clock(profile, dt, r, clock, ang, start, cap_step) -> None:
    """Fill clock[:, 1:] with tau and theta after each step of a block.

    r holds the radii after the block's steps, clock[:, 0] the carried tau
    and theta.  A path's increments stop after its cap step.  Each sum runs
    in step order, as one step at a time would add them.
    """
    d_tau, d_theta = clock[0, 1:], clock[1, 1:]
    np.multiply(profile.inv_p_sq(r), dt, out=d_tau)
    np.sqrt(d_tau, out=d_theta)
    d_theta *= ang
    moved = np.arange(start, start + len(ang))[:, None] <= cap_step
    if not moved.all():
        np.copyto(clock[:, 1:], 0.0, where=~moved)
    np.cumsum(clock, axis=1, out=clock)


def simulate_radial(
    profile: ProfileFunction, cfg: SimConfig, r0: float, r_cap: float | None = None
) -> list[RadialProcess]:
    """Radial paths (see _simulate_radial_block) recorded every
    cfg.record_stride steps, with their angular clock and angle."""
    return _simulate_radial_block(profile, cfg, r0, r_cap, cfg.n_steps, angles=cfg.n_paths).traced


@dataclass(frozen=True)
class TerminalRadial:
    """Terminal state of a batch of radial paths (fast path for ensemble laws)."""

    r: np.ndarray
    h_minus_t: np.ndarray
    n_reflections: int
    n_capped: int


def radial_terminal(
    profile: ProfileFunction, cfg: SimConfig, r0: float, r_cap: float | None = None
) -> TerminalRadial:
    """Terminal state of simulate_radial's paths, without recording or angles."""
    run = _simulate_radial_block(profile, cfg, r0, r_cap, cfg.n_steps)
    return TerminalRadial(
        r=run.r[-1],
        h_minus_t=run.h_minus_t[-1],
        n_reflections=int(run.n_reflections.sum()),
        n_capped=int(run.capped.sum()),
    )


@dataclass(frozen=True)
class TailLimitResult:
    """Per-path estimates of L = lim H(r_t) - t plus ensemble statistics."""

    L: np.ndarray
    diagnostic: np.ndarray      # |increment of H(r_t)-t over the last unit time|
    converged: np.ndarray
    mean: float
    std: float
    n_excluded: int
    n_capped: int
    n_reflections: int
    trajectories: list[RadialProcess] = field(default_factory=list)


def kaimanovich_tail_limit(cfg: SimConfig, n_trajectories: int = 0) -> TailLimitResult:
    """Estimate the tail limit of H(r_t) - t on the Kaimanovich surface.

    Paths start at r0 = 1 and freeze at KAIMANOVICH_R_CAP.  L_hat per path is
    H(r) - t at t_max; paths whose last-unit increment exceeds
    _TAIL_CONVERGENCE_TOL are flagged non-converged and excluded from the
    ensemble statistics (count reported).  Optionally returns the first
    n_trajectories as RadialProcess objects recorded every cfg.record_stride
    steps (the data behind the ten-trajectory figure).  They come from the
    same run as L, so they equal simulate_radial's first n_trajectories
    paths with the same cap; only they integrate the angular clock.
    """
    if cfg.t_max < 2.0:
        raise ValueError("need t_max >= 2 to form the last-unit-time diagnostic")
    if cfg.t_max / 1.0 != int(cfg.t_max):
        raise ValueError("t_max must be an integer number of time units")
    per_unit = 1.0 / cfg.dt
    if abs(per_unit - round(per_unit)) > 1e-9 * per_unit:
        raise ValueError(f"1/dt must be an integer number of steps, got {per_unit}")
    n_trajectories = json_int(n_trajectories, "n_trajectories", ValueError)
    if not 0 <= n_trajectories <= cfg.n_paths:
        raise ValueError(f"n_trajectories must be in [0, {cfg.n_paths}], got {n_trajectories}")
    run = _simulate_radial_block(builtin_profile("kaimanovich"), cfg, 1.0, KAIMANOVICH_R_CAP,
                                 int(round(per_unit)), angles=n_trajectories)
    L = run.h_minus_t[-1]
    diag = np.abs(L - run.h_minus_t[-2])
    converged = diag <= _TAIL_CONVERGENCE_TOL
    kept = L[converged]
    return TailLimitResult(
        L=L,
        diagnostic=diag,
        converged=converged,
        mean=float(kept.mean()) if kept.size else math.nan,
        std=float(kept.std(ddof=1)) if kept.size > 1 else math.nan,
        n_excluded=int((~converged).sum()),
        n_capped=int(run.capped.sum()),
        n_reflections=int(run.n_reflections.sum()),
        trajectories=run.traced,
    )
