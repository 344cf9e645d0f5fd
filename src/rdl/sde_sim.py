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
_simulate_radial_block, advances all paths together and records every
stride-th step; simulate_radial, radial_terminal and kaimanovich_tail_limit
differ only in the stride and in whether tau and theta are integrated.
The step loop carries r alone (and tau, theta when angles are recorded);
H(r) - t is derived from the recorded radii after the loop, with a capped
path's clock stopped at its cap time.
Increments are drawn _STEP_BLOCK steps at a time, so memory is bounded by
paths x (_STEP_BLOCK + records), never paths x steps.

Workers: the path range of each half-plane or radial run is cut into
contiguous chunks, one per worker, and the chunks are concatenated in path
order.  The worker count is min(cfg.threads, usable cores, n_paths //
_MIN_CHUNK), and cfg.threads = None means every usable core.  More than one
worker runs the chunks on a pool of forked processes that exists only for
the call.  One worker runs the same chunk body in-process, and so does every
run where fork is missing, or unsafe because the caller runs other threads.
Each worker allocates only its chunk's share of the step block.

Reproducibility: every path owns a counter-based Philox stream keyed by
(seed, 2*path_index + substream), so results are bit-identical regardless of
batching, step blocking or worker count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .model_spaces import ProfileFunction, builtin_profile

__all__ = [
    "SimConfig",
    "HalfPlanePath",
    "RadialProcess",
    "TailLimitResult",
    "path_rng",
    "simulate_halfplane",
    "simulate_radial",
    "kaimanovich_tail_limit",
    "KAIMANOVICH_R_CAP",
]

# Beyond this radius the H(r)-t increments are below 1e-2 per unit time and
# the path state is frozen (see kaimanovich_tail_limit).
KAIMANOVICH_R_CAP = 200.0

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


@dataclass(frozen=True)
class SimConfig:
    seed: int
    n_paths: int
    t_max: float
    dt: float = 1e-2
    record_stride: int = 1
    threads: int | None = None   # worker cap; None means every usable core

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 63):
            raise ValueError("seed must fit in a 63-bit nonnegative integer")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (0 < self.dt < math.inf and 0 < self.t_max < math.inf):
            raise ValueError(f"dt and t_max must be finite and positive, got {self.dt} and {self.t_max}")
        steps = self.t_max / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"t_max/dt must be an integer, got {steps}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1 or None")

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
    cores = _usable_cores()
    threads = cores if cfg.threads is None else cfg.threads
    return max(1, min(threads, cores, cfg.n_paths // _MIN_CHUNK))


# The chunk job of the running pool: set in each forked worker by the pool
# initializer, so the job (profiles hold lambdas) is inherited, never pickled.
_JOB = None


def _set_job(job) -> None:
    global _JOB
    _JOB = job


def _run_chunk(bounds):
    try:
        return _JOB(*bounds)
    except OverflowError as e:  # the parent picks the one a single process would raise
        return e


def _join(parts: tuple, axis: int = 0) -> np.ndarray:
    """The chunks' arrays joined in path order; a lone chunk's array as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _in_chunks(job, cfg: SimConfig) -> list:
    """job(lo, hi) over contiguous path ranges that cover 0..n_paths-1, in path order.

    Only path ranges and job results cross the pipes.  If chunks overflow,
    the one raised is the one a single process would meet first: the
    earliest step, then the lowest path (job errors carry this as .at).
    """
    m, w = cfg.n_paths, _n_workers(cfg)
    if w == 1:
        return [job(0, m)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = [(m * i // w, m * (i + 1) // w) for i in range(w)]
    # leaving the block joins every worker; a killed worker raises BrokenProcessPool
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(w, mp_context=fork, initializer=_set_job, initargs=(job,)) as pool:
        parts = list(pool.map(_run_chunk, bounds))
    errors = [p for p in parts if isinstance(p, OverflowError)]
    if errors:
        raise min(errors, key=lambda e: e.at)
    return parts


def path_rng(seed: int, path_index: int, substream: int = 0) -> np.random.Generator:
    """Counter-based stream for one path; independent of all other paths."""
    key = np.array([seed, 2 * path_index + substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class HalfPlanePath:
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray


def simulate_halfplane(cfg: SimConfig) -> list[HalfPlanePath]:
    """Paths from the basepoint (0, 1), recorded every cfg.record_stride steps."""
    rec = cfg.record_steps(cfg.record_stride)
    x, y = (_join(parts) for parts in zip(*_in_chunks(
        partial(_halfplane_chunk, cfg, rec), cfg)))
    times = rec * cfg.dt
    return [HalfPlanePath(times=times, x=x[i], y=y[i]) for i in range(cfg.n_paths)]


def _halfplane_chunk(cfg: SimConfig, rec: np.ndarray, lo: int, hi: int):
    """x and y of paths lo..hi-1 at the recorded steps, as (paths, records) arrays."""
    n, dt = cfg.n_steps, cfg.dt
    sqdt = math.sqrt(dt)
    xs, ys = np.empty((2, hi - lo, len(rec)))
    for i in range(lo, hi):
        rng = path_rng(cfg.seed, i)
        db = rng.standard_normal((n, 2)) * sqdt
        # y is geometric Brownian motion: exact update in law
        log_y = np.zeros(n + 1)
        log_y[1:] = np.cumsum(db[:, 1] - dt / 2.0)
        y = np.exp(log_y)
        y_mid = 0.5 * (y[:-1] + y[1:])
        x = np.zeros(n + 1)
        x[1:] = np.cumsum(y_mid * db[:, 0])
        xs[i - lo], ys[i - lo] = x[rec], y[rec]
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

    steps: np.ndarray            # step index of each record
    r: np.ndarray
    h_minus_t: np.ndarray
    tau: np.ndarray | None       # None unless angles were requested
    theta: np.ndarray | None
    n_reflections: np.ndarray    # per path
    capped: np.ndarray
    cap_time: np.ndarray         # NaN for paths never capped


def _draw(rngs: list, out: np.ndarray) -> np.ndarray:
    """Fill column i of out with the next len(out) normals of stream i."""
    for i, rng in enumerate(rngs):
        out[:, i] = rng.standard_normal(len(out))
    return out


def _simulate_radial_block(profile, cfg, r0, r_cap, stride, angles=False) -> _RadialRun:
    """Euler-Maruyama on dr = dX + f(r) dt with reflection at 0, all paths at once.

    A step proposal r <= 0 is reflected (|r|) and counted.  If r_cap is set, a
    path that reaches it has its whole state frozen there and is flagged
    capped; if any path exceeds the float-safe range the run aborts.  The
    state is recorded at every stride-th step and at the last; tau and theta
    are integrated only when angles is set.  The paths run in chunks
    (_radial_chunk), on workers when there are several (_in_chunks).
    """
    if r0 <= 0:
        raise ValueError(f"need r0 > 0, got {r0}")
    steps = cfg.record_steps(stride)
    chunk = partial(_radial_chunk, profile, cfg, r0, r_cap, steps, angles)
    # record arrays are (records, paths) and per-path arrays (paths,): join on the last axis
    r_rec, tau_rec, theta_rec, reflections, frozen, cap_time = (
        _join(parts, axis=-1) for parts in zip(*_in_chunks(chunk, cfg)))
    # a frozen path keeps H(r) - cap_time: r is frozen and cap_time is the same product
    h_minus_t = _h(r_rec) - np.fmin(steps[:, None] * cfg.dt, cap_time)
    return _RadialRun(
        steps=steps,
        r=r_rec,
        h_minus_t=h_minus_t,
        tau=tau_rec if angles else None,
        theta=theta_rec if angles else None,
        n_reflections=reflections,
        capped=frozen,
        cap_time=cap_time,
    )


def _radial_chunk(profile, cfg, r0, r_cap, steps, angles, lo, hi):
    """The step loop of _simulate_radial_block over the streams of paths lo..hi-1.

    Returns r, tau and theta at the recorded steps as (records, paths)
    arrays, then per path the reflection count, the capped flag and the cap
    time.  An overflow error carries .at = (step, path) for _in_chunks.
    """
    n, dt, m = cfg.n_steps, cfg.dt, hi - lo
    sqdt = math.sqrt(dt)
    rngs = [path_rng(cfg.seed, i, substream=0) for i in range(lo, hi)]
    ang_rngs = [path_rng(cfg.seed, i, substream=1) for i in range(lo, hi)] if angles else []

    r = np.full(m, r0, dtype=float)
    tau = np.zeros(m)
    theta = np.zeros(m)
    frozen = np.zeros(m, dtype=bool)
    cap_time = np.full(m, np.nan)
    reflections = np.zeros(m, dtype=int)
    # the state arrays are replaced by every step, never written in place
    rows = [(r, tau, theta)]
    dX_buf = np.empty((min(_STEP_BLOCK, n), m))
    ang_buf = np.empty((min(_STEP_BLOCK, n), m)) if angles else None
    for start in range(0, n, _STEP_BLOCK):
        block = min(_STEP_BLOCK, n - start)
        dX = _draw(rngs, dX_buf[:block])
        dX *= sqdt
        ang = _draw(ang_rngs, ang_buf[:block]) if angles else None
        for k in range(block):
            active = ~frozen
            proposal = r + profile.drift(r) * dt + dX[k]
            reflections += active & (proposal <= 0.0)
            r = np.where(active, np.abs(proposal), r)
            t = (start + k + 1) * dt
            if np.any(r > _R_ABORT):
                path = lo + int(np.argmax(r > _R_ABORT))
                err = OverflowError(f"path {path} exceeded r = {_R_ABORT:g} at t = {t:g}")
                err.at = (start + k, path)
                raise err
            if angles:
                d_tau = profile.inv_p_sq(r) * dt
                tau = np.where(active, tau + d_tau, tau)
                theta = np.where(active, theta + np.sqrt(d_tau) * ang[k], theta)
            if r_cap is not None:
                newly = active & (r >= r_cap)
                cap_time[newly] = t
                frozen |= newly
            if start + k + 1 == steps[len(rows)]:
                rows.append((r, tau, theta))
    return (*map(np.array, zip(*rows)), reflections, frozen, cap_time)


def simulate_radial(
    profile: ProfileFunction, cfg: SimConfig, r0: float, r_cap: float | None = None
) -> list[RadialProcess]:
    """Radial paths (see _simulate_radial_block) recorded every
    cfg.record_stride steps, with their angular clock and angle."""
    run = _simulate_radial_block(profile, cfg, r0, r_cap, cfg.record_stride, angles=True)
    times = run.steps * cfg.dt
    return [
        RadialProcess(
            times=times,
            r=run.r[:, i].copy(),
            h_minus_t=run.h_minus_t[:, i].copy(),
            tau=run.tau[:, i].copy(),
            theta=run.theta[:, i].copy(),
            n_reflections=int(run.n_reflections[i]),
            capped=bool(run.capped[i]),
            cap_time=float(run.cap_time[i]) if run.capped[i] else None,
        )
        for i in range(cfg.n_paths)
    ]


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
    n_trajectories as stride-recorded RadialProcess objects (the data behind
    the ten-trajectory figure).
    """
    if cfg.t_max < 2.0:
        raise ValueError("need t_max >= 2 to form the last-unit-time diagnostic")
    if cfg.t_max / 1.0 != int(cfg.t_max):
        raise ValueError("t_max must be an integer number of time units")
    per_unit = 1.0 / cfg.dt
    if abs(per_unit - round(per_unit)) > 1e-9 * per_unit:
        raise ValueError(f"1/dt must be an integer number of steps, got {per_unit}")
    profile = builtin_profile("kaimanovich")
    run = _simulate_radial_block(profile, cfg, 1.0, KAIMANOVICH_R_CAP, int(round(per_unit)))
    L = run.h_minus_t[-1]
    diag = np.abs(L - run.h_minus_t[-2])
    converged = diag <= _TAIL_CONVERGENCE_TOL
    kept = L[converged]
    trajectories = []
    if n_trajectories > 0:
        sub = replace(cfg, n_paths=min(n_trajectories, cfg.n_paths))
        trajectories = simulate_radial(profile, sub, 1.0, r_cap=KAIMANOVICH_R_CAP)
    return TailLimitResult(
        L=L,
        diagnostic=diag,
        converged=converged,
        mean=float(kept.mean()) if kept.size else math.nan,
        std=float(kept.std(ddof=1)) if kept.size > 1 else math.nan,
        n_excluded=int((~converged).sum()),
        n_capped=int(run.capped.sum()),
        n_reflections=int(run.n_reflections.sum()),
        trajectories=trajectories,
    )
