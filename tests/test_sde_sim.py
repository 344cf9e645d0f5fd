from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rdl
from rdl import sde_sim
from rdl.estimators import _horizon_moments
from rdl.heat_kernels import radial_fokker_planck
from rdl.model_spaces import HalfPlane, ProfileFunction, builtin_profile
from rdl.sde_sim import (
    KAIMANOVICH_R_CAP,
    SimConfig,
    kaimanovich_tail_limit,
    path_rng,
    radial_terminal,
    simulate_halfplane,
    simulate_radial,
)


# --------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=1, n_paths=10, t_max=1.0, dt=0.3)  # t_max/dt not integer
    with pytest.raises(ValueError):
        SimConfig(seed=1, n_paths=0, t_max=1.0, dt=0.1)
    with pytest.raises(ValueError):
        SimConfig(seed=-1, n_paths=1, t_max=1.0, dt=0.1)
    # a non-finite t_max, dt or step count t_max/dt, and a step count that rounds to 0
    for t_max, dt in [(math.inf, 0.01), (1.0, math.inf), (1.0, math.nan), (math.nan, 0.01), (1e300, 1e-300),
                      (1e-12, 1e-3)]:
        with pytest.raises(ValueError):
            SimConfig(seed=1, n_paths=1, t_max=t_max, dt=dt)


@pytest.mark.parametrize("field, value", [
    ("seed", 0.5), ("seed", True), ("n_paths", True), ("n_paths", 2.5), ("record_stride", 1.5),
    ("record_stride", "2"), ("threads", 1.5), ("threads", False),
])
def test_config_refuses_bools_and_fractions(field, value):
    # seed 0.5 ran seed 0's paths, seed True seed 1's and n_paths True one path;
    # n_paths 2.5 died in range() and record_stride 1.5 in indexing
    base = {"seed": 1, "n_paths": 2, "t_max": 1.0, "dt": 0.1, "record_stride": 1, "threads": 1}
    with pytest.raises(ValueError, match=f"^'{field}' must be an integer, got {value!r}$"):
        SimConfig(**{**base, field: value})


def test_config_takes_integral_numbers_as_ints():
    cfg = SimConfig(seed=np.int64(3), n_paths=4.0, t_max=1.0, dt=0.1, record_stride=np.uint8(2), threads=1)
    assert [type(v) for v in (cfg.seed, cfg.n_paths, cfg.record_stride, cfg.threads)] == [int] * 4
    assert (cfg.seed, cfg.n_paths, cfg.record_stride) == (3, 4, 2)


@pytest.mark.parametrize("stride, steps", [
    (20, [0, 20, 40, 60, 80, 100]),  # the last step falls on the stride: not repeated
    (30, [0, 30, 60, 90, 100]),
    (500, [0, 100]),
])
def test_record_steps_end_on_the_last_step(stride, steps):
    rec = SimConfig(seed=1, n_paths=1, t_max=1.0, dt=0.01).record_steps(stride)
    assert rec.dtype == np.int64 and rec.tolist() == steps


def test_path_streams_independent_of_batching():
    a = path_rng(3, 5).standard_normal(4)
    b = path_rng(3, 5).standard_normal(4)
    c = path_rng(3, 6).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1])
@pytest.mark.parametrize("substream", [0, 1])
def test_path_rng_is_philox_keyed_by_seed_and_path(seed, substream):
    for path in (0, 1, 7, 1000, 2 ** 40):
        key = np.array([seed, 2 * path + substream], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = path_rng(seed, path, substream)
        assert np.array_equal(got.standard_normal(300), want.standard_normal(300))
        assert got.integers(0, 2 ** 62, 5).tolist() == want.integers(0, 2 ** 62, 5).tolist()


def test_import_loads_no_numpy_random():
    # path_rng builds its seed-sequence type on first use, so start-up stays as it was
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rdl.__file__)))
    code = "import sys, rdl, rdl.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "False"


# ------------------------------------------------------------ half-plane


def test_halfplane_determinism():
    cfg = SimConfig(seed=11, n_paths=5, t_max=1.0, dt=0.01)
    p1 = simulate_halfplane(cfg)
    p2 = simulate_halfplane(cfg)
    for a, b in zip(p1, p2):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_halfplane_y_positive_and_log_mean():
    # E[log y_t] = log y0 - t/2 exactly (geometric Brownian motion)
    cfg = SimConfig(seed=4, n_paths=4000, t_max=10.0, dt=0.01, record_stride=1000)
    paths = simulate_halfplane(cfg)
    y_t = np.array([p.y[-1] for p in paths])
    assert (np.concatenate([p.y for p in paths]) > 0).all()
    mean = np.log(y_t).mean()
    se = np.log(y_t).std(ddof=1) / math.sqrt(len(y_t))
    assert abs(mean - (-5.0)) <= 3 * se


def test_halfplane_drift_matches_quadrature():
    # MC mean of d(o, w_t)/t vs the radial quadrature value, 3 combined SE
    t = 20.0
    cfg = SimConfig(seed=9, n_paths=4000, t_max=t, dt=0.01, record_stride=2000)
    paths = simulate_halfplane(cfg)
    d = np.array([HalfPlane().dist_to_many(np.column_stack([p.x, p.y]), (0.0, 1.0))[-1]
                  for p in paths])
    mc, se = d.mean() / t, d.std(ddof=1) / math.sqrt(len(d)) / t
    quad_val = _horizon_moments(HalfPlane(), [5.0, 10.0, 15.0, t])[0][t] / t
    assert abs(mc - quad_val) <= 3 * se


def test_halfplane_dt_consistency():
    # halving dt moves E d(o, w_t) by less than one standard error
    t = 4.0
    res = {}
    for dt in (0.02, 0.01):
        cfg = SimConfig(seed=21, n_paths=4000, t_max=t, dt=dt, record_stride=int(t / dt))
        paths = simulate_halfplane(cfg)
        d = np.array([HalfPlane().dist_to_many(np.column_stack([p.x, p.y]), (0.0, 1.0))[-1]
                      for p in paths])
        res[dt] = (d.mean(), d.std(ddof=1) / math.sqrt(len(d)))
    assert abs(res[0.02][0] - res[0.01][0]) < max(res[0.02][1], res[0.01][1])


# ----------------------------------------------------------------- radial


def _oracle_radial(profile, cfg, r0, r_cap=None):
    """Reference integrator: one path at a time, one scalar step at a time.

    Same streams, update order and cap rule as the vectorised integrator.
    Profile functions see 1-element arrays, because numpy's scalar and array
    loops may round differently (a scalar ``x ** 2`` is a pow call, an array
    one a multiply).
    """

    def ev(f, x):
        return float(f(np.array([x]))[0])

    def h(x):
        return np.log1p(x * x)

    n, dt = cfg.n_steps, cfg.dt
    keep = np.zeros(n + 1, dtype=bool)
    keep[::cfg.record_stride] = True
    keep[-1] = True
    out = []
    for i in range(cfg.n_paths):
        dX = path_rng(cfg.seed, i, substream=0).standard_normal(n) * math.sqrt(dt)
        ang = path_rng(cfg.seed, i, substream=1).standard_normal(n)
        r, tau, theta, hmt = r0, 0.0, 0.0, ev(h, r0)
        rows = [(r, hmt, tau, theta)]
        reflections, cap_time = 0, None
        for s in range(n):
            if cap_time is None:
                r = r + ev(profile.drift, r) * dt + dX[s]
                if r <= 0.0:
                    reflections += 1
                    r = abs(r)
                t = (s + 1) * dt
                hmt = ev(h, r) - t
                d_tau = ev(profile.inv_p_sq, r) * dt
                tau += d_tau
                theta += math.sqrt(d_tau) * ang[s]
                if r_cap is not None and r >= r_cap:
                    cap_time = t
            rows.append((r, hmt, tau, theta))
        rec = np.array(rows)[keep]
        out.append({"times": np.flatnonzero(keep) * dt, "r": rec[:, 0], "h_minus_t": rec[:, 1],
                    "tau": rec[:, 2], "theta": rec[:, 3], "n_reflections": reflections,
                    "capped": cap_time is not None, "cap_time": cap_time})
    return out


def _radial_bytes(paths) -> bytes:
    return b"".join(
        np.concatenate([p.times, p.r, p.h_minus_t, p.tau, p.theta]).tobytes()
        + repr((p.n_reflections, p.capped, p.cap_time)).encode()
        for p in paths
    )


def test_radial_block_matches_per_path():
    # full recorded trajectories equal the scalar oracle bit for bit
    cases = [
        (builtin_profile("euclid"), SimConfig(seed=4, n_paths=5, t_max=1.0, dt=1e-3, record_stride=7),
         0.05, None),
        (builtin_profile("hyperbolic", 1.0), SimConfig(seed=5, n_paths=4, t_max=2.0, dt=1e-3), 0.5, 3.5),
        (builtin_profile("hyperbolic", 0.7), SimConfig(seed=6, n_paths=4, t_max=1.0, dt=1e-3,
                                                       record_stride=3), 0.2, None),
        (builtin_profile("kaimanovich"), SimConfig(seed=77, n_paths=4, t_max=10.0, dt=1e-2,
                                                   record_stride=10), 1.0, 50.0),
    ]
    wants = []
    for prof, cfg, r0, r_cap in cases:
        got = simulate_radial(prof, cfg, r0=r0, r_cap=r_cap)
        want = _oracle_radial(prof, cfg, r0=r0, r_cap=r_cap)
        wants.append(want)
        for p, q in zip(got, want, strict=True):
            for key in ("times", "r", "h_minus_t", "tau", "theta"):
                assert np.array_equal(getattr(p, key), q[key]), (prof.label, key)
            assert (p.n_reflections, p.capped, p.cap_time) == (
                q["n_reflections"], q["capped"], q["cap_time"]), prof.label
        term = radial_terminal(prof, cfg, r0=r0, r_cap=r_cap)
        assert np.array_equal(term.r, [q["r"][-1] for q in want])
        assert np.array_equal(term.h_minus_t, [q["h_minus_t"][-1] for q in want])
    # the cases exercise the reflection and the cap, also where 1/p^2 > 0 at the cap
    assert sum(q["n_reflections"] for q in wants[0]) > 0
    assert 0 < sum(q["capped"] for q in wants[1]) < len(wants[1])
    assert all(q["capped"] for q in wants[-1])


def test_radial_first_paths_independent_of_batch_size():
    prof = builtin_profile("kaimanovich")
    small = SimConfig(seed=12, n_paths=3, t_max=2.0, dt=1e-3, record_stride=50)
    large = SimConfig(seed=12, n_paths=8, t_max=2.0, dt=1e-3, record_stride=50)
    a = simulate_radial(prof, small, r0=1.0, r_cap=3.0)
    b = simulate_radial(prof, large, r0=1.0, r_cap=3.0)
    assert _radial_bytes(a) == _radial_bytes(b[:3])
    ta = radial_terminal(prof, small, r0=1.0, r_cap=3.0)
    tb = radial_terminal(prof, large, r0=1.0, r_cap=3.0)
    assert np.array_equal(ta.r, tb.r[:3]) and np.array_equal(ta.h_minus_t, tb.h_minus_t[:3])


def test_radial_bytes_independent_of_step_block(monkeypatch):
    # 2000 steps: the default block splits them in two, 7 into 286 blocks,
    # and 5000 runs them as one
    prof = builtin_profile("hyperbolic", 1.0)
    cfg = SimConfig(seed=21, n_paths=5, t_max=2.0, dt=1e-3, record_stride=30)

    def run():
        tail = kaimanovich_tail_limit(cfg, n_trajectories=2)
        term = radial_terminal(prof, cfg, r0=0.3)
        return (_radial_bytes(simulate_radial(prof, cfg, r0=0.3)),
                term.r.tobytes() + term.h_minus_t.tobytes(),
                tail.L.tobytes() + tail.diagnostic.tobytes(), _radial_bytes(tail.trajectories))

    reference = run()
    for block in (7, 5000):
        monkeypatch.setattr(sde_sim, "_STEP_BLOCK", block)
        assert run() == reference


def test_radial_ks_against_fp_oracle():
    # euclid profile from near the pole: law of r_1 ~ 2-D Bessel
    prof = builtin_profile("euclid")
    grid = radial_fokker_planck(prof, r0=0.01, dt=4e-5, dr=0.01, t_max=1.0, r_max=8.0)
    cfg = SimConfig(seed=42, n_paths=4000, t_max=1.0, dt=2e-4)
    term = radial_terminal(prof, cfg, r0=0.01)
    dr = grid.r_centers[1] - grid.r_centers[0]
    cdf = np.cumsum(grid.marginal(1.0)) * dr
    emp = np.searchsorted(np.sort(term.r), grid.r_centers, side="right") / term.r.size
    assert np.max(np.abs(emp - cdf)) <= 0.05


def test_radial_hyperbolic_drift_increment_is_half():
    # long-run radial speed on H^2 (same space as the half-plane, other chart):
    # E[r_20 - r_19] -> 1/2 exponentially fast
    prof = builtin_profile("hyperbolic", 1.0)
    cfg20 = SimConfig(seed=33, n_paths=3000, t_max=20.0, dt=0.01)
    cfg19 = SimConfig(seed=33, n_paths=3000, t_max=19.0, dt=0.01)
    r20 = radial_terminal(prof, cfg20, r0=1.0).r
    r19 = radial_terminal(prof, cfg19, r0=1.0).r
    inc = r20 - r19  # same streams, coupled paths
    se = inc.std(ddof=1) / math.sqrt(len(inc))
    assert abs(inc.mean() - 0.5) <= 3 * se


def test_radial_reflection_counted_and_rare():
    cfg = SimConfig(seed=2, n_paths=200, t_max=1.0, dt=1e-3)
    paths = simulate_radial(builtin_profile("hyperbolic", 1.0), cfg, r0=1.0)
    refl = sum(p.n_reflections for p in paths)
    assert refl <= 2  # from r0 = 1 the pole is essentially never reached
    assert all((p.r > 0).all() for p in paths)


def test_radial_tau_nondecreasing_and_theta_finite():
    cfg = SimConfig(seed=8, n_paths=4, t_max=1.0, dt=1e-3, record_stride=50)
    paths = simulate_radial(builtin_profile("hyperbolic", 1.0), cfg, r0=0.3)
    for p in paths:
        assert (np.diff(p.tau) >= 0).all()
        assert np.isfinite(p.theta).all()


# ------------------------------------------------------------ kaimanovich


def test_kaimanovich_profile_constants():
    prof = builtin_profile("kaimanovich")
    assert float(prof.drift(1.0)) == pytest.approx(1.0, abs=1e-15)  # f(1) = (1+1)/2
    assert math.log(1 + 1.0 ** 2) == pytest.approx(math.log(2.0))       # H(1) = log 2


def test_kaimanovich_ito_drift_of_H_at_one():
    # dH = h dX + (1 + h'/2) dt with h = 1/f; finite differences give h'(1) = 0
    def h(r):
        return 2.0 * r / (1.0 + r * r)

    eps = 1e-6
    h_prime = (h(1.0 + eps) - h(1.0 - eps)) / (2 * eps)
    assert h_prime == pytest.approx(0.0, abs=1e-9)
    assert 1.0 + 0.5 * h_prime == pytest.approx(1.0, abs=1e-9)


def test_kaimanovich_paths_escape_linearly():
    # fraction of paths with r_t > t/2 at t = 10 exceeds 0.99
    cfg = SimConfig(seed=3, n_paths=300, t_max=10.0, dt=1e-3)
    term = radial_terminal(builtin_profile("kaimanovich"), cfg, r0=1.0, r_cap=KAIMANOVICH_R_CAP)
    assert np.mean(term.r > 5.0) > 0.99


def test_kaimanovich_tail_limit_statistics():
    cfg = SimConfig(seed=123, n_paths=300, t_max=10.0, dt=1e-3)
    res = kaimanovich_tail_limit(cfg)
    assert res.converged.mean() >= 0.9
    assert res.std > 0.1        # non-degenerate limit law
    assert res.n_excluded == int((~res.converged).sum())
    total_steps = 300 * 10000
    assert res.n_reflections / total_steps < 1e-4


def test_kaimanovich_angular_clock_converges():
    # ensemble mean of tau_{t_max} - tau_{t_max/2} <= 1e-3 at t_max = 10
    cfg = SimConfig(seed=6, n_paths=50, t_max=10.0, dt=1e-3, record_stride=2500)
    paths = simulate_radial(builtin_profile("kaimanovich"), cfg, r0=1.0,
                            r_cap=KAIMANOVICH_R_CAP)
    gaps = []
    for p in paths:
        i_half = int(np.argmin(np.abs(p.times - 5.0)))
        gaps.append(p.tau[-1] - p.tau[i_half])
    assert np.mean(gaps) <= 1e-3


def test_kaimanovich_cap_freezes_whole_state():
    cfg = SimConfig(seed=77, n_paths=40, t_max=10.0, dt=1e-3, record_stride=100)
    paths = simulate_radial(builtin_profile("kaimanovich"), cfg, r0=1.0, r_cap=50.0)
    capped = [p for p in paths if p.capped]
    assert capped, "expected some capped paths at r_cap = 50"
    for p in capped:
        i = int(np.searchsorted(p.times, p.cap_time))
        assert (p.r[i:] == p.r[-1]).all()
        assert (p.h_minus_t[i:] == p.h_minus_t[-1]).all()
        assert (p.tau[i:] == p.tau[-1]).all()


def test_kaimanovich_tail_limit_needs_whole_steps_per_unit():
    # the last-unit diagnostic reads records one time unit apart
    for dt, t_max in ((0.4, 2.0), (0.6, 3.0)):
        with pytest.raises(ValueError, match="1/dt"):
            kaimanovich_tail_limit(SimConfig(seed=1, n_paths=3, t_max=t_max, dt=dt))


@pytest.mark.parametrize("n_trajectories", [True, 1.5, "2"])
def test_kaimanovich_tail_limit_refuses_a_trajectory_count_that_is_not_an_integer(n_trajectories):
    # True returned one figure path
    with pytest.raises(ValueError, match="'n_trajectories' must be an integer"):
        kaimanovich_tail_limit(SimConfig(seed=1, n_paths=3, t_max=2.0, dt=0.01), n_trajectories=n_trajectories)


def test_kaimanovich_tail_limit_reads_an_integral_float_trajectory_count():
    res = kaimanovich_tail_limit(SimConfig(seed=1, n_paths=3, t_max=2.0, dt=0.01), n_trajectories=2.0)
    assert len(res.trajectories) == 2


def test_kaimanovich_trajectory_dump():
    cfg = SimConfig(seed=1, n_paths=12, t_max=2.0, dt=1e-3, record_stride=100)
    res = kaimanovich_tail_limit(cfg, n_trajectories=10)
    assert len(res.trajectories) == 10
    # trajectories start at H(1) - 0 = log 2
    for tr in res.trajectories:
        assert tr.h_minus_t[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_radial_determinism_across_r_cap_paths():
    # paths that never hit the cap are unchanged by enabling it
    cfg = SimConfig(seed=15, n_paths=30, t_max=4.0, dt=1e-3)
    prof = builtin_profile("kaimanovich")
    free = radial_terminal(prof, cfg, r0=1.0, r_cap=None)
    capped = radial_terminal(prof, cfg, r0=1.0, r_cap=1e6)
    assert np.array_equal(free.r, capped.r)


# ----------------------------------------------------------------- workers

# Two minimum chunks and a remainder: a run of this many paths splits
# whenever two cores are usable.
_SPLIT = 2 * sde_sim._MIN_CHUNK + 37


def _halfplane_bytes(paths) -> bytes:
    return b"".join(np.concatenate([p.times, p.x, p.y]).tobytes() for p in paths)


def _every_simulator(threads):
    cfg = SimConfig(seed=31, n_paths=_SPLIT, t_max=2.0, dt=1e-2, record_stride=7, threads=threads)
    term = radial_terminal(builtin_profile("hyperbolic", 0.7), cfg, r0=0.05)
    paths = simulate_radial(builtin_profile("kaimanovich"), cfg, r0=1.0, r_cap=3.0)
    tail = kaimanovich_tail_limit(cfg, n_trajectories=2)
    counts = (term.n_reflections, sum(p.capped for p in paths), tail.n_excluded)
    return counts, (
        term.r.tobytes() + term.h_minus_t.tobytes(),
        _radial_bytes(paths),
        tail.L.tobytes() + tail.diagnostic.tobytes() + _radial_bytes(tail.trajectories),
        _halfplane_bytes(simulate_halfplane(cfg)),
    )


def test_worker_count_does_not_change_bytes():
    import multiprocessing

    reference = _every_simulator(1)
    # the runs reflect, cap and exclude paths, so every per-path field is exercised
    assert all(reference[0]), reference[0]
    for threads in (2, 16):
        assert _every_simulator(threads) == reference
        assert multiprocessing.active_children() == []  # no worker outlives its call


def test_worker_count_above_one_where_cores_allow():
    if sde_sim._usable_cores() < 2:
        pytest.skip("one usable core: every run stays in-process")
    for threads in (2, 16, None):
        assert sde_sim._n_workers(SimConfig(seed=1, n_paths=_SPLIT, t_max=1.0, threads=threads)) > 1
    assert sde_sim._n_workers(SimConfig(seed=1, n_paths=_SPLIT, t_max=1.0, threads=1)) == 1
    small = 2 * sde_sim._MIN_CHUNK - 1
    assert sde_sim._n_workers(SimConfig(seed=1, n_paths=small, t_max=1.0, threads=16)) == 1


def test_one_worker_while_other_threads_run():
    # fork copies only the calling thread, so a threaded caller runs in-process
    import threading

    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert sde_sim._n_workers(SimConfig(seed=1, n_paths=_SPLIT, t_max=1.0, threads=2)) == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_threads_must_be_positive():
    with pytest.raises(ValueError, match="threads must be an integer >= 1, got 0"):
        SimConfig(seed=1, n_paths=1, t_max=1.0, threads=0)
    assert SimConfig(seed=1, n_paths=1, t_max=1.0).threads == sde_sim._usable_cores()


# p = r exp(r^3): drift 1/(2r) + 3r^2/2 explodes in finite time from r0 = 1
_EXPLOSIVE = ProfileFunction(label="explosive", k=None, p=lambda r: r * np.exp(r ** 3),
                             drift=lambda r: 0.5 / r + 1.5 * r * r,
                             inv_p_sq=lambda r: np.exp(-2.0 * r ** 3) / (r * r))


@pytest.mark.parametrize("seed, chunk", [(0, 0), (1, 1)])
def test_overflow_message_independent_of_worker_count(seed, chunk):
    # with seed 1 both chunks overflow, the second one first (t = 0.35 against 0.355):
    # the pooled run must raise the second chunk's error, as one process does
    def message(threads):
        cfg = SimConfig(seed=seed, n_paths=_SPLIT, t_max=2.0, dt=1e-3, threads=threads)
        with pytest.raises(OverflowError) as err:
            radial_terminal(_EXPLOSIVE, cfg, r0=1.0)
        return str(err.value)

    serial = message(1)
    path = int(serial.split()[1])
    assert (path >= _SPLIT // 2) == bool(chunk)
    assert message(2) == message(16) == serial


_SMALL = SimConfig(seed=1, n_paths=2, t_max=1.0, dt=0.1)


@pytest.mark.parametrize("call, fragment", [
    (lambda: SimConfig(seed=1, n_paths=1, t_max=1.0, dt=0.1, record_stride=0), "record_stride must be >= 1"),
    (lambda: simulate_radial(builtin_profile("euclid"), _SMALL, r0=0.0), "need r0 > 0"),
    (lambda: radial_terminal(builtin_profile("hyperbolic"), _SMALL, r0=-1.0), "need r0 > 0"),
    (lambda: kaimanovich_tail_limit(SimConfig(seed=1, n_paths=2, t_max=1.0, dt=0.5)), "need t_max >= 2"),
    (lambda: kaimanovich_tail_limit(SimConfig(seed=1, n_paths=2, t_max=2.5, dt=0.5)),
     "t_max must be an integer number of time units"),
    # these returned 5 and 0 figure paths
    (lambda: kaimanovich_tail_limit(SimConfig(seed=1, n_paths=5, t_max=2.0, dt=0.5), n_trajectories=20),
     r"n_trajectories must be in \[0, 5\], got 20"),
    (lambda: kaimanovich_tail_limit(SimConfig(seed=1, n_paths=5, t_max=2.0, dt=0.5), n_trajectories=-3),
     r"n_trajectories must be in \[0, 5\], got -3"),
    # NaN passed the r0 guard, inf overflowed; a NaN cap never capped, and a cap at
    # or below r0 froze every path after its first step
    (lambda: simulate_radial(builtin_profile("euclid"), _SMALL, r0=math.nan), "need r0 > 0"),
    (lambda: radial_terminal(builtin_profile("euclid"), _SMALL, r0=math.inf), "need r0 > 0"),
    (lambda: simulate_radial(builtin_profile("kaimanovich"), _SMALL, r0=1.0, r_cap=math.nan),
     "need r_cap > r0"),
    (lambda: simulate_radial(builtin_profile("kaimanovich"), _SMALL, r0=1.0, r_cap=-1.0), "need r_cap > r0"),
    (lambda: radial_terminal(builtin_profile("kaimanovich"), _SMALL, r0=1.0, r_cap=0.5), "need r_cap > r0"),
    (lambda: radial_terminal(builtin_profile("kaimanovich"), _SMALL, r0=1.0, r_cap=1.0), "need r_cap > r0"),
], ids=["record-stride", "radial-r0", "terminal-r0", "tail-short", "tail-fractional",
        "tail-too-many-trajectories", "tail-negative-trajectories", "radial-r0-nan", "terminal-r0-inf",
        "radial-cap-nan", "radial-cap-negative", "terminal-cap-below-r0", "terminal-cap-at-r0"])
def test_sim_input_checks(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


# ------------------------------------------------- one run per tail limit


@pytest.mark.parametrize("k", [1, 10, _SPLIT])
def test_tail_limit_trajectories_are_the_radial_paths(k):
    # one run gives L and the figure paths; the figure paths are the first k
    # paths that simulate_radial gives on its own.  100 steps per unit and a
    # stride of 7: the two record grids differ.  Two workers split the traced
    # paths when k = _SPLIT.
    cfg = SimConfig(seed=2024, n_paths=_SPLIT, t_max=12.0, dt=1e-2, record_stride=7, threads=2)
    res = kaimanovich_tail_limit(cfg, n_trajectories=k)
    sub = SimConfig(seed=2024, n_paths=k, t_max=12.0, dt=1e-2, record_stride=7, threads=2)
    want = simulate_radial(builtin_profile("kaimanovich"), sub, r0=1.0, r_cap=KAIMANOVICH_R_CAP)
    assert _radial_bytes(res.trajectories) == _radial_bytes(want)
    assert res.trajectories[0].times[1] == 0.07
    if k == _SPLIT:
        assert 0 < sum(p.capped for p in want) < k
        assert np.array_equal(res.L, [p.h_minus_t[-1] for p in want])


def _stepwise_clock(profile, cfg, r0, r_cap):
    """tau and theta at cfg's record steps, advanced one vectorised step at a
    time under the step's active mask; and the capped flags."""
    n, dt, m = cfg.n_steps, cfg.dt, cfg.n_paths
    dX = np.array([path_rng(cfg.seed, i).standard_normal(n) for i in range(m)]).T * math.sqrt(dt)
    ang = np.array([path_rng(cfg.seed, i, substream=1).standard_normal(n) for i in range(m)]).T
    r, tau, theta = np.full(m, r0), np.zeros(m), np.zeros(m)
    frozen = np.zeros(m, dtype=bool)
    rows = [(tau, theta)]
    for s in range(n):
        active = ~frozen
        r = np.where(active, np.abs(r + profile.drift(r) * dt + dX[s]), r)
        d_tau = profile.inv_p_sq(r) * dt
        tau = np.where(active, tau + d_tau, tau)
        theta = np.where(active, theta + np.sqrt(d_tau) * ang[s], theta)
        if r_cap is not None:
            frozen |= active & (r >= r_cap)
        rows.append((tau, theta))
    tau, theta = (np.array(x)[cfg.record_steps(cfg.record_stride)] for x in zip(*rows))
    return tau, theta, frozen


@pytest.mark.parametrize("label, r0, r_cap", [
    ("kaimanovich", 1.0, 4.0), ("hyperbolic", 0.05, 2.5), ("hyperbolic", 0.05, None)])
def test_block_clock_matches_the_stepwise_loop(monkeypatch, label, r0, r_cap):
    # 4000 steps: four step blocks.  The capped paths freeze inside the second,
    # third and fourth, where 1/p^2 is still above 0, so the step a path
    # freezes in adds to its clock and the next one does not.  With blocks of
    # 9 steps every traced record falls on a block edge.
    prof = builtin_profile(label)
    cfg = SimConfig(seed=2024, n_paths=10, t_max=4.0, dt=1e-3, record_stride=9)
    tau, theta, frozen = _stepwise_clock(prof, cfg, r0, r_cap)
    for block in (sde_sim._STEP_BLOCK, 9):
        monkeypatch.setattr(sde_sim, "_STEP_BLOCK", block)
        paths = simulate_radial(prof, cfg, r0=r0, r_cap=r_cap)
        assert np.array_equal(np.array([p.tau for p in paths]).T, tau), block
        assert np.array_equal(np.array([p.theta for p in paths]).T, theta), block
        assert np.array_equal([p.capped for p in paths], frozen), block
    if r_cap is not None:
        assert 0 < frozen.sum() < len(frozen)
