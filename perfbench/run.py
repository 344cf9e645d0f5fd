"""rdl benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload chains|monte_carlo|gromov_nets|cli_artifacts|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout of the repository (src/rdl and
BENCHMARK.json must be there).  Each sample is a fresh worker process
(perfbench/worker.py) with the BLAS/OpenMP thread variables pinned to 1;
workers run one at a time until --seconds is used up, and at least
MIN_WORKERS run.  With --trace 0 the end-to-end metrics are medians over
the workers (wall_s at reference speed, see run_wall_s); with --trace 1
traced and untraced workers alternate, and the per-layer metrics are the
medians over the traced ones, with the tracing overhead (traced minus
untraced wall_s) beside them.

Every output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
the environment and every metric by name, unit and sample count.  A full
record of the run goes to .bench_out/.

    python3 perfbench/run.py --workload NAME --record-digests N

writes the output digests of seeds 0..N-1 into perfbench/digests.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("chains", "monte_carlo", "gromov_nets", "cli_artifacts")
QUALITY = {  # end-to-end quality metrics of each workload: (name, unit)
    "chains": (("chain_ref_err", "-"), ("zero_two_e1_err", "-")),
    "monte_carlo": (("ks_mc_fp", "-"),),
    "gromov_nets": (("inexact_frac", "ratio"),),
}
MIN_WORKERS = 2
# The probe's time at reference speed: wall_s is the time a run takes on a
# machine where the probe takes this long (about its median on the 2-core
# x86_64 VM the benchmark was written on).
REF_PROBE_S = 0.004
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _cache_kb(level: int):
    try:
        for idx in sorted(os.listdir("/sys/devices/system/cpu/cpu0/cache")):
            base = f"/sys/devices/system/cpu/cpu0/cache/{idx}"
            with open(f"{base}/level") as fh:
                if int(fh.read()) != level:
                    continue
            with open(f"{base}/type") as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(f"{base}/size") as fh:
                return fh.read().strip()
    except (OSError, ValueError):
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": _cache_kb(2),
        "l3_cache": _cache_kb(3),
        "cpu": platform.processor() or platform.machine(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def run_worker(workload, seed, trace, limit_s):
    """One fresh worker process; returns its result dict, or None on timeout
    or crash (the caller counts that as a failed operation)."""
    out = os.path.join(OUT, f"worker-{os.getpid()}.json")
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", out]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(limit_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"worker timed out after {limit_s:.0f} s", file=sys.stderr)
        return None
    finally:
        try:  # the worker's own children (CLI subprocesses) end with it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if rc != 0 or not os.path.exists(out):
        print(f"worker exited with code {rc}", file=sys.stderr)
        return None
    with open(out) as fh:
        res = json.load(fh)
    os.remove(out)
    return res


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run_wall_s(workers) -> float:
    """Wall time of one workload run at reference speed, set-up excluded.

    Other load on a shared host slows every kind of work for seconds to
    minutes at a time, by up to half, so raw wall times of runs made minutes
    apart spread by a quarter.  Each worker times a fixed probe (worker.py,
    _probe_s) before every operation and after the last; an operation's time
    is scaled by REF_PROBE_S over the mean of the probes on either side of
    it.  Each operation's median over the workers is then summed."""
    if not workers:
        return 0.0
    total = 0.0
    for i, name in enumerate(workers[0]["op_s"]):
        total += statistics.median(
            w["op_s"][name] * 2.0 * REF_PROBE_S / (w["probe_s"][i] + w["probe_s"][i + 1])
            for w in workers)
    return total


def raw_wall_s(workers) -> float:
    """Unscaled: each operation's median wall time over the workers, summed."""
    if not workers:
        return 0.0
    return sum(statistics.median(w["op_s"][name] for w in workers) for name in workers[0]["op_s"])


def run(workload, seed, seconds, trace):
    """Run workers until `seconds` is used; return (results, failed_workers)."""
    start = time.perf_counter()
    results, failed_workers = [], 0
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        n = len(results) + failed_workers
        est = _median(durations)
        if n >= MIN_WORKERS and elapsed + est > seconds:
            break
        if n > 0 and elapsed + est > RUN_LIMIT_S:
            break
        traced = bool(trace) and n % 2 == 1
        t0 = time.perf_counter()
        res = run_worker(workload, seed, int(traced), RUN_LIMIT_S - elapsed)
        durations.append(time.perf_counter() - t0)
        if res is None:
            failed_workers += 1
            break
        res["traced"] = traced
        results.append(res)
        print(f"worker {n + 1}{' (traced)' if traced else ''}: wall_s={res['wall_s']:.4f} "
              f"setup_s={res['setup_s']:.4f} peak_rss_mb={res['peak_rss_mb']:.1f} "
              f"ops={res['attempted']} failed={res['failed']}", flush=True)
        for msg in res["failures"]:
            print(f"  FAIL {msg.strip()}", flush=True)
    return results, failed_workers


def check_repeats(results, bench) -> list:
    """Every worker of a run must produce the same output bytes, and every
    traced worker the same per-layer counts."""
    fails = []
    if results:
        first = results[0]["digests"]
        for i, res in enumerate(results[1:], start=2):
            for name, digest in res["digests"].items():
                if first.get(name) != digest:
                    fails.append(f"worker {i}: digest of {name} differs from worker 1")
    traced = [r["layers"] for r in results if r["traced"]]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"].startswith("count")]
    for layers in traced[1:]:
        for name in counts:
            if layers[name] != traced[0][name]:
                fails.append(f"count {name} differs between traced workers: "
                             f"{traced[0][name]} vs {layers[name]}")
    return fails


def summarize(workload, seed, seconds, trace, bench, env):
    results, failed_workers = run(workload, seed, seconds, trace)
    repeat_fails = check_repeats(results, bench)
    for msg in repeat_fails:
        print(f"  FAIL {msg}")
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted = sum(r["attempted"] for r in results) + failed_workers
    failed = sum(r["failed"] for r in results) + failed_workers + len(repeat_fails)
    ok = failed == 0 and bool(plain) and (bool(traced) or not trace)

    rows = []
    e2e = {
        "wall_s": plain,
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    metrics = {}
    for m in bench["end_to_end"]:
        vals = e2e[m["name"]]
        value = run_wall_s(vals) if m["name"] == "wall_s" else _median(vals)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        rows.append((m["name"], value, m["unit"], f"n={len(vals)}"))
    rows.append(("wall_raw_s", raw_wall_s(plain), "s", f"n={len(plain)}"))
    rows.append(("fail_frac", failed / max(attempted, 1), "ratio", f"{attempted} ops"))
    for name, unit in QUALITY.get(workload, ()):
        vals = [r["quality"][name] for r in results if name in r["quality"]]
        rows.append((name, _median(vals), unit, f"n={len(vals)}"))
    if trace:
        per = {}
        for m in bench["per_layer"]:
            name = m["name"]
            # raw times, comparable with the self times the spans give
            if name == "trace.wall_s":
                vals = [raw_wall_s(traced)]
            elif name == "trace.untraced_wall_s":
                vals = [raw_wall_s(plain)]
            elif name == "trace.overhead_s":
                vals = [raw_wall_s(traced) - raw_wall_s(plain)]
            else:
                vals = [r["layers"][name] for r in traced]
            per[name] = {"value": _median(vals), "unit": m["unit"]}
            rows.append((name, _median(vals), m["unit"], f"n={len(vals)}"))
        metrics = per
    print(f"{'metric':<44} {'value':>16}  {'unit':<14} samples")
    for name, value, unit, n in rows:
        print(f"{name:<44} {value:>16.6g}  {unit:<14} {n}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "workers": results, "rows": rows,
              "correct": ok, "attempted": attempted, "failed": failed}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_digests(workload, n_seeds) -> int:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    table[workload] = {}
    for seed in range(n_seeds):
        res = run_worker(workload, seed, 0, RUN_LIMIT_S)
        if res is None or res["failed"]:
            print(f"seed {seed}: run failed, nothing recorded", file=sys.stderr)
            return 1
        table[workload][str(seed)] = res["digests"]
        print(f"seed {seed}: {len(res['digests'])} digests", flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", type=int, default=0, metavar="N")
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "rdl", "__init__.py")) or not os.path.isfile(bench_path):
        print(f"error: run from a checkout of rdl; {SRC}/rdl or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    if args.record_digests:
        return record_digests(args.workload, args.record_digests)

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}", flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        print(f"== {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}", flush=True)
        summaries.append(summarize(name, args.seed, args.seconds, args.trace, bench, env))
    if len(summaries) == 1:
        final = summaries[0]
    else:
        final = {"correct": all(s["correct"] for s in summaries),
                 "attempted": sum(s["attempted"] for s in summaries),
                 "failed": sum(s["failed"] for s in summaries),
                 "metrics": {f"{n}.{k}": v for n, s in zip(names, summaries)
                             for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
