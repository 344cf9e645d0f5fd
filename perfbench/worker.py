"""One workload run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out RESULT.json

Set-up (timed as setup_s): import rdl, then build the workload's inputs from
the seed.  Run (timed as wall_s): every operation's calls into rdl, nothing
else.  Then every output is checked.  The result JSON holds the timings,
peak RSS, the operation and failure counts, quality numbers, output digests
and, with --trace 1, the reduced spans of the traced layers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _rusage_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import rdl  # noqa: F401
    import rdl.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.dirname(os.path.abspath(args.out)))
    cli = _CliRunner(tmp, traced=bool(args.trace))
    try:
        ops = workloads.build(args.workload, args.seed, tmp, cli.run)
        setup_s = time.perf_counter() - t0

        outputs, op_s, probe_s = [], [], []
        if tracer is not None:
            tracer.active = True
        for op in ops:
            probe_s.append(_probe_s())
            t_op = time.perf_counter()
            try:
                outputs.append((op, op.call(), None))
            except Exception:  # a failing operation is counted, and the run goes on
                outputs.append((op, None, traceback.format_exc(limit=3)))
            op_s.append(time.perf_counter() - t_op)
        probe_s.append(_probe_s())
        wall_s = sum(op_s)
        if tracer is not None:
            tracer.active = False
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_artifacts" else resource.RUSAGE_SELF
        peak_rss_mb = _rusage_mb(who)

        recorded = _recorded_digests(args.workload, args.seed)
        failures, infos = [], []
        for op, out, err in outputs:
            if err is None:
                try:
                    fails, info = op.check(out)
                except Exception:  # a check that cannot read the output fails the operation
                    fails, info = [traceback.format_exc(limit=3)], {}
                for name, digest in info.get("digests", {}).items():
                    if name in recorded and recorded[name] != digest:
                        fails.append(f"SHA-256 of {name} differs from the recorded digest")
            else:
                fails, info = [err], {}
            failures += [f"{op.name}: {msg}" for msg in fails]
            infos.append((op.name, bool(fails), info))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(1 for _, failed, _ in infos if failed),
        "failures": failures,
        "quality": _quality(infos),
        "digests": {k: v for _, _, info in infos for k, v in info.get("digests", {}).items()},
        "op_s": {op.name: secs for op, secs in zip(ops, op_s)},
        "probe_s": probe_s,
    }
    if tracer is not None:
        layers, spans = _layers(tracer, cli, infos, import_s)
        result["layers"] = layers
        # the spans themselves, [name, start, end, parent, work]; each traced
        # worker of a run overwrites the file, so the last one is kept
        spans_path = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                                  f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(spans, fh)
        if layers["trace.self_sum_s"] > wall_s:
            result["failed"] += 1
            failures.append(f"trace: self times sum to {layers['trace.self_sum_s']:.3f} s "
                            f"> traced wall {wall_s:.3f} s")
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _probe_s() -> float:
    """Seconds taken by a fixed piece of reference work: an interpreter loop,
    scipy quadrature and a numpy array pass, the three kinds of work the
    workloads do.  Timed next to each operation, it tells how fast the
    machine runs at that moment (see run.py, REF_PROBE_S).  `import rdl` has
    loaded numpy and scipy by then; importing them at the top instead would
    move their import out of setup_s."""
    import numpy as np
    from scipy.integrate import quad

    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(25):
        quad(_probe_integrand, 0.0, 8.0)
    x = np.linspace(0.0, 1.0, 20000)
    for _ in range(4):
        np.cumsum(np.sin(x) * x)
    return time.perf_counter() - t0


def _probe_integrand(r):
    return math.exp(-r * r) * math.sinh(r + 0.1)


def _recorded_digests(workload, seed) -> dict:
    """Digests recorded for this seed in digests.json (empty if none)."""
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


class _CliRunner:
    """Runs `python -m rdl.cli` (src on the path) one subprocess at a time.
    Traced runs go through cli_traced.py, which records the same spans."""

    def __init__(self, tmp, traced):
        self.tmp = tmp
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.shim_results = []

    def run(self, label, argv) -> int:
        if self.traced:
            spans_path = os.path.join(self.tmp, f"spans-{label}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans_path, label] + argv
        else:
            cmd = [sys.executable, "-m", "rdl.cli"] + argv
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.tmp, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, check=False)
        end = time.perf_counter()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if self.traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                shim = json.load(fh)
            shim["process"] = (start, end)
            self.shim_results.append(shim)
        return proc.returncode


def _quality(infos) -> dict:
    """The workload's end-to-end quality numbers (see README)."""
    q = {}
    ref = [info["ref_err"] for _, _, info in infos if "ref_err" in info]
    if ref:
        q["chain_ref_err"] = max(ref)
    ks = [info["ks"] for _, _, info in infos if "ks" in info]
    if ks:
        q["ks_mc_fp"] = max(ks)
    zero_two = [info["zero_two_err"] for _, _, info in infos if "zero_two_err" in info]
    if zero_two:
        q["zero_two_e1_err"] = max(zero_two)
    exact = [info["exact"] for _, _, info in infos if "exact" in info]
    if exact:
        q["inexact_frac"] = sum(1 for e in exact if not e) / len(exact)
    return q


def _layers(tracer, cli, infos, import_s):
    """Per-layer metrics of one traced run, and all its spans (the worker's
    and those of its CLI processes)."""
    import tracer as tracing

    spans = list(tracer.spans)
    counters = dict(tracer.counters)
    maxima = dict(tracer.maxima)
    cli_s = {}
    imports = [import_s]
    for shim in cli.shim_results:
        # one span per CLI process (start-up, import, exit); perf_counter is
        # the system-wide monotonic clock, so the process's spans nest in it
        root = len(spans)
        spans.append(["cli.process", *shim["process"], -1, 0])
        off = root + 1
        spans += [[n, s, e, p + off if p >= 0 else root, w] for n, s, e, p, w in shim["spans"]]
        cli_s[shim["label"]] = cli_s.get(shim["label"], 0.0) + shim["main_s"]
        imports.append(shim["import_s"])
        for k, v in shim["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
        for k, v in shim["maxima"].items():
            maxima[k] = max(maxima.get(k, 0.0), v)
    for _, _, info in infos:
        for k, v in info.get("counters", {}).items():
            counters[k] = counters.get(k, 0.0) + v
    stats = tracing.reduce_spans(spans)

    def st(name, key):
        return stats.get(name, {}).get(key, 0)

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    out_bytes = sum(info.get("out_bytes", 0) for _, _, info in infos)
    write_s = st("cli.main", "self_s")
    slacks = [info["min_slack"] for _, _, info in infos if "min_slack" in info]
    exact = [info["exact"] for _, _, info in infos if "exact" in info]
    tail = [info["counters"]["sde_sim.converged_frac"] for _, _, info in infos
            if "sde_sim.converged_frac" in info.get("counters", {})]
    h2_radii, other_radii = st("heat_kernels.log_q_h2", "work"), st("heat_kernels.log_q_other", "work")
    m = {
        "cli.import_s": statistics.median(imports),
        "cli.simulate_halfplane_s": cli_s.get("simulate_halfplane", 0.0),
        "cli.simulate_kaimanovich_s": cli_s.get("simulate_kaimanovich", 0.0),
        "cli.report_s": cli_s.get("report", 0.0),
        "cli.kernel_s": cli_s.get("kernel_h2", 0.0) + cli_s.get("kernel_h3", 0.0),
        "cli.gromov_s": cli_s.get("gromov", 0.0),
        "cli.out_bytes": out_bytes,
        "cli.write_s": write_s,
        "cli.write_mb_per_s": rate(out_bytes / 1e6, write_s),
        "sde_sim.radial_block.path_steps": st("sde_sim.radial_block", "work"),
        "sde_sim.radial_block.path_steps_per_s": rate(st("sde_sim.radial_block", "work"),
                                                      st("sde_sim.radial_block", "self_s")),
        "sde_sim.radial_block.alloc_mb": maxima.get("sde_sim.radial_block.alloc_mb", 0.0),
        "sde_sim.radial_block.peak_alloc_mb": maxima.get("sde_sim.radial_block.peak_alloc_mb", 0.0),
        "sde_sim.radial_scalar.path_steps_per_s": rate(st("sde_sim.radial_scalar", "work"),
                                                       st("sde_sim.radial_scalar", "self_s")),
        "sde_sim.halfplane.path_steps_per_s": rate(st("sde_sim.halfplane", "work"),
                                                   st("sde_sim.halfplane", "self_s")),
        "sde_sim.n_capped": counters.get("sde_sim.n_capped", 0),
        "sde_sim.n_reflections": counters.get("sde_sim.n_reflections", 0),
        "sde_sim.n_excluded": counters.get("sde_sim.n_excluded", 0),
        "sde_sim.converged_frac": tail[0] if tail else 0.0,
        "heat_kernels.log_q.radii": h2_radii + other_radii,
        "heat_kernels.log_q_h2.us_per_radius": 1e6 * rate(st("heat_kernels.log_q_h2", "self_s"), h2_radii),
        "heat_kernels.log_q_other.us_per_radius": 1e6 * rate(st("heat_kernels.log_q_other", "self_s"),
                                                             other_radii),
        "heat_kernels.log_q_s": st("heat_kernels.log_q_h2", "self_s") + st("heat_kernels.log_q_other",
                                                                           "self_s"),
        "heat_kernels.fokker_planck.cell_steps": st("heat_kernels.fokker_planck", "work"),
        "heat_kernels.fokker_planck.cell_steps_per_s": rate(st("heat_kernels.fokker_planck", "work"),
                                                            st("heat_kernels.fokker_planck", "self_s")),
        "heat_kernels.fokker_planck.leaked": counters.get("heat_kernels.fokker_planck.leaked", 0.0),
        "heat_kernels.fokker_planck.mass_drift": counters.get("heat_kernels.fokker_planck.mass_drift", 0.0),
        "heat_kernels.diagnostics_s": st("heat_kernels.diagnostics", "total_s"),
        "estimators.report_s": st("estimators.report", "total_s"),
        "estimators.self_s": st("estimators.report", "self_s") + st("estimators.entropy_rate", "self_s"),
        "estimators.quad_calls": counters.get("estimators.quad_calls", 0),
        "estimators.integrand_evals": counters.get("estimators.integrand_evals", 0),
        "estimators.entropy_cauchy_gap": maxima.get("estimators.entropy_cauchy_gap", 0.0),
        "estimators.min_normalized_slack": min(slacks) if slacks else 0.0,
        "model_spaces.volume_growth_s": st("model_spaces.volume_growth", "total_s"),
        "model_spaces.dist_to_many.calls": st("model_spaces.dist_to_many", "calls"),
        "model_spaces.dist_to_many_s": st("model_spaces.dist_to_many", "total_s"),
        "busemann.furstenberg_s": st("busemann.furstenberg", "total_s"),
        "busemann.k_functional_s": st("busemann.k_functional", "total_s"),
        "gromov.feasible.calls": st("gromov.feasible", "calls"),
        "gromov.feasible.nodes": counters.get("gromov.feasible.nodes", 0),
        "gromov.feasible.ms_per_node": 1e3 * rate(st("gromov.feasible", "self_s"),
                                                  counters.get("gromov.feasible.nodes", 0)),
        "gromov.feasible.node_alloc_mb": maxima.get("gromov.feasible.node_alloc_mb", 0.0),
        "gromov.bisection_steps": counters.get("gromov.bisection_steps", 0),
        "gromov.exact_frac": sum(exact) / len(exact) if exact else 0.0,
        "gromov.net_s": st("gromov.net", "total_s"),
        "gromov.net.points": counters.get("gromov.net.points", 0),
        "gromov.chain_glue_s": st("gromov.chain_glue", "total_s"),
        "gromov.lp_oracle_s": st("gromov.lp_oracle", "total_s"),
        "gromov.validate_s": st("gromov.validate", "total_s"),
        "gromov.validate.alloc_mb": maxima.get("gromov.validate.alloc_mb", 0.0),
        "trace.self_sum_s": sum(v["self_s"] for v in stats.values()),
    }
    return m, spans


if __name__ == "__main__":
    sys.exit(main())
