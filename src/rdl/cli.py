"""Command-line front end.

Subcommands:
  simulate   run half-plane or radial SDE paths, dump trajectory CSV
  report     asymptotic-invariant report (drift, entropy, volume, chains)
  gromov     Gromov distance between two finite pointed metric spaces
  kernel     export a radial kernel table for plotting

Every command writes a run manifest (<out>.manifest.json) echoing the full
configuration and the SHA-256 digests of its outputs; identical manifests
(minus wall time) imply identical output bytes.  The manifest is written
once the outputs are complete, and a manifest of an earlier run to the same
path is deleted first: a run that fails part way leaves none.  CSV
floats use 17 significant digits so regression files are bit-stable; a
column that every path or time block shares (simulate's t, kernel's r) is
formatted once.  simulate --space halfplane formats its rows in the
workers and writes them in path order as they come, a block of paths at a
time, so it never holds the whole file.

Start-up loads only the command's own modules: simulate loads the
simulator, kernel the heat kernels, gromov the distance search and report the
estimators, each on top of the model spaces.  No scipy loads at start-up
either: each scipy function is imported by its first call, so simulate,
gromov, and kernel and report on the catalog spaces and ensembles run without
it (the H^2 kernel's Gauss-Legendre rule and Gamma(m/2) are stored in the
package, and the quadrature is rdl's own Gauss-Kronrod bisection).  Each
output is hashed as it is written, so the manifest reads no file back.

Exit codes: 0 ok, 2 usage/input error (an OSError too, such as a full
disk or an --out that names a directory), 3 non-converged estimator or a
gromov result that is not exact (the witness and manifest are still
written), 4 internal invariant failure.  simulate --threads (default: the
usable core count) must be an integer >= 1; its manifest config records it,
and it caps the forked worker processes that run the paths, which are also
capped by the usable cores and get at least 256 paths each.  The output bytes
do not depend on it; the other commands run in one process and take no
--threads.
report and kernel name their --space e1, e2, e3, h2, h3 or halfplane, and
--kappa sets k on h2 and h3.  An option that the run would ignore may only
repeat its default or the fixed value: --kappa where the space or profile
fixes k and with --ensemble-file, and --r0 or --r-cap where the space or
profile does not use it.
simulate needs finite --t-max and --dt > 0 whose ratio is a finite whole
number of steps >= 1, and a finite --r0 > 0 below --r-cap where the cap
applies; report and kernel a finite --r-max > 0; report --t-grid
at least 4 distinct finite horizons > 0; kernel --points >= 1, each 2 pi t
finite, and on h2 and h3 each k^2 t a normal float with 2 pi k^2 t finite;
gromov a finite --tol >= 1e-6.  Space and ensemble files are read strictly: an
integer field is an integral number, and k, weights and the entries of a
dist matrix are finite numbers (never a bool or a string); an ensemble
component is a weight and a space; a pointed space, a model space, an
ensemble or an ensemble component with a key that is not read is an error,
and so are a model space without its dim or profile and a dim with no
kernel (euclidean takes 1-3, hyperbolic 2-3).
A report's JSON is strict: a value that is not finite, such as a volume
growth past the float range, is written as "inf" or "nan".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from ._csvblock import csv_block, shared_rows
from .model_spaces import KAIMANOVICH_R_CAP, HalfPlane, builtin_profile, space_from_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_INVARIANT = 4


class UsageError(ValueError):
    pass


_SPACE_ALIASES = {
    "e1": {"kind": "euclidean", "dim": 1},
    "e2": {"kind": "euclidean", "dim": 2},
    "e3": {"kind": "euclidean", "dim": 3},
    "h2": {"kind": "hyperbolic", "dim": 2},
    "h3": {"kind": "hyperbolic", "dim": 3},
    "halfplane": {"kind": "halfplane"},
}

# Default starting radius of `simulate --profile` paths.
_R0 = 1.0

# Parsed options that are not configuration: the dispatch and the output paths.
_NOT_CONFIG = ("func", "command", "out", "witness")


def _check_kappa(kappa, k, what):
    """--kappa may only repeat the k that a space or profile already fixes."""
    if kappa is not None and kappa != k:
        has = "no curvature parameter" if k is None else f"k = {k:g}"
        raise UsageError(f"--kappa {kappa:g} contradicts {what}, which has {has}")


def _check_default(value, default, flag, what):
    """An option that the run ignores may only keep its default."""
    if value != default:
        raise UsageError(f"{flag} has no effect with {what}; leave it at {default:g}")


def _space_from_args(name, kappa):
    desc = _SPACE_ALIASES.get(name.lower())
    if desc is None:
        raise UsageError(f"unknown space {name!r} (choose from {sorted(_SPACE_ALIASES)})")
    if desc["kind"] == "hyperbolic":
        desc = {**desc, "k": kappa if kappa is not None else 1.0}
    space = space_from_json(desc)
    _check_kappa(kappa, space.k, f"--space {name}")
    return space


def _write_manifest(command: str, config: dict, outputs: dict, wall: float) -> None:
    """The manifest of `outputs`, {path: SHA-256}, beside the first path."""
    if not outputs:
        return
    manifest = {
        "schema": "v2",
        "command": command,
        "config": config,
        "version": __version__,
        "wall_time_s": wall,
        "outputs": {os.path.basename(p): digest for p, digest in outputs.items()},
    }
    path = next(iter(outputs)) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write(path: str, chunks) -> str:
    """Write each chunk of bytes as it comes; the SHA-256 of the file."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            h.update(chunk)
            fh.write(chunk)
    return h.hexdigest()


def _write_csv(out: str, header: list, blocks) -> str:
    """The header row, then each block of rows (bytes) as it comes."""
    return _write(out, itertools.chain([(",".join(header) + "\n").encode()], blocks))


def _write_json(path: str, obj, **kwargs) -> str:
    return _write(path, [json.dumps(obj, **kwargs).encode()])


def _float_list(text: str) -> list:
    return [float(x) for x in text.split(",")]


# ------------------------------------------------------------------ simulate


def _cmd_simulate(args) -> tuple[int, dict]:
    from .sde_sim import SimConfig, halfplane_blocks, simulate_radial

    cfg = SimConfig(
        seed=args.seed,
        n_paths=args.paths,
        t_max=args.t_max,
        dt=args.dt,
        record_stride=args.record_stride,
        threads=args.threads,
    )
    args.threads = cfg.threads  # the manifest records the cap the run used
    if (args.space is None) == (args.profile is None):
        raise UsageError("give exactly one of --space or --profile")
    out = args.out
    if args.space is not None:
        if args.space.lower() != "halfplane":
            raise UsageError("--space supports only 'halfplane'; curved radial runs use --profile")
        _check_kappa(args.kappa, HalfPlane.k, "--space halfplane")
        _check_default(args.r0, _R0, "--r0", "--space halfplane")
        _check_default(args.r_cap, KAIMANOVICH_R_CAP, "--r-cap", "--space halfplane")
        columns = ("x", "y")
        # built before the workers fork; each worker formats its own paths' rows
        rows = shared_rows([cfg.record_steps(cfg.record_stride) * cfg.dt, None, None])
        blocks = halfplane_blocks(cfg, lambda lo, x, y: "".join(
            csv_block(f"{lo + i},", [x[i], y[i]], rows) for i in range(len(x))).encode())
    else:
        # the one profile that reads k; --kappa must repeat the others' fixed curvature
        surface = builtin_profile(args.profile, args.kappa if args.profile == "hyperbolic" else None)
        _check_kappa(args.kappa, surface.curvature, f"--profile {args.profile}")
        r_cap = args.r_cap if args.profile == "kaimanovich" else None
        if r_cap is None:
            _check_default(args.r_cap, KAIMANOVICH_R_CAP, "--r-cap", f"--profile {args.profile}")
        paths = simulate_radial(surface, cfg, r0=args.r0, r_cap=r_cap)
        columns = ("r", "h_minus_t", "theta")
        rows = shared_rows([paths[0].times, None, None, None])  # every path has the same times
        blocks = (csv_block(f"{i},", [getattr(p, c) for c in columns], rows).encode()
                  for i, p in enumerate(paths))
    digest = _write_csv(out, ["path_id", "t", *columns], blocks)
    print(f"wrote {out} ({cfg.n_paths} paths)")
    return EXIT_OK, {out: digest}


# -------------------------------------------------------------------- report


def _cmd_report(args) -> tuple[int, dict]:
    from .estimators import Ensemble, EstimatorError, EstimatorInputError, inequality_report

    if (args.space is None) == (args.ensemble_file is None):
        raise UsageError("give exactly one of --space or --ensemble-file")
    if args.ensemble_file:
        _check_kappa(args.kappa, None, "--ensemble-file")
        with open(args.ensemble_file) as fh:
            target = Ensemble.from_json_dict(json.load(fh))
    else:
        target = _space_from_args(args.space, args.kappa)
    try:
        report = inequality_report(target, t_grid=args.t_grid, r_max=args.r_max)
    except EstimatorInputError:
        raise  # a ValueError: main makes it a usage error
    except EstimatorError as e:  # an audit or mass check failed
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT, {}
    print(report.render_table())
    outputs = {}
    if args.out:
        outputs[args.out] = _write_json(args.out, report.to_json_dict(), indent=2, sort_keys=True,
                                        allow_nan=False)
    if not report.converged:
        print("non-converged estimate; rerun with a longer --t-grid", file=sys.stderr)
        return EXIT_NONCONVERGED, outputs
    if not report.all_pass():
        print("inequality chain violated: internal invariant failure", file=sys.stderr)
        return EXIT_INVARIANT, outputs
    return EXIT_OK, outputs


# -------------------------------------------------------------------- gromov


def _cmd_gromov(args) -> tuple[int, dict]:
    from .gromov import FinitePointedSpace, gromov_distance

    def load(path):
        with open(path) as fh:
            return FinitePointedSpace.from_json_dict(json.load(fh))

    a = load(args.a)
    b = load(args.b)
    res = gromov_distance(a, b, tol=args.tol)
    print(f"d_GS in [{res.lo:.9f}, {res.hi:.9f}]  (value = {res.value:.9f})  exact={res.exact}")
    outputs = {}
    if args.witness:
        if res.witness is None:
            print("no witness at the final bracket (distance = 1/2)", file=sys.stderr)
            # a witness from an earlier run must not stand beside this result
            with contextlib.suppress(FileNotFoundError):
                os.remove(args.witness)
        else:
            outputs[args.witness] = _write_json(
                args.witness, {"schema": "v1", "eps": res.hi, "cross": res.witness.tolist()})
    if not res.exact:
        print("partner search truncated: the lower end of the bracket may be wrong", file=sys.stderr)
        return EXIT_NONCONVERGED, outputs
    return EXIT_OK, outputs


# -------------------------------------------------------------------- kernel


def _cmd_kernel(args) -> tuple[int, dict]:
    from .heat_kernels import kernel_for

    # parsed here, not by argparse, so that the manifest keeps the --t string
    try:
        times = _float_list(args.t)
    except ValueError:
        raise UsageError(f"--t must be comma-separated numbers, got {args.t!r}") from None
    if not all(0.0 < t < math.inf for t in times):
        raise UsageError(f"--t must hold finite times > 0, got {args.t!r}")
    if not 0.0 < args.r_max < math.inf:
        raise UsageError(f"--r-max must be finite and > 0, got {args.r_max:g}")
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    space = _space_from_args(args.space, args.kappa)
    ker = kernel_for(space)
    for t in times:  # the horizon checks of log_q, before the file is opened
        ker.log_q(t, ())
    rs = np.linspace(0.0, args.r_max, args.points)
    rows = shared_rows([rs, None])
    digest = _write_csv(args.out, ["t", "r", "q"],
                        (csv_block("%.17g," % t, [ker.q(t, rs)], rows).encode() for t in times))
    print(f"wrote {args.out}")
    return EXIT_OK, {args.out: digest}


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rdl", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run SDE paths and dump a trajectory CSV")
    s.add_argument("--space", default=None, help="halfplane")
    s.add_argument("--profile", default=None, choices=["euclid", "hyperbolic", "kaimanovich"])
    s.add_argument("--kappa", type=float, default=None)
    s.add_argument("--t-max", dest="t_max", type=float, required=True)
    s.add_argument("--dt", type=float, default=1e-2)
    s.add_argument("--paths", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--r0", type=float, default=_R0, help="starting radius (--profile only)")
    s.add_argument("--r-cap", dest="r_cap", type=float, default=KAIMANOVICH_R_CAP,
                   help="radius at which paths freeze (--profile kaimanovich only)")
    s.add_argument("--record-stride", dest="record_stride", type=int, default=1)
    s.add_argument("--threads", type=int, default=None,
                   help="worker processes at most, an integer >= 1 (default: the usable "
                        "cores); never changes the output")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)

    r = sub.add_parser("report", help="asymptotic invariants and inequality chains")
    r.add_argument("--space", default=None)
    r.add_argument("--kappa", type=float, default=None)
    r.add_argument("--ensemble-file", dest="ensemble_file", default=None)
    r.add_argument("--t-grid", dest="t_grid", type=_float_list, default=None,
                   help="comma-separated horizons")
    r.add_argument("--r-max", dest="r_max", type=float, default=40.0)
    r.add_argument("--out", default=None, help="write the report JSON here")
    r.set_defaults(func=_cmd_report)

    g = sub.add_parser("gromov", help="Gromov distance between two finite pointed spaces")
    g.add_argument("--a", required=True)
    g.add_argument("--b", required=True)
    g.add_argument("--tol", type=float, default=1e-3)
    g.add_argument("--witness", default=None, help="dump the feasible cross matrix here")
    g.set_defaults(func=_cmd_gromov)

    k = sub.add_parser("kernel", help="export q(t, r) tables")
    k.add_argument("--space", required=True)
    k.add_argument("--kappa", type=float, default=None)
    k.add_argument("--t", default="1.0", help="comma-separated times")
    k.add_argument("--r-max", dest="r_max", type=float, default=10.0)
    k.add_argument("--points", type=int, default=201)
    k.add_argument("--out", required=True)
    k.set_defaults(func=_cmd_kernel)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        # a manifest from an earlier run must not vouch for what this one leaves
        first = getattr(args, "out", None) or getattr(args, "witness", None)
        if first:
            with contextlib.suppress(FileNotFoundError):
                os.remove(first + ".manifest.json")
        t0 = time.time()
        code, outputs = args.func(args)
        config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        _write_manifest(args.command, config, outputs, time.time() - t0)
    except (OSError, ValueError) as e:
        # UsageError, GeometryError, MetricError, JSONDecodeError and EstimatorInputError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as e:  # any other RuntimeError, such as a BrokenProcessPool, propagates
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    return code


if __name__ == "__main__":
    sys.exit(main())
