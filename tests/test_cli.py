from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import rdl
import rdl.cli
import rdl.estimators
import rdl.model_spaces
import rdl.sde_sim
from rdl._csvblock import csv_block, shared_rows
from rdl.cli import EXIT_INVARIANT, EXIT_NONCONVERGED, EXIT_OK, EXIT_USAGE, main
from rdl.gromov import AdmissibleExtension, FinitePointedSpace, gromov_distance, net_from_manifold
from rdl.model_spaces import Euclidean


def _write_space(path, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    sp = FinitePointedSpace(d)
    path.write_text(json.dumps(sp.to_json_dict()))
    return sp


def test_simulate_halfplane_csv_and_manifest(tmp_path):
    out = tmp_path / "paths.csv"
    rc = main(["simulate", "--space", "halfplane", "--t-max", "1", "--dt", "0.01",
               "--paths", "7", "--seed", "1", "--record-stride", "20",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "path_id,t,x,y"
    assert sum(1 for ln in lines[1:] if ln.startswith("0,")) == sum(
        1 for ln in lines[1:] if ln.startswith("6,")
    )
    manifest = json.loads((tmp_path / "paths.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "paths.csv" in manifest["outputs"]


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--profile", "kaimanovich", "--t-max", "2", "--dt", "0.001",
            "--paths", "5", "--seed", "9", "--record-stride", "100"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert ma["outputs"]["a.csv"] == mb["outputs"]["b.csv"]


# the default thread count: every usable core
CORES = len(os.sched_getaffinity(0))


@pytest.mark.parametrize("kind", [["--space", "halfplane"], ["--profile", "hyperbolic"]],
                         ids=["halfplane", "hyperbolic"])
def test_simulate_bytes_independent_of_thread_count(tmp_path, kind):
    # 600 paths are two minimum chunks: on two or more cores the default count, --threads 2
    # and 16 fork workers
    digests = set()
    for threads in (None, "1", "2", "16"):
        out = tmp_path / f"hp{threads}.csv"
        flag = [] if threads is None else ["--threads", threads]
        assert main(["simulate", *flag, *kind, "--t-max", "1",
                     "--paths", "600", "--seed", "3", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / f"hp{threads}.csv.manifest.json").read_text())
        assert manifest["config"]["threads"] == int(threads or CORES)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][out.name] == digest
        digests.add(digest)
    assert len(digests) == 1


def test_halfplane_bytes_independent_of_block_size(tmp_path, monkeypatch):
    # 101 records per path: blocks of 7 paths leave a last block of 5 of the 600
    argv = ["simulate", "--space", "halfplane", "--t-max", "1", "--paths", "600", "--seed", "3"]
    ref = tmp_path / "ref.csv"
    assert main([*argv, "--threads", "1", "--out", str(ref)]) == EXIT_OK
    monkeypatch.setattr(rdl.sde_sim, "_BLOCK_ROWS", 7 * 101)
    for threads in ("1", "2"):
        out = tmp_path / f"hp{threads}.csv"
        assert main([*argv, "--threads", threads, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("argv, output", [
    (["simulate", "--threads", "1", "--space", "halfplane", "--t-max", "1", "--paths", "600",
      "--out", "hp.csv"], "hp.csv"),
    (["simulate", "--threads", "2", "--space", "halfplane", "--t-max", "1", "--paths", "600",
      "--out", "hp.csv"], "hp.csv"),
    (["simulate", "--profile", "kaimanovich", "--t-max", "2", "--paths", "5", "--record-stride", "10",
      "--out", "ka.csv"], "ka.csv"),
    (["kernel", "--space", "h3", "--t", "1,4", "--points", "11", "--out", "k3.csv"], "k3.csv"),
    (["report", "--space", "halfplane", "--out", "rep.json"], "rep.json"),
    (["gromov", "--a", "a.json", "--b", "b.json", "--witness", "w.json"], "w.json"),
], ids=["halfplane-threads-1", "halfplane-threads-2", "kaimanovich", "kernel", "report", "gromov"])
def test_manifest_digest_is_the_sha256_of_the_written_file(tmp_path, monkeypatch, argv, output):
    # the writers hash each block as they write it; 7 paths a block streams 86 half-plane blocks
    monkeypatch.setattr(rdl.sde_sim, "_BLOCK_ROWS", 7 * 101)
    monkeypatch.chdir(tmp_path)
    _write_space(tmp_path / "a.json", [[0.0], [1.0]])
    _write_space(tmp_path / "b.json", [[0.0], [0.5], [1.5]])
    assert main(argv) == EXIT_OK
    manifest = json.loads((tmp_path / f"{output}.manifest.json").read_text())
    assert manifest["outputs"] == {output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()}


@pytest.mark.parametrize("error, code", [
    (rdl.estimators.EstimatorError("audit"), EXIT_INVARIANT),
    (rdl.estimators.EstimatorInputError("horizon"), EXIT_USAGE),
], ids=["estimator-error", "estimator-input-error"])
def test_estimator_errors_keep_their_exit_codes(monkeypatch, capsys, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(rdl.estimators, "inequality_report", fail)
    assert main(["report", "--space", "h2"]) == code
    assert capsys.readouterr().err.endswith(f"{error}\n")


@pytest.mark.parametrize("error", [RuntimeError("plain"), BrokenProcessPool("a worker died")],
                         ids=["runtime-error", "broken-pool"])
@pytest.mark.parametrize("module, name, argv", [
    (rdl.estimators, "inequality_report", ["report", "--space", "h2"]),
    (rdl.sde_sim, "halfplane_blocks", ["simulate", "--space", "halfplane", "--t-max", "1"]),
], ids=["report", "simulate"])
def test_other_runtime_errors_propagate_out_of_main(tmp_path, monkeypatch, module, name, argv, error):
    # only EstimatorError is an invariant failure; a dead worker is not one of rdl's
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, fail)
    with pytest.raises(type(error), match=str(error)):
        main([*argv, "--out", str(tmp_path / "out")])


def _full_disk_after(monkeypatch, paths):
    """Make csv_block raise ENOSPC once it has formatted `paths` paths."""
    calls = 0

    def full_disk(lead, cols, rows):
        nonlocal calls
        calls += 1
        if calls > paths:
            raise OSError(28, "No space left on device")
        return csv_block(lead, cols, rows)

    monkeypatch.setattr(rdl.cli, "csv_block", full_disk)  # forked workers inherit it
    monkeypatch.setattr(rdl.sde_sim, "_BLOCK_ROWS", 101)  # a block per path


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_failing_mid_stream_leaves_no_manifest(tmp_path, monkeypatch, capsys, threads):
    import multiprocessing

    _full_disk_after(monkeypatch, 3)
    out = tmp_path / "hp.csv"
    assert main(["simulate", "--threads", threads, "--space", "halfplane", "--t-max", "1",
                 "--paths", "600", "--out", str(out)]) == EXIT_USAGE
    assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
    rows = out.read_text().count("\n") - 1  # whole paths in path order, then the failure
    assert rows % 101 == 0 and 3 * 101 <= rows < 600 * 101
    assert not (tmp_path / "hp.csv.manifest.json").exists()
    assert multiprocessing.active_children() == []


def test_failing_rerun_removes_the_earlier_manifest(tmp_path, monkeypatch, capsys):
    out = tmp_path / "hp.csv"
    argv = ["simulate", "--threads", "1", "--space", "halfplane", "--t-max", "1",
            "--paths", "5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "hp.csv.manifest.json").exists()
    _full_disk_after(monkeypatch, 2)
    assert main([*argv, "--seed", "9"]) == EXIT_USAGE
    assert "No space left" in capsys.readouterr().err
    assert out.read_text().count("\n") - 1 == 2 * 101
    assert not (tmp_path / "hp.csv.manifest.json").exists()


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    assert main(["kernel", "--space", "h2", "--points", "3", "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert os.listdir(tmp_path) == []


EDGE_VALUES = [-0.0, 5e-324, 1e308, 0.1, 1.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("cols", [
    [EDGE_VALUES, EDGE_VALUES[::-1], np.roll(EDGE_VALUES, 3)],
    [[0.1], [-0.0], [math.nan], [5e-324]],
    [np.arange(5) * 0.01, np.linspace(-1e-300, 7.0, 5)],
    [[], []],
])
def test_csv_block_matches_per_row_format(cols):
    def per_row(lead):
        return "".join(lead + ",".join(f"{float(x):.17g}" for x in row) + "\n" for row in zip(*cols))

    # one column shared by every block of a file, formatted once into the row templates
    for j in range(len(cols)):
        shared = shared_rows([c if i == j else None for i, c in enumerate(cols)])
        others = [c for i, c in enumerate(cols) if i != j]
        for lead in ("7,", "", "1e-05,"):
            assert csv_block(lead, others, shared) == per_row(lead)


# SHA-256 of each output as a per-row f"{x:.17g}" writer produces it
@pytest.mark.parametrize("argv, digest", [
    (["simulate", "--space", "halfplane", "--paths", "3", "--t-max", "1", "--record-stride", "7"],
     "bf76438a146bf67181a771cf28e1fd64425417ad9d34ae2278de1185f60fe484"),
    (["simulate", "--profile", "kaimanovich", "--paths", "2", "--t-max", "1", "--dt", "0.001",
      "--record-stride", "100"],
     "83127e34ac5fafa40de7003e44c3b8a885cb5b7396db55ee26f9927fab4b5473"),
    (["kernel", "--space", "h2", "--t", "1,4", "--points", "11"],
     "f4a19927cea79f44dcf6c87c76564aac50f451d6bda180f5f7e1f333238ad2f5"),
])
def test_cli_writers_golden_bytes(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Runs main(argv) (none if argv is empty) after `import rdl, rdl.cli`, then
# prints the exit code and the scipy modules loaded.
_SCIPY_PROBE = """
import json, sys
import rdl, rdl.cli
rc = rdl.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("argv", [
    [],
    ["simulate", "--space", "halfplane", "--paths", "2", "--t-max", "1"],
    ["simulate", "--profile", "kaimanovich", "--paths", "2", "--t-max", "1"],
    ["kernel", "--space", "h3", "--t", "1,4", "--points", "5"],
    ["kernel", "--space", "h2", "--t", "1,4", "--points", "5"],
    ["gromov", "--a", "a.json", "--b", "b.json"],
    ["report", "--space", "h2"],
    ["report", "--space", "h3"],
    ["report", "--space", "e3"],
    ["report", "--space", "halfplane"],
    ["report", "--ensemble-file", "mix.json"],
], ids=["import", "simulate-halfplane", "simulate-kaimanovich", "kernel-h3", "kernel-h2", "gromov",
        "report-h2", "report-h3", "report-e3", "report-halfplane", "report-ensemble"])
def test_commands_that_need_no_scipy_do_not_load_it(tmp_path, argv):
    """scipy is most of the start-up time of a process; only the calls that use it load it."""
    _write_space(tmp_path / "a.json", [[0.0], [1.0]])
    _write_space(tmp_path / "b.json", [[0.0], [0.5], [1.5]])
    (tmp_path / "mix.json").write_text(json.dumps({"components": _H2_H3}))
    if argv and argv[0] != "gromov":
        argv = argv + ["--out", "out.csv"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rdl.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == EXIT_OK
    assert loaded == []


# Runs `import rdl`, then main(argv) from rdl.cli if argv is not empty, and
# prints the exit code and the rdl submodules loaded.
_MODULE_PROBE = """
import json, sys
import rdl
rc = 0
if sys.argv[1:]:
    import rdl.cli
    rc = rdl.cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m.split(".")[1] for m in sys.modules if m.startswith("rdl."))]))
"""

_ALL_MODULES = {"busemann", "cli", "estimators", "gromov", "heat_kernels", "model_spaces", "sde_sim"}


@pytest.mark.parametrize("argv, loads, skips", [
    ([], set(), _ALL_MODULES),
    (["simulate", "--space", "halfplane", "--paths", "2", "--t-max", "1", "--out", "o.csv"],
     {"sde_sim"}, {"estimators", "heat_kernels", "gromov", "busemann", "_quadpack"}),
    (["simulate", "--profile", "kaimanovich", "--paths", "2", "--t-max", "2", "--out", "o.csv"],
     {"sde_sim"}, {"estimators", "heat_kernels", "gromov", "busemann", "_quadpack"}),
    (["kernel", "--space", "h2", "--points", "5", "--out", "o.csv"],
     {"heat_kernels"}, {"sde_sim", "estimators", "gromov", "_quadpack"}),
    (["gromov", "--a", "a.json", "--b", "b.json", "--witness", "w.json"],
     {"gromov"}, {"sde_sim", "estimators", "heat_kernels", "_quadpack"}),
    (["report", "--space", "h2", "--out", "o.json"], {"estimators"}, {"gromov", "sde_sim"}),
    (["report", "--space", "halfplane", "--out", "o.json"], {"estimators", "busemann"},
     {"gromov", "sde_sim"}),
], ids=["import", "simulate-halfplane", "simulate-kaimanovich", "kernel", "gromov", "report-h2",
        "report-halfplane"])
def test_each_command_loads_only_its_own_modules(tmp_path, argv, loads, skips):
    """Without cached bytecode a process compiles every module it loads, so a
    command loads its own modules and the model spaces, and no other; only
    report integrates with rdl's QAGS."""
    _write_space(tmp_path / "a.json", [[0.0], [1.0]])
    _write_space(tmp_path / "b.json", [[0.0], [0.5], [1.5]])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rdl.__file__)))
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == EXIT_OK
    assert loads <= set(loaded)
    assert not skips & set(loaded)


def test_simulate_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--t-max", "1", "--out", out]) == EXIT_USAGE
    assert main(["simulate", "--space", "sol", "--t-max", "1", "--out", out]) == EXIT_USAGE
    assert main(["simulate", "--profile", "nope", "--t-max", "1", "--out", out]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["--space", "halfplane", "--t-max", "inf"],
    ["--space", "halfplane", "--t-max", "1e300", "--dt", "1e-300"],
    ["--profile", "euclid", "--t-max", "1", "--dt", "inf"],
    ["--profile", "kaimanovich", "--t-max", "nan"],
], ids=["t-max-inf", "steps-overflow", "dt-inf", "t-max-nan"])
def test_simulate_non_finite_step_count_is_usage_error(tmp_path, capsys, argv):
    # t_max/dt = inf used to reach round() and exit 4 with an OverflowError
    out = tmp_path / "x.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_report_h2(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(["report", "--space", "h2", "--kappa", "1",
               "--t-grid", "5,10,20,30,39,40", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["schema"] == "v1"
    assert abs(rep["ell"] - 0.5) < 5e-3
    assert abs(rep["entropy_h"] - 0.5) < 2e-2
    assert abs(rep["volume_v"] - 1.0) < 1e-2
    assert all(e["pass"] for e in rep["inequalities"])
    table = capsys.readouterr().out
    assert "pass" in table


def test_report_euclidean_passes(tmp_path):
    rc = main(["report", "--space", "e2", "--t-grid", "500,1000,2400,2500"])
    assert rc == EXIT_OK


def test_report_nonconverged_exit_code():
    # a too-short horizon fails the increment Cauchy test on H^2
    rc = main(["report", "--space", "h2", "--t-grid", "0.5,1,1.5,2"])
    assert rc == EXIT_NONCONVERGED


_H2 = {"kind": "hyperbolic", "dim": 2}
_H2_H3 = [{"weight": 0.5, "space": _H2}, {"weight": 0.5, "space": {"kind": "hyperbolic", "dim": 3}}]


def test_report_ensemble_mixture(tmp_path):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"components": _H2_H3}))
    out = tmp_path / "rep.json"
    rc = main(["report", "--ensemble-file", str(mix), "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    # H^2 has ell = 1/2, h = 1/2; H^3 has ell = 1, h = 2
    assert rep["ell"] == pytest.approx(0.75, abs=1e-2)
    assert rep["ell_plus"] == pytest.approx(1.0, abs=1e-2)
    assert rep["entropy_h"] == pytest.approx(1.25, abs=2e-2)
    assert [c["space"]["dim"] for c in rep["space"]["components"]] == [2, 3]


@pytest.mark.parametrize("argv", [
    ["--space", "h3", "--r-max", "400"],
    # math.cosh raised OverflowError in the ball volume: exit 4, "math range error"
    ["--space", "h2", "--r-max", "800"],
    ["--space", "h2", "--kappa", "30"],
    ["--space", "halfplane", "--r-max", "800"],
], ids=["h3-r-max-400", "h2-r-max-800", "h2-kappa-30", "halfplane-r-max-800"])
def test_report_volume_overflow_is_flagged_in_strict_json(tmp_path, capsys, argv):
    out = tmp_path / "rep.json"
    assert main(["report", *argv, "--out", str(out)]) == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    # strict JSON: the infinite volume growth is the string "inf", not Infinity
    rep = json.loads(out.read_text(), parse_constant=reject)
    assert rep["volume_v"] == "inf" and rep["volume_finite"] is False
    assert rep["flags"] == ["volume growth not finite: inequality chain vacuous"]
    v_row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("v "))
    assert v_row.split()[1] == "inf"


def test_report_r_max_too_small_for_a_ball_volume_is_usage_error(tmp_path, capsys):
    # a fitted volume of 0 took log 0, reported v = nan, printed it as rhs=inf and exited 4,
    # "internal invariant failure"; pi r^2 is 0 in floats below r ~ 1e-162
    out = tmp_path / "rep.json"
    assert main(["report", "--space", "h2", "--r-max", "1e-170", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ball volume is 0 at the fitted radius r = 5e-171;")
    assert not out.exists()


@pytest.mark.parametrize("space", ["h2", "h3"])
def test_report_at_a_tiny_kappa_fits_the_flat_volume_growth(tmp_path, space):
    # the ball volumes cancelled to 0 and the run exited 2: "r_max = 40 is too small"
    out = tmp_path / "rep.json"
    assert main(["report", "--space", space, "--kappa", "1e-20", "--out", str(out)]) == EXIT_OK
    dim = int(space[1])  # log of r^dim over [20, 40]: a slope of about dim log(2) / 20
    assert json.loads(out.read_text())["volume_v"] == pytest.approx(dim * math.log(2) / 20, rel=0.1)


def test_report_r_max_too_small_to_resolve_a_slope_is_usage_error(tmp_path, capsys):
    # radii this small against 1 fitted the slope v = 0, and h <= ell v failed with exit 4
    out = tmp_path / "rep.json"
    assert main(["report", "--space", "h2", "--r-max", "1e-150", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: r_max = 1e-150 is too small to fit a growth rate")
    assert not out.exists()


@pytest.mark.parametrize("v, rhs", [(math.nan, "nan"), (-math.inf, "-inf")])
def test_report_table_prints_a_non_finite_rhs_as_python_does(monkeypatch, capsys, v, rhs):
    # every right-hand side that was not finite printed as "inf", and h <= ell v
    # passed with a right-hand side of -inf
    monkeypatch.setattr(rdl.model_spaces.ModelManifold, "volume_growth",
                        lambda self, r_max: rdl.model_spaces.VolumeGrowthEstimate(v, True))
    assert main(["report", "--space", "h2"]) == EXIT_INVARIANT
    row = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("h_le_ell_v"))
    assert f" rhs={rhs} [FAIL]" in row


def test_report_ensemble_with_out_of_catalog_component_is_usage_error(tmp_path, capsys):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"components": [
        {"weight": 0.5, "space": {"kind": "rotsym", "profile": "kaimanovich"}},
        {"weight": 0.5, "space": {"kind": "hyperbolic", "dim": 2}},
    ]}))
    assert main(["report", "--ensemble-file", str(mix)]) == EXIT_USAGE
    assert "no closed-form kernel" in capsys.readouterr().err


@pytest.mark.parametrize("components, message", [
    ([{"weight": 0.5, "space": _H2}, {"weight": 0.6, "space": _H2}], "sum to 1"),
    ([{"weight": 1.0}], "missing the key 'space'"),
    # a mixture of bare drifts was a second kind of ensemble; a component is now a space
    ([{"weight": 1.0, "drift": 0.5}], "missing the key 'space'"),
    ([{"space": _H2}], "missing the key 'weight'"),
    (None, "missing the key 'components'"),
    # each key was dropped: {"kk": 3} gave a report on H^2 at k = 1
    ([{"weight": 1.0, "space": {"kind": "hyperbolic", "dim": 2, "kk": 3}}], "unknown key 'kk'"),
    ([{"weight": 1.0, "space": _H2, "label": "H2"}], "unknown key 'label'"),
], ids=["weights", "neither", "drift", "no-weight", "no-components", "space-kk", "space-label"])
def test_report_bad_ensemble_file_is_usage_error(tmp_path, capsys, components, message):
    # bad input, not an invariant failure: exit 2, not 4
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({} if components is None else {"components": components}))
    assert main(["report", "--ensemble-file", str(mix)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("component, message", [
    ({"weight": 1.0, "space": _H2, "drift": 0.5}, "unknown key 'drift'"),
], ids=["space-and-drift"])
def test_report_ambiguous_ensemble_component_is_usage_error(tmp_path, capsys, component, message):
    # it exited 0 and the drift was dropped
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"components": [component]}))
    out = tmp_path / "rep.json"
    assert main(["report", "--ensemble-file", str(mix), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command, content, message", [
    ("report", [1], "an ensemble is a JSON object with the keys ['components'], got list"),
    ("report", {"zz": 1}, "an ensemble is missing the key 'components'"),
    ("report", {"components": [{"weight": 1, "space": _H2}], "zz": 1}, "unknown key 'zz' in an ensemble"),
    ("report", {"components": 5}, "an ensemble's 'components' is a list, got int"),
    ("report", {"components": [5]}, "an ensemble component is a JSON object with the keys ['weight', 'space'], got int"),
    ("report", {"components": [{"weight": 1, "zz": 1}]}, "an ensemble component is missing the key 'space'"),
    ("report", {"components": [{"weight": 1, "space": _H2, "zz": 1}]}, "unknown key 'zz' in an ensemble component"),
    ("report", {"components": [{"weight": 1, "space": [1]}]}, "a space is a JSON object with the keys ['kind'], got list"),
    ("report", {"components": [{"weight": 1, "space": {"kind": "euclidean", "zz": 1}}]},
     "a euclidean space is missing the key 'dim'"),
    ("gromov", [[0]], "a pointed space is a JSON object with the keys ['dist'], got list"),
    ("gromov", {"n": 1, "zz": 1}, "a pointed space is missing the key 'dist'"),
    ("gromov", {"dist": [[0]], "zz": 1}, "unknown key 'zz' in a pointed space"),
], ids=["ensemble-list", "ensemble-missing", "ensemble-unknown", "components-int", "component-int",
        "component-missing", "component-unknown", "space-list", "space-missing", "pointed-list",
        "pointed-missing", "pointed-unknown"])
def test_json_object_faults_name_the_object_and_exit_2(tmp_path, capsys, command, content, message):
    # every object a command reads goes through one reader: a non-object, then
    # a missing key, then an unknown key, each named with the object's kind
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    if command == "report":
        argv = ["report", "--ensemble-file", str(path)]
    else:
        other = tmp_path / "b.json"
        _write_space(other, [[0.0]])
        argv = ["gromov", "--a", str(path), "--b", str(other)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("content", [
    [1, 2],
    {"components": 5},
    {"components": [{"space": [1], "weight": 1}]},
    {"components": [{"weight": [1], "space": _H2}]},
    {"components": [{"weight": math.nan, "space": _H2}]},
    {"components": [{"weight": 0.5, "space": _H2}, {"weight": math.nan, "space": _H2}]},
    # int() used to read these dims as 2, 1 and 2, and the report went ahead
    {"components": [{"weight": 1, "space": {"kind": "euclidean", "dim": 2.9}}]},
    {"components": [{"weight": 1, "space": {"kind": "euclidean", "dim": True}}]},
    {"components": [{"weight": 1, "space": {"kind": "hyperbolic", "dim": "2"}}]},
    # k = NaN passed k <= 0 and the report failed its kernel mass check (exit 4)
    {"components": [{"weight": 1, "space": {"kind": "hyperbolic", "dim": 2, "k": math.nan}}]},
    {"components": [{"weight": 1, "space": {"kind": "hyperbolic", "dim": 3, "k": math.inf}}]},
    # float() used to read these bools and strings as numbers, and the report went ahead
    {"components": [{"weight": 1, "space": {"kind": "hyperbolic", "dim": 2, "k": True}}]},
    {"components": [{"weight": 1, "space": {"kind": "hyperbolic", "dim": 2, "k": "2"}}]},
    {"components": [{"weight": "1", "space": _H2}]},
    {"components": [{"weight": True, "space": _H2}]},
    # an integer beyond the float range used to raise OverflowError (exit 4)
    {"components": [{"weight": 10 ** 400, "space": _H2}]},
    # a top-level key besides 'components' was dropped, and the report went ahead
    {"components": [{"weight": 1, "space": _H2}], "extra": 1},
], ids=["list", "components-int", "space-list", "weight-list", "weight-nan", "second-weight-nan",
        "dim-fractional", "dim-true", "dim-string", "k-nan", "k-inf", "k-true", "k-string",
        "weight-string", "weight-true", "weight-huge", "top-level-extra"])
def test_report_malformed_ensemble_file_is_usage_error(tmp_path, capsys, content):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps(content))
    assert main(["report", "--ensemble-file", str(mix)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("components, argv, option", [
    ([{"weight": 1.0, "space": {"kind": "euclidean", "dim": 1}}], ["--kappa", "2"], "--kappa"),
], ids=["kappa-spaces"])
def test_report_ensemble_option_the_run_ignores_is_usage_error(tmp_path, capsys, components,
                                                               argv, option):
    # it exited 0 and recorded the ignored option in the manifest
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"components": components}))
    out = tmp_path / "rep.json"
    assert main(["report", "--ensemble-file", str(mix), *argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1
    assert not out.exists()


def test_report_short_t_grid_is_usage_error(capsys):
    assert main(["report", "--space", "h2", "--t-grid", "1,2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: t_grid needs >= 4 points\n"


@pytest.mark.parametrize("grid", ["5,10,40,40", "nan,10,39,40", "10,nan,39,40", "5,10,39,inf",
                                  "0,10,39,40", "10,-1,39,40"],
                         ids=["repeated", "nan-first", "nan-inside", "inf", "zero", "negative"])
def test_report_t_grid_of_bad_horizons_is_usage_error(tmp_path, capsys, grid):
    # a repeated horizon died with a ZeroDivisionError traceback, a leading NaN
    # was written into the report's t_grid with exit 0, and an inner NaN or inf
    # exited 4 on a zero kernel mass; zero and negative horizons exited 2 with
    # a kernel's message
    out = tmp_path / "rep.json"
    assert main(["report", "--space", "h2", "--t-grid", grid, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: t_grid needs distinct finite horizons > 0") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, t", [
    (["--space", "e2", "--t-grid", "1e-30,2e-30,3e-30,4e-30"], "1e-30"),
    (["--space", "h2", "--t-grid", "1e-30,2e-30,3e-30,4e-30"], "1e-30"),
    (["--space", "h2", "--kappa", "3000"], "5.55556e-07"),
    (["--space", "h2", "--kappa", "1e4"], "5e-08"),
], ids=["e2-1e-30", "h2-1e-30", "h2-kappa-3000", "h2-kappa-1e4"])
def test_report_horizon_too_small_to_resolve_is_usage_error(tmp_path, capsys, argv, t):
    # the first 21-node rule on [ridge, R] read only zeros: exit 4 on the kernel
    # mass check or the drift audit
    out = tmp_path / "rep.json"
    assert main(["report", *argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: horizon t = {t} is too small on ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_report_horizon_too_large_to_resolve_says_so(tmp_path, capsys):
    # on H^2, sqrt(t) / R falls as t grows: t = 2e6 is under the cut because
    # it is large, and the message called it too small
    out = tmp_path / "rep.json"
    argv = ["report", "--space", "h2", "--t-grid", "1e6,2e6,3e6,4e6", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: horizon t = 2e+06 is too large on hyperbolic(dim=2,k=1): ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, fragment", [
    (["kernel", "--space", "h2", "--kappa", "1e-200", "--t", "1", "--points", "3"], "need k^2 t to be a normal"),
    (["kernel", "--space", "h3", "--kappa", "1e-170", "--t", "1", "--points", "3"], "need k^2 t to be a normal"),
    (["kernel", "--space", "h2", "--kappa", "1e-160", "--t", "1", "--points", "3"], "need k^2 t to be a normal"),
    (["report", "--space", "h2", "--kappa", "1e-200"], "need k^2 to be a normal float"),
    (["report", "--space", "h3", "--kappa", "1e200"], "need k^2 to be a normal float"),
], ids=["kernel-h2-1e-200", "kernel-h3-1e-170", "kernel-h2-1e-160", "report-h2-1e-200", "report-h3-1e200"])
def test_curvature_whose_square_is_not_a_normal_float_is_usage_error(tmp_path, capsys, argv, fragment):
    # kernel wrote q = 0 (h2) or NaN (h3) and exited 0; report raised
    # ZeroDivisionError from the default grid's t / k^2 (exit 1)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and err.count("\n") == 1
    assert not (tmp_path / "out.manifest.json").exists()


def test_report_at_the_largest_default_kappa_that_resolves_keeps_its_bytes(tmp_path):
    # the first default horizon of --kappa 1000 sits at sqrt(t) = 4.4e-4 of the
    # truncation radius, above the cut of too-small horizons
    out = tmp_path / "rep.json"
    assert main(["report", "--space", "h2", "--kappa", "1000", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3199e07f7529ff457c775c773c5f572a7b045f8da0e81686e1bac90b6e5c55ad")


def test_report_failed_invariant_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(rdl.estimators, "_MASS_TOL", 2.0)  # no kernel can carry mass 2
    assert main(["report", "--space", "h2"]) == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith("invariant failure: kernel mass")


def test_report_rising_drift_ratio_exits_4(monkeypatch, tmp_path, capsys):
    # subadditive, but ell_t/t rises from 0.75 at t = 2 to 0.8 at t = 3; the
    # audit was computed and dropped, and the report went ahead
    ell = {1.0: 1.0, 2.0: 1.5, 3.0: 2.4, 4.0: 2.5}
    fit = rdl.estimators.drift_subadditive_limit(ell)
    assert fit.subadditivity_violations == [] and not fit.ratio_monotone
    h = {2.0: 1.0, 3.0: 1.5, 4.0: 2.0}
    monkeypatch.setattr(rdl.estimators, "_horizon_moments", lambda space, t_grid: (ell, h))
    out = tmp_path / "rep.json"
    assert main(["report", "--space", "h2", "--out", str(out)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: drift audit failed") and "non-increasing: False" in err
    assert not out.exists()


def test_report_usage(tmp_path):
    assert main(["report"]) == EXIT_USAGE
    assert main(["report", "--space", "h2", "--ensemble-file", "x.json"]) == EXIT_USAGE
    assert main(["report", "--space", "nope"]) == EXIT_USAGE


def test_gromov_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_space(a, [[0.0]])
    _write_space(b, [[0.0], [1.0]])
    rc = main(["gromov", "--a", str(a), "--b", str(b), "--tol", "1e-3"])
    assert rc == EXIT_OK
    outp = capsys.readouterr().out
    assert "0.5" in outp


def test_gromov_cli_reports_exactness(tmp_path, capsys):
    angles = np.arange(6) * np.pi / 3
    hexagon = np.column_stack([np.cos(angles), np.sin(angles)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_space(a, np.vstack([[0.0, 0.0], hexagon]))
    _write_space(b, np.vstack([[0.0, 0.0], 1.3 * (hexagon @ [[np.cos(0.3), np.sin(0.3)],
                                                             [-np.sin(0.3), np.cos(0.3)]])]))
    assert main(["gromov", "--a", str(a), "--b", str(b), "--tol", "1e-3"]) == EXIT_NONCONVERGED
    cap = capsys.readouterr()
    assert "(value = 0.500000000)  exact=False" in cap.out
    assert "truncated" in cap.err and "lower end" in cap.err

    _write_space(a, [[0.0], [0.5]])
    _write_space(b, [[0.0], [0.6]])
    assert main(["gromov", "--a", str(a), "--b", str(b), "--tol", "1e-3"]) == EXIT_OK
    cap = capsys.readouterr()
    assert cap.out.rstrip().endswith("exact=True")
    assert "truncated" not in cap.err


def test_gromov_cli_inexact_result_exits_3_with_witness_and_manifest(tmp_path, capsys):
    spaces = [net_from_manifold(Euclidean(2), 1.0, 0.5, seed=s) for s in (1, 2)]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, sp in zip(paths, spaces):
        path.write_text(json.dumps(sp.to_json_dict()))
    w = tmp_path / "w.json"
    assert main(["gromov", "--a", str(paths[0]), "--b", str(paths[1]), "--tol", "1e-3",
                 "--witness", str(w)]) == EXIT_NONCONVERGED
    assert "exact=False" in capsys.readouterr().out
    res = gromov_distance(*(FinitePointedSpace.from_json_dict(json.loads(p.read_text()))
                            for p in paths), tol=1e-3)
    assert not res.exact and res.witness is not None
    blob = {"schema": "v1", "eps": res.hi, "cross": res.witness.tolist()}
    assert w.read_text() == json.dumps(blob)
    manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
    assert manifest["outputs"] == {"w.json": hashlib.sha256(w.read_bytes()).hexdigest()}


def test_gromov_cli_witness_roundtrip(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    sa = _write_space(a, [[0.0], [0.5]])
    sb = _write_space(b, [[0.0], [0.6]])
    w = tmp_path / "w.json"
    rc = main(["gromov", "--a", str(a), "--b", str(b), "--tol", "1e-3",
               "--witness", str(w)])
    assert rc == EXIT_OK
    blob = json.loads(w.read_text())
    AdmissibleExtension(np.array(blob["cross"])).validate(sa.dist, sb.dist)


def test_gromov_cli_without_a_witness_removes_an_earlier_one(tmp_path, capsys):
    # at d = 1/2 there is no witness; the file an earlier run wrote at
    # --witness must not stay behind beside this run's result
    a, b, w = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "w.json"
    _write_space(a, [[0.0], [0.5]])
    _write_space(b, [[0.0], [0.6]])
    assert main(["gromov", "--a", str(a), "--b", str(b), "--witness", str(w)]) == EXIT_OK
    assert w.exists() and (tmp_path / "w.json.manifest.json").exists()
    _write_space(a, [[0.0]])
    b.write_text(json.dumps({"dist": [[0, 1.5], [1.5, 0]]}))
    assert main(["gromov", "--a", str(a), "--b", str(b), "--witness", str(w)]) == EXIT_OK
    assert "no witness at the final bracket" in capsys.readouterr().err
    assert not w.exists() and not (tmp_path / "w.json.manifest.json").exists()


def test_gromov_cli_invalid_matrix_lists_triangle(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 3, "basepoint": 0,
        "dist": [[0, 5, 1], [5, 0, 1], [1, 1, 0]],
    }))
    other = tmp_path / "b.json"
    _write_space(other, [[0.0]])
    rc = main(["gromov", "--a", str(bad), "--b", str(other)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "triangle" in err


def test_gromov_cli_nonzero_basepoint_is_usage_error(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"n": 2, "basepoint": 1, "dist": [[0, 1], [1, 0]]}))
    b = tmp_path / "b.json"
    _write_space(b, [[0.0]])
    assert main(["gromov", "--a", str(a), "--b", str(b)]) == EXIT_USAGE
    assert "basepoint" in capsys.readouterr().err


def test_gromov_cli_space_file_not_an_object_is_usage_error(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text("[1]")
    b = tmp_path / "b.json"
    _write_space(b, [[0.0]])
    assert main(["gromov", "--a", str(a), "--b", str(b)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'dist'" in err and err.count("\n") == 1


@pytest.mark.parametrize("content", [
    {"n": [1], "dist": [[0]]},
    {"n": 1, "dist": 5},
    # int() used to truncate these to n = 2 and basepoint 0, and the run went ahead
    {"n": 2.9, "basepoint": 0, "dist": [[0, 1], [1, 0]]},
    {"n": 2, "basepoint": 0.7, "dist": [[0, 1], [1, 0]]},
    {"n": 2.9, "basepoint": 0.7, "dist": [[0, 1], [1, 0]]},
    # JSON booleans compare equal to 1 and 0
    {"n": True, "basepoint": 0, "dist": [[0]]},
    {"n": 1, "basepoint": False, "dist": [[0]]},
    {"dist": [[0, 1], [1]]},
    # not a matrix: FinitePointedSpace's metric check refuses it
    {"dist": []},
    # np.asarray(..., dtype=float) used to read these as [[0, 1], [1, 0]], and d_GS came out
    {"dist": [["0", "1"], ["1", "0"]]},
    {"dist": [[False, True], [True, False]]},
    # a key that is not read was dropped, and d_GS came out
    {"dist": [[0, 1], [1, 0]], "lable": "x"},
], ids=["n-list", "dist-scalar", "n-fractional", "basepoint-fractional", "both-fractional",
        "n-true", "basepoint-false", "dist-ragged", "dist-empty", "dist-strings", "dist-bools", "unknown-key"])
def test_gromov_cli_space_file_of_wrong_types_is_usage_error(tmp_path, capsys, content):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(content))
    b = tmp_path / "b.json"
    _write_space(b, [[0.0]])
    assert main(["gromov", "--a", str(a), "--b", str(b)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_gromov_cli_integral_float_n_is_accepted(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"n": 2.0, "basepoint": 0.0, "dist": [[0, 1], [1, 0]]}))
    assert main(["gromov", "--a", str(a), "--b", str(a)]) == EXIT_OK


def test_kernel_table(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--space", "h3", "--t", "1.0,2.0", "--r-max", "4",
               "--points", "11", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,r,q"
    assert len(lines) == 1 + 2 * 11
    t, r, q = lines[1].split(",")
    assert float(q) == pytest.approx((2 * math.pi) ** -1.5 * math.exp(-0.5), rel=1e-10)


@pytest.mark.parametrize("r_max", ["1e10", "1e200"])
def test_kernel_h2_table_at_huge_radii_reads_zero(tmp_path, r_max):
    # these exited 2 with "math domain error" after the header (1e10) and wrote nan (1e200)
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--space", "h2", "--t", "1", "--r-max", r_max, "--points", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5
    q = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert q[0] == pytest.approx(0.135056, rel=1e-5) and q[1:] == [0.0] * 4


def test_kernel_h2_table_at_a_huge_time_reads_zero(tmp_path):
    # the Gauss-Legendre sum underflowed to 0 and math.log(0) exited 2, "math domain
    # error", where --space h3 wrote q = 0
    out = tmp_path / "k.csv"
    assert main(["kernel", "--space", "h2", "--t", "1e300", "--points", "3",
                 "--out", str(out)]) == EXIT_OK
    assert [ln.split(",")[2] for ln in out.read_text().splitlines()[1:]] == ["0"] * 3


@pytest.mark.parametrize("space", ["e3", "h3"])
def test_kernel_table_at_a_tiny_time_reads_inf_at_the_pole(tmp_path, space):
    # exp(log q) overflowed with a RuntimeWarning, which the tier-1 configuration makes an error
    out = tmp_path / "k.csv"
    assert main(["kernel", "--space", space, "--t", "1e-300", "--points", "3",
                 "--out", str(out)]) == EXIT_OK
    assert [ln.split(",")[2] for ln in out.read_text().splitlines()[1:]] == ["inf", "0", "0"]


@pytest.mark.parametrize("argv", [
    ["--space", "h3", "--kappa", "1e200", "--t", "1"],
    ["--space", "h2", "--kappa", "1e200", "--t", "1"],
    ["--space", "e3", "--t", "1e308"],
    ["--space", "e3", "--t", "1,1e308"],  # the first horizon has a table
], ids=["h3", "h2", "e3", "e3-second-t"])
def test_kernel_horizon_past_the_float_range_is_usage_error(tmp_path, capsys, argv):
    # k^2 t = inf passed the normal-float floor: the h3 table read NaN and exited 0;
    # then the horizon was checked after the file was opened, which kept the header
    out = tmp_path / "k.csv"
    assert main(["kernel", *argv, "--points", "3", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: need ") and "finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, output", [
    (["gromov", "--a", "a.json", "--b", "b.json", "--tol", "nan"], "--witness"),
    (["gromov", "--a", "a.json", "--b", "b.json", "--tol", "inf"], "--witness"),
    (["report", "--space", "h2", "--r-max", "inf"], "--out"),
    (["report", "--space", "h2", "--r-max", "nan"], "--out"),
    (["kernel", "--space", "h3", "--r-max", "nan"], "--out"),
    (["kernel", "--space", "h3", "--r-max", "inf"], "--out"),
    (["kernel", "--space", "h3", "--r-max", "0"], "--out"),
    (["kernel", "--space", "h3", "--points", "0"], "--out"),
], ids=["gromov-tol-nan", "gromov-tol-inf", "report-r-max-inf", "report-r-max-nan",
        "kernel-r-max-nan", "kernel-r-max-inf", "kernel-r-max-0", "kernel-points-0"])
def test_non_finite_numeric_option_is_usage_error_before_any_output(tmp_path, capsys, argv,
                                                                   output):
    # each of these used to exit 0: a skipped bisection, a vacuous chain, NaN or empty tables
    _write_space(tmp_path / "a.json", [[0.0], [1.0]])
    _write_space(tmp_path / "b.json", [[0.0], [1.05]])
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "out"
    assert main([*argv, output, str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


@pytest.mark.parametrize("t", ["1,abc", "1,-1", "0", "1,nan", "inf", ""])
def test_kernel_bad_times_are_usage_error_before_any_output(tmp_path, capsys, t):
    out = tmp_path / "k.csv"
    assert main(["kernel", "--space", "h2", "--t", t, "--points", "3", "--out", str(out)]) == EXIT_USAGE
    assert "--t" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["report", "--space", "h2", "--dim", "3"],
    ["report", "--space", "e1", "--dim", "3"],
    ["kernel", "--space", "h3", "--dim", "2"],
    ["kernel", "--space", "halfplane", "--dim", "3"],
    ["kernel", "--space", "e1", "--dim", "5"],
    ["kernel", "--space", "euclidean", "--dim", "5"],
    ["kernel", "--space", "hyperbolic"],
    ["report", "--space", "hyperbolic", "--dim", "3", "--kappa", "2"],
    ["report", "--space", "euclidean"],
    ["kernel", "--space", "hyperbolic", "--dim", "3", "--t", "1", "--points", "3"],
], ids=["report-h2-dim-3", "report-e1-dim-3", "kernel-h3-dim-2", "kernel-halfplane-dim-3",
        "kernel-e1-dim-5", "kernel-euclidean-dim-5", "kernel-hyperbolic",
        "report-hyperbolic-dim-3", "report-euclidean", "kernel-hyperbolic-dim-3"])
def test_dim_and_long_space_names_are_usage_errors(tmp_path, capsys, argv):
    # --dim and the names euclidean and hyperbolic only respelled e1-e3, h2 and h3
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments: --dim" in err or "unknown space" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["kernel", "--space", "halfplane", "--kappa", "2"],
    ["kernel", "--space", "e2", "--kappa", "2"],
    ["report", "--space", "e3", "--kappa", "0.5"],
    ["simulate", "--space", "halfplane", "--kappa", "2"],
    ["simulate", "--profile", "euclid", "--kappa", "2"],
    ["simulate", "--profile", "kaimanovich", "--kappa", "1"],
])
def test_kappa_contradicting_fixed_curvature_is_usage_error(tmp_path, capsys, argv):
    # --kappa used to be ignored here: the k = 1 (or flat) run went ahead and
    # the manifest recorded the contradicting kappa
    out = tmp_path / "o.csv"
    if argv[0] != "report":
        argv = argv + ["--out", str(out)]
    if argv[0] == "simulate":
        argv = argv + ["--t-max", "0.1", "--paths", "2"]
    assert main(argv) == EXIT_USAGE
    assert "contradicts" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--space", "halfplane", "--kappa", "1"],
    ["kernel", "--space", "e3", "--kappa", "0"],
    ["simulate", "--space", "halfplane", "--kappa", "1"],
    ["simulate", "--profile", "euclid", "--kappa", "0"],
])
def test_kappa_repeating_fixed_curvature_is_accepted(tmp_path, argv):
    argv = argv + ["--out", str(tmp_path / "o.csv")]
    if argv[0] == "simulate":
        argv = argv + ["--t-max", "0.1", "--paths", "2"]
    else:
        argv = argv + ["--points", "3"]
    assert main(argv) == EXIT_OK


_SIM = ["simulate", "--t-max", "0.1", "--paths", "2"]


@pytest.mark.parametrize("argv, option", [
    (["--space", "halfplane", "--r0", "2"], "--r0"),
    (["--space", "halfplane", "--r-cap", "50"], "--r-cap"),
    (["--profile", "euclid", "--r-cap", "50"], "--r-cap"),
    (["--profile", "hyperbolic", "--r-cap", "50"], "--r-cap"),
], ids=["r0-halfplane", "r-cap-halfplane", "r-cap-euclid", "r-cap-hyperbolic"])
def test_option_the_run_ignores_is_usage_error(tmp_path, capsys, argv, option):
    # the run used to go ahead without the option and record it in the manifest
    out = tmp_path / "o.csv"
    assert main(_SIM + argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and "no effect" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, fragment", [
    (["--profile", "euclid", "--r0", "nan"], "need r0 > 0"),
    (["--profile", "euclid", "--r0", "inf"], "need r0 > 0"),
    (["--profile", "kaimanovich", "--r-cap", "nan"], "need r_cap > r0"),
    (["--profile", "kaimanovich", "--r-cap", "-1"], "need r_cap > r0"),
    (["--profile", "kaimanovich", "--r-cap", "0.5"], "need r_cap > r0"),
], ids=["r0-nan", "r0-inf", "r-cap-nan", "r-cap-negative", "r-cap-below-r0"])
def test_simulate_bad_start_or_cap_is_usage_error(tmp_path, capsys, argv, fragment):
    # r0 = nan wrote NaN rows and r0 = inf exited 4; a NaN cap never capped, and a cap
    # at or below r0 froze every path after its first step, both with exit 0
    out = tmp_path / "o.csv"
    assert main(_SIM + argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {fragment}")
    assert not out.exists()


def test_simulate_path_past_the_float_safe_range_exits_4(tmp_path, capsys):
    # a Kaimanovich path with no effective cap reaches r = 1e100 before t = 500
    out = tmp_path / "o.csv"
    assert main(["simulate", "--profile", "kaimanovich", "--r-cap", "1e300", "--t-max", "500", "--paths", "1",
                 "--record-stride", "1000", "--out", str(out)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant failure: path 0 exceeded r = 1e+100 at t = 464.03\n"
    assert not out.exists() and not os.path.exists(f"{out}.manifest.json")


@pytest.mark.parametrize("argv", [
    ["--space", "halfplane", "--r0", "1", "--r-cap", "200"],
    ["--profile", "euclid", "--r0", "2", "--r-cap", "200"],
    ["--profile", "kaimanovich", "--r0", "2", "--r-cap", "50"],
])
def test_option_the_run_uses_or_left_at_default_is_accepted(tmp_path, argv):
    assert main(_SIM + argv + ["--out", str(tmp_path / "o.csv")]) == EXIT_OK


@pytest.mark.parametrize("flag, env, message", [
    ("-3", None, "threads must be an integer >= 1, got -3"),
    ("0", "4", "threads must be an integer >= 1, got 0"),
    ("abc", None, "argument --threads"),
], ids=["flag-negative", "flag-zero-over-env", "flag-abc"])
def test_bad_thread_count_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                         flag, env, message):
    # the count used to be read after the work: --threads -3 was recorded as 1
    if env is not None:
        monkeypatch.setenv("RDL_THREADS", env)  # not read: the flag alone is checked
    out = tmp_path / "hp.csv"
    argv = _SIM + ["--threads", flag, "--space", "halfplane", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_ignores_rdl_threads(tmp_path, monkeypatch):
    # RDL_THREADS was a second way to set the cap: "abc" exited 2 before any work
    monkeypatch.setenv("RDL_THREADS", "abc")
    out = tmp_path / "hp.csv"
    assert main(_SIM + ["--space", "halfplane", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "hp.csv.manifest.json").read_text())
    assert manifest["config"]["threads"] == CORES


# Manifest config of each command as the hand-written echo lists produced it; only
# simulate has a thread count, so only its config records it
_MANIFEST_RUNS = [
    (["simulate", "--space", "halfplane", "--paths", "3", "--t-max", "1", "--record-stride", "7",
      "--out", "{tmp}/hp.csv"],
     "hp.csv",
     {"dt": 0.01, "kappa": None, "paths": 3, "profile": None, "r0": 1.0, "r_cap": 200.0,
      "record_stride": 7, "seed": 0, "space": "halfplane", "t_max": 1.0, "threads": CORES}),
    (["simulate", "--threads", "2", "--profile", "kaimanovich", "--paths", "2", "--t-max", "1",
      "--dt", "0.001", "--record-stride", "100", "--seed", "5", "--out", "{tmp}/ka.csv"],
     "ka.csv",
     {"dt": 0.001, "kappa": None, "paths": 2, "profile": "kaimanovich", "r0": 1.0,
      "r_cap": 200.0, "record_stride": 100, "seed": 5, "space": None, "t_max": 1.0,
      "threads": 2}),
    (["report", "--space", "h2", "--kappa", "1", "--t-grid", "5,10,20,30,39,40",
      "--out", "{tmp}/rep.json"],
     "rep.json",
     {"ensemble_file": None, "kappa": 1.0, "r_max": 40.0, "space": "h2",
      "t_grid": [5.0, 10.0, 20.0, 30.0, 39.0, 40.0]}),
    (["report", "--ensemble-file", "{tmp}/mix.json", "--out", "{tmp}/mix_rep.json"],
     "mix_rep.json",
     {"ensemble_file": "{tmp}/mix.json", "kappa": None, "r_max": 40.0,
      "space": None, "t_grid": None}),
    (["gromov", "--a", "{tmp}/a.json", "--b", "{tmp}/b.json", "--witness", "{tmp}/w.json"],
     "w.json",
     {"a": "{tmp}/a.json", "b": "{tmp}/b.json", "tol": 0.001}),
    (["kernel", "--space", "h3", "--t", "1,4", "--points", "11", "--out", "{tmp}/k.csv"],
     "k.csv",
     {"kappa": None, "points": 11, "r_max": 10.0, "space": "h3", "t": "1,4"}),
]


@pytest.mark.parametrize("argv, output, config", _MANIFEST_RUNS,
                         ids=["simulate-halfplane", "simulate-kaimanovich", "report-space",
                              "report-ensemble", "gromov", "kernel"])
def test_manifest_config_golden(tmp_path, argv, output, config):
    (tmp_path / "mix.json").write_text(json.dumps({"components": _H2_H3}))
    _write_space(tmp_path / "a.json", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    _write_space(tmp_path / "b.json", [[0.0, 0.0], [1.1, 0.0], [0.0, 0.9]])
    assert main([a.format(tmp=tmp_path) for a in argv]) == EXIT_OK
    manifest = json.loads((tmp_path / f"{output}.manifest.json").read_text())
    config = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in config.items()}
    assert manifest["command"] == argv[0]
    assert manifest["config"] == config
    # each fact once: the seed and the thread count are in config alone
    assert sorted(manifest) == ["command", "config", "outputs", "schema", "version",
                                "wall_time_s"]
    assert manifest["schema"] == "v2"
    assert list(manifest["outputs"]) == [output]


def test_thread_count_is_an_option_of_simulate_alone(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["--threads", "2", "report", "--space", "h2", "--out", str(out)]) == EXIT_USAGE
    assert "rdl: error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_usage_error(tmp_path):
    assert main(["gromov", "--a", "/nope/a.json", "--b", "/nope/b.json"]) == EXIT_USAGE
