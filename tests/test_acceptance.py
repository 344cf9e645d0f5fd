"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Estimator pairing (see the drift notes in estimators.py): drift and entropy
targets are met by the unit-time increment estimators, whose finite-horizon
bias on the hyperbolic family is exponentially small; the subadditive ratio
ell_t/t is also computed, reported, and checked against its own law (it is a
strict upper bound: ell_40/40 = 0.5 + 2 log2/40 + o(1/t) ~ 0.5347 on H^2).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.integrate import quad as scipy_quad

from rdl.busemann import furstenberg_check
from rdl.cli import main as cli_main
from rdl.estimators import (
    _horizon_moments,
    default_t_grid,
    drift_subadditive_limit,
    entropy_quadrature,
    inequality_report,
)
from rdl.gromov import (
    FinitePointedSpace,
    chain_glue,
    feasible,
    feasible_lp,
    gromov_distance,
    identity_cross,
)
from rdl.heat_kernels import radial_fokker_planck, zero_two_defect
from rdl.model_spaces import Euclidean, HalfPlane, Hyperbolic, builtin_profile
from rdl.sde_sim import (
    SimConfig,
    kaimanovich_tail_limit,
    radial_terminal,
    simulate_halfplane,
)

from test_busemann import BusemannField


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_drift_of_h2():
    h2 = Hyperbolic(2, 1.0)
    t = 20.0
    # the report's ell and ell_upper, and ell_20 from the same moment table
    dfit = drift_subadditive_limit(_horizon_moments(h2, default_t_grid(h2))[0])
    ell_hat, ratio = dfit.increment, dfit.value

    cfg = SimConfig(seed=101, n_paths=10_000, t_max=t, dt=0.01, record_stride=100)
    paths = simulate_halfplane(cfg)
    o = (0.0, 1.0)
    d_all = np.stack([HalfPlane().dist_to_many(np.column_stack([p.x, p.y]), o) for p in paths])
    i20 = int(np.argmin(np.abs(paths[0].times - 20.0)))
    i19 = int(np.argmin(np.abs(paths[0].times - 19.0)))
    inc = d_all[:, i20] - d_all[:, i19]
    inc_mean = inc.mean()
    inc_se = inc.std(ddof=1) / math.sqrt(len(paths))
    raw_mean = d_all[:, i20].mean() / t
    raw_se = d_all[:, i20].std(ddof=1) / math.sqrt(len(paths)) / t

    ratio_t20 = dfit.ell_by_t[t] / t
    ok_quad = 0.495 <= ell_hat <= 0.505
    ok_mc = abs(inc_mean - 0.5) <= 3 * inc_se
    ok_routes = abs(raw_mean - ratio_t20) <= 3 * raw_se  # MC vs quadrature, same horizon
    ok_fekete = ratio > ell_hat
    _line(
        1,
        ok_quad and ok_mc and ok_routes and ok_fekete,
        f"ell(H^2)={ell_hat:.5f} in [0.495,0.505]; MC increment {inc_mean:.4f}+-{inc_se:.4f} "
        f"covers 0.5; ratio ell_40/40={ratio:.4f} (upper bound; MC at t=20 {raw_mean:.4f} "
        f"matches quadrature {ratio_t20:.4f})",
    )
    assert ok_quad and ok_mc and ok_routes and ok_fekete


# --------------------------------------------------------------- criterion 2


def test_criterion_2_entropy_of_h2_and_equality_chain():
    h2 = Hyperbolic(2, 1.0)
    rep = inequality_report(h2)  # increments over [39, 40], v from r_max = 40
    h_hat = rep.entropy_h
    ell_hat = rep.ell
    v_hat = rep.volume_v

    ok_h = 0.48 <= h_hat <= 0.52
    two_ell_sq = 2.0 * ell_hat ** 2
    ell_v = ell_hat * v_hat
    rel = lambda a, b: abs(a - b) / max(abs(a), abs(b))
    ok_eq = rel(two_ell_sq, h_hat) <= 0.05 and rel(h_hat, ell_v) <= 0.05 and rel(
        two_ell_sq, ell_v
    ) <= 0.05
    _line(
        2,
        ok_h and ok_eq,
        f"h(H^2)={h_hat:.5f} in [0.48,0.52]; equality chain 2l^2={two_ell_sq:.4f} "
        f"= h={h_hat:.4f} = lv={ell_v:.4f} within 5%",
    )
    assert ok_h and ok_eq


# --------------------------------------------------------------- criterion 3


def test_criterion_3_inequality_chain_grid():
    grid = [Hyperbolic(d, k) for d in (2, 3) for k in (0.5, 1.0, 2.0)]
    grid += [Euclidean(d) for d in (1, 2, 3)]
    worst = math.inf
    worst_label = ""
    all_ok = True
    for sp in grid:
        rep = inequality_report(sp)
        for status in rep.inequality_status:
            if status.normalized_slack < worst:
                worst, worst_label = status.normalized_slack, f"{sp.label()}:{status.name}"
            all_ok &= status.passed
        all_ok &= rep.converged
    ok = all_ok and worst >= -1e-3
    _line(3, ok, f"chain holds on 9 spaces; worst normalized slack {worst:.4f} ({worst_label})")
    assert ok


# --------------------------------------------------------------- criterion 4


def test_criterion_4_euclidean_closed_forms():
    max_h_err = 0.0
    for d in (1, 2, 3):
        for t in (1.0, 3.0):
            exact = 0.5 * d * math.log(2 * math.pi * math.e * t)
            max_h_err = max(max_h_err, abs(entropy_quadrature(Euclidean(d), t) - exact))
    def mutual_information(sp, t, T):  # I_t^T = h_T - h_{T-t}
        return entropy_quadrature(sp, T) - entropy_quadrature(sp, T - t)

    max_i_err = 0.0
    for d in (1, 2, 3):
        got = mutual_information(Euclidean(d), 1.0, 2.0)
        max_i_err = max(max_i_err, abs(got - 0.5 * d * math.log(2.0)))
    i_tail = mutual_information(Euclidean(1), 1.0, 100.0)
    ok = max_h_err <= 1e-6 and max_i_err <= 1e-6 and i_tail <= 0.006
    _line(
        4,
        ok,
        f"h_t err {max_h_err:.2e} <= 1e-6; I_t^T err {max_i_err:.2e} <= 1e-6; "
        f"I_1^100 = {i_tail:.5f} <= 0.006",
    )
    assert ok


# --------------------------------------------------------------- criterion 5


def test_criterion_5_kaimanovich_counterexample():
    cfg = SimConfig(seed=2024, n_paths=1000, t_max=10.0, dt=1e-3, record_stride=100)
    res = kaimanovich_tail_limit(cfg, n_trajectories=10)
    frac = res.converged.mean()
    ok_conv = frac >= 0.95
    ok_std = res.std > 0.1
    # figure data: ten trajectories of H(r_t) - t, starting at H(1) = log 2
    ok_fig = len(res.trajectories) == 10 and all(
        abs(tr.h_minus_t[0] - math.log(2.0)) < 1e-12 and len(tr.times) >= 100
        for tr in res.trajectories
    )
    ok = ok_conv and ok_std and ok_fig
    _line(
        5,
        ok,
        f"{100 * frac:.1f}% converged (>=95%); std(L)={res.std:.3f} > 0.1; "
        f"10-trajectory figure data reproduced ({res.n_capped} capped paths)",
    )
    assert ok


# --------------------------------------------------------------- criterion 6


def _gaussian_tv_oracle(t: float) -> float:
    def f(x):
        a = math.exp(-x * x / (4 * t)) / math.sqrt(4 * math.pi * t)
        b = math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)
        return abs(a - b)

    val, _ = scipy_quad(f, -80.0, 80.0, limit=400)
    return val


def test_criterion_6_zero_two_defect():
    h2_val = zero_two_defect(Hyperbolic(2, 1.0), tau=1.0, t=1.0)
    ok_margin = h2_val <= 2.0 - 0.5
    vals = {t: zero_two_defect(Euclidean(1), tau=t, t=t) for t in (0.5, 1.0, 4.0)}
    oracle = _gaussian_tv_oracle(1.0)
    ok_oracle = all(abs(v - oracle) <= 1e-6 for v in vals.values())
    ok_invariant = max(vals.values()) - min(vals.values()) <= 1e-6
    ok = ok_margin and ok_oracle and ok_invariant
    _line(
        6,
        ok,
        f"H^2 defect {h2_val:.4f} <= 1.5 (margin {2 - h2_val:.3f}); Euclid matches TV oracle "
        f"{oracle:.8f} within 1e-6 and is t-invariant",
    )
    assert ok


# --------------------------------------------------------------- criterion 7


def test_criterion_7_furstenberg_three_routes():
    cfg = SimConfig(seed=314, n_paths=10_000, t_max=10.0, dt=0.01, record_stride=100)
    res10 = furstenberg_check(cfg, t=10.0)
    res5 = furstenberg_check(cfg, t=5.0)
    ok_mc = abs(res10.z_score) <= 3.0 and abs(res5.z_score) <= 3.0

    route_quad = inequality_report(Hyperbolic(2, 1.0)).ell  # ell_40 - ell_39
    route_exact = 0.5 * BusemannField(None).laplacian((0.0, 1.0))
    route_mc = res10.mc_mean / res10.t
    se_mc = res10.mc_se / res10.t
    ok_routes = abs(route_quad - route_exact) <= 5e-3 and abs(route_mc - route_exact) <= 3 * se_mc
    ok = ok_mc and ok_routes
    _line(
        7,
        ok,
        f"E xi(w_t): {res5.mc_mean:.3f}~{res5.expected} (z={res5.z_score:.2f}), "
        f"{res10.mc_mean:.3f}~{res10.expected} (z={res10.z_score:.2f}); three routes to ell: "
        f"quadrature {route_quad:.4f}, (1/2)Delta xi {route_exact:.4f}, MC {route_mc:.4f}",
    )
    assert ok


# --------------------------------------------------------------- criterion 8


def _space_from_points(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return FinitePointedSpace(d)


def test_criterion_8_gromov_distance():
    tol = 5e-3
    rng = np.random.default_rng(88)

    def random_net(n):
        pts = np.concatenate([np.zeros((1, 2)), rng.uniform(-0.9, 0.9, (n - 1, 2))])
        return _space_from_points(pts)

    nets = [random_net(int(rng.integers(3, 9))) for _ in range(3)]
    ok_id = all(gromov_distance(x, x, tol=tol).value <= tol for x in nets)
    sym_gaps = [
        abs(gromov_distance(x, y, tol=tol).value - gromov_distance(y, x, tol=tol).value)
        for x, y in itertools.combinations(nets, 2)
    ]
    ok_sym = all(g <= 2 * tol for g in sym_gaps)
    x, y, z = nets
    ok_tri = (
        gromov_distance(x, z, tol=tol).value
        <= gromov_distance(x, y, tol=tol).value + gromov_distance(y, z, tol=tol).value + 3 * tol
    )

    # feasibility vs the independent LP oracle on 100 random small instances
    agree = 0
    for i in range(100):
        n1, n2 = [(1, 2), (2, 2), (2, 3), (3, 2), (1, 4), (1, 6)][i % 6]
        a = _space_from_points(np.concatenate([[[0.0]], rng.uniform(-1, 1, (n1 - 1, 1))])
                               if n1 > 1 else [[0.0]])
        b = _space_from_points(np.concatenate([[[0.0]], rng.uniform(-1, 1, (n2 - 1, 1))])
                               if n2 > 1 else [[0.0]])
        eps = float(rng.uniform(0.05, 0.45))
        agree += feasible(a, b, eps).feasible == feasible_lp(a, b, eps).feasible
    ok_oracle = agree == 100

    point = _space_from_points([[0.0]])
    pair = _space_from_points([[0.0], [1.0]])
    ok_pair = gromov_distance(point, pair, tol=1e-3).value == 0.5

    base = random_net(4)
    n_layers = 4
    res = chain_glue([base] * n_layers, [identity_cross(base)] * (n_layers - 1))
    d_chain = gromov_distance(res.limit_ball, base, tol=1e-3).value
    ok_chain = d_chain <= 2.0 ** (-(n_layers - 1) + 2)

    ok = ok_id and ok_sym and ok_tri and ok_oracle and ok_pair and ok_chain
    _line(
        8,
        ok,
        f"metric axioms at (tol, 2tol, 3tol); LP-oracle agreement {agree}/100; "
        f"point-vs-pair = 1/2; constant chain returns input (d_GS={d_chain:.4f})",
    )
    assert ok


# --------------------------------------------------------------- criterion 9


def test_criterion_9_sde_pde_cross_validation():
    ks = {}
    for label, profile in (("euclid", builtin_profile("euclid")),
                           ("hyperbolic", builtin_profile("hyperbolic", 1.0))):
        grid = radial_fokker_planck(profile, r0=0.01, dt=4e-5, dr=0.01, t_max=1.0, r_max=8.0)
        cfg = SimConfig(seed=555, n_paths=10_000, t_max=1.0, dt=2e-4)
        term = radial_terminal(profile, cfg, r0=0.01)
        dr = grid.r_centers[1] - grid.r_centers[0]
        cdf = np.cumsum(grid.marginal(1.0)) * dr
        emp = np.searchsorted(np.sort(term.r), grid.r_centers, side="right") / term.r.size
        ks[label] = float(np.max(np.abs(emp - cdf)))
    ok = all(v <= 0.05 for v in ks.values())
    _line(9, ok, f"KS(MC, Fokker-Planck) at t=1: euclid {ks['euclid']:.4f}, "
                 f"hyperbolic {ks['hyperbolic']:.4f} (<= 0.05, n=10^4)")
    assert ok


# -------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    def run_script(tag: str, threads: str) -> dict:
        out = {}
        traj = tmp_path / f"traj_{tag}.csv"
        rc = cli_main(["simulate", "--threads", threads, "--profile", "kaimanovich",
                       "--paths", "10", "--t-max", "10", "--dt", "0.001", "--seed", "7",
                       "--record-stride", "100", "--out", str(traj)])
        assert rc == 0
        out["traj"] = traj.read_bytes()
        hp = tmp_path / f"hp_{tag}.csv"
        rc = cli_main(["simulate", "--threads", threads, "--space", "halfplane",
                       "--paths", "50", "--t-max", "5", "--dt", "0.01", "--seed", "11",
                       "--record-stride", "50", "--out", str(hp)])
        assert rc == 0
        out["hp"] = hp.read_bytes()
        # 600 paths are two minimum chunks: at --threads 2 two workers write them
        # on a multi-core host, where the runs above stay in one process
        split = tmp_path / f"split_{tag}.csv"
        rc = cli_main(["simulate", "--threads", threads, "--space", "halfplane",
                       "--paths", "600", "--t-max", "1", "--seed", "3", "--out", str(split)])
        assert rc == 0
        out["split"] = split.read_bytes()
        rep = tmp_path / f"rep_{tag}.json"
        rc = cli_main(["report", "--space", "h2", "--t-grid", "5,10,20,30,39,40",
                       "--out", str(rep)])
        assert rc == 0
        out["rep"] = rep.read_bytes()
        a, b = tmp_path / f"a_{tag}.json", tmp_path / f"b_{tag}.json"
        a.write_text(json.dumps(_space_from_points([[0.0], [0.5], [1.0]]).to_json_dict()))
        b.write_text(json.dumps(_space_from_points([[0.0], [0.6], [0.9]]).to_json_dict()))
        w = tmp_path / f"w_{tag}.json"
        rc = cli_main(["gromov", "--a", str(a), "--b", str(b), "--tol", "1e-3",
                       "--witness", str(w)])
        assert rc == 0
        out["witness"] = w.read_bytes()
        return out

    first = run_script("one", "1")
    second = run_script("two", "2")
    ok = all(first[k] == second[k] for k in first)
    _line(10, ok, "CSV/JSON artifacts byte-identical across reruns and thread caps "
                  f"({len(first)} artifacts)")
    assert ok
