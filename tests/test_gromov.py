from __future__ import annotations

import hashlib
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import rdl.gromov
import rdl.model_spaces
from rdl.gromov import (
    DELTA,
    AdmissibleExtension,
    FeasibilityResult,
    FinitePointedSpace,
    GluingError,
    MetricError,
    certify_upper,
    chain_glue,
    feasible,
    feasible_lp,
    gromov_distance,
    identity_cross,
    net_from_manifold,
)
from rdl.model_spaces import Euclidean, GeometryError, HalfPlane, Hyperbolic, builtin_profile


def _space_from_points(pts) -> FinitePointedSpace:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return FinitePointedSpace(d)


def _random_instance(rng, n1, n2, scale=1.0):
    a = _space_from_points(np.concatenate([[[0.0]], rng.uniform(-scale, scale, (n1 - 1, 1))])
                           if n1 > 1 else [[0.0]])
    b = _space_from_points(np.concatenate([[[0.0]], rng.uniform(-scale, scale, (n2 - 1, 1))])
                           if n2 > 1 else [[0.0]])
    return a, b


# -------------------------------------------------------------- validators


def test_space_validation_errors():
    with pytest.raises(MetricError):
        FinitePointedSpace(np.array([[0.0, 1.0], [1.0, 0.1]]))  # nonzero diagonal
    with pytest.raises(MetricError):
        FinitePointedSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(MetricError):
        FinitePointedSpace(np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    with pytest.raises(MetricError):
        FinitePointedSpace(np.zeros((2, 2)))  # zero off-diagonal


@pytest.mark.parametrize("d", [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0))], ids=["vector", "wide", "empty"])
def test_space_refuses_a_matrix_that_is_not_square(d):
    with pytest.raises(MetricError, match=re.escape(f"distance matrix must be square, got {d.shape}")):
        FinitePointedSpace(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7))
def test_space_from_random_points_validates(seed, n):
    rng = np.random.default_rng(seed)
    sp = _space_from_points(rng.uniform(-3, 3, (n, 2)))
    assert sp.n == n
    sp.validate()


def test_space_validation_memory_is_quadratic():
    rng = np.random.default_rng(5)
    d = _space_from_points(rng.uniform(-1, 1, (300, 2))).dist
    tracemalloc.start()
    try:
        FinitePointedSpace(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6  # an n^3 float tensor alone is 216 MB


@pytest.mark.parametrize("n, pair, discrete", [
    (40, (33, 35), False),
    (40, (5, 35), False),
    (43, (41, 2), False),  # the worst triple lies in the last, partial slab
    (43, (2, 20), True),   # equal worst violations in rows 2 and 20: the first is named
], ids=["pair0", "pair1", "partial-slab", "tie"])
def test_space_triangle_error_names_first_worst_triple(n, pair, discrete):
    rng = np.random.default_rng(6)
    if discrete:
        d = 1.0 - np.eye(n)
    else:
        d = _space_from_points(rng.uniform(-1, 1, (n, 2))).dist.copy()
    p, q = pair
    d[p, q] = d[q, p] = d[p, q] + 3.0
    full = d[:, :, None] - d[:, None, :] - d.T[None, :, :]
    i, j, k = np.unravel_index(np.argmax(full), full.shape)
    with pytest.raises(MetricError) as err:
        FinitePointedSpace(d)
    assert f"violated by {full.max():.3g} at (i={i}, j={j}, k={k})" in str(err.value)


@pytest.mark.parametrize("rows", [1, 3, 5, 43])  # the last row count puts all rows in one slab
def test_space_triangle_error_does_not_depend_on_slab_size(monkeypatch, rows):
    d = 1.0 - np.eye(43)
    d[2, 20] = d[20, 2] = 4.0  # equal worst violations in rows 2 and 20
    monkeypatch.setattr(rdl.gromov, "_SLAB_ENTRIES", rows * d.size)
    with pytest.raises(MetricError) as err:
        FinitePointedSpace(d)
    assert str(err.value) == ("triangle inequality violated by 2 at (i=2, j=20, k=0): "
                              "d(2,20) > d(2,0) + d(0,20)")


def _full_scan_check_metric(d, tol):
    """_check_metric as it stood before the min-plus bound: the same axiom
    checks, then every row of the n^3 triangle values, in slabs."""
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
        raise MetricError(f"distance matrix must be square, got {d.shape}")
    if not np.isfinite(d).all():
        raise MetricError("distance matrix has non-finite entries")
    if np.abs(np.diag(d)).max(initial=0.0) > tol:
        raise MetricError("diagonal must be zero")
    if np.abs(d - d.T).max(initial=0.0) > tol:
        raise MetricError("distance matrix must be symmetric")
    if d.shape[0] > 1:
        mask = ~np.eye(d.shape[0], dtype=bool)
        if d[mask].min() <= 0:
            i, j = np.argwhere((d <= 0) & mask)[0]
            raise MetricError(f"non-positive off-diagonal distance at ({i},{j})")
    worst, at = -np.inf, None
    slab = max(1, rdl.gromov._SLAB_ENTRIES // d.size)
    buf, dT = np.empty((slab,) + d.shape), d.T.copy()
    for s in range(0, d.shape[0], slab):
        rows = d[s : s + slab]
        viol = np.subtract(rows[:, :, None], rows[:, None, :], out=buf[: rows.shape[0]])
        viol -= dT
        flat = np.argmax(viol)
        if viol.flat[flat] > worst:
            worst = viol.flat[flat]
            i, j, k = np.unravel_index(flat, viol.shape)
            at = (s + i, j, k)
    if worst > tol:
        i, j, k = at
        raise MetricError(
            f"triangle inequality violated by {worst:.3g} at (i={i}, j={j}, k={k}): "
            f"d({i},{j}) > d({i},{k}) + d({k},{j})"
        )


def _verdict(check, d, tol):
    try:
        check(d, tol)
    except MetricError as e:
        return str(e)
    return None


def _raised(d, rng, factor, tol):
    """d with one random pair (both entries) raised by factor * tol."""
    d = d.copy()
    p, q = rng.choice(d.shape[0], 2, replace=False)
    d[p, q] = d[q, p] = d[p, q] + factor * tol
    return d


def _triangle_family(name, tol, rng):
    """Seeded matrices of one family, valid and refused, for the oracle test."""
    cloud = lambda n, scale: _space_from_points(rng.uniform(-scale, scale, (n, 2))).dist
    line = lambda n, scale: _space_from_points(rng.uniform(-scale, scale, (n, 1))).dist
    if name == "clouds":  # scales 1e-3 to 1e3
        return [cloud(n, scale) for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3) for n in (2, 37, 61)]
    if name == "raised-pair":  # tight collinear triples, so a small raise is a violation
        return [_raised(base, rng, f, tol) for base in (line(37, 1.0), line(61, 3.0), cloud(37, 1.0))
                for f in (0.5, 1.0, 2.0, 10.0) for _ in range(3)]
    if name == "asymmetric":  # symmetric within tol only: the bound takes every column
        out = []
        for base in (line(37, 1.0), cloud(61, 1.0), line(61, 1.0)):
            for f in (0.0, 0.5, 2.0, 10.0):
                # noise on one side; below the diagonal, a violation in row i
                # may lie only in a column j < i, which the j >= i half skips
                for upper, scale in ((True, 0.25), (False, 0.25), (False, 0.9)):
                    d = _raised(base, rng, f, tol)
                    noise = rng.uniform(-scale * tol, scale * tol, d.shape)
                    d += np.triu(noise, 1) if upper else np.tril(noise, -1)
                    out.append(d)
        return out
    if name == "discrete-ties":  # every k ties; equal worst violations in two rows
        out = []
        for n in (5, 43):
            for f in (0.5, 1.0, 2.0, 10.0, 3.0 / tol):
                d = 1.0 - np.eye(n)
                for p, q in (rng.choice(n, 2, replace=False), rng.choice(n, 2, replace=False)):
                    d[p, q] = d[q, p] = 2.0 + f * tol
                out.append(d)
        return out
    if name == "collinear":  # many triples exactly tight, some off by the last bit
        return [line(n, scale) for n in (3, 40, 64) for scale in (1e-2, 1.0, 1e2)]
    assert name == "near-1e4"  # at _METRIC_TOL, 12u·M >= tol: every row goes to the exact scan
    base = [1e4 + line(37, 1.0), 1e4 * (1.0 - np.eye(37)) + cloud(37, 1.0)]
    return base + [_raised(b, rng, f, tol) for b in base for f in (1.0, 10.0, 1e4)]


@pytest.mark.parametrize("slab", [1 << 17, 700])  # 700: one row, and column blocks
@pytest.mark.parametrize("tol", [rdl.gromov._METRIC_TOL, 1e-9])
@pytest.mark.parametrize("family", ["clouds", "raised-pair", "asymmetric", "discrete-ties",
                                    "collinear", "near-1e4"])
def test_triangle_check_matches_full_scan_oracle(monkeypatch, family, tol, slab):
    monkeypatch.setattr(rdl.gromov, "_SLAB_ENTRIES", slab)
    rng = np.random.default_rng(11)
    verdicts = []
    for d in _triangle_family(family, tol, rng):
        want = _verdict(_full_scan_check_metric, d, tol)
        assert _verdict(rdl.gromov._check_metric, d, tol) == want
        verdicts.append(want)
    refused = sum(v is not None for v in verdicts)
    if family in ("clouds", "collinear"):
        assert refused == 0
    else:  # both verdicts occur
        assert 0 < refused < len(verdicts), verdicts


def test_triangle_bound_leaves_only_the_rows_it_cannot_clear():
    rng = np.random.default_rng(12)
    d = _space_from_points(rng.uniform(-1, 1, (120, 2))).dist
    assert rdl.gromov._uncleared_rows(d, d.T.copy(), rdl.gromov._METRIC_TOL).size == 0
    bad = d.copy()
    bad[7, 90] = bad[90, 7] = d[7, 90] + 5.0  # the corrupted pair of the benchmark's check
    assert rdl.gromov._uncleared_rows(bad, bad.T.copy(), rdl.gromov._METRIC_TOL).tolist() == [7, 90]
    far = 1e3 * d  # 12u·M >= tol
    assert rdl.gromov._uncleared_rows(far, far.T.copy(), rdl.gromov._METRIC_TOL).tolist() == list(range(120))


def test_triangle_bound_buffer_is_one_slab():
    d = _space_from_points(np.random.default_rng(13).uniform(-1, 1, (300, 2))).dist
    dT = d.T.copy()
    tracemalloc.start()
    try:
        rdl.gromov._uncleared_rows(d, dT, rdl.gromov._METRIC_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the buffer, the n^2 bool of the exact symmetry test, and small change
    assert peak <= 8 * rdl.gromov._SLAB_ENTRIES + d.size + 64 * 1024


def test_admissible_extension_validator():
    a = _space_from_points([[0.0], [1.0]])
    b = _space_from_points([[0.0]])
    good = AdmissibleExtension(np.array([[0.3], [0.8]]))
    good.validate(a.dist, b.dist)
    with pytest.raises(MetricError):
        AdmissibleExtension(np.array([[0.3], [2.0]])).validate(a.dist, b.dist)  # Lipschitz
    with pytest.raises(MetricError):
        AdmissibleExtension(np.array([[0.2], [0.2]])).validate(a.dist, b.dist)  # lower sum
    with pytest.raises(MetricError):
        AdmissibleExtension(np.array([[0.0], [1.0]])).validate(a.dist, b.dist)  # positivity


def _four_tensor_admissible(c, d1, d2, tol=1e-9):
    """The cross check as it stood before it became the glued metric check:
    positivity, then the row and column Lipschitz and lower constraints as
    dense n1*n1*n2 and n1*n2*n2 tensors."""
    if not (c > 0).all():
        return False
    row_lip = np.abs(c[:, None, :] - c[None, :, :]) - d1[:, :, None]
    row_low = d1[:, :, None] - (c[:, None, :] + c[None, :, :])
    col_lip = np.abs(c[:, :, None] - c[:, None, :]) - d2[None, :, :]
    col_low = d2[None, :, :] - (c[:, :, None] + c[:, None, :])
    return all(t.max() <= tol for t in (row_lip, row_low, col_lip, col_low))


def _random_cross(rng, pa, pb):
    """An ambient cross |x - y| + jitter of two clouds in R^dim, then one of:
    unchanged, an entry raised (Lipschitz), lowered (lower constraint),
    zeroed (positivity), or every entry scaled or shifted."""
    c = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1) + rng.uniform(1e-6, 0.3)
    i, j = rng.integers(c.shape[0]), rng.integers(c.shape[1])
    kind = rng.integers(6)
    if kind == 1:
        c[i, j] += rng.uniform(0.0, 1.5)
    elif kind == 2:
        c[i, j] *= rng.uniform(0.0, 1.0)
    elif kind == 3:
        c[i, j] = 0.0
    elif kind == 4:
        c *= rng.uniform(0.3, 1.5)
    elif kind == 5:
        c += rng.uniform(-0.5, 0.5, c.shape)
    return c


def test_admissible_extension_matches_four_tensor_oracle():
    rng = np.random.default_rng(8)
    verdicts = []
    for _ in range(1500):
        dim = int(rng.integers(1, 3))
        pa = np.vstack([np.zeros(dim), rng.uniform(-1, 1, (int(rng.integers(0, 6)), dim))])
        pb = np.vstack([np.zeros(dim), rng.uniform(-1, 1, (int(rng.integers(0, 6)), dim))])
        a, b = _space_from_points(pa), _space_from_points(pb)
        c = _random_cross(rng, pa, pb)
        want = _four_tensor_admissible(c, a.dist, b.dist)
        try:
            AdmissibleExtension(c).validate(a.dist, b.dist)
            got = True
        except MetricError:
            got = False
        assert got == want, c
        verdicts.append(want)
    assert 300 < sum(verdicts) < 1200  # both verdicts are well represented


@pytest.mark.parametrize("cross", [
    [[0.5, np.inf], [np.inf, 0.5]],
    [[np.inf, np.inf], [np.inf, np.inf]],
], ids=["off-diagonal", "all"])
def test_infinite_cross_is_inadmissible(cross):
    # inf - inf is NaN, and NaN > tol is False: the four-tensor check let
    # these through, and certify_upper then certified d_GS <= 0.5
    pair = _space_from_points([[0.0], [1.0]])
    cross = AdmissibleExtension(np.array(cross))
    with pytest.raises(MetricError, match="non-finite"):
        cross.validate(pair.dist, pair.dist)
    with pytest.raises(MetricError, match="non-finite"):
        certify_upper(pair, pair, cross, 0.5)


# ------------------------------------------------------------- feasibility


def test_identical_spaces_feasible_at_tiny_eps():
    rng = np.random.default_rng(0)
    sp = _space_from_points(rng.uniform(-0.4, 0.4, (4, 1)))
    res = feasible(sp, sp, 1e-6)
    assert res.feasible and res.exact
    AdmissibleExtension(res.witness).validate(sp.dist, sp.dist)


def test_point_vs_unit_pair_is_half():
    point = _space_from_points([[0.0]])
    pair = _space_from_points([[0.0], [1.0]])
    # both pair points are covered and need a partner within eps - delta, but
    # c(x, y1) + c(x, y2) >= 1 forces 2 eps >= 1
    assert not feasible(point, pair, 0.49).feasible
    assert not feasible(pair, point, 0.49).feasible
    res = gromov_distance(point, pair, tol=1e-3)
    assert res.value == 0.5


def test_two_point_spaces_nearby_lengths():
    a = _space_from_points([[0.0], [1.0]])
    b = _space_from_points([[0.0], [1.2]])
    res = feasible(a, b, 0.11)
    assert res.feasible
    w = res.witness
    AdmissibleExtension(w).validate(a.dist, b.dist)
    assert w[0, 0] <= 0.11 and w[1, 1] <= 0.11  # points matched in order
    assert not feasible(a, b, 0.05).feasible  # |1 - 1.2|/2 = 0.1 is the scale


def test_basepoint_bridge_cap_below_delta_is_infeasible():
    # at DELTA < eps < 2 DELTA the bridge cap eps - DELTA lies below every entry's
    # lower bound DELTA; HiGHS would accept bounds crossed by less than 1e-7
    pair = _space_from_points([[0.0], [1.0]])
    assert not feasible(pair, pair, 1.5e-9).feasible
    assert not feasible_lp(pair, pair, 1.5e-9).feasible
    assert feasible(pair, pair, 2.5e-9).feasible
    assert feasible_lp(pair, pair, 2.5e-9).feasible


def test_witness_always_validates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n1, n2 = rng.integers(1, 4), rng.integers(1, 4)
        a, b = _random_instance(rng, int(n1), int(n2))
        eps = float(rng.uniform(0.05, 0.45))
        res = feasible(a, b, eps)
        if res.feasible:
            AdmissibleExtension(res.witness).validate(a.dist, b.dist)
            assert certify_upper(a, b, AdmissibleExtension(res.witness), eps)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_feasible_properties_random(seed):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    a, b = _random_instance(rng, n1, n2, scale=float(rng.uniform(0.2, 1.5)))
    eps = float(rng.uniform(0.02, 0.48))
    res = feasible(a, b, eps)
    sym = feasible(b, a, eps)
    assert res.feasible == sym.feasible  # the conditions are symmetric
    if res.feasible:
        AdmissibleExtension(res.witness).validate(a.dist, b.dist)
        assert certify_upper(a, b, AdmissibleExtension(res.witness), eps)
        # still feasible at any larger eps
        assert feasible(a, b, min(eps + 0.01, 0.499)).feasible


def test_feasible_monotone_in_eps():
    rng = np.random.default_rng(8)
    a, b = _random_instance(rng, 3, 2)
    decisions = [feasible(a, b, e).feasible for e in (0.05, 0.15, 0.3, 0.45)]
    # once feasible, stays feasible
    first = decisions.index(True) if True in decisions else len(decisions)
    assert all(decisions[first:])


def test_feasible_agrees_with_lp_oracle_on_100_instances():
    rng = np.random.default_rng(123)
    sizes = [(1, 2), (2, 2), (2, 3), (3, 2), (1, 4), (1, 5), (1, 6), (2, 2)]
    checked = 0
    while checked < 100:
        n1, n2 = sizes[checked % len(sizes)]
        a, b = _random_instance(rng, n1, n2)
        eps = float(rng.uniform(0.05, 0.45))
        r1 = feasible(a, b, eps)
        r2 = feasible_lp(a, b, eps)
        assert r1.feasible == r2.feasible, (a.dist, b.dist, eps)
        if r2.feasible:
            assert (r2.witness > 0).all()
            AdmissibleExtension(r2.witness).validate(a.dist, b.dist, tol=1e-6)
        checked += 1


def test_lp_oracle_raises_when_highs_gives_up(monkeypatch):
    a, b = _random_instance(np.random.default_rng(9), 2, 3)

    def iteration_limit(*args, **kwargs):
        return SimpleNamespace(status=1, x=None, message="Iteration limit reached.")

    monkeypatch.setattr(scipy.optimize, "linprog", iteration_limit)  # feasible_lp imports it when called
    with pytest.raises(RuntimeError, match="Iteration limit"):
        feasible_lp(a, b, 0.3)


class _Truncated(Exception):
    pass


def _full_check_search(a, b, eps):
    """feasible() as it was before nodes checked only the lowered entries: each
    node builds and tests the full n1*n2*(n1+n2) floor and triangle tensors."""
    d1, d2 = a.dist, b.dist
    cap = eps - DELTA
    cands, truncated_any = rdl.gromov._partner_options(d1, d2, eps, cap)
    if cands is None:
        return FeasibilityResult(False, None, True, 0, eps)
    cands.sort(key=lambda e: (len(e[2]), e[0], e[1]))
    nodes = 0

    def passes(m, tol=1e-11):
        return not ((m < DELTA - 1e-15).any()
                    or ((m[:, None, :] + m[None, :, :]) - d1[:, :, None] < -tol).any()
                    or ((m[:, :, None] + m[:, None, :]) - d2[None, :, :] < -tol).any())

    def search(i, m):
        nonlocal nodes
        nodes += 1
        if nodes > rdl.gromov._MAX_NODES:
            raise _Truncated
        if not passes(m):
            return None
        if i == len(cands):
            return m
        row, p, bridges = cands[i]
        if (m[p] if row else m[:, p]).min() <= cap + 1e-15:
            return search(i + 1, m)
        for x, y in bridges:
            res = search(i + 1, np.minimum(m, d1[:, [x]] + cap + d2[[y], :]))
            if res is not None:
                return res
        return None

    try:
        witness = search(0, d1[:, [0]] + cap + d2[[0], :])
    except _Truncated:
        return FeasibilityResult(False, None, False, nodes, eps)
    if witness is None:
        return FeasibilityResult(False, None, not truncated_any, nodes, eps)
    return FeasibilityResult(True, witness, True, nodes, eps)


def _same_result(got, want):
    # forward checking prunes nodes, never solutions: the same first witness
    return ((got.feasible, got.exact) == (want.feasible, want.exact)
            and got.nodes <= want.nodes
            and (got.witness is None) == (want.witness is None)
            and (got.witness is None or got.witness.tobytes() == want.witness.tobytes()))


# (space, radius) of the benchmark's epsilon-net pairs (mesh 0.5, net seeds 1
# and 2), each at eps values where the full-check search stays fast
_NET_PAIRS = [
    ((Euclidean(2), 1.0), (0.05, 0.3, 0.41)),
    ((Hyperbolic(2), 2.0), (0.2,)),
    ((HalfPlane(), 1.5), (0.4,)),
    ((Hyperbolic(3), 1.0), (0.3,)),
]


def test_feasible_matches_full_check_search(monkeypatch):
    # a node re-checks only the entries its bridge lowered and prunes by
    # forward checking; the full check at every node, without pruning, must
    # give the same decisions and witness bytes in at least as many nodes
    cases = []
    for (space, radius), eps_values in _NET_PAIRS:
        a, b = (net_from_manifold(space, radius, 0.5, seed=s) for s in (1, 2))
        cases += [(a, b, eps) for eps in eps_values]
    base = net_from_manifold(Hyperbolic(2), 1.8, 0.5, seed=3)
    glued = chain_glue([base] * 4, [identity_cross(base)] * 3)
    cases.append((glued.limit_ball, base, 0.25))
    rng = np.random.default_rng(17)
    for _ in range(40):
        dim, n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a, b = (_space_from_points(np.vstack([np.zeros(dim), rng.uniform(-1, 1, (n - 1, dim))]))
                for n in (n1, n2))
        cases.append((a, b, float(rng.uniform(0.05, 0.48))))

    wants = [_full_check_search(a, b, eps) for a, b, eps in cases]
    seen = set()
    for block in (rdl.gromov._CHECK_BLOCK, 7):  # at 7 a node checks many blocks
        monkeypatch.setattr(rdl.gromov, "_CHECK_BLOCK", block)
        for (a, b, eps), want in zip(cases, wants):
            got = feasible(a, b, eps)
            assert _same_result(got, want), (block, a.n, b.n, eps, got.nodes, want.nodes)
            seen.add("feasible" if got.feasible else "infeasible")
            options, _ = rdl.gromov._partner_options(a.dist, b.dist, eps, eps - DELTA)
            if options is not None and got.nodes > len(options):
                seen.add("backtracked")  # more nodes than points to cover
    assert seen == {"feasible", "infeasible", "backtracked"}

    monkeypatch.setattr(rdl.gromov, "_MAX_NODES", 40)  # the cap cuts both at the same node
    a, b, eps = cases[2]  # feasible in 54 pruned nodes
    got, want = feasible(a, b, eps), _full_check_search(a, b, eps)
    assert _same_result(got, want) and got.nodes == want.nodes == 41 and not got.exact


def test_feasible_matches_full_check_search_on_random_pairs():
    rng = np.random.default_rng(2025)
    pruned = total = 0
    seen = set()
    for _ in range(300):
        dim, n1, n2 = (int(rng.integers(1, 4)), *(int(n) for n in rng.integers(1, 9, 2)))
        a, b = (_space_from_points(np.vstack([np.zeros(dim), rng.uniform(-1, 1, (n - 1, dim))]))
                for n in (n1, n2))
        eps = float(rng.uniform(0.02, 0.5))
        got, want = feasible(a, b, eps), _full_check_search(a, b, eps)
        assert _same_result(got, want), (a.n, b.n, eps, got.nodes, want.nodes)
        pruned, total = pruned + got.nodes, total + want.nodes
        seen.add((got.feasible, got.exact))
    assert seen == {(True, True), (False, True), (False, False)}
    assert pruned < total


def _unequal_pair(seed):
    rng = np.random.default_rng(seed)
    return tuple(_space_from_points(np.vstack([np.zeros(2), rng.uniform(-1, 1, (n - 1, 2))]))
                 for n in (5 + seed % 3, 8 + seed % 2))


# (seed of a random pair or "net", eps, feasible, exact, nodes, SHA-256 of the
# witness bytes); X1 is the smaller space in the random pairs and the larger in
# the net pair, so both orientations of a bridge are searched
_SEARCH_GOLDEN = [
    (1, 0.3, False, False, 95, None),
    (1, 0.4, True, True, 25, "dac08e92d41f0c51f10f7e4a8276bbdb32d09565dce9245b01a960370dc17f77"),
    (2, 0.1, False, True, 3, None),
    (2, 0.3, True, True, 67, "d1bee64d05897d00a0928506044173c477bca83468a00a877aea885a4b5618ae"),
    (8, 0.2, False, False, 18, None),
    (8, 0.4, True, True, 37, "d2e3f5ac1a240c96e43339ecfb186f162539defcdb2b68bbb03e54f20436e724"),
    ("net", 0.3, False, False, 50, None),
    ("net", 0.4, True, True, 54, "0064e6afcf444d7154947576d7bcf6e8c3df1b913645fef48cf704834fb4bb2d"),
]


@pytest.mark.parametrize("pair, eps, is_feasible, exact, nodes, digest", _SEARCH_GOLDEN)
def test_feasible_search_golden(pair, eps, is_feasible, exact, nodes, digest):
    # pins the search order and the bridge orientation without reading
    # _partner_options, which the full-check oracle above shares with feasible
    if pair == "net":
        a, b = (net_from_manifold(Euclidean(2), 1.0, 0.5, seed=s) for s in (1, 2))
    else:
        a, b = _unequal_pair(pair)
    assert a.n != b.n
    res = feasible(a, b, eps)
    got = None if res.witness is None else hashlib.sha256(res.witness.tobytes()).hexdigest()
    assert (res.feasible, res.exact, res.nodes, got) == (is_feasible, exact, nodes, digest)


def _benchmark_pair(name):
    """The benchmark's search inputs: an epsilon-net pair (mesh 0.5, net seeds 1
    and 2), or the Cauchy chain's limit ball against its base net."""
    if name == "chain":
        base = net_from_manifold(Hyperbolic(2), 1.8, 0.5, seed=3)
        return chain_glue([base] * 4, [identity_cross(base)] * 3).limit_ball, base
    space, radius = {"h2": (Hyperbolic(2), 2.0), "h3": (Hyperbolic(3), 1.0)}[name]
    return tuple(net_from_manifold(space, radius, 0.5, seed=s) for s in (1, 2))


# the benchmark's larger search inputs, in the format of _SEARCH_GOLDEN; a list
# of their own because the chain pair, at the first step of its bisection, has
# two spaces of one size, which test_feasible_search_golden refuses
_BENCH_SEARCH_GOLDEN = [
    ("h3", 0.49, False, False, 174, None),
    ("h2", 0.3, False, False, 6, None),
    ("chain", 0.2499999995, True, True, 93, "4e3e7b0c6be3022de943df9530f6aa5e06b4e87ae0be6cc100589e13c9704dbd"),
]


@pytest.mark.parametrize("pair, eps, is_feasible, exact, nodes, digest", _BENCH_SEARCH_GOLDEN)
def test_feasible_search_golden_on_benchmark_pairs(pair, eps, is_feasible, exact, nodes, digest):
    res = feasible(*_benchmark_pair(pair), eps)
    got = None if res.witness is None else hashlib.sha256(res.witness.tobytes()).hexdigest()
    assert (res.feasible, res.exact, res.nodes, got) == (is_feasible, exact, nodes, digest)


def test_uncapped_search_on_the_euclidean_net_pair(monkeypatch):
    # with every partner in the window kept the bisection decides each step
    # exactly; the bracket, the flag and the node total are pinned
    a, b = (net_from_manifold(Euclidean(2), 1.0, 0.5, seed=s) for s in (1, 2))
    monkeypatch.setattr(rdl.gromov, "_K_NEAREST", a.n + b.n)
    nodes = []

    def counted(*args):
        res = feasible(*args)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(rdl.gromov, "feasible", counted)
    res = gromov_distance(a, b, tol=1e-3)
    assert (round(res.lo, 4), round(res.hi, 4), res.exact, sum(nodes)) == (0.2656, 0.2666, True, 5037)
    assert certify_upper(a, b, AdmissibleExtension(res.witness), res.hi)


def _nudged_space(rng, points):
    """A space on the points that points() draws, its distances moved by up to
    0.9 _METRIC_TOL per entry, the diagonal and the asymmetry too; drawn again
    until it validates."""
    tol = 0.9 * rdl.gromov._METRIC_TOL
    while True:
        pts = points()
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        up = rng.uniform(-tol, tol, d.shape)
        low = np.clip(up.T + rng.uniform(-tol, tol, d.shape), -tol, tol)  # |up - low^T| <= tol
        try:
            return FinitePointedSpace(d + np.triu(up) + np.tril(low, -1))
        except MetricError:  # a tight triangle broken past the tolerance
            continue


def _matches_full_check(a, b, eps):
    """feasible() against the full-check oracle: the same decision and witness
    bytes, and a witness that validates; returns (got, want)."""
    got, want = feasible(a, b, eps), _full_check_search(a, b, eps)
    assert (got.feasible, got.exact) == (want.feasible, want.exact), (a.dist, b.dist, eps)
    assert (got.witness is None) == (want.witness is None)
    if got.feasible:
        assert got.witness.tobytes() == want.witness.tobytes(), (a.dist, b.dist, eps)
        AdmissibleExtension(got.witness).validate(a.dist, b.dist)
        assert certify_upper(a, b, AdmissibleExtension(got.witness), eps)
    return got, want


def test_feasible_matches_full_check_search_on_perturbed_pairs():
    # cones with a nonzero diagonal and an asymmetric d: the search must read
    # the larger of d(x, x') and d(x', x), as the oracle does
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(150):
        dim = int(rng.integers(2, 4))
        a, b = (_nudged_space(rng, lambda n=n: np.vstack([np.zeros(dim), rng.uniform(-1, 1, (n - 1, dim))]))
                for n in rng.integers(1, 9, 2))
        got, _ = _matches_full_check(a, b, float(rng.uniform(0.02, 0.5)))
        seen.add((got.feasible, got.exact))
    assert seen == {(True, True), (False, True), (False, False)}


def _quarter_grid(rng, n, distinct):
    """n points of the line at multiples of 1/4 in [-1, 1], 0 first, as a column."""
    steps = np.delete(np.arange(-4, 5), 4)
    others = rng.choice(steps, n - 1, replace=False) if distinct else rng.integers(-2, 3, n - 1)
    return np.concatenate([[0.0], others * 0.25])[:, None]


def test_feasible_matches_full_check_search_in_the_tolerance_band():
    # points of a line, so that nudged triangles break by up to ~3e-12, and eps
    # set so that 2 cap + d2(y, y') - d1(x, x') lies within 3e-12 above
    # -_SEARCH_TOL: the forward checks, which read only a cone's apex, then
    # keep bridges that the full check refuses, and only the check at each
    # leaf keeps the oracle's answer
    rng = np.random.default_rng(1)
    grew = 0
    for _ in range(400):
        a, b = (_nudged_space(rng, lambda n=n: _quarter_grid(rng, n, True)) for n in rng.integers(2, 6, 2))
        eps = DELTA + (0.25 * int(rng.integers(1, 4)) - rdl.gromov._SEARCH_TOL + rng.uniform(0, 3e-12)) / 2
        got, want = _matches_full_check(a, b, eps)
        grew += got.nodes > want.nodes
    assert grew > 0


def test_feasible_matches_full_check_search_on_near_twins():
    # coincident points of a line kept apart by 1e-16 one way and 5e-13 the
    # other: whether a cone covers a point then depends on which way d1 is read
    rng = np.random.default_rng(1)
    for _ in range(400):
        spaces = []
        for n in rng.integers(2, 6, 2):
            pts = _quarter_grid(rng, n, False)
            d = np.abs(pts - pts.T)
            twins = (d == 0) & ~np.eye(n, dtype=bool)
            d[twins] = rng.choice([1e-16, 5e-13], twins.sum())
            spaces.append(FinitePointedSpace(d))
        _matches_full_check(*spaces, float(rng.uniform(0.02, 0.49)))


def _partner_options_by_point(d1, d2, eps, cap):
    """_partner_options as it was, one point at a time."""
    if cap < DELTA:
        return None, False
    options, truncated = [], False
    for row, rho_self, rho_other in ((True, d1[0], d2[0]), (False, d2[0], d1[0])):
        for p in map(int, np.flatnonzero(rho_self <= 1.0 / eps)):
            gaps = np.abs(rho_other - rho_self[p])
            idx = np.where(gaps <= 2.0 * cap + 1e-15)[0]
            idx = idx[np.argsort(gaps[idx], kind="stable")]
            if not idx.size:
                return None, False
            truncated |= idx.size > rdl.gromov._K_NEAREST
            options.append((row, p, [(p, int(q)) if row else (int(q), p) for q in idx[:rdl.gromov._K_NEAREST]]))
    return options, truncated


def test_partner_options_match_the_per_point_reference(monkeypatch):
    # equal gaps (the grid pairs) keep index order; no partner in a window gives None
    rng = np.random.default_rng(3)
    pairs = [_benchmark_pair(name) for name in ("h2", "h3")]
    pairs += [(_space_from_points(np.arange(n)[:, None] * 0.25), _space_from_points(np.arange(7)[:, None] * 0.25))
              for n in (1, 5, 9)]
    pairs += [_random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(30)]
    seen = set()
    for k_nearest in (rdl.gromov._K_NEAREST, 2, 1000):
        monkeypatch.setattr(rdl.gromov, "_K_NEAREST", k_nearest)
        for a, b in pairs:
            for eps in (2e-9, 0.01, 0.1, 0.3, 0.49):
                want = _partner_options_by_point(a.dist, b.dist, eps, eps - DELTA)
                assert rdl.gromov._partner_options(a.dist, b.dist, eps, eps - DELTA) == want
                seen.add("none" if want[0] is None else f"truncated={want[1]}")
    assert seen == {"none", "truncated=True", "truncated=False"}


def _grid_feasible(a, b, eps, step):
    """Literal brute-force grid search over cross matrices."""
    d1, d2 = a.dist, b.dist
    n1, n2 = a.n, b.n
    cap = eps - DELTA
    ball = 1.0 / eps
    cov1 = [x for x in range(n1) if d1[0, x] <= ball]
    cov2 = [y for y in range(n2) if d2[0, y] <= ball]
    ubs = (d1[:, [0]] + cap + d2[[0], :]).reshape(-1)
    axes = [np.arange(DELTA, ub + step, step) for ub in ubs]

    rest = axes[1:]
    if rest:
        mesh = np.meshgrid(*rest, indexing="ij")
        tail = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        tail = np.zeros((1, 0))
    for v0 in axes[0]:
        combos = np.hstack([np.full((tail.shape[0], 1), v0), tail])
        C = combos.reshape(-1, n1, n2)
        ok = np.ones(C.shape[0], dtype=bool)
        for i1, i2 in itertools.combinations(range(n1), 2):
            ok &= np.abs(C[:, i1, :] - C[:, i2, :]).max(axis=1) <= d1[i1, i2] + 1e-12
            ok &= (C[:, i1, :] + C[:, i2, :]).min(axis=1) >= d1[i1, i2] - 1e-12
        for j1, j2 in itertools.combinations(range(n2), 2):
            ok &= np.abs(C[:, :, j1] - C[:, :, j2]).max(axis=1) <= d2[j1, j2] + 1e-12
            ok &= (C[:, :, j1] + C[:, :, j2]).min(axis=1) >= d2[j1, j2] - 1e-12
        ok &= C[:, 0, 0] <= cap
        for x in cov1:
            ok &= C[:, x, :].min(axis=1) <= cap
        for y in cov2:
            ok &= C[:, :, y].min(axis=1) <= cap
        if ok.any():
            return True
    return False


def test_feasible_agrees_with_literal_grid_search():
    rng = np.random.default_rng(7)
    cases = [(1, 2), (1, 3), (2, 2), (1, 4), (2, 2)]
    for idx, (n1, n2) in enumerate(cases):
        a, b = _random_instance(rng, n1, n2, scale=0.4)
        d_star = gromov_distance(a, b, tol=5e-3).value
        step = 1e-2 if n1 * n2 <= 3 else 2e-2
        for eps in (d_star - 0.07, d_star + 0.07):
            if not (0.02 < eps < 0.48):
                continue
            got = feasible(a, b, eps).feasible
            want = _grid_feasible(a, b, eps, step)
            assert got == want, (idx, eps, a.dist, b.dist)


# ----------------------------------------------------------- metric axioms


def _random_net(rng):
    kind = rng.integers(0, 2)
    n = int(rng.integers(3, 7))
    if kind == 0:
        pts = np.concatenate([np.zeros((1, 2)), rng.uniform(-0.8, 0.8, (n - 1, 2))])
        return _space_from_points(pts)
    sp = Hyperbolic(2, 1.0)
    pts = np.concatenate([np.zeros((1, 2)), rng.normal(0, 0.5, (n - 1, 2))])
    return FinitePointedSpace(sp.pairwise_distances(pts))


def test_gromov_distance_metric_axioms_on_random_nets():
    tol = 5e-3
    rng = np.random.default_rng(31)
    spaces = [_random_net(rng) for _ in range(3)]
    # identity of isometrics
    for sp in spaces:
        assert gromov_distance(sp, sp, tol=tol).value <= tol
    # symmetry within 2 tol
    for x, y in itertools.combinations(spaces, 2):
        dxy = gromov_distance(x, y, tol=tol).value
        dyx = gromov_distance(y, x, tol=tol).value
        assert abs(dxy - dyx) <= 2 * tol
    # triangle within 3 tol
    x, y, z = spaces
    dxy = gromov_distance(x, y, tol=tol).value
    dyz = gromov_distance(y, z, tol=tol).value
    dxz = gromov_distance(x, z, tol=tol).value
    assert dxz <= dxy + dyz + 3 * tol


def test_gromov_distance_reports_bracket():
    rng = np.random.default_rng(4)
    a, b = _random_instance(rng, 2, 3)
    res = gromov_distance(a, b, tol=1e-3)
    assert res.hi - res.lo <= 1e-3 or res.value == 0.5
    assert res.value == res.hi or res.value == 0.5
    for tol in (1e-8, float("nan"), float("inf")):  # NaN and inf used to skip the bisection
        with pytest.raises(MetricError):
            gromov_distance(a, b, tol=tol)


# ------------------------------------------------------------ chain gluing


def test_chain_glue_constant_sequence():
    rng = np.random.default_rng(2)
    sp = _space_from_points(np.concatenate([np.zeros((1, 2)), rng.uniform(-0.6, 0.6, (3, 2))]))
    n_layers = 4
    crosses = [identity_cross(sp) for _ in range(n_layers - 1)]
    res = chain_glue([sp] * n_layers, crosses)
    assert res.limit_ball.n == sp.n
    # limit ball isometric to the input within 2^{-N+2}
    d = gromov_distance(res.limit_ball, sp, tol=1e-3)
    assert d.value <= 2.0 ** (-(n_layers - 1) + 2)
    assert d.value <= 2e-3  # in fact identical up to the diagonal jitter


def test_chain_glue_rejects_bad_certificate():
    sp = _space_from_points([[0.0], [1.0]])
    far = _space_from_points([[0.0], [3.0]])
    # ambient cross on the line: admissible, but the point at 3 sits inside
    # the 1/eps = 2 ball and has no partner within eps = 1/2
    amb = AdmissibleExtension(np.abs(np.array([[0.0], [1.0]]) - np.array([[0.0, 3.0]])) + 1e-9)
    with pytest.raises(GluingError, match="certify"):
        chain_glue([sp, sp, far], [identity_cross(sp), amb])
    # inadmissible cross is rejected up front
    bad = AdmissibleExtension(np.array([[1e-9, 5.0], [1.0, 2.0]]))
    with pytest.raises(GluingError, match="inadmissible"):
        chain_glue([sp, sp, far], [identity_cross(sp), bad])


def test_chain_glue_restriction_and_layer_count():
    sp = _space_from_points([[0.0], [0.5], [1.0]])
    res = chain_glue([sp, sp, sp], [identity_cross(sp)] * 2)
    n = sp.n
    for off in res.layer_offsets:
        assert np.abs(res.glued[off:off + n, off:off + n] - sp.dist).max() <= 1e-9


def test_chain_glue_golden_bytes():
    # SHA-256 of the glued matrix of a 4-layer constant chain of a 46-point
    # H^2 net, recorded with the explicit Floyd–Warshall loop (numpy 2.4,
    # x86_64): scipy's Floyd–Warshall must give the same bits
    net = net_from_manifold(Hyperbolic(2), radius=1.8, mesh=0.5, seed=3)
    assert net.n == 46
    res = chain_glue([net] * 4, [identity_cross(net)] * 3)
    assert res.glued[5, 143] == 3e-12
    assert hashlib.sha256(res.glued.tobytes()).hexdigest() == (
        "60361d4d0d3766eab5ad917261dad41605719e718db1e1afddf339408c4dc495")


def test_chain_glue_keeps_tiny_bridges():
    # a dense-array graph would read the 1e-12 bridges as missing edges
    point = FinitePointedSpace(np.zeros((1, 1)))
    res = chain_glue([point] * 3, [AdmissibleExtension(np.array([[1e-12]]))] * 2)
    assert np.array_equal(res.glued, [[0.0, 1e-12, 2e-12], [1e-12, 0.0, 1e-12], [2e-12, 1e-12, 0.0]])


def _net_with_coords(space, radius, mesh, seed):
    """Test-side farthest-point net that keeps the chart coordinates."""
    rng = np.random.default_rng(seed)
    pool_n = 4000
    rs = np.sqrt(rng.uniform(0, 1, pool_n)) * radius  # dense enough for tests
    if isinstance(space, Hyperbolic):
        dirs = rng.standard_normal((pool_n, space.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pool = np.vstack([np.zeros(space.dim), dirs * rs[:, None]])
    else:
        raise NotImplementedError
    chosen = [0]
    dmin = space.dist_to_many(pool, pool[0])
    while True:
        i = int(np.argmax(dmin))
        if dmin[i] <= mesh:
            break
        chosen.append(i)
        dmin = np.minimum(dmin, space.dist_to_many(pool, pool[i]))
    pts = pool[chosen]
    return pts, FinitePointedSpace(space.pairwise_distances(pts))


def test_chain_glue_h2_nets_approach_fine_net():
    h2 = Hyperbolic(2, 1.0)
    radius, seed = 1.4, 11
    layers, coords = [], []
    for n in range(3):
        pts, sp = _net_with_coords(h2, radius, 0.9 * 2.0 ** (-n), seed + n)
        coords.append(pts)
        layers.append(sp)
    crosses = []
    for n in range(2):
        cross = np.zeros((layers[n].n, layers[n + 1].n))
        for i, p in enumerate(coords[n]):
            cross[i] = h2.dist_to_many(coords[n + 1], p)
        crosses.append(AdmissibleExtension(cross + 1e-9))
    res = chain_glue(layers, crosses)
    # the limit ball (last layer) is close to an independently drawn fine net
    pts_fine, fine = _net_with_coords(h2, 1.0, 0.15, seed=99)
    limit_pts = coords[-1][layers[-1].radii() <= 1.0]
    assert res.limit_ball.n == layers[-1].n
    ball = FinitePointedSpace(h2.pairwise_distances(limit_pts))
    cross = np.zeros((ball.n, fine.n))
    for i, p in enumerate(limit_pts):
        cross[i] = h2.dist_to_many(pts_fine, p)
    eps_cert = 0.45
    assert certify_upper(ball, fine, AdmissibleExtension(cross + 1e-9), eps_cert)
    # packing lower bound: at least as many points as a 0.45-separated subset
    sep, dmin = [0], h2.dist_to_many(limit_pts, limit_pts[0])
    while dmin.max() > 0.45:
        i = int(np.argmax(dmin))
        sep.append(i)
        dmin = np.minimum(dmin, h2.dist_to_many(limit_pts, limit_pts[i]))
    assert ball.n >= len(sep)


# ------------------------------------------------------------------- nets


def test_net_euclidean_line():
    net = net_from_manifold(Euclidean(1), radius=1.0, mesh=0.5, seed=3)
    assert net.n <= 5
    assert net.radii().max() <= 1.0 + 1e-12


def test_net_h2_cardinality_within_packing_bounds():
    h2 = Hyperbolic(2, 1.0)
    net = net_from_manifold(h2, radius=2.0, mesh=0.25, seed=9)
    lower = h2.ball_volume(2.0) / h2.ball_volume(2 * 0.25)   # mesh-balls cover B_2
    upper = h2.ball_volume(2.0 + 0.125) / h2.ball_volume(0.125)  # separated packing
    assert lower <= net.n <= upper


def test_net_dense_and_separated():
    net = net_from_manifold(Hyperbolic(2, 1.0), radius=1.5, mesh=0.4, seed=1)
    d = net.dist
    off = d[~np.eye(net.n, dtype=bool)]
    assert off.min() > 0.4  # separation (> mesh by construction)


def test_net_rejects_rotsym():
    with pytest.raises(GeometryError):
        net_from_manifold(builtin_profile("kaimanovich"), 1.0, 0.5, 0)


def test_net_curvature_trend():
    # d_GS between H^2 nets at nearby curvatures: small, positive, increasing in |k - 1|
    nets = {
        k: net_from_manifold(Hyperbolic(2, k), radius=1.2, mesh=0.5, seed=5)
        for k in (1.0, 1.05, 1.3)
    }
    d_small = gromov_distance(nets[1.0], nets[1.05], tol=2e-3).value
    d_big = gromov_distance(nets[1.0], nets[1.3], tol=2e-3).value
    assert d_small <= d_big
    assert d_big > 2e-3


def test_halfplane_net_roundtrip_distances():
    # the disk -> half-plane map used for sampling preserves radial distance
    hp = HalfPlane()
    rs = np.array([0.5, 1.0, 2.0, 3.0])
    pts = hp.points_at_radii(rs, np.random.default_rng(4))
    for r, p in zip(rs, pts):
        assert hp.distance((0.0, 1.0), p) == pytest.approx(r, abs=1e-9)
    net = net_from_manifold(hp, radius=1.0, mesh=0.5, seed=2)
    net.validate()


def test_halfplane_chart_holds_radii_up_to_its_bound():
    hp = HalfPlane()
    r_max = rdl.model_spaces._HALFPLANE_R_MAX
    rng = np.random.default_rng(4)
    pts = hp.points_at_radii(np.full(4000, r_max), rng)
    assert np.abs(hp.dist_to_many(pts, (0.0, 1.0)) - r_max).max() <= 1e-6
    for r in (np.nextafter(r_max, math.inf), 38.0, math.nan):
        with pytest.raises(GeometryError, match="half-plane chart"):
            hp.points_at_radii(np.array([1.0, r]), rng)


@pytest.mark.parametrize("space, radius, seed, n, digest", [
    (HalfPlane(), 1.5, 1, 25, "875912cdf7ed82b9fe7e6a49ac668a3eb02fe7d1e44231544028aa0a63737d20"),
    (Hyperbolic(2), 2.0, 1, 60, "5d16a6598afbe362ad63dcc98fa940c1348432d7ef61210c7735eea8ae95cb02"),
    (Hyperbolic(3), 1.0, 2, 45, "b0d25bd16f9ffac5f56820f727f97331670637b3b413b3066084a6ae8f2fb987"),
    (Euclidean(2), 1.0, 1, 13, "71f3de9de6ed2c71f9d26d4d1f1475deb4e68fb8bb10bee9f41e7a5dd2c9b877"),
], ids=["halfplane", "h2", "h3", "e2"])
def test_net_dist_golden_bytes(space, radius, seed, n, digest):
    # SHA-256 of the distance matrix bytes, recorded before the sampling chart
    # moved onto the space classes (numpy 2.4, x86_64): the RNG draws and the
    # chart arithmetic must not change
    net = net_from_manifold(space, radius=radius, mesh=0.5, seed=seed)
    assert net.n == n
    assert hashlib.sha256(net.dist.tobytes()).hexdigest() == digest


# ------------------------------------------------------------- json round


def test_space_json_round_trip():
    sp = _space_from_points([[0.0], [0.4], [1.1]])
    clone = FinitePointedSpace.from_json_dict(sp.to_json_dict())
    assert np.array_equal(clone.dist, sp.dist)
    with pytest.raises(MetricError):
        FinitePointedSpace.from_json_dict({"n": 5, "basepoint": 0, "dist": sp.dist.tolist()})


def test_space_json_basepoint_must_be_index_zero():
    # a file is outside input: a basepoint other than index 0 is refused, not
    # silently renumbered
    sp = _space_from_points([[0.0], [0.4], [1.1]])
    blob = sp.to_json_dict()
    with pytest.raises(MetricError, match="basepoint"):
        FinitePointedSpace.from_json_dict({**blob, "basepoint": 1})
    clone = FinitePointedSpace.from_json_dict({k: v for k, v in blob.items() if k != "basepoint"})
    assert np.array_equal(clone.dist, sp.dist)


_PAIR = FinitePointedSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: feasible(_PAIR, _PAIR, 0.0), MetricError, "eps must lie in"),
    (lambda: feasible(_PAIR, _PAIR, 0.5), MetricError, "eps must lie in"),
    (lambda: feasible(_PAIR, _PAIR, 0.7), MetricError, "eps must lie in"),
    (lambda: chain_glue([_PAIR, _PAIR], []), GluingError, "need k spaces and k-1 crosses"),
    (lambda: chain_glue([_PAIR], []), GluingError, "need k spaces and k-1 crosses"),
    (lambda: net_from_manifold(Euclidean(2), 0.0, 0.5, 0), GeometryError, "need radius > 0 and mesh > 0"),
    (lambda: net_from_manifold(Euclidean(2), 1.0, -0.5, 0), GeometryError, "need radius > 0 and mesh > 0"),
    # each of these passed the guard, and the greedy loop never ended
    (lambda: net_from_manifold(Hyperbolic(2), float("nan"), 0.5, 0), GeometryError, "both finite"),
    (lambda: net_from_manifold(Hyperbolic(2), 1.0, float("nan"), 0), GeometryError, "both finite"),
    (lambda: net_from_manifold(Hyperbolic(2), float("inf"), 0.5, 0), GeometryError, "both finite"),
    # the first raised OverflowError from the radius sampler; the second never returned,
    # since the overflowing distances read NaN and the greedy loop re-picked one point
    (lambda: net_from_manifold(Hyperbolic(2), 800.0, 400.0, 0), GeometryError, "past the float range"),
    (lambda: net_from_manifold(Hyperbolic(2), 400.0, 200.0, 0), GeometryError, "law of cosines overflows"),
    # tanh(r/2) rounds to 1 past r = 38, so the half-plane points all sat at the y clamp
    (lambda: net_from_manifold(HalfPlane(), 400.0, 200.0, 0), GeometryError, "half-plane chart"),
    (lambda: AdmissibleExtension(np.ones((2, 3))).validate(_PAIR.dist, _PAIR.dist), MetricError,
     "cross matrix shape"),
], ids=["feasible-eps-0", "feasible-eps-half", "feasible-eps-0.7", "glue-no-cross", "glue-one-space",
        "net-radius", "net-mesh", "net-radius-nan", "net-mesh-nan", "net-radius-inf", "net-volume-overflow",
        "net-distance-overflow", "net-halfplane-chart", "cross-shape"])
def test_gromov_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
