"""The Gromov distance d_GS on finite pointed metric spaces, and the
Cauchy-chain gluing construction of limit spaces.

d_GS(X1, X2) is the infimum of eps in (0, 1/2) such that some admissible
metric c on the disjoint union X1 ⊔ X2 has c(o1, o2) < eps, every point of
the 1/eps-ball of o1 within eps of X2, and vice versa; 1/2 if none exists.
Strict inequalities are handled by a delta = 1e-9 margin; the bisection
reports its bracket so the strict/non-strict distinction stays below tol.

Feasibility at a given eps: the per-point covering requirements are
disjunctions ("some partner within eps").  A bridge is a cross entry
(xs, ys) capped at eps - delta: (p, y) covers a point p of X1, (x, p) a point
of X2, and (o1, o2) is always one.  For a fixed choice of bridges, the
remaining conjunctive system has a greatest element

    m(x, y) = min over bridges (xs, ys) of d1(x, xs) + (eps - delta) + d2(ys, y)

(the set of cross matrices satisfying the Lipschitz upper constraints and
bridge caps is closed under pointwise min and max), so the system is
feasible iff m clears the positivity floor and the lower triangle
constraints, and then m itself is a witness.  m shrinks as bridges are
added, so a partial assignment that already fails can be pruned: the
partner search is exact backtracking.  A node's m is min(parent's m, bridge)
and the parent's m passed every check, so a constraint can newly fail only
through an entry the bridge lowered; a node checks those k entries alone, in
at most k·(n1 + n2) work instead of n1·n2·(n1 + n2).  Candidate partners
are pruned to the window |d1(o1,x) - d2(o2,y)| <= 2(eps - delta), which is
implied by any feasible cross matrix, and capped at the _K_NEAREST radially
closest; only the cap can lose solutions and results carry an `exact` flag.

A cross c is admissible iff [[d1, c], [cᵀ, d2]] is a metric: its triangle
inequalities that mix X1 and X2 are the Lipschitz and lower constraints on c,
and its positivity is c > 0, so one slab-wise _check_metric serves both
validate methods.  chain_glue gives scipy's Floyd–Warshall a sparse graph:
from a dense array scipy drops entries within 1e-8 of zero as missing edges,
identity_cross's 1e-12 bridges among them.

`feasible_lp` decides the same question by an independent route: for each
assignment of partners it hands the conjunctive system to scipy's HiGHS LP
solver (`linprog(method="highs")`).  It is library code so that the tests
and the benchmark can both call it as a cross-check of `feasible`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy
from .model_spaces import GeometryError, ModelManifold, json_int, json_number

linprog = lazy("scipy.optimize", "linprog")
csgraph_from_dense = lazy("scipy.sparse.csgraph", "csgraph_from_dense")
floyd_warshall = lazy("scipy.sparse.csgraph", "floyd_warshall")

__all__ = [
    "MetricError",
    "GluingError",
    "FinitePointedSpace",
    "AdmissibleExtension",
    "FeasibilityResult",
    "feasible",
    "feasible_lp",
    "GromovDistanceResult",
    "gromov_distance",
    "certify_upper",
    "identity_cross",
    "ChainGlueResult",
    "chain_glue",
    "net_from_manifold",
    "DELTA",
]

DELTA = 1e-9  # margin standing in for the strict inequalities in the d_GS definition
_METRIC_TOL = 1e-12  # slack of the zero-diagonal, symmetry and triangle checks
_TRIANGLE_SLAB = 8  # rows per slab of the triangle check in _check_metric
_K_NEAREST = 4  # partners kept per point, radially closest first
_SEARCH_TOL = 1e-11  # slack of the lower triangle constraints in feasible()
_CHECK_BLOCK = 256  # cross entries per block of a search node's check
_MAX_NODES = 200000  # search nodes of feasible() before it gives up, inexact
_MAX_ASSIGNMENTS = 20000  # partner assignments of feasible_lp() before it gives up


class MetricError(ValueError):
    """Input matrix is not a metric, or a cross matrix is not admissible."""


class GluingError(ValueError):
    """Chain-gluing certificate violated."""


def _check_metric(d: np.ndarray, tol: float) -> None:
    """Raise MetricError unless d is a finite square metric matrix, to within tol."""
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
    # V[i,j,k] = d(i,j) - d(i,k) - d(k,j), a slab of rows i at a time in one
    # reused buffer so that memory stays O(n^2); the strict > keeps the first
    # maximum, as argmax would
    worst, at = -np.inf, None
    buf, dT = np.empty((_TRIANGLE_SLAB,) + d.shape), d.T.copy()
    for s in range(0, d.shape[0], _TRIANGLE_SLAB):
        rows = d[s : s + _TRIANGLE_SLAB]
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


@dataclass(frozen=True)
class FinitePointedSpace:
    """n-point metric space, basepoint index 0, validated on construction."""

    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dist", np.asarray(self.dist, dtype=float))
        self.validate()

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def validate(self) -> None:
        _check_metric(self.dist, _METRIC_TOL)

    def radii(self) -> np.ndarray:
        return self.dist[0]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "basepoint": 0, "dist": self.dist.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FinitePointedSpace":
        if not isinstance(obj, dict) or "dist" not in obj:
            raise MetricError("a pointed space is a JSON object with a 'dist' matrix")
        rows = obj["dist"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise MetricError("'dist' must be a matrix: a list of rows of numbers")
        entries = [[json_number(x, "dist", MetricError) for x in row] for row in rows]
        try:
            d = np.array(entries)
        except ValueError as e:  # ragged rows
            raise MetricError(f"'dist' must be a square matrix: {e}") from e
        fields = {key: json_int(obj[key], key, MetricError) for key in ("n", "basepoint") if key in obj}
        if d.ndim != 2:
            raise MetricError(f"'dist' must be a square matrix, got shape {d.shape}")
        if fields.get("n", d.shape[0]) != d.shape[0]:
            raise MetricError(f"n = {fields['n']} does not match matrix size {d.shape[0]}")
        if fields.get("basepoint", 0) != 0:
            raise MetricError("basepoint is normalized to index 0")
        return cls(d)


@dataclass(frozen=True)
class AdmissibleExtension:
    """Candidate cross-distances c(x, y) for the disjoint union X1 ⊔ X2."""

    cross: np.ndarray

    def validate(self, d1: np.ndarray, d2: np.ndarray, tol: float = 1e-9) -> None:
        """Raise MetricError unless [[d1, c], [cᵀ, d2]] is a metric; errors use its indices."""
        c = np.asarray(self.cross, dtype=float)
        n1, n2 = d1.shape[0], d2.shape[0]
        if c.shape != (n1, n2):
            raise MetricError(f"cross matrix shape {c.shape} != ({n1}, {n2})")
        _check_metric(np.block([[d1, c], [c.T, d2]]), tol)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None
    exact: bool
    nodes: int
    eps: float


def _partner_options(d1, d2, eps, cap):
    """Bridge options of every point of the 1/eps-balls, X1's points first.

    Returns (options, truncated): options lists (row, p, bridges), row True for
    a point p of X1 and False for a point of X2.  bridges lists the cross
    entries (x, y) that would cover p, one per partner in its radial window
    |d1(o1, x) - d2(o2, y)| <= 2 cap, nearest first and at most _K_NEAREST;
    truncated says whether that cap dropped one.  options is None when no
    assignment exists: cap < DELTA, below the lower bound DELTA of every cross
    distance (so the basepoint bridge cannot hold), or some point has no
    partner in its window.
    """
    if not (0.0 < eps < 0.5):
        raise MetricError(f"eps must lie in (0, 1/2), got {eps}")
    if cap < DELTA:
        return None, False
    rho1, rho2 = d1[0], d2[0]
    options, truncated = [], False
    for row, rho_self, rho_other in ((True, rho1, rho2), (False, rho2, rho1)):
        for p in map(int, np.flatnonzero(rho_self <= 1.0 / eps)):
            gaps = np.abs(rho_other - rho_self[p])
            idx = np.where(gaps <= 2.0 * cap + 1e-15)[0]
            idx = idx[np.argsort(gaps[idx], kind="stable")]
            if not idx.size:
                return None, False
            truncated |= idx.size > _K_NEAREST
            options.append((row, p, [(p, q) if row else (q, p) for q in idx[:_K_NEAREST]]))
    return options, truncated


def _breaks(m, ci, cj, d1, d2):
    """True if an entry (x, y) = (ci[k], cj[k]) of m is below the floor DELTA
    or breaks a lower triangle constraint m(x, y) + m(x', y) >= d1(x, x') or
    m(x, y) + m(x, y') >= d2(y, y').  d1 and d2 must be symmetric, so that the
    pairs (x', x) and (y', y) are covered as well.  Entries are checked
    _CHECK_BLOCK at a time, so memory stays O(_CHECK_BLOCK (n1 + n2)) and the
    check stops at the first block that breaks."""
    for s in range(0, len(ci), _CHECK_BLOCK):
        i, j = ci[s : s + _CHECK_BLOCK], cj[s : s + _CHECK_BLOCK]
        c = m[i, j][:, None]
        if (c < DELTA - 1e-15).any():
            return True
        rows = m[:, j].T  # rows[k, x'] = m[x', j[k]], a fresh array
        rows += c
        rows -= d1[i, :]
        if (rows < -_SEARCH_TOL).any():
            return True
        cols = m[i, :]
        cols += c
        cols -= d2[j, :]
        if (cols < -_SEARCH_TOL).any():
            return True
    return False


def feasible(a: FinitePointedSpace, b: FinitePointedSpace, eps: float) -> FeasibilityResult:
    """Decide whether an admissible extension realizes the d_GS conditions at eps."""
    d1, d2 = a.dist, b.dist
    # validate allows an asymmetry up to _METRIC_TOL: a lower triangle constraint
    # holds for both orders of a pair iff it holds against the larger distance
    sym1, sym2 = np.maximum(d1, d1.T), np.maximum(d2, d2.T)
    cap = eps - DELTA
    cands, truncated_any = _partner_options(d1, d2, eps, cap)
    if cands is None:
        return FeasibilityResult(False, None, True, 0, eps)
    cands.sort(key=lambda e: (len(e[2]), e[0], e[1]))  # most constrained first

    base = d1[:, [0]] + cap + d2[[0], :]
    nodes = 0

    def search(i, m, lowered):
        nonlocal nodes
        nodes += 1
        if nodes > _MAX_NODES:
            raise _SearchTruncated
        if _breaks(m, *lowered, sym1, sym2):
            return None
        if i == len(cands):
            return m
        row, p, bridges = cands[i]
        if (m[p] if row else m[:, p]).min() <= cap + 1e-15:
            return search(i + 1, m, ([], []))  # already covered, m unchanged: nothing to recheck
        for x, y in bridges:
            new = np.minimum(m, d1[:, [x]] + cap + d2[[y], :])
            res = search(i + 1, new, np.nonzero(new < m))
            if res is not None:
                return res
        return None

    try:
        witness = search(0, base, np.nonzero(np.ones(base.shape, dtype=bool)))
    except _SearchTruncated:
        return FeasibilityResult(False, None, False, nodes, eps)
    if witness is None:
        return FeasibilityResult(False, None, not truncated_any, nodes, eps)
    return FeasibilityResult(True, witness, True, nodes, eps)


class _SearchTruncated(Exception):
    pass


# ------------------------------------------------------------ LP oracle route


def lp_system(d1, d2, eps, bridges):
    """A_ub, b_ub, lb, ub for the assignment-resolved feasibility system.

    Variable i * n2 + j is c(i, j).  The rows are |c(i1,j) - c(i2,j)| <= d1(i1,i2)
    and c(i1,j) + c(i2,j) >= d1(i1,i2) for every column j, likewise along rows
    with d2; the bridges (xs, ys) cap c(xs, ys) at eps - DELTA through ub.
    """
    n1, n2 = d1.shape[0], d2.shape[0]
    var = np.arange(n1 * n2).reshape(n1, n2)
    pairs = []
    for d, vs in ((d1, var), (d2, var.T)):
        p, q = np.triu_indices(d.shape[0], 1)
        pairs.append((vs[p].ravel(), vs[q].ravel(), np.repeat(d[p, q], vs.shape[1])))
    u, v, w = (np.concatenate(x) for x in zip(*pairs))
    rows = np.arange(u.size)
    A = np.zeros((3 * u.size, n1 * n2))
    for block, (su, sv) in enumerate(((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))):
        A[block * u.size + rows, u] = su
        A[block * u.size + rows, v] = sv
    b = np.concatenate([w, w, -w])

    cap = eps - DELTA
    lb = np.full(n1 * n2, DELTA)
    ub = d1[:, [0]] + cap + d2[[0], :]
    for xs, ys in bridges:
        ub[xs, ys] = min(ub[xs, ys], cap)
    return A, b, lb, ub.reshape(-1)


def feasible_lp(a: FinitePointedSpace, b: FinitePointedSpace, eps: float) -> FeasibilityResult:
    """Same decision as feasible(), via one HiGHS LP per partner assignment.

    Raises RuntimeError when HiGHS stops without deciding an LP.
    """
    d1, d2 = a.dist, b.dist
    options, truncated_any = _partner_options(d1, d2, eps, eps - DELTA)
    if options is None:
        return FeasibilityResult(False, None, True, 0, eps)
    count = 0
    for combo in itertools.product(*(bridges for _, _, bridges in options)):
        count += 1
        if count > _MAX_ASSIGNMENTS:
            return FeasibilityResult(False, None, False, count, eps)
        A, rhs, lb, ub = lp_system(d1, d2, eps, [(0, 0), *combo])
        res = linprog(np.zeros(lb.size), A_ub=A, b_ub=rhs, bounds=np.column_stack([lb, ub]),
                      method="highs")
        if res.status == 0:
            witness = np.clip(res.x, lb, ub).reshape(d1.shape[0], d2.shape[0])
            return FeasibilityResult(True, witness, True, count, eps)
        if res.status != 2:
            raise RuntimeError(f"LP oracle undecided at eps = {eps}: {res.message}")
    return FeasibilityResult(False, None, not truncated_any, count, eps)


# ----------------------------------------------------------------- bisection


@dataclass(frozen=True)
class GromovDistanceResult:
    value: float
    lo: float
    hi: float
    witness: np.ndarray | None
    exact: bool


def gromov_distance(
    a: FinitePointedSpace, b: FinitePointedSpace, tol: float = 1e-3
) -> GromovDistanceResult:
    """Bisection on eps over (0, 1/2); returns the upper end of the bracket."""
    if not 1e-6 <= tol < math.inf:
        raise MetricError(f"tol must be finite and >= 1e-6, got {tol}")
    hi = 0.5 - 1e-9
    res = feasible(a, b, hi)
    if not res.feasible:
        return GromovDistanceResult(0.5, hi, 0.5, None, res.exact)
    lo, witness, exact = 0.0, res.witness, res.exact
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        r = feasible(a, b, mid)
        exact = exact and r.exact
        if r.feasible:
            hi, witness = mid, r.witness
        else:
            lo = mid
    return GromovDistanceResult(hi, lo, hi, witness, exact)


def certify_upper(
    a: FinitePointedSpace, b: FinitePointedSpace, cross: AdmissibleExtension, eps: float
) -> bool:
    """True iff `cross` witnesses d_GS(a, b) <= eps (non-strict conditions)."""
    cross.validate(a.dist, b.dist)
    c, ball = np.asarray(cross.cross, dtype=float), 1.0 / eps
    return bool(
        c[0, 0] <= eps
        and (c[a.radii() <= ball].min(axis=1) <= eps).all()
        and (c[:, b.radii() <= ball].min(axis=0) <= eps).all()
    )


def identity_cross(space: FinitePointedSpace) -> AdmissibleExtension:
    """Lift of the identity map: c = d + 1e-12 (strictly positive diagonal)."""
    return AdmissibleExtension(space.dist + 1e-12)


# -------------------------------------------------------------- chain gluing


@dataclass(frozen=True)
class ChainGlueResult:
    glued: np.ndarray
    layer_offsets: list
    limit_ball: FinitePointedSpace


def chain_glue(spaces: list, crosses: list) -> ChainGlueResult:
    """Glue a Cauchy chain along admissible crosses; extract the limit ball.

    Each cross must certify d_GS(X_n, X_{n+1}) <= 2^-n.  The glued metric is
    the all-pairs shortest path on the layered graph (complete within layers,
    cross edges between consecutive layers); its restriction to each layer
    recovers that layer's metric.  Finite limit points are represented by the
    last layer X_{N-1}, N = len(spaces) (tail equivalence classes truncated at
    depth N), whose ball is within the remaining certificates
    sum_{n >= N-1} 2^-n = 2^-(N-2) of the true limit ball.
    """
    if len(spaces) < 2 or len(crosses) != len(spaces) - 1:
        raise GluingError("need k spaces and k-1 crosses, k >= 2")
    for n, (x1, x2, cr) in enumerate(zip(spaces[:-1], spaces[1:], crosses)):
        try:
            certified = certify_upper(x1, x2, cr, 2.0 ** (-n))
        except MetricError as e:
            raise GluingError(f"cross {n} inadmissible: {e}") from e
        if not certified:
            raise GluingError(f"cross {n} does not certify d_GS <= 2^-{n}")

    sizes = [s.n for s in spaces]
    offsets = list(np.cumsum([0] + sizes[:-1]))
    total = sum(sizes)
    big = np.full((total, total), np.inf)
    for s, off in zip(spaces, offsets):
        big[off : off + s.n, off : off + s.n] = s.dist
    for cr, off1, off2, s1, s2 in zip(crosses, offsets[:-1], offsets[1:], spaces[:-1], spaces[1:]):
        big[off1 : off1 + s1.n, off2 : off2 + s2.n] = cr.cross
        big[off2 : off2 + s2.n, off1 : off1 + s1.n] = cr.cross.T
    big = floyd_warshall(csgraph_from_dense(big, null_value=np.inf))

    for s, off in zip(spaces, offsets):
        if np.abs(big[off : off + s.n, off : off + s.n] - s.dist).max() > 1e-9:
            raise GluingError("glued metric fails to restrict to a layer metric")

    off, n = offsets[-1], spaces[-1].n
    return ChainGlueResult(
        glued=big,
        layer_offsets=offsets,
        limit_ball=FinitePointedSpace(big[off : off + n, off : off + n].copy()),
    )


# ----------------------------------------------------------------------- nets


def net_from_manifold(
    space: ModelManifold, radius: float, mesh: float, seed: int
) -> FinitePointedSpace:
    """Greedy farthest-point net of the radius-ball: mesh-dense w.r.t. a dense
    candidate pool and mesh-separated, with the basepoint first and exact
    pairwise distances."""
    if space.k is None:
        raise GeometryError(f"{space.label()} has no exact pairwise distances")
    if not (0 < radius < math.inf and 0 < mesh < math.inf):  # NaN fails too
        raise GeometryError(f"need radius > 0 and mesh > 0, both finite; got {radius} and {mesh}")
    rng = np.random.default_rng(seed)
    vol = space.ball_volume(radius + mesh)
    if not math.isfinite(vol):
        raise GeometryError(f"the ball of radius {radius} + {mesh} has a volume past the float range")
    est = vol / max(space.ball_volume(mesh / 2.0), 1e-12)
    pool_size = int(min(20000, max(500, 40 * est)))

    rs = _sample_radii(space, radius, pool_size, rng)
    pool = np.vstack([space.basepoint, space.points_at_radii(rs, rng)])

    chosen = [0]
    dmin = space.dist_to_many(pool, pool[0])
    while True:
        i = int(np.argmax(dmin))
        if dmin[i] <= mesh:
            break
        chosen.append(i)
        dmin = np.minimum(dmin, space.dist_to_many(pool, pool[i]))
    return FinitePointedSpace(space.pairwise_distances(pool[chosen]))


def _sample_radii(space: ModelManifold, radius: float, size: int, rng) -> np.ndarray:
    grid = np.linspace(0.0, radius, 512)
    dens = np.array([space.sphere_area(r) for r in grid])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return np.interp(rng.uniform(0.0, 1.0, size), cdf, grid)

