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

Forward checking (Haralick and Elliott, Artif. Intell. 14, 1980): a bridge
(x, y) of any option list is viable at m while its own cone entry, put at
(x, y), passes the floor and the lower triangle constraints against m's
column y and row x.  A node whose m leaves some point still to come
uncovered, with none of the bridges whose cone covers it viable, is a dead
end and returns before it branches.  This is safe: a solution below the node
picks a bridge covering that point, and its m sits below both m and that
bridge's cone, so its own constraint checks would fail as the bridge's did
(m only falls down the tree, and the sums are rounded monotonically).  The
order of the depth-first search is unchanged, so the first witness found is
the same array, in fewer nodes.  A dead bridge stays dead, so a node rechecks
only the viable bridges in a row or column that it lowered.

A cross c is admissible iff [[d1, c], [cᵀ, d2]] is a metric: its triangle
inequalities that mix X1 and X2 are the Lipschitz and lower constraints on c,
and its positivity is c > 0, so one _check_metric serves both validate
methods.  Its triangle check first clears what a min-plus bound can.  The
exact value is V[i,j,k] = fl(fl(d(i,j) - d(i,k)) - d(k,j)); the bound is
B(i,j) = fl(d(i,j) - min_k fl(d(i,k) + d(k,j))), one add and one min-reduce
per entry, in one reused buffer of at most max(_SLAB_ENTRIES, n + 1) floats
that takes a tile of whole rows i, or one row and a block of its columns j.
With u = 2^-53 and M = max|d|, the two roundings of V are off by at most
2u·M and 3u·M, and those of B too, so V[i,j,k] <= B(i,j) + 10u·M for every
k, to first order in u.  A pair with B(i,j) <= fl(tol - 12u·M) thus has
every V[i,j,k] < tol + u·tol, below tol + ulp(tol), the next float above
tol: the spare 2u·M covers the terms in u²M and the rounding of the cut.  A
row whose pairs are all cleared holds no violation.  When d == dᵀ exactly,
B(j,i) has the bits of B(i,j), since fl(a + b) = fl(b + a), so a tile that
starts at row i forms only the columns j >= i; a d symmetric only within tol
takes every j.  Both rows i and j of a pair that the bound does not clear
are flagged, and the exact scan runs over the flagged rows in increasing
order, in slabs of rows sized to about _SLAB_ENTRIES floats (1 MB, at least
one row), so that a slab stays in cache.  A violation lies only in a flagged
row, so the error names the first worst triple of the full scan, whatever
the slab size.  Where 12u·M >= tol (M past about 700 at _METRIC_TOL) every
row is flagged and the exact scan is the whole check; a valid metric below
that flags no row.

chain_glue gives scipy's Floyd–Warshall a sparse graph: from a dense array
scipy drops entries within 1e-8 of zero as missing edges, identity_cross's
1e-12 bridges among them.

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

from .model_spaces import GeometryError, ModelManifold, json_int, json_number, json_object

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
_SLAB_ENTRIES = 1 << 17  # floats per slab of the triangle check in _check_metric, 1 MB
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
    # V[i,j,k] = d(i,j) - d(i,k) - d(k,j) over the rows that the bound does not
    # clear, a slab of rows at a time in one reused buffer of about
    # _SLAB_ENTRIES floats (one row of n^2 at least), so that it stays in cache;
    # the strict > keeps the first maximum, as argmax would, whatever the slab size
    dT = d.T.copy()
    rows = _uncleared_rows(d, dT, tol)
    worst, at = -np.inf, None
    slab = max(1, _SLAB_ENTRIES // d.size)
    buf = np.empty((min(slab, rows.size),) + d.shape)
    for s in range(0, rows.size, slab):
        idx = rows[s : s + slab]
        block = d[idx]
        viol = np.subtract(block[:, :, None], block[:, None, :], out=buf[: idx.size])
        viol -= dT
        flat = np.argmax(viol)
        if viol.flat[flat] > worst:
            worst = viol.flat[flat]
            i, j, k = np.unravel_index(flat, viol.shape)
            at = (idx[i], j, k)
    if worst > tol:
        i, j, k = at
        raise MetricError(
            f"triangle inequality violated by {worst:.3g} at (i={i}, j={j}, k={k}): "
            f"d({i},{j}) > d({i},{k}) + d({k},{j})"
        )


def _uncleared_rows(d: np.ndarray, dT: np.ndarray, tol: float) -> np.ndarray:
    """The rows, in increasing order, that the min-plus bound of the module
    docstring cannot clear of a triangle violation past tol; dT is d.T."""
    n = d.shape[0]
    slack = 12 * 2.0**-53 * max(d.max(), -d.min())  # 12u·M
    if slack >= tol:
        return np.arange(n)
    cut = tol - slack
    sym = np.array_equal(d, dT)  # then B(j,i) = B(i,j), so j >= i only
    # tiles of rows i and columns j in one buffer of <= max(_SLAB_ENTRIES, n + 1)
    # floats: several whole rows at a time, or one row and a block of its columns
    cols = min(n, max(1, _SLAB_ENTRIES // (n + 1)))
    rows = min(n, max(1, _SLAB_ENTRIES // (cols * (n + 1))))
    sums, low = np.empty((rows, cols, n)), np.empty((rows, cols))
    flag = np.zeros(n, dtype=bool)
    for i in range(0, n, rows):
        r = d[i : i + rows]
        for j in range(i if sym else 0, n, cols):
            m = min(cols, n - j)
            s = np.add(r[:, None, :], dT[None, j : j + m], out=sums[: r.shape[0], :m])  # d(i,k) + d(k,j)
            b = np.minimum.reduce(s, axis=2, out=low[: r.shape[0], :m])
            np.subtract(r[:, j : j + m], b, out=b)
            if b.max() > cut:
                bi, bj = np.nonzero(b > cut)
                flag[i + bi] = True
                flag[j + bj] = True
    return np.flatnonzero(flag)


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
        rows = json_object(obj, "a pointed space", ("dist",), ("n", "basepoint"), MetricError)["dist"]
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


def _failing(m, ci, cj, c, d1, d2):
    """Yield, _CHECK_BLOCK entries at a time, whether the value c[k] at the
    entry (x, y) = (ci[k], cj[k]) of m is below the floor DELTA or breaks a
    lower triangle constraint c[k] + m(x', y) >= d1(x, x') or
    c[k] + m(x, y') >= d2(y, y').  d1 and d2 must be symmetric, so that the
    pairs (x', x) and (y', y) are covered as well; memory stays
    O(_CHECK_BLOCK (n1 + n2))."""
    for s in range(0, len(ci), _CHECK_BLOCK):
        i, j, v = (a[s : s + _CHECK_BLOCK] for a in (ci, cj, c))
        v = v[:, None]
        rows = m[:, j].T  # rows[k, x'] = m[x', j[k]], a fresh array
        rows += v
        rows -= d1[i, :]
        cols = m[i, :]
        cols += v
        cols -= d2[j, :]
        yield ((v[:, 0] < DELTA - 1e-15) | (rows < -_SEARCH_TOL).any(axis=1)
               | (cols < -_SEARCH_TOL).any(axis=1))


def _breaks(m, ci, cj, d1, d2):
    """True if an entry (ci[k], cj[k]) of m fails _failing against m itself;
    the check stops at the first block that breaks."""
    return any(f.any() for f in _failing(m, ci, cj, m[ci, cj], d1, d2))


def _bridge_cover(cands, d1, d2, cap):
    """The distinct bridges (bx, by) of all option lists and covers[b, q]:
    bridge b covers the point of cands[q].  That is read off b's cone
    d1[:, [x]] + cap + d2[[y], :], whose row p (column p) has its minimum
    (d1(p, x) + cap) + min d2(y, :) ((min d1(:, x) + cap) + d2(y, p)) since
    rounding is monotone; a point's own bridges count whatever the rounding."""
    index = {b: k for k, b in enumerate(dict.fromkeys(b for _, _, bs in cands for b in bs))}
    bx, by = np.array(list(index)).T
    row = np.array([e[0] for e in cands])
    point = np.array([e[1] for e in cands])
    covers = np.empty((len(index), len(cands)), dtype=bool)
    covers[:, row] = (d1[np.ix_(bx, point[row])] + cap) + d2.min(axis=1)[by, None] <= cap + 1e-15
    covers[:, ~row] = (d1.min(axis=0)[bx, None] + cap) + d2[np.ix_(by, point[~row])] <= cap + 1e-15
    for q, (_, _, bridges) in enumerate(cands):
        covers[[index[b] for b in bridges], q] = True
    return covers, bx, by, row, point


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
    covers, bx, by, prow, pidx = _bridge_cover(cands, d1, d2, cap)
    own = (d1[bx, bx] + cap) + d2[by, by]  # each bridge's entry of its own cone

    def forward(i, m, lowered, viable, alive):
        """The bridges still viable at m, and per point how many of them cover
        it; None if a point of cands[i:] that m leaves uncovered has none.  Only
        bridges in a row or column that m lowered can newly fail."""
        rows, cols = np.zeros(m.shape[0], dtype=bool), np.zeros(m.shape[1], dtype=bool)
        rows[lowered[0]], cols[lowered[1]] = True, True
        k = np.flatnonzero(viable & (rows[bx] | cols[by]))
        if not k.size:
            return viable, alive
        dead = k[np.concatenate(list(_failing(m, bx[k], by[k], own[k], sym1, sym2)))]
        if not dead.size:
            return viable, alive
        viable = viable.copy()
        viable[dead] = False
        lost = covers[dead].sum(axis=0)
        alive = alive - lost
        q = i + np.flatnonzero((alive[i:] == 0) & (lost[i:] > 0))
        r, c = pidx[q[prow[q]]], pidx[q[~prow[q]]]
        if (m[r].min(axis=1) > cap + 1e-15).any() or (m[:, c].min(axis=0) > cap + 1e-15).any():
            return None
        return viable, alive

    base = d1[:, [0]] + cap + d2[[0], :]
    nodes = 0

    def search(i, m, lowered, viable, alive):
        nonlocal nodes
        nodes += 1
        if nodes > _MAX_NODES:
            raise _SearchTruncated
        if _breaks(m, *lowered, sym1, sym2):
            return None
        if i == len(cands):
            return m
        state = forward(i, m, lowered, viable, alive)
        if state is None:
            return None
        row, p, bridges = cands[i]
        if (m[p] if row else m[:, p]).min() <= cap + 1e-15:
            # already covered, m unchanged: nothing to recheck
            return search(i + 1, m, ([], []), *state)
        for x, y in bridges:
            new = np.minimum(m, d1[:, [x]] + cap + d2[[y], :])
            res = search(i + 1, new, np.nonzero(new < m), *state)
            if res is not None:
                return res
        return None

    try:
        witness = search(0, base, np.nonzero(np.ones(base.shape, dtype=bool)),
                         np.ones(len(bx), dtype=bool), covers.sum(axis=0))
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
    from scipy.optimize import linprog

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
    from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall

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

