"""Independent oracles for the test suite.

2D hulls come from a monotone chain, containment scales from halfplane
arithmetic over a refined translation grid, and widths from closed forms.
V-form scale fits, over convex-combination variables, come from HiGHS
(scipy), outside the library's LP code, or from ``_scale_fit_lp`` solved by
the library's two-phase ``lp.solve``, which no library fit uses.  Planar
scale fits also come from an enumeration of all of L's dual rays, which the
library's planar fit walks instead.  These are the second route of every
dual-route check.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from shadowcover import containment, lp


def hull2d(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2D points in counterclockwise order (monotone chain).

    A turn of cross product at most 1e-12 counts as straight, unless the
    chain doubles back there: on a near-vertical side, whose points sort by
    rounding-level differences in x, a corner may come before a point
    between it and the side's other end, and it stays."""
    pts = np.unique(np.round(np.asarray(points, float), 12), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                u, w = out[-1] - out[-2], p - out[-2]
                turn = u[0] * w[1] - u[1] * w[0]
                if turn > 1e-12 or (turn > 0.0 and u @ (p - out[-1]) < 0.0):
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def halfplanes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward-normal halfplane description a.x <= b of conv(points) in 2D."""
    hull = hull2d(points)
    m = len(hull)
    if m < 3:
        raise ValueError("need a full-dimensional 2D body")
    normals = []
    offsets = []
    for i in range(m):
        p, q = hull[i], hull[(i + 1) % m]
        edge = q - p
        nrm = np.array([edge[1], -edge[0]])  # outward for CCW order
        nrm /= np.linalg.norm(nrm)
        normals.append(nrm)
        offsets.append(float(nrm @ p))
    return np.array(normals), np.array(offsets)


def max_scale_at(kv: np.ndarray, a: np.ndarray, b: np.ndarray,
                 v: np.ndarray) -> float:
    """sup{t >= 0 : t*k_i + v satisfies a.x <= b for all i}, -inf if empty.

    For fixed v each constraint t * (a_j . k_i) <= b_j - a_j . v is a
    halfline in t; the feasible set is an interval.
    """
    coef = kv @ a.T                           # (mk, mh)
    rhs = np.broadcast_to(b - a @ v, coef.shape)
    pos = coef > 1e-14
    neg = coef < -1e-14
    zero = ~(pos | neg)
    if np.any(rhs[zero] < -1e-12):
        return -np.inf
    t_hi = np.min(rhs[pos] / coef[pos]) if pos.any() else np.inf
    t_lo = max(0.0, np.max(rhs[neg] / coef[neg])) if neg.any() else 0.0
    if t_hi < t_lo - 1e-12 or t_hi < 0:
        return -np.inf
    return float(t_hi)


def grid_scale_fit_2d(kverts, lverts, final_step=1e-3) -> float:
    """Brute-force optimum of the scale-fit problem over a translation grid.

    Coarse-to-fine refinement of max_t(v), which is concave in v (a minimum
    of affine functions), down to the requested resolution.  At each level
    the window recenters and re-evaluates while the incumbent sits on the
    window boundary (ridge walking), so flat diagonal ridges cannot strand
    the search before the step shrinks.
    """
    kv = np.asarray(kverts, float)
    a, b = halfplanes(np.asarray(lverts, float))
    lo = np.asarray(lverts, float).min(axis=0) - 0.05
    hi = np.asarray(lverts, float).max(axis=0) + 0.05
    best_v = (lo + hi) / 2.0
    span = float(np.max(hi - lo)) / 2.0
    step = span / 12.0
    best_t = -np.inf
    half = 12
    while True:
        for _ in range(40):  # recenter until the max is interior to the window
            offsets = step * np.arange(-half, half + 1)
            center = best_v.copy()
            on_edge = False
            for dx in offsets:
                for dy in offsets:
                    v = center + (dx, dy)
                    t = max_scale_at(kv, a, b, v)
                    if t > best_t + 1e-15:
                        best_t = t
                        best_v = v
                        on_edge = max(abs(dx), abs(dy)) >= (half - 0.5) * step
            if not on_edge:
                break
        if step <= final_step:
            break
        step = max(step / 4.0, final_step)
    return best_t


def width_1d(points: np.ndarray, u: np.ndarray) -> float:
    """Width of conv(points) in direction u (length of its 1D shadow)."""
    vals = points @ u
    return float(vals.max() - vals.min())


def perimeter2d(points: np.ndarray) -> float:
    hull = hull2d(points)
    return float(sum(np.linalg.norm(hull[(i + 1) % len(hull)] - hull[i])
                     for i in range(len(hull))))


def _vform_rows(kv: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """A_eq of the V-form scale fit over (t, v, lam): t*k_i + v - sum_j lam_ij l_j = 0 and
    sum_j lam_ij = 1 for each point k_i of K."""
    (mk, n), ml = kv.shape, len(lv)
    a = np.zeros((mk * (n + 1), 1 + n + mk * ml))
    for i in range(mk):
        rows, lam = slice(i * (n + 1), i * (n + 1) + n), slice(1 + n + i * ml, 1 + n + (i + 1) * ml)
        a[rows, 0], a[rows, 1:1 + n], a[rows, lam] = kv[i], np.eye(n), -lv.T
        a[i * (n + 1) + n, lam] = 1.0
    return a


def _highs_vform(kq: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """The V-form scale fit of each point set kq[q] in conv(lv), a full-dimensional L, by HiGHS:
    max t s.t. t*k_i + v = sum_j lam_ij l_j, sum_j lam_ij = 1, lam >= 0.  The sets' LPs are
    independent blocks of one LP whose objective is the sum of their t, so its one solve
    maximises every t.

    HiGHS's tolerances are absolute, so the data is first put at unit size: a common affine map
    that sends L's principal axes to unit spread keeps every fit, and each set is scaled by a
    power of two f near the inverse of its extent, as its fit is f times that of the scaled set."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    centre = lv.mean(axis=0)
    _, sv, vt = np.linalg.svd(lv - centre, full_matrices=False)
    lv, kq = (lv - centre) @ (vt.T / sv), (kq - centre) @ (vt.T / sv)
    extent = np.abs(kq - kq.mean(axis=1, keepdims=True)).max(axis=(1, 2))
    f = np.exp2(-np.round(np.log2(np.where(extent > 0.0, extent, 1.0))))
    blocks = [_vform_rows(kv * fq, lv) for kv, fq in zip(kq, f)]
    a = sparse.block_diag(blocks, format="csr")
    count, (rows, width), n = len(blocks), blocks[0].shape, lv.shape[1]
    b = np.tile(np.append(np.zeros(n), 1.0), count * rows // (n + 1))
    lower = np.tile(np.r_[0.0, np.full(n, -np.inf), np.zeros(width - 1 - n)], count)
    cost = np.zeros(count * width)
    cost[::width] = -1.0
    out = optimize.linprog(cost, A_eq=a, b_eq=b, method="highs",
                           bounds=np.column_stack([lower, np.full(count * width, np.inf)]))
    assert out.status == 0, out.message
    return out.x[::width] * f


def highs_sigma(kv: np.ndarray, lv: np.ndarray) -> float:
    """The V-form scale fit of conv(kv) in conv(lv), by HiGHS."""
    return float(_highs_vform(np.asarray(kv, float)[None], np.asarray(lv, float))[0])


def highs_subset_sigmas(kv: np.ndarray, lv: np.ndarray, kcount: int) -> tuple[list, np.ndarray]:
    """(subsets, sigmas): every min(kcount, m)-subset of K's m distinct points
    (the first of equal points), as lexicographic lists of indices into kv,
    and the V-form fit of each in conv(lv) by HiGHS; inf for one point."""
    kv = np.asarray(kv, float)
    distinct = [i for i in range(len(kv)) if not (kv[:i] == kv[i]).all(axis=1).any()]
    subsets = [list(s) for s in combinations(distinct, min(kcount, len(distinct)))]
    if len(subsets[0]) == 1:
        return subsets, np.full(len(subsets), np.inf)
    return subsets, _highs_vform(kv[np.array(subsets)], np.asarray(lv, float))


def ray_sigma(kv: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """The planar scale fit of K in the edge lines a.x <= b of L - lc: the least bound
    c.b / c.h_K(a) over the extreme rays c of L's dual cone, which ``containment._dual_rays``
    enumerates over every triple of edges, with K centred on its vertex mean; inf when no ray
    bounds the scale.  h_K(a) is taken in rational arithmetic, as on a K 1e-9 thin its float
    products lose up to 1e-7 of it.  A ray's float bound carries the rounding of its cross
    products, 1e-11 relative when two normals are 1e-5 from antipodal, so the rays within 1e-9
    of the least float bound are bounded again in rational arithmetic, on the same floats."""
    points = [[Fraction(x) for x in p] for p in kv.tolist()]
    cx, cy = (sum(p[i] for p in points) / len(points) for i in (0, 1))
    hx = [max(Fraction(ax) * (x - cx) + Fraction(ay) * (y - cy) for x, y in points)
          for ax, ay in a.tolist()]
    h = np.array([float(x) for x in hx])
    t, c = containment._dual_rays(a)
    num, den = np.add.reduce(c * b.take(t), axis=1), np.add.reduce(c * h.take(t), axis=1)
    ok = den > 0.0
    ratios = np.where(ok, num, np.inf) / np.where(ok, den, 1.0)
    least = ratios.min()
    if least == np.inf:
        return math.inf
    bounds = []
    for rows in t[ratios <= least * (1.0 + 1e-9)].tolist():
        (ix, iy), (jx, jy), (kx, ky) = (map(Fraction, a[r]) for r in rows)
        c = [jx * ky - jy * kx, kx * iy - ky * ix, ix * jy - iy * jx]
        c = [-x for x in c] if sum(c) < 0 else c
        if min(c) >= 0:
            bounds.append(sum(x * Fraction(b[r]) for x, r in zip(c, rows))
                          / sum(x * hx[r] for x, r in zip(c, rows)))
    return float(min(bounds))


def _scale_fit_lp(kv: np.ndarray, lv: np.ndarray, fixed_t: float | None = None) -> lp.LpProblem:
    """The V-form scale-fit LP over variables (t, v, lambda), for ``lp.solve``.

    Constraints: t*x_i + v = sum_j lambda_ij y_j and sum_j lambda_ij = 1 for
    each vertex x_i of K, lambda >= 0, v free, t >= 0.  Rows come in one
    block of n+1 per vertex of K, and lambda_ij is column off + n + i*ml + j.
    With ``fixed_t`` the t column is dropped and the products move to the
    right-hand side.
    """
    mk, n = kv.shape
    ml = lv.shape[0]
    off = 1 if fixed_t is None else 0
    a = np.zeros((mk, n + 1, off + n + mk * ml))
    b = np.zeros((mk, n + 1))
    b[:, n] = 1.0
    if fixed_t is None:
        a[:, :n, 0] = kv
    else:
        b[:, :n] = -fixed_t * kv
    a[:, :n, off:off + n] = np.eye(n)
    lam = a[:, :, off + n:].reshape(mk, n + 1, mk, ml)   # a view: block i, vertex j
    blocks = np.arange(mk)
    lam[blocks, :n, blocks] = -lv.T
    lam[blocks, n, blocks] = 1.0
    c = np.zeros(a.shape[2])
    c[0] = 1.0 if fixed_t is None else 0.0
    nonneg = np.ones(a.shape[2], dtype=bool)
    nonneg[off:off + n] = False
    return lp.LpProblem(a.reshape(mk * (n + 1), -1), b.reshape(-1), c, nonneg)
