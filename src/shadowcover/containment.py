"""Translate-fit and scale-fit queries, plus finite vertex-subset witnesses.

The central query: the largest t such that t*K + v fits inside L for some
translation v.  K fits in L by translation iff that maximum is at least 1
(up to the geometric tolerance band).  The method follows the dimension:

* intervals: the closed form t = width(L) / width(K);
* planar bodies: the LP max t s.t. t*h_K(a_j) + a_j.v <= h_L(a_j) over L's
  unit edge normals a_j, by LP duality the least bound over the extreme
  rays of L's dual cone, found by a dual simplex walk on three-edge bases
  (``_planar_fit``) instead of enumerating the rays; it matches that least
  bound to rounding (1e-12 relative in the tests), and its witness is the
  final basis's vertex, checked against every edge.  A shadow has a few
  edges, so the whole route runs on Python lists, one ``tolist`` per body:
  L's monotone-chain hull, vertex mean, edges and thin-hull test
  (``_planar_edges``), K's single-point test, vertex mean and h_K(a_j)
  (taken exactly where its two products cancel), and the walk.
  ``_supports`` hands the same edges on as arrays to the routes that read
  arrays;
* a whole K from R^3 up, or in the plane when the walk stalls or its
  witness fails its check: the same LP over the facets (edges) of L's hull
  record, which one Quickhull builds in every dimension, by a revised dual
  simplex on (n+1)-row bases (``_walk``), in the frame where L's polar
  points have unit second moment, so that every offset is 1.  It starts
  from n + 1 half-spaces that support L along e_1, ..., e_n and
  -(1, ..., 1)/sqrt(n), whose dual ray is positive, and its fit stands once
  every facet holds within TOL_FEAS at the final vertex and the final dual
  ray is nonnegative; else ``lp.LpError`` is raised;
* a flat L: both bodies in L's ``affine_frame``, by the routes above, or
  sigma = 0 when K's directions leave L's.

Every fallback goes through the private routes, so one ``scale_fit`` call
is one fit, whichever route it takes.

A single-point K is the one degenerate case: its sigma is math.inf, and
callers compare sigma directly.  The unit-scale witness of a fitting pair
costs nothing more: if sigma*K + w lies in L and sigma >= 1, then so does
K + w/sigma + (1 - 1/sigma)*y for any point y of L, by convexity.

Subset witnesses make the containment equivalences decidable for polytopes,
with no vertex subset.  For an extreme ray c of L's dual cone, scaled to
c.b = 1, and a partition of its n+1 rows into D = min(kcount, n+1) blocks B,
put u_B = sum_{i in B} c_i a_i.  The least scale fit in L of a set of at
most kcount of K's points is 1 / max sum_B h_K(u_B) over rays and partitions
(``_partition_fit``): a set Q splits the rows by the point of Q attaining
a_i.x, h_K is sublinear, and K's argmax point per block is a Q that attains
the bound.  h_K is a max over all of K's points, so no canonical vertex is
needed.  With kcount = n+1 the partition is into single rows and the value
is the whole-K fit, Helly's case; with kcount = d+1 it is eps*_d of the
paper's Theorem 2, and span{u_B} is a d-plane whose shadow fit attains it.
A flat L, one past 48 edges or with more than _MAX_RAY_SUBSETS (n+1)-subsets
of facets, R^1, and the case where no ray gives a positive sum take one
``_fit`` per canonical kcount-subset instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from operator import mul

import numpy as np

from . import lp
from .bodies import (
    Polytope,
    _cofactors,
    _planar_hull,
    affine_frame,
    canonical_vertex_indices,
    canonicalize,
)
from .core import TOL_FEAS, TOL_GEOM

@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a scale-fit query.

    sigma         maximal homothety factor t with t*K + v inside L;
                  math.inf, the one degenerate marker, when t is unbounded,
                  which happens exactly when K is a single point
    translation   witness v at the optimum (None when degenerate)
    """

    sigma: float
    translation: np.ndarray | None

    @property
    def degenerate(self) -> bool:
        return self.sigma == math.inf

    @property
    def status(self) -> str:
        return "degenerate" if self.degenerate else "ok"


def _interval_fit(kv: np.ndarray, lv: np.ndarray) -> FitResult:
    """Scale fit of two intervals: the ratio of their widths, inf for a point K."""
    ks, ls = kv.ravel().tolist(), lv.ravel().tolist()
    k0, k1, l0, l1 = min(ks), max(ks), min(ls), max(ls)
    if k0 == k1:
        return FitResult(math.inf, None)
    sigma = (l1 - l0) / (k1 - k0)
    return FitResult(sigma, np.array([l0 - sigma * k0]))


_OUTWARD = np.array([1.0, -1.0])  # (dx, dy) reversed times this: the right-hand normal
# _partition_fit's planar rays come from all C(m, 3) triples of L's m edges; past
# this many edges one fit per vertex subset, whose cost grows linearly in m, is lighter
_MAX_PLANAR_EDGES = 48
# R^3 on, and in the dual simplex walk: ray entries above -_RAY_TOL * max count as 0, and
# a ray whose minors are all below it is none
_RAY_TOL = 1e-12
# the rays come from all C(F, n + 1) subsets of L's F facets: past C(44, 4), from the most facets
# that 24 points can have in R^3, one facet walk per vertex subset is lighter
_MAX_RAY_SUBSETS = 135_751
# bytes of one block's (ray, subset) temporaries: under glibc's 128 KiB mmap
# threshold, so that a block's temporaries reuse heap memory instead of
# faulting in fresh pages on every call
_BLOCK_BYTES = 120_000


@lru_cache(maxsize=64)
def _combinations(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m) as increasing rows, in lexicographic order."""
    return np.fromiter(chain.from_iterable(combinations(range(m), k)), np.intp).reshape(-1, k)


@lru_cache(maxsize=64)
def _binomials(m: int, k: int) -> np.ndarray:
    """(k + 1, m): row j holds C(x, j) for x in range(m); small, so cached."""
    return np.array([[math.comb(x, j) for x in range(m)] for j in range(k + 1)], np.int64)


def _subset_blocks(m: int, k: int, cap: int):
    """``_combinations(m, k)`` in blocks of at most cap rows, cached when one block holds them
    all, else unranked a block at a time: row r reflected by x -> m - 1 - x is the subset of colex
    rank C(m, k) - 1 - r, read greedily off ``_binomials`` (Knuth, TAOCP 7.2.1.3)."""
    if (total := math.comb(m, k)) <= cap:
        yield _combinations(m, k)
        return
    table = _binomials(m, k)
    for start in range(total - 1, -1, -cap):
        rank = np.arange(start, max(start - cap, -1), -1)
        rows = np.empty((len(rank), k), np.intp)
        for j in range(k, 0, -1):
            x = table[j].searchsorted(rank, side="right") - 1
            rank -= table[j].take(x)
            rows[:, k - j] = m - 1 - x
        yield rows


def _determinants(e: np.ndarray) -> np.ndarray:
    """The determinants of B n x n matrices, given as their rows (n, n, B): the ``_cofactors`` of
    the first n - 1 rows, last to first, so that the expansion runs from the first row down,
    dotted with the last row; that order of n - 1 rows has the sign (-1)^((n-1)(n-2)/2)."""
    n = len(e)
    return sum(map(mul, _cofactors(e[n - 2::-1]), e[n - 1])) * (-1.0) ** ((n - 1) * (n - 2) // 2)


def _dual_rays(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sets, c): the extreme rays c >= 0 of {y >= 0 : sum_f y_f a_f = 0} over the unit normals
    a of L's edges (counter-clockwise) or facets: per (n+1)-subset of rows whose null vector keeps
    one sign, c_i = (-1)^i times its minor without row i: in the plane from one table
    antisymmetric to the last bit, from R^3 on from one vector of the n-row determinants and their
    negations (``_minor_index``), so short rays of antipodal or coplanar normals come through the
    subsets padding them.  By LP duality K's scale fit in L is the least c.h_L(a) / c.h_K(a)
    with c.h_K(a) > 0."""
    f, n = a.shape
    cap = _BLOCK_BYTES // (8 * (n + 1))
    blocks = ([_one_block(f, n)] if n == 2 or math.comb(f, n + 1) <= cap else
              ((subsets, _minor_index(subsets, f)) for subsets in _subset_blocks(f, n + 1, cap)))
    if n == 2:
        g = (a[:, ::-1] * _OUTWARD) @ a.T        # -[a_p, a_q] up to rounding
        table = 0.5 * (g.T - g)
    else:   # a = u s v^T and u have the same rays, and u's minors are not crowded near 0
        u = np.linalg.svd(a, full_matrices=False)[0]
        table = np.concatenate([_determinants(u.T[:, subsets.T].swapaxes(0, 1)) for subsets in
                                _subset_blocks(f, n, 16 * _BLOCK_BYTES // (8 * n * n))])
        table = np.concatenate([table, -table])
    parts = []
    for subsets, minors in blocks:
        c = table.take(minors)
        if n > 2:   # c by columns: facets come in no order, nor does the sign of c; entries
            # within _RAY_TOL of the ray's top count as 0, and a top that small is no ray
            c *= np.sign(np.add.reduce(c, axis=0))
            top = np.maximum.reduce(c, axis=0)
            keep = (np.minimum.reduce(c, axis=0) >= -_RAY_TOL * top) & (top > _RAY_TOL)
            c = np.ascontiguousarray(np.maximum(c.compress(keep, axis=1), 0.0).T)
        else:
            keep = np.minimum.reduce(c, axis=1) >= 0.0
            c = c.compress(keep, axis=0)
        parts.append((subsets.compress(keep, axis=0), c))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


@lru_cache(maxsize=16)
def _one_block(f: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n+1)-subsets of range(f), lexicographic, and their ``_dual_rays`` table indices, cached
    for planar L's and L's with few facets: in the plane the flat (f, f) indices of (j, k), (k, i),
    (i, j) for each (i, j, k), else ``_minor_index``'s rows."""
    subsets = np.concatenate(list(_subset_blocks(f, n + 1, _BLOCK_BYTES // (8 * (n + 1)))))
    return subsets, (subsets @ np.array([[0, 1, f], [f, 0, 1], [1, f, 0]]) if n == 2 else
                     _minor_index(subsets, f))


def _minor_index(subsets: np.ndarray, f: int) -> np.ndarray:
    """Row i: the lexicographic rank of each increasing (n+1)-subset of range(f) without its entry
    i, plus C(f, n), into the determinants' negations, for odd i.  That n-subset reflected by
    x -> f - 1 - x has colex rank sum_j C(f - 1 - x_j, n - j) over its positions j, which are c
    for the subset's entry c before i and c - 1 after it; its rank is C(f, n) - 1 less that."""
    n, total = subsets.shape[1] - 1, math.comb(f, subsets.shape[1] - 1)
    far, binomials = np.ascontiguousarray((f - 1 - subsets).T), _binomials(f, n + 1)
    before = [binomials[n - c].take(far[c]) for c in range(n + 1)]
    after = [binomials[n + 1 - c].take(far[c]) for c in range(n + 1)]
    out, gone = np.empty(far.shape, np.intp), sum(after[1:])
    for i in range(n + 1):
        out[i] = total - 1 + total * (i % 2) - gone
        if i < n:
            gone = gone + before[i] - after[i + 1]
    return out


# planar walk: a cross product of two unit normals, or a basis row's sum of terms, is off by at
# most a few 1e-16 of their sizes, so an entry of a ray above -_ROUNDING is a 0 of exactly
# antipodal normals, and a row violated by at most _ROUNDING of its terms' sizes holds; in both
# walks an edge or facet enters the basis when it is violated by more than _PIVOT_TOL of its
# offset, just above the rounding of that test
_ROUNDING = 1e-15
_PIVOT_TOL = 1e-13
# a planar h_K(a) = max a.(k - kc) is a sum of two products, off by up to 3.4e-16 of K's
# centred size |dx| + |dy|; below this share of that size, where that is 3.4e-14 of h or
# more, it is taken exactly
_CANCEL = 1e-2


def _cross(p: list, q: list) -> float:
    """p x q of two nearly parallel or antipodal unit vectors, to a few units in its last place:
    it equals p x (q -+ p), whose difference is exact and nearly orthogonal to p, so that its
    two products do not cancel as those of p x q do."""
    (px, py), (qx, qy) = p, q
    if px * qx + py * qy < 0.0:
        qx, qy = qx + px, qy + py
    else:
        qx, qy = qx - px, qy - py
    return px * qy - py * qx


def _edge_ray(al: list, hl: list, bl: list, i: int, j: int, k: int):
    """(sigma, rows, c) of the planar basis of edges i, j, k: c = (a_j x a_k, a_k x a_i,
    a_i x a_j), the null vector of their normals, signed to a positive sum, with entries above
    -_ROUNDING taken as 0, and sigma = c.b / c.h; None when c changes sign or c.h <= 0, as
    then the three rows bound no t.  A plain cross product is off by up to about 2e-16, a
    relative error that a thin L's nearly antipodal edges, with entries of 1e-6, would carry
    into sigma; entries below 1e-3 come from ``_cross``."""
    (ix, iy), (jx, jy), (kx, ky) = al[i], al[j], al[k]
    ci, cj, ck = jx * ky - jy * kx, kx * iy - ky * ix, ix * jy - iy * jx
    if -1e-3 < ci < 1e-3 or -1e-3 < cj < 1e-3 or -1e-3 < ck < 1e-3:
        ci, cj, ck = _cross(al[j], al[k]), _cross(al[k], al[i]), _cross(al[i], al[j])
    if ci + cj + ck < 0.0:
        ci, cj, ck = -ci, -cj, -ck
    if ci < 0.0 or cj < 0.0 or ck < 0.0:
        if min(ci, cj, ck) < -_ROUNDING:
            return None
        ci, cj, ck = max(ci, 0.0), max(cj, 0.0), max(ck, 0.0)
    den = ci * hl[i] + cj * hl[j] + ck * hl[k]
    if not den > 0.0:
        return None
    return (ci * bl[i] + cj * bl[j] + ck * bl[k]) / den, (i, j, k), (ci, cj, ck)


def _mean(xy: list) -> tuple[float, float]:
    """The vertex mean of the rows xy, [x, y] Python floats, in numpy's order of operations:
    ``np.add.reduce(v, axis=0) / len(v)`` sums the rows in turn."""
    cx, cy = xy[0]
    for x, y in xy[1:]:
        cx += x
        cy += y
    return cx / len(xy), cy / len(xy)


def _exact_support(kl: list, d: list, kx: float, ky: float, ax: float, ay: float,
                   floor: float) -> float:
    """max a.(k - kc) over K's points, in rational arithmetic on the same floats, rounded once.
    Only points whose float value a.d, d = k - kc, is at least floor are taken: each float
    value is off by at most 3 units of 2^-53 of K's centred size max |dx| + |dy|, and floor
    lies 1e-15 of that size below the float maximum, so the exact maximum is among them."""
    fx, fy, fa, fb = Fraction(kx), Fraction(ky), Fraction(ax), Fraction(ay)
    return float(max(fa * (Fraction(x) - fx) + fb * (Fraction(y) - fy)
                     for (x, y), (dx, dy) in zip(kl, d) if ax * dx + ay * dy >= floor))


def _planar_fit(kl: list, lc: tuple, al: list, bl: list) -> FitResult | None:
    """Scale fit of K, the rows kl, in the plane over the edge lines a_j.x <= b_j of L - lc
    (``_planar_edges``), by a dual simplex on three-edge bases (Seidel, DCG 1991); None when
    the walk stalls or its witness fails its check.

    K is centred on its vertex mean kc, and h_j = h_K(a_j) = max a_j.(k - kc).  Each value is
    a sum of two products, rounded to about 1e-16 of K's centred size; where h_j is below
    _CANCEL of that size, as for a thin K across a thin L, it is taken exactly
    (``_exact_support``), since sigma carries its relative error.

    Three edges whose normals positively span the plane carry a dual ray c >= 0
    (``_edge_ray``), and with h_j = h_K(a_j) their sigma = c.b / c.h is the optimum of the LP
    max t s.t. t*h_j + a_j.v <= b_j over those three rows, at the v where the two rows of the
    largest cross product are tight.  Each pivot brings in the edge that v violates most,
    relative to its offset, and swaps it for the basis row that keeps c >= 0 and c.h > 0 at the
    least sigma: the optimum over the four rows, so sigma never rises.  When no other edge is
    violated by more than _PIVOT_TOL of its offset, sigma is the LP's optimum, the least bound
    over L's dual rays, and v is the witness once each basis row holds within the larger of
    TOL_FEAS of L's largest offset and _ROUNDING of the sizes of its own terms, the bound that
    a thin L's rows need; a NaN fails it.  v comes from Cramer's rule on the two tight rows and
    one step of refinement, as the residuals of plain Cramer's rule grow as 1/det on a thin L's
    nearly antipodal edges.  The walk starts at edge 0 (at the edge of largest h when h_0 = 0),
    the last edge within pi of it counter-clockwise and the next, and gives up after 4m pivots.
    On a build's shadows it seldom pivots more than once."""
    kx, ky = _mean(kl)
    d = [(x - kx, y - ky) for x, y in kl]
    size = max([abs(x) + abs(y) for x, y in d])
    hl = []
    for ax, ay in al:
        h = max([ax * x + ay * y for x, y in d])
        hl.append(h if h >= _CANCEL * size else
                  _exact_support(kl, d, kx, ky, ax, ay, h - 1e-15 * size))
    m = len(al)
    i = 0 if hl[0] > 0.0 else hl.index(max(hl))
    ix, iy = al[i]
    p = (i + 1) % m
    while ix * al[(p + 1) % m][1] - iy * al[(p + 1) % m][0] > 0.0:
        p = (p + 1) % m
    best = _edge_ray(al, hl, bl, i, p, (p + 1) % m)
    for _ in range(4 * m):
        if best is None:
            return None
        sigma, (i, j, k), c = best
        # c's largest entry is the cross product of the other two rows, where v is tight
        r, q = ((j, k), (k, i), (i, j))[c.index(max(c))]
        (rx, ry), (qx, qy) = al[r], al[q]
        er, eq = bl[r] - sigma * hl[r], bl[q] - sigma * hl[q]
        det = rx * qy - ry * qx
        vx, vy = (er * qy - eq * ry) / det, (rx * eq - qx * er) / det
        fr, fq = er - rx * vx - ry * vy, eq - qx * vx - qy * vy
        vx, vy = vx + (fr * qy - fq * ry) / det, vy + (rx * fq - qx * fr) / det
        worst, e = _PIVOT_TOL, -1
        if m > 3:   # a triangle has no edge outside the basis
            for row, ((ax, ay), bj, hj) in enumerate(zip(al, bl, hl)):
                gap = (sigma * hj + ax * vx + ay * vy - bj) / bj
                if not gap <= worst and row != i and row != j and row != k:   # a NaN enters too
                    worst, e = gap, row
        if e < 0:
            feas = TOL_FEAS * max(bl)
            for row in (i, j, k):
                (ax, ay), th, bj = al[row], sigma * hl[row], bl[row]
                gap = th + ax * vx + ay * vy - bj
                if not (gap <= feas or gap <= _ROUNDING * (abs(th) + abs(ax * vx) + abs(ay * vy)
                                                          + abs(bj))):
                    return None
            lx, ly = lc
            return FitResult(sigma, np.array([vx + lx - sigma * kx, vy + ly - sigma * ky]))
        best = None
        for out in (_edge_ray(al, hl, bl, e, j, k), _edge_ray(al, hl, bl, i, e, k),
                    _edge_ray(al, hl, bl, i, j, e)):
            if out is not None and (best is None or out[0] < best[0]):
                best = out
    return None


def _walk(kv: np.ndarray, lv: np.ndarray, lc: np.ndarray, s: float, a: np.ndarray,
          b: np.ndarray) -> FitResult | None:
    """Scale fit over L's facets (or edges, in the plane) a_f.x <= b_f, which are those of
    (L - lc) / s, by a revised dual simplex on (n+1)-row bases (Seidel, DCG 1991); None when
    the walk stalls or its end fails its checks.

    With K centred on its vertex mean and divided by s, and h_f = h_K(a_f), the LP is
    max t s.t. t*h_f + a_f.v <= b_f.  It is worked in the frame where L's polar points
    a_f / b_f = U_f S V^T have unit second moment: with v = z S^-1 V^T, row f divided by b_f
    reads t*h_f/b_f + U_f.z <= 1, so every offset is 1 and a slab is as round as a ball.  Its
    n + 1 variables (t, z) are free, so a basis is n + 1 rows M, with the vertex x = M^-1 1 and
    the dual y = M^-T e_0, a ray of L's dual cone while y >= 0, and t = sum(y).  The start rows
    are the half-spaces that support L's points (lv - lc) / s, in the frame, along e_1, ...,
    e_n and -(1, ..., 1)/sqrt(n): they hold wherever the facets do, so they leave the optimum
    as it is, and their dual ray is positive, as those directions sum to 0 with positive
    weights.  Each pivot inverts the basis afresh; the facet that x violates most, by more
    than _PIVOT_TOL, enters, and of the rows whose entry of w = M^-T r_e is above _RAY_TOL of
    the largest, the one of least y_i / w_i leaves, so y stays a ray and t never rises.  The
    fit is returned once x violates no facet by more than TOL_FEAS and y >= -_RAY_TOL max y,
    since a feasible x alone need not be optimal; the walk gives up after 4 (f + n) pivots."""
    f, n = a.shape
    kc = np.add.reduce(kv, axis=0) / kv.shape[0]
    q, sv, vt = np.linalg.svd(a / b[:, None], full_matrices=False)
    frame = vt.T * sv   # the frame's coordinates of x are x @ frame
    start = np.vstack([np.eye(n), np.full(n, -1.0 / math.sqrt(n))])
    rows = np.vstack([q, start])
    r = np.column_stack([np.maximum.reduce((kv - kc) / s @ frame @ rows.T, axis=0), rows])
    r[f:] /= np.maximum.reduce((lv - lc) / s @ frame @ start.T, axis=0)[:, None]
    basis = np.arange(f, f + n + 1)
    for _ in range(4 * (f + n)):
        minv = np.linalg.inv(r[basis])
        x, y = np.add.reduce(minv, axis=1), minv[0]
        gap = r[:f] @ x
        e = int(gap.argmax())
        if not gap[e] > 1.0 + _PIVOT_TOL:   # a NaN fails the checks below
            if not (gap[e] <= 1.0 + TOL_FEAS and y.min() >= -_RAY_TOL * y.max()):
                return None
            sigma = float(x[0])
            return FitResult(sigma, s * ((x[1:] / sv) @ vt) + lc - sigma * kc)
        w = r[e] @ minv
        ok = w > _RAY_TOL * np.abs(w).max()
        if not ok.any():
            return None
        ratio = np.where(ok, np.maximum(y, 0.0), np.inf) / np.where(ok, w, 1.0)
        basis[int(ratio.argmin())] = e
    return None


def _planar_edges(lv: np.ndarray):
    """(lc, a, b) of a planar L in Python floats, from one ``tolist``: L's vertex mean lc, and the
    unit outward normals a_j and offsets b_j of the edge lines a_j.x <= b_j of L - lc,
    counter-clockwise; None for an L that is flat by the rank of ``affine_frame``.  The loops do
    numpy's operations in numpy's order: |e| = sqrt(dx*dx + dy*dy), a = (dy/|e|, -(dx/|e|)),
    b = a.(x0 - lc), so their arrays are bit-identical to the array formulas."""
    xy = lv.tolist()
    # a turn this far above rounding is a true one, so every edge line of
    # the hull supports L; a dropped point moves L by a 1e-12 relative step
    hull = _planar_hull(xy, 1e-12)
    if len(hull) < 3:
        return None
    cx, cy = _mean(xy)
    a, b, longest = [], [], 0.0
    x0, y0 = xy[hull[0]]
    for j in hull[1:] + hull[:1]:
        x1, y1 = xy[j]
        dx, dy = x1 - x0, y1 - y0
        length = math.sqrt(dx * dx + dy * dy)
        ax, ay = dy / length, -(dx / length)
        a.append((ax, ay))
        b.append(ax * (x0 - cx) + ay * (y0 - cy))
        if length > longest:
            longest = length
        x0, y0 = x1, y1
    # an L of m points that affine_frame calls flat is at most ~3e-9 sqrt(m) of its extent
    # wide, its least width is measured from an edge line, and its longest edge is at least
    # 2/h of its extent (h edges): only a polygon this thin pays for the SVD
    if min(b) <= 1e-5 * longest and affine_frame(lv)[2] < 2:
        return None
    return (cx, cy), a, b


def _supports(k: Polytope, l: Polytope):
    """(lc, s, a, b), shared by every fit of K or its vertex subsets in L: the unit outward
    normals a and offsets b of the edges (lc L's vertex mean, s = 1; the arrays of
    ``_planar_edges``) or of the facets in L's hull record (lc and s its frame) of (L - lc) / s;
    None in other dimensions and for an L that is flat by the rank of ``affine_frame``.  Raises
    on a dimension mismatch."""
    if k.dim != l.dim:
        raise ValueError(f"dimension mismatch: K in R^{k.dim}, L in R^{l.dim}")
    if l.dim >= 3:
        return (hull := l._hull_record) and (hull.c, hull.s, hull.a, hull.b)
    if l.dim == 2 and (edges := _planar_edges(l.vertices)):
        lc, a, b = edges
        return np.array(lc), 1.0, np.array(a), np.array(b)
    return None


def _flat_fit(kv: np.ndarray, lv: np.ndarray, c: np.ndarray, f: np.ndarray) -> FitResult:
    """Scale fit of K in a flat L, whose points lie on c + span f for the
    orthonormal columns f.  If K's centred vertices leave span f by more
    than TOL_FEAS of K's extent, no t > 0 fits, and sigma = 0 at a vertex of
    L.  Otherwise both bodies are fit in the coordinates (x - c) f, and the
    witness w maps back to v = (1 - sigma) c + f w - sigma o, where o is K's
    mean offset from L's flat."""
    kc = kv.sum(axis=0) / kv.shape[0]
    kd = kv - kc
    if np.abs(kd - kd @ f @ f.T).max() > TOL_FEAS * np.abs(kd).max():
        return FitResult(0.0, lv[0].copy())
    k, l = Polytope((kv - c) @ f), Polytope((lv - c) @ f)
    fit = _fit(k.vertices, l.vertices, _supports(k, l))
    if fit.degenerate:
        return fit
    o = kc - c
    o -= o @ f @ f.T
    return FitResult(fit.sigma, (1.0 - fit.sigma) * c + f @ fit.translation - fit.sigma * o)


def _walked(fit: FitResult | None) -> FitResult:
    """The facet walk's fit, or ``lp.LpError`` when the walk failed its checks."""
    if fit is None:
        raise lp.LpError("facet-form scale fit failed its check")
    return fit


def _planar_route(kv: np.ndarray, lv: np.ndarray, edges) -> FitResult:
    """scale_fit in the plane, given ``_planar_edges`` of L (None for a flat L), on one
    ``tolist`` of K: a single-point K has sigma = inf, a flat L takes ``_flat_fit``, and a
    planar walk that fails hands the fit to the facet walk over the same edges."""
    kl = kv.tolist()
    if kl.count(kl[0]) == len(kl):
        return FitResult(math.inf, None)
    if edges is None:   # a flat L: r caps at 1
        c, frame, r = affine_frame(lv)
        return _flat_fit(kv, lv, c, frame[:, :min(r, 1)])
    lc, a, b = edges
    return _planar_fit(kl, lc, a, b) or _walked(
        _walk(kv, lv, np.array(lc), 1.0, np.array(a), np.array(b)))


def _fit(kv: np.ndarray, lv: np.ndarray, supports) -> FitResult:
    """scale_fit on vertex arrays, given _supports of L."""
    n = kv.shape[1]
    if n == 1:
        return _interval_fit(kv, lv)
    if n == 2:
        return _planar_route(kv, lv, supports and (supports[0].tolist(), supports[2].tolist(),
                                                supports[3].tolist()))
    if np.logical_and.reduce(kv == kv[0], axis=None):
        return FitResult(math.inf, None)
    if supports is None:   # a flat L
        c, frame, r = affine_frame(lv)
        return _flat_fit(kv, lv, c, frame[:, :min(r, n - 1)])
    return _walked(_walk(kv, lv, *supports))


def scale_fit(k: Polytope, l: Polytope) -> FitResult:
    """Maximal t with t*K + v inside L, and the witness translation.

    K fits in L by translation iff sigma >= 1 - TOL_GEOM.  When t is
    unbounded (K is a single point) the result is degenerate with
    sigma = inf rather than a guess.  The method follows the dimension, as
    the module docstring sets out.
    """
    kv, lv = k.vertices, l.vertices
    if kv.shape[1] == 1 == lv.shape[1]:
        return _interval_fit(kv, lv)
    if kv.shape[1] == 2 == lv.shape[1]:
        return _planar_route(kv, lv, _planar_edges(lv))
    return _fit(kv, lv, _supports(k, l))


def _unit_translation(k: Polytope, l: Polytope, fit: FitResult) -> np.ndarray:
    """A v with K + v inside L, from a fit with sigma >= 1 - TOL_GEOM.

    A point K moves onto a point of L.  For sigma >= 1, sigma*K + w inside L
    gives K + w/sigma + (1 - 1/sigma)*y inside L for the point y = l0, by
    convexity.  Inside the band [1 - TOL_GEOM, 1) the optimal-scale
    translation is the witness.
    """
    if fit.degenerate:
        return l.vertices[0] - k.vertices[0]
    if fit.sigma < 1.0:
        return fit.translation
    return fit.translation / fit.sigma + (1.0 - 1.0 / fit.sigma) * l.vertices[0]


def translate_fits(k: Polytope, l: Polytope) -> tuple[bool, np.ndarray | None]:
    """Does L contain a translate of K?  Verdict at the sigma >= 1 - TOL_GEOM band.

    One scale fit decides; the witness v with K + v inside L follows from it
    by convexity (see _unit_translation), with no second LP.  A single-point
    K fits any nonempty L.
    """
    fit = scale_fit(k, l)
    if fit.sigma < 1.0 - TOL_GEOM:
        return False, None
    return True, _unit_translation(k, l, fit)


@lru_cache(maxsize=16)
def _partitions(rows: int, blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parts, multi, cols) for the partitions of range(rows) into exactly `blocks` nonempty
    blocks, in the order of their restricted growth strings.  parts[p, B] is block B's 0/1 row
    indicator, and multi holds the indicator of every distinct block of two or more rows.
    cols[p, B] indexes h_K(u_B) in a ray's row of values: h_K(c_i a_i) = c_i h_K(a_i) for the
    one-row block of row i, then h_K(u_S) for the blocks S of multi."""
    masks = []   # per partition, its blocks as bit masks of rows
    for g in product(range(blocks), repeat=rows):   # restricted growth strings
        if max(g) == blocks - 1 and all(x <= max(g[:i], default=-1) + 1 for i, x in enumerate(g)):
            masks.append([sum(1 << i for i, x in enumerate(g) if x == j) for j in range(blocks)])
    multi = sorted({m for ms in masks for m in ms if m.bit_count() > 1})

    def bits(ms: list[int]) -> np.ndarray:
        return np.array([[m >> i & 1 for i in range(rows)] for m in ms], float).reshape(-1, rows)

    cols = [[m.bit_length() - 1 if m.bit_count() == 1 else rows + multi.index(m) for m in ms]
            for ms in masks]
    return np.array([bits(ms) for ms in masks]), bits(multi), np.array(cols)


def _partition_fit(kv: np.ndarray, supports, kcount: int):
    """(eps, q, u): the least scale fit in L of a set Q of at most kcount of K's points, from L's
    dual rays (``_dual_rays``) and the partitions of a ray's rows into D = min(kcount, rows)
    blocks B.  For a ray c scaled to c.b = 1 and u_B = sum_{i in B} c_i a_i, 1/eps is the largest
    sum_B h_K(u_B): a Q splits the rows by the point of Q that attains a_i.x, and h_K is
    sublinear, so D blocks suffice; the argmax points of K give a Q that attains it.  q holds
    that argmax point's index in kv per block of the best ray and partition, ties to the lowest,
    and u their u_B, which span a plane of dimension at most D - 1 whose shadow fit is eps.
    At D = rows every block is one row, and the search is the one product of a with K.
    None when no ray gives a positive sum, as for a single-point K."""
    _, s, a, b = supports
    sets, c = _dual_rays(a)
    rows = a.shape[1] + 1
    parts, multi, cols = _partitions(rows, min(kcount, rows))
    x = (kv - kv.sum(axis=0) / len(kv)) / s   # h_K(u_B) sums do not see a shift of K
    top = np.maximum.reduce(a @ x.T, axis=1)   # h_K(a_i)
    c = c / np.add.reduce(c * b.take(sets), axis=1, keepdims=True)
    step = max(1, _BLOCK_BYTES // (8 * max(len(multi) * len(x), cols.size)))
    best, at = 0.0, None
    for i in range(0, len(c), step):
        ci, ti = c[i:i + step], sets[i:i + step]
        table = ci * top.take(ti)
        if len(multi):   # (rays, blocks, points): u_B.x over K
            hu = (multi @ (ci[:, :, None] * a.take(ti, axis=0))) @ x.T
            table = np.concatenate([table, np.maximum.reduce(hu, axis=2)], axis=1)
        sums = np.add.reduce(table[:, cols], axis=2)
        j = int(sums.argmax())
        if sums.flat[j] > best:
            best, at = float(sums.flat[j]), (i + j // len(cols), j % len(cols))
    if at is None:
        return None
    r, p = at
    u = parts[p] @ (c[r][:, None] * a[sets[r]])
    # a one-row block's point attains h_K(a_i), and so h_K(c_i a_i) = c_i h_K(a_i) at c_i = 0 too
    w = np.where(parts[p].sum(axis=1) @ parts[p] == 1.0, 1.0, c[r])
    return 1.0 / best, ((parts[p] @ (w[:, None] * a[sets[r]])) @ x.T).argmax(axis=1), u


def _subset_sigmas(k: Polytope, l: Polytope, kcount: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sigmas): K's canonical kcount-subsets (kcount clamped to their number), as
    lexicographic rows of indices into k.vertices, and the _fit of each in L."""
    idx = np.arange(k.nverts) if k.canonical else np.array(canonical_vertex_indices(k))
    rows = idx[_combinations(len(idx), min(kcount, len(idx)))]
    supports = _supports(k, l)
    return rows, np.array([_fit(k.vertices[r], l.vertices, supports).sigma for r in rows])


def _least_subset(k: Polytope, l: Polytope, kcount: int) -> tuple[float, list[int]]:
    """(eps, q): the least scale fit in L of a set of at most kcount of K's points, and the
    sorted distinct indices into k.vertices of one such set; (inf, []) at kcount 1 and for a
    single-point K.

    From R^2 up it is ``_partition_fit``'s, over all of K's points, and its set is the argmax
    point of each block.  A flat L, one past _MAX_PLANAR_EDGES edges or _MAX_RAY_SUBSETS
    (n+1)-subsets of facets, R^1, or no ray giving a positive sum, take the least of
    ``_subset_sigmas``, the first in lexicographic order of its canonical subsets.
    """
    if kcount < 1:
        raise ValueError("subset size must be at least 1")
    kv = k.vertices
    if kcount == 1 or np.logical_and.reduce(kv == kv[0], axis=None):
        return math.inf, []
    supports = _supports(k, l)
    if supports is not None and (len(supports[3]) <= _MAX_PLANAR_EDGES if k.dim == 2 else
                                 math.comb(len(supports[3]), k.dim + 1) <= _MAX_RAY_SUBSETS):
        if (out := _partition_fit(kv, supports, kcount)) is not None:
            return out[0], sorted(set(out[1].tolist()))
    rows, sigmas = _subset_sigmas(k, l, kcount)
    j = int(sigmas.argmin())
    return float(sigmas[j]), rows[j].tolist()


def subset_witness(k: Polytope, l: Polytope, kcount: int) -> list[int] | None:
    """The argmin subset: the sorted distinct indices into ``k.vertices`` of a set
    of at most kcount of K's points whose scale fit in L is least, when that fit
    is below 1 - TOL_GEOM, so that the set's hull does not translate into L;
    None when every such set fits.  Of equal points the lowest index is taken,
    so results repeat (see ``_least_subset``).
    """
    eps, q = _least_subset(k, l, kcount)
    return q if eps < 1.0 - TOL_GEOM else None


def min_subset_sigma(k: Polytope, l: Polytope, kcount: int) -> float:
    """Least scale fit in L over the sets of at most kcount of K's points.

    With kcount = d + 1 this is eps*_d, the least scale fit of K's d-shadows
    in L's (the paper's Theorem 2), which counterexample construction and
    replay take as the exact inflation factor; it comes from L's dual rays
    with no vertex subset (``_partition_fit``).  The margin |min - 1|
    quantifies how decisively the subset condition holds or fails; the
    randomized harnesses use it.
    """
    return _least_subset(k, l, kcount)[0]


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Both routes of the inscribed-polytope containment equivalence."""

    sigma: float
    fits: bool
    witness: list[int] | None
    agrees: bool
    borderline: bool


def inscribed_equivalence_check(k: Polytope, l: Polytope) -> EquivalenceReport:
    """Compare (n+1)-subset witness emptiness against the translate verdict.

    By Helly's theorem the two verdicts must agree; a disagreement outside
    the band |sigma - 1| <= 10 * TOL_GEOM is a hard failure.  Borderline
    instances are tagged and excluded from pass/fail statistics.
    """
    kc = canonicalize(k)
    sigma = scale_fit(kc, l).sigma
    fits = sigma >= 1.0 - TOL_GEOM
    witness = subset_witness(kc, l, k.dim + 1)
    return EquivalenceReport(
        sigma=sigma,
        fits=fits,
        witness=witness,
        agrees=(witness is None) == fits,
        borderline=abs(sigma - 1.0) <= 10.0 * TOL_GEOM,
    )
