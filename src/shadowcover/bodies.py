"""The polytope type, its geometric primitives, and the one owner of a point
set's frame: ``_unit_frame`` centres the set on its vertex mean and divides
by its extent (the largest coordinate distance from the mean), and
``affine_frame`` adds an orthonormal basis of its affine hull and its rank.
Every length tolerance is relative to the owning body's extent and every
flatness test is that rank, so verdicts do not change under x -> f x + v.

Bodies are V-representations: the convex hull of a finite vertex list, which
may contain redundant generators until a ``canonicalize`` pass removes them.
``canonical_vertex_indices`` picks the extreme points for that pass, after
merging points that agree to 12 decimals in the unit frame.  In the plane it
is a monotone-chain hull (``planar_hull``), which also gives the edges that
the planar scale fit uses.  In R^3, ``hull_facets`` enumerates the facets of
up to 24 points from the planes of their point triples; the 3-D scale fit
runs its LP over them, and the points on each facet give the extreme points
and the edges (``_hull_skeleton``).  For more points, flat sets, the line
and dimensions past 3 the pass is one point-in-hull LP per vertex, and
``edges`` one LP per vertex pair, each in a unit frame.  Other containment
questions reduce to LPs over convex-combination variables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from . import lp
from .core import TOL_FEAS, TOL_GEOM, Subspace, hyperplane_basis, unit


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a finite, nonempty vertex list in R^n.

    ``canonical`` records that no vertex lies in the hull of the others.
    Instances are immutable; all operations return new polytopes.
    """

    vertices: np.ndarray
    canonical: bool = False

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"vertices must be a nonempty (m, n) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def nverts(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self) -> str:
        return f"Polytope({self.nverts} vertices in R^{self.dim}, canonical={self.canonical})"


def translate(p: Polytope, w) -> Polytope:
    w = np.asarray(w, dtype=np.float64)
    return Polytope(p.vertices + w, canonical=p.canonical)


def scale(p: Polytope, factor: float) -> Polytope:
    if factor == 0.0:
        return Polytope(np.zeros((1, p.dim)), canonical=True)
    return Polytope(p.vertices * float(factor), canonical=p.canonical)


def support(p: Polytope, u) -> float:
    """Support function h_P(u) = max over vertices of x.u (any scale of u)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (p.dim,):
        raise ValueError(f"direction has shape {u.shape}, expected ({p.dim},)")
    return float(np.max(p.vertices @ u))


def support_set(p: Polytope, u, tol_geom: float = TOL_GEOM) -> list[int]:
    """Indices of vertices attaining the support value within
    tol_geom * |u| times P's extent, so a similarity of P keeps the set.

    A singleton certifies an exposed point, and u as a regular normal of P.
    """
    u = np.asarray(u, dtype=np.float64)
    norm = float(np.linalg.norm(u))
    if norm <= TOL_FEAS:
        raise ValueError("support set needs a nonzero direction")
    vals = p.vertices @ u
    cutoff = vals.max() - tol_geom * norm * _unit_frame(p.vertices)[2]
    return [int(i) for i in np.nonzero(vals >= cutoff)[0]]


def project(p: Polytope, s: Subspace) -> Polytope:
    """Orthogonal projection onto a subspace, in d-coordinate representation.

    The support function of the result is the restriction of h_P to the
    subspace: h_{P_S}(w) = h_P(basis @ w).
    """
    if s.n != p.dim:
        raise ValueError(f"subspace lives in R^{s.n}, polytope in R^{p.dim}")
    return Polytope(p.vertices @ s.basis)


def hyperplane_shadow(p: Polytope, u) -> Polytope:
    """Projection onto u-perp in the deterministic Householder frame."""
    return project(p, Subspace(hyperplane_basis(unit(u))))


def linear_image(p: Polytope, m) -> Polytope:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != p.dim:
        raise ValueError(f"matrix shape {m.shape} does not act on R^{p.dim}")
    return Polytope(p.vertices @ m.T)


def affine_dim(p: Polytope) -> int:
    """Dimension of the affine hull: the rank of ``affine_frame``, so the
    answer does not depend on the units or the placement."""
    return affine_frame(p.vertices)[2]


def diameter(p: Polytope) -> float:
    """Maximal pairwise vertex distance."""
    v = p.vertices
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def point_in_hull(x, p: Polytope) -> bool:
    """LP feasibility: does x lie in conv(vertices)?  Solved in the unit
    frame of the vertices, so TOL_FEAS is relative to their extent."""
    w, c, s = _unit_frame(p.vertices)
    x = (np.asarray(x, dtype=np.float64) - c) / (s or 1.0)
    a = np.vstack([w.T, np.ones((1, p.nverts))])
    out = lp.feasible(a, np.append(x, 1.0), np.ones(p.nverts, dtype=bool))
    return out.status == lp.OPTIMAL


def _unit_frame(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """v centred on its mean c and divided by its extent s = max |v - c|, and
    c and s (s = 0 for one repeated point, then only centred).  Hulls keep
    their combinatorics, and absolute tolerances become relative to size."""
    c = v.mean(axis=0)
    d = v - c
    s = float(np.abs(d).max())
    return (d / s if s > 0.0 else d), c, s


def affine_frame(points) -> tuple[np.ndarray, np.ndarray, int]:
    """(c, frame, r): the vertex mean, an orthonormal n x n matrix whose first
    r columns span the affine hull's directions, and r, the count of the
    centred set's singular values above TOL_FEAS times the largest.  One
    repeated point, which its mean can miss by a rounding step, has r = 0."""
    v = np.asarray(points, dtype=np.float64)
    c = v.mean(axis=0)
    _, sv, vt = np.linalg.svd(v - c)
    return c, vt.T, 0 if (v == v[0]).all() else int(np.sum(sv > TOL_FEAS * sv[0]))


def _distinct_indices(v: np.ndarray) -> list[int]:
    """First occurrences of the rows of v, equal when rounded to 12 decimals
    in the unit frame."""
    w, _, extent = _unit_frame(v)
    if extent == 0.0:
        return [0]
    first: dict[tuple, int] = {}
    for i, key in enumerate(map(tuple, np.round(w, 12).tolist())):
        first.setdefault(key, i)
    return list(first.values())


def canonical_vertex_indices(p: Polytope) -> list[int]:
    """Indices (into p.vertices) of the extreme points, in input order; of
    equal points the first is kept.

    Planar sets go through ``planar_hull``.  In R^3 the distinct points of
    a full-dimensional set of at most _MAX_HULL_POINTS go through
    ``_hull_skeleton``.  Otherwise each point is tested against the hull of
    the others by ``point_in_hull``.
    """
    v = p.vertices
    keep = _distinct_indices(v)
    if len(keep) == 1:
        return keep
    if p.dim == 2:
        return sorted(keep[i] for i in planar_hull(v[keep]))
    skeleton = _hull_skeleton(v[keep]) if p.dim == 3 else None
    if skeleton is not None:
        return [keep[i] for i in skeleton[0]]
    for i in list(keep):
        if point_in_hull(v[i], Polytope(v[[j for j in keep if j != i]])):
            keep.remove(i)
    return keep


def planar_hull(points, tol: float = TOL_FEAS) -> list[int]:
    """Indices of the extreme points of a planar point set, counter-clockwise
    from the lexicographically smallest one (Andrew's monotone chain).

    A point whose turn between its chain neighbours has sine at most ``tol``
    is dropped, so collinear boundary points go; of equal points the first
    is kept.  A collinear set gives its two end points, a single point itself.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"planar hull needs an (m, 2) array, got shape {pts.shape}")
    xy = pts.tolist()
    order = sorted(range(len(xy)), key=xy.__getitem__)  # stable: ties keep input order
    seq = [i for j, i in enumerate(order) if j == 0 or xy[i] != xy[order[j - 1]]]
    if len(seq) <= 2:
        return seq

    def chain(indices):
        out: list[int] = []
        for i in indices:
            px, py = xy[i]
            while len(out) >= 2:
                ox, oy = xy[out[-2]]
                ax, ay = xy[out[-1]]
                ux, uy, wx, wy = ax - ox, ay - oy, px - ox, py - oy
                if ux * wy - uy * wx > tol * math.hypot(ux, uy) * math.hypot(wx, wy):
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    return chain(seq) + chain(seq[::-1])


@lru_cache(maxsize=64)
def _combinations(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m) as increasing rows, in lexicographic order."""
    return np.fromiter(chain.from_iterable(combinations(range(m), k)), np.intp).reshape(-1, k)


# the enumeration tests all C(m, 3) triple planes against all m points; past
# this many points that outgrows the LP a hull would save
_MAX_HULL_POINTS = 24
# bytes of one block's temporaries (here the (point, triple) distances): under
# glibc's 128 KiB mmap threshold, so that a block's temporaries reuse heap
# memory instead of faulting in fresh pages on every call
_BLOCK_BYTES = 120_000
_COND_LIMIT = 1e12   # of each vertex system of simplex_from_supports


def hull_facets(points) -> tuple[np.ndarray, np.ndarray] | None:
    """Facets {x : a.x <= b} of the hull of a 3-D point set: unit outward
    normals a, one row per facet, and offsets b.  None when the set is flat
    (or a point, or collinear) or has more than _MAX_HULL_POINTS points.

    Every triple of points spans a candidate plane, and it is a facet plane
    when no point lies above it.  Triples with the same points on their
    plane are one facet, given by its triple of largest area.  The work is
    done on a copy centred on the vertex mean and divided by its extent, so
    the tolerances are relative to the set's size: a triple whose sine is
    at most 1e-9 spans no plane, a point may lie 1e-12 above a facet plane,
    and points within 1e-12 of it are on it.  A set whose mean lies within
    1e-9 of a facet plane counts as flat.
    """
    hull = _hull(points)
    return None if hull is None else hull[:2]


def _hull(points) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``hull_facets`` plus incidences: incident[f, i] says point i lies on
    facet f.  The triples go in blocks of _BLOCK_BYTES."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"3-D hull needs an (m, 3) array, got shape {pts.shape}")
    m = pts.shape[0]
    if not 4 <= m <= _MAX_HULL_POINTS:
        return None
    p, c, s = _unit_frame(pts)
    if s == 0.0:
        return None
    triples = _combinations(m, 3)
    step = _BLOCK_BYTES // (8 * m)
    blocks = [_facet_triples(p, triples[lo:lo + step]) for lo in range(0, len(triples), step)]
    a, b, area, on = (np.concatenate(parts, axis=-1) for parts in zip(*blocks))
    if b.size == 0 or b.min() <= 1e-9:
        return None
    # one facet per set of incident points (a bit mask, as m <= 24), from
    # its largest triple
    order = np.argsort(-area, kind="stable")
    _, unique = np.unique(on[:, order].T @ (1 << np.arange(m)), return_index=True)
    keep = np.sort(order[unique])
    a = np.ascontiguousarray(a[:, keep].T)
    return a, s * b[keep] + a @ c, on[:, keep].T


def _facet_triples(p: np.ndarray, t: np.ndarray):
    """Of the triples t of the centred points p, those that span a facet
    plane: their outward normals (3, k), offsets, areas and the (point, k)
    mask of the points on their planes."""
    corner = p.T.take(t, axis=1)                    # (coordinate, triple, corner)
    e1, e2 = corner[:, :, 1] - corner[:, :, 0], corner[:, :, 2] - corner[:, :, 0]
    nrm = e1[[1, 2, 0]] * e2[[2, 0, 1]] - e1[[2, 0, 1]] * e2[[1, 2, 0]]
    area = np.sqrt((nrm * nrm).sum(axis=0))
    spans = area > 1e-9 * np.sqrt((e1 * e1).sum(axis=0) * (e2 * e2).sum(axis=0))
    a = nrm / np.where(spans, area, 1.0)
    b = (a * corner[:, :, 0]).sum(axis=0)
    # the mean, now the origin, lies inside: an outward normal has b >= 0
    flip = np.where(b < 0.0, -1.0, 1.0)
    a, b = a * flip, b * flip
    dist = p @ a - b                                # (point, triple)
    facet = spans & (dist.max(axis=0) <= 1e-12)
    return a[:, facet], b[facet], area[facet], dist[:, facet] >= -1e-12


def _hull_skeleton(v: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]] | None:
    """Extreme points and edges of the hull of a 3-D point set, from the
    incidences of ``_hull``; None where it gives no facets.

    The extreme points are those on at least three facets.  An edge is a
    pair of facets that share exactly two extreme points; its pairs come
    sorted, as (i, j) with i < j.  Incidences that break Euler's formula
    V - E + F = 2 (near-equal points, say) also give None.
    """
    hull = _hull(v)
    if hull is None:
        return None
    incident = hull[2]
    extreme = incident.sum(axis=0) >= 3
    on = incident & extreme
    f, g = np.nonzero(np.triu(on.astype(np.intp) @ on.T == 2, 1))
    ends = np.nonzero(on[f] & on[g])[1].reshape(-1, 2)
    pairs = sorted(map(tuple, ends.tolist()))
    if int(extreme.sum()) - len(pairs) + len(incident) != 2:
        return None
    return np.flatnonzero(extreme), pairs


def canonicalize(p: Polytope) -> Polytope:
    """Remove redundant generators so every vertex is an extreme point.

    The kept vertices stay in input order; ``canonical_vertex_indices``
    picks them.
    """
    if p.canonical:
        return p
    return Polytope(p.vertices[canonical_vertex_indices(p)], canonical=True)


def edges(p: Polytope) -> list[tuple[int, int]]:
    """1-skeleton of a canonical 3-polytope, as pairs (i, j) with i < j.

    In R^3, up to _MAX_HULL_POINTS vertices, the edges come from the facet
    incidences of ``_hull_skeleton``.  Otherwise a pair (i, j) is an edge
    iff some direction exposes exactly {i, j}; decided by an LP maximizing
    the exposure margin over box-bounded directions, in the unit frame.
    """
    if not p.canonical:
        raise ValueError("edges requires canonical vertices; call canonicalize first")
    if affine_dim(p) != 3:
        raise ValueError("edges requires a full-dimensional body in R^3")
    n = p.dim
    v = p.vertices
    m = v.shape[0]
    skeleton = _hull_skeleton(v) if n == 3 else None
    if skeleton is not None and len(skeleton[0]) == m:
        return skeleton[1]
    w = _unit_frame(v)[0]
    return [(i, j) for i, j in combinations(range(m), 2)
            if _edge_exposure_margin(w, i, j, n) > TOL_GEOM]


def _edge_exposure_margin(v: np.ndarray, i: int, j: int, n: int) -> float:
    """Optimal margin of an LP searching for u with v_i.u = v_j.u = h and
    v_k.u <= h - delta for all other k, subject to |u|_inf <= 1."""
    others = np.delete(np.arange(v.shape[0]), [i, j])
    no = len(others)
    # columns: u (n free) | h (free) | delta | s_k (no) | box slacks (2n);
    # rows: v_i.u = v_j.u, v_i.u = h, v_k.u - h + delta + s_k = 0, +-u_c <= 1
    ncols = n + 2 + no + 2 * n
    a = np.zeros((2 + no + 2 * n, ncols))
    a[0, :n] = v[i] - v[j]
    a[1, :n] = v[i]
    a[1:2 + no, n] = -1.0
    rows = 2 + np.arange(no)
    a[rows, :n] = v[others]
    a[rows, n + 1] = 1.0
    a[rows, n + 2 + np.arange(no)] = 1.0
    box = 2 + no + np.arange(2 * n)
    a[box, np.repeat(np.arange(n), 2)] = np.tile([1.0, -1.0], n)
    a[box, n + 2 + no + np.arange(2 * n)] = 1.0
    b = np.zeros(len(a))
    b[box] = 1.0
    c = np.zeros(ncols)
    c[n + 1] = 1.0
    nonneg = np.ones(ncols, dtype=bool)
    nonneg[:n + 1] = False
    out = lp.solve(lp.LpProblem(a, b, c, nonneg))
    if out.status != lp.OPTIMAL:
        return 0.0
    return float(out.objective)


def simplex_from_supports(normals: np.ndarray, heights: np.ndarray) -> Polytope:
    """Vertices of the simplex {x : x.u_i <= h_i} by Cramer-style solves.

    Vertex j solves the n x n system {x.u_i = h_i, i != j}; solvable when any
    n of the normals are independent (guaranteed by the interior-origin
    condition on the normal set).  Raises past _COND_LIMIT.
    """
    normals = np.asarray(normals, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64).reshape(-1)
    k, n = normals.shape
    if k != n + 1 or heights.shape[0] != k:
        raise ValueError("need n+1 normals and heights in R^n")
    verts = np.empty((k, n))
    for j in range(k):
        rows = [i for i in range(k) if i != j]
        a = normals[rows]
        if np.linalg.cond(a) > _COND_LIMIT:
            raise ValueError("ill-conditioned simplex system")
        verts[j] = np.linalg.solve(a, heights[rows])
    return Polytope(verts, canonical=True)


def simplex_facet_normals(s: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit facet normals and support heights of an n-simplex.

    Facet i is the hull of all vertices except vertex i; the normal is
    oriented away from vertex i.
    """
    v = s.vertices
    k, n = v.shape
    if k != n + 1:
        raise ValueError(f"simplex in R^{n} needs exactly {n + 1} vertices, got {k}")
    normals = np.empty((k, n))
    heights = np.empty(k)
    for j in range(k):
        rows = [i for i in range(k) if i != j]
        base = v[rows[0]]
        diffs = v[rows[1:]] - base
        _, sv, vt = np.linalg.svd(diffs)
        if sv[-1] <= TOL_FEAS * sv[0]:
            raise ValueError("degenerate simplex")
        normal = vt[-1]
        h = float(normal @ base)
        if float(normal @ v[j]) > h:
            normal, h = -normal, -h
        normals[j] = normal
        heights[j] = h
    return normals, heights


# --- JSON body format -------------------------------------------------------

def body_to_dict(p: Polytope) -> dict:
    return {"dim": p.dim, "vertices": [[float(x) for x in row] for row in p.vertices]}


def body_from_dict(data) -> Polytope:
    if not isinstance(data, dict) or "dim" not in data or "vertices" not in data:
        raise ValueError("body JSON must be an object with 'dim' and 'vertices'")
    n = data["dim"]
    rows = data["vertices"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"'dim' must be a positive integer, got {n!r}")
    if not isinstance(rows, list) or not rows:
        raise ValueError("'vertices' must be a nonempty list of coordinate rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"vertex row {i} has {len(row) if isinstance(row, list) else 'no'} "
                             f"coordinates, expected {n}")
    return Polytope(np.asarray(rows, dtype=np.float64))


def read_body(path) -> Polytope:
    with open(path) as fh:
        return body_from_dict(json.load(fh))


def write_body(p: Polytope, path) -> None:
    with open(path, "w") as fh:
        json.dump(body_to_dict(p), fh, indent=2)
        fh.write("\n")
