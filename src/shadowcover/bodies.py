"""The polytope type, its geometric primitives, and the one owner of a point
set's frame: ``_unit_frame`` centres the set on its vertex mean and divides
by its extent (the largest coordinate distance from the mean), and
``affine_frame`` adds an orthonormal basis of its affine hull and its rank.
Every length tolerance is relative to the owning body's extent and every
flatness test is that rank, so verdicts do not change under x -> f x + v.

Bodies are V-representations: the convex hull of a finite vertex list, which
may contain redundant generators until a ``canonicalize`` pass removes them.
``canonical_vertex_indices`` picks the extreme points for that pass, after
merging points that agree to 12 decimals in the unit frame.  A full body
from R^3 up owns its hull: a ``_Hull`` record of extreme points and facets,
built on first use and kept on the body, which the canonical vertices and
the scale fits read and ``canonicalize`` hands on: in R^3 one Quickhull
(``_hull_skeleton``), whose edges and exterior angles the exact mean width
reads, and from R^4 on the enumeration of ``_facet_record``.  A set of lower
affine rank r is read in its ``affine_frame``: the two ends for r = 1, a
monotone-chain hull (``planar_hull``, which also gives the edges that the
planar scale fit uses) for r = 2 and the hull record from r = 3 on.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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

    @cached_property
    def _hull_record(self) -> _Hull | None:
        """The hull record of a body from R^3 up, built on first use; None
        when the body is flat or in R^1 or R^2."""
        return ((_hull_skeleton if self.dim == 3 else _facet_record)(self.vertices)
                if self.dim >= 3 else None)


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


def support_set(p: Polytope, u) -> list[int]:
    """Indices of vertices attaining the support value within
    TOL_GEOM * |u| times P's extent, so a similarity of P keeps the set.

    A singleton certifies an exposed point, and u as a regular normal of P.
    """
    u = np.asarray(u, dtype=np.float64)
    norm = float(np.linalg.norm(u))
    if norm <= TOL_FEAS:
        raise ValueError("support set needs a nonzero direction")
    vals = p.vertices @ u
    cutoff = vals.max() - TOL_GEOM * norm * _unit_frame(p.vertices)[2]
    return [int(i) for i in np.nonzero(vals >= cutoff)[0]]


def project(p: Polytope, s: Subspace) -> Polytope:
    """Orthogonal projection onto a subspace, in d-coordinate representation.

    The support function of the result is the restriction of h_P to the
    subspace: h_{P_S}(w) = h_P(basis @ w).  The product is a fresh (m, d)
    array: checked finite, as it can overflow, and kept read-only, uncopied.
    """
    if s.n != p.dim:
        raise ValueError(f"subspace lives in R^{s.n}, polytope in R^{p.dim}")
    v = p.vertices @ s.basis
    if not np.logical_and.reduce(np.isfinite(v), axis=None):
        raise ValueError("vertex coordinates must be finite")
    v.flags.writeable = False
    out = object.__new__(Polytope)
    object.__setattr__(out, "vertices", v)
    object.__setattr__(out, "canonical", False)
    return out


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
    """LP feasibility (zero objective): does x lie in conv(vertices)?  Solved
    in the unit frame of the vertices, so TOL_FEAS is relative to their extent."""
    w, c, s = _unit_frame(p.vertices)
    x = (np.asarray(x, dtype=np.float64) - c) / (s or 1.0)
    a, m = np.vstack([w.T, np.ones((1, p.nverts))]), p.nverts
    out = lp.solve(lp.LpProblem(a, np.append(x, 1.0), np.zeros(m), np.ones(m, dtype=bool)))
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

    A full body from R^3 up reads them from its hull record.  A flat set,
    or one in R^1 or R^2, is read in the ``affine_frame`` of its distinct
    points: rank 1 gives the two ends, rank 2 goes through ``planar_hull``
    and a higher rank through the hull record of its frame coordinates.
    """
    if (hull := p._hull_record) is not None:
        return hull.extreme.tolist()
    v = p.vertices
    keep = _distinct_indices(v)
    if len(keep) == 1:
        return keep
    c, frame, r = affine_frame(v[keep])
    x = v[keep] if r == p.dim else (v[keep] - c) @ frame[:, :r]
    if r == 1:
        return sorted({keep[int(x.argmin())], keep[int(x.argmax())]})
    if r == 2:
        return sorted(keep[i] for i in planar_hull(x))
    return [keep[i] for i in (_hull_skeleton if r == 3 else _facet_record)(x).extreme]


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


# unit-frame distances: a point more than _ON above a facet plane lies outside
# the hull, and adjacent triangles whose far corners lie within _ON of each
# other's plane are one facet.  A float distance past _SURE keeps its sign and
# a nearer one is decided exactly: _plane's normals are good to 8e-13 radians,
# and no two points are more than 2 sqrt(3) apart.
_ON = 1e-12
_SURE = 3e-12
_COND_LIMIT = 1e12   # of each vertex system of simplex_from_supports


# a hull record: extreme points, edges as sorted rows (i, j) with i < j and their exterior angles
# (None from R^4 on), and the facets {x : a.x <= b} of the unit frame (X - c) / s of the points
_Hull = namedtuple("_Hull", "extreme edges angles a b c s")


def _read_only(hull: _Hull) -> _Hull:
    """The record with its arrays set read-only, as every reader shares them."""
    for field in hull[:-1]:
        if field is not None:
            field.flags.writeable = False
    return hull


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


def _minors(e: np.ndarray) -> np.ndarray:
    """(C(n, k), B): the k x k minors of B k x n matrices, given as (k, n, B), over the
    lexicographic column k-subsets, by Laplace expansion along each next row, summed in place on
    the rows of B entries, whose cofactor sign (-1)^r comes at the end."""
    k, n, _ = e.shape
    minors = {(j,): e[0, j] for j in range(n)}
    for r in range(1, k):
        row, expanded = e[r], {}
        for cols in combinations(range(n), r + 1):
            acc = expanded[cols] = row[cols[0]] * minors[cols[1:]]
            for t in range(1, r + 1):
                term = row[cols[t]] * minors[cols[:t] + cols[t + 1:]]
                (np.subtract if t % 2 else np.add)(acc, term, out=acc)
        minors = expanded
    return np.stack(list(minors.values())) * (-1.0) ** (k * (k - 1) // 2)


def _facet_record(v: np.ndarray) -> _Hull | None:
    """The ``_Hull`` record of a point set in R^n, n >= 4, with indices into v; None when flat.

    In the unit frame of the distinct points, each n-subset's hyperplane has its edges' cofactors
    as normal or, below a sine (volume over the product of edge lengths) of 1e-3, where they lose
    digits, the last column of their Householder QR, good however thin the subset.  A facet has
    every point on one side within _ON, tried first on the points of extreme coordinates; equal
    incident sets are one facet, and one inside another's (a lower face, or a point rounding put
    just past _ON) is none.  A point is extreme when no other lies on every facet through it.
    Blocks of subsets keep temporaries to a few MB."""
    keep = np.array(_distinct_indices(v))
    m, n = len(keep), v.shape[1]
    if m <= n or affine_frame(v[keep])[2] < n:
        return None
    w, c, s = _unit_frame(v[keep])
    wt = np.ascontiguousarray(w.T)   # subsets are worked by coordinate rows of B entries
    probe = w[np.unique(np.concatenate([w.argmin(axis=0), w.argmax(axis=0)]))]
    parts = []
    for subsets in _subset_blocks(m, n, max(1, (1 << 21) // (8 * n * (n + m)))):
        x0 = wt[:, subsets[:, 0]]
        e = np.stack([wt[:, subsets[:, j]] - x0 for j in range(1, n)])
        # cofactor i drops column i: row n - 1 - i of the lexicographic minors
        normal = _minors(e)[::-1] * (-1.0) ** np.arange(n)[:, None]
        area = np.add.reduce(normal * normal)
        sine = np.sqrt(area / np.multiply.reduce(np.add.reduce(e * e, axis=1)))
        a = normal / np.sqrt(np.where(area > 0.0, area, 1.0))
        b = np.add.reduce(a * x0)
        # the cofactors' unit normal is good to n! 1e-16 / sine radians, and a probe lies within
        # 2 sqrt(n) of the subset: a plane is turned down only past that error
        slack = _ON + 2e-16 * math.sqrt(n) * math.factorial(n) / np.maximum(sine, 1e-300)
        d = probe @ a - b
        live = (np.maximum.reduce(d) <= slack) | (np.minimum.reduce(d) >= -slack)
        if (thin := live & (sine < 1e-3)).any():
            a[:, thin] = np.linalg.qr(e[:, :, thin].T, mode="complete")[0][..., -1].T
            b[thin] = np.add.reduce(a[:, thin] * x0[:, thin])
        a, b = a[:, live].T, b[live]
        d = a @ wt - b[:, None]
        side = np.where(d.max(axis=1) <= _ON, 1.0, np.where(d.min(axis=1) >= -_ON, -1.0, 0.0))
        side, a, b, d = (x.compress(side != 0.0, axis=0) for x in (side, a, b, d))
        parts.append((a * side[:, None], b * side, d * side[:, None] >= -_ON))
    a, b, inc = map(np.concatenate, zip(*parts))
    first = np.unique(np.packbits(inc, axis=1), axis=0, return_index=True)[1]
    first = first[_maximal(inc[first])]
    return _read_only(_Hull(keep[_maximal(inc[first].T)], None, None, a[first], b[first], c, s))


def _maximal(sets: np.ndarray) -> np.ndarray:
    """Which rows of a boolean matrix lie within no other row; of equal rows, the first."""
    count = sets.astype(np.intp)
    inside = count @ count.T == np.add.reduce(count, axis=1)[:, None]   # row i within row j
    return ~np.logical_or.reduce(inside & (~inside.T | np.tri(len(sets), k=-1, dtype=bool)), axis=1)


def _hull(points) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray] | None:
    """(a, b, c, s, incident): the facets {x : a.x <= b} of the hull of a
    3-D point set X in its unit frame (X - c) / s, unit outward normals a
    and offsets b, and incident[f, i], which says point i is a vertex of
    facet f, one of its corners or a point that ``_quickhull`` lifted onto
    it.  None when the set is flat by the rank of ``affine_frame``.  Every
    point lies at most 1e-12 above every facet plane.

    The work starts from a tetrahedron of the lexicographically least and
    greatest points, the one farthest from their line and the one farthest
    from the plane of those three.  Each facet's plane is the ``_plane`` of
    its vertex triple of largest area (the first in lexicographic order on
    ties), and the facets come in the lexicographic order of those triples.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"3-D hull needs an (m, 3) array, got shape {pts.shape}")
    if len(pts) < 4:
        return None
    w, c, s = _unit_frame(pts)
    p = w.tolist()
    x0, x1 = min(range(len(p)), key=p.__getitem__), max(range(len(p)), key=p.__getitem__)
    d = w - w[x0]
    x2 = int(((d * d).sum(axis=1) * (d[x1] @ d[x1]) - (d @ d[x1]) ** 2).argmax())
    h = d @ np.array(_cross(d[x1], d[x2]))
    x3 = int(np.abs(h).argmax())
    # the tetrahedron's volume V = |h| / 6 bounds the unit frame's singular
    # values by s3 / s1 >= V / (7 sqrt(m)), so past V = 1e-8 sqrt(m) the
    # rank is surely 3 and the SVD of affine_frame is not needed
    if abs(h[x3]) <= 6e-8 * math.sqrt(len(p)) and affine_frame(pts)[2] < 3:
        return None
    facets = sorted(_quickhull(p, (x0, x2, x1, x3) if h[x3] > 0.0 else (x0, x1, x2, x3)))
    planes = np.array([f[1] for f in facets])
    incident = np.zeros(len(facets) * len(p), dtype=bool)
    incident[[r * len(p) + i for r, f in enumerate(facets) for i in f[2]]] = True
    return planes[:, :3].copy(), planes[:, 3].copy(), c, s, incident.reshape(len(facets), len(p))


def _quickhull(p: list, tetra: tuple) -> list[tuple[tuple, tuple, list[int]]]:
    """Facets (triple, plane, sorted vertices) of the hull of the points p,
    coordinate triples of a full-dimensional set in its unit frame, started
    from the tetrahedron tetra, whose last point lies below the others.

    Quickhull (Barber, Dobkin and Huhdanpaa, TOMS 1996): each step takes the
    point farthest above a triangle, if more than _ON, removes the triangles
    it sees (found by a walk from that one, by the exact side of their
    planes) and joins it to their horizon; the points above the removed
    triangles pass to the new ones.  Adjacent triangles whose far corners
    lie within _ON of each other's plane form one facet, and a triangle
    whose corners lie within _ON of one line (a sliver on points that
    rounding moved off a hull edge) joins the first neighbour whose plane
    they lie on.  Python floats do the work: per-step numpy calls would cost
    more than the arithmetic on the few points of a typical body.
    """
    x0, x1, x2, x3 = tetra
    tri = [(x0, x1, x2), (x0, x3, x1), (x1, x3, x2), (x2, x3, x0)]
    plane = [_plane(p, *t) for t in tri]
    out: list = [[], [], [], []]
    _assign(p, [i for i in range(len(p)) if i not in tetra], range(4), plane, out)
    edge = {}
    for f, (a, b, c) in enumerate(tri):
        edge[a, b] = edge[b, c] = edge[c, a] = f
    pending, near = [f for f in range(4) if out[f]], []   # near: pairs that may be coplanar
    while pending:
        f = pending.pop()
        if not out[f]:
            continue
        nx, ny, nz, _ = plane[f]
        top = -math.inf
        for i in out[f]:
            x, y, z = p[i]
            if nx * x + ny * y + nz * z > top:
                top, eye = nx * x + ny * y + nz * z, i
        q = qx, qy, qz = p[eye]
        seen, close, walk, horizon = {f: True}, set(), [f], []
        for t in walk:
            a, b, c = tri[t]
            for u, v in ((a, b), (b, c), (c, a)):
                g = edge[v, u]
                sees = seen.get(g)
                if sees is None:
                    nx, ny, nz, off = plane[g]
                    h = nx * qx + ny * qy + nz * qz - off
                    sees = seen[g] = h > 0.0 if abs(h) > _SURE else _exact_sees(p, tri[g], q)
                    if sees:
                        walk.append(g)
                    elif abs(h) <= _ON:
                        close.add(g)
                if not sees:
                    horizon.append((u, v, g))
        orphans = []
        for g in walk:
            a, b, c = tri[g]
            del edge[a, b], edge[b, c], edge[c, a]
            orphans += out[g]
            out[g] = None
        new = range(len(tri), len(tri) + len(horizon))
        for u, v, g in horizon:
            if g in close:
                near.append((len(tri), g))
            edge[u, v] = edge[v, eye] = edge[eye, u] = len(tri)
            tri.append((u, v, eye))
            plane.append(_plane(p, u, v, eye))
            out.append([])
        for f in new:   # the next cone triangle (v, w, eye) may lie in f's plane
            g = edge[eye, tri[f][1]]
            nx, ny, nz, off = plane[f]
            x, y, z = p[tri[g][1]]
            if abs(nx * x + ny * y + nz * z - off) <= _ON:
                near.append((f, g))
        orphans.remove(eye)
        _assign(p, orphans, new, plane, out)
        pending += [g for g in new if out[g]]
    live = [f for f in range(len(tri)) if out[f] is not None]

    def lies_on(f, g):   # f's corners lie within _ON of g's plane
        nx, ny, nz, off = plane[g]
        return all(abs(nx * p[i][0] + ny * p[i][1] + nz * p[i][2] - off) <= _ON for i in tri[f])

    def flat(f):   # f's corners lie within _ON of one line, so its plane is arbitrary
        a, b, c = ([x - y for x, y in zip(p[i], p[tri[f][0]])] for i in tri[f])
        return sum(x * x for x in _cross(b, c)) <= _ON ** 2 * max(
            sum(x * x for x in e) for e in (b, c, [x - y for x, y in zip(c, b)]))

    group = {}   # of the merged triangles: their set, shared by all of them
    for f, g in near:
        if out[f] is None or out[g] is None:
            continue
        on_g, on_f = lies_on(f, g), lies_on(g, f)
        # a flat triangle joins the first neighbour it lies on, and no other
        if on_g and (on_f or f not in group and flat(f)) or on_f and g not in group and flat(g):
            merged = group.get(f, {f}) | group.get(g, {g})
            group.update(dict.fromkeys(merged, merged))
    facets = [(tuple(sorted(tri[f])), plane[f], sorted(tri[f])) for f in live if f not in group]
    for f in live:
        if f in group and f == min(group[f]):
            verts = sorted({i for e in group[f] for i in tri[e]})
            t = _largest_triple(np.array([p[i] for i in verts]), verts)
            pl = _plane(p, *t)   # outward as the triangles
            up = pl[0] * plane[f][0] + pl[1] * plane[f][1] + pl[2] * plane[f][2] > 0.0
            facets.append((t, pl if up else tuple(-x for x in pl), verts))
    return facets


def _largest_triple(q: np.ndarray, verts: list[int]) -> tuple[int, int, int]:
    """The triple of verts (sorted; q holds their points) of largest area,
    the first in lexicographic order on ties: one array pass per first
    point, so a facet of k vertices costs k numpy passes."""
    best, top = None, -1.0
    for a in range(len(verts) - 2):
        e = q[a + 1:] - q[a]
        area = np.sqrt((np.cross(e[:, None], e) ** 2).sum(axis=2))
        area[np.tri(len(e), dtype=bool)] = -1.0   # pairs (j, k) with j < k only
        j, k = divmod(int(area.argmax()), len(e))
        if area[j, k] > top:
            best, top = (verts[a], verts[a + 1 + j], verts[a + 1 + k]), area[j, k]
    return best


def _assign(p, points, facets, plane, out) -> None:
    """Put each point on the outside list of the first facet it lies more
    than _ON above."""
    for i in points:
        x, y, z = p[i]
        for f in facets:
            nx, ny, nz, off = plane[f]
            if nx * x + ny * y + nz * z - off > _ON:
                out[f].append(i)
                break


def _plane(p, i: int, j: int, k: int) -> tuple[float, float, float, float]:
    """(nx, ny, nz, b): the plane n.x = b through p[i], p[j], p[k], with the
    unit normal n that makes them counter-clockwise, from the edges that
    leave the point of least index; where their sine is below 1e-3 the cross
    product is exact, so the normal is good to 8e-13 radians."""
    if j < i and j < k:
        i, j, k = j, k, i
    elif k < i:
        i, j, k = k, i, j
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = p[i], p[j], p[k]
    ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    nn = nx * nx + ny * ny + nz * nz
    if nn < 1e-6 * (ux * ux + uy * uy + uz * uz) * (vx * vx + vy * vy + vz * vz):
        nx, ny, nz = map(float, _exact_normal(p[i], p[j], p[k]))
        nn = nx * nx + ny * ny + nz * nz
    s = math.sqrt(nn)
    nx, ny, nz = nx / s, ny / s, nz / s
    return nx, ny, nz, nx * ax + ny * ay + nz * az


def _cross(u, v) -> tuple:
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _exact_normal(a, b, c) -> tuple:
    """(b - a) x (c - a) in exact rationals."""
    a = [Fraction(x) for x in a]
    return _cross([Fraction(x) - y for x, y in zip(b, a)], [Fraction(x) - y for x, y in zip(c, a)])


def _exact_sees(p, t, q) -> bool:
    """Does q lie strictly above the plane of the triangle t, by the exact
    orientation determinant?"""
    a = p[t[0]]
    return sum(x * (Fraction(y) - Fraction(z)) for x, y, z in
               zip(_exact_normal(a, p[t[1]], p[t[2]]), q, a)) > 0


def _hull_skeleton(v: np.ndarray) -> _Hull | None:
    """The ``_Hull`` record of a 3-D point set, from the facets of ``_hull``
    on its distinct points (``_distinct_indices``), with indices into v;
    None when the set is flat.

    The extreme points are those on at least three facets.  An edge is a
    pair of facets with three or more extreme points that share exactly
    two; its pairs come as sorted rows (i, j) with i < j, and its exterior
    angle, the angle between the two facets' unit outward normals a_f and
    a_g, is atan2(|a_f x a_g|, a_f . a_g), which keeps its digits near 0
    and pi.  Those facets are the ones of the hull of the extreme points, so
    V - E + F = 2.  Of the ends of an edge shorter than TOL_FEAS of the
    set's extent the first stands for both, as of equal points: the other
    is dropped and the hull of the rest read again.  The facets and frame
    stay those of the whole set, so that every point lies below them.
    """
    keep = np.array(_distinct_indices(v))
    if (hull := _hull(v[keep])) is None:
        return None
    whole, tol = hull[:4], (TOL_FEAS * hull[3]) ** 2
    while True:
        on = hull[4] & (hull[4].sum(axis=0) >= 3)
        rows = on.sum(axis=1) >= 3
        on, a = on[rows], hull[0][rows]
        f, g = np.nonzero(np.triu(on.astype(np.intp) @ on.T == 2, 1))
        ends = keep[np.nonzero(on[f] & on[g])[1].reshape(-1, 2)]
        d = v[ends[:, 0]] - v[ends[:, 1]]
        short = (d * d).sum(axis=1) <= tol
        if short.any():
            rest = np.setdiff1d(keep, ends[short, 1])
            if (hull := _hull(v[rest])) is not None:
                keep = rest
                continue
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        # |a_f x a_g| and a_f . a_g by their sums, cheaper than np.cross and norm
        (x, y, z), (p, q, r) = a[f].T, a[g].T
        cross = np.sqrt((y * r - z * q) ** 2 + (z * p - x * r) ** 2 + (x * q - y * p) ** 2)
        angle = np.arctan2(cross, x * p + y * q + z * r)
        return _read_only(_Hull(keep[on.any(axis=0)], ends[order], angle[order], *whole))


def canonicalize(p: Polytope) -> Polytope:
    """Remove redundant generators so every vertex is an extreme point.

    The kept vertices stay in input order; ``canonical_vertex_indices``
    picks them, and a full body from R^3 up hands on the record that chose them.
    """
    if p.canonical:
        return p
    idx = canonical_vertex_indices(p)
    out = Polytope(p.vertices[idx], canonical=True)
    if (hull := p._hull_record) is not None:   # idx is hull.extreme, increasing
        object.__setattr__(out, "_hull_record", _read_only(hull._replace(
            extreme=np.arange(len(idx)),
            edges=np.searchsorted(idx, hull.edges) if p.dim == 3 else None)))
    return out


def edges(p: Polytope) -> list[tuple[int, int]]:
    """1-skeleton of a canonical body of affine dimension 3, as sorted pairs
    (i, j) with i < j: the edges of its hull record; a body in R^4 and up is
    read in its ``affine_frame``."""
    if not p.canonical:
        raise ValueError("edges requires canonical vertices; call canonicalize first")
    if p.dim > 3 and (frame := affine_frame(p.vertices))[2] == 3:
        p = Polytope((p.vertices - frame[0]) @ frame[1][:, :3])
    if p.dim != 3 or (hull := p._hull_record) is None:
        raise ValueError("edges requires a body of affine dimension 3")
    return list(map(tuple, hull.edges.tolist()))


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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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
