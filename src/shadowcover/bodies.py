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
built on first use and kept on the body by one Quickhull in every dimension
(``_hull_skeleton``), which the canonical vertices and the scale fits read
and ``canonicalize`` hands on; in R^3 it adds the edges and exterior angles
that the exact mean width reads.  A set of lower affine rank r is read in
its ``affine_frame``: the two ends for r = 1, a monotone-chain hull
(``planar_hull``) for r = 2 and the hull record from r = 3 on.  The planar
scale fit runs that chain, ``_planar_hull``, on a shadow's rows as Python
lists, which it reads once, and takes its edges from the result.  A
shadow (``project``) is proved finite by its body's bound, the largest
coordinate size, taken once per body; only past that bound is the product
scanned.
"""

from __future__ import annotations

import json
import math
from bisect import bisect
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from operator import mul, sub

import numpy as np

from . import lp
from .core import TOL_FEAS, TOL_GEOM, Subspace, hyperplane_basis, unit


# n max |v_ij| at most this keeps every coordinate of a projection below
# DBL_MAX ~ 1.8e308, with room for the basis columns' 1e-7 and the rounding
_FINITE = 1e307


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
    def _bound(self) -> float:
        """M = max |v_ij|, taken once per body: n M bounds every coordinate
        of a projection onto unit columns (see ``project``)."""
        return float(np.abs(self.vertices).max())

    @cached_property
    def _hull_record(self) -> _Hull | None:
        """The hull record of a body from R^3 up, built on first use; None
        when the body is flat or in R^1 or R^2."""
        return _hull_skeleton(self.vertices) if self.dim >= 3 else None


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
    array, kept read-only, uncopied.  Its entries are sums of n terms
    v_ij b_jk with |b_jk| <= 1 + 1e-7, as every basis column has norm 1
    within 1e-7, so P's bound M = max |v_ij| proves the product finite when
    n M <= 1e307 (``_FINITE``); past that it can overflow, and is scanned.
    """
    v, b = p.vertices, s.basis
    n = v.shape[1]
    if b.shape[0] != n:
        raise ValueError(f"subspace lives in R^{b.shape[0]}, polytope in R^{n}")
    w = v.dot(b)   # the bytes of v @ b, for less call overhead
    if n * p._bound > _FINITE and not np.logical_and.reduce(np.isfinite(w), axis=None):
        raise ValueError("vertex coordinates must be finite")
    w.flags.writeable = False
    out = object.__new__(Polytope)
    object.__setattr__(out, "vertices", w)
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
    c = np.add.reduce(v, axis=0) / len(v)   # v.mean(axis=0), without its Python layer
    d = v - c
    s = float(np.maximum.reduce(np.abs(d), axis=None))
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


def _distinct_indices(v: np.ndarray, frame=None) -> list[int]:
    """First occurrences of the rows of v, equal when rounded to 12 decimals
    in the unit frame (``_unit_frame(v)``, unless given)."""
    w, _, extent = frame or _unit_frame(v)
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
    return [keep[i] for i in _hull_skeleton(x).extreme]


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
    return _planar_hull(pts.tolist(), tol)


def _planar_hull(xy: list, tol: float) -> list[int]:
    """``planar_hull`` of the rows xy, a list of [x, y] Python floats: the
    planar scale fit reads a shadow's rows once, as lists, and walks them here."""
    order = sorted(range(len(xy)), key=xy.__getitem__)  # stable: ties keep input order
    seq = [i for j, i in enumerate(order) if j == 0 or xy[i] != xy[order[j - 1]]]
    if len(seq) <= 2:
        return seq
    hull: list[int] = []
    for chain in (seq, seq[::-1]):   # the lower chain, then the upper
        out: list[int] = []
        for i in chain:
            px, py = xy[i]
            while len(out) >= 2:
                ox, oy = xy[out[-2]]
                ax, ay = xy[out[-1]]
                ux, uy, wx, wy = ax - ox, ay - oy, px - ox, py - oy
                turn = ux * wy - uy * wx
                if turn > 0.0 and turn > tol * math.hypot(ux, uy) * math.hypot(wx, wy):
                    break
                out.pop()
            out.append(i)
        hull += out[:-1]
    return hull


# unit-frame distance: a point more than _ON above a facet plane lies outside
# the hull, and one within _ON of it lies on the facet
_ON = 1e-12
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


def _hull(points, frame=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, float,
                                      np.ndarray] | None:
    """(a, b, c, s, incident): the facets {x : a.x <= b} of the hull of a
    point set X in R^n, n >= 3, in its unit frame (X - c) / s, unit outward
    normals a and offsets b, and incident[f, i], which says point i is a
    corner of facet f; the frame is ``_unit_frame(X)``, unless given.  None
    when the set is flat by the rank of ``affine_frame``.  Every point lies
    at most 1e-12 above every facet plane.

    The work starts from a simplex: the n points that ``_spread`` picks and
    the one farthest from their hyperplane.  The facets come in the
    lexicographic order of their corners.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ValueError(f"a hull needs an (m, n) array with n >= 3, got shape {pts.shape}")
    m, n = pts.shape
    if m <= n:
        return None
    w, c, s = frame or _unit_frame(pts)
    p = w.tolist()
    base, volume = _spread(w, p, n)
    base = tuple(sorted(base))
    pl = _plane(p, base, False)   # of zero normal when the base is flat
    h = w @ pl[:n] - pl[n]
    apex = int(np.abs(h).argmax())
    # volume is n! times the simplex's.  Its edges are at most 2 s_n long along the unit frame's
    # last singular axis and 2 sqrt(n) across it, so volume <= n 2^n n^((n-1)/2) s_n; and
    # s_1 <= sqrt(m n).  Past TOL_FEAS times those bounds the rank is surely n: no SVD is needed
    if (volume := volume * abs(h[apex])) <= TOL_FEAS * 2 ** n * n ** (n / 2 + 1) * math.sqrt(m) \
            and affine_frame(pts)[2] < n:
        return None
    flip = bool(h[apex] > 0.0) if abs(h[apex]) > _sure(n) else _exact_sees(p, base, False, apex)
    facets = sorted(_quickhull(p, base, flip, apex))
    planes = np.array([f[1] for f in facets])
    on = np.abs(w @ planes[:, :n].T - planes[:, n]) <= _ON   # (points, facets)
    if np.count_nonzero(on) == n * len(facets):   # each facet on its n corners alone
        return planes[:, :n].copy(), planes[:, n].copy(), c, s, on.T
    facets, planes = _merge(w, p, facets)
    incident = np.zeros(len(facets) * m, dtype=bool)
    incident[[r * m + i for r, f in enumerate(facets) for i in f[0]]] = True
    return planes[:, :n].copy(), planes[:, n].copy(), c, s, incident.reshape(len(facets), m)


def _spread(w: np.ndarray, rows: list, count: int) -> tuple[list[int], float]:
    """(pick, volume): the indices of count rows of w (rows as lists), the
    least and the greatest in lexicographic order, then each next the one
    farthest from the affine hull of those before (the first on ties); and
    the product of those distances, (count - 1)! times their simplex's volume."""
    pick = [min(range(len(rows)), key=rows.__getitem__), max(range(len(rows)), key=rows.__getitem__)]
    r, volume = w - w[pick[0]], 1.0   # r: the parts of the points off the flat so far
    while True:
        u = r[pick[-1]]
        volume *= (norm := math.sqrt(u @ u))
        if len(pick) == count:
            return pick, volume
        u = u / (norm or 1.0)
        r = r - (r @ u)[:, None] * u
        pick.append(int(np.add.reduce(r * r, axis=1).argmax()))


def _quickhull(p: list, base: tuple, flip: bool, apex: int) -> list[tuple[tuple, tuple]]:
    """Facets (sorted corners, plane) of the hull of the points p, coordinate
    lists of a full-dimensional set in R^n in its unit frame, started from
    the simplex of the sorted n-tuple base and the point apex below it (above
    it when flip, as the base's corners are then out of turn).

    Quickhull (Barber, Dobkin and Huhdanpaa, TOMS 1996): a facet is a sorted
    n-tuple of points, a flag that says its order is out of turn, and its
    neighbours across the ridges without each corner.  Each step takes the
    point farthest above a facet, if more than _ON, removes the facets it
    sees (found by a walk from that one, by the exact side of their planes)
    and joins it to their horizon ridges; the points above the removed
    facets pass to the new ones.  Python floats do the work: per-step numpy
    calls would cost more than the arithmetic on a typical body's points.
    """
    n, sure = len(base), _sure(len(base))
    face, plane, adj, out = [(base, flip)], [_plane(p, base, flip)], [[0] * n], [[]]

    def cone(horizon, eye):
        """The facets that join eye to the ridges ((corners, odd), k, g, slot): the corners,
        flagged odd, without the k-th, across which lies g's slot; linked to g and to each
        other across their ridges through eye, found by the rest of each ridge."""
        ends, start = {}, len(face)
        for f, ((corners, odd), k, g, slot) in enumerate(horizon, start):
            ridge = corners[:k] + corners[k + 1:]
            j = bisect(ridge, eye)
            new = ridge[:j] + (eye,) + ridge[j:]
            odd ^= (k - j) & 1   # eye moves from slot k to slot j
            face.append((new, odd))
            plane.append(_plane(p, new, odd))
            out.append([])
            adj.append(links := [g] * n)
            adj[g][slot] = f
            # the rest of the ridge without ridge[i], which sits in slot i + (i >= j) of new
            for i, key in enumerate(combinations(ridge, n - 2)):
                i = n - 2 - i   # combinations leave out the last corner first
                if (end := ends.pop(key, None)) is None:
                    ends[key] = f, i + (i >= j)
                else:
                    links[i + (i >= j)] = end[0]
                    adj[end[0]][end[1]] = f
        return range(start, len(face))

    new = cone([((base, not flip), k, 0, k) for k in range(n)], apex)   # the base turned over
    _assign(p, [i for i in range(len(p)) if i != apex and i not in base], [0, *new], plane, out)
    pending = [f for f in [0, *new] if out[f]]
    while pending:
        f = pending.pop()
        if not out[f]:
            continue
        pl = plane[f]
        if n == 3:   # the dot products unrolled, as most bodies are in R^3
            a, b, c, _ = pl
            height = [a * x + b * y + c * z for x, y, z in map(p.__getitem__, out[f])]
        else:
            height = [sum(map(mul, pl, p[i])) for i in out[f]]
        eye = out[f][height.index(max(height))]
        q = p[eye]
        qx, qy, qz = q[:3]   # for R^3's unrolled dot products
        seen, walk, horizon = {f: True}, [f], []
        for t in walk:
            for k, g in enumerate(adj[t]):
                if (sees := seen.get(g)) is None:
                    if n == 3:
                        a, b, c, d = plane[g]
                        h = a * qx + b * qy + c * qz - d
                    else:
                        h = sum(map(mul, plane[g], q)) - plane[g][-1]
                    sees = seen[g] = h > 0.0 if abs(h) > sure else _exact_sees(p, *face[g], eye)
                    if sees:
                        walk.append(g)
                if not sees:
                    horizon.append((face[t], k, g, adj[g].index(t)))
        orphans = []
        for g in walk:
            orphans += out[g]
            out[g] = None
        new = cone(horizon, eye)
        orphans.remove(eye)
        _assign(p, orphans, new, plane, out)
        pending += [g for g in new if out[g]]
    return [(face[f][0], plane[f]) for f in range(len(face)) if out[f] is not None]


def _sure(n: int) -> float:
    """The error bound of a float distance from a ``_plane`` in R^n, whose
    normals are good to (n - 1)! (n - 1) sqrt(n) 1.1e-13 radians (8e-13 in
    R^3), when no two points are more than 2 sqrt(n) apart: a distance past
    it keeps its sign (3e-12 in R^3)."""
    return 2.5e-13 * n * (n - 1) * math.factorial(n - 1)


def _merge(w: np.ndarray, p: list, facets: list) -> tuple[list, np.ndarray]:
    """(facets, planes): the sorted facets (corners, plane) of ``_quickhull``
    on the points w (p as lists), with each set that is one facet merged,
    and their planes as rows.  Two facets are one when their common points
    within _ON of both planes have affine rank n - 1 and the corners of each
    lie within ``_sure`` of the other's plane, so that facets which meet at
    a small angle stay apart however near their ridge those points lie.  A
    flat facet, whose corners have a lower rank (a sliver on points that
    rounding moved off a ridge), joins the first facet on whose plane they
    all lie within _ON, and no other.  A merged facet lies on the ``_plane``
    of n of its corners that ``_spread`` picks, outward as the facets it
    merges, moved out to the highest point; and the rules run again on the
    merged facets."""
    n, tol = w.shape[1], _sure(w.shape[1])
    facets = [(list(corners), pl) for corners, pl in facets]
    while True:
        planes = np.array([f[1] for f in facets])
        gap = np.abs(w @ planes[:, :n].T - planes[:, n])   # (points, facets)
        on = gap <= _ON
        # two facets share n points only if one is merged or on more than its n corners
        beyond = np.flatnonzero((np.add.reduce(on, axis=0) > n) | [len(f[0]) > n for f in facets])
        x, y = np.nonzero(on[:, beyond].T.astype(np.float64) @ on >= n)
        pairs = np.unique(np.minimum(beyond[x], y) * len(facets) + np.maximum(beyond[x], y))
        pairs = np.column_stack(np.divmod(pairs, len(facets)))
        flat = lru_cache(None)(lambda f: len(facets[f][0]) == n
                               and affine_frame(w[facets[f][0]])[2] < n - 1)
        group, ranks = {}, {}   # of the merged facets: their set, shared by all of them
        for f, g in pairs[pairs[:, 0] != pairs[:, 1]].tolist():
            if g in group.get(f, ()):
                continue
            common = on[:, f] & on[:, g]
            if (key := common.tobytes()) not in ranks:   # many pairs share one set
                ranks[key] = affine_frame(w[common])[2]
            if ranks[key] < n - 1:   # a flat facet joins the first it lies on that is not flat
                e, other = (f, g) if flat(f) else (g, f)
                if e in group or not flat(e) or flat(other) or not on[facets[e][0], other].all():
                    continue
            elif gap[facets[f][0], g].max() > tol or gap[facets[g][0], f].max() > tol:
                continue
            merged = group.get(f, {f}) | group.get(g, {g})
            group.update(dict.fromkeys(merged, merged))
        if not group:
            return facets, planes
        merged = [facets[f] for f in range(len(facets)) if f not in group]
        for f in sorted(group):
            if f == min(group[f]):
                corners = sorted({i for e in group[f] for i in facets[e][0]})
                pick = _spread(w[corners], [p[i] for i in corners], n)[0]
                t = tuple(sorted(corners[i] for i in pick))
                pl = list(_plane(p, t, False))
                if sum(map(mul, pl[:n], facets[f][1])) < 0.0:   # outward as the facets it merges
                    pl = [-x for x in pl]
                pl[-1] = float(np.max(w @ pl[:n]))   # no point above it
                merged.append((corners, pl))
        facets = sorted(merged)


def _assign(p, points, facets, plane, out) -> None:
    """Put each point on the outside list of the first facet it lies more
    than _ON above."""
    if len(p[0]) == 3:   # the dot products unrolled, as most bodies are in R^3
        for i in points:
            x, y, z = p[i]
            for f in facets:
                a, b, c, d = plane[f]
                if a * x + b * y + c * z - d > _ON:
                    out[f].append(i)
                    break
        return
    for i in points:
        q = p[i]
        for f in facets:
            pl = plane[f]
            if sum(map(mul, pl, q)) - pl[-1] > _ON:
                out[f].append(i)
                break


def _plane(p, t: tuple, flip: bool) -> tuple:
    """(a_1, ..., a_n, b): the hyperplane a.x = b through the points p[t], t
    sorted, with the unit normal a of the ``_cofactors`` of the edges that
    leave p[t[0]], turned over when flip; where their sine (the volume over
    the product of the edge lengths) is below 1e-3 the cofactors are exact,
    and a flat simplex has the zero normal."""
    if len(t) == 3:   # the cross product, unrolled, as most bodies are in R^3
        i, j, k = t
        ax, ay, az = p[i]
        bx, by, bz = p[j]
        cx, cy, cz = p[k]
        ux = bx - ax; uy = by - ay; uz = bz - az
        vx = cx - ax; vy = cy - ay; vz = cz - az
        nx = uy * vz - uz * vy; ny = uz * vx - ux * vz; nz = ux * vy - uy * vx
        nn = nx * nx + ny * ny + nz * nz
        if nn >= 1e-6 * (ux * ux + uy * uy + uz * uz) * (vx * vx + vy * vy + vz * vz):
            s = math.sqrt(nn) or 1.0
            if flip:
                s = -s
            nx /= s; ny /= s; nz /= s
            return nx, ny, nz, nx * ax + ny * ay + nz * az
    x0 = p[t[0]]
    e = [list(map(sub, p[i], x0)) for i in t[1:]]
    normal, bound = _cofactors(e), 1e-6
    for r in e:
        bound *= sum(map(mul, r, r))
    if sum(map(mul, normal, normal)) < bound:
        normal = _cofactors(_exact_edges(p, t))
        shift = max(abs(x).bit_length() for x in normal) - 60   # to floats near 2^60
        normal = [x / 2 ** shift for x in normal]
    s = math.sqrt(sum(map(mul, normal, normal))) or 1.0
    a = [x / (-s if flip else s) for x in normal]
    return (*a, sum(map(mul, a, x0)))


@lru_cache(maxsize=None)
def _laplace(n: int) -> tuple:
    """The plan of ``_cofactors`` in R^n: the column pairs, then per size
    r = 3 .. n - 1 the column r-subsets as terms (j, k, s), k the place of
    the subset without column j in the size before, s true for a term that
    is subtracted.  The last size, in reverse lexicographic order, holds the
    subsets without column i = 0, 1, .. and carries the cofactor signs
    (-1)^(n - 1 + i): pairs by their order."""
    sizes = [list(combinations(range(n), r))[::-1] for r in range(2, n)]
    sign = dict(zip(sizes[-1], ((-1) ** (n - 1 + i) for i in range(n))))
    return [c[::sign.get(c, 1)] for c in sizes[0]], [
        [[(c[t], before.index(c[:t] + c[t + 1:]), (-1) ** t * sign.get(c, 1) < 0) for t in range(r)]
         for c in size] for r, before, size in zip(range(3, n), sizes, sizes[1:])]


def _cofactors(e) -> list:
    """The normal N of n - 1 rows e of n entries, with N.x = det([e; x]) (the
    cross product in R^3): the 2 x 2 minors of e's last two rows, expanded a
    row up at a time along that row (Laplace).  The entries may be floats,
    integers, or arrays of the entries of many such rows."""
    pairs, sizes = _laplace(len(e[0]))
    a, b = e[-2], e[-1]
    minors = [a[i] * b[j] - a[j] * b[i] for i, j in pairs]
    for row, size in zip(e[-3::-1], sizes):
        signed = row, [-x for x in row]
        minors = [sum(signed[s][j] * minors[k] for j, k, s in terms) for terms in size]
    return minors


def _exact_edges(p, t: tuple) -> list[list[int]]:
    """The edges p[i] - p[t[0]], i in t[1:], exactly: as integers, scaled by
    the one power of two that makes every coordinate of the points whole."""
    ratios = [[x.as_integer_ratio() for x in p[i]] for i in t]
    scale = max(d for row in ratios for _, d in row)
    whole = [[x * (scale // d) for x, d in row] for row in ratios]
    return [list(map(sub, row, whole[0])) for row in whole[1:]]


def _exact_sees(p, t: tuple, flip: bool, eye: int) -> bool:
    """Does p[eye] lie strictly above the plane of the facet t, by the exact
    sign of det([edges; p[eye] - p[t[0]]])?"""
    *e, up = _exact_edges(p, (*t, eye))
    side = sum(map(mul, _cofactors(e), up))
    return side < 0 if flip else side > 0


def _hull_skeleton(v: np.ndarray) -> _Hull | None:
    """The ``_Hull`` record of a point set in R^n, n >= 3, from the facets of
    ``_hull`` on its distinct points (``_distinct_indices``), with indices
    into v; None when the set is flat.

    A point is extreme when it lies on at least n facets and no other point
    lies on every facet through it.  In R^3 the record adds the edges: an
    edge is a pair of facets with three or more extreme points that share
    exactly two; its pairs come as sorted rows (i, j) with i < j, and its
    exterior angle, the angle between the two facets' unit outward normals
    a_f and a_g, is atan2(|a_f x a_g|, a_f . a_g), which keeps its digits
    near 0 and pi.  Those facets are the ones of the hull of the extreme
    points, so V - E + F = 2.  Of the ends of an edge shorter than TOL_FEAS
    of the set's extent the first stands for both, as of equal points: the
    other is dropped and the hull of the rest read again.  The facets and
    frame stay those of the whole set, so that every point lies below them.
    The unit frame of v serves ``_hull`` too when no point is dropped.
    """
    frame = _unit_frame(v)
    keep = np.array(_distinct_indices(v, frame))
    if (hull := _hull(v[keep], frame if len(keep) == len(v) else None)) is None:
        return None
    n, whole, tol = v.shape[1], hull[:4], (TOL_FEAS * hull[3]) ** 2
    while True:
        extreme = np.add.reduce(hull[4], axis=0) >= n
        if n > 3:   # a point inside an edge may lie on n facets, all through the edge's ends
            count = hull[4][:, corners := np.flatnonzero(extreme)].astype(np.float64)
            share = count.T @ count   # share[i, j]: the facets through both corners
            np.fill_diagonal(within := share == share.diagonal()[:, None], False)
            extreme[corners[within.any(axis=1)]] = False
            return _read_only(_Hull(keep[extreme], None, None, *whole))
        on = hull[4] & extreme
        rows = np.add.reduce(on, axis=1) >= 3
        on, a = on[rows], hull[0][rows]
        count = on.astype(np.float64)   # exact, and a float product is BLAS's
        f, g = np.nonzero(count @ count.T == 2.0)
        f, g = f[f < g], g[f < g]
        ends = keep[np.nonzero(on[f] & on[g])[1].reshape(-1, 2)]
        d = v[ends[:, 0]] - v[ends[:, 1]]
        short = np.add.reduce(d * d, axis=1) <= tol
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
        return _read_only(_Hull(keep[np.logical_or.reduce(on, axis=0)], ends[order], angle[order],
                                *whole))


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
