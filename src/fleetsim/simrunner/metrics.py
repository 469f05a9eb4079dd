"""Geometry and error metrics used by scenario summaries.

Distances are taken in Python floats, never through BLAS (``@`` and
``np.linalg.norm`` call ``ddot``, whose rounding depends on the OpenBLAS
kernel), so summaries and exported tables hold bit for bit on every host.
A 2-d distance is ``math.sqrt(dx*dx + dy*dy)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "convex_hull",
    "point_hull_distance",
    "formation_error",
    "max_pairwise_distance",
]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> np.ndarray:
    """Convex hull of 2-D points, counter-clockwise, no repeated endpoint.

    Degenerate inputs collapse naturally: collinear points give the two
    extreme points, a single point gives itself.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected (k, 2) points, got %s" % (arr.shape,))
    pts = sorted(set(map(tuple, arr)))
    if len(pts) <= 2:
        return np.array(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def _distance(a, b) -> float:
    """Euclidean distance between two points of the same dimension, the
    squares summed in coordinate order."""
    total = 0.0
    for x, y in zip(a, b, strict=True):
        d = float(x) - float(y)
        total += d * d
    return math.sqrt(total)


def _segment_distance(p, a, b) -> float:
    (px, py), (ax, ay), (bx, by) = p, a, b
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return _distance(p, a)
    t = min(max(((px - ax) * abx + (py - ay) * aby) / denom, 0.0), 1.0)
    return _distance(p, (ax + t * abx, ay + t * aby))


def point_hull_distance(point, hull_points) -> float:
    """Euclidean distance from a point to a convex region (0 if inside).

    ``hull_points`` is a CCW vertex list as produced by
    :func:`convex_hull`; 1- and 2-point degenerate hulls are handled.
    """
    p = np.asarray(point, dtype=float).tolist()
    hull = np.asarray(hull_points, dtype=float).tolist()
    k = len(hull)
    if k == 0:
        raise ValueError("empty hull")
    if k == 1:
        return _distance(p, hull[0])
    if k == 2:
        return _segment_distance(p, hull[0], hull[1])
    inside = True
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        if _cross(a, b, p) < -1e-12:
            inside = False
            break
    if inside:
        return 0.0
    return min(_segment_distance(p, hull[i], hull[(i + 1) % k]) for i in range(k))


def formation_error(positions, spec) -> float:
    """Sum over declared pairs of (||x_i - x_j|| - d_ij)^2.

    ``positions`` maps agent id -> position (dict or array indexed by id);
    ``spec`` is a :class:`fleetsim.guidance.FormationSpec`.
    """
    total = 0.0
    for i, j in spec.edges():
        total += (_distance(positions[i], positions[j]) - spec.distance(i, j)) ** 2
    return total


def max_pairwise_distance(positions) -> float:
    pts = np.asarray(positions, dtype=float).tolist()
    worst = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            worst = max(worst, _distance(pts[i], pts[j]))
    return worst
