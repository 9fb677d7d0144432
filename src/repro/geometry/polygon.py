"""Planar polygon geometry, fully vectorized with numpy.

This is the substrate the paper gets from the S2/boost libraries: the exact
point-in-polygon (PIP) test via the ray-crossing algorithm (paper §2),
minimum bounding rectangles, exact segment-vs-axis-aligned-rectangle
intersection (used to classify quadtree cells as boundary cells), and
point-to-polygon distance (used to verify the approximate join's precision
bound).

Polygons are simple (non-self-intersecting) rings given as vertex arrays;
the closing edge from the last vertex back to the first is implicit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Polygon:
    """A simple polygon ring. ``xs``/``ys`` are float64 vertex arrays."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 3:
            raise ValueError("polygon needs >= 3 vertices with matching x/y")

    @property
    def n_vertices(self) -> int:
        return len(self.xs)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x1, y1, x2, y2) arrays, one entry per edge (ring closed)."""
        x2 = np.roll(self.xs, -1)
        y2 = np.roll(self.ys, -1)
        return self.xs, self.ys, x2, y2

    def mbr(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) minimum bounding rectangle."""
        return (
            float(self.xs.min()),
            float(self.ys.min()),
            float(self.xs.max()),
            float(self.ys.max()),
        )

    def area(self) -> float:
        """Signed shoelace area (positive for counter-clockwise rings)."""
        x1, y1, x2, y2 = self.edges()
        return float(0.5 * np.sum(x1 * y2 - x2 * y1))


@dataclass
class PolygonSet:
    """A dataset of polygons with flattened edge arrays for vectorized ops.

    Mirrors the paper's polygon datasets (boroughs / neighborhoods / census):
    a static, largely disjoint collection joined against point streams.
    """

    polygons: list[Polygon]
    name: str = "polygons"
    extent: float = 0.0
    # Flattened edge arrays (built in __post_init__).
    edge_x1: np.ndarray = field(init=False, repr=False)
    edge_y1: np.ndarray = field(init=False, repr=False)
    edge_x2: np.ndarray = field(init=False, repr=False)
    edge_y2: np.ndarray = field(init=False, repr=False)
    edge_poly: np.ndarray = field(init=False, repr=False)
    # Per-polygon edge slices into the flattened arrays.
    edge_offsets: np.ndarray = field(init=False, repr=False)
    mbrs: np.ndarray = field(init=False, repr=False)  # (n, 4): x0 y0 x1 y1

    def __post_init__(self) -> None:
        xs1, ys1, xs2, ys2, pid = [], [], [], [], []
        offs = [0]
        mbrs = np.empty((len(self.polygons), 4), np.float64)
        for i, p in enumerate(self.polygons):
            x1, y1, x2, y2 = p.edges()
            xs1.append(x1)
            ys1.append(y1)
            xs2.append(x2)
            ys2.append(y2)
            pid.append(np.full(len(x1), i, np.int32))
            offs.append(offs[-1] + len(x1))
            mbrs[i] = p.mbr()
        self.edge_x1 = np.concatenate(xs1)
        self.edge_y1 = np.concatenate(ys1)
        self.edge_x2 = np.concatenate(xs2)
        self.edge_y2 = np.concatenate(ys2)
        self.edge_poly = np.concatenate(pid)
        self.edge_offsets = np.asarray(offs, np.int64)
        self.mbrs = mbrs

    def __len__(self) -> int:
        return len(self.polygons)

    @property
    def n_edges(self) -> int:
        return len(self.edge_x1)

    def avg_vertices(self) -> float:
        return self.n_edges / max(1, len(self.polygons))

    def poly_edges(
        self, poly_id: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        a, b = self.edge_offsets[poly_id], self.edge_offsets[poly_id + 1]
        return (
            self.edge_x1[a:b],
            self.edge_y1[a:b],
            self.edge_x2[a:b],
            self.edge_y2[a:b],
        )

    def edges_pdf(self):
        """Edge table as a pandas frame (for Spark builds / SQL oracle)."""
        import pandas as pd

        return pd.DataFrame(
            {
                "poly_id": self.edge_poly.astype(np.int64),
                "x1": self.edge_x1,
                "y1": self.edge_y1,
                "x2": self.edge_x2,
                "y2": self.edge_y2,
            }
        )


def point_in_polygon(
    px: np.ndarray,
    py: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    chunk: int = 4_000_000,
) -> np.ndarray:
    """Exact crossing-number PIP test of points vs one edge set (paper §2).

    A horizontal ray is cast in +x direction; a point is inside iff it
    crosses an odd number of edges. O(points * edges), the expensive
    refinement the paper's index avoids. Chunked to bound peak memory.
    """
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    n, e = len(px), len(x1)
    out = np.zeros(n, dtype=bool)
    if n == 0 or e == 0:
        return out
    step = max(1, chunk // max(1, e))
    for s in range(0, n, step):
        pxs = px[s : s + step, None]
        pys = py[s : s + step, None]
        straddle = (y1[None, :] > pys) != (y2[None, :] > pys)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = x1[None, :] + (pys - y1[None, :]) * (x2 - x1)[None, :] / (
                y2 - y1
            )[None, :]
        crossing = straddle & (pxs < xin)
        out[s : s + step] = (crossing.sum(axis=1) & 1).astype(bool)
    return out


def point_in_polygon_set(
    px: np.ndarray, py: np.ndarray, pset: PolygonSet, chunk: int = 4_000_000
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force join oracle: all (point_idx, poly_id) containment pairs."""
    pi, pj = [], []
    for poly_id in range(len(pset)):
        x0, y0, x1m, y1m = pset.mbrs[poly_id]
        cand = np.flatnonzero((px >= x0) & (px <= x1m) & (py >= y0) & (py <= y1m))
        if cand.size == 0:
            continue
        ex1, ey1, ex2, ey2 = pset.poly_edges(poly_id)
        inside = point_in_polygon(px[cand], py[cand], ex1, ey1, ex2, ey2, chunk)
        hits = cand[inside]
        pi.append(hits)
        pj.append(np.full(len(hits), poly_id, np.int32))
    if not pi:
        return np.empty(0, np.int64), np.empty(0, np.int32)
    return np.concatenate(pi).astype(np.int64), np.concatenate(pj)


def segments_intersect_rects(
    sx1: np.ndarray,
    sy1: np.ndarray,
    sx2: np.ndarray,
    sy2: np.ndarray,
    rx0: np.ndarray,
    ry0: np.ndarray,
    rx1: np.ndarray,
    ry1: np.ndarray,
) -> np.ndarray:
    """Exact segment-vs-axis-aligned-rect intersection, (rects x segments).

    Separating axis theorem for a segment and a box: the only candidate
    separating axes are x, y (bounding-box overlap) and the segment normal
    (all four box corners strictly on one side). Exact for closed shapes:
    touching counts as intersecting.

    Rect arrays have shape (R,), segment arrays shape (S,); result (R, S).
    """
    rx0 = rx0[:, None]
    ry0 = ry0[:, None]
    rx1 = rx1[:, None]
    ry1 = ry1[:, None]
    # Axis tests: segment bbox vs rect.
    sbx0 = np.minimum(sx1, sx2)[None, :]
    sbx1 = np.maximum(sx1, sx2)[None, :]
    sby0 = np.minimum(sy1, sy2)[None, :]
    sby1 = np.maximum(sy1, sy2)[None, :]
    bbox_ok = (sbx0 <= rx1) & (sbx1 >= rx0) & (sby0 <= ry1) & (sby1 >= ry0)
    # Segment-normal test: signed side of each rect corner wrt segment line.
    dx = (sx2 - sx1)[None, :]
    dy = (sy2 - sy1)[None, :]
    px = sx1[None, :]
    py = sy1[None, :]
    s00 = dx * (ry0 - py) - dy * (rx0 - px)
    s01 = dx * (ry1 - py) - dy * (rx0 - px)
    s10 = dx * (ry0 - py) - dy * (rx1 - px)
    s11 = dx * (ry1 - py) - dy * (rx1 - px)
    all_pos = (s00 > 0) & (s01 > 0) & (s10 > 0) & (s11 > 0)
    all_neg = (s00 < 0) & (s01 < 0) & (s10 < 0) & (s11 < 0)
    return bbox_ok & ~(all_pos | all_neg)


def point_segment_distance(
    px: np.ndarray,
    py: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
) -> np.ndarray:
    """Min distance from each point to its paired segment (same-shape arrays)."""
    dx = x2 - x1
    dy = y2 - y1
    ll = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ll > 0, ((px - x1) * dx + (py - y1) * dy) / ll, 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx = x1 + t * dx
    cy = y1 + t * dy
    return np.hypot(px - cx, py - cy)


def point_to_polygon_distance(
    px: np.ndarray, py: np.ndarray, poly: Polygon, chunk: int = 2_000_000
) -> np.ndarray:
    """Distance from points to the polygon (0 if inside).

    Used only in tests: the approximate join's false positives must lie
    within the precision bound of the polygon (paper §3.2).
    """
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    x1, y1, x2, y2 = poly.edges()
    n, e = len(px), len(x1)
    out = np.empty(n, np.float64)
    step = max(1, chunk // max(1, e))
    for s in range(0, n, step):
        d = point_segment_distance(
            px[s : s + step, None],
            py[s : s + step, None],
            x1[None, :],
            y1[None, :],
            x2[None, :],
            y2[None, :],
        )
        out[s : s + step] = d.min(axis=1)
    inside = point_in_polygon(px, py, x1, y1, x2, y2)
    out[inside] = 0.0
    return out

