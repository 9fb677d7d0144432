"""Correctness gate for the benchmark's join results.

The reference is index-free: a brute-force crossing-number test
(``repro.geometry.polygon.point_in_polygon``) of every point against every
polygon whose bounding box holds it. It shares no code with the cell ids,
coverings or ACT that the join under test uses. It runs outside the timed
region and is computed once per (workload, seed).

* Accurate mode: the per-polygon counts must equal the reference.
* Approx mode (paper §3.2): every per-polygon count must be at least the
  reference count, and on a sample of points the returned pairs must be a
  superset of the reference pairs whose extra pairs lie within the
  precision bound of their polygon.

Each check returns a list of problems; an empty list means the result
passed.
"""
from __future__ import annotations

import numpy as np

from repro.geometry.polygon import (
    PolygonSet,
    point_in_polygon,
    point_to_polygon_distance,
)

#: Points per y-sorted chunk. A chunk is tested only against the edges
#: whose y-range meets the chunk's y-range; other edges cannot straddle the
#: horizontal ray of any of its points, so the result equals testing every
#: edge.
_CHUNK = 512


def reference_pairs(
    px: np.ndarray, py: np.ndarray, pset: PolygonSet
) -> tuple[np.ndarray, np.ndarray]:
    """All (point_row, poly_id) containment pairs, without any index."""
    order = np.argsort(py, kind="stable")
    xs, ys = px[order], py[order]
    rows, polys = [], []
    for poly_id in range(len(pset)):
        x0, y0, x1, y1 = pset.mbrs[poly_id]
        lo = int(np.searchsorted(ys, y0, side="left"))
        hi = int(np.searchsorted(ys, y1, side="right"))
        sel = lo + np.flatnonzero((xs[lo:hi] >= x0) & (xs[lo:hi] <= x1))
        if len(sel) == 0:
            continue
        ex1, ey1, ex2, ey2 = pset.poly_edges(poly_id)
        e_lo, e_hi = np.minimum(ey1, ey2), np.maximum(ey1, ey2)
        for s in range(0, len(sel), _CHUNK):
            c = sel[s : s + _CHUNK]
            e = np.flatnonzero((e_lo <= ys[c[-1]]) & (e_hi > ys[c[0]]))
            inside = point_in_polygon(
                xs[c], ys[c], ex1[e], ey1[e], ex2[e], ey2[e]
            )
            rows.append(order[c[inside]])
            polys.append(np.full(int(inside.sum()), poly_id, np.int64))
    if not rows:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(rows).astype(np.int64), np.concatenate(polys)


def counts_from_rows(rows, n_polygons: int) -> tuple[np.ndarray, list[str]]:
    """Dense per-polygon counts from collected ``(poly_id, n_points)`` rows."""
    counts = np.zeros(n_polygons, np.int64)
    problems = []
    for poly_id, n in rows:
        if not 0 <= poly_id < n_polygons:
            problems.append(f"unknown polygon id {poly_id}")
        elif counts[poly_id]:
            problems.append(f"polygon {poly_id} reported twice")
        else:
            counts[poly_id] = n
    return counts, problems


def check_counts(counts: np.ndarray, ref_counts: np.ndarray, exact: bool) -> list[str]:
    """Per-polygon counts against the reference counts."""
    bad = counts != ref_counts if exact else counts < ref_counts
    relation = "!=" if exact else "<"
    return [
        f"polygon {i}: count {counts[i]} {relation} reference {ref_counts[i]}"
        for i in np.flatnonzero(bad)[:5]
    ]


def check_pairs(
    pair_rows: np.ndarray,
    pair_polys: np.ndarray,
    ref_rows: np.ndarray,
    ref_polys: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    pset: PolygonSet,
    precision_m: float,
) -> list[str]:
    """Approx-mode pairs on a point sample against the reference pairs.

    ``pair_rows``/``ref_rows`` index into ``px``/``py``. The result must
    hold every reference pair, and every other pair must lie within
    ``precision_m`` of its polygon.
    """
    n_poly = np.int64(len(pset))
    got = np.unique(pair_rows.astype(np.int64) * n_poly + pair_polys)
    ref = np.unique(ref_rows.astype(np.int64) * n_poly + ref_polys)
    problems = []
    missing = np.setdiff1d(ref, got, assume_unique=True)
    if len(missing):
        problems.append(f"{len(missing)} reference pairs missing")
    if len(got) != len(pair_rows):
        problems.append(f"{len(pair_rows) - len(got)} duplicate pairs")
    extra = np.setdiff1d(got, ref, assume_unique=True)
    rows, polys = extra // n_poly, extra % n_poly
    for poly_id in np.unique(polys):
        r = rows[polys == poly_id]
        d = point_to_polygon_distance(px[r], py[r], pset.polygons[int(poly_id)])
        far = int((d > precision_m).sum())
        if far:
            problems.append(
                f"polygon {poly_id}: {far} false positives farther than "
                f"{precision_m} m (max {d.max():.1f} m)"
            )
    return problems
