"""Spark point-polygon join operators over a broadcast polygon index.

The paper's join (Listing 3) is an index-nested-loop join: probe ACT per
point, emit true hits directly, and either emit candidate hits as-is
(approximate mode, §3.2) or refine them with exact PIP tests (accurate
mode, §3.3). Polygons are small and static (the paper's setting), so the
index is built on the driver — optionally with the per-polygon covering
phase distributed over Spark, mirroring the paper's parallelized covering
computation — broadcast to the executors, and probed per partition in a
``mapInPandas`` kernel (a DataFrame -> DataFrame physical operator; see
DESIGN.md §5 for why a JVM operator is out of scope).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import (
    budgeted_covering,
    budgeted_interior_covering,
    precision_covering,
)
from repro.core.supercovering import SuperCovering, merge_coverings
from repro.baselines.btree import build_btree
from repro.baselines.sorted_vector import build_sorted_vector
from repro.geometry.polygon import PolygonSet, point_in_polygon

#: Default S2RegionCoverer-analog budget (paper §4 "Polygon Approximations":
#: max covering cells=128, max interior cells=256 at Earth scale). Scaled up
#: 2-4x here so the untrained solely-true-hit rate lands in the paper's
#: 72-99% band on our synthetic polygons (calibration in EXPERIMENTS.md).
ACCURATE_COVERER_CFG = {
    "max_covering_cells": 256,
    "max_covering_level": 16,
    "max_interior_cells": 1024,
    "max_interior_level": 13,
}


@dataclass
class PolygonIndexBundle:
    """Picklable, broadcastable polygon index + refinement geometry."""

    structure: str  # 'act1' | 'act2' | 'act4' | 'lb' | 'btree'
    index: object  # probe_refs(point_ids) -> (row, poly, is_true)
    pset: PolygonSet
    extent: float
    mode: str  # 'approx' | 'accurate'
    precision_m: float | None
    n_cells: int
    build_seconds: dict = field(default_factory=dict)


def compute_coverings(
    pset: PolygonSet,
    extent: float,
    mode: str,
    precision_m: float | None = None,
    coverer_cfg: dict | None = None,
    spark: SparkSession | None = None,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per-polygon (covering, interior covering) cells.

    ``mode='approx'`` computes precision-partition coverings whose boundary
    cells sit exactly at the level implied by ``precision_m``;
    ``mode='accurate'`` computes the coarse budgeted S2-style coverings.
    When ``spark`` is given, the per-polygon work is distributed (the paper
    parallelizes this phase over polygons too).
    """
    cfg = dict(ACCURATE_COVERER_CFG)
    if coverer_cfg:
        cfg.update(coverer_cfg)
    if mode == "approx":
        if precision_m is None:
            raise ValueError("approx mode needs a precision bound")
        boundary_level = cellid.min_level_for_precision(precision_m, extent)
    elif mode == "accurate":
        boundary_level = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def cover_one(pid: int) -> tuple[int, np.ndarray, np.ndarray]:
        poly = pset.polygons[pid]
        if mode == "approx":
            ids, flags = precision_covering(poly, extent, boundary_level)
            return pid, ids, flags
        c = budgeted_covering(
            poly, extent, cfg["max_covering_cells"], cfg["max_covering_level"]
        )
        i = budgeted_interior_covering(
            poly, extent, cfg["max_interior_cells"], cfg["max_interior_level"]
        )
        return (
            pid,
            np.concatenate([c, i]),
            np.concatenate([np.zeros(len(c), bool), np.ones(len(i), bool)]),
        )

    if spark is None:
        return [cover_one(pid) for pid in range(len(pset))]

    # Distributed covering build: one task batch per partition of poly ids.
    bc = spark.sparkContext.broadcast((pset, extent, mode, boundary_level, cfg))

    def kernel(batches):
        pset_b, extent_b, mode_b, blevel_b, cfg_b = bc.value
        for pdf in batches:
            out = []
            for pid in pdf["poly_id"].to_numpy():
                poly = pset_b.polygons[int(pid)]
                if mode_b == "approx":
                    ids, flags = precision_covering(poly, extent_b, blevel_b)
                else:
                    c = budgeted_covering(
                        poly,
                        extent_b,
                        cfg_b["max_covering_cells"],
                        cfg_b["max_covering_level"],
                    )
                    it = budgeted_interior_covering(
                        poly,
                        extent_b,
                        cfg_b["max_interior_cells"],
                        cfg_b["max_interior_level"],
                    )
                    ids = np.concatenate([c, it])
                    flags = np.concatenate(
                        [np.zeros(len(c), bool), np.ones(len(it), bool)]
                    )
                out.append(
                    pd.DataFrame(
                        {
                            "poly_id": np.full(len(ids), int(pid), np.int64),
                            "cell_id": ids,
                            "interior": flags,
                        }
                    )
                )
            yield pd.concat(out) if out else pd.DataFrame(
                {"poly_id": [], "cell_id": [], "interior": []}
            )

    ids_df = spark.createDataFrame(
        pd.DataFrame({"poly_id": np.arange(len(pset), dtype=np.int64)})
    ).repartition(min(len(pset), spark.sparkContext.defaultParallelism * 2))
    rows = ids_df.mapInPandas(
        kernel, schema="poly_id long, cell_id long, interior boolean"
    ).toPandas()
    out = []
    for pid, grp in rows.groupby("poly_id", sort=True):
        out.append(
            (
                int(pid),
                grp["cell_id"].to_numpy(np.int64),
                grp["interior"].to_numpy(bool),
            )
        )
    return out


_STRUCTURES = {
    "act1": lambda sc: build_act(sc, 1),
    "act2": lambda sc: build_act(sc, 2),
    "act4": lambda sc: build_act(sc, 4),
    "lb": build_sorted_vector,
    "btree": build_btree,
}


def build_index(
    pset: PolygonSet,
    extent: float,
    mode: str = "approx",
    precision_m: float | None = 4.0,
    structure: str = "act4",
    coverer_cfg: dict | None = None,
    spark: SparkSession | None = None,
    supercov: SuperCovering | None = None,
) -> PolygonIndexBundle:
    """Full index build pipeline: coverings -> super covering -> structure.

    Pass a pre-built (e.g. trained, §3.3.1) ``supercov`` to skip the
    covering phases.
    """
    times: dict[str, float] = {}
    if supercov is None:
        t0 = time.perf_counter()
        covs = compute_coverings(pset, extent, mode, precision_m, coverer_cfg, spark)
        times["coverings"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        supercov = merge_coverings(covs, extent)
        times["supercovering"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    index = _STRUCTURES[structure](supercov)
    times["structure"] = time.perf_counter() - t0
    return PolygonIndexBundle(
        structure=structure,
        index=index,
        pset=pset,
        extent=extent,
        mode=mode,
        precision_m=precision_m,
        n_cells=supercov.n_cells,
        build_seconds=times,
    )


def refine_candidates(
    px: np.ndarray,
    py: np.ndarray,
    rows: np.ndarray,
    polys: np.ndarray,
    is_true: np.ndarray,
    pset: PolygonSet,
) -> tuple[np.ndarray, int]:
    """Exact PIP refinement of candidate pairs (paper Listing 3, EXACT).

    Returns ``(keep_mask, n_pip_tests)``; true hits pass without a test.
    """
    keep = is_true.copy()
    cand = np.flatnonzero(~is_true)
    if len(cand) == 0:
        return keep, 0
    order = cand[np.argsort(polys[cand], kind="stable")]
    uniq, starts = np.unique(polys[order], return_index=True)
    starts = np.append(starts, len(order))
    for k, poly_id in enumerate(uniq):
        sel = order[starts[k] : starts[k + 1]]
        ex1, ey1, ex2, ey2 = pset.poly_edges(int(poly_id))
        keep[sel] = point_in_polygon(px[rows[sel]], py[rows[sel]], ex1, ey1, ex2, ey2)
    return keep, int(len(cand))


def probe_batch(
    bundle: PolygonIndexBundle,
    px: np.ndarray,
    py: np.ndarray,
    exact: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """One probe+refine batch: (point_row, poly_id, true_hit, stats).

    This is the per-partition kernel, also usable on the driver (the
    paper's single-threaded probe loop). Points that are not finite or lie
    outside ``[0, extent)`` join nothing: no polygon reaches them, and
    mapping them to a cell would clip them into a border cell.
    """
    n_points = len(px)
    # Every comparison with NaN is False, so NaN and +-inf fall outside too.
    inside = (px >= 0) & (px < bundle.extent) & (py >= 0) & (py < bundle.extent)
    kept = None if inside.all() else np.flatnonzero(inside)
    if kept is not None:
        px, py = px[kept], py[kept]
    pt = cellid.cell_from_point(px, py, bundle.extent)
    rows, polys, is_true = bundle.index.probe_refs(pt)
    stats = {
        "points": n_points,
        "true_pairs": int(is_true.sum()),
        "cand_pairs": int((~is_true).sum()),
        "pip_tests": 0,
    }
    # Solely-true-hit points skip refinement entirely (Table 7's STH):
    # points whose probe returned no candidate reference. Dropped points
    # are never refined, so they count too.
    has_cand = np.zeros(len(px), dtype=bool)
    has_cand[rows[~is_true]] = True
    stats["sth_points"] = n_points - int(has_cand.sum())
    if exact:
        keep, n_pip = refine_candidates(px, py, rows, polys, is_true, bundle.pset)
        stats["pip_tests"] = n_pip
        rows, polys, is_true = rows[keep], polys[keep], is_true[keep]
    if kept is not None:
        rows = kept[rows]
    return rows, polys, is_true, stats


def _one_task_per_slot(spark: SparkSession, points_df: DataFrame) -> DataFrame:
    """``points_df`` merged into at most one partition per task slot.

    Each Python task has a fixed cost of ~250 ms in a reused worker
    (pyspark 4.1's per-task set-up invalidates the import caches, so every
    cached zipimporter re-reads ``pyspark.zip``). One task per slot,
    streaming all of its Arrow batches through the kernel, pays it once per
    slot instead of once per input partition. ``coalesce`` is narrow (no
    shuffle) and a no-op on inputs that already have no more partitions
    than slots; it merges neighbouring partitions regardless of their size,
    so skewed inputs stay skewed (DESIGN.md §5).
    """
    return points_df.coalesce(spark.sparkContext.defaultParallelism)


def spatial_join(
    spark: SparkSession,
    points_df: DataFrame,
    bundle: PolygonIndexBundle,
    exact: bool | None = None,
) -> DataFrame:
    """DataFrame -> DataFrame point-polygon join (pid, poly_id, true_hit).

    The result has at most one partition per task slot
    (``defaultParallelism``). ``exact=None`` derives the refinement from the
    bundle mode (approx -> no PIP tests, accurate -> PIP tests on
    candidates).
    """
    if exact is None:
        exact = bundle.mode == "accurate"
    bc = spark.sparkContext.broadcast(bundle)

    def kernel(batches):
        b = bc.value
        for pdf in batches:
            px = pdf["x"].to_numpy(np.float64)
            py = pdf["y"].to_numpy(np.float64)
            rows, polys, _true, _stats = probe_batch(b, px, py, exact)
            yield pd.DataFrame(
                {
                    "pid": pdf["pid"].to_numpy(np.int64)[rows],
                    "poly_id": polys.astype(np.int64),
                    "true_hit": _true,
                }
            )

    return _one_task_per_slot(spark, points_df).mapInPandas(
        kernel, schema="pid long, poly_id long, true_hit boolean"
    )


def spatial_join_stats(
    spark: SparkSession,
    points_df: DataFrame,
    bundle: PolygonIndexBundle,
    exact: bool | None = None,
) -> pd.DataFrame:
    """Aggregated per-partition probe counters (points, STH, PIP tests...).

    The paper reports these (e.g. the solely-true-hits metric of Table 7);
    each partition (one per task slot, as in :func:`spatial_join`) emits one
    counter row, aggregated on the driver.
    """
    if exact is None:
        exact = bundle.mode == "accurate"
    bc = spark.sparkContext.broadcast(bundle)

    def kernel(batches):
        totals = {
            "points": 0,
            "true_pairs": 0,
            "cand_pairs": 0,
            "pip_tests": 0,
            "sth_points": 0,
            "result_pairs": 0,
        }
        for pdf in batches:
            px = pdf["x"].to_numpy(np.float64)
            py = pdf["y"].to_numpy(np.float64)
            rows, _p, _t, stats = probe_batch(bc.value, px, py, exact)
            for k in ("points", "true_pairs", "cand_pairs", "pip_tests", "sth_points"):
                totals[k] += stats[k]
            totals["result_pairs"] += len(rows)
        yield pd.DataFrame([totals])

    schema = (
        "points long, true_pairs long, cand_pairs long, pip_tests long, "
        "sth_points long, result_pairs long"
    )
    pdf = _one_task_per_slot(spark, points_df).mapInPandas(kernel, schema=schema).toPandas()
    return pdf.sum().to_frame().T


def count_per_polygon(join_df: DataFrame) -> DataFrame:
    """The paper's probe-phase measurement: points per polygon."""
    return join_df.groupBy("poly_id").count().withColumnRenamed("count", "n_points")
