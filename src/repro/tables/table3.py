"""Table 3: lookup speedups of coarser over finer polygon datasets.

For each structure, the single-threaded probe throughput is measured on
the 4 m indexes of the three polygon datasets (taxi points), and the table
reports the ratios boroughs/neighborhoods, boroughs/census and
neighborhoods/census. The paper's claim: ACT gains the most from coarse
datasets because their large cells are indexed near the root, while GBT/LB
only benefit from the smaller total cell count.
"""
from __future__ import annotations

from functools import partial

from repro.perf.counters import interleaved_best
from repro.tables import emit, format_rows
from repro.tables import datasets as ds

STRUCTURES = ("ACT1", "ACT2", "ACT4", "GBT", "LB")
DATASETS = ("boroughs", "neighborhoods", "census")
#: Interleaved timing rounds on test-scale points; see throughputs().
ROUNDS = 60
_BUNDLE_NAME = {"ACT1": "act1", "ACT2": "act2", "ACT4": "act4", "GBT": "btree", "LB": "lb"}

#: Paper Table 3: {structure: (b_over_n, b_over_c, n_over_c)}.
PAPER = {
    "ACT1": (2.63, 8.63, 3.28),
    "ACT2": (2.00, 5.33, 2.66),
    "ACT4": (2.36, 7.29, 3.08),
    "GBT": (2.05, 3.51, 1.71),
    "LB": (1.83, 2.63, 1.44),
}


def throughputs(
    spark=None, scale: str = "test", precision_m: float = 4.0, kind: str = "taxi"
) -> dict[tuple[str, str], float]:
    """{(structure, dataset): throughput Mpts/s} of the fastest probe,
    timed in rounds interleaved over all indexes (the table's ratios
    compare datasets)."""
    _px, _py, pt = ds.point_cells(kind, scale)
    indexes = {
        (structure, name): ds.index(
            name, scale, _BUNDLE_NAME[structure], "approx", precision_m, spark
        ).index
        for name in DATASETS
        for structure in STRUCTURES
    }
    # Test-scale probes take 1-15 ms, and on a shared host an index can run
    # slow for a second or more, so they need many rounds spread over
    # several seconds; bench-scale probes take 0.1-2 s each.
    best, _ = interleaved_best(
        [partial(index.probe, pt) for index in indexes.values()],
        ROUNDS if len(pt) < 100_000 else 3,
    )
    return {key: len(pt) / t / 1e6 for key, t in zip(indexes, best)}


def run(spark=None, scale: str = "test", precision_m: float = 4.0) -> list[dict]:
    tp = throughputs(spark, scale, precision_m)
    rows = []
    for structure in STRUCTURES:
        b = tp[(structure, "boroughs")]
        n = tp[(structure, "neighborhoods")]
        c = tp[(structure, "census")]
        rows.append(
            {
                "index": structure,
                "b_over_n": round(b / n, 2),
                "b_over_c": round(b / c, 2),
                "n_over_c": round(n / c, 2),
                "boroughs_Mpts": round(b, 2),
                "neighborhoods_Mpts": round(n, 2),
                "census_Mpts": round(c, 2),
            }
        )
    emit(
        format_rows(
            rows,
            f"Table 3 (scale={scale}): speedups of coarse over fine polygon "
            "datasets (taxi points, 4m)",
        )
    )
    return rows


if __name__ == "__main__":
    run(scale="bench")
