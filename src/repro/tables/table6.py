"""Table 6: accurate-join speedup from index training (over untrained ACT4).

The accurate join (exact results, PIP refinement on candidate hits) is
timed with the untrained index and with indexes trained on increasing
numbers of historical taxi points. The paper's 100 K / 500 K / 1 M training
sizes are scaled with the dataset (datasets.TRAIN_SIZES). Query points are
drawn from a different seed than training points (the paper joins 2010-2016
data with a 2009-trained index).
"""
from __future__ import annotations

from functools import partial

from repro.core.join import probe_batch
from repro.perf.counters import interleaved_best
from repro.tables import emit, format_rows
from repro.tables import datasets as ds

#: Paper Table 6: {(n_train_paper, dataset): speedup over untrained ACT4}.
PAPER = {
    (100_000, "boroughs"): 1.25,
    (100_000, "neighborhoods"): 1.56,
    (100_000, "census"): 1.16,
    (500_000, "boroughs"): 1.40,
    (500_000, "neighborhoods"): 2.00,
    (500_000, "census"): 1.40,
    (1_000_000, "boroughs"): 1.44,
    (1_000_000, "neighborhoods"): 2.18,
    (1_000_000, "census"): 1.53,
}
PAPER_TRAIN_SIZES = (100_000, 500_000, 1_000_000)


#: Interleaved timing rounds on test-scale points; see join_seconds().
ROUNDS = 30


def join_seconds(bundles, px, py) -> tuple[list[float], list[dict]]:
    """Fastest wall clock of the full accurate join (probe + refine) and
    its counters, per bundle, timed in rounds interleaved over the bundles
    (the table's speedups compare them)."""
    # Test-scale joins take a few ms and need many rounds to find an
    # undisturbed one; bench-scale joins take seconds each.
    best, results = interleaved_best(
        [partial(probe_batch, b, px, py, exact=True) for b in bundles],
        ROUNDS if len(px) < 100_000 else 2,
    )
    return best, [stats for _r, _p, _t, stats in results]


#: Query points for the timed accurate join. 500k (vs 2M elsewhere) keeps
#: the PIP-heavy boroughs runs tractable; throughput is per-point.
N_QUERY = {"test": 20_000, "bench": 500_000}


def run(spark=None, scale: str = "test") -> list[dict]:
    px, py, _pt = ds.point_cells("taxi", scale, n=N_QUERY[scale], seed=7)
    rows = []
    for name in ("boroughs", "neighborhoods", "census"):
        bundles = [
            ds.accurate_index(name, scale, n_train=n_train, spark=spark)
            for n_train in (0, *ds.TRAIN_SIZES[scale])
        ]
        (t_base, *t_trained), (st_base, *st_trained) = join_seconds(bundles, px, py)
        for n_train, n_paper, t_tr, st_tr in zip(
            ds.TRAIN_SIZES[scale], PAPER_TRAIN_SIZES, t_trained, st_trained
        ):
            rows.append(
                {
                    "dataset": name,
                    "n_train": n_train,
                    "paper_n_train": n_paper,
                    "speedup": round(t_base / t_tr, 2),
                    "untrained_Mpts": round(len(px) / t_base / 1e6, 2),
                    "trained_Mpts": round(len(px) / t_tr / 1e6, 2),
                    "pip_tests_untrained": st_base["pip_tests"],
                    "pip_tests_trained": st_tr["pip_tests"],
                    "paper_speedup": PAPER[(n_paper, name)],
                }
            )
    emit(
        format_rows(
            rows,
            f"Table 6 (scale={scale}): accurate-join speedup from training "
            "(over untrained ACT4, taxi points)",
        )
    )
    return rows


if __name__ == "__main__":
    run(scale="bench")
