"""End-to-end Spark join tests, validated against the DuckDB SQL oracle.

The exact join must match, row for row, a crossing-number PIP join written
in plain SQL and executed by DuckDB (an independent engine sharing no code
with the index or the numpy geometry). The approximate join must be a
superset whose false positives stay within the precision bound.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core import cellid
from repro.core.join import (
    build_index,
    compute_coverings,
    count_per_polygon,
    probe_batch,
    spatial_join,
    spatial_join_stats,
)
from repro.geometry.polygon import point_to_polygon_distance
from repro.geometry.sql_oracle import PIP_COUNT_SQL, PIP_JOIN_SQL
from repro.oracle import assert_equivalent

N_POINTS = 4_000


@pytest.fixture(scope="module")
def neigh():
    return sd.polygon_dataset("neighborhoods", scale="test")


@pytest.fixture(scope="module")
def points_pdf():
    px, py = sd.taxi_points(N_POINTS, seed=31)
    return pd.DataFrame({"pid": np.arange(N_POINTS, dtype=np.int64), "x": px, "y": py})


@pytest.fixture(scope="module")
def points_sdf(spark, points_pdf):
    return spark.createDataFrame(points_pdf).repartition(8)


@pytest.fixture(scope="module")
def exact_bundle(neigh):
    return build_index(neigh, sd.EXTENT, mode="accurate", precision_m=None)


@pytest.fixture(scope="module")
def approx_bundle(neigh):
    return build_index(neigh, sd.EXTENT, mode="approx", precision_m=15.0)


class TestExactJoin:
    def test_matches_sql_oracle(self, spark, neigh, points_pdf, points_sdf, exact_bundle):
        joined = spatial_join(spark, points_sdf, exact_bundle).select("pid", "poly_id")
        assert_equivalent(
            joined, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )

    def test_counts_match_sql_oracle(
        self, spark, neigh, points_pdf, points_sdf, exact_bundle
    ):
        """The paper's probe-phase aggregate: points per polygon."""
        joined = spatial_join(spark, points_sdf, exact_bundle)
        counts = count_per_polygon(joined)
        assert_equivalent(
            counts, PIP_COUNT_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )

    def test_all_structures_agree(self, spark, neigh, points_sdf):
        results = []
        for structure in ("act1", "act2", "act4", "lb", "btree"):
            b = build_index(
                neigh, sd.EXTENT, mode="accurate", precision_m=None, structure=structure
            )
            rows = (
                spatial_join(spark, points_sdf, b)
                .select("pid", "poly_id")
                .toPandas()
                .sort_values(["pid", "poly_id"])
                .reset_index(drop=True)
            )
            results.append(rows)
        for other in results[1:]:
            pd.testing.assert_frame_equal(results[0], other)

    def test_exact_join_on_uniform_points(self, spark, neigh, exact_bundle):
        px, py = sd.uniform_points(N_POINTS, seed=32)
        pdf = pd.DataFrame({"pid": np.arange(N_POINTS, dtype=np.int64), "x": px, "y": py})
        joined = spatial_join(spark, spark.createDataFrame(pdf), exact_bundle)
        assert_equivalent(
            joined.select("pid", "poly_id"),
            PIP_JOIN_SQL,
            points=pdf,
            edges=neigh.edges_pdf(),
        )

    def test_census_dataset(self, spark, points_pdf, points_sdf):
        census = sd.polygon_dataset("census", scale="test")
        b = build_index(census, sd.EXTENT, mode="accurate", precision_m=None)
        joined = spatial_join(spark, points_sdf, b).select("pid", "poly_id")
        assert_equivalent(
            joined, PIP_JOIN_SQL, points=points_pdf, edges=census.edges_pdf()
        )

    def test_true_hits_marked(self, spark, points_sdf, exact_bundle):
        joined = spatial_join(spark, points_sdf, exact_bundle)
        n_true = joined.filter(F.col("true_hit")).count()
        n_all = joined.count()
        assert 0 < n_true <= n_all


class TestApproxJoin:
    def test_superset_of_truth(self, spark, neigh, points_pdf, points_sdf, approx_bundle):
        import duckdb

        joined = spatial_join(spark, points_sdf, approx_bundle)
        got = set(
            map(tuple, joined.select("pid", "poly_id").toPandas().to_numpy().tolist())
        )
        con = duckdb.connect()
        con.register("points", points_pdf)
        con.register("edges", neigh.edges_pdf())
        tdf = con.execute(PIP_JOIN_SQL).fetchdf()
        con.close()
        truth = set(zip(tdf["pid"].tolist(), tdf["poly_id"].tolist()))
        assert truth <= got

    def test_false_positives_within_precision(
        self, spark, neigh, points_pdf, points_sdf
    ):
        """Paper §3.2: any false positive is within the precision bound of
        the matched polygon."""
        import duckdb

        for precision in (60.0, 15.0):
            b = build_index(neigh, sd.EXTENT, mode="approx", precision_m=precision)
            joined = spatial_join(spark, points_sdf, b)
            got = set(
                map(tuple, joined.select("pid", "poly_id").toPandas().to_numpy().tolist())
            )
            con = duckdb.connect()
            con.register("points", points_pdf)
            con.register("edges", neigh.edges_pdf())
            tdf = con.execute(PIP_JOIN_SQL).fetchdf()
            con.close()
            truth = set(zip(tdf["pid"].tolist(), tdf["poly_id"].tolist()))
            px = points_pdf["x"].to_numpy()
            py = points_pdf["y"].to_numpy()
            for pid, poly in got - truth:
                d = point_to_polygon_distance(
                    px[pid : pid + 1], py[pid : pid + 1], neigh.polygons[poly]
                )[0]
                assert d <= precision

    def test_no_pip_tests_in_approx_mode(self, spark, points_sdf, approx_bundle):
        stats = spatial_join_stats(spark, points_sdf, approx_bundle)
        assert int(stats["pip_tests"].iloc[0]) == 0

    def test_finer_precision_fewer_false_positives(self, spark, neigh, points_sdf):
        n = {}
        for precision in (60.0, 15.0):
            b = build_index(neigh, sd.EXTENT, mode="approx", precision_m=precision)
            n[precision] = spatial_join(spark, points_sdf, b).count()
        assert n[15.0] <= n[60.0]


class TestPartitioning:
    def test_one_task_per_slot(self, spark, neigh, points_pdf, exact_bundle):
        """Inputs with more partitions than task slots are joined in one
        Python task per slot, with the same pairs as the 8-partition input."""
        slots = spark.sparkContext.defaultParallelism
        sdf = spark.createDataFrame(points_pdf).repartition(4 * slots)
        joined = spatial_join(spark, sdf, exact_bundle).select("pid", "poly_id")
        assert joined.rdd.getNumPartitions() <= slots
        assert_equivalent(
            joined, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )


class TestBadInput:
    """Non-finite and out-of-region points join nothing in either mode."""

    BAD_XY = [(-500.0, 100.0), (8692.0, 100.0), (np.nan, 100.0), (np.inf, 100.0)]

    @pytest.fixture(scope="class")
    def mixed_pdf(self, points_pdf):
        """200 valid points with the bad ones spliced in among them."""
        pdf = points_pdf.iloc[:200].copy()
        for k, (x, y) in enumerate(self.BAD_XY):
            pdf.loc[50 * k + 7, ["x", "y"]] = (x, y)
        return pdf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_bad_points_join_nothing(self, request, spark, mixed_pdf, bundle_name):
        bundle = request.getfixturevalue(bundle_name)
        exact = bundle.mode == "accurate"
        bad_x, bad_y = (np.array(v) for v in zip(*self.BAD_XY))
        rows, _p, _t, stats = probe_batch(bundle, bad_x, bad_y, exact)
        assert len(rows) == 0
        assert stats["points"] == stats["sth_points"] == len(self.BAD_XY)
        assert stats["true_pairs"] == stats["cand_pairs"] == 0

        # Mixed in, they leave the valid points' pairs as they were.
        x, y = mixed_pdf["x"].to_numpy(), mixed_pdf["y"].to_numpy()
        ok = np.isfinite(x) & (x >= 0) & (x < sd.EXTENT)
        pid = mixed_pdf["pid"].to_numpy()
        rows, polys, _t, _s = probe_batch(bundle, x, y, exact)
        vrows, vpolys, _t, _s = probe_batch(bundle, x[ok], y[ok], exact)
        want = sorted(zip(pid[ok][vrows].tolist(), vpolys.tolist()))
        assert sorted(zip(pid[rows].tolist(), polys.tolist())) == want

        joined = spatial_join(spark, spark.createDataFrame(mixed_pdf), bundle)
        got = joined.select("pid", "poly_id").toPandas()
        assert sorted(zip(got["pid"].tolist(), got["poly_id"].tolist())) == want


class TestJoinStats:
    def test_stats_consistency(self, spark, points_sdf, exact_bundle):
        stats = spatial_join_stats(spark, points_sdf, exact_bundle)
        row = stats.iloc[0]
        assert row["points"] == N_POINTS
        assert row["pip_tests"] == row["cand_pairs"]
        assert row["sth_points"] <= row["points"]
        assert row["result_pairs"] <= row["true_pairs"] + row["cand_pairs"]

    def test_stats_match_driver_kernel(self, spark, points_pdf, points_sdf, exact_bundle):
        """The Spark per-partition kernel aggregates to the same counters as
        one driver-side batch."""
        stats = spatial_join_stats(spark, points_sdf, exact_bundle)
        _r, _p, _t, driver = probe_batch(
            exact_bundle,
            points_pdf["x"].to_numpy(),
            points_pdf["y"].to_numpy(),
            exact=True,
        )
        for k in ("points", "true_pairs", "cand_pairs", "pip_tests", "sth_points"):
            assert int(stats[k].iloc[0]) == driver[k], k


class TestDistributedBuild:
    def test_spark_coverings_equal_driver(self, spark, neigh):
        a = compute_coverings(neigh, sd.EXTENT, "approx", 15.0, spark=None)
        b = compute_coverings(neigh, sd.EXTENT, "approx", 15.0, spark=spark)
        assert len(a) == len(b)
        for (pa, ca, fa), (pb, cb, fb) in zip(a, b):
            assert pa == pb
            oa, ob = np.argsort(ca), np.argsort(cb)
            np.testing.assert_array_equal(ca[oa], cb[ob])
            np.testing.assert_array_equal(fa[oa], fb[ob])

    def test_spark_built_index_joins_correctly(self, spark, neigh, points_pdf, points_sdf):
        b = build_index(
            neigh, sd.EXTENT, mode="accurate", precision_m=None, spark=spark
        )
        joined = spatial_join(spark, points_sdf, b).select("pid", "poly_id")
        assert_equivalent(
            joined, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )


class TestBundle:
    def test_bundle_records_build_times(self, exact_bundle):
        assert set(exact_bundle.build_seconds) >= {"coverings", "supercovering", "structure"}

    def test_unknown_structure(self, neigh):
        with pytest.raises(KeyError):
            build_index(neigh, sd.EXTENT, structure="splaytree")

    def test_approx_requires_precision(self, neigh):
        with pytest.raises(ValueError):
            build_index(neigh, sd.EXTENT, mode="approx", precision_m=None)

    def test_unknown_mode(self, neigh):
        with pytest.raises(ValueError):
            build_index(neigh, sd.EXTENT, mode="fuzzy")
