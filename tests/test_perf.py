"""Tests for the proxy performance counters."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import precision_covering
from repro.core.supercovering import merge_coverings
from repro.baselines.btree import build_btree
from repro.baselines.sorted_vector import build_sorted_vector
from repro.perf.counters import ProbeCounters, interleaved_best, measure_probe


@pytest.fixture(scope="module")
def setup():
    ps = sd.polygon_dataset("neighborhoods", scale="test")
    covs = [
        (pid, *precision_covering(poly, sd.EXTENT, 9))
        for pid, poly in enumerate(ps.polygons)
    ]
    sc = merge_coverings(covs, sd.EXTENT)
    px, py = sd.taxi_points(20_000, seed=41)
    return sc, cellid.cell_from_point(px, py, sd.EXTENT)


class TestMeasureProbe:
    def test_act_counters(self, setup):
        sc, pt = setup
        act = build_act(sc, 4)
        c = measure_probe("ACT4", act, pt, repeats=1)
        assert isinstance(c, ProbeCounters)
        assert 1.0 <= c.node_accesses <= act.max_depth + 1
        assert c.bytes_touched == pytest.approx(c.node_accesses * 8)
        assert c.throughput_mpts > 0
        assert c.points == len(pt)

    def test_btree_counters(self, setup):
        sc, pt = setup
        bt = build_btree(sc)
        c = measure_probe("GBT", bt, pt, repeats=1)
        assert c.node_accesses == bt.n_levels
        assert c.bytes_touched == pytest.approx(bt.n_levels * 256)
        assert c.comparisons == pytest.approx(bt.n_levels * 32)

    def test_lb_counters(self, setup):
        sc, pt = setup
        lb = build_sorted_vector(sc)
        c = measure_probe("LB", lb, pt, repeats=1)
        assert c.comparisons == int(np.ceil(np.log2(sc.n_cells))) + 2
        assert c.bytes_touched == pytest.approx(c.comparisons * 8)

    def test_as_row_keys(self, setup):
        sc, pt = setup
        c = measure_probe("ACT1", build_act(sc, 1), pt, repeats=1)
        row = c.as_row()
        assert set(row) == {
            "index",
            "node_accesses",
            "comparisons",
            "bytes_touched",
            "ns_per_point",
            "throughput_mpts",
        }

    def test_ns_consistent_with_throughput(self, setup):
        sc, pt = setup
        c = measure_probe("ACT2", build_act(sc, 2), pt, repeats=2)
        assert c.ns_per_point == pytest.approx(1e3 / c.throughput_mpts, rel=1e-6)


class TestInterleavedBest:
    def test_rounds_interleave_calls(self):
        order = []
        best, results = interleaved_best(
            [lambda: order.append("a") or 1, lambda: order.append("b") or 2], rounds=3
        )
        assert order == ["a", "b"] * 3
        assert results == [1, 2]
        assert len(best) == 2 and all(t >= 0 for t in best)
