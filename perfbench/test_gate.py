"""The benchmark's correctness gate rejects perturbed join results.

Run with ``python3 -m pytest perfbench/test_gate.py -q`` from the
repository root. Pure numpy: no Spark session is needed.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]

from gate import check_counts, check_pairs, counts_from_rows, reference_pairs  # noqa: E402
from repro import synth_data as sd  # noqa: E402
from repro.core.join import build_index, probe_batch  # noqa: E402
from repro.geometry.polygon import (  # noqa: E402
    point_in_polygon_set,
    point_to_polygon_distance,
)

PRECISION_M = 4.0


@pytest.fixture(scope="module")
def pset():
    return sd.polygon_dataset("neighborhoods", scale="test")


@pytest.fixture(scope="module")
def points():
    return sd.taxi_points(5_000, seed=3)


@pytest.fixture(scope="module")
def approx_pairs(pset, points):
    """The approx join's pairs, computed by the driver-side kernel."""
    px, py = points
    bundle = build_index(pset, sd.EXTENT, mode="approx", precision_m=PRECISION_M)
    rows, polys, _true, _stats = probe_batch(bundle, px, py, exact=False)
    return rows, polys.astype(np.int64)


def test_reference_equals_brute_force(pset, points):
    px, py = points
    got = set(zip(*reference_pairs(px, py, pset)))
    want = set(zip(*point_in_polygon_set(px, py, pset)))
    assert got == want


def test_exact_counts_pass_and_a_dropped_pair_fails(pset, points):
    _rows, polys = reference_pairs(*points, pset)
    ref = np.bincount(polys, minlength=len(pset))
    assert check_counts(ref.copy(), ref, exact=True) == []
    dropped = ref.copy()
    dropped[np.argmax(ref)] -= 1
    assert check_counts(dropped, ref, exact=True)


def test_approx_counts_allow_extra_pairs_only(pset, points):
    _rows, polys = reference_pairs(*points, pset)
    ref = np.bincount(polys, minlength=len(pset))
    assert check_counts(ref + 1, ref, exact=False) == []
    dropped = ref.copy()
    dropped[np.argmax(ref)] -= 1
    assert check_counts(dropped, ref, exact=False)


def test_collected_rows_are_validated():
    counts, problems = counts_from_rows([(0, 3), (2, 1)], 3)
    assert counts.tolist() == [3, 0, 1] and problems == []
    assert counts_from_rows([(3, 1)], 3)[1]
    assert counts_from_rows([(1, 1), (1, 2)], 3)[1]


def test_approx_pairs_pass(pset, points, approx_pairs):
    px, py = points
    ref_rows, ref_polys = reference_pairs(px, py, pset)
    rows, polys = approx_pairs
    assert check_pairs(rows, polys, ref_rows, ref_polys, px, py, pset, PRECISION_M) == []


def test_approx_pair_500m_away_fails(pset, points, approx_pairs):
    px, py = points
    ref_rows, ref_polys = reference_pairs(px, py, pset)
    rows, polys = approx_pairs
    p0 = ref_rows[0]
    dist = [
        point_to_polygon_distance(px[p0 : p0 + 1], py[p0 : p0 + 1], poly)[0]
        for poly in pset.polygons
    ]
    far = int(np.flatnonzero(np.asarray(dist) >= 500.0)[0])
    bad_rows, bad_polys = np.append(rows, p0), np.append(polys, far)
    problems = check_pairs(bad_rows, bad_polys, ref_rows, ref_polys, px, py, pset, PRECISION_M)
    assert any("farther than" in p for p in problems)


def test_approx_dropped_pair_fails(pset, points, approx_pairs):
    px, py = points
    ref_rows, ref_polys = reference_pairs(px, py, pset)
    rows, polys = approx_pairs
    keep = ~((rows == ref_rows[0]) & (polys == ref_polys[0]))
    assert keep.sum() == len(rows) - 1
    problems = check_pairs(
        rows[keep], polys[keep], ref_rows, ref_polys, px, py, pset, PRECISION_M
    )
    assert any("missing" in p for p in problems)
