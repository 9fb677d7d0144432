"""Point-polygon join benchmark: the Spark operator end to end, per workload.

Run from the repository root::

    python3 perfbench/run.py                               # every workload
    python3 perfbench/run.py --workload approx-nbhd-taxi --seed 3 --seconds 12
    python3 perfbench/run.py --workload approx-nbhd-taxi --trace 1

Each timed operation is the paper's probe-phase query,
``count_per_polygon(spatial_join(spark, points, bundle)).collect()``, on a
persisted 32-partition points DataFrame under ``local[2]``. Every result is
checked against an index-free reference (``gate.py``) outside the timed
region. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records
spans around the calls into each layer and prints the per-layer metrics
(see README.md for which end-to-end metric each should move).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with the recorded environment is
written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the program under test; absent -> ImportError

import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import pyspark  # noqa: E402
from pyspark import SparkContext  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
from repro import synth_data as sd  # noqa: E402
from repro.core import cellid  # noqa: E402
from repro.core.join import (  # noqa: E402
    build_index,
    compute_coverings,
    count_per_polygon,
    probe_batch,
    refine_candidates,
    spatial_join,
)
from repro.core.supercovering import merge_coverings  # noqa: E402
from repro.core.training import train_index  # noqa: E402
from repro.core.values import decode_entries  # noqa: E402

#: Task slots. A busy slot keeps a JVM task thread and a Python worker
#: running, so two slots fill a 4-vCPU host; with four slots, eight busy
#: threads shared four vCPUs and the query medians of separate runs spread
#: wider.
SLOTS = 2
MASTER = f"local[{SLOTS}]"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 4
#: Input partitions, as in benchmarks/bench_spark_join.py: real inputs
#: arrive with more partitions than cores.
INPUT_PARTITIONS = 32
STRUCTURE = "act4"
#: Approx mode: points whose returned pairs are checked one by one.
PAIR_SAMPLE = 20_000
#: Traced run: query points (a prefix) fed to the single-thread kernel, and
#: repetitions of each per-layer call (the reported value is the median).
KERNEL_POINTS = 20_000
TRACE_REPS = 3
#: Set-up runs at least this many times, and until its total reaches this
#: share of the query time; ``setup_s`` is the median. The repetitions are
#: spread over the query loop, so that both medians sample the same stretch
#: of a host whose speed drifts from one minute to the next.
SETUP_MIN_REPS = 2
SETUP_SHARE = 0.25


@dataclass(frozen=True)
class Workload:
    polygons: str
    mode: str
    precision_m: float | None
    points: str
    n_points: int
    n_train: int = 0


WORKLOADS = {
    # Operator-bound, no refinement: the kernel is a small share of the
    # query, so the Spark round trip and the per-call broadcast dominate.
    "approx-nbhd-taxi": Workload("neighborhoods", "approx", 4.0, "taxi", 1_000_000),
    # Refinement-bound: nearly all kernel time is PIP tests against ~13 K
    # edges per polygon, while set-up and the bundle are small.
    "accurate-boroughs-taxi": Workload("boroughs", "accurate", None, "taxi", 200_000),
    # Build-bound: coverings, super covering and training dominate set-up;
    # uniform points reach the deep trie and multi-reference cells.
    "accurate-census-trained-uniform": Workload(
        "census", "accurate", None, "uniform", 1_000_000, n_train=100_000
    ),
}

END_TO_END = {
    "join_mpts_per_s": "Mpts/s",
    "query_s_p50": "s",
    "setup_s": "s",
    "bundle_mib": "MiB",
}

PER_LAYER = {
    "spatial_join.query_s": "s",
    "spatial_join.warmup_s": "s",
    "spatial_join.tasks": "count",
    "spatial_join.result_rows": "count",
    "spark.identity_roundtrip_s": "s",
    "spark.scan_s": "s",
    "spark.broadcast_s": "s",
    "cellid.ns_per_point": "ns",
    "act.probe_ns_per_point": "ns",
    "act.node_accesses_per_point": "count",
    "values.decode_ns_per_point": "ns",
    "values.refs_per_point": "count",
    "kernel.ns_per_point": "ns",
    "kernel.query_share": "ratio",
    "refine.ns_per_point": "ns",
    "refine.pip_tests": "count",
    "refine.confirm_frac": "ratio",
    "probe.sth_frac": "ratio",
    "covering.s": "s",
    "supercovering.s": "s",
    "training.s": "s",
    "structure.s": "s",
    "supercovering.cells": "count",
    "act.nodes": "count",
    "act.entries_mib": "MiB",
    "act.lookup_table_kib": "KiB",
    "trace.overhead_s": "s",
}


def _git_commit() -> str:
    """HEAD of the checkout; git is not asked outside one, so that it cannot
    report the commit of an enclosing repository."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown (not a git checkout)"


def _configure_env(work: Path) -> None:
    """Environment the Spark JVM and its Python workers start with.

    Workers import ``repro`` from ``src/``; all scratch files stay in
    ``work``. Must run before pyspark launches the JVM.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark")
    # Every JVM (launcher and driver): temp files in ``work``, and no
    # hsperfdata file, which HotSpot would write to /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {shlex.quote(MASTER)}",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )


def _start_spark():
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.adaptive.enabled", "true")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _environment(spark) -> dict:
    conf = spark.conf
    return {
        "spark_master": spark.sparkContext.master,
        "nproc": len(os.sched_getaffinity(0)),
        "input_partitions": INPUT_PARTITIONS,
        "spark.sql.shuffle.partitions": conf.get("spark.sql.shuffle.partitions"),
        "spark.sql.adaptive.enabled": conf.get("spark.sql.adaptive.enabled"),
        "spark.sql.execution.arrow.pyspark.enabled": conf.get(
            "spark.sql.execution.arrow.pyspark.enabled"
        ),
        "spark.driver.memory": spark.sparkContext.getConf().get("spark.driver.memory"),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pyarrow": pa.__version__,
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }


class Run:
    """One workload at one seed: inputs, reference, set-up and queries."""

    def __init__(self, spark, name: str, seed: int, seconds: float, tracer, work: Path):
        self.spark, self.name, self.seconds, self.tracer = spark, name, seconds, tracer
        self.w = w = WORKLOADS[name]
        self.exact = w.mode == "accurate"
        self.pset = sd.polygon_dataset(w.polygons, scale="bench")
        # Query, training and pair-sample seeds are distinct streams of the
        # workload seed.
        query_seed, train_seed, sample_seed = (
            int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(3)
        )
        self.px, self.py = sd.points_np(w.points, w.n_points, seed=query_seed)
        self.train_xy = (
            sd.taxi_points(w.n_train, seed=train_seed) if w.n_train else None
        )
        self.sample = np.sort(
            np.random.default_rng(sample_seed).choice(
                w.n_points, PAIR_SAMPLE, replace=False
            )
        )
        path = work / f"{name}-points.parquet"
        pq.write_table(
            pa.table(
                {"pid": np.arange(w.n_points, dtype=np.int64), "x": self.px, "y": self.py}
            ),
            path,
        )
        self.df = spark.read.parquet(str(path)).repartition(INPUT_PARTITIONS).persist()
        self.df.count()

        _rows, ref_polys = gate.reference_pairs(self.px, self.py, self.pset)
        self.ref_counts = np.bincount(ref_polys, minlength=len(self.pset))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- set-up -----------------------------------------------------------

    def set_up(self):
        """The program's set-up calls, one span per phase.

        The same calls ``build_index`` makes without ``supercov``, with
        ``train_index`` between the super covering and the structure on
        trained workloads.
        """
        w, t = self.w, self.tracer
        with t.span("covering"):
            covs = compute_coverings(self.pset, sd.EXTENT, w.mode, w.precision_m)
        with t.span("supercovering") as c:
            sc = merge_coverings(covs, sd.EXTENT)
            c["cells"] = sc.n_cells
        if w.n_train:
            with t.span("training"):
                sc, _stats = train_index(sc, self.pset, *self.train_xy)
        with t.span("structure"):
            return build_index(
                self.pset, sd.EXTENT, mode=w.mode, precision_m=w.precision_m,
                structure=STRUCTURE, supercov=sc,
            )

    # -- queries ----------------------------------------------------------

    def query(self, bundle, tracer) -> float | None:
        """One checked query; returns its wall time, or None if it failed."""
        sc = self.spark.sparkContext
        self.attempted += 1
        group = f"q{self.attempted}"
        try:
            if tracer.enabled:
                sc.setJobGroup(group, "spatial_join query")
            t0 = time.perf_counter()
            with tracer.span("spatial_join.query") as counts:
                with tracer.span("spatial_join.call"):
                    joined = spatial_join(self.spark, self.df, bundle)
                with tracer.span("spatial_join.collect"):
                    rows = count_per_polygon(joined).collect()
            dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        got, problems = gate.counts_from_rows(
            [(r["poly_id"], r["n_points"]) for r in rows], len(self.pset)
        )
        problems += gate.check_counts(got, self.ref_counts, self.exact)
        if tracer.enabled:
            counts["result_rows"] = int(got.sum())
            counts["tasks"] = _tasks_in_group(sc, group)
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return dt

    def check_sample_pairs(self, bundle) -> None:
        """Approx mode: the returned pairs of a point sample, one by one."""
        sx, sy = self.px[self.sample], self.py[self.sample]
        self.attempted += 1
        sdf = self.spark.createDataFrame(
            pd.DataFrame({"pid": range(len(sx)), "x": sx, "y": sy})
        )
        try:
            pairs = spatial_join(self.spark, sdf, bundle).select("pid", "poly_id").toPandas()
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return
        ref_rows, ref_polys = gate.reference_pairs(sx, sy, self.pset)
        problems = gate.check_pairs(
            pairs["pid"].to_numpy(), pairs["poly_id"].to_numpy(),
            ref_rows, ref_polys, sx, sy, self.pset, self.w.precision_m,
        )
        if problems:
            self.failed += 1
            self.problems += problems

    # -- the run ----------------------------------------------------------

    def timed_set_up(self, setup: list):
        """One set-up; appends its wall time to ``setup``."""
        t0 = time.perf_counter()
        with self.tracer.span("setup"):
            bundle = self.set_up()
        setup.append(time.perf_counter() - t0)
        return bundle

    def run(self) -> dict:
        t = self.tracer
        setup = []
        bundle = self.timed_set_up(setup)
        bundle_bytes = len(pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL))

        # Worker start-up and the first broadcast: outside the steady state.
        with t.span("spatial_join.warmup"):
            self.query(bundle, t)
        if t.enabled:
            self.trace_layers(bundle)

        # Traced runs alternate traced and untraced queries, so the
        # difference of their medians is the tracing overhead.
        untraced = spans.Tracer(t.run_id, enabled=False)
        times, traced_times = [], []
        min_queries = 2 if t.enabled else 1
        # Query time spent so far; the clock stops while set-up repeats.
        # Repeated set-ups only time set-up: queries keep the first bundle.
        elapsed = 0.0
        i = 0
        while i < min_queries or elapsed < self.seconds:
            traced = t.enabled and i % 2 == 0
            t0 = time.perf_counter()
            dt = self.query(bundle, t if traced else untraced)
            elapsed += time.perf_counter() - t0
            i += 1
            if dt is not None:
                (traced_times if traced else times).append(dt)
            while (
                len(setup) < SETUP_MIN_REPS * min(elapsed / self.seconds, 1.0)
                or sum(setup) < SETUP_SHARE * elapsed
            ):
                self.timed_set_up(setup)
        if not self.exact:
            self.check_sample_pairs(bundle)

        if t.enabled:
            metrics = self.layer_metrics(bundle, times, traced_times)
        else:
            metrics = {}
            # No passing query, no query metrics: a failed run must never
            # read as a fast one.
            if times:
                # Both from the median query, which a few queries slowed by
                # the host do not move.
                metrics["query_s_p50"] = statistics.median(times)
                metrics["join_mpts_per_s"] = self.w.n_points / metrics["query_s_p50"] / 1e6
            metrics["setup_s"] = statistics.median(setup)
            metrics["bundle_mib"] = bundle_bytes / 2**20
        return {
            "queries_s": times,
            "traced_queries_s": traced_times,
            "setup_s": setup,
            "metrics": metrics,
        }

    # -- traced run only --------------------------------------------------

    def trace_layers(self, bundle) -> None:
        """Spans around each layer's public calls, outside the query."""
        t, df = self.tracer, self.df
        sc = self.spark.sparkContext
        for _ in range(TRACE_REPS):
            with t.span("spark.scan"):
                df.count()
            with t.span("spark.broadcast"):
                bc = sc.broadcast(bundle)
            bc.destroy()

        def identity(batches):  # nested, so workers get it by value
            yield from batches

        for _ in range(TRACE_REPS - 1):  # each costs about one query
            with t.span("spark.identity_roundtrip"):
                df.mapInPandas(identity, schema=df.schema).count()

        n = min(KERNEL_POINTS, self.w.n_points)
        px, py = self.px[:n], self.py[:n]
        act = bundle.index
        for _ in range(TRACE_REPS):
            with t.span("cellid.cell_from_point"):
                pt = cellid.cell_from_point(px, py, bundle.extent)
            with t.span("act.probe") as c:
                entries, depths = act.probe(pt)
            c["node_accesses"] = int((depths + 1).sum())
            with t.span("values.decode_entries") as c:
                rows, polys, is_true = decode_entries(entries, act.lookup_table)
            c["refs"] = len(rows)
            if self.exact:
                with t.span("refine.refine_candidates") as c:
                    keep, n_pip = refine_candidates(px, py, rows, polys, is_true, bundle.pset)
                c["pip_tests"] = n_pip
                c["confirmed"] = int(keep.sum() - is_true.sum())
            with t.span("kernel.probe_batch") as c:
                _r, _p, _t, stats = probe_batch(bundle, px, py, self.exact)
            c.update(stats)

    def layer_metrics(self, bundle, untraced: list, traced: list) -> dict:
        t = self.tracer
        n = min(KERNEL_POINTS, self.w.n_points)

        def ns(name):
            return t.median(name) / n * 1e9

        def last(name, key):
            vals = [s["counts"][key] for s in t.spans if s["name"] == name and key in s["counts"]]
            return vals[-1] if vals else 0

        pip = last("refine.refine_candidates", "pip_tests")
        act = bundle.index
        metrics = {
            "spatial_join.warmup_s": t.median("spatial_join.warmup"),
            "spatial_join.tasks": last("spatial_join.query", "tasks"),
            "spatial_join.result_rows": last("spatial_join.query", "result_rows"),
            "spark.identity_roundtrip_s": t.median("spark.identity_roundtrip"),
            "spark.scan_s": t.median("spark.scan"),
            "spark.broadcast_s": t.median("spark.broadcast"),
            "cellid.ns_per_point": ns("cellid.cell_from_point"),
            "act.probe_ns_per_point": ns("act.probe"),
            "act.node_accesses_per_point": last("act.probe", "node_accesses") / n,
            "values.decode_ns_per_point": ns("values.decode_entries"),
            "values.refs_per_point": last("values.decode_entries", "refs") / n,
            "kernel.ns_per_point": ns("kernel.probe_batch"),
            "refine.ns_per_point": ns("refine.refine_candidates"),
            "refine.pip_tests": pip,
            "refine.confirm_frac": last("refine.refine_candidates", "confirmed") / pip if pip else 0.0,
            "probe.sth_frac": last("kernel.probe_batch", "sth_points") / n,
            "covering.s": t.median("covering"),
            "supercovering.s": t.median("supercovering"),
            "training.s": t.median("training"),
            "structure.s": t.median("structure"),
            "supercovering.cells": last("supercovering", "cells"),
            "act.nodes": act.n_nodes,
            "act.entries_mib": act.entries.nbytes / 2**20,
            "act.lookup_table_kib": act.lookup_table.nbytes / 1024,
        }
        # Query metrics only from passing queries of both kinds.
        if traced and untraced:
            query_s = statistics.median(traced)
            metrics["spatial_join.query_s"] = query_s
            # Upper bound on the query share a faster kernel can save: the
            # kernel's time over the task slots for all query points.
            metrics["kernel.query_share"] = (
                ns("kernel.probe_batch") * 1e-9 * self.w.n_points / SLOTS / query_s
            )
            metrics["trace.overhead_s"] = query_s - statistics.median(untraced)
        return metrics


def _tasks_in_group(sc, group: str) -> int:
    """Tasks the jobs of one job group ran (skipped stages count none)."""
    st = sc.statusTracker()
    tasks = 0
    for job in st.getJobIdsForGroup(group):
        info = st.getJobInfo(job)
        for stage in info.stageIds if info else ():
            s = st.getStageInfo(stage)
            tasks += s.numCompletedTasks if s else 0
    return tasks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / ".work" / f"run-{os.getpid()}"
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    _configure_env(work)

    spark = _start_spark()
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = PER_LAYER if args.trace else END_TO_END
    try:
        env = _environment(spark)
        for name in names:
            run_id = f"{name}-seed{args.seed}-trace{args.trace}"
            tracer = spans.Tracer(run_id, enabled=bool(args.trace))
            r = Run(spark, name, args.seed, args.seconds, tracer, work)
            res = r.run()
            r.df.unpersist()
            failed_frac = r.failed / r.attempted
            prefix = "" if len(names) == 1 else f"{name}."
            for m, v in res["metrics"].items():
                out["metrics"][prefix + m] = {"value": v, "unit": units[m]}
                print(f"{name}  {m} = {v:.6g} {units[m]}")
            print(
                f"{name}  queries = {len(res['queries_s']) + len(res['traced_queries_s'])} "
                f"timed, attempted = {r.attempted}, failed_frac = {failed_frac:.6g}, "
                f"correct = {r.failed == 0}"
            )
            for problem in r.problems[:10]:
                print(f"{name}  FAILED: {problem}", file=sys.stderr)
            out["attempted"] += r.attempted
            out["failed"] += r.failed
            out["correct"] = out["correct"] and r.failed == 0
            record = {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "environment": env,
                "attempted": r.attempted, "failed": r.failed,
                "failed_frac": failed_frac, "problems": r.problems[:50], **res,
            }
            (results_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1))
            if tracer.enabled:
                tracer.write(results_dir / f"{run_id}-spans.json")
    finally:
        _stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
