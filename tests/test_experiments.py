import dataclasses
import hashlib
import io
import os
import tracemalloc
from itertools import repeat

import numpy as np
import pytest

import cascade_logic.analyze as analyze
import cascade_logic.engine as engine
import cascade_logic.experiments as experiments
from cascade_logic import (DEFAULT_STATE_CAP, GlobalFraction, MedianExceedance, Rule, SweepSpec,
                           cascade_sizes, emit_csv, parse_csv, reference_sizes,
                           rows_from_sizes, run_sweep, verify_gcm_determinism)
from cascade_logic._seeds import map_runs, mix_seed, worker_count
from cascade_logic.cli import main
from conftest import assert_split, record_runs


def small_spec(**overrides):
    base = dict(n=80, z_values=(1.0, 2.5, 4.0), phi_star=0.18,
                rule=Rule.ANTAGONISTIC, realizations=10, master_seed=42,
                metric=GlobalFraction(0.5))
    base.update(overrides)
    return SweepSpec(**base)


class TestMixSeed:
    @pytest.mark.parametrize("master", [0, 2**64 - 1, -5])
    def test_array_part_matches_scalar_parts(self, master):
        parts = [0, 1, 2, 499, 2**63, 2**64 - 1]
        got = mix_seed(master, np.array(parts, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [mix_seed(master, p) for p in parts]
        # a negative int64 entry wraps modulo 2^64 as a negative int part does
        got = mix_seed(master, "graph", np.array([-1, -7, 3], dtype=np.int64))
        assert got.tolist() == [mix_seed(master, "graph", p) for p in (-1, -7, 3)]

    @pytest.mark.parametrize("master", [0, 2**64 - 1, -5])
    def test_array_master_matches_scalar_masters(self, master):
        # an int64 master wraps modulo 2^64 as a negative int master does
        masters = np.array([master] * 3, dtype=np.int64 if master < 0 else np.uint64)
        got = mix_seed(masters, np.array([0, 7, 2**63], dtype=np.uint64), 2)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix_seed(master, p, 2) for p in (0, 7, 2**63)]
        assert mix_seed(masters, "graph").tolist() == [mix_seed(master, "graph")] * 3


class TestSpecValidation:
    def test_z_bounds(self):
        with pytest.raises(ValueError, match="z must lie"):
            small_spec(z_values=(90.0,))
        with pytest.raises(ValueError, match="z must lie"):
            small_spec(z_values=(0.0,))

    def test_empty_z_list(self):
        with pytest.raises(ValueError, match="non-empty"):
            small_spec(z_values=())

    def test_realizations_positive(self):
        with pytest.raises(ValueError):
            small_spec(realizations=0)

    def test_metric_threshold_validated(self):
        with pytest.raises(ValueError):
            GlobalFraction(0.0)


class TestDeterminism:
    def test_identical_specs_identical_sizes(self):
        spec = small_spec()
        a = cascade_sizes(spec)
        b = cascade_sizes(spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_worker_count_does_not_matter(self):
        spec = small_spec()
        serial = cascade_sizes(spec, jobs=1)
        parallel = cascade_sizes(spec, jobs=4)
        assert all(np.array_equal(x, y) for x, y in zip(serial, parallel))

    def test_worker_count_is_clamped(self):
        cpus = os.cpu_count() or 1
        assert worker_count(10**6, 30) == min(cpus, 30)
        assert worker_count(10**6, 1) == 1
        assert worker_count(2, 30) == min(2, cpus)
        assert worker_count(None, 30) == 1
        assert worker_count(0, 30) == 1

    def test_pools_start_the_clamped_worker_count(self, serial_pool):
        spec = small_spec(z_values=(2.0,), realizations=3)
        serial = cascade_sizes(spec, jobs=1)
        assert serial_pool == []
        clamped = cascade_sizes(spec, jobs=10**6)
        assert all(np.array_equal(x, y) for x, y in zip(serial, clamped))
        verify_gcm_determinism(8, 2.0, 3, 1, jobs=10**6)
        # at most one worker per realization or instance
        assert serial_pool == [3, 3]

    def test_seed_chunks_do_not_change_sizes(self, monkeypatch):
        # 3 z values of 10 realizations, sub-seeded 7 at a time
        spec = small_spec(metric=MedianExceedance(), seeds_per_run=2)
        whole = experiments.sweep_sizes(spec)
        monkeypatch.setattr(experiments, "SEED_CHUNK", 7)
        chunked = experiments.sweep_sizes(spec)
        for a, b in zip(whole, chunked):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_csv_bytes_are_reproducible(self):
        spec = small_spec(metric=MedianExceedance())
        first, second = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(spec), first, spec=spec)
        emit_csv(run_sweep(spec, jobs=3), second, spec=spec)
        assert first.getvalue() == second.getvalue()


class TestRunSplits:
    """Work split over 1, 2 and 3 stand-in workers: counts below 4 * workers,
    equal to it, and not divisible by the number of runs."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 5, 8, 12, 17, 30])
    def test_runs_cover_every_index_once(self, serial_pool, workers, count):
        runs = map_runs(lambda run: run, count, workers)
        assert_split(runs, count, workers)
        assert serial_pool == ([min(workers, count)] if min(workers, count) > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("z,realizations,count", [("2", 5, 5), ("1:2:1", 4, 8),
                                                      ("1:3:1", 4, 12), ("1:3:1", 7, 21)])
    def test_sweep_bytes_match_one_worker(self, serial_pool, monkeypatch, tmp_path, workers, z,
                                          realizations, count):
        runs = record_runs(monkeypatch, experiments, "_run_sizes")

        def sweep(jobs):
            out, dump = tmp_path / f"{jobs}.csv", tmp_path / f"{jobs}.json"
            assert main(["sweep", "--n", "40", "--z", z, "--phi", "0.18", "--rule", "agcm",
                         "--realizations", str(realizations), "--metric", "median",
                         "--seed", "3", "--jobs", str(jobs), "--out", str(out),
                         "--dump-sizes", str(dump)]) == 0
            return out.read_bytes(), dump.read_bytes()

        serial = sweep(1)
        runs.clear()
        assert sweep(workers) == serial
        assert_split(runs, count, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("instances", [5, 8, 12, 17])
    def test_instance_outcomes_match_one_worker(self, serial_pool, monkeypatch, workers,
                                                instances):
        runs = record_runs(monkeypatch, analyze, "_run_fixpoints")

        def outcomes(jobs):
            return analyze._instance_outcomes(9, 3.0, instances, 77, Rule.ANTAGONISTIC,
                                              DEFAULT_STATE_CAP, jobs)

        serial = outcomes(1)
        runs.clear()
        assert outcomes(workers) == serial
        assert_split(runs, instances, workers)


def test_sweep_sizes_are_held_as_one_array_per_run(monkeypatch):
    # a sweep of 2^16 realizations under both rules, with the work of each
    # realization stubbed out: its sizes take 1 MB as float64, and the
    # bookkeeping may hold them about twice over, but not as one tuple each,
    # nor the sub-seeds of the whole run at once
    class Stub:
        def permutation(n):
            return np.zeros(1, dtype=np.int64)

        def run(rng):
            return bytearray(b"\1"), [], 1

    monkeypatch.setattr(experiments, "make_rngs", lambda seeds: repeat(Stub, len(seeds)))
    monkeypatch.setattr(experiments, "_er_union", lambda n, p, rngs: None)
    monkeypatch.setattr(experiments, "assign_thresholds", lambda graph, phi, rule: None)
    monkeypatch.setattr(experiments, "monotone_closure", lambda network, seeds: {0, 1})
    monkeypatch.setattr(experiments, "_Cascade", lambda network, seeds: Stub)
    spec = small_spec(n=40, z_values=range(1, 17), realizations=1 << 12,
                      metric=MedianExceedance())
    rules = (Rule.ANTAGONISTIC, Rule.MONOTONE)
    tracemalloc.start()
    try:
        by_rule = experiments._sizes_by_rule(spec, rules, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for per_z, size in zip(by_rule, (1 / 40, 2 / 40)):
        assert len(per_z) == 16
        assert all(np.array_equal(sizes, np.full(1 << 12, size)) for sizes in per_z)
    assert peak < 3 * 2**20, peak


class TestSizesAndMetrics:
    def test_sizes_bounded_with_one_seed(self):
        for rule in (Rule.MONOTONE, Rule.ANTAGONISTIC):
            spec = small_spec(rule=rule)
            for arr in cascade_sizes(spec):
                assert np.all(arr >= 1 / spec.n)
                assert np.all(arr <= 1.0)

    def test_global_fraction_matches_manual_count(self):
        spec = small_spec(metric=GlobalFraction(0.4))
        sizes = cascade_sizes(spec)
        rows = run_sweep(spec)
        for zi, row in enumerate(rows):
            expected = np.mean(sizes[zi] >= 0.4)
            assert row.frequency == expected
            assert row.mean_size == sizes[zi].mean()
            assert row.median_size == np.median(sizes[zi])

    def test_median_exceedance_compares_against_monotone_baseline(self):
        spec = small_spec(metric=MedianExceedance())
        sizes = cascade_sizes(spec)
        baseline = cascade_sizes(small_spec(metric=MedianExceedance(),
                                            rule=Rule.MONOTONE))
        rows = run_sweep(spec)
        for zi, row in enumerate(rows):
            assert row.frequency == np.mean(sizes[zi] > np.median(baseline[zi]))

    def test_reference_sizes_reuses_graphs_and_seeds(self):
        spec = small_spec(metric=MedianExceedance())
        ref = reference_sizes(spec)
        direct = cascade_sizes(small_spec(metric=MedianExceedance(),
                                          rule=Rule.MONOTONE))
        assert all(np.array_equal(a, b) for a, b in zip(ref, direct))

    def test_monotone_sweep_is_its_own_reference(self):
        spec = small_spec(rule=Rule.MONOTONE, metric=MedianExceedance())
        assert all(np.array_equal(a, b) for a, b in
                   zip(reference_sizes(spec), cascade_sizes(spec)))

    def test_median_exceedance_requires_reference(self):
        spec = small_spec(metric=MedianExceedance())
        with pytest.raises(ValueError, match="reference"):
            rows_from_sizes(spec, cascade_sizes(spec))

    def test_single_realization_frequency_is_zero_or_one(self):
        spec = small_spec(z_values=(2.0,), realizations=1)
        (row,) = run_sweep(spec)
        assert row.frequency in (0.0, 1.0)

    def test_rows_sorted_by_z(self):
        spec = small_spec(z_values=(4.0, 1.0, 2.5))
        assert [row.z for row in run_sweep(spec)] == [1.0, 2.5, 4.0]

    def test_seeds_per_run_lifts_the_floor(self):
        spec = small_spec(seeds_per_run=5, z_values=(1.0,))
        for arr in cascade_sizes(spec):
            assert np.all(arr >= 5 / spec.n)


class TestOneGraphPerRealization:
    # every graph gets one monotone closure (the median's reference, or the
    # gcm sweep itself), and an agcm sweep adds one random-sweep run; both
    # walk the graph's own out-array in place, and neither converts it to a list
    @pytest.mark.parametrize("rule, runs_per_graph",
                             [(Rule.ANTAGONISTIC, 2), (Rule.MONOTONE, 1)])
    def test_median_sweep_builds_each_graph_once(self, monkeypatch, tmp_path,
                                                 rule, runs_per_graph):
        calls = dict.fromkeys(("_er_union", "monotone_closure", "run", "tolist"), 0)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        class CountedArray(np.ndarray):
            def tolist(self):
                calls["tolist"] += 1
                return super().tolist()

        def er_union(*args):
            # undirected, the out-arrays are the in-arrays: count both as one
            graph = original_er_union(*args)
            out = graph.out_indices.view(CountedArray)
            graph = dataclasses.replace(graph, indices=out, out_indices=out)
            assert np.shares_memory(graph.view[1][1], out)
            return graph

        original_er_union = experiments._er_union
        monkeypatch.setattr(experiments, "_er_union", counted("_er_union", er_union))
        monkeypatch.setattr(experiments, "monotone_closure",
                            counted("monotone_closure", experiments.monotone_closure))
        monkeypatch.setattr(engine._Cascade, "run", counted("run", engine._Cascade.run))
        spec = small_spec(rule=rule, metric=MedianExceedance())
        graphs = len(spec.z_values) * spec.realizations
        expected = {"_er_union": graphs, "monotone_closure": graphs,
                    "run": (runs_per_graph - 1) * graphs, "tolist": 0}
        run_sweep(spec, jobs=1)
        assert calls == expected
        calls.update(dict.fromkeys(calls, 0))
        assert main(["sweep", "--n", "80", "--z", "1:4:1.5", "--phi", "0.18",
                     "--rule", rule.value, "--realizations", "10",
                     "--metric", "median", "--seed", "42", "--jobs", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert calls == expected


class TestCsv:
    def test_format_contract(self):
        spec = small_spec(z_values=(2.0,), realizations=4)
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf, spec=spec)
        lines = buf.getvalue().split("\n")
        assert lines[0].startswith("# metric=global:0.5, phi_star=0.18, n=80, "
                                   "rule=agcm, master_seed=42")
        assert lines[1] == "z,realizations,frequency,mean_size,median_size"
        assert len(lines) == 4  # comment, header, one row, trailing newline
        assert lines[-1] == ""

    def test_round_trip_is_the_printed_precision_fixpoint(self):
        spec = small_spec(metric=MedianExceedance())
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf, spec=spec)
        rows, meta = parse_csv(io.StringIO(buf.getvalue()))
        again = io.StringIO()
        emit_csv(rows, again, spec=spec)
        assert again.getvalue() == buf.getvalue()
        assert meta["metric"] == "median"
        assert meta["n"] == "80"

    def test_parsed_rows_match_at_six_significant_digits(self):
        spec = small_spec()
        rows = run_sweep(spec)
        buf = io.StringIO()
        emit_csv(rows, buf, spec=spec)
        parsed, _ = parse_csv(io.StringIO(buf.getvalue()))
        for ours, theirs in zip(rows, parsed):
            assert theirs.z == pytest.approx(ours.z, rel=1e-5)
            assert theirs.frequency == pytest.approx(ours.frequency, rel=1e-5)
            assert theirs.mean_size == pytest.approx(ours.mean_size, rel=1e-5)
            assert theirs.realizations == ours.realizations

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            emit_csv([], io.StringIO(), spec=small_spec())

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv(io.StringIO("a,b,c\n1,2,3\n"))


class TestRegressionPin:
    # frozen from the first verified run; guards against RNG or scheduling drift
    def test_pinned_csv(self):
        spec = SweepSpec(n=120, z_values=(1.0, 3.0, 6.0), phi_star=0.18,
                         rule=Rule.ANTAGONISTIC, realizations=12,
                         master_seed=2718, metric=MedianExceedance())
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf, spec=spec)
        assert buf.getvalue() == (
            "# metric=median, phi_star=0.18, n=120, rule=agcm, "
            "master_seed=2718, generator=numpy-pcg64\n"
            "z,realizations,frequency,mean_size,median_size\n"
            "1,12,1,0.671528,0.670833\n"
            "3,12,0,0.463194,0.466667\n"
            "6,12,0,0.374306,0.375\n")

    def test_pinned_monotone_median_csv(self):
        # the monotone sweep is its own median reference
        spec = SweepSpec(n=120, z_values=(1.0, 3.0, 6.0), phi_star=0.18,
                         rule=Rule.MONOTONE, realizations=12,
                         master_seed=2718, metric=MedianExceedance())
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf, spec=spec)
        assert buf.getvalue() == (
            "# metric=median, phi_star=0.18, n=120, rule=gcm, "
            "master_seed=2718, generator=numpy-pcg64\n"
            "z,realizations,frequency,mean_size,median_size\n"
            "1,12,0.5,0.134722,0.0833333\n"
            "3,12,0.416667,0.715972,0.941667\n"
            "6,12,0.5,0.50625,0.5125\n")

    def test_pinned_monotone_row(self):
        spec = SweepSpec(n=120, z_values=(2.0,), phi_star=0.18,
                         rule=Rule.MONOTONE, realizations=8, master_seed=99,
                         metric=GlobalFraction(0.5))
        (row,) = run_sweep(spec)
        assert (row.frequency, row.mean_size) == (0.625, 0.5208333333333333)


class TestSweepGoldens:
    """Output digests recorded before the sweep read its generators from
    `make_rngs` and ran the engine's internals directly; they pin the bytes
    of every realization's graph, seed nodes and random sweep."""

    PAPER = ["sweep", "--n", "1000", "--z", "1:10:1", "--phi", "0.18", "--realizations", "100",
             "--metric", "median", "--seed", "7"]
    PAPER_CSV = {"gcm": "f45b915cc4d59b0ac8bf478437347bf2a2f529a39991c8e2273a753f58630df2",
                 "agcm": "cb15615acd1efc61f4189b7d76e89b15619bc968ae78c47866cdb1024291e191"}
    SMALL_SIZES = {"gcm": "b767dca4ae3ff9ae93929ad8f99aa4ebe4c3a0890675d5d0f89fa609e346226c",
                   "agcm": "874a4a42437c538652e54e2e1356d5fd88c26899085d85217ce6558b3d8e6249"}

    @pytest.mark.parametrize("rule, jobs", [("gcm", 1), ("agcm", 1), ("agcm", 2)])
    def test_paper_scale_csv(self, tmp_path, rule, jobs):
        out = tmp_path / "sweep.csv"
        assert main(self.PAPER + ["--rule", rule, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PAPER_CSV[rule]

    @pytest.mark.parametrize("rule", ["gcm", "agcm"])
    def test_small_median_sweep_sizes(self, tmp_path, rule):
        # three seed nodes per run: the seed permutation's stream shows too
        dump = tmp_path / "sizes.json"
        assert main(["sweep", "--n", "200", "--z", "1:4:1", "--phi", "0.18", "--rule", rule,
                     "--realizations", "10", "--metric", "median", "--seed", "5",
                     "--seeds-per-run", "3", "--out", os.devnull,
                     "--dump-sizes", str(dump)]) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.SMALL_SIZES[rule]
