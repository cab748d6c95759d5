"""Tests of the benchmark itself: each output check rejects a planted wrong
answer, and the traced counts repeat exactly between runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads
from calibration import REFERENCE_S, Calibration
from tracer import Tracer

sys.path.insert(0, str(run.SRC))
from cascade_logic import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _main(argv) -> int:
    return cli.main(argv)


def _ops_and_results(bench, tmp_path, seed=3, keep=lambda op: True):
    ops = [op for op in bench.make_ops(seed, tmp_path, _main) if keep(op)]
    return ops, [run._execute(op, _main) for op in ops]


# --- oracles ------------------------------------------------------------------

def test_exact_phi_recovers_gate_thresholds_and_keeps_decimals():
    assert oracles.exact_phi(1 / 3) == oracles.Fraction(1, 3)
    assert oracles.exact_phi(5 / 6) == oracles.Fraction(5, 6)
    assert oracles.exact_phi("0.1") == oracles.Fraction(1, 10)
    assert oracles.exact_phi(0.7364523451223) == oracles.Fraction(0.7364523451223)


def test_expression_oracle_matches_closed_forms():
    order = ["a", "b", "c"]
    assert oracles.truth_column("a @& b @& c", order).tolist() == [1] * 7 + [0]
    assert oracles.truth_column("!(a | b) ^ c", order).tolist() == [1, 0, 0, 1, 0, 1, 0, 1]
    assert oracles.parse("(b & a) | c")[1] == ["b", "a", "c"]


def test_watts_window_at_the_papers_threshold():
    ratios = {z: oracles.watts_ratio(z, 0.18) for z in range(1, 11)}
    assert [z for z, r in ratios.items() if r > 1] == [2, 3, 4, 5]
    assert ratios[10] < 0.2


# --- planted wrong answers --------------------------------------------------------

def test_table_check_rejects_one_flipped_bit(tmp_path):
    bench = workloads.Circuits()
    ops, results = _ops_and_results(
        bench, tmp_path, keep=lambda op: op.info["label"] in ("random6", "chain6"))
    assert bench.check(ops, results) == []
    for op, res in zip(ops, results):
        if op.command == "table":
            flipped = bytearray(res.output)
            flipped[-2] ^= 1  # last row's output bit
            _, order = oracles.parse(op.info["expr"])
            assert workloads.check_table(bytes(flipped), op.info["expr"], order)


def test_circuit_check_rejects_wrong_eval_and_nonlinear_chain(tmp_path):
    bench = workloads.Circuits()
    ops, results = _ops_and_results(
        bench, tmp_path, keep=lambda op: op.info["label"].startswith("chain"))
    assert bench.check(ops, results) == []
    i = next(i for i, op in enumerate(ops) if op.command == "eval")
    bad = list(results)
    bit = json.loads(bad[i].output)["out"]
    bad[i] = workloads.Result(0, 0.0, json.dumps({"out": 1 - bit}).encode())
    assert bench.check(ops, bad)
    j = next(i for i, op in enumerate(ops)
             if op.command == "compile" and op.info["label"] == "chain6")
    doc = json.loads(results[j].output)
    doc["nodes"].append(dict(doc["nodes"][-1], id=len(doc["nodes"])))
    bad = list(results)
    bad[j] = workloads.Result(0, 0.0, json.dumps(doc).encode())
    assert any("not linear" in p for p in bench.check(ops, bad))


def test_fixpoint_checks_reject_dropped_and_unstable_fixpoints(tmp_path):
    bench = workloads.Analysis()
    ops, results = _ops_and_results(
        bench, tmp_path,
        keep=lambda op: op.info["kind"] in ("triangle", "small", "circuit"))
    assert bench.check(ops, results) == []
    for op, res in zip(ops, results):
        if oracles.read_net(op.info["net"]).n > 16:
            continue  # a subset of a fixpoint can be stable; brute force tells
        doc = json.loads(res.output)
        if len(doc["fixpoints"]) > 1:
            dropped = dict(doc, fixpoints=doc["fixpoints"][1:])
            assert workloads.check_fixpoints(dropped, op.info), op.argv
        unstable = dict(doc, fixpoints=[fp[:-1] for fp in doc["fixpoints"]])
        assert workloads.check_fixpoints(unstable, op.info), op.argv


def test_monotone_check_rejects_a_second_fixpoint(tmp_path):
    bench = workloads.Analysis()
    ops, results = _ops_and_results(
        bench, tmp_path, keep=lambda op: op.info["kind"] == "monotone")
    op, res = ops[0], results[0]
    doc = json.loads(res.output)
    assert workloads.check_fixpoints(doc, op.info) == []
    (fp,) = doc["fixpoints"]
    seeds = oracles.read_net(op.info["net"]).seeds
    doc["fixpoints"].append(sorted(set(fp) - {next(u for u in fp if u not in seeds)}))
    assert workloads.check_fixpoints(doc, op.info)


def test_sensitivity_check_rejects_a_wrong_reference():
    doc = {"trials": 10, "agree_fraction": 0.3, "reference_output": [1, 0],
           "distinct_outcomes": 2}
    assert workloads.check_sensitivity(doc, [1, 0], 10, "") == []
    assert workloads.check_sensitivity(doc, [1, 1], 10, "")
    assert workloads.check_sensitivity(dict(doc, agree_fraction=0.35), [1, 0], 10, "")


class SmallSweep(workloads.Sweep):
    N = 200
    REALIZATIONS = 3


def test_sweep_csv_check_rejects_a_shifted_frequency(tmp_path):
    bench = SmallSweep()
    ops, results = _ops_and_results(bench, tmp_path)
    dumps = {op.info["rule"]: json.loads(op.info["dump"].read_text()) for op in ops}
    for op, res in zip(ops, results):
        rule = op.info["rule"]
        text = res.output.decode()
        assert workloads.check_sweep_csv(text, rule, 3, dumps[rule], dumps["gcm"], bench) == []
        lines = text.splitlines()
        cells = lines[4].split(",")
        cells[2] = f"{float(cells[2]) + 1 / 3:.6g}"
        lines[4] = ",".join(cells)
        shifted = "\n".join(lines) + "\n"
        assert workloads.check_sweep_csv(shifted, rule, 3, dumps[rule], dumps["gcm"], bench)


def _curves(gcm_window=0.9, gcm_far=0.002, agcm=(0.7, 0.5, 0.45, 0.4, 0.38, 0.37, 0.36,
                                                   0.35, 0.35, 0.34)):
    gcm, low = [], []
    for z in range(1, 11):
        big = 2 <= z <= 5
        sizes = [gcm_window if big else (gcm_far if z > 6 else 0.01)] * 10
        gcm.append({"z": float(z), "sizes": sizes})
        low.append({"z": float(z), "sizes": [agcm[z - 1]] * 10})
    return gcm, low


def test_sweep_shape_check_accepts_the_paper_curve_and_rejects_distortions():
    bench = workloads.Sweep()
    gcm, agcm = _curves()
    assert workloads.check_sweep_shape(gcm, agcm, bench) == []
    no_window = _curves(gcm_window=0.01)
    assert workloads.check_sweep_shape(*no_window, bench)
    global_far = _curves()
    global_far[0][-1]["sizes"][0] = 0.9
    assert workloads.check_sweep_shape(*global_far, bench)
    one_mode = _curves(agcm=(0.7, 0.5, 0.45, 0.4, 0.38, 0.37, 0.001, 0.001, 0.001, 0.001))
    assert workloads.check_sweep_shape(*one_mode, bench)


# --- traced counts ------------------------------------------------------------

def _traced_counts(bench, tmp_path, keep=lambda op: True):
    ops = [op for op in bench.make_ops(5, tmp_path, _main) if keep(op) and op.deadline is None]
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            results = [run._execute(op, lambda argv: cli.main(argv)) for op in ops]
        finally:
            tracer.uninstall()
        assert all(r.ok for r in results)
        counts.append(dict(tracer.counts))
        assert not hasattr(cli.main, "__wrapped__")  # the originals are back
    return counts


@pytest.mark.parametrize("bench, keep, names", [
    (SmallSweep(), lambda op: True, ("engine.passes", "engine.runs", "net.graphs")),
    (workloads.Circuits(), lambda op: op.info["label"] != "wide",
     ("circuit.nodes", "circuit.table_rows", "engine.passes")),
    (workloads.Analysis(), lambda op: op.info["kind"] != "verify",
     ("analyze.states_monotone", "analyze.states_antagonistic", "engine.passes")),
])
def test_exact_counts_repeat(bench, keep, names, tmp_path):
    first, second = _traced_counts(bench, tmp_path, keep)
    assert first == second
    for name in names:
        assert first[name] > 0
    if "net.graphs" in first:
        assert first["net.graphs"] == 2 * 2 * len(bench.Z) * bench.REALIZATIONS


def test_layer_self_times_add_up_to_the_root_span(tmp_path):
    bench = workloads.Circuits()
    ops = [op for op in bench.make_ops(5, tmp_path, _main)
           if op.info["label"] in ("random8", "chain6")]
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            run._execute(op, lambda argv: cli.main(argv))
    finally:
        tracer.uninstall()
    root = tracer.name_total["main"]
    assert sum(tracer.layer_self.values()) == pytest.approx(root, rel=1e-9)
    assert set(tracer.layer_self) >= {"cli", "parser", "circuit", "net", "engine"}


# --- speed scale --------------------------------------------------------------

def test_calibration_work_is_fixed():
    first, second = Calibration(), Calibration()
    assert first._walk() == second._walk() == 7948
    assert oracles.brute_force_fixpoints(first.net, first.net.seeds)[1] == 356
    assert first.net == second.net and first.limits == second.limits


def test_each_command_is_scaled_by_the_samples_around_it():
    samples = {1: [0.02], 3: [0.04, 0.06]}  # taken after ops 1 and 3
    assert run._speed_scale(0, samples, None) == pytest.approx(REFERENCE_S / 0.02)
    assert run._speed_scale(2, samples, None) == pytest.approx(REFERENCE_S / 0.04)
    assert run._speed_scale(3, samples, None) == pytest.approx(REFERENCE_S / 0.04)
    assert run._speed_scale(2, samples, deadline=2.0) == 1.0


# --- the command --------------------------------------------------------------

def test_benchmark_json_names_what_the_command_reports(tmp_path):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "analysis", "--seed", "2",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    record = json.loads((HERE / "_work" / "analysis" / "record-seed2-trace1.json").read_text())
    assert record["machine"]["nproc"] >= 1 and all(o["sha256"] for o in record["outputs"])
    assert abs(doc["metrics"]["trace.unattributed_pct"]["value"]) < 1
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert e2e == {"setup_s", "wall_s", "peak_rss_mb", "ops_per_s"}


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
