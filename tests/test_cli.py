import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import cascade_logic
from cascade_logic import _seeds as seeds_module
from cascade_logic import circuit as circuit_module
from cascade_logic import cli as cli_module
from cascade_logic import engine as engine_module
from cascade_logic import experiments as experiments_module
from cascade_logic import net as net_module
from cascade_logic import (DEFAULT_STATE_CAP, Network, Rule, enumerate_fixpoints,
                           fixture_path, is_global, load_network, make_rng, run_cascade,
                           save_network)
from cascade_logic.circuit import MAX_FAN_IN, MAX_TABLE_CELLS, MAX_TABLE_STEPS
from cascade_logic.cli import MAX_Z_VALUES, _parse_z_range, main
from cascade_logic.parser import MAX_NESTING, LimitExceeded
from conftest import GOLDEN, network_of, random_instance, record_runs, small_network
from test_cli_golden import CASES, observe, prepare_workdir

FIXTURES = ["or2", "and2", "nor2", "nand2", "not1", "half_adder"]


def or_chain_file(tmp_path, n):
    """A circuit file of 20 inputs, their OR (node 20), then a chain of buffers
    to node n - 1, the output."""
    nodes = [{"id": i, "rule": "gcm", "phi": 0.5} for i in range(20)]
    nodes.append({"id": 20, "rule": "gcm", "phi": 0.05})
    nodes += [{"id": i, "rule": "gcm", "phi": 1.0} for i in range(21, n)]
    doc = {"directed": True, "nodes": nodes,
           "edges": [[i, 20] for i in range(20)] + [[i - 1, i] for i in range(21, n)],
           "seeds": [], "inputs": {f"a{i}": i for i in range(20)}, "outputs": {"out": n - 1}}
    target = tmp_path / "chain.json"
    target.write_text(json.dumps(doc))
    return target


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


class TestGen:
    def test_writes_a_loadable_network(self, cli, tmp_path):
        target = tmp_path / "net.json"
        code, out, err = cli("gen", "--n", "30", "--z", "3", "--rule", "agcm",
                             "--phi", "const:0.18", "--seed", "7",
                             "--out", str(target))
        assert (code, out, err) == (0, "", "")
        net = load_network(target)
        assert net.n == 30
        assert all(s.phi == 0.18 for s in net.nodes)

    def test_stdout_matches_file_and_repeats(self, cli, tmp_path):
        args = ("gen", "--n", "20", "--z", "2", "--rule", "gcm",
                "--phi", "uniform", "--seed", "5")
        code_a, out_a, _ = cli(*args)
        code_b, out_b, _ = cli(*args)
        assert code_a == code_b == 0
        assert out_a == out_b
        target = tmp_path / "net.json"
        cli(*args, "--out", str(target))
        assert target.read_text() == out_a

    def test_p_and_z_are_exclusive(self, cli):
        code, _, err = cli("gen", "--n", "10", "--z", "2", "--p", "0.5",
                           "--rule", "gcm", "--seed", "1")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"
        code, _, err = cli("gen", "--n", "10", "--rule", "gcm", "--seed", "1")
        assert code == 1

    def test_unwritable_output_fails_before_the_graph_is_drawn(self, cli, monkeypatch,
                                                               tmp_path):
        calls = []
        real = cli_module.generate_er

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli_module, "generate_er", counted)
        argv = ("gen", "--n", "30", "--z", "3", "--seed", "7", "--out")
        missing = str(tmp_path / "nodir" / "net.json")
        code, out, err = cli(*argv, missing)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "input", "message": f"[Errno 2] No such file or directory: {missing!r}"}}
        assert calls == []
        target = tmp_path / "net.json"
        assert cli(*argv, str(target)) == (0, "", "")
        assert len(calls) == 1
        assert load_network(target).n == 30


class TestStatsAndRun:
    def test_stats_json(self, cli):
        code, out, _ = cli("stats", "--net", str(fixture_path("triangle.json")))
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 3, "edge_count": 3, "mean_degree": 2.0,
                       "clustering_coefficient": 1.0}

    def test_run_explicit_order(self, cli):
        code, out, _ = cli("run", "--net", str(fixture_path("triangle.json")),
                           "--mode", "order:1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["final"] == [0, 1]
        assert doc["labeling_order"] == [1]
        assert doc["passes"] == 2
        assert doc["mode"] == "order"
        assert doc["global"] is True

    def test_run_sweep_mode_reproducible(self, cli):
        args = ("run", "--net", str(fixture_path("triangle.json")),
                "--mode", "sweep:9", "--seeds", "0")
        _, out_a, _ = cli(*args)
        _, out_b, _ = cli(*args)
        assert out_a == out_b
        doc = json.loads(out_a)
        assert doc["rng_seed"] == 9
        assert doc["generator"] == "numpy-pcg64"

    def test_run_topo_on_circuit_file(self, cli):
        code, out, _ = cli("run", "--net", str(fixture_path("half_adder.json")),
                           "--seeds", "0", "--mode", "topo")
        assert code == 0
        assert json.loads(out)["passes"] == 1

    @pytest.mark.parametrize("net, seeds, mode", [
        ("triangle", None, "order:1,2"),
        ("triangle", "0", "sweep:9"),
        ("or2", "", "sweep:1"),  # nothing is seeded: both lists are empty
        ("half_adder", "0,1", "topo"),
        ("gen", "0,1,2", "sweep:4"),
    ])
    def test_run_output_is_json_dumps_indent_1(self, cli, tmp_path, net, seeds, mode):
        if net == "gen":  # a global cascade: lists of hundreds of ids
            path = tmp_path / "net.json"
            cli("gen", "--n", "2000", "--z", "4", "--phi", "const:0.18", "--seed", "3",
                "--out", str(path))
        else:
            path = fixture_path(f"{net}.json")
        code, out, err = cli("run", "--net", str(path), "--mode", mode,
                             *(() if seeds is None else ("--seeds", seeds)))
        network = load_network(path)
        schedule = cli_module._parse_mode(mode)
        result = run_cascade(network, None if seeds is None else cli_module._parse_ids(seeds),
                             schedule)
        doc = {"final": sorted(result.final), "size_fraction": result.size_fraction,
               "global": is_global(result), "labeling_order": list(result.labeling_order),
               "passes": result.passes, "mode": mode.split(":")[0],
               "rng_seed": getattr(schedule, "rng_seed", None), "generator": "numpy-pcg64"}
        assert (code, err) == (0, "")
        assert out == json.dumps(doc, indent=1) + "\n"
        if net == "or2":
            assert doc["final"] == doc["labeling_order"] == []
        if net == "gen":
            assert len(doc["final"]) > 500

    def test_bad_mode_is_usage_error(self, cli):
        code, _, err = cli("run", "--net", str(fixture_path("triangle.json")),
                           "--mode", "chaotic")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"


class TestCompileEvalTable:
    def test_compile_then_table_gives_nand_rows(self, cli, tmp_path):
        target = tmp_path / "nand.json"
        code, _, _ = cli("compile", "--expr", "a @& b", "--basis", "mixed",
                         "--out", str(target))
        assert code == 0
        code, out, _ = cli("table", "--net", str(target))
        assert code == 0
        assert out == "a,b,out\n0,0,1\n0,1,1\n1,0,1\n1,1,0\n"

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_tables_match_goldens(self, cli, name):
        code, out, _ = cli("table", "--net", str(fixture_path(f"{name}.json")))
        assert code == 0
        assert out == (GOLDEN / f"{name}.table.csv").read_text()

    def test_eval_half_adder(self, cli):
        code, out, _ = cli("eval", "--net", str(fixture_path("half_adder.json")),
                           "--assign", "a=1,b=0")
        assert code == 0
        assert json.loads(out) == {"sum": 1, "carry": 0}

    def test_eval_bad_assignment_bit(self, cli):
        code, _, err = cli("eval", "--net", str(fixture_path("half_adder.json")),
                           "--assign", "a=2,b=0")
        assert code == 1

    @pytest.mark.parametrize("command,extra", [
        ("eval", ()), ("sensitivity", ("--trials", "5", "--seed", "1"))])
    def test_repeated_assignment_name_is_usage_error(self, cli, command, extra):
        code, out, err = cli(command, "--net", str(fixture_path("nand2.json")),
                             "--assign", "a=1,a=0,b=1", *extra)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "usage"
        assert "'a'" in error["message"]

    def test_table_above_input_limit_is_resource_error(self, cli, tmp_path):
        # 21 inputs and one output are 2^21 rows of 22 cells: past the cell cap
        target = tmp_path / "wide.json"
        wide = " | ".join(f"v{i}" for i in range(21))
        assert cli("compile", "--expr", wide, "--out", str(target))[0] == 0
        code, out, err = cli("table", "--net", str(target), "--out", str(tmp_path / "t.csv"))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "resource"
        assert error["message"] == (f"2^21 rows of 22 columns would need {(1 << 21) * 22} "
                                    f"cells; the limit is {MAX_TABLE_CELLS} cells")
        assert not (tmp_path / "t.csv").exists()

    def test_table_above_cell_limit_is_resource_error(self, cli, tmp_path):
        # 16 inputs and one OR node behind enough output names to pass the cap
        nodes = [{"id": i, "rule": "gcm", "phi": 0.5} for i in range(16)]
        nodes.append({"id": 16, "rule": "gcm", "phi": 0.0625})
        doc = {"directed": True, "nodes": nodes, "edges": [[i, 16] for i in range(16)],
               "seeds": [], "inputs": {f"a{i}": i for i in range(16)},
               "outputs": {f"o{k}": 16 for k in range((MAX_TABLE_CELLS >> 16) - 15)}}
        target = tmp_path / "outputs.json"
        target.write_text(json.dumps(doc))
        code, out, err = cli("table", "--net", str(target), "--out", str(tmp_path / "t.csv"))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "resource"
        assert f"limit is {MAX_TABLE_CELLS} cells" in error["message"]
        assert not (tmp_path / "t.csv").exists()

    def test_table_above_step_limit_is_resource_error(self, cli, tmp_path, monkeypatch):
        # 20 inputs, their OR, then a chain of 19,999 buffers: 20,020 nodes pass
        # the cell cap, but a block holds 104 rows, so the table takes 10,083 blocks
        n = 20_020
        target = or_chain_file(tmp_path, n)
        monkeypatch.setattr(circuit_module, "settle", None)  # no row is evaluated
        code, out, err = cli("table", "--net", str(target), "--out", str(tmp_path / "t.csv"))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "resource"
        assert error["message"] == (
            f"2^20 rows in 10083 blocks of {n} nodes and {n - 1} edges would take "
            f"{10083 * (2 * n - 1)} steps; the limit is {MAX_TABLE_STEPS} steps")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sensitivity", "--assign", ",".join(f"a{i}=1" for i in range(20)),
         "--trials", "3", "--seed", "4"],
        ["run", "--seeds", "0", "--mode", "sweep:1"],
    ], ids=["sensitivity", "run"])
    def test_random_sweep_past_the_examination_budget_is_resource_error(
            self, cli, tmp_path, monkeypatch, argv):
        # a random sweep down a chain labels about one increasing run of its
        # order a pass: about 0.29 n^2 examinations, about 290,000 here
        monkeypatch.setattr(engine_module, "MAX_EXAMINATIONS", 10 ** 5)
        target = or_chain_file(tmp_path, 1000)
        code, out, err = cli(argv[0], "--net", str(target), *argv[1:])
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "kind": "resource",
            "message": "cascade runs exceed the limit of 100000 node examinations"}

    @pytest.mark.parametrize("expr", [
        "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1),
        "!" * (MAX_NESTING + 1) + "a",
        " | ".join(f"v{i}" for i in range(MAX_FAN_IN + 1)),
    ], ids=["parentheses", "negations", "fan-in"])
    def test_compile_above_a_cap_is_resource_error(self, cli, expr):
        code, out, err = cli("compile", "--expr", expr)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["kind"] == "resource"

    def test_unwritable_output_fails_before_the_table_is_evaluated(self, cli, monkeypatch,
                                                                   tmp_path):
        calls = []
        real = cli_module.truth_table

        def counted(circuit):
            calls.append(circuit)
            return real(circuit)

        monkeypatch.setattr(cli_module, "truth_table", counted)
        net = str(fixture_path("half_adder.json"))
        missing = str(tmp_path / "nodir" / "t.csv")
        code, out, err = cli("table", "--net", net, "--out", missing)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "input", "message": f"[Errno 2] No such file or directory: {missing!r}"}}
        assert calls == []
        target = tmp_path / "t.csv"
        assert cli("table", "--net", net, "--out", str(target)) == (0, "", "")
        assert len(calls) == 1
        assert target.read_text() == (GOLDEN / "half_adder.table.csv").read_text()

    def test_unwritable_output_fails_before_the_expression_is_compiled(self, cli,
                                                                       monkeypatch, tmp_path):
        calls = []
        real = cli_module.compile_expr

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli_module, "compile_expr", counted)
        argv = ("compile", "--expr", "a @& b", "--out")
        missing = str(tmp_path / "nodir" / "c.json")
        code, out, err = cli(*argv, missing)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "input", "message": f"[Errno 2] No such file or directory: {missing!r}"}}
        assert calls == []
        target = tmp_path / "c.json"
        assert cli(*argv, str(target)) == (0, "", "")
        assert len(calls) == 1
        assert target.read_text() == fixture_path("nand2.json").read_text()

    def test_thousand_term_xor_compiles_and_its_table_hits_the_cap(self, cli, tmp_path):
        target = tmp_path / "xor.json"
        expr = " ^ ".join(f"x{i}" for i in range(1000))
        assert cli("compile", "--expr", expr, "--out", str(target)) == (0, "", "")
        code, out, err = cli("table", "--net", str(target))
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["kind"] == "resource"

    def test_compile_syntax_error_position(self, cli):
        code, _, err = cli("compile", "--expr", "a &")
        assert code == 1
        assert "position" in json.loads(err)["error"]["message"]


class TestFixtureFreshness:
    @pytest.mark.parametrize("name,expr,basis", [
        ("or2", "a | b", "mixed"), ("and2", "a & b", "mixed"),
        ("nor2", "a @| b", "mixed"), ("nand2", "a @& b", "mixed"),
        ("not1", "!a", "mixed")])
    def test_gate_fixtures_are_what_compile_emits(self, cli, tmp_path,
                                                  name, expr, basis):
        target = tmp_path / "fresh.json"
        cli("compile", "--expr", expr, "--basis", basis, "--out", str(target))
        assert target.read_text() == fixture_path(f"{name}.json").read_text()

    def test_half_adder_fixture_is_fresh(self, tmp_path):
        from cascade_logic import compile_half_adder, save_circuit
        target = tmp_path / "ha.json"
        save_circuit(compile_half_adder(), target)
        assert target.read_text() == fixture_path("half_adder.json").read_text()


class TestFixpoints:
    def test_triangle_matches_golden(self, cli):
        code, out, err = cli("fixpoints", "--net",
                             str(fixture_path("triangle.json")))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "triangle.fixpoints.json").read_text()
        assert json.loads(out)["fixpoints"] == [[0, 1], [0, 2]]

    def test_truncation_exits_3(self, cli, tmp_path):
        target = tmp_path / "net.json"
        cli("gen", "--n", "16", "--z", "3", "--rule", "agcm",
            "--phi", "const:0.3", "--seed", "3", "--out", str(target))
        code, out, err = cli("fixpoints", "--net", str(target),
                             "--seeds", "0", "--cap", "4")
        assert code == 3
        assert json.loads(out)["truncated"] is True
        assert json.loads(err)["error"]["kind"] == "resource"

    @staticmethod
    def assert_text_is_json_dumps(cli, path, network, seeds, cap):
        """`fixpoints`' stdout on `network` with `seeds` is the json.dumps
        of its document, fixpoints as sorted lists in list order."""
        save_network(Network(network.graph, network.antagonistic, network.phi, seeds), path)
        code, out, _ = cli("fixpoints", "--net", str(path), "--cap", str(cap))
        found = enumerate_fixpoints(load_network(path), state_cap=cap)
        assert code == (3 if found.truncated else 0)
        assert out == json.dumps({
            "fixpoints": sorted(sorted(fp) for fp in found.fixpoints),
            "explored": found.explored_states,
            "truncated": found.truncated}, indent=1) + "\n"
        return found

    def test_text_is_json_dumps_on_small_mixed_nets(self, cli, tmp_path):
        truncated = many = 0
        for case in range(40):
            network, seeds = small_network(make_rng(case), 14)
            for cap in (1, 3, 2 ** network.n, DEFAULT_STATE_CAP):
                found = self.assert_text_is_json_dumps(cli, tmp_path / "net.json",
                                                       network, seeds, cap)
                truncated += found.truncated
                many += len(found.fixpoints) > 2
        assert truncated and many  # both kinds of search were written

    def test_text_of_the_empty_fixpoint(self, cli, tmp_path):
        # nothing is seeded and nothing fires: the one fixpoint is empty
        found = self.assert_text_is_json_dumps(
            cli, tmp_path / "net.json", network_of(1, False, [], phi=1.0), frozenset(), 1)
        assert found.fixpoints == {frozenset()}

    @pytest.mark.parametrize("n", [63, 64, 65, 72, 96, 130])
    def test_text_is_json_dumps_across_words(self, cli, tmp_path, n):
        # the highest ids are free, so the ids of a fixpoint span every word
        rng = make_rng(n)
        for case in range(6):
            network, _ = random_instance(n * 100 + case, n, 3.0,
                                         Rule.ANTAGONISTIC if case % 2 else Rule.MONOTONE)
            free = set(range(n - 6, n)) | {int(u) for u in rng.permutation(n)[:4]}
            for cap in (int(rng.integers(1, 40)), DEFAULT_STATE_CAP):
                self.assert_text_is_json_dumps(cli, tmp_path / "net.json", network,
                                               frozenset(range(n)) - free, cap)

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ("fixpoints", "--net", str(fixture_path("triangle.json"))),
        ("verify-gcm", "--n", "8", "--z", "2", "--instances", "3", "--seed", "1")],
        ids=["fixpoints", "verify-gcm"])
    def test_cap_below_one_is_usage_error(self, cli, argv, cap):
        code, out, err = cli(*argv, "--cap", cap)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "kind": "usage", "message": f"state_cap must be >= 1, got {cap}"}


class TestSensitivityAndVerify:
    def test_sensitivity_report(self, cli):
        args = ("sensitivity", "--net", str(fixture_path("half_adder.json")),
                "--assign", "a=1,b=0", "--trials", "50", "--seed", "4")
        code, out, _ = cli(*args)
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 50
        assert 0 <= doc["agree_fraction"] <= 1
        assert doc["reference_output"] == [1, 0]
        _, again, _ = cli(*args)
        assert again == out

    def test_verify_gcm(self, cli):
        code, out, _ = cli("verify-gcm", "--n", "8", "--z", "2",
                           "--instances", "20", "--seed", "11")
        assert code == 0
        assert json.loads(out)["verdict"] == "unique"

    def test_verify_gcm_inconclusive_exits_3(self, cli):
        code, out, err = cli("verify-gcm", "--n", "12", "--z", "3",
                             "--instances", "5", "--seed", "1", "--cap", "2")
        assert code == 3
        assert json.loads(out)["verdict"] == "inconclusive"
        assert json.loads(err)["error"]["kind"] == "resource"


class TestSizeCaps:
    """Every size flag is checked before anything of its size is built."""

    SWEEP = ("sweep", "--phi", "0.2", "--rule", "gcm", "--seed", "5", "--jobs", "1")
    SENSITIVITY = ("sensitivity", "--net", str(fixture_path("half_adder.json")),
                   "--assign", "a=1,b=0", "--seed", "4")

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "10000000000", "--z", "3", "--seed", "1"),
        ("gen", "--n", "100000", "--p", "1", "--seed", "1"),
        SWEEP + ("--n", "10000000000", "--z", "3", "--realizations", "1"),
        SWEEP + ("--n", "1048576", "--z", "10", "--realizations", "1"),
        SWEEP + ("--n", "10", "--z", "1:8:1", "--realizations", "1000000000"),
        ("verify-gcm", "--n", "8", "--z", "2", "--instances", "1000000000", "--seed", "1"),
        SENSITIVITY + ("--trials", "1000000000"),
    ], ids=lambda argv: " ".join(argv[:1] + argv[-4:]))
    def test_past_a_cap_exits_3_without_building(self, cli, argv):
        tracemalloc.start()
        try:
            code, out, err = cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["kind"] == "resource"
        assert peak < 2**20

    def test_node_cap_boundary(self, cli, monkeypatch):
        monkeypatch.setattr(net_module, "MAX_NODES", 30)
        for n, code in (("30", 0), ("31", 3)):
            assert cli("gen", "--n", n, "--z", "2", "--seed", "1")[0] == code
            assert cli(*self.SWEEP, "--n", n, "--z", "2", "--realizations", "2")[0] == code

    def test_edge_cap_boundary(self, cli, monkeypatch):
        # K10 has 45 edges; at n = 33 and z = 4, p = 1/8 expects 66
        for cap, code in ((45, 0), (44, 3)):
            monkeypatch.setattr(net_module, "MAX_EXPECTED_EDGES", cap)
            assert cli("gen", "--n", "10", "--p", "1", "--seed", "1")[0] == code
        runs = record_runs(monkeypatch, experiments_module, "_run_sizes")
        for cap, code in ((66, 0), (65, 3)):
            monkeypatch.setattr(net_module, "MAX_EXPECTED_EDGES", cap)
            runs.clear()
            assert cli(*self.SWEEP, "--n", "33", "--z", "1:4:1", "--realizations", "1")[0] == code
            # the largest z is checked before the smaller ones run
            assert runs == ([range(4)] if code == 0 else [])

    def test_task_cap_boundary(self, cli, monkeypatch):
        monkeypatch.setattr(seeds_module, "MAX_TASKS", 4)
        for k, code in (("4", 0), ("5", 3)):
            assert cli(*self.SWEEP, "--n", "20", "--z", "2", "--realizations", k)[0] == code
            assert cli("verify-gcm", "--n", "8", "--z", "2", "--instances", k,
                       "--seed", "1")[0] == code
            assert cli(*self.SENSITIVITY, "--trials", k)[0] == code
        # a sweep's tasks are its realizations at every z value
        assert cli(*self.SWEEP, "--n", "20", "--z", "1:2:1", "--realizations", "2")[0] == 0
        assert cli(*self.SWEEP, "--n", "20", "--z", "1:3:1", "--realizations", "2")[0] == 3


class TestSweep:
    def test_byte_identical_across_invocations_and_jobs(self, cli, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ("sweep", "--n", "60", "--z", "1:3:1", "--phi", "0.18",
                "--rule", "agcm", "--realizations", "6", "--metric", "median",
                "--seed", "21")
        assert cli(*base, "--out", str(out_a))[0] == 0
        assert cli(*base, "--out", str(out_b))[0] == 0
        assert cli(*base, "--jobs", "3", "--out", str(out_c))[0] == 0
        assert out_a.read_text() == out_b.read_text() == out_c.read_text()

    def test_z_range_inclusive(self, cli):
        code, out, _ = cli("sweep", "--n", "50", "--z", "1:3:1", "--phi", "0.2",
                           "--rule", "gcm", "--realizations", "2", "--seed", "5")
        assert code == 0
        body = [line for line in out.splitlines()
                if line and not line.startswith("#")]
        assert [line.split(",")[0] for line in body[1:]] == ["1", "2", "3"]

    def test_dump_sizes(self, cli, tmp_path):
        dump = tmp_path / "sizes.json"
        code, _, _ = cli("sweep", "--n", "40", "--z", "2", "--phi", "0.18",
                         "--rule", "agcm", "--realizations", "5", "--seed", "3",
                         "--out", str(tmp_path / "x.csv"),
                         "--dump-sizes", str(dump))
        assert code == 0
        doc = json.loads(dump.read_text())
        assert doc[0]["z"] == 2.0
        assert len(doc[0]["sizes"]) == 5

    @pytest.mark.parametrize("flag", ["--out", "--dump-sizes"])
    def test_unwritable_output_fails_before_any_realization(self, cli, monkeypatch,
                                                            tmp_path, flag):
        runs = record_runs(monkeypatch, experiments_module, "_run_sizes")
        argv = ("sweep", "--n", "30", "--z", "2", "--phi", "0.2", "--rule", "gcm",
                "--realizations", "2", "--seed", "5", "--jobs", "1")
        missing = str(tmp_path / "nodir" / "out.json")
        code, out, err = cli(*argv, flag, missing)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "input"
        assert runs == []
        assert cli(*argv, flag, str(tmp_path / "out.json"))[0] == 0
        assert runs == [range(2)]

    def test_z_range_above_the_cap_exits_3_without_building_it(self, cli):
        # a step of 1e-9 asks for 10^9 + 1 values; they are counted, not built
        tracemalloc.start()
        try:
            code, out, err = cli("sweep", "--n", "30", "--z", "0.5:1.5:1e-9", "--phi", "0.2",
                                 "--rule", "gcm", "--realizations", "2", "--seed", "5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {"kind": "resource", "message":
            f"--z range '0.5:1.5:1e-9' has more than {MAX_Z_VALUES} values"}}
        assert peak < 2**20

    def test_z_range_cap_boundary(self):
        assert len(_parse_z_range(f"0:{MAX_Z_VALUES - 1}:1")) == MAX_Z_VALUES
        for text in (f"0:{MAX_Z_VALUES}:1", "0:inf:1"):
            with pytest.raises(LimitExceeded):
                _parse_z_range(text)

    @pytest.mark.parametrize("z", ["3:2:1", "3:2.5:1", "inf:1:1", "1:-inf:1"])
    def test_z_range_running_backwards_is_empty(self, cli, z):
        # a stop below the start by less than one step, or by an infinite span
        code, out, err = cli("sweep", "--n", "4", f"--z={z}", "--phi", "0.2", "--rule", "gcm",
                             "--realizations", "1", "--seed", "1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and json.loads(err) == {"error": {"kind": "usage",
            "message": f"empty z range {z!r}"}}

    def test_bad_metric(self, cli):
        code, _, err = cli("sweep", "--n", "40", "--z", "2", "--phi", "0.18",
                           "--rule", "agcm", "--realizations", "5", "--seed", "3",
                           "--metric", "mode")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"


class TestErrorPaths:
    def test_missing_file_exits_2(self, cli, tmp_path):
        code, _, err = cli("stats", "--net", str(tmp_path / "nope.json"))
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"

    def test_malformed_file_exits_2(self, cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = cli("stats", "--net", str(bad))
        assert code == 2
        assert "line" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("command", ["stats", "table"])
    @pytest.mark.parametrize("endpoint", [10 ** 20, -10 ** 20])
    def test_endpoint_outside_int64_exits_2(self, cli, tmp_path, command, endpoint):
        # no node id lies outside int64, so it is a missing node like any other
        doc = {"directed": command == "table",
               "nodes": [{"id": i, "rule": "gcm", "phi": 0.5} for i in range(2)],
               "edges": [[0, 1], [0, endpoint]], "seeds": [],
               "inputs": {"a": 0}, "outputs": {"out": 1}}
        target = tmp_path / "net.json"
        target.write_text(json.dumps(doc))
        code, out, err = cli(command, "--net", str(target))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "input", "message": f"edge (0, {endpoint}) references a missing node"}}

    @pytest.mark.parametrize("command", ["eval", "table"])
    def test_circuit_input_that_fires_on_its_own_exits_2(self, cli, tmp_path, command):
        # an antagonistic input with cutoff 1 labels itself when its bit is 0
        doc = {"directed": True,
               "nodes": [{"id": 0, "rule": "agcm", "phi": 0.5},
                         {"id": 1, "rule": "gcm", "phi": 0.5},
                         {"id": 2, "rule": "gcm", "phi": 0.5}],
               "edges": [[0, 2], [1, 2]], "seeds": [],
               "inputs": {"a": 0, "b": 1}, "outputs": {"out": 2}}
        target = tmp_path / "net.json"
        target.write_text(json.dumps(doc))
        argv = ["--assign", "a=0,b=0"] if command == "eval" else []
        code, out, err = cli(command, "--net", str(target), *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and error["message"].startswith("input 'a' fires")

    @pytest.mark.parametrize("argv", [["stats", "--help"], ["-h"], ["sweep", "-h"]])
    def test_help_returns_0(self, cli, argv):
        code, out, err = cli(*argv)
        assert (code, err) == (0, "")
        assert "usage:" in out

    def test_unknown_subcommand_exits_1(self, cli):
        code, _, err = cli("frobnicate")
        assert code == 1


def main_through_pipe(argv, fifo: Path):
    """Run `main(argv)`, which writes to the named pipe `fifo`, while a
    thread reads the pipe: (the exit code, or None when main has not
    returned within 10 s, and the bytes read)."""
    os.mkfifo(fifo)
    got, codes = [], []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    writer = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    reader.start()
    writer.start()
    writer.join(10)
    hung = writer.is_alive()
    if hung:  # blocked opening a pipe that no one reads: let its write fail
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
    if reader.is_alive():  # main never opened the pipe
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    reader.join(10)
    assert not (writer.is_alive() or reader.is_alive())
    return None if hung else codes[0], got[0]


# each file writer of the CLI: argv of a longer and of a shorter output, and its flag
WRITERS = {
    "gen": (["gen", "--n", "30", "--z", "3", "--seed", "7"],
            ["gen", "--n", "5", "--z", "1", "--seed", "7"], "--out"),
    "compile": (["compile", "--expr", "a ^ b ^ c ^ d ^ e", "--basis", "nand"],
                ["compile", "--expr", "a ^ b", "--basis", "nand"], "--out"),
    "table": (["table", "--net", str(fixture_path("half_adder.json"))],
              ["table", "--net", str(fixture_path("not1.json"))], "--out"),
    "sweep": (["sweep", "--n", "30", "--z", "1:3:1", "--phi", "0.2", "--rule", "gcm",
               "--realizations", "2", "--seed", "5", "--jobs", "1"],
              ["sweep", "--n", "30", "--z", "2", "--phi", "0.2", "--rule", "gcm",
               "--realizations", "2", "--seed", "5", "--jobs", "1"], "--out"),
    "dump-sizes": (["sweep", "--n", "30", "--z", "2", "--phi", "0.2", "--rule", "gcm",
                    "--realizations", "6", "--seed", "5", "--jobs", "1"],
                   ["sweep", "--n", "30", "--z", "2", "--phi", "0.2", "--rule", "gcm",
                    "--realizations", "1", "--seed", "5", "--jobs", "1"], "--dump-sizes"),
}


@pytest.mark.parametrize("longer, shorter, flag", WRITERS.values(), ids=WRITERS)
class TestOutputFiles:
    """Every output file is rewritten in place and cut at its new end."""

    def test_a_shorter_output_leaves_no_tail(self, cli, tmp_path, longer, shorter, flag):
        target, fresh = tmp_path / "out", tmp_path / "fresh"
        assert cli(*longer, flag, str(target))[0] == 0
        longer_size = target.stat().st_size
        assert cli(*shorter, flag, str(target))[0] == 0
        assert cli(*shorter, flag, str(fresh))[0] == 0
        assert 0 < fresh.stat().st_size < longer_size
        assert target.read_bytes() == fresh.read_bytes()

    def test_dev_null(self, cli, longer, shorter, flag):
        code, _, err = cli(*longer, flag, os.devnull)
        assert (code, err) == (0, "")

    def test_a_named_pipe_gets_the_output(self, cli, tmp_path, longer, shorter, flag):
        # a reader takes the first close of the pipe for the end of the output
        regular = tmp_path / "regular"
        assert cli(*longer, flag, str(regular))[0] == 0
        code, got = main_through_pipe([*longer, flag, str(tmp_path / "fifo")],
                                      tmp_path / "fifo")
        assert (code, got) == (0, regular.read_bytes())

    def test_a_directory_exits_2(self, cli, tmp_path, longer, shorter, flag):
        code, out, err = cli(*longer, flag, str(tmp_path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "input", "message": f"[Errno 21] Is a directory: {str(tmp_path)!r}"}}

    def test_no_open_truncates(self, cli, monkeypatch, tmp_path, longer, shorter, flag):
        target = tmp_path / "out"
        flags = []
        real = os.open

        def recording(path, flag, *args, **kwargs):
            if os.fspath(path) == str(target):
                flags.append(flag)
            return real(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        assert cli(*longer, flag, str(target))[0] == 0
        assert cli(*shorter, flag, str(target))[0] == 0
        assert len(flags) == 2
        assert not any(f & os.O_TRUNC for f in flags)


# each writer's command failing after its output is open: its argv, its exit
# code, and the work function patched to raise, if any
FAILURES = {
    "gen": (["gen", "--n", str(net_module.MAX_NODES + 1), "--z", "3", "--seed", "7"], 3, None),
    "compile": (["compile", "--expr", "a |", "--basis", "nand"], 1, None),
    "table": (WRITERS["table"][0], 3, "truth_table"),
    "sweep": (WRITERS["sweep"][0], 3, "sweep_sizes"),
    "dump-sizes": (WRITERS["dump-sizes"][0], 3, "sweep_sizes"),
}


@pytest.mark.parametrize("name", FAILURES)
def test_a_failure_after_the_open_leaves_the_path_as_it_was(cli, monkeypatch, tmp_path, name):
    argv, code, work = FAILURES[name]
    if work is not None:
        def failing(*args, **kwargs):
            raise LimitExceeded("the work failed")
        monkeypatch.setattr(cli_module, work, failing)
    expected = cli(*argv)  # the same failure with nothing to write
    assert expected[:2] == (code, "")
    new, existing = tmp_path / "new", tmp_path / "existing"
    old = b"old bytes\n" * 100
    existing.write_bytes(old)
    for target in (new, existing):
        assert cli(*argv, WRITERS[name][2], str(target)) == expected
    assert os.listdir(tmp_path) == ["existing"]
    assert existing.read_bytes() == old


def test_one_path_for_out_and_dump_sizes_ends_with_the_csv(cli, tmp_path):
    # the dump is written and closed before the CSV; the digest is the CSV's
    # as the commit before `net.open_output` wrote it
    both, csv = tmp_path / "both", tmp_path / "csv"
    argv = WRITERS["sweep"][0]
    assert cli(*argv, "--out", str(both), "--dump-sizes", str(both)) == (0, "", "")
    assert cli(*argv, "--out", str(csv)) == (0, "", "")
    assert both.read_bytes() == csv.read_bytes()
    assert hashlib.sha256(both.read_bytes()).hexdigest() == (
        "26029563b4dc1bfb15a077ea5694fc454ceeaf80c783b995f6f711806d30a55e")


class TestOutputGoldens:
    """Digests recorded before `net.open_output` existed: the `fixpoints`
    text of two searches and a large network file that `gen` writes."""

    def test_xor6_nand_fixpoints(self, cli, tmp_path):
        circuit = str(tmp_path / "xor6.json")
        expr = " ^ ".join(f"x{i}" for i in range(6))
        assert cli("compile", "--expr", expr, "--basis", "nand", "--out", circuit) == (0, "", "")
        # x0, x2 and x4 are the inputs set, at ids 0, 6 and 16
        code, out, err = cli("fixpoints", "--net", circuit, "--seeds", "0,6,16")
        assert (code, err, len(json.loads(out)["fixpoints"])) == (0, "", 687)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c62dd5cd404484858866304f0bccf0f1a02e63fc4fe86e48e20f9a69197114dd")

    def test_antagonistic_16_node_fixpoints(self, cli, tmp_path):
        net = str(tmp_path / "gen16.json")
        argv = ("gen", "--n", "16", "--z", "3", "--rule", "agcm", "--seed", "2", "--out", net)
        assert cli(*argv) == (0, "", "")
        code, out, err = cli("fixpoints", "--net", net, "--seeds", "0")
        assert (code, err, len(json.loads(out)["fixpoints"])) == (0, "", 1043)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e2a82a96bbfb9488b26f51ea40b25c826143ca220b78b8ef73cf7d412334b35f")

    def test_gen_5000_file(self, cli, tmp_path):
        net = tmp_path / "gen.json"
        argv = ("gen", "--n", "5000", "--z", "3", "--rule", "agcm", "--seed", "1")
        assert cli(*argv, "--out", str(net)) == (0, "", "")
        assert hashlib.sha256(net.read_bytes()).hexdigest() == (
            "f7cd0406241c89163d9823bfab3d3794d7d05c3dfc8e9017c2813ddccf77aea6")


class TestParserOnce:
    def test_main_never_builds_a_parser(self, cli, monkeypatch):
        def no_parser():
            raise AssertionError("main built a parser")
        monkeypatch.setattr(cli_module, "_build_parser", no_parser)
        for _ in range(2):
            code, out, _ = cli("stats", "--net", str(fixture_path("triangle.json")))
            assert code == 0
            assert json.loads(out)["n"] == 3

    def test_jobs_flag_reaches_sweep(self, cli, monkeypatch):
        seen = []
        real_sweep_sizes = cli_module.sweep_sizes

        def recording_sweep_sizes(spec, jobs=None):
            seen.append(jobs)
            return real_sweep_sizes(spec, jobs=1)  # no worker pool

        monkeypatch.setattr(cli_module, "sweep_sizes", recording_sweep_sizes)
        argv = ("sweep", "--n", "20", "--z", "2", "--phi", "0.2", "--rule", "gcm",
                "--realizations", "2", "--seed", "5")
        assert cli(*argv, "--jobs", "2")[0] == 0
        assert cli(*argv)[0] == 0
        assert seen == [2, None]  # no --jobs: one worker


class TestDispatch:
    """A named command's own parser reads its flags; only help and a missing
    or unknown command reach the top-level parser."""

    ARGVS = [case["argv"] for case in CASES] + [
        [], ["--help"], ["frobnicate"], ["eval"], ["eval", "-h"], ["table", "--he"],
        ["table", "--net", "nand2.json", "--bogus", "1"]]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "<none>")
    def test_same_result_as_the_top_level_parse(self, monkeypatch, tmp_path, argv):
        seen = []
        for name, commands in (("direct", cli_module._COMMANDS), ("top-level", {})):
            monkeypatch.setattr(cli_module, "_COMMANDS", commands)
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            prepare_workdir(workdir)
            seen.append(observe(argv, workdir))
        assert seen[0] == seen[1]

    def test_a_command_never_reaches_the_top_level_parser(self, cli, monkeypatch):
        def no_top_level(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a command")
        monkeypatch.setattr(cli_module._PARSER, "parse_args", no_top_level)
        for name in cli_module._COMMANDS:
            code, _, err = cli(name)  # every command has a required flag
            assert (code, json.loads(err)["error"]["kind"]) == (1, "usage"), name
        code, out, _ = cli("stats", "--net", str(fixture_path("triangle.json")))
        assert (code, json.loads(out)["n"]) == (0, 3)
        with pytest.raises(AssertionError, match="top-level"):
            main([])


@pytest.mark.parametrize("longer, shorter, flag", WRITERS.values(), ids=WRITERS)
def test_an_empty_output_path_exits_2_before_any_work(cli, monkeypatch, longer, shorter,
                                                      flag):
    # the error write_text itself raises for the path ''
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the output check")
    for name in ("generate_er", "compile_expr", "truth_table", "sweep_sizes"):
        monkeypatch.setattr(cli_module, name, no_work)
    code, out, err = cli(*longer, flag, "")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {
        "kind": "input", "message": "[Errno 2] No such file or directory: ''"}}


def run_python(*argv):
    """`python *argv` in a child process that imports this package."""
    path = [str(Path(cascade_logic.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_module(module, *argv):
    """`python -m module *argv` in a child process that imports this package."""
    return run_python("-m", module, *argv)


def test_module_entry_point_runs():
    result = run_module("cascade_logic", "table", "--net", str(fixture_path("nand2.json")))
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "nand2.table.csv").read_text()


def test_cli_module_runs_as_a_program():
    argv = ("stats", "--net", str(fixture_path("triangle.json")))
    package, module = run_module("cascade_logic", *argv), run_module("cascade_logic.cli", *argv)
    assert (module.returncode, module.stderr) == (package.returncode, package.stderr) == (0, "")
    assert module.stdout == package.stdout != ""
    usage = run_module("cascade_logic.cli", "stats")
    assert (usage.returncode, usage.stdout) == (1, "")
    assert json.loads(usage.stderr)["error"]["kind"] == "usage"


def test_compile_imports_no_process_pool(tmp_path):
    # only --jobs above 1 starts a pool, so only it loads the pool's modules
    argv = ["compile", "--expr", "a ^ b", "--out", str(tmp_path / "c.json")]
    result = run_python("-c", "import sys\nfrom cascade_logic.cli import main\n"
                        f"assert main({argv!r}) == 0\n"
                        "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
                        " & set(sys.modules)))")
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")
