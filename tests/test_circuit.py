import hashlib
import io
import json
import operator
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from cascade_logic import circuit as circuit_module
from cascade_logic.circuit import MAX_FAN_IN, input_seeds
from cascade_logic.parser import MAX_NESTING
from cascade_logic import (Basis, CompiledCircuit, GateKind, Graph, LimitExceeded,
                           Network, NetworkFormatError, Rule, Topological, build_gate,
                           compile_expr, compile_half_adder,
                           evaluate, is_monotone_decreasing,
                           is_monotone_increasing, load_circuit, make_rng,
                           parse_expr, phi_for_gate, phi_interval, run_cascade,
                           save_circuit, TruthTable, truth_table, variables)
from conftest import network_of, small_network
from exprgen import random_expr, random_monotone_expr
from oracles import count_fires, eval_expr, gate_truth, in_neighbors, monotone_by_flips

BINARY_KINDS = (GateKind.OR, GateKind.AND, GateKind.NOR, GateKind.NAND)


def table_bits(circuit):
    return [row[0] for row in truth_table(circuit).rows]


class TestPhiForGate:
    def test_canonical_assignments(self):
        or2 = phi_for_gate(GateKind.OR, 2)
        assert (or2.rule, or2.phi) == (Rule.MONOTONE, Fraction(1, 2))
        and2 = phi_for_gate(GateKind.AND, 2)
        assert (and2.rule, and2.phi) == (Rule.MONOTONE, Fraction(3, 4))
        nor2 = phi_for_gate(GateKind.NOR, 2)
        assert (nor2.rule, nor2.phi) == (Rule.ANTAGONISTIC, Fraction(1, 2))
        nand2 = phi_for_gate(GateKind.NAND, 2)
        assert (nand2.rule, nand2.phi) == (Rule.ANTAGONISTIC, Fraction(3, 4))
        inverter = phi_for_gate(GateKind.NOT, 1)
        assert (inverter.rule, inverter.phi) == (Rule.ANTAGONISTIC, Fraction(1, 2))

    def test_nand_assignment_against_rule_rows(self):
        # all four rows of the two-input table, straight from the predicate
        assign = phi_for_gate(GateKind.NAND, 2)
        for bits in product((0, 1), repeat=2):
            fired = count_fires(assign.rule, sum(bits), 2, assign.phi)
            assert int(fired) == gate_truth("nand", bits)

    def test_phi_lies_inside_interval(self):
        for kind in BINARY_KINDS:
            for k in range(2, 9):
                lo, hi = phi_interval(kind, k)
                phi = phi_for_gate(kind, k).phi
                assert lo < phi <= hi

    def test_intervals(self):
        assert phi_interval(GateKind.OR, 4) == (Fraction(0), Fraction(1, 4))
        assert phi_interval(GateKind.AND, 4) == (Fraction(3, 4), Fraction(1))
        assert phi_interval(GateKind.NOT, 1) == (Fraction(0), Fraction(1))

    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            phi_for_gate(GateKind.NOT, 2)
        with pytest.raises(ValueError) as info:
            phi_for_gate(GateKind.OR, 1)
        assert not isinstance(info.value, LimitExceeded)  # a usage error, not a cap
        with pytest.raises(LimitExceeded, match="fan-in"):
            phi_for_gate(GateKind.AND, MAX_FAN_IN + 1)


class TestGateFidelity:
    @pytest.mark.parametrize("kind", BINARY_KINDS)
    @pytest.mark.parametrize("k", range(2, 9))
    def test_kary_tables_match_closed_form(self, kind, k):
        bits = table_bits(build_gate(kind, k))
        for row, inputs in enumerate(product((0, 1), repeat=k)):
            assert bits[row] == gate_truth(kind.value, inputs)

    @pytest.mark.parametrize("kind", [GateKind.NOT, GateKind.BUF])
    def test_single_input_gates(self, kind):
        assert table_bits(build_gate(kind, 1)) == (
            [1, 0] if kind is GateKind.NOT else [0, 1])


def explicit_gate(k, rule, phi):
    """build_gate's circuit written out: inputs 0..k-1, the gate node k."""
    network = Network(Graph.from_edges(k + 1, True, range(k), [k] * k),
                      [False] * k + [rule is Rule.ANTAGONISTIC], [Fraction(1, 2)] * k + [phi])
    return CompiledCircuit(network, {f"x{i}": i for i in range(k)}, {"out": k})


class TestBuildGate:
    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_equals_the_explicit_construction_at_every_fan_in(self, kind):
        one_input = kind in (GateKind.NOT, GateKind.BUF)
        for k in [1] if one_input else range(2, MAX_FAN_IN + 1):
            assign = phi_for_gate(kind, k)
            built, want = build_gate(kind, k), explicit_gate(k, assign.rule, assign.phi)
            assert built == want, k
            assert list(map(type, built.network.phi.tolist())) == [Fraction] * (k + 1)

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_phi_and_rule_overrides(self, kind):
        one_input = kind in (GateKind.NOT, GateKind.BUF)
        for k in [1] if one_input else [2, 3, 17, MAX_FAN_IN]:
            assign = phi_for_gate(kind, k)
            flipped = Rule.MONOTONE if assign.rule is Rule.ANTAGONISTIC else Rule.ANTAGONISTIC
            assert build_gate(kind, k, phi=0.3) == explicit_gate(k, assign.rule, 0.3)
            assert build_gate(kind, k, rule=flipped) == explicit_gate(k, flipped, assign.phi)
            assert build_gate(kind, k, 0.75, flipped) == explicit_gate(k, flipped, 0.75)


class TestCompile:
    def test_and_gate_structure(self):
        circuit = compile_expr("a & b")
        net = circuit.network
        assert net.n == 3
        gate = net.nodes[circuit.outputs["out"]]
        assert gate.rule is Rule.MONOTONE
        assert gate.phi == Fraction(3, 4)
        assert sorted(net.edges) == [(0, 2), (1, 2)]
        assert circuit.inputs == {"a": 0, "b": 1}

    def test_inputs_keep_first_appearance_order(self):
        circuit = compile_expr("c | a & b")
        assert list(circuit.inputs) == ["c", "a", "b"]

    def test_xor_lowered_to_four_nands_in_mixed(self):
        circuit = compile_expr("a ^ b", Basis.MIXED)
        gates = [s for s in circuit.network.nodes
                 if s.rule is Rule.ANTAGONISTIC]
        assert len(gates) == 4
        assert table_bits(circuit) == [0, 1, 1, 0]

    def test_xor_agrees_with_or_and_not_form(self):
        direct = truth_table(compile_expr("a ^ b"))
        spelled = truth_table(compile_expr("(a | b) & !(a & b)"))
        assert direct.rows == spelled.rows

    def test_shared_subexpressions_become_one_node(self):
        circuit = compile_expr("(a & b) | (a & b)")
        # a, b, one AND, and the single-child OR degenerated to a buffer
        assert circuit.network.n == 4

    def test_duplicate_operands_collapse(self):
        assert table_bits(compile_expr("a & a")) == [0, 1]
        assert table_bits(compile_expr("a @& a")) == [1, 0]

    def test_single_variable_circuit(self):
        circuit = compile_expr("a")
        assert table_bits(circuit) == [0, 1]

    @pytest.mark.parametrize("basis", list(Basis))
    def test_bases_agree_on_fixed_examples(self, basis):
        for text, bits in [("a & b", [0, 0, 0, 1]),
                           ("a ^ b", [0, 1, 1, 0]),
                           ("!(a | b) ^ (c & a)", None)]:
            circuit = compile_expr(text, basis)
            if bits is not None:
                assert table_bits(circuit) == bits
            else:
                mixed = table_bits(compile_expr(text, Basis.MIXED))
                assert table_bits(circuit) == mixed

    def test_nand_only_uses_only_inverting_nodes(self):
        circuit = compile_expr("(a | b) & !c ^ d", Basis.NAND_ONLY)
        for spec in circuit.network.nodes:
            if spec.id in circuit.inputs.values():
                continue
            assert spec.rule is Rule.ANTAGONISTIC

    def test_random_bases_equivalence(self):
        rng = make_rng(2024)
        for _ in range(60):
            expr = random_expr(rng)
            tables = [truth_table(compile_expr(expr, basis)).rows
                      for basis in Basis]
            assert tables[0] == tables[1] == tables[2]

    def test_tables_match_direct_ast_evaluation(self):
        rng = make_rng(555)
        for _ in range(40):
            expr = random_expr(rng, max_depth=4, max_vars=4)
            circuit = compile_expr(expr)
            names = variables(expr)
            bits = table_bits(circuit)
            for row, inputs in enumerate(product((0, 1), repeat=len(names))):
                env = dict(zip(names, inputs))
                assert bits[row] == eval_expr(expr, env)


class TestEvaluate:
    def test_gate_rows_by_cascade(self):
        or2 = build_gate(GateKind.OR, 2)
        assert evaluate(or2, {"x0": 0, "x1": 1}) == {"out": 1}
        nor2 = build_gate(GateKind.NOR, 2)
        assert evaluate(nor2, {"x0": 0, "x1": 0}) == {"out": 1}
        inverter = build_gate(GateKind.NOT, 1)
        assert evaluate(inverter, {"x0": 1}) == {"out": 0}

    def test_truth_table_equals_row_by_row_evaluation(self):
        rng = make_rng(99)
        for _ in range(25):
            circuit = compile_expr(random_expr(rng, max_depth=4, max_vars=4))
            names = truth_table(circuit).input_names
            for row, inputs in enumerate(product((0, 1), repeat=len(names))):
                by_cascade = evaluate(circuit, dict(zip(names, inputs)))
                assert truth_table(circuit).rows[row] == tuple(
                    by_cascade[name] for name in truth_table(circuit).output_names)

    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_equals_a_topological_run_on_every_row(self, basis):
        # `eval` reads the labels that `run --mode topo` reports
        rng = make_rng(4417)
        for i in range(100):
            circuit = compile_expr(random_expr(rng, max_depth=4, max_vars=1 + i % 5), basis)
            names = tuple(circuit.inputs)
            for bits in product((0, 1), repeat=len(names)):
                assignment = dict(zip(names, bits))
                final = run_cascade(circuit.network, input_seeds(circuit, assignment),
                                    Topological()).final
                assert evaluate(circuit, assignment) == {
                    name: int(nid in final) for name, nid in circuit.outputs.items()}, i

    def test_missing_and_extra_inputs_rejected(self):
        circuit = compile_expr("a & b")
        with pytest.raises(ValueError, match="missing"):
            evaluate(circuit, {"a": 1})
        with pytest.raises(ValueError, match="unexpected"):
            evaluate(circuit, {"a": 1, "b": 0, "c": 1})


class TestHalfAdder:
    def test_structure(self):
        circuit = compile_half_adder()
        assert circuit.network.n == 7
        assert set(circuit.outputs) == {"sum", "carry"}

    @pytest.mark.parametrize("a,b", list(product((0, 1), repeat=2)))
    def test_adds_two_bits(self, a, b):
        outputs = evaluate(compile_half_adder(), {"a": a, "b": b})
        assert outputs["sum"] == a ^ b
        assert outputs["carry"] == a & b

    def test_table_columns(self):
        table = truth_table(compile_half_adder())
        assert [r[0] for r in table.rows] == [0, 1, 1, 0]
        assert [r[1] for r in table.rows] == [0, 0, 0, 1]


class TestPhiIntervals:
    @pytest.mark.parametrize("kind,k", [(k, f) for k in BINARY_KINDS
                                        for f in (2, 3, 5)]
                             + [(GateKind.NOT, 1), (GateKind.BUF, 1)])
    def test_interior_points_fixed_boundary_probes_flip(self, kind, k):
        lo, hi = phi_interval(kind, k)
        reference = table_bits(build_gate(kind, k))
        eps = Fraction(1, 10 ** 9)
        inside = [lo + (hi - lo) * Fraction(i, 22) for i in range(1, 22)] + [hi]
        for phi in inside:
            assert table_bits(build_gate(kind, k, phi=phi)) == reference, phi
        outside = [lo]
        if lo - eps >= 0:
            outside.append(lo - eps)
        if hi + eps <= 1:
            outside.append(hi + eps)
        for phi in outside:
            assert table_bits(build_gate(kind, k, phi=phi)) != reference, phi


class TestMonotonicity:
    def test_or_is_increasing(self):
        table = truth_table(build_gate(GateKind.OR, 3))
        assert is_monotone_increasing(table)
        assert not is_monotone_decreasing(table)

    def test_nand_is_decreasing(self):
        table = truth_table(build_gate(GateKind.NAND, 2))
        assert is_monotone_decreasing(table)
        assert not is_monotone_increasing(table)

    def test_xor_is_neither(self):
        table = truth_table(compile_expr("a ^ b"))
        assert not is_monotone_increasing(table)
        assert not is_monotone_decreasing(table)

    def test_monotone_circuits_are_increasing(self):
        rng = make_rng(31)
        for _ in range(60):
            circuit = compile_expr(random_monotone_expr(rng))
            assert all(s.rule is Rule.MONOTONE for s in circuit.network.nodes)
            assert is_monotone_increasing(truth_table(circuit))

    def test_multi_output_rejected_column_works(self):
        table = truth_table(compile_half_adder())
        with pytest.raises(ValueError, match="single-output"):
            is_monotone_increasing(table)
        assert not is_monotone_increasing(table.column("sum"))
        assert is_monotone_increasing(table.column("carry"))


def random_table(rng, m):
    """A table over m inputs with a uniformly random output column."""
    inputs = np.array(list(product((0, 1), repeat=m)), dtype=np.uint8)
    out = rng.integers(0, 2, size=(1 << m, 1), dtype=np.uint8)
    return TruthTable(tuple(f"x{j}" for j in range(m)), ("out",), np.hstack([inputs, out]))


CHECKS = [(is_monotone_increasing, operator.gt), (is_monotone_decreasing, operator.lt)]


class TestMonotonicityOracle:
    @pytest.mark.parametrize("check,breaks", CHECKS, ids=("increasing", "decreasing"))
    def test_random_tables_match(self, check, breaks):
        rng = make_rng(77)
        tables = [random_table(rng, 1 + i % 4) for i in range(400)]
        tables += [truth_table(compile_expr(gen(rng, max_vars=5)))
                   for gen in (random_expr, random_monotone_expr) for _ in range(60)]
        verdicts = [check(t) for t in tables]
        assert verdicts == [monotone_by_flips(t, breaks) for t in tables]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("check,breaks", CHECKS, ids=("increasing", "decreasing"))
    def test_half_adder_columns_match(self, check, breaks):
        table = truth_table(compile_half_adder())
        for name in table.output_names:
            column = table.column(name)
            assert column.input_names == ("a", "b")
            assert check(column) == monotone_by_flips(column, breaks)

    @pytest.mark.parametrize("out", list(product((0, 1), repeat=2)))
    def test_one_input_tables_match(self, out):
        table = TruthTable(("x",), ("out",), np.array([[0, out[0]], [1, out[1]]], dtype=np.uint8))
        for check, breaks in CHECKS:
            assert check(table) == monotone_by_flips(table, breaks)
        assert is_monotone_increasing(table) == (out != (1, 0))
        assert is_monotone_decreasing(table) == (out != (0, 1))


class TestDeMorganDuality:
    @pytest.mark.parametrize("kind,complement", [
        (GateKind.OR, "nor"), (GateKind.AND, "nand"),
        (GateKind.NOR, "or"), (GateKind.NAND, "and")])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_flipping_rules_complements_output(self, kind, complement, k):
        # same phi, opposite rule: each gate turns into its complement
        flipped_rule = (Rule.ANTAGONISTIC if phi_for_gate(kind, k).rule is
                        Rule.MONOTONE else Rule.MONOTONE)
        flipped = build_gate(kind, k, rule=flipped_rule)
        bits = table_bits(flipped)
        for row, inputs in enumerate(product((0, 1), repeat=k)):
            assert bits[row] == gate_truth(complement, inputs)


class TestCircuitFiles:
    def test_round_trip_preserves_tables_and_ports(self, tmp_path):
        circuit = compile_expr("(a | b) ^ !(c & a)", Basis.NAND_ONLY)
        target = tmp_path / "circuit.json"
        save_circuit(circuit, target)
        loaded = load_circuit(target)
        assert loaded.inputs == circuit.inputs
        assert loaded.outputs == circuit.outputs
        assert truth_table(loaded).rows == truth_table(circuit).rows

    def test_round_trip_structural_equality_for_binary_gates(self, tmp_path):
        circuit = compile_half_adder()
        target = tmp_path / "ha.json"
        save_circuit(circuit, target)
        assert load_circuit(target).network == circuit.network

    def test_round_trip_keeps_cutoffs_at_every_fan_in(self):
        # files hold float(phi); the canonical Fraction must give the same cutoffs
        for kind in GateKind:
            single = kind in (GateKind.NOT, GateKind.BUF)
            for k in (1,) if single else range(2, MAX_FAN_IN + 1):
                circuit = build_gate(kind, k)
                text = io.StringIO()
                save_circuit(circuit, text)
                loaded = load_circuit(io.StringIO(text.getvalue()))
                assert np.array_equal(loaded.network.cutoff,
                                      circuit.network.cutoff), (kind, k)

    def test_plain_network_is_not_a_circuit(self, tmp_path, triangle):
        from cascade_logic import save_network
        target = tmp_path / "net.json"
        save_network(triangle, target)
        with pytest.raises(NetworkFormatError, match="inputs"):
            load_circuit(target)

    def test_cyclic_circuit_file_rejected(self, tmp_path):
        import json
        doc = {"directed": True,
               "nodes": [{"id": 0, "rule": "gcm", "phi": 0.5},
                         {"id": 1, "rule": "agcm", "phi": 0.5},
                         {"id": 2, "rule": "agcm", "phi": 0.5}],
               "edges": [[0, 1], [1, 2], [2, 1]],
               "seeds": [], "inputs": {"a": 0}, "outputs": {"out": 2}}
        target = tmp_path / "cyclic.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match="cycle"):
            load_circuit(target)


def test_table_input_guard():
    wide = " | ".join(f"v{i}" for i in range(21))
    with pytest.raises(ValueError, match="limit"):
        truth_table(compile_expr(wide))


def test_table_cell_guard(monkeypatch):
    adder = compile_half_adder()  # 4 rows of 2 input and 2 output cells
    monkeypatch.setattr(circuit_module, "MAX_TABLE_CELLS", 16)
    assert truth_table(adder).bits.shape == (4, 4)
    monkeypatch.setattr(circuit_module, "MAX_TABLE_CELLS", 15)
    with pytest.raises(LimitExceeded, match="limit is 15 cells"):
        truth_table(adder)


@pytest.mark.parametrize("block_bytes, blocks", [(circuit_module.TABLE_BLOCK_BYTES, 1), (1, 4)])
def test_table_step_guard(monkeypatch, block_bytes, blocks):
    adder = compile_half_adder()  # 4 rows, in one block or in one block a row
    monkeypatch.setattr(circuit_module, "TABLE_BLOCK_BYTES", block_bytes)
    steps = blocks * (adder.network.n + adder.network.graph.src.size)
    monkeypatch.setattr(circuit_module, "MAX_TABLE_STEPS", steps)
    assert truth_table(adder).bits.shape == (4, 4)
    monkeypatch.setattr(circuit_module, "MAX_TABLE_STEPS", steps - 1)
    with pytest.raises(LimitExceeded, match=f"would take {steps} steps; the limit is {steps - 1}"):
        truth_table(adder)


@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
def test_twenty_input_xor_tabulates_in_every_basis(basis):
    bits = truth_table(compile_expr(" ^ ".join(f"x{i}" for i in range(20)), basis)).bits
    assert bits.shape == (1 << 20, 21)
    assert np.array_equal(bits[:, 20], bits[:, :20].sum(axis=1) % 2)


class TestSelfFiringInputs:
    """An input must stay unlabeled when its bit is 0, as the table assumes."""

    @pytest.mark.parametrize("rule, phi, fires", [
        (Rule.ANTAGONISTIC, 0.5, True), (Rule.MONOTONE, 0.0, True),
        (Rule.ANTAGONISTIC, 0.0, False), (Rule.MONOTONE, Fraction(1, 2), False)])
    def test_input_that_fires_on_its_own_rejected(self, rule, phi, fires):
        net = network_of(3, True, ((0, 2), (1, 2)), [rule, Rule.MONOTONE, Rule.MONOTONE],
                         [phi, 0.5, 0.5])
        ports = dict(inputs={"a": 0, "b": 1}, outputs={"out": 2})
        if fires:
            with pytest.raises(ValueError, match="input 'a' fires on its own"):
                CompiledCircuit(network=net, **ports)
        else:
            assert truth_table(CompiledCircuit(network=net, **ports)).rows == \
                ((0,), (1,), (1,), (1,))

    def test_random_dag_tables_equal_row_by_row_evaluation(self):
        # inputs are the inert in-degree-0 nodes; outputs every node they reach
        rng = make_rng(4242)
        checked = 0
        for case in range(300):
            net, _ = small_network(rng, 7, dag=True)
            graph = net.graph
            inert = (0 >= net.cutoff) == net.antagonistic
            sources = np.flatnonzero((graph.degrees == 0) & inert).tolist()
            if not sources:
                continue
            reach = set(sources)
            for u in graph.topological_order:
                if any(v in reach for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]):
                    reach.add(u)
            circuit = CompiledCircuit(network=net, inputs={f"i{u}": u for u in sources},
                                      outputs={f"o{u}": u for u in sorted(reach)})
            assert tuple(map(tuple, truth_table(circuit).bits.tolist())) == \
                rows_by_evaluate(circuit), case
            checked += 1
        assert checked > 200


def test_majority_file_table_equals_row_by_row_evaluation(tmp_path):
    # a node the compiler never emits: 3 of 5 inputs, cutoff 3 of in-degree 5
    target = tmp_path / "majority.json"
    target.write_text(json.dumps({
        "directed": True,
        "nodes": [{"id": i, "rule": "gcm", "phi": 0.5} for i in range(5)]
                 + [{"id": 5, "rule": "gcm", "phi": 0.6}],
        "edges": [[i, 5] for i in range(5)], "seeds": [],
        "inputs": {f"x{i}": i for i in range(5)}, "outputs": {"maj": 5}}))
    circuit = load_circuit(target)
    assert circuit.network.cutoff[5] == 3
    table = truth_table(circuit)
    assert tuple(map(tuple, table.bits.tolist())) == rows_by_evaluate(circuit)
    assert [row[0] for row in table.rows] == [
        int(sum(bits) >= 3) for bits in product((0, 1), repeat=5)]


@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
def test_compiled_edges_pass_full_validation(basis):
    # the compiler hands its edges to Graph._build unchecked
    rng = make_rng(1313)
    for i in range(100):
        graph = compile_expr(random_expr(rng, max_depth=5, max_vars=8), basis).network.graph
        checked = Graph.from_edges(graph.n, True, graph.src, graph.dst)
        for name in ("src", "dst", "indptr", "indices", "out_indptr", "out_indices",
                     "degrees"):
            mine, theirs = getattr(graph, name), getattr(checked, name)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), (i, name)


def test_topological_order_built_once_per_circuit(monkeypatch, tmp_path):
    target = tmp_path / "xor.json"
    save_circuit(compile_expr("a ^ b ^ c", Basis.NAND_ONLY), target)
    builds = []
    build = Graph.topological_order.func
    monkeypatch.setattr(Graph.topological_order, "func",
                        lambda graph: builds.append(graph) or build(graph))
    circuit = load_circuit(target)
    evaluate(circuit, {"a": 1, "b": 0, "c": 1})
    truth_table(circuit)
    assert builds == [circuit.network.graph]


def rows_by_evaluate(circuit):
    """Every row of the table, inputs then outputs, one `evaluate` per row."""
    names = tuple(circuit.inputs)
    return tuple(bits + tuple(evaluate(circuit, dict(zip(names, bits))).values())
                 for bits in product((0, 1), repeat=len(names)))


class TestBlockedTable:
    @staticmethod
    def three_row_blocks(monkeypatch, circuit):
        # a block holds 8 * TABLE_BLOCK_BYTES // n rows: here 3 to 5 rows for
        # n >= 2, never a multiple of 8, so packed bytes end part-way
        monkeypatch.setattr(circuit_module, "TABLE_BLOCK_BYTES", -(-3 * circuit.network.n // 8))

    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_blocks_equal_row_by_row_evaluation(self, monkeypatch, basis):
        rng = make_rng(2719)
        for i in range(100):
            circuit = compile_expr(random_expr(rng, max_depth=4, max_vars=3 + i % 3), basis)
            self.three_row_blocks(monkeypatch, circuit)
            assert tuple(map(tuple, truth_table(circuit).bits.tolist())) == \
                rows_by_evaluate(circuit), i

    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_small_blocks_equal_the_default(self, monkeypatch, basis):
        rng = make_rng(2720)
        for i in range(20):
            circuit = compile_expr(random_expr(rng, max_depth=5, max_vars=6 + i % 5), basis)
            default = truth_table(circuit).bits
            for block_bytes in (1, -(-3 * circuit.network.n // 8)):
                monkeypatch.setattr(circuit_module, "TABLE_BLOCK_BYTES", block_bytes)
                assert np.array_equal(truth_table(circuit).bits, default), i
                monkeypatch.undo()

    def test_half_adder_blocks(self, monkeypatch):
        adder = compile_half_adder()
        self.three_row_blocks(monkeypatch, adder)
        table = truth_table(adder)
        assert table.output_names == ("sum", "carry")
        assert tuple(map(tuple, table.bits.tolist())) == rows_by_evaluate(adder)

    def test_csv_is_the_same_at_a_one_row_budget(self, monkeypatch, tmp_path):
        rng = make_rng(31)
        for circuit in (compile_half_adder(), compile_expr(random_expr(rng, max_vars=10))):
            table = truth_table(circuit)
            default = io.StringIO()
            table.to_csv(default)
            table.to_csv(tmp_path / "t.csv")
            monkeypatch.setattr(circuit_module, "TABLE_BLOCK_BYTES", 1)
            one_row = io.StringIO()
            table.to_csv(one_row)
            monkeypatch.undo()
            assert one_row.getvalue() == default.getvalue()
            assert (tmp_path / "t.csv").read_text() == default.getvalue()

    def test_twenty_input_table_memory(self, tmp_path):
        # all 2^20 rows of the chain's 96 nodes at once would be 96 MB
        circuit = compile_expr(" ^ ".join(f"x{i}" for i in range(20)), Basis.NAND_ONLY)
        target = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            truth_table(circuit).to_csv(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        header = ",".join([*circuit.inputs, "out"]) + "\n"
        assert target.stat().st_size == len(header) + (1 << 20) * 2 * 21

    def test_wide_table_memory(self):
        # the benchmark's 16-input table: 29 nodes in one block of 65,536
        # rows, a 1.06 MB result; the bound was fixed before the first run
        circuit = compile_expr(table_golden_exprs()["wide"])
        tracemalloc.start()
        try:
            truth_table(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.70 * 2**20

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7, 12, 19])
    def test_counter_bits_match_row_ids(self, k):
        rng = make_rng(k)
        for lo, size in [(0, 1), (0, 8), (5, 3), *rng.integers(1, 1 << 21, (20, 2)).tolist()]:
            rows = np.arange(lo, lo + size)
            want = int.from_bytes(np.packbits((rows >> k) & 1, bitorder="little").tobytes(),
                                  "little")
            assert circuit_module._counter_bits(k, lo, size) == want


# sha256 of save_circuit output per basis and expression. Node ids are the
# first-emission order of each basis rewrite; any change to it changes files.
COMPILE_GOLDEN = Path(__file__).parent / "golden" / "compile.sha256.json"
GOLDEN_EXPRS = (
    "a ^ b",
    "a ^ b ^ c",
    "v0 ^ v1 ^ v2 ^ v3 ^ v4 ^ v5 ^ v6 ^ v7",
    "(a ^ b) ^ (c ^ d)",
    "((a ^ b) ^ c) ^ (a ^ (b ^ c))",
    "(a ^ !b) ^ !(c ^ d)",
    "a ^ a",
    "!(a ^ b) & (b ^ a)",
    "a & b & c",
    "a | b | c | d",
    "a @& b @& c",
    "a @| b @| c @| d",
    "!a",
    "!!a",
    "!(a & b)",
    "!(a | !b) & !c",
    "a & a",
    "(a & b) | (a & b) | c",
    "(a & b) ^ ((a & b) | c)",
    "(a | b) ^ !(c & a)",
    "(a @| b) & (c @& d) | (a ^ c)",
    "x0 & (x1 | x2) @| !x3 ^ x4",
    "(a @& b @& c) @| (a & !b) @| (c | d | a) @| d",
)


def compiled_digest(expr, basis):
    out = io.StringIO()
    save_circuit(compile_expr(expr, basis), out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


class TestCompileGolden:
    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_compiled_bytes_are_pinned(self, basis):
        pinned = json.loads(COMPILE_GOLDEN.read_text())[basis.value]
        assert list(pinned) == list(GOLDEN_EXPRS)
        for expr in GOLDEN_EXPRS:
            assert compiled_digest(expr, basis) == pinned[expr], expr


@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
def test_compiled_edges_climb(basis):
    # so Graph.topological_order of a compiled circuit runs no heap
    for expr in GOLDEN_EXPRS:
        graph = compile_expr(expr, basis).network.graph
        assert (graph.src < graph.dst).all(), expr


class TestCompileWork:
    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_xor_chain_needs_linear_gate_calls(self, monkeypatch, basis):
        # A walk that revisits shared XOR operands makes exponentially many.
        k = 20
        budget = 10 * k
        calls = 0
        real_gate = circuit_module._Builder.gate

        def counted_gate(self, kind, children):
            nonlocal calls
            calls += 1
            if calls > budget:
                raise AssertionError(f"more than {budget} gate() calls")
            return real_gate(self, kind, children)

        monkeypatch.setattr(circuit_module._Builder, "gate", counted_gate)
        names = [f"v{i}" for i in range(k)]
        circuit = compile_expr(" ^ ".join(names), basis)
        for ones in (0, 1, 7, 20):
            bits = {name: int(i < ones) for i, name in enumerate(names)}
            assert evaluate(circuit, bits) == {"out": ones % 2}


def dead_nodes(circuit):
    """Non-input nodes from which no output is reachable."""
    nbrs = in_neighbors(circuit.network)
    live = set(circuit.outputs.values())
    stack = list(live)
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in live:
                live.add(v)
                stack.append(v)
    return set(range(circuit.network.n)) - live - set(circuit.inputs.values())


class TestPolarity:
    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_every_node_reaches_the_output(self, basis):
        rng = make_rng(7)
        exprs = [random_expr(rng, max_depth=6, max_vars=8) for _ in range(150)]
        exprs += GOLDEN_EXPRS
        for expr in exprs:
            assert dead_nodes(compile_expr(expr, basis)) == set(), expr

    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_xor_chain_node_counts(self, basis):
        # Four gates per XOR. NORs give XNOR, so in nor the polarity asked of
        # the left operand alternates down the chain, and v0 needs a NOT
        # exactly when the chain has an odd number of XORs.
        for k in range(2, 21):
            extra = basis is Basis.NOR_ONLY and k % 2 == 0
            circuit = compile_expr(" ^ ".join(f"v{i}" for i in range(k)), basis)
            assert circuit.network.n == 5 * k - 4 + extra, k

    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_double_negation_is_the_input(self, basis):
        for text in ("!!a", "!!!!a"):
            circuit = compile_expr(text, basis)
            assert circuit.network.n == 1
            assert circuit.outputs["out"] == circuit.inputs["a"]

    def test_negated_and_is_one_nand_in_mixed(self):
        circuit = compile_expr("!(a & b)", Basis.MIXED)
        assert circuit.network.n == 3
        gate = circuit.network.nodes[circuit.outputs["out"]]
        assert (gate.rule, gate.phi) == (Rule.ANTAGONISTIC, Fraction(3, 4))
        assert table_bits(circuit) == [1, 1, 1, 0]


class TestDepth:
    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_thousand_variable_xor_chain(self, basis):
        # one flat 1000-input XOR, not a 999-deep tree
        k = 1000
        names = [f"x{i}" for i in range(k)]
        circuit = compile_expr(" ^ ".join(names), basis)
        assert circuit.network.n == 5 * k - 4 + (basis is Basis.NOR_ONLY)
        for ones in (0, 1, 2, 999, 1000):
            bits = {name: int(i < ones) for i, name in enumerate(names)}
            assert evaluate(circuit, bits) == {"out": ones % 2}, ones

    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_deepest_shape_at_the_nesting_cap(self, basis):
        # each parenthesis adds three gate levels: OR over XOR over AND
        text = "a"
        for _ in range(MAX_NESTING):
            text = f"(b | c ^ d & {text})"
        circuit = compile_expr(text, basis)
        expr = parse_expr(text)
        for bits in product((0, 1), repeat=4):
            env = dict(zip("abcd", bits))
            assert evaluate(circuit, {n: env[n] for n in circuit.inputs}) == {
                "out": eval_expr(expr, env)}, bits
        with pytest.raises(LimitExceeded, match=f"deeper than {MAX_NESTING}"):
            compile_expr(f"(b | c ^ d & {text})", basis)


# sha256 of the `table` CSV per basis and labelled expression: XOR chains,
# seeded random expressions, and the 16-input circuit of the circuits
# benchmark workload, with its inputs in the order seed 401 draws (the
# workload tabulates it in the mixed basis only; all three are pinned here).
TABLE_GOLDEN = Path(__file__).parent / "golden" / "table.sha256.json"


def table_golden_exprs():
    exprs = {f"chain{k}": " ^ ".join(f"x{i}" for i in range(k)) for k in range(2, 13)}
    rng = make_rng(7411)
    for i in range(100):
        exprs[f"random{i}"] = random_expr(rng, max_depth=5, max_vars=2 + i % 7)
    exprs["wide"] = ("((w11 & w10) | (w3 | w4) | (w9 @& w5) | (w0 @| w1) | "
                     "(w14 & w6) | (w8 | w12) | (w2 @& w15)) ^ (w7 @| w13)")
    return exprs


def table_digest(expr, basis):
    csv = io.StringIO()
    truth_table(compile_expr(expr, basis)).to_csv(csv)
    return hashlib.sha256(csv.getvalue().encode()).hexdigest()


class TestTableGolden:
    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_table_bytes_are_pinned(self, basis):
        pinned = json.loads(TABLE_GOLDEN.read_text())[basis.value]
        exprs = table_golden_exprs()
        assert list(pinned) == list(exprs)
        for label, expr in exprs.items():
            assert table_digest(expr, basis) == pinned[label], label


if __name__ == "__main__":
    # `python tests/test_circuit.py compile|table ...` re-records the named
    # goldens; run only for an intended change of their bytes.
    import sys

    goldens = {"compile": (COMPILE_GOLDEN, {e: e for e in GOLDEN_EXPRS}, compiled_digest),
               "table": (TABLE_GOLDEN, table_golden_exprs(), table_digest)}
    if not sys.argv[1:] or not set(sys.argv[1:]) <= set(goldens):
        sys.exit(f"usage: {sys.argv[0]} {{compile,table}} ...")
    for name in sys.argv[1:]:
        path, exprs, digest = goldens[name]
        digests = {basis.value: {label: digest(expr, basis) for label, expr in exprs.items()}
                   for basis in Basis}
        path.write_text(json.dumps(digests, indent=1) + "\n")
