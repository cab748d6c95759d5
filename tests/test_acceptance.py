"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criterion 9 runs full-size frequency sweeps and takes the longest
(well under its five-minute budget single-threaded).
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from cascade_logic import (Basis, ExplicitOrder, GateKind, GlobalFraction,
                           MedianExceedance, RandomSweep, Rule, SweepSpec,
                           build_gate, cascade_sizes, compile_expr,
                           compile_half_adder, enumerate_fixpoints, evaluate,
                           fixture_path, is_monotone_increasing,
                           load_network, make_rng, mix_seed, phi_interval,
                           reference_sizes, rows_from_sizes, run_cascade,
                           schedule_sensitivity, truth_table)
from cascade_logic.cli import main
from conftest import random_instance
from exprgen import random_expr, random_monotone_expr
from oracles import fires, tlu_fires


@contextmanager
def criterion(name, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit_seconds is not None:
            assert elapsed < limit_seconds, (
                f"{name} took {elapsed:.1f}s, budget {limit_seconds}s")
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def table_bits(circuit):
    return [row[0] for row in truth_table(circuit).rows]


def test_criterion_01_gate_fidelity():
    with criterion("1 gate-fidelity", limit_seconds=1.0):
        printed = {
            ("or", 2): [0, 1, 1, 1],
            ("and", 2): [0, 0, 0, 1],
            ("nor", 2): [1, 0, 0, 0],
            ("nand", 2): [1, 1, 1, 0],
            ("not", 1): [1, 0],
        }
        for (kind, k), rows in printed.items():
            assert table_bits(build_gate(GateKind(kind), k)) == rows, (kind, k)


def test_criterion_02_phi_boundary_semantics():
    with criterion("2 phi-boundary-semantics", limit_seconds=10.0):
        eps = Fraction(1, 10 ** 9)
        cases = [(kind, k) for kind in (GateKind.OR, GateKind.AND,
                                        GateKind.NOR, GateKind.NAND)
                 for k in range(2, 9)]
        cases += [(GateKind.NOT, 1), (GateKind.BUF, 1)]
        for kind, k in cases:
            lo, hi = phi_interval(kind, k)
            reference = table_bits(build_gate(kind, k))
            inside = [lo + (hi - lo) * Fraction(i, 22) for i in range(1, 22)]
            inside.append(hi)  # the interval is closed on the right
            for phi in inside:
                assert table_bits(build_gate(kind, k, phi=phi)) == reference, \
                    (kind, k, phi)
            outside = [lo]  # open on the left: the boundary itself is outside
            if lo - eps >= 0:
                outside.append(lo - eps)
            if hi + eps <= 1:  # phi is capped at 1, probe only inside [0, 1]
                outside.append(hi + eps)
            for phi in outside:
                assert table_bits(build_gate(kind, k, phi=phi)) != reference, \
                    (kind, k, phi)


def test_criterion_03_functional_completeness():
    with criterion("3 functional-completeness", limit_seconds=30.0):
        rng = make_rng(424242)
        for _ in range(500):
            expr = random_expr(rng, max_depth=5, max_vars=6)
            mixed = truth_table(compile_expr(expr, Basis.MIXED))
            nand_only = truth_table(compile_expr(expr, Basis.NAND_ONLY))
            nor_only = truth_table(compile_expr(expr, Basis.NOR_ONLY))
            assert mixed.rows == nand_only.rows == nor_only.rows
            assert mixed.input_names == nand_only.input_names == nor_only.input_names


def test_criterion_04_half_adder():
    with criterion("4 half-adder"):
        circuit = compile_half_adder()
        for a, b in product((0, 1), repeat=2):
            out = evaluate(circuit, {"a": a, "b": b})
            assert out == {"sum": a ^ b, "carry": a & b}, (a, b)
            seeds = {circuit.inputs[name] for name, bit in (("a", a), ("b", b))
                     if bit}
            found = enumerate_fixpoints(circuit.network, seeds)
            assert not found.truncated
            projections = {(int(circuit.outputs["sum"] in fp),
                            int(circuit.outputs["carry"] in fp))
                           for fp in found.fixpoints}
            assert (a ^ b, a & b) in projections, (a, b)
            report = schedule_sensitivity(circuit, {"a": a, "b": b},
                                          trials=300, rng_seed=mix_seed(4, a, b))
            assert report.reference_output == (a ^ b, a & b)
            assert report.agree_fraction > 0, (a, b)


def test_criterion_05_gcm_determinism():
    with criterion("5 gcm-determinism", limit_seconds=60.0):
        for case in range(200):
            n = 6 + case % 7  # n <= 12, and z stays below n - 1
            z = 1.0 + case % 4
            net, seeds = random_instance(mix_seed(5, case), n, z, Rule.MONOTONE)
            found = enumerate_fixpoints(net, seeds)
            assert not found.truncated
            assert len(found.fixpoints) == 1, f"instance {case}"
            (unique,) = found.fixpoints
            for sweep_seed in range(5):
                result = run_cascade(net, seeds,
                                     RandomSweep(mix_seed(case, sweep_seed)))
                assert result.final == unique, f"instance {case}"


def test_criterion_06_agcm_non_determinism():
    with criterion("6 agcm-non-determinism"):
        triangle = load_network(fixture_path("triangle.json"))
        found = enumerate_fixpoints(triangle)
        assert found.fixpoints == {frozenset({0, 1}), frozenset({0, 2})}
        assert not found.truncated
        first = run_cascade(triangle, {0}, ExplicitOrder((1, 2)))
        second = run_cascade(triangle, {0}, ExplicitOrder((2, 1)))
        assert first.final == {0, 1}
        assert second.final == {0, 2}


def test_criterion_07_tlu_equivalence():
    with criterion("7 tlu-equivalence"):
        for deg in range(1, 13):
            # every rational tie point with denominator <= deg, plus the ends
            phis = sorted({Fraction(num, den)
                           for den in range(1, deg + 1)
                           for num in range(den + 1)} | {Fraction(0), Fraction(1)})
            # the engine: a one-gate circuit at each probe threshold, its first
            # `labeled` inputs set; a Fraction threshold meets the exact fraction
            gates = {(probe, type(probe)): build_gate(
                         GateKind.NAND if deg > 1 else GateKind.NOT, deg, phi=probe)
                     for phi in phis for probe in (phi, float(phi))}
            for labeled in range(deg + 1):
                x = [1] * labeled + [0] * (deg - labeled)
                for phi in phis:
                    for probe in (phi, float(phi)):
                        expected = fires(Rule.ANTAGONISTIC, labeled / deg, probe)
                        assert tlu_fires([1] * deg, x, deg, probe) == expected
                        exact = isinstance(probe, Fraction)
                        nu = Fraction(labeled, deg) if exact else labeled / deg
                        row = {f"x{i}": bit for i, bit in enumerate(x)}
                        assert evaluate(gates[probe, type(probe)], row) == {
                            "out": int(fires(Rule.ANTAGONISTIC, nu, probe))}


def test_criterion_08_monotonicity():
    with criterion("8 monotonicity"):
        xor_rows = [0, 1, 1, 0]
        rng = make_rng(88)
        for _ in range(500):
            circuit = compile_expr(random_monotone_expr(rng, max_depth=5,
                                                        max_vars=6))
            assert all(spec.rule is Rule.MONOTONE
                       for spec in circuit.network.nodes)
            table = truth_table(circuit)
            assert is_monotone_increasing(table)
            # no pair of inputs computes XOR under any fixing of the others
            names = table.input_names
            m = len(names)
            bits = [row[0] for row in table.rows]
            for i, j in combinations(range(m), 2):
                others = [pos for pos in range(m) if pos not in (i, j)]
                for fixing in product((0, 1), repeat=len(others)):
                    restricted = []
                    for ai, aj in product((0, 1), repeat=2):
                        row = 0
                        for pos, bit in zip(others, fixing):
                            row |= bit << (m - 1 - pos)
                        row |= ai << (m - 1 - i)
                        row |= aj << (m - 1 - j)
                        restricted.append(bits[row])
                    assert restricted != xor_rows


def test_criterion_09_cascade_frequency_shape():
    with criterion("9 cascade-frequency-shape", limit_seconds=300.0):
        z_values = tuple(float(z) for z in range(1, 11))
        gcm_spec = SweepSpec(n=1000, z_values=z_values, phi_star=0.18,
                             rule=Rule.MONOTONE, realizations=100,
                             master_seed=20260810, metric=GlobalFraction(0.5))
        gcm_sizes = cascade_sizes(gcm_spec)
        gcm_rows = rows_from_sizes(gcm_spec, gcm_sizes)
        freq = {row.z: row.frequency for row in gcm_rows}
        best_z = max(freq, key=freq.get)
        assert 2 <= best_z <= 6, f"GCM peak at z={best_z}"
        assert freq[best_z] >= 0.1
        assert freq[10.0] <= 0.02

        agcm_spec = SweepSpec(n=1000, z_values=z_values, phi_star=0.18,
                              rule=Rule.ANTAGONISTIC, realizations=100,
                              master_seed=20260810, metric=MedianExceedance())
        agcm_sizes = cascade_sizes(agcm_spec)
        agcm_rows = rows_from_sizes(agcm_spec, agcm_sizes,
                                    reference_sizes(agcm_spec))
        afreq = {row.z: row.frequency for row in agcm_rows}
        assert afreq[5.0] < afreq[1.0], "no left mode"
        assert afreq[5.0] < afreq[9.0], "no right mode"
        # the minimum sits in the middle band (complementing the GCM window)
        assert min(afreq[z] for z in (3.0, 4.0, 5.0, 6.0, 7.0)) == min(
            afreq.values())

        agcm_mean_z1 = float(agcm_sizes[0].mean())
        gcm_mean_z1 = float(gcm_sizes[0].mean())
        assert agcm_mean_z1 > gcm_mean_z1


def test_criterion_10_reproducibility(tmp_path, capsys):
    with criterion("10 reproducibility"):
        net_file = tmp_path / "net.json"
        circuit_file = tmp_path / "circuit.json"
        assert main(["gen", "--n", "40", "--z", "3", "--rule", "agcm",
                     "--phi", "const:0.18", "--seed", "5",
                     "--out", str(net_file)]) == 0
        assert main(["compile", "--expr", "(a ^ b) | !c",
                     "--basis", "nand", "--out", str(circuit_file)]) == 0
        capsys.readouterr()

        commands = [
            ["gen", "--n", "40", "--z", "3", "--rule", "agcm",
             "--phi", "const:0.18", "--seed", "5"],
            ["stats", "--net", str(net_file)],
            ["run", "--net", str(net_file), "--seeds", "0",
             "--mode", "sweep:99"],
            ["run", "--net", str(fixture_path("triangle.json")),
             "--mode", "order:1,2"],
            ["compile", "--expr", "(a ^ b) | !c", "--basis", "nand"],
            ["eval", "--net", str(circuit_file), "--assign", "a=1,b=0,c=1"],
            ["table", "--net", str(circuit_file)],
            ["fixpoints", "--net", str(fixture_path("triangle.json"))],
            ["sensitivity", "--net", str(circuit_file),
             "--assign", "a=1,b=1,c=0", "--trials", "40", "--seed", "13"],
            ["verify-gcm", "--n", "8", "--z", "2", "--instances", "10",
             "--seed", "3"],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
            first = capsys.readouterr().out
            assert main(argv) == 0, argv
            second = capsys.readouterr().out
            assert first == second, argv

        sweep_base = ["sweep", "--n", "300", "--z", "1:5:1", "--phi", "0.18",
                      "--rule", "agcm", "--realizations", "16",
                      "--metric", "median", "--seed", "77"]
        outs = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
            target = tmp_path / f"sweep_{tag}.csv"
            assert main(sweep_base + ["--jobs", jobs,
                                      "--out", str(target)]) == 0
            outs.append(target.read_text())
        assert outs[0] == outs[1] == outs[2]
