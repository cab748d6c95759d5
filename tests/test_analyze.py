import contextlib
import hashlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

from cascade_logic import analyze as analyze_module
from cascade_logic import engine
from cascade_logic import (Basis, DEFAULT_STATE_CAP, FixpointSet, Graph, MedianExceedance,
                           Network, RandomSweep, Rule, SweepSpec, UNIFORM, Verdict,
                           assign_thresholds, build_gate, compile_expr, compile_half_adder,
                           enumerate_fixpoints, evaluate, fixture_path, generate_er,
                           make_rng, mix_seed, outcome_sensitivity,
                           run_cascade, run_sweep, GateKind,
                           schedule_sensitivity, verify_gcm_determinism)
from cascade_logic.circuit import input_seeds
from cascade_logic.cli import main
from conftest import (assert_split, assert_stable, network_of, random_instance, record_runs,
                      small_network)
from oracles import rescan_fixpoints


class TestEnumerateFixpoints:
    def test_triangle_has_exactly_two(self, triangle):
        found = enumerate_fixpoints(triangle)
        assert found.fixpoints == {frozenset({0, 1}), frozenset({0, 2})}
        assert not found.truncated
        assert found.explored_states == 3

    def test_equals_the_set_of_a_second_search(self):
        for case in range(30):
            net, seeds = small_network(make_rng(case), 10)
            for cap in (2, DEFAULT_STATE_CAP):
                found = enumerate_fixpoints(net, seeds, state_cap=cap)
                again = enumerate_fixpoints(net, seeds, state_cap=cap)
                reversed_rows = FixpointSet(found.member[::-1], found.explored_states,
                                            found.truncated)
                assert found.member.shape[0] == len(found.fixpoints)
                assert found == again == reversed_rows and again == found
                assert hash(found) == hash(again) == hash(reversed_rows)
                assert found != FixpointSet(found.member, found.explored_states + 1,
                                            found.truncated)

    def test_triangle_fixpoints_reachable_by_explicit_orders(self, triangle):
        # completeness cross-check: the 2 possible orders reach both fixpoints
        from cascade_logic import ExplicitOrder
        reached = {run_cascade(triangle, {0}, ExplicitOrder(order)).final
                   for order in ((1, 2), (2, 1))}
        assert reached == enumerate_fixpoints(triangle).fixpoints

    def test_every_fixpoint_is_stable(self):
        for case in range(25):
            rule = Rule.MONOTONE if case % 2 else Rule.ANTAGONISTIC
            net, seeds = random_instance(4000 + case, 12, 2.0, rule)
            found = enumerate_fixpoints(net, seeds)
            assert not found.truncated
            assert found.fixpoints
            for fp in found.fixpoints:
                assert seeds <= fp
                assert_stable(net, fp)

    def test_monotone_networks_have_unique_fixpoint_matching_simulation(self):
        for case in range(40):
            net, seeds = random_instance(5000 + case, 14, 3.0, Rule.MONOTONE)
            found = enumerate_fixpoints(net, seeds)
            assert len(found.fixpoints) == 1
            simulated = run_cascade(net, seeds, RandomSweep(mix_seed(case, 3)))
            assert simulated.final in found.fixpoints

    def test_no_seeds_all_monotone_positive_phi_is_inert(self):
        net = network_of(6, False, ((0, 1), (1, 2), (3, 4)), phi=0.4)
        found = enumerate_fixpoints(net, set())
        assert found.fixpoints == {frozenset()}

    def test_truncation_is_flagged_never_silent(self):
        net, seeds = random_instance(71, 16, 3.0, Rule.ANTAGONISTIC)
        found = enumerate_fixpoints(net, seeds, state_cap=5)
        assert found.truncated
        assert found.explored_states <= 5

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, triangle, cap):
        with pytest.raises(ValueError, match="state_cap"):
            enumerate_fixpoints(triangle, state_cap=cap)

    def test_acyclic_networks_can_still_be_order_dependent(self):
        # a 3-node path with antagonistic ends: no cycle, two final states
        path = network_of(3, False, ((0, 1), (1, 2)), Rule.ANTAGONISTIC, 0.75,
                          seeds={0})
        found = enumerate_fixpoints(path)
        assert found.fixpoints == {frozenset({0, 1}), frozenset({0, 2})}


class TestIncrementalSearchMatchesRescan:
    def test_same_states_in_the_same_order(self):
        # a truncated search covers the complete levels of labeled count
        # that fit within the cap, so equal triples under small caps pin the
        # level where it stops, not only the reachable set
        rng = make_rng(88)
        truncated = 0
        for case in range(1200):
            net, seeds = small_network(rng, 13)
            cap = int(rng.integers(1, 51)) if case % 2 else DEFAULT_STATE_CAP
            found = enumerate_fixpoints(net, seeds, state_cap=cap)
            assert ((found.fixpoints, found.explored_states, found.truncated)
                    == rescan_fixpoints(net, seeds, cap)), case
            truncated += found.truncated
        assert truncated >= 100

    def test_one_configuration_blocks(self, monkeypatch):
        # every level splits into blocks of one row, so each level's
        # children are merged from many partial results
        monkeypatch.setattr(analyze_module, "SEARCH_BLOCK_BYTES", 1)
        rng = make_rng(89)
        for case in range(300):
            net, seeds = small_network(rng, 11)
            cap = int(rng.integers(1, 200)) if case % 2 else DEFAULT_STATE_CAP
            found = enumerate_fixpoints(net, seeds, state_cap=cap)
            assert ((found.fixpoints, found.explored_states, found.truncated)
                    == rescan_fixpoints(net, seeds, cap)), case


def isolated_antagonists(k: int) -> Network:
    """k nodes and no edges, all antagonistic with phi 1/2, so cutoff 1: a
    count of 0 is always below it, and every unlabeled node can fire."""
    return network_of(k, False, (), Rule.ANTAGONISTIC, 0.5)


class TestIsolatedAntagonists:
    """Every superset of the s seeds is reachable and only the full node set
    is stable: exactly 2^(k-s) states and one fixpoint, counted by hand."""

    @pytest.mark.parametrize("k, s", [(1, 0), (1, 1), (6, 0), (9, 4), (12, 1)])
    def test_every_superset_of_the_seeds_and_one_fixpoint(self, k, s):
        found = enumerate_fixpoints(isolated_antagonists(k), range(s))
        assert (found.fixpoints, found.explored_states, found.truncated) == (
            {frozenset(range(k))}, 2 ** (k - s), False)

    @pytest.mark.parametrize("k, s", [(1, 0), (7, 0), (12, 5), (64, 57), (66, 59)])
    def test_truncated_exactly_past_the_state_count(self, k, s):
        net, states = isolated_antagonists(k), 2 ** (k - s)
        below = enumerate_fixpoints(net, range(s), state_cap=states - 1)
        at = enumerate_fixpoints(net, range(s), state_cap=states)
        assert below.truncated and below.explored_states == states - 1
        assert not at.truncated and at.explored_states == states

    @pytest.mark.parametrize("n", [63, 64, 65, 72, 96, 130])
    def test_word_boundary_matches_rescan(self, n):
        # the unseeded nodes are the highest ids, so the top bit of a 64-bit
        # word is in play at n = 64; a node more takes a configuration to two
        # words, and 130 nodes to three
        rng = make_rng(n)
        unseeded = range(n - 8, n)
        isolated = isolated_antagonists(n)
        for cap in (1, 100, 255, 256, DEFAULT_STATE_CAP):
            found = enumerate_fixpoints(isolated, range(n - 8), state_cap=cap)
            assert ((found.fixpoints, found.explored_states, found.truncated)
                    == rescan_fixpoints(isolated, range(n - 8), cap))
        for case in range(20):
            net, _ = random_instance(n * 100 + case, n, 3.0,
                                     Rule.ANTAGONISTIC if case % 2 else Rule.MONOTONE)
            free = set(unseeded) | {int(u) for u in rng.permutation(n)[:4]}
            seeds = frozenset(range(n)) - free
            for cap in (int(rng.integers(1, 60)), DEFAULT_STATE_CAP):
                found = enumerate_fixpoints(net, seeds, state_cap=cap)
                assert ((found.fixpoints, found.explored_states, found.truncated)
                        == rescan_fixpoints(net, seeds, cap)), (case, cap)
                for fp in found.fixpoints:
                    assert_stable(net, fp)

    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33])
    def test_word_width_boundary_matches_rescan(self, n):
        # the level search keeps configurations in 16-, 32- or 64-bit words;
        # the top ids stay unseeded, so the highest bit of a word is in play
        rng = make_rng(1000 + n)
        for case in range(20):
            graph = generate_er(n, 3.0 / (n - 1), mix_seed(n, case))
            columns = [(rng.random() < 0.5, float(rng.random())) for _ in range(n)]
            net = Network(graph, *zip(*columns))
            free = set(range(n - 6, n)) | {int(u) for u in rng.permutation(n)[:4]}
            seeds = frozenset(range(n)) - free
            for cap in (int(rng.integers(1, 60)), DEFAULT_STATE_CAP):
                found = enumerate_fixpoints(net, seeds, state_cap=cap)
                assert ((found.fixpoints, found.explored_states, found.truncated)
                        == rescan_fixpoints(net, seeds, cap)), (case, cap)

    def test_memory_is_bounded(self):
        # 2^18 states; a visited set of Python ints alone would need about 17 MB
        net = isolated_antagonists(18)
        tracemalloc.start()
        try:
            found = enumerate_fixpoints(net, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.explored_states == 2 ** 18 and not found.truncated
        assert peak < 16 * 2**20

    def test_truncated_memory_is_bounded_by_the_cap(self):
        # two words and 40 free nodes: the levels of up to 4 labeled free
        # nodes hold 102,091 configurations and fit under the cap, the next
        # one holds 658,008, so the search must stop collecting its children
        net, cap, words = isolated_antagonists(96), 110_000, 2
        tracemalloc.start()
        try:
            found = enumerate_fixpoints(net, range(56), state_cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (found.fixpoints, found.explored_states, found.truncated) == (
            frozenset(), 102_091, True)
        assert peak < 6 * cap * words * 8


class TestAboveOneWord:
    def test_compiled_circuit_matches_rescan(self):
        names = [f"v{i}" for i in range(14)]
        circuit = compile_expr(" ^ ".join(names), Basis.NAND_ONLY)
        net = circuit.network
        assert net.n > 64
        seeds = input_seeds(circuit, {v: i % 2 for i, v in enumerate(names)})
        for cap in make_rng(66).integers(1, 300, 6).tolist():
            found = enumerate_fixpoints(net, seeds, state_cap=cap)
            assert ((found.fixpoints, found.explored_states, found.truncated)
                    == rescan_fixpoints(net, seeds, cap)), cap
            for fp in found.fixpoints:
                assert_stable(net, fp)

    def test_shared_hashes_are_told_apart_by_value(self, monkeypatch):
        # with every node's key 0, all children of a level share one hash,
        # so each de-duplication must fall back to comparing configurations
        monkeypatch.setattr(analyze_module, "mix_seed",
                            lambda master, nodes: np.zeros(len(nodes), dtype=np.uint64))
        rng = make_rng(7200)
        for case in range(12):
            net, _ = random_instance(7200 + case, 72, 3.0,
                                     Rule.ANTAGONISTIC if case % 2 else Rule.MONOTONE)
            free = set(range(64, 72)) | {int(u) for u in rng.permutation(72)[:3]}
            seeds = frozenset(range(72)) - free
            for cap in (int(rng.integers(1, 60)), DEFAULT_STATE_CAP):
                found = enumerate_fixpoints(net, seeds, state_cap=cap)
                assert ((found.fixpoints, found.explored_states, found.truncated)
                        == rescan_fixpoints(net, seeds, cap)), (case, cap)


class TestScheduleSensitivity:
    def test_monotone_circuit_always_agrees(self):
        circuit = compile_expr("(a | b) & (c | a)")
        report = schedule_sensitivity(circuit, {"a": 1, "b": 0, "c": 0},
                                      trials=40, rng_seed=17)
        assert report.agree_fraction == 1.0
        assert report.distinct_outcomes == 1

    def test_reference_defaults_to_topological_evaluation(self):
        circuit = compile_half_adder()
        report = schedule_sensitivity(circuit, {"a": 1, "b": 1},
                                      trials=10, rng_seed=3)
        expected = evaluate(circuit, {"a": 1, "b": 1})
        assert report.reference_output == (expected["sum"], expected["carry"])

    def test_triangle_splits_evenly(self, triangle):
        # two symmetric outcomes; hand-enumerating both orders fixes the
        # reference: examining node 1 first labels it, so watched bit = 1
        from cascade_logic import ExplicitOrder
        outcomes = {run_cascade(triangle, {0}, ExplicitOrder(order)).final
                    for order in ((1, 2), (2, 1))}
        assert outcomes == {frozenset({0, 1}), frozenset({0, 2})}
        report = outcome_sensitivity(triangle, {0}, watched=[1], reference=[1],
                                     trials=1000, rng_seed=8)
        assert abs(report.agree_fraction - 0.5) <= 0.1
        assert report.distinct_outcomes == 2

    def test_half_adder_some_orders_agree(self):
        circuit = compile_half_adder()
        report = schedule_sensitivity(circuit, {"a": 1, "b": 0},
                                      trials=200, rng_seed=101)
        assert 0 < report.agree_fraction <= 1
        # the intended output is among the reachable fixpoints
        seeds = {circuit.inputs["a"]}
        found = enumerate_fixpoints(circuit.network, seeds)
        projections = {(int(circuit.outputs["sum"] in fp),
                        int(circuit.outputs["carry"] in fp))
                       for fp in found.fixpoints}
        assert report.reference_output in projections

    def test_trials_are_run_cascade_runs(self):
        # trial t is run_cascade under RandomSweep(mix_seed(rng_seed, t))
        circuit = compile_half_adder()
        net, seeds = circuit.network, {circuit.inputs["a"]}
        watched = list(circuit.outputs.values())
        report = outcome_sensitivity(net, seeds, watched, [1, 0], trials=300, rng_seed=5)
        outcomes = [tuple(int(u in run_cascade(net, seeds, RandomSweep(mix_seed(5, t))).final)
                          for u in watched) for t in range(300)]
        assert report.agree_fraction == outcomes.count((1, 0)) / 300
        assert report.distinct_outcomes == len(set(outcomes)) > 1

    def test_trial_generators_are_built_a_chunk_at_a_time(self, monkeypatch):
        # 2^20 trials stop at the examination budget after a few; hashing
        # every trial's generator at once would peak near 170 MB, and a list
        # of the trial seeds as Python ints near 52 MB
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", 100)
        argv = ["sensitivity", "--net", str(fixture_path("half_adder.json")),
                "--assign", "a=1,b=0", "--trials", str(1 << 20), "--seed", "1"]
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and "node examinations" in err.getvalue()
        assert peak < 48 * 2**20

    def test_watched_must_be_node_ids(self, triangle):
        with pytest.raises(ValueError, match="watched node 3"):
            outcome_sensitivity(triangle, {0}, watched=[1, 3], reference=[1, 0],
                                trials=5, rng_seed=1)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            schedule_sensitivity(build_gate(GateKind.OR, 2), {"x0": 1, "x1": 0},
                                 trials=0, rng_seed=1)


class TestVerifyGcmDeterminism:
    def test_monotone_instances_are_unique(self):
        assert verify_gcm_determinism(10, 3.0, 200, 12345) is Verdict.UNIQUE

    def test_single_node(self):
        assert verify_gcm_determinism(1, 0.5, 5, 0) is Verdict.UNIQUE

    def test_antagonistic_rule_breaks_uniqueness(self):
        verdict = verify_gcm_determinism(10, 3.0, 200, 12345,
                                         rule=Rule.ANTAGONISTIC)
        assert verdict is Verdict.NON_UNIQUE

    def test_truncation_reports_inconclusive(self):
        verdict = verify_gcm_determinism(12, 3.0, 10, 7, state_cap=3)
        assert verdict is Verdict.INCONCLUSIVE

    def test_workers_do_not_change_the_verdict(self):
        serial = verify_gcm_determinism(9, 2.0, 24, 77)
        parallel = verify_gcm_determinism(9, 2.0, 24, 77, jobs=4)
        assert serial is parallel

    def test_workers_do_not_change_any_instance(self):
        # several runs of batches, spread over the pool, in instance order
        outcomes = [analyze_module._instance_outcomes(9, 3.0, 24, 77, Rule.ANTAGONISTIC,
                                                      DEFAULT_STATE_CAP, jobs)
                    for jobs in (1, 2, 4)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert max(count for count, _ in outcomes[0]) > 1

    def test_every_worker_gets_runs_in_instance_order(self, monkeypatch, serial_pool):
        runs = record_runs(monkeypatch, analyze_module, "_run_fixpoints")
        outcomes = analyze_module._instance_outcomes(12, 3.0, 300, 5, Rule.MONOTONE,
                                                     DEFAULT_STATE_CAP, 3)
        assert serial_pool == [3]
        assert_split(runs, 300, 3)
        assert outcomes == analyze_module._instance_outcomes(12, 3.0, 300, 5, Rule.MONOTONE,
                                                             DEFAULT_STATE_CAP, 1)

    @pytest.mark.parametrize("rule", list(Rule))
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 16, 17, 21])
    def test_instances_match_separate_searches(self, n, rule):
        # instance i is the network that the public generators draw from
        # mix_seed(seed, i), searched alone; caps of 2^n and less run one
        # instance per search, the larger ones several up to n = 12, and 3
        # and 20 truncate
        z = 0.5 if n <= 2 else 3.0
        p = z / (n - 1) if n > 1 else 0.0
        instances = 16 if n <= 12 else 4
        seeds = mix_seed(n, np.arange(instances, dtype=np.uint64)).tolist()
        batches = set()
        for cap in (3, 20, 2**n - 1 or 1, 3 * 2**n, DEFAULT_STATE_CAP):
            batches.add(analyze_module._batch_size(n, cap) > 1)
            want = []
            for seed in seeds:
                graph = generate_er(n, p, mix_seed(seed, 0))
                net = assign_thresholds(graph, UNIFORM, rule, rng_seed=mix_seed(seed, 1))
                node = int(make_rng(mix_seed(seed, 2)).integers(n))
                found = enumerate_fixpoints(net, {node}, state_cap=cap)
                want.append((len(found.fixpoints), found.truncated))
            got = analyze_module._instance_outcomes(n, z, instances, n, rule, cap, 1)
            assert got == want, cap
        assert batches == ({False, True} if n <= 12 else {False})

    # sha256 of the JSON of every (count, truncated) outcome of
    # `verify-gcm --z 3 --instances 300 --seed 1`, recorded before
    # `net.open_output` existed: n = 12 searches in batches, n = 16 one by one
    OUTCOMES = {(12, "gcm"): "65d11081b534b682722c1d6f64ec3541987253a0641c95b3cb88ae329fc7909b",
                (12, "agcm"): "4c7d16bcde8839f1d79ef1700bb150ec6c7dba00557eb778243b4c227b61bcf6",
                (16, "gcm"): "65d11081b534b682722c1d6f64ec3541987253a0641c95b3cb88ae329fc7909b",
                (16, "agcm"): "c2ae2351a703927726a817a39aeaa39c021cc4fa003f5ce7ee087e2d7541b74b"}

    @pytest.mark.parametrize("n, rule", OUTCOMES)
    def test_instance_outcomes_golden(self, n, rule):
        outcomes = analyze_module._instance_outcomes(n, 3.0, 300, 1, Rule(rule),
                                                     DEFAULT_STATE_CAP, 1)
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == self.OUTCOMES[n, rule]

    def test_batch_memory_does_not_grow_with_the_cap(self):
        # a batch holds at most DEFAULT_STATE_CAP configurations however
        # large the cap, and instances above 12 nodes are searched alone
        assert analyze_module._batch_size(12, 2**40) == DEFAULT_STATE_CAP >> 12 == 1024
        assert analyze_module._batch_size(12, 3 * 2**12) == 3
        assert analyze_module._batch_size(4, 2**40) == DEFAULT_STATE_CAP >> 4
        for n in (13, 16, 20, 40, 64, 100):
            assert analyze_module._batch_size(n, 2**40) == 1

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected_before_any_instance_runs(self, monkeypatch, cap):
        def no_run(*args):
            raise AssertionError("an instance ran")
        monkeypatch.setattr(analyze_module, "_run_fixpoints", no_run)
        with pytest.raises(ValueError, match="state_cap"):
            verify_gcm_determinism(10, 3.0, 5, 1, state_cap=cap)
        with pytest.raises(AssertionError, match="an instance ran"):
            verify_gcm_determinism(10, 3.0, 5, 1, state_cap=1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_gcm_determinism(10, 3.0, 0, 1)
        with pytest.raises(ValueError):
            verify_gcm_determinism(10, 20.0, 5, 1)


def union_of(networks):
    """The disjoint union of networks of n nodes each: network c on nodes
    c*n .. c*n+n-1."""
    n = networks[0].n
    src, dst = ([getattr(net.graph, name) + c * n for c, net in enumerate(networks)]
                for name in ("src", "dst"))
    graph = Graph.from_edges(n * len(networks), networks[0].directed,
                             np.concatenate(src), np.concatenate(dst))
    return Network(graph, np.concatenate([net.antagonistic for net in networks]),
                   np.concatenate([net.phi for net in networks]))


class TestComponents:
    """One level search over a disjoint union of `components` networks
    finds, per component, what a search of that network alone finds."""

    @pytest.mark.parametrize("n, components, directed", [
        (1, 3, False), (2, 5, True), (7, 9, False), (12, 40, True), (16, 6, False),
        (16, 3, True), (40, 5, False), (60, 16, True)])
    def test_each_component_is_its_own_search(self, n, components, directed):
        # above 16 nodes all but 10 nodes are seeds; at n = 60 and 16
        # components the tag takes the top bits of a uint64
        rng = make_rng(100 * n + components)
        nets, seeds = [], []
        for c in range(components):
            pairs = rng.integers(0, n, (3 * n, 2))
            pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
            if not directed:
                pairs = np.unique(np.sort(pairs, axis=1), axis=0)
            graph = Graph.from_edges(n, directed, pairs[:, 0], pairs[:, 1])
            nets.append(Network(graph, rng.random(n) < 0.5, rng.random(n)))
            free = 10 if n > 16 else int(rng.integers(n + 1))
            seeds.append(frozenset(rng.permutation(n)[free:].tolist()))
        union_seeds = frozenset(c * n + s for c, chosen in enumerate(seeds) for s in chosen)
        member, owner, explored, truncated = analyze_module._by_levels(
            union_of(nets), union_seeds, DEFAULT_STATE_CAP, components)
        assert not truncated
        total = 0
        for c, (net, chosen) in enumerate(zip(nets, seeds)):
            want = enumerate_fixpoints(net, chosen)
            rows = member[owner == c]
            assert {frozenset(np.flatnonzero(row).tolist()) for row in rows} == want.fixpoints
            assert len(rows) == len(want.fixpoints)
            total += want.explored_states
        assert explored == total


class TestClosureNeverAssumed:
    """verify-gcm tests the schedule independence that the monotone closure
    assumes, and run, eval and sensitivity report what a schedule did, so
    none of them may take the closure's shortcut."""

    @staticmethod
    def outputs(workdir):
        results = [verify_gcm_determinism(8, 2.0, 5, 11, jobs=1),
                   verify_gcm_determinism(6, 2.0, 20, 3, rule=Rule.ANTAGONISTIC, jobs=1),
                   schedule_sensitivity(compile_half_adder(), {"a": 1, "b": 1}, 20, 4),
                   schedule_sensitivity(compile_expr("(a | b) & c"),
                                        {"a": 1, "b": 0, "c": 1}, 20, 5)]
        gcm = str(workdir / "gcm.json")
        argvs = [["gen", "--n", "30", "--z", "3", "--rule", "gcm", "--phi", "const:0.18",
                  "--seed", "7", "--out", gcm],
                 ["run", "--net", gcm, "--seeds", "0", "--mode", "sweep:5"],
                 ["run", "--net", str(fixture_path("and2.json")), "--seeds", "0,1",
                  "--mode", "topo"],
                 ["eval", "--net", str(fixture_path("half_adder.json")),
                  "--assign", "a=1,b=0"],
                 ["eval", "--net", str(fixture_path("and2.json")), "--assign", "a=1,b=1"],
                 ["sweep", "--n", "40", "--z", "1:3:1", "--phi", "0.18", "--rule", "agcm",
                  "--realizations", "4", "--metric", "global", "--seed", "21",
                  "--jobs", "1"]]
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            results.append((argv, code, out.getvalue()))
        return results

    def test_commands_complete_unchanged_without_the_closure(self, monkeypatch, tmp_path):
        expected = self.outputs(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("monotone_closure was called")

        original = engine.monotone_closure
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("cascade_logic")
                    and getattr(module, "monotone_closure", None) is original):
                monkeypatch.setattr(module, "monotone_closure", refuse)
        # the guard bites where the closure is used
        with pytest.raises(AssertionError, match="closure"):
            run_sweep(SweepSpec(n=20, z_values=(2.0,), phi_star=0.18,
                                rule=Rule.ANTAGONISTIC, realizations=1,
                                master_seed=1, metric=MedianExceedance()), jobs=1)
        assert self.outputs(tmp_path) == expected
