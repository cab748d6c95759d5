import math
from fractions import Fraction

import numpy as np
import pytest

from cascade_logic import engine
from cascade_logic import (ExplicitOrder, LimitExceeded, RandomSweep, Rule,
                           Topological, cutoff, is_global,
                           make_rng, mix_seed, monotone_closure, outcome_sensitivity,
                           run_cascade, settle, topological_order)
from conftest import assert_stable, network_of, random_instance, small_network
from oracles import (count_fires, fires, in_neighbors, naive_cascade, neighbor_fraction,
                     tlu_fires)


def two_node_path(directed=False):
    return network_of(2, directed, ((0, 1),))


class TestNeighborFraction:
    def test_half_labeled(self, triangle):
        assert neighbor_fraction(triangle, {0}, 1) == 0.5

    def test_fully_labeled(self, triangle):
        assert neighbor_fraction(triangle, {0, 2}, 1) == 1.0

    def test_degree_zero_is_zero(self):
        net = network_of(2, False, ())
        assert neighbor_fraction(net, {0}, 1) == 0.0

    def test_directed_uses_in_neighbors(self):
        net = two_node_path(directed=True)
        assert neighbor_fraction(net, {0}, 1) == 1.0
        assert neighbor_fraction(net, {1}, 0) == 0.0


class TestFires:
    def test_monotone_fires_on_tie(self):
        assert fires(Rule.MONOTONE, 0.5, 0.5)

    def test_antagonistic_fires_below(self):
        assert fires(Rule.ANTAGONISTIC, 0.0, 0.75)

    def test_antagonistic_blocked_at_and_above(self):
        assert not fires(Rule.ANTAGONISTIC, 0.75, 0.75)
        assert not fires(Rule.ANTAGONISTIC, 1.0, 0.75)

    def test_monotone_blocked_below(self):
        assert not fires(Rule.MONOTONE, 0.49, 0.5)

    def test_exact_fraction_comparison(self):
        assert fires(Rule.MONOTONE, Fraction(1, 3), Fraction(1, 3))
        assert not fires(Rule.ANTAGONISTIC, Fraction(1, 3), Fraction(1, 3))


def boundary_phis(d):
    """Thresholds at and next to every tie point k/d, as floats and Fractions."""
    floats = {0.0, 1.0, 0.18}
    floats.update(k / d for k in range(1, d))
    floats.update({math.nextafter(x, 0.0) for x in floats}
                  | {math.nextafter(x, 1.0) for x in floats})
    eps = Fraction(1, 10 ** 9)
    exact = {Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(9, 50)}
    exact.update(Fraction(k, d) for k in range(1, d))
    exact.update({x + e for x in exact for e in (eps, -eps) if 0 <= x + e <= 1})
    return sorted(floats), sorted(exact)


class TestCutoffPredicate:
    @pytest.mark.parametrize("rule", [Rule.MONOTONE, Rule.ANTAGONISTIC])
    def test_matches_fires_at_every_count(self, rule):
        # degree 0 has fraction 0 by convention
        for d in range(65):
            floats, exact = boundary_phis(d)
            for phi in floats + exact:
                cut = cutoff(phi, d)
                for c in range(d + 1):
                    if isinstance(phi, Fraction):
                        nu = Fraction(c, d) if d else Fraction(0)
                    else:
                        nu = c / d if d else 0.0
                    expected = fires(rule, nu, phi)
                    assert ((c >= cut) != (rule is Rule.ANTAGONISTIC)) == expected, \
                        (rule, c, d, phi)
                    assert count_fires(rule, c, d, phi) == expected, (rule, c, d, phi)


class TestTluFires:
    def test_matches_antagonistic_rule(self):
        assert tlu_fires([1, 1], [0, 0], 2, 0.75)
        assert not tlu_fires([1, 1], [1, 1], 2, 0.75)
        assert not tlu_fires([1], [1], 1, 1.0)

    def test_unit_weight_equivalence_exhaustive(self):
        # every degree <= 12, every labeled count, thresholds incl. the tie points
        for deg in range(1, 13):
            phis = [0.0, 1.0, 0.18] + [i / deg for i in range(deg + 1)]
            for labeled in range(deg + 1):
                x = [1] * labeled + [0] * (deg - labeled)
                for phi in phis:
                    expected = fires(Rule.ANTAGONISTIC, labeled / deg, phi)
                    assert tlu_fires([1] * deg, x, deg, phi) == expected

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            tlu_fires([], [], 0, 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tlu_fires([1, 1], [1], 2, 0.5)


class TestRunCascade:
    def test_two_node_path_all_modes(self):
        undirected = two_node_path()
        for mode in (RandomSweep(3), ExplicitOrder((1,))):
            result = run_cascade(undirected, {0}, mode)
            assert result.final == {0, 1}
            assert result.size_fraction == 1.0
        directed = two_node_path(directed=True)
        result = run_cascade(directed, {0}, Topological())
        assert result.final == {0, 1}

    def test_triangle_order_dependence(self, triangle):
        first = run_cascade(triangle, {0}, ExplicitOrder((1, 2)))
        second = run_cascade(triangle, {0}, ExplicitOrder((2, 1)))
        assert first.final == {0, 1}
        assert second.final == {0, 2}
        assert first.labeling_order == (1,)
        assert second.labeling_order == (2,)

    def test_seeds_default_to_network_seeds(self, triangle):
        result = run_cascade(triangle, None, ExplicitOrder((1, 2)))
        assert result.final == {0, 1}

    def test_random_sweep_reproducible(self):
        net, seeds = random_instance(7, 40, 3.0, Rule.ANTAGONISTIC)
        a = run_cascade(net, seeds, RandomSweep(11))
        b = run_cascade(net, seeds, RandomSweep(11))
        assert a == b

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_cascade(two_node_path(), {7}, RandomSweep(0))

    def test_explicit_order_must_cover_non_seeds(self):
        with pytest.raises(ValueError, match="missing"):
            run_cascade(two_node_path(), {0}, ExplicitOrder(()))

    def test_topological_needs_directed(self):
        with pytest.raises(ValueError, match="directed"):
            run_cascade(two_node_path(), {0}, Topological())

    def test_topological_rejects_cycles(self):
        loop = network_of(2, True, ((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="cycle"):
            run_cascade(loop, set(), Topological())

    def test_degree_zero_conventions(self):
        # isolated monotone node fires only at phi = 0; antagonistic at phi > 0
        net = network_of(4, False, (), [Rule.MONOTONE, Rule.MONOTONE, Rule.ANTAGONISTIC,
                                        Rule.ANTAGONISTIC], [0.0, 0.2, 0.2, 0.0])
        result = run_cascade(net, set(), ExplicitOrder((0, 1, 2, 3)))
        assert result.final == {0, 2}


class TestRunInvariants:
    @pytest.mark.parametrize("rule", [Rule.MONOTONE, Rule.ANTAGONISTIC])
    def test_seeds_kept_sizes_bounded_passes_bounded(self, rule):
        for case in range(40):
            n = 5 + case % 30
            net, seeds = random_instance(case, n, 2.5, rule, num_seeds=1 + case % 3)
            result = run_cascade(net, seeds, RandomSweep(mix_seed(case, 9)))
            assert seeds <= result.final
            assert result.size_fraction >= len(seeds) / n
            assert result.passes <= n + 1
            labeled_during_run = set(result.labeling_order)
            assert len(labeled_during_run) == len(result.labeling_order)
            assert labeled_during_run == result.final - seeds

    @pytest.mark.parametrize("rule", [Rule.MONOTONE, Rule.ANTAGONISTIC])
    def test_stopping_soundness_extra_pass(self, rule):
        for case in range(30):
            net, seeds = random_instance(1000 + case, 24, 3.0, rule)
            result = run_cascade(net, seeds, RandomSweep(mix_seed(case, 1)))
            assert_stable(net, result.final)

    def test_matches_naive_oracle_on_explicit_orders(self):
        for case in range(60):
            rule = Rule.MONOTONE if case % 2 else Rule.ANTAGONISTIC
            net, seeds = random_instance(2000 + case, 18, 2.0, rule)
            order = [int(u) for u in make_rng(case).permutation(net.n)]
            mine = run_cascade(net, seeds, ExplicitOrder(tuple(order)))
            ref_final, ref_history = naive_cascade(net, seeds, order)
            assert mine.final == ref_final
            assert list(mine.labeling_order) == ref_history


class TestGcmDeterminism:
    def test_final_state_independent_of_schedule(self):
        # monotone rule: any two sweeps and any explicit order agree
        for case in range(200):
            n = 4 + case % 61  # up to 64 nodes
            net, seeds = random_instance(3000 + case, n, 3.0, Rule.MONOTONE)
            sweep_a = run_cascade(net, seeds, RandomSweep(mix_seed(case, 0)))
            sweep_b = run_cascade(net, seeds, RandomSweep(mix_seed(case, 1)))
            forward = run_cascade(net, seeds, ExplicitOrder(tuple(range(n))))
            backward = run_cascade(net, seeds, ExplicitOrder(tuple(reversed(range(n)))))
            assert sweep_a.final == sweep_b.final == forward.final == backward.final


class TestMonotoneClosure:
    def test_matches_every_schedule_on_small_networks(self):
        rng = make_rng(77)
        for case in range(400):
            dag = case % 3 == 0
            net, seeds = small_network(rng, 12, rules=(Rule.MONOTONE,), dag=dag)
            closure = monotone_closure(net, seeds)
            order = tuple(rng.permutation(net.n).tolist())
            assert closure == run_cascade(net, seeds, RandomSweep(case)).final
            assert closure == run_cascade(net, seeds, ExplicitOrder(order)).final
            if dag:
                assert closure == run_cascade(net, seeds, Topological()).final

    @pytest.mark.parametrize("phi", [0.0, 0.18, Fraction(1, 3), 1.0])
    def test_matches_random_sweep_on_er_graphs(self, phi):
        from cascade_logic import assign_thresholds, generate_er
        for case in range(20):
            graph = generate_er(200, (1 + case % 8) / 199, mix_seed(6000, case))
            net = assign_thresholds(graph, phi, Rule.MONOTONE)
            seeds = {case, 100 + case}
            result = run_cascade(net, seeds, RandomSweep(case))
            assert monotone_closure(net, seeds) == result.final

    def test_degree_zero_and_seed_conventions(self):
        net = network_of(4, False, ((2, 3),), phi=[0.0, 0.2, 1.0, 1.0], seeds={1})
        assert monotone_closure(net, set()) == {0}
        assert monotone_closure(net, None) == {0, 1}
        assert monotone_closure(net, {2}) == {0, 2, 3}

    def test_seeds_that_fire_on_their_own_are_walked_once(self):
        # seed 0 fires with no labeled neighbor; walked twice, it would count
        # twice toward node 1, which needs both its neighbors, and label 1 and 2
        path = network_of(3, False, ((0, 1), (1, 2)), phi=[0.0, 1.0, 1.0])
        assert monotone_closure(path, {0}) == naive_cascade(path, {0}, range(3))[0] == {0}
        # an isolated seed, and phi = 0, where every node fires on its own
        for phi in ([0.0, 1.0, 1.0, 0.0], 0.0):
            net = network_of(4, False, ((0, 1), (1, 2)), phi=phi)
            for seeds in ({3}, {0, 3}, {0, 1, 3}):
                assert monotone_closure(net, seeds) == naive_cascade(net, seeds, range(4))[0]
        rng = make_rng(91)
        for case in range(200):
            n = 4 + case % 13
            net, _ = random_instance(9100 + case, n, 2.0, Rule.MONOTONE)
            phi = rng.choice([0.0, 0.5, 1.0], n)
            net = network_of(n, False, net.edges, phi=phi.tolist())
            # one seed at least that fires on its own, where there is one
            seeds = set(rng.choice(n, 1 + case % 3).tolist())
            seeds |= set(np.flatnonzero(phi == 0)[:1].tolist())
            assert monotone_closure(net, seeds) == naive_cascade(net, seeds, range(n))[0]

    def test_antagonistic_node_rejected(self):
        net = network_of(2, False, ((0, 1),), [Rule.MONOTONE, Rule.ANTAGONISTIC])
        with pytest.raises(ValueError, match="monotone"):
            monotone_closure(net, {0})

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            monotone_closure(two_node_path(), {7})


class TestExaminationBudget:
    @staticmethod
    def chain(k):
        """0 -> 1 -> ... -> k-1, each node firing once its in-neighbor is labeled."""
        return network_of(k, True, [(u, u + 1) for u in range(k - 1)], phi=1.0)

    def test_a_run_fits_a_budget_of_its_examinations_exactly(self, monkeypatch):
        # from the chain's end, each pass of k - 1 examinations labels one
        # node; k - 1 passes run and the last, empty one is counted, not run
        k = 12
        order, used = ExplicitOrder(range(k - 1, 0, -1)), (k - 1) ** 2
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", used)
        result = run_cascade(self.chain(k), {0}, order)
        assert (len(result.final), result.passes) == (k, k)
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", used - 1)
        with pytest.raises(LimitExceeded, match=f"limit of {used - 1} node examinations"):
            run_cascade(self.chain(k), {0}, order)

    def test_a_random_sweep_fits_a_budget_of_its_examinations_exactly(self, monkeypatch):
        # isolated antagonistic nodes all fire in the one pass that runs
        net = network_of(9, False, (), Rule.ANTAGONISTIC)
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", 9)
        assert run_cascade(net, (), RandomSweep(3)).passes == 2
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", 8)
        with pytest.raises(LimitExceeded):
            run_cascade(net, (), RandomSweep(3))

    def test_each_run_cascade_call_has_its_own_budget(self, monkeypatch):
        net = network_of(9, False, (), Rule.ANTAGONISTIC)
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", 9)
        for seed in range(3):
            assert len(run_cascade(net, (), RandomSweep(seed)).final) == 9

    def test_sensitivity_trials_share_one_budget(self, monkeypatch):
        net = network_of(9, False, (), Rule.ANTAGONISTIC)  # 9 examinations a trial
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", 18)
        assert outcome_sensitivity(net, (), [0], [1], trials=2, rng_seed=1).agree_fraction == 1
        monkeypatch.setattr(engine, "MAX_EXAMINATIONS", 17)
        assert outcome_sensitivity(net, (), [0], [1], trials=1, rng_seed=1).trials == 1
        with pytest.raises(LimitExceeded, match="limit of 17 node examinations"):
            outcome_sensitivity(net, (), [0], [1], trials=2, rng_seed=1)


class TestIsGlobal:
    def test_threshold_boundary(self):
        result = run_cascade(two_node_path(), {0}, RandomSweep(0))
        assert is_global(result, 0.5)
        assert is_global(result, 1.0)

    def test_half_exactly_counts(self):
        net = network_of(2, False, (), phi=1.0)
        result = run_cascade(net, {0}, RandomSweep(0))
        assert result.size_fraction == 0.5
        assert is_global(result, 0.5)
        assert not is_global(result, 0.51)

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5])
    def test_invalid_threshold(self, threshold):
        result = run_cascade(two_node_path(), {0}, RandomSweep(0))
        with pytest.raises(ValueError):
            is_global(result, threshold)


def test_topological_order_is_deterministic():
    net = network_of(4, True, ((0, 2), (1, 2), (2, 3)))
    assert topological_order(net) == (0, 1, 2, 3)


def wide_dag(rng, n=80, wide=(63, 64, 65)):
    """A random DAG of mixed rules whose ids are not in dependency order.
    Its last nodes take the `wide` fan-ins in turn and the others at most 4,
    so some have none. Each threshold is 0, 1 or a tie point k/d, as a float
    or a Fraction; at in-degree 0 a threshold above 0 is a cutoff above it."""
    rank = rng.permutation(n).tolist()  # the i-th node in dependency order
    edges, rules, phis = [], [None] * n, [None] * n
    for i in range(n):
        if i >= n - 4 * len(wide):
            d = wide[i % len(wide)]
        else:
            d = int(rng.integers(0, min(i, 4) + 1))
        edges += [(rank[j], rank[i]) for j in rng.choice(i, size=d, replace=False).tolist()]
        if d and rng.random() < 0.7:
            phi = Fraction(int(rng.integers(0, d + 1)), d)
        else:
            phi = Fraction(int(rng.integers(2)))
        rules[rank[i]] = (Rule.MONOTONE, Rule.ANTAGONISTIC)[int(rng.integers(2))]
        phis[rank[i]] = phi if rng.integers(2) else float(phi)
    return network_of(n, True, edges, rules, phis)


def settled_by_rescan(network, fixed, rows):
    """Per row r, the labeled set of one pass in dependency order that
    recounts each node's labeled in-neighbors, with node u of `fixed`
    labeled iff bit r of fixed[u] is set."""
    nbrs = in_neighbors(network)
    result = []
    for r in range(rows):
        labeled = {u for u, bits in fixed.items() if bits >> r & 1}
        for u in topological_order(network):
            spec = network.nodes[u]
            count = sum(1 for v in nbrs[u] if v in labeled)
            if u not in fixed and count_fires(spec.rule, count, len(nbrs[u]), spec.phi):
                labeled.add(u)
        result.append(labeled)
    return result


class TestSettle:
    def test_random_dags_match_naive_cascade_in_topological_order(self):
        rng = make_rng(1606)
        for case in range(40):
            net = wide_dag(rng)
            seeds = frozenset(rng.choice(net.n, size=int(rng.integers(0, 40)),
                                         replace=False).tolist())
            result = run_cascade(net, seeds, Topological())
            final, history = naive_cascade(net, seeds, topological_order(net))
            assert (result.final, list(result.labeling_order)) == (final, history), case
            assert result.passes == 1

    def test_many_rows_match_a_rescan_per_row(self):
        rng = make_rng(1607)
        for case in range(20):
            net = wide_dag(rng)
            rows = int(rng.integers(1, 130))  # across the 64-bit word boundaries too
            fixed = {u: int.from_bytes(rng.bytes(17), "little") % (1 << rows)
                     for u in rng.choice(net.n, size=20, replace=False).tolist()}
            value = settle(net, fixed, (1 << rows) - 1)
            by_row = [{u for u in range(net.n) if value[u] >> r & 1} for r in range(rows)]
            assert by_row == settled_by_rescan(net, fixed, rows), case

    @pytest.mark.parametrize("phi", [Fraction(1, 2), 0.5, Fraction(2049, 4096)])
    def test_4096_in_neighbors_at_the_tie(self, phi):
        # inputs 0..4095 feed a monotone node 4096 and an antagonistic node 4097
        wide = 1 << 12
        edges = [(i, g) for g in (wide, wide + 1) for i in range(wide)]
        net = network_of(wide + 2, True, edges,
                         [Rule.MONOTONE] * (wide + 1) + [Rule.ANTAGONISTIC], phi)
        cut = cutoff(phi, wide)
        counts = (2047, 2048, 2049)
        fixed = {i: sum(1 << r for r, k in enumerate(counts) if i < k) for i in range(wide)}
        value = settle(net, fixed, 0b111)
        expected = sum(1 << r for r, k in enumerate(counts) if k >= cut)
        assert (value[wide], value[wide + 1]) == (expected, expected ^ 0b111)
        for k in counts:
            result = run_cascade(net, range(k), Topological())
            final, history = naive_cascade(net, set(range(k)), topological_order(net))
            assert (result.final, list(result.labeling_order)) == (final, history)
            assert (wide in final, wide + 1 in final) == (k >= cut, k < cut)
