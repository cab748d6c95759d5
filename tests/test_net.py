import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import stat
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cascade_logic import (Basis, Network, NetworkFormatError, RandomSweep, Rule,
                           UNIFORM, assign_thresholds, compile_expr, cutoff, evaluate,
                           fixture_path, generate_er, load_bundle, load_network, make_rng,
                           monotone_closure, run_cascade, save_network, stats, truth_table)
from cascade_logic import net as net_module
from cascade_logic._seeds import make_rngs, mix_seed
from cascade_logic.net import (Graph, _cutoffs, _draw_size, _er_union, _float_cutoffs,
                               _pair_from_linear, open_output, write_text)
from conftest import network_of


# each p with each n over 5 components, and verify-gcm's batches in the
# analysis benchmark: 300 components of G(12, 3/11)
UNION_CASES = [(n, p, 5) for p in (0.0, 0.03, 0.5, 1.0) for n in (1, 2, 12, 100)] + [
    (12, 3 / 11, 300)]
UNION_IDS = [f"{p}-{n}" if k == 5 else f"{n}-3/11-{k}" for n, p, k in UNION_CASES]


# sha256 of the edge arrays of generate_er(n, p, seed) for each seed, and of
# _er_union batches, recorded from an implementation that drew one graph and
# a batch by separate routines: a change to any stream of either shows here.
# Seeds 120, 426 and 700 at n = 200 and 328 at n = 1000 draw first gaps that
# fall short of the n(n-1)/2 pairs at p = 1/(n-1), so their draws go on.
ER_STREAMS = [  # (n, p, seeds, sha256)
    (1, 0.0, (0, 1, 2), "bca9717af5ebb0430ac1154bce6e80f06e8f11cb0330304605503fdfa0df0fde"),
    (1, 0.005, (0, 1, 2), "bca9717af5ebb0430ac1154bce6e80f06e8f11cb0330304605503fdfa0df0fde"),
    (1, 0.5, (0, 1, 2), "bca9717af5ebb0430ac1154bce6e80f06e8f11cb0330304605503fdfa0df0fde"),
    (1, 1.0, (0, 1, 2), "bca9717af5ebb0430ac1154bce6e80f06e8f11cb0330304605503fdfa0df0fde"),
    (2, 0.0, (0, 1, 2), "3b7ef3a135581b122dd71f587c79e82c764a30c8526fff7c7eac5826903558b4"),
    (2, 0.005, (0, 1, 2), "3b7ef3a135581b122dd71f587c79e82c764a30c8526fff7c7eac5826903558b4"),
    (2, 0.5, (0, 1, 2), "7e7c8885d3fcdcc0623d58c4cdc79027d9d69cd711b7d41b9668bf39a62349b2"),
    (2, 1.0, (0, 1, 2), "a5c21fc1d2d89cb2cdff6f6d4a9c1e970e95f6b973dd6a566667047af29f616b"),
    (12, 0.0, (0, 1, 2), "c53bcd519dee379dec62da8f87ac574a9c13be8611e7cc16c9d85f7cb886a336"),
    (12, 0.005, (0, 1, 2), "37a77ef7aeb63e543b723599986de2872d37d0b86774bca4ca58e57d9a310c20"),
    (12, 0.5, (0, 1, 2), "28aee47ae2f58672e1ad54913b7358c8cf0b0d28e4b61a63e4900d2405222ac3"),
    (12, 1.0, (0, 1, 2), "070276d2f5ba63f2c309f740762cbc348c03008ea64826b2f550eee7edcc5251"),
    (200, 0.0, (0, 1, 2), "966508543a4121e95c1201eeec55f10f2cab41087346e306703f1ff70bcd6571"),
    (200, 0.005, (0, 1, 2), "1785a0beeb80a1ab6320a5c26ec2603d550d37625f8f0c73a14a85128e724c2f"),
    (200, 0.5, (0, 1, 2), "def8681cf5da4164a7542d3ecf4736999834948a4b972f23e749745c80388435"),
    (200, 1.0, (0, 1, 2), "41a2c1829d821e1784e5f54a90e3c9faab64bff0d89c036bc4fa0bac10dccccd"),
    (1000, 0.0, (0, 1, 2), "0a3bec61f2b413e8c1fd020a5761f3cf783835e61243fa3c9b57435b9aed1871"),
    (1000, 0.005, (0, 1, 2), "d58019de68a9547dc2b69e4d58872eb4a9dc482f4010532d8b1b42d32184453b"),
    (1000, 0.5, (0, 1, 2), "8f9a7ce0d749133580f57823ab207b51e17b547a8fab326491b3ca9de4625e75"),
    (1000, 1.0, (0, 1, 2), "39ae85c16516638cabf4ae0f0cdac8f4fb960636e32e33d25bc697d4aca32dc5"),
    (200, 1 / 199, (120, 426, 700, 0),
     "73016f9ad51b600ebbefc960c14ff4e76caeedc22a8e299b8d1986dbfc07034c"),
    (1000, 1 / 999, (328, 0), "c351023a61f58ded4ebee9acd6d17697f08f10dfe1bcbad792a0f753cd8142dc"),
]
UNION_STREAMS = [  # (n, p, the generators' seeds, sha256)
    (12, 3 / 11, mix_seed(12, np.arange(300, dtype=np.uint64)),
     "8215c64ce93320554ab8c3e01f8c175f37b5c6cf02940b66694ef08eef8bc2bb"),
    (200, 1 / 199, np.array([0, 120, 1, 426, 700], dtype=np.uint64),
     "594ebeddf6e5ff2a67bd580ceb8b00f685eb596aebe94590fbc665dadf37d6ae"),
]


def edges_digest(graphs) -> str:
    digest = hashlib.sha256()
    for g in graphs:
        for array in (np.array([g.n, g.src.size]), g.src, g.dst):
            digest.update(array.astype("<i8").tobytes())
    return digest.hexdigest()


class ZeroUniforms:
    """A generator stand-in whose uniforms are all 0: every trial succeeds."""

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0
        return out


def path_network(n, rule=Rule.MONOTONE, phi=0.5, seeds=(), directed=False):
    edges = tuple((i, i + 1) for i in range(n - 1))
    return network_of(n, directed, edges, rule, phi, seeds)


class TestGenerateEr:
    def test_n2_p1_forces_one_edge(self):
        assert len(generate_er(2, 1.0, 0).edges) == 1

    def test_n3_p0_has_no_edges(self):
        assert len(generate_er(3, 0.0, 0).edges) == 0

    def test_complete_graph_at_p1(self):
        net = generate_er(17, 1.0, 5)
        assert len(net.edges) == 17 * 16 // 2

    def test_edge_count_within_3_sigma(self):
        # binomial over m = n(n-1)/2 pairs: mean = m*p, var = m*p*(1-p)
        n, p = 10000, 5 / 9999
        m = n * (n - 1) // 2
        mean = m * p
        sigma = math.sqrt(m * p * (1 - p))
        count = len(generate_er(n, p, 20210).edges)
        assert abs(count - mean) <= 3 * sigma

    def test_reproducible_and_seed_sensitive(self):
        a = generate_er(60, 0.1, 9)
        b = generate_er(60, 0.1, 9)
        c = generate_er(60, 0.1, 10)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_mean_edge_count_over_100_seeds(self):
        n, p = 200, 0.02
        expected = n * (n - 1) / 2 * p
        counts = [len(generate_er(n, p, s).edges) for s in range(100)]
        assert abs(np.mean(counts) - expected) <= 0.05 * expected

    def test_degree_sum_is_twice_edge_count(self):
        graph = generate_er(123, 0.05, 3)
        assert graph.degrees.sum() == 2 * len(graph.edges)

    def test_simple_graph_invariants(self):
        net = generate_er(80, 0.2, 11)
        assert all(u < v for u, v in net.edges)
        assert len(set(net.edges)) == len(net.edges)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_invalid_p(self, p):
        with pytest.raises(ValueError):
            generate_er(10, p, 0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate_er(0, 0.5, 0)

    @pytest.mark.parametrize("n, p, seeds, digest", ER_STREAMS,
                             ids=[f"{n}-{p:.3g}-{s[0]}" for n, p, s, _ in ER_STREAMS])
    def test_streams_are_pinned(self, n, p, seeds, digest):
        assert edges_digest(generate_er(n, p, s) for s in seeds) == digest

    @pytest.mark.parametrize("n, p, seeds, digest", UNION_STREAMS,
                             ids=[f"{n}-{p:.3g}-{s.size}" for n, p, s, _ in UNION_STREAMS])
    def test_union_streams_are_pinned(self, n, p, seeds, digest):
        assert edges_digest([_er_union(n, p, make_rngs(seeds))]) == digest

    @pytest.mark.parametrize("n, p, k", UNION_CASES, ids=UNION_IDS)
    def test_union_components_are_generate_er_graphs(self, n, p, k):
        seeds = mix_seed(n, np.arange(k, dtype=np.uint64))
        union = _er_union(n, p, make_rngs(seeds))
        parts = [generate_er(n, p, s) for s in seeds.tolist()]
        assert union.n == k * n and not union.directed
        for name in ("src", "dst"):
            want = np.concatenate([getattr(g, name) + i * n for i, g in enumerate(parts)])
            assert np.array_equal(getattr(union, name), want), name
        for i, g in enumerate(parts):  # each node's neighbors, in the same order
            for u in range(n):
                got = union.indices[union.indptr[i * n + u]:union.indptr[i * n + u + 1]]
                assert got.tolist() == (g.indices[g.indptr[u]:g.indptr[u + 1]] + i * n).tolist()

    @pytest.mark.parametrize("n, p", [(12, 3 / 11), (40, 0.05), (100, 0.5)])
    def test_union_of_all_success_draws_is_complete_graphs(self, n, p):
        # every first draw ends inside the n(n-1)/2 pairs, so every component
        # goes on drawing alone until it has them all
        m = n * (n - 1) // 2
        assert _draw_size(m, p, -1) < m
        union = _er_union(n, p, [ZeroUniforms()] * 4)
        us, vs = np.triu_indices(n, 1)
        assert np.array_equal(union.src, np.concatenate([us + i * n for i in range(4)]))
        assert np.array_equal(union.dst, np.concatenate([vs + i * n for i in range(4)]))

    @pytest.mark.parametrize("n, p", [(12, 3 / 11), (40, 0.05)])
    def test_union_mixing_all_success_draws_is_each_components_draw(self, n, p):
        seeds = mix_seed(n, np.arange(9, dtype=np.uint64)).tolist()
        rngs = [ZeroUniforms() if i % 3 == 1 else make_rng(s) for i, s in enumerate(seeds)]
        union = _er_union(n, p, rngs)  # components 1, 4 and 7 take the all-success path
        complete = np.triu_indices(n, 1)
        want = [complete if i % 3 == 1 else (g.src, g.dst)
                for i, g in enumerate(generate_er(n, p, s) for s in seeds)]
        for name, side in (("src", 0), ("dst", 1)):
            parts = [pair[side] + i * n for i, pair in enumerate(want)]
            assert np.array_equal(getattr(union, name), np.concatenate(parts)), name


class TestPairIndexing:
    @pytest.mark.parametrize("n", [2, 3, 7, 30, 81])
    def test_matches_lexicographic_enumeration(self, n):
        m = n * (n - 1) // 2
        us, vs = _pair_from_linear(np.arange(m, dtype=np.int64), n)
        assert list(zip(us.tolist(), vs.tolist())) == list(combinations(range(n), 2))

    @pytest.mark.parametrize("n", [2, 3, 12, 1000])
    def test_matches_triu_indices(self, n):
        us, vs = _pair_from_linear(np.arange(n * (n - 1) // 2, dtype=np.int64), n)
        rows, cols = np.triu_indices(n, 1)
        assert np.array_equal(us, rows) and np.array_equal(vs, cols)

    @pytest.mark.parametrize("n, p, seed", [(1, 0.5, 1), (2, 1.0, 1), (12, 3 / 11, 7),
                                            (300, 0.02, 3)])
    def test_generated_graph_equals_validated_build(self, n, p, seed):
        graph = generate_er(n, p, seed)
        assert type(graph) is Graph
        checked = Graph.from_edges(n, False, graph.src, graph.dst)
        for name in ("src", "dst", "indptr", "indices", "out_indptr", "out_indices",
                     "degrees"):
            got, want = getattr(graph, name), getattr(checked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_large_n_round_trip(self):
        n = 10000
        m = n * (n - 1) // 2
        idx = np.array([0, 1, n - 2, n - 1, m // 3, m // 2, m - 2, m - 1], dtype=np.int64)
        us, vs = _pair_from_linear(idx, n)
        back = us * (2 * n - us - 1) // 2 + (vs - us - 1)
        assert np.array_equal(back, idx)
        assert np.all(us < vs)
        assert np.all(vs < n)


class TestFloatCutoffs:
    def test_match_scalar_cutoff(self):
        # every tie k/d up to degree 64 and the floats either side of it,
        # phi 0 and 1 at several degrees, degree 0, then random draws
        phis, degrees = [], []
        for d in range(65):
            for k in range(d + 1):
                tie = k / d if d else 0.0
                phis += [tie, float(np.nextafter(tie, 0.0)), float(np.nextafter(tie, 1.0))]
                degrees += [d] * 3
        for d in (0, 1, 7, 1000):
            phis += [0.0, 1.0]
            degrees += [d, d]
        phis += make_rng(3).random(7000).tolist()
        degrees += make_rng(4).integers(0, 1000, 5000).tolist()
        degrees += make_rng(5).integers(1000, 2**40, 2000).tolist()  # one step still holds
        got = _float_cutoffs(np.array(phis), np.array(degrees, dtype=np.int64))
        assert got.tolist() == [cutoff(p, d) for p, d in zip(phis, degrees)]

    @pytest.mark.parametrize("phis, degrees", [
        # num and den fit in int64 but num * degree does not
        ([Fraction(2**62 - 1, 2**62), Fraction(2**63 - 3, 2**63 - 1), Fraction(1, 3), 1 / 3,
          Fraction(0)], [4, 5, 3, 3, 0]),
        # num and den past 2^64, near and at ties k/d
        ([Fraction(3 * 2**70 - 1, 4 * 2**70), Fraction(2**64, 2**64 + 1),
          Fraction(2**80 + 1, 3 * 2**80), Fraction(1, 3), 0.75], [4, 1000, 3, 3, 4])])
    def test_exact_cutoffs_past_int64(self, phis, degrees):
        got = _cutoffs(np.array(phis, dtype=object), np.array(degrees))
        assert got.tolist() == [cutoff(p, d) for p, d in zip(phis, degrees)]

    def test_uniform_assignment_uses_them(self):
        net = assign_thresholds(generate_er(300, 0.02, 5), UNIFORM, Rule.MONOTONE,
                                rng_seed=6)
        assert net.cutoff.tolist() == [cutoff(s.phi, d)
                                       for s, d in zip(net.nodes, net.graph.degrees.tolist())]


class TestAssignThresholds:
    def test_constant_applies_everywhere(self):
        net = assign_thresholds(generate_er(50, 0.1, 1), 0.18, Rule.MONOTONE)
        assert all(spec.phi == 0.18 for spec in net.nodes)
        assert all(spec.rule is Rule.MONOTONE for spec in net.nodes)

    def test_uniform_is_deterministic_per_seed(self):
        base = generate_er(40, 0.1, 1)
        a = assign_thresholds(base, UNIFORM, Rule.ANTAGONISTIC, rng_seed=5)
        b = assign_thresholds(base, UNIFORM, Rule.ANTAGONISTIC, rng_seed=5)
        c = assign_thresholds(base, UNIFORM, Rule.ANTAGONISTIC, rng_seed=6)
        assert [s.phi for s in a.nodes] == [s.phi for s in b.nodes]
        assert [s.phi for s in a.nodes] != [s.phi for s in c.nodes]

    def test_uniform_mean_concentrates(self):
        # mean of 1e5 U[0,1) draws; sd of the mean is ~0.0009
        net = assign_thresholds(generate_er(100_000, 0.0, 0), UNIFORM,
                                Rule.MONOTONE, rng_seed=123)
        mean = np.mean([s.phi for s in net.nodes])
        assert 0.49 <= mean <= 0.51

    def test_uniform_values_in_range(self):
        net = assign_thresholds(generate_er(500, 0.0, 0), UNIFORM,
                                Rule.MONOTONE, rng_seed=77)
        assert all(0 <= s.phi < 1 for s in net.nodes)

    def test_uniform_requires_seed(self):
        with pytest.raises(ValueError, match="rng_seed"):
            assign_thresholds(generate_er(5, 0.0, 0), UNIFORM, Rule.MONOTONE)

    @pytest.mark.parametrize("phi", [-0.2, 1.001])
    def test_constant_out_of_range(self, phi):
        with pytest.raises(ValueError):
            assign_thresholds(generate_er(5, 0.0, 0), phi, Rule.MONOTONE)

    def test_original_is_untouched(self):
        base = generate_er(10, 0.3, 2)
        edges = base.edges
        assigned = assign_thresholds(base, 0.3, Rule.MONOTONE)
        assert base.edges == edges == assigned.edges
        assert assigned.graph is base  # topology is shared, not copied
        assert assigned.seeds == frozenset()


def _stats_graphs(group: str) -> list[Graph]:
    """The graphs whose `stats` `STATS_GOLDEN` pins, by group."""
    if group == "er":  # sparse to dense, isolated nodes to one giant component
        return [generate_er(n, min(1.0, z / max(n - 1, 1)), seed)
                for n, seeds in ((1, 2), (2, 3), (5, 3), (30, 3), (300, 3), (2000, 3), (20000, 1))
                for z in (0.5, 2.0, 6.0, 12.0) for seed in range(seeds)] + [
            generate_er(60, 0.5, 1), generate_er(200, 0.9, 2)]
    if group == "star":
        return [Graph.from_edges(4001, False, [0] * 4000, range(1, 4001))]
    if group == "clique":
        return [Graph.from_edges(40, False, *zip(*combinations(range(40), 2)))]
    # every fixture's edges as an undirected graph
    graphs = []
    for name in sorted(os.listdir(fixture_path("triangle.json").parent)):
        graph = load_network(fixture_path(name)).graph
        graphs.append(Graph.from_edges(graph.n, False, graph.src, graph.dst))
    return graphs


# sha256 of the json.dumps of each graph's `NetworkStats`, one line per graph,
# recorded from the pairwise neighbor loop that `stats` ran before it counted
# triangles in numpy: the CLI's bytes, last float digit included
STATS_GOLDEN = {
    "er": "605c49eb0b115186e1f76ff5fad54dbf86b001cddf9467d22ab8655d4545d5b8",
    "star": "5793de13ab87670b50755552e46052f3eb77ecbdf0357768c8ce8c9dc03d5743",
    "clique": "3b4ca99dc1b51d35e2e0eab757ad24d966b4ec7a8f0cb39d64f868490c9078c1",
    "fixtures": "9cd174f8f6c9d8b6cac4ec08e451713a63f559818e264d16f8197331c37503aa",
}


class TestStats:
    @pytest.mark.parametrize("group", sorted(STATS_GOLDEN))
    def test_golden(self, group):
        text = "\n".join(json.dumps(dataclasses.asdict(stats(g))) for g in _stats_graphs(group))
        assert hashlib.sha256(text.encode()).hexdigest() == STATS_GOLDEN[group]

    # at one wedge a chunk, each chunk is one edge, whatever its wedges; at
    # seven, a chunk holds several edges, or one edge with more than seven
    @pytest.mark.parametrize("wedges", [1, 7])
    @pytest.mark.parametrize("group", ["clique", "fixtures"])
    def test_wedge_chunks_keep_the_golden(self, monkeypatch, wedges, group):
        monkeypatch.setattr(net_module, "_WEDGES", wedges)
        self.test_golden(group)

    def test_hubs_match_networkx(self):
        # a hub holds most triangles: it ranks last, so each is found at a leaf
        nx = pytest.importorskip("networkx")
        for graph in (nx.wheel_graph(50), nx.windmill_graph(5, 12),
                      nx.barabasi_albert_graph(400, 4, seed=3), nx.star_graph(30)):
            src, dst = zip(*graph.edges())
            result = stats(Graph.from_edges(graph.number_of_nodes(), False, src, dst))
            assert abs(result.clustering_coefficient - nx.average_clustering(graph)) <= 1e-12

    def test_triangle(self):
        result = stats(Graph.from_edges(3, False, (0, 0, 1), (1, 2, 2)))
        assert result.clustering_coefficient == 1.0
        assert result.mean_degree == 2.0
        assert result.edge_count == 3

    def test_star_has_no_triangles(self):
        star = Graph.from_edges(5, False, (0, 0, 0, 0), (1, 2, 3, 4))
        assert stats(star).clustering_coefficient == 0.0

    def test_er_clustering_tracks_z_over_n(self):
        # ER expectation is z/(n-1); allow a factor-2 band on the 20-seed mean
        n, z = 1000, 5.0
        expected = z / (n - 1)
        values = []
        for seed in range(20):
            net = generate_er(n, z / (n - 1), seed)
            values.append(stats(net).clustering_coefficient)
        mean = np.mean(values)
        assert 0.5 * expected <= mean <= 2 * expected

    def test_mean_degree_identity(self):
        net = generate_er(300, 0.02, 8)
        result = stats(net)
        assert result.mean_degree == 2 * result.edge_count / result.n

    def test_directed_rejected(self):
        with pytest.raises(ValueError, match="undirected"):
            stats(path_network(3, directed=True).graph)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = make_rng(5150)
        for seed in range(50):
            n, p = int(rng.integers(3, 31)), float(rng.uniform(0.2, 0.9))
            net = generate_er(n, p, seed)
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(net.edges)
            result = stats(net)
            assert result.edge_count == graph.number_of_edges()
            assert abs(result.clustering_coefficient - nx.average_clustering(graph)) <= 1e-12


class TestNetworkValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, False, (0,), (0,))

    def test_duplicate_edge_rejected_after_normalization(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, False, (0, 1), (1, 0))

    def test_directed_antiparallel_pair_allowed(self):
        assert len(Graph.from_edges(2, True, (0, 1), (1, 0)).edges) == 2

    def test_undirected_edges_normalized(self):
        assert Graph.from_edges(3, False, (2,), (0,)).edges == ((0, 2),)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            network_of(1, False, (), seeds={3})

    @pytest.mark.parametrize("endpoint", [2 ** 63, -2 ** 63 - 1])
    def test_endpoint_outside_int64_is_a_missing_node(self, endpoint):
        with pytest.raises(ValueError, match=rf"edge \(1, {endpoint}\) references a missing"):
            Graph.from_edges(2, False, (0, 1), (1, endpoint))

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Network(Graph.from_edges(0, False, (), ()), (), ())

    def test_phi_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"phi must lie in \[0, 1\], got 1.25 at node 1"):
            network_of(3, False, (), phi=[0.5, 1.25, 0.5])

    @pytest.mark.parametrize("phi", [-0.5, math.nan, Fraction(5, 4), Fraction(-1, 3)])
    def test_phi_range_checked_in_mixed_columns(self, phi):
        with pytest.raises(ValueError, match="phi must lie in"):
            network_of(3, False, (), phi=[0.5, phi, Fraction(1, 2)])

    def test_columns_must_match_the_graph(self):
        graph = Graph.from_edges(3, False, (), ())
        for antagonistic, phi in (([False] * 3, [0.5, 0.5]), ([False] * 2, [0.5] * 3),
                                  ([Rule.MONOTONE] * 3, [0.5] * 3), ([0, 1, 0], [0.5] * 3)):
            with pytest.raises(ValueError, match="needs 3 booleans and phi 3 thresholds"):
                Network(graph, antagonistic, phi)

    def test_columns_are_read_only_copies(self):
        # integer thresholds become floats; the caller's arrays stay writable
        anti, phi = np.zeros(2, dtype=bool), np.array([0, 1])
        net = Network(Graph.from_edges(2, False, (0,), (1,)), anti, phi)
        assert net.phi.dtype == np.float64 and net.phi.tolist() == [0.0, 1.0]
        assert not net.phi.flags.writeable and not net.antagonistic.flags.writeable
        anti[0] = True
        assert anti.flags.writeable and not net.antagonistic[0]


class TestAdjacencyViews:
    @pytest.mark.parametrize("directed", [False, True])
    def test_views_match_edge_list_scan(self, directed):
        # CSR rows list the edges in input order, as a plain scan does
        rng = np.random.default_rng(17)
        for case in range(30):
            n = 2 + case % 15
            pairs = {tuple(int(x) for x in rng.choice(n, 2, replace=False))
                     for _ in range(3 * n)}
            if not directed:  # one orientation per pair, either way round
                pairs = {p for p in pairs if p[0] < p[1] or (p[1], p[0]) not in pairs}
            edges = sorted(pairs)
            rng.shuffle(edges)
            net = network_of(n, directed, edges)
            stored = [(min(u, v), max(u, v)) if not directed else (u, v) for u, v in edges]
            assert net.edges == tuple(stored)
            ins = [[] for _ in range(n)]
            outs = [[] for _ in range(n)]
            for u, v in stored:
                ins[v].append(u)
                outs[u].append(v)
                if not directed:
                    ins[u].append(v)
                    outs[v].append(u)
            graph = net.graph
            for v in range(n):
                a, b = graph.indptr[v], graph.indptr[v + 1]
                assert graph.indices[a:b].tolist() == ins[v]
                a, b = graph.out_indptr[v], graph.out_indptr[v + 1]
                assert graph.out_indices[a:b].tolist() == outs[v]
            assert graph.degrees.tolist() == [len(a) for a in ins]
            if not directed:  # all neighbors either way: one pair of arrays
                assert graph.out_indptr is graph.indptr
                assert graph.out_indices is graph.indices

    @pytest.mark.parametrize("directed", [False, True])
    def test_view_reads_the_arrays_in_place(self, directed):
        graph = generate_er(30, 0.2, 1)
        if directed:  # every edge descends: in- and out-rows differ
            graph = Graph.from_edges(30, True, graph.dst, graph.src)
        view = graph.view
        assert view[0][0] is graph.view[0][0]  # the row pointers: one list, kept
        for (ptr, flat), (indptr, indices) in zip(view, ((graph.indptr, graph.indices),
                                                         (graph.out_indptr, graph.out_indices))):
            assert type(ptr) is list and ptr == indptr.tolist()
            assert flat.readonly and np.shares_memory(flat, indices)
            assert [list(flat[a:b]) for a, b in zip(ptr, ptr[1:])] == [
                indices[a:b].tolist() for a, b in zip(ptr, ptr[1:])]
        assert (view[0] is view[1]) != directed

    def test_walked_graphs_networks_and_circuits_pickle(self):
        # the loops read each graph through a view of its arrays; a graph
        # they walked still pickles, as every worker's arguments must
        graph = generate_er(60, 0.1, 3)
        monotone = assign_thresholds(graph, 0.18, Rule.MONOTONE)
        monotone_closure(monotone, {0, 1})
        antagonistic = assign_thresholds(graph, 0.18, Rule.ANTAGONISTIC)
        run_cascade(antagonistic, {0}, RandomSweep(1))
        circuit = compile_expr("(a ^ b) | c", Basis.NAND_ONLY)
        evaluate(circuit, {"a": 1, "b": 0, "c": 0})
        truth_table(circuit)
        descending = Graph.from_edges(4, True, (3, 2, 1), (2, 1, 0))
        assert descending.topological_order == (3, 2, 1, 0)
        for original in (monotone, antagonistic, circuit):
            assert pickle.loads(pickle.dumps(original)) == original
        copy = pickle.loads(pickle.dumps(monotone))  # its view is built again
        assert monotone_closure(copy, {0, 1}) == monotone_closure(monotone, {0, 1})
        for original in (graph, circuit.network.graph, descending):
            copy = pickle.loads(pickle.dumps(original))
            for f in dataclasses.fields(Graph):
                assert np.array_equal(getattr(copy, f.name), getattr(original, f.name)), f.name


def kahn_smallest_first(n, edges):
    """Kahn's algorithm that takes the smallest ready id each step, or None
    when `edges` hold a cycle."""
    indeg, out = [0] * n, [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
        indeg[v] += 1
    ready, order = [u for u in range(n) if indeg[u] == 0], []
    while ready:
        u = min(ready)
        ready.remove(u)
        order.append(u)
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return tuple(order) if len(order) == n else None


class NoHeap:
    def __getattr__(self, name):
        raise AssertionError("Kahn's heap ran")


class TestTopologicalOrder:
    def test_random_dags_match_kahn(self, monkeypatch):
        rng = np.random.default_rng(29)
        descended = 0
        for case in range(60):
            n = 1 + case % 25
            pairs = {tuple(sorted(int(x) for x in rng.choice(n, 2, replace=False)))
                     for _ in range(2 * n if n > 1 else 0)}
            climbing = sorted(pairs)
            rank = rng.permutation(n).tolist()
            relabelled = [(rank[u], rank[v]) for u, v in climbing]
            descended += any(u > v for u, v in relabelled)
            with monkeypatch.context() as patch:  # every edge climbs: no heap
                patch.setattr(net_module, "heapq", NoHeap())
                order = network_of(n, True, climbing).graph.topological_order
            assert order == kahn_smallest_first(n, climbing) == tuple(range(n)), case
            order = network_of(n, True, relabelled).graph.topological_order
            assert order == kahn_smallest_first(n, relabelled), case
        assert descended > 40

    def test_no_edges(self):
        assert Graph.from_edges(5, True, (), ()).topological_order == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 0)],
                                       [(0, 1), (1, 2), (2, 3), (3, 1)]])
    def test_a_cycle_raises(self, edges):
        assert kahn_smallest_first(4, edges) is None
        graph = network_of(4, True, edges).graph
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        net = assign_thresholds(generate_er(40, 0.15, 3), UNIFORM,
                                Rule.ANTAGONISTIC, rng_seed=4)
        net = Network(net.graph, net.antagonistic, net.phi, seeds={1, 5})
        target = tmp_path / "net.json"
        save_network(net, target)
        assert load_network(target) == net

    def test_round_trip_preserves_phi_exactly(self, tmp_path):
        net = assign_thresholds(generate_er(25, 0.2, 1), UNIFORM,
                                Rule.MONOTONE, rng_seed=9)
        target = tmp_path / "net.json"
        save_network(net, target)
        loaded = load_network(target)
        assert [s.phi for s in loaded.nodes] == [s.phi for s in net.nodes]

    def test_round_trip_directed_with_ports(self, tmp_path):
        net = path_network(3, directed=True)
        target = tmp_path / "net.json"
        save_network(net, target, inputs={"a": 0}, outputs={"out": 2})
        bundle = load_bundle(target)
        assert bundle.network == net
        assert bundle.inputs == {"a": 0}
        assert bundle.outputs == {"out": 2}

    def test_save_holds_one_chunk_at_a_time(self, tmp_path):
        # about 50,000 nodes and 75,000 edges: 13 and 19 chunks, a file of about 5 MB
        net = assign_thresholds(generate_er(50_000, 3 / 49_999, 11), UNIFORM,
                                Rule.MONOTONE, rng_seed=12)
        target = tmp_path / "net.json"
        tracemalloc.start()
        try:
            save_network(net, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an item in a chunk holds its Python values, its text and its share of
        # the chunk's joined and encoded text: about 350 bytes, well below 1 KB
        assert peak < 1024 * net_module._CHUNK
        text = target.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        assert load_network(target) == net

    def test_duplicate_edge_file_rejected(self, tmp_path):
        doc = {"directed": False,
               "nodes": [{"id": 0, "rule": "gcm", "phi": 0.5},
                         {"id": 1, "rule": "gcm", "phi": 0.5}],
               "edges": [[0, 1], [1, 0]], "seeds": []}
        target = tmp_path / "dup.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match="duplicate"):
            load_network(target)

    def test_phi_out_of_range_file_rejected(self, tmp_path):
        doc = {"directed": False,
               "nodes": [{"id": 0, "rule": "gcm", "phi": 1.25}],
               "edges": [], "seeds": []}
        target = tmp_path / "phi.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match=r"nodes\[0\].phi"):
            load_network(target)

    def test_unknown_rule_rejected(self, tmp_path):
        doc = {"directed": False,
               "nodes": [{"id": 0, "rule": "sir", "phi": 0.5}],
               "edges": [], "seeds": []}
        target = tmp_path / "rule.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match="unknown rule"):
            load_network(target)

    def test_json_syntax_error_reports_line(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"directed": false,\n "nodes": [}')
        with pytest.raises(NetworkFormatError, match="line 2"):
            load_network(target)

    def test_missing_key_reported(self, tmp_path):
        target = tmp_path / "missing.json"
        target.write_text(json.dumps({"directed": False, "nodes": [], "edges": []}))
        with pytest.raises(NetworkFormatError, match="seeds"):
            load_network(target)

    def test_unknown_key_reported(self, tmp_path):
        doc = {"directed": False, "nodes": [{"id": 0, "rule": "gcm", "phi": 0.5}],
               "edges": [], "seeds": [], "weights": []}
        target = tmp_path / "extra.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match="weights"):
            load_network(target)

    @pytest.mark.parametrize("field, value, message", [
        ("rule", ["gcm"], "nodes[0].rule: unknown rule name ['gcm']"),
        ("phi", 10**400, f"nodes[0].phi must lie in [0, 1], got {10**400}")])
    def test_unhashable_rule_and_huge_phi_are_format_errors(self, field, value, message):
        node = {"id": 0, "rule": "gcm", "phi": 0.5, field: value}
        doc = {"directed": False, "nodes": [node], "edges": [], "seeds": []}
        with pytest.raises(NetworkFormatError) as caught:
            load_network(io.StringIO(json.dumps(doc)))
        assert str(caught.value) == message

    def test_non_dense_ids_rejected(self, tmp_path):
        doc = {"directed": False,
               "nodes": [{"id": 0, "rule": "gcm", "phi": 0.5},
                         {"id": 2, "rule": "gcm", "phi": 0.5}],
               "edges": [], "seeds": []}
        target = tmp_path / "ids.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match="0..1"):
            load_network(target)


class TestWriteText:
    """A path is rewritten in place and cut at the end of the new text."""

    def test_shorter_text_leaves_no_tail(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text("x" * 5000, target)
        write_text(("short", "\n"), target)
        assert target.read_bytes() == b"short\n"

    def test_an_exception_mid_write_leaves_what_was_written(self, tmp_path):
        def chunks():
            yield "first chunk\n"
            raise RuntimeError("mid-write")

        target = tmp_path / "out.txt"
        write_text("old text " * 1000, target)
        with pytest.raises(RuntimeError, match="mid-write"):
            write_text(chunks(), target)
        assert target.read_bytes() == b"first chunk\n"

    def test_bytes_equal_those_of_open_w(self, tmp_path):
        text = "a\n\u00e9\u4e2d\n" * 300
        write_text(text, tmp_path / "a")
        with open(tmp_path / "b", "w", encoding="utf-8") as f:
            f.write(text)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_new_file_mode_is_that_of_open_w(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_text("x", tmp_path / "written")
            open(tmp_path / "opened", "w").close()
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("written", "opened")]
        assert modes[0] == modes[1] == 0o666 & ~umask

    def test_dev_null_is_written_and_not_cut(self):
        write_text("x" * 100, os.devnull)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_written_and_not_cut(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
        try:
            write_text(("one\n", "two\n"), fifo)
            assert os.read(reader, 100) == b"one\ntwo\n"
        finally:
            os.close(reader)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_raise_before_any_write_leaves_the_path_as_it_was(self, tmp_path, error):
        new, existing, link = tmp_path / "new", tmp_path / "existing", tmp_path / "link"
        old = b"old text\n" * 1000
        existing.write_bytes(old)
        link.symlink_to(tmp_path / "link-target")  # dangling: its target is new
        for target in (new, existing, link):
            with pytest.raises(error):
                with open_output(target):
                    assert target.read_bytes() == (old if target == existing else b"")
                    raise error("before any write")
        assert sorted(os.listdir(tmp_path)) == ["existing", "link"]
        assert existing.read_bytes() == old

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_raise_after_a_write_keeps_what_was_written(self, tmp_path, error):
        new, existing = tmp_path / "new", tmp_path / "existing"
        existing.write_bytes(b"old text\n" * 1000)
        for target in (new, existing):
            with pytest.raises(error):
                with open_output(target) as f:
                    f.write("partial\n")
                    raise error("after a write")
            assert target.read_bytes() == b"partial\n"

    def test_no_open_truncates(self, tmp_path, monkeypatch):
        flags = []
        real = os.open

        def recording(path, flag, *args, **kwargs):
            flags.append(flag)
            return real(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        target = tmp_path / "net.json"
        save_network(path_network(3), target)
        save_network(path_network(2), target)
        assert len(flags) == 2
        assert not any(flag & os.O_TRUNC for flag in flags)
        assert load_network(target) == path_network(2)
