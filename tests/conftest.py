from __future__ import annotations

import concurrent.futures
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from cascade_logic import (Graph, Network, Rule, UNIFORM, assign_thresholds,
                           generate_er, make_rng, mix_seed)
from oracles import count_fires, in_neighbors

GOLDEN = Path(__file__).parent / "golden"


def network_of(n: int, directed: bool, edges, rule=Rule.MONOTONE, phi=0.5,
               seeds=frozenset()) -> Network:
    """The network of (u, v) `edges` on nodes 0..n-1. `rule` and `phi` are
    one value for every node or a sequence of one per node."""
    rules = [rule] * n if isinstance(rule, Rule) else rule
    phis = [phi] * n if isinstance(phi, (int, float, Fraction)) else phi
    graph = Graph.from_edges(n, directed, [u for u, _ in edges], [v for _, v in edges])
    return Network(graph, [r is Rule.ANTAGONISTIC for r in rules], phis, seeds)


def triangle_network() -> Network:
    """Fully connected 3-node network, all antagonistic with phi=0.75, seed 0.

    Nodes 1 and 2 carry the two-input NAND threshold; whichever is examined
    first fires (fraction 1/2 < 0.75) and then blocks the other (1 >= 0.75),
    so the final state depends on the order.
    """
    return network_of(3, False, ((0, 1), (0, 2), (1, 2)), Rule.ANTAGONISTIC, 0.75,
                      seeds={0})


def random_instance(seed: int, n: int, z: float, rule: Rule,
                    num_seeds: int = 1):
    """A random assigned network plus a deterministic seed-node set."""
    p = z / (n - 1) if n > 1 else 0.0
    network = generate_er(n, p, mix_seed(seed, 0))
    network = assign_thresholds(network, UNIFORM, rule, rng_seed=mix_seed(seed, 1))
    picks = make_rng(mix_seed(seed, 2)).permutation(n)[:num_seeds]
    return network, frozenset(int(s) for s in picks)


def small_network(rng, max_nodes: int, rules=tuple(Rule), directed=None,
                  dag: bool = False):
    """A random network of at most `max_nodes` nodes plus a seed-node set.

    Each node draws a rule from `rules` and a threshold that is often a tie
    point k/degree, 0 or 1, as an exact Fraction or as a float; sparse draws
    leave some nodes with degree 0. DAG edges run down a random permutation,
    so node ids are not in dependency order.
    """
    n = int(rng.integers(1, max_nodes + 1))
    if directed is None:
        directed = dag or bool(rng.integers(2))
    rank = rng.permutation(n).tolist()
    pairs = [(rank[i], rank[j]) if dag else (i, j) for i in range(n) for j in range(n)
             if (i < j if dag or not directed else i != j)]
    density = rng.random()
    edges = [e for e in pairs if rng.random() < density * 0.6]
    degree = [0] * n
    for u, v in edges:
        degree[v] += 1
        if not directed:
            degree[u] += 1
    node_rules, phis = [], []
    for u in range(n):
        d = degree[u]
        pick = rng.random()
        if d and pick < 0.5:
            phi = Fraction(int(rng.integers(0, d + 1)), d)
        elif pick < 0.7:
            phi = Fraction(int(rng.integers(2)))
        else:
            phi = Fraction(int(rng.integers(0, 25)), 24)
        node_rules.append(rules[int(rng.integers(len(rules)))])
        phis.append(phi if rng.integers(2) else float(phi))
    seeds = frozenset(int(s) for s in rng.permutation(n)[:int(rng.integers(0, 4))])
    return network_of(n, directed, edges, node_rules, phis), seeds


def assert_stable(network, final) -> None:
    """One extra verification pass: no unlabeled node may fire."""
    for u, nbrs in enumerate(in_neighbors(network)):
        if u in final:
            continue
        spec = network.nodes[u]
        count = sum(1 for v in nbrs if v in final)
        assert not count_fires(spec.rule, count, len(nbrs), spec.phi), (
            f"node {u} still fires in the claimed fixpoint")


@pytest.fixture
def triangle() -> Network:
    return triangle_network()


@pytest.fixture
def serial_pool(monkeypatch) -> list[int]:
    """Replace the process pool by one that runs each call in this process,
    so that a patched run function is seen, and report 64 CPUs, so that
    `jobs` and the count alone set the worker count. Returns the size of
    every pool started."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # map_runs imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    return started


def record_runs(monkeypatch, module, name: str) -> list[range]:
    """Patch the run function `module.name`, whose last argument is its run
    of indices, to record each run it gets; returns the runs."""
    runs, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: runs.append(args[-1]) or real(*args))
    return runs


def assert_split(runs, count: int, workers: int) -> None:
    """`runs` are the ranges that a split of `count` indices over `workers`
    handed out: consecutive, covering 0..count-1 exactly once and in order,
    one run on one worker and else min(count, 4 * workers) runs whose sizes
    differ by at most one."""
    assert all(isinstance(run, range) and run.step == 1 for run in runs)
    assert [i for run in runs for i in run] == list(range(count))
    assert len(runs) == (1 if workers == 1 else min(count, 4 * workers))
    assert len(runs) <= 4 * workers
    assert max(map(len, runs)) - min(map(len, runs)) <= 1
