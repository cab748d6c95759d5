"""Property tests that shrink: the engine against the naive oracle on small
networks drawn by hypothesis, which is a test-only dependency."""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cascade_logic import (ExplicitOrder, Network, RandomSweep, Rule, Topological,
                           cutoff, enumerate_fixpoints, load_network, monotone_closure,
                           run_cascade, topological_order)
from cascade_logic.cli import main
from cascade_logic.net import load_bundle, save_network
from conftest import assert_stable, network_of
from oracles import full_pass_cascade, naive_cascade

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

MAX_NODES = 8

# deterministic examples, so a tier-1 run is reproducible
PROPERTY = settings(deadline=None, derandomize=True, database=None)


@st.composite
def thresholds(draw, degree: int, exact=None):
    """A threshold in [0, 1], often a boundary k/degree where the >= / <
    tie decides, as an exact Fraction or as a float (drawn unless `exact`
    says which)."""
    if degree and draw(st.booleans()):
        phi = Fraction(draw(st.integers(0, degree)), degree)
    else:
        phi = draw(st.fractions(0, 1, max_denominator=2 * MAX_NODES))
    if exact is None:
        exact = draw(st.booleans())
    return phi if exact else float(phi)


@st.composite
def networks(draw, dag: bool = False, rules=tuple(Rule)):
    """A network of at most MAX_NODES nodes with rules drawn from `rules`
    (mixed by default), plus seeds."""
    n = draw(st.integers(1, MAX_NODES))
    directed = dag or draw(st.booleans())
    if dag:  # edges run down a random permutation, so ids are not in order
        rank = draw(st.permutations(range(n)))
        pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    degree = [0] * n
    for u, v in edges:
        degree[v] += 1
        if not directed:
            degree[u] += 1
    columns = [(draw(st.sampled_from(rules)), draw(thresholds(degree[u]))) for u in range(n)]
    seeds = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    return network_of(n, directed, edges, *zip(*columns)), seeds


@PROPERTY
@given(data=st.data(), exact=st.sampled_from((False, True, None)))
def test_constructor_cutoffs_match_scalar_cutoff(data, exact):
    # float, Fraction and mixed columns at the tie points k/d of either kind of graph
    graph = data.draw(networks())[0].graph
    degrees = graph.degrees.tolist()
    phi = [data.draw(thresholds(d, exact)) for d in degrees]
    if data.draw(st.booleans()):
        # one exact threshold just off a tie k/d, its numerator and
        # denominator beyond 2^64
        i = data.draw(st.integers(0, graph.n - 1))
        d = max(degrees[i], 1)
        k = data.draw(st.integers(1, d))
        off = -1 if k == d else data.draw(st.sampled_from((-1, 1)))
        phi[i] = Fraction(k * 2**65 + off, d * 2**65)
        assert phi[i].numerator > 2**64 and phi[i].denominator > 2**64
    network = Network(graph, [False] * graph.n, phi)
    assert network.cutoff.tolist() == [cutoff(p, d) for p, d in zip(phi, degrees)]
    has_fraction = any(isinstance(p, Fraction) for p in phi)
    assert network.phi.dtype == (object if has_fraction else np.float64)
    # the view gives back each threshold as it was passed, float or Fraction
    assert [(type(s.phi), s.phi) for s in network.nodes] == [(type(p), p) for p in phi]


@PROPERTY
@given(data=st.data())
def test_explicit_order_matches_naive_cascade(data):
    network, seeds = data.draw(networks())
    n = network.n
    order = data.draw(st.permutations(range(n)))
    order += data.draw(st.lists(st.integers(0, n - 1), max_size=n))  # repeats
    result = run_cascade(network, seeds, ExplicitOrder(tuple(order)))
    final, history = naive_cascade(network, seeds, order)
    assert result.final == final
    assert list(result.labeling_order) == history


@PROPERTY
@given(instance=networks(dag=True))
def test_topological_matches_naive_cascade_in_topological_order(instance):
    network, seeds = instance
    result = run_cascade(network, seeds, Topological())
    final, history = naive_cascade(network, seeds, topological_order(network))
    assert result.final == final
    assert list(result.labeling_order) == history


@PROPERTY
@given(instance=networks(), rng_seed=st.integers(0, 2**32 - 1))
def test_random_sweep_ends_stable(instance, rng_seed):
    network, seeds = instance
    assert_stable(network, run_cascade(network, seeds, RandomSweep(rng_seed)).final)


@PROPERTY
@given(data=st.data(), dag=st.booleans(), rng_seed=st.integers(0, 2**32 - 1))
def test_monotone_closure_matches_every_schedule(data, dag, rng_seed):
    network, seeds = data.draw(networks(dag=dag, rules=(Rule.MONOTONE,)))
    closure = monotone_closure(network, seeds)
    order = data.draw(st.permutations(range(network.n)))
    assert closure == run_cascade(network, seeds, RandomSweep(rng_seed)).final
    assert closure == run_cascade(network, seeds, ExplicitOrder(tuple(order))).final
    if dag:
        assert closure == run_cascade(network, seeds, Topological()).final


def schedules(data, network, rng_seed):
    """A RandomSweep and an ExplicitOrder that covers every node, with repeats."""
    n = network.n
    order = data.draw(st.permutations(range(n)))
    order += data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    return RandomSweep(rng_seed), ExplicitOrder(tuple(order))


@PROPERTY
@given(data=st.data(), rng_seed=st.integers(0, 2**64 - 1))
def test_skipped_final_pass_matches_running_every_pass(data, rng_seed):
    network, seeds = data.draw(networks())
    for mode in schedules(data, network, rng_seed):
        result = run_cascade(network, seeds, mode)
        final, history, passes = full_pass_cascade(network, seeds, mode)
        assert result.final == final
        assert list(result.labeling_order) == history
        assert result.passes == passes


@PROPERTY
@given(data=st.data(), rng_seed=st.integers(0, 2**64 - 1))
def test_antagonistic_runs_take_at_most_two_passes(data, rng_seed):
    # counts never fall, so an antagonistic node that fails once fails for good
    network, seeds = data.draw(networks(rules=(Rule.ANTAGONISTIC,)))
    for mode in schedules(data, network, rng_seed):
        _, history, passes = full_pass_cascade(network, seeds, mode)
        assert passes == (2 if history else 1)
        assert run_cascade(network, seeds, mode).passes == passes


TEXT = st.text(st.characters(blacklist_categories=()))  # lone surrogates too


def saved_the_old_way(network, inputs, outputs) -> str:
    """The network file as written from the per-node view."""
    doc = {"directed": network.directed,
           "nodes": [{"id": s.id, "rule": s.rule.value, "phi": float(s.phi)}
                     for s in network.nodes],
           "edges": [[u, v] for u, v in network.edges],
           "seeds": sorted(network.seeds)}
    for key, ports in (("inputs", inputs), ("outputs", outputs)):
        if ports is not None:
            doc[key] = {str(k): int(v) for k, v in ports.items()}
    return json.dumps(doc, indent=1) + "\n"


@PROPERTY
@given(data=st.data(), instance=networks())
def test_network_file_round_trip(data, instance):
    # float, Fraction and mixed columns, either kind of graph, seeds and ports
    drawn, seeds = instance
    network = Network(drawn.graph, drawn.antagonistic, drawn.phi, seeds)
    ports = st.none() | st.dictionaries(TEXT, st.integers(0, network.n - 1), max_size=3)
    inputs, outputs = data.draw(ports), data.draw(ports)
    out = io.StringIO()
    save_network(network, out, inputs=inputs, outputs=outputs)
    assert out.getvalue() == saved_the_old_way(network, inputs, outputs)
    bundle = load_bundle(io.StringIO(out.getvalue()))
    # a Fraction comes back as its nearest float
    assert bundle.network == Network(network.graph, network.antagonistic,
                                     network.phi.astype(np.float64), seeds)
    assert (bundle.inputs, bundle.outputs) == (inputs, outputs)


@PROPERTY
@given(instance=networks(), cap=st.integers(1, 2**MAX_NODES + 1))
# the seed set {0} is not stable, so a cap of 1 finds no fixpoint at all
@example(instance=(network_of(2, True, [(0, 1)]), frozenset({0})), cap=1)
# nothing is seeded and nothing fires: the one fixpoint is empty
@example(instance=(network_of(1, False, [], phi=1.0), frozenset()), cap=1)
def test_fixpoints_output_is_json_dumps_indent_1(instance, cap):
    # truncated searches too: caps start at 1
    drawn, seeds = instance
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "net.json"
        save_network(Network(drawn.graph, drawn.antagonistic, drawn.phi, seeds), path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["fixpoints", "--net", str(path), "--cap", str(cap)])
        found = enumerate_fixpoints(load_network(path), state_cap=cap)
    assert code == (3 if found.truncated else 0)
    assert out.getvalue() == json.dumps({
        "fixpoints": sorted(sorted(fp) for fp in found.fixpoints),
        "explored": found.explored_states,
        "truncated": found.truncated}, indent=1) + "\n"
