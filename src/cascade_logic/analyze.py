"""Exhaustive reachable-fixpoint enumeration and schedule-sensitivity checks.

Enumeration branches on single labeling events: from each configuration,
every currently-fireable unlabeled node gives one successor. Every
pass-based schedule is a path in this graph, so a unique enumerated fixpoint
means a schedule-independent final state, and multiple fixpoints mean the
outcome depends on examination order.

Each successor has one more labeled node than its parent, so the reachable
configurations fall into disjoint levels by labeled count, and each level
follows from the one before it alone. The search computes them in turn, as
sorted arrays of bit masks in the narrowest unsigned word that holds n bits
(16, 32 or 64), with one vectorized firing test per block of a level; it
needs no visited set. A depth-first search remains for two cases: a search
with more reachable configurations than its state cap, whose truncated
result is what that search visits first, and networks above 64 nodes,
whose configurations do not fit one word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._seeds import make_rng, map_tasks, mix_seed
from .circuit import CompiledCircuit, evaluate, input_seeds
from .engine import RandomSweep, _Cascade
from .net import Network, Rule, assign_thresholds, generate_er, seed_ids, UNIFORM

DEFAULT_STATE_CAP = 1 << 22
# bytes of one (node x configuration) array of masks in each block of a level
SEARCH_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class FixpointSet:
    """All reachable stable configurations (exhaustive unless truncated)."""

    fixpoints: frozenset[frozenset[int]]
    explored_states: int
    truncated: bool


def enumerate_fixpoints(network: Network, seeds: Optional[Iterable[int]] = None,
                        state_cap: int = DEFAULT_STATE_CAP) -> FixpointSet:
    """The stable configurations reachable from the seed set, searched one
    level of labeled count at a time.

    Configurations are bit masks over node ids. Each move labels one node,
    so the configurations with k labeled nodes are exactly the children of
    those with k-1, and each level is computed from the one before it. The
    search is exhaustive, so `explored_states` is the size of the reachable
    set and does not depend on the search order.

    If more than `state_cap` configurations are reachable, the result is
    flagged truncated (never silently cut short): a depth-first search
    (children in ascending node order) then replays to the cap, and its
    first `state_cap` configurations fix the truncated output. That search
    is also the whole search above 64 nodes, where a configuration no
    longer fits one machine word.
    """
    if not network.thresholds_assigned:
        raise ValueError("thresholds not assigned; call assign_thresholds first")
    if state_cap < 1:
        raise ValueError(f"state_cap must be >= 1, got {state_cap}")
    n = network.n
    seed_set = network.seeds if seeds is None else seed_ids(seeds, n)
    graph = network.graph
    nbr_mask = [0] * n  # in-neighbor bits of each node
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        nbr_mask[v] |= 1 << u
        if not graph.directed:
            nbr_mask[u] |= 1 << v
    start = sum(1 << s for s in seed_set)

    found = _by_levels(network, nbr_mask, start, state_cap) if n <= 64 else None
    if found is None:
        found = _depth_first(network, nbr_mask, start, state_cap)
    fixpoints, explored, truncated = found
    as_sets = frozenset(map(_node_ids, fixpoints))
    return FixpointSet(fixpoints=as_sets, explored_states=explored,
                       truncated=truncated)


def _node_ids(mask: int) -> frozenset[int]:
    """The ids of the set bits of `mask`."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(ids)


def _by_levels(network: Network, nbr_mask: list[int], start: int, state_cap: int):
    """(fixpoint masks, reachable count, False), or None once more than
    `state_cap` configurations are reachable.

    A level is a sorted, de-duplicated array of masks in the narrowest
    unsigned word that holds n bits. It is expanded in blocks whose
    (node x configuration) arrays fit in `SEARCH_BLOCK_BYTES`. Each block's
    children, sorted and de-duplicated, are merged into the part before them
    while they are at least half its size, so the parts shrink geometrically
    and together hold at most twice the next level.
    """
    n = network.n
    word = np.dtype(np.uint16 if n <= 16 else np.uint32 if n <= 32 else np.uint64)
    bit = (word.type(1) << np.arange(n, dtype=word))[:, None]
    in_mask = np.array(nbr_mask, dtype=word)[:, None]
    # a count never exceeds 64, so the capped uint8 cutoffs give the same test
    cut = np.minimum(network.cutoff, 65).astype(np.uint8)[:, None]
    anti = network.antagonistic[:, None]
    step = max(1, SEARCH_BLOCK_BYTES // (word.itemsize * n))
    fixpoints: list[int] = []
    explored = 0
    level = np.array([start], dtype=word)
    while level.size:
        explored += level.size
        if explored > state_cap:
            return None
        parts = []
        for lo in range(0, level.size, step):
            block = level[lo:lo + step]
            child = block | bit
            # MONOTONE fires at count >= cutoff, ANTAGONISTIC below it
            fire = (np.bitwise_count(block & in_mask) >= cut) != anti
            fire &= child != block  # unlabeled nodes only
            stable = ~fire.any(axis=0)
            if stable.any():
                fixpoints += block[stable].tolist()
            parts.append(_sorted_unique(child.compress(fire.ravel())))
            while len(parts) > 1 and 2 * parts[-1].size >= parts[-2].size:
                parts[-2:] = [_sorted_unique(np.concatenate(parts[-2:]))]
            if explored + parts[0].size > state_cap:  # parts[0] is in the next level
                return None
        level = parts[0] if len(parts) == 1 else _sorted_unique(np.concatenate(parts))
    return fixpoints, explored, False


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """`values` sorted, each once: what `np.unique` returns, but `np.unique`
    hashes the values first and took 25 times longer on 40,000 uint64 masks
    (numpy 2.4)."""
    if values.size < 2:
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _depth_first(network: Network, nbr_mask: list[int], start: int, state_cap: int):
    """(fixpoint masks, explored count, truncated) of a depth-first search
    that stops once `state_cap` configurations are visited.

    Firing a node changes the firing test only at its out-neighbors, so
    each configuration's fireable set is its parent's, updated there.
    """
    n = network.n
    cut = network.cutoff.tolist()
    anti = network.antagonistic.tolist()
    out = network.out_neighbors

    visited: set[int] = set()
    fixpoints: set[int] = set()
    truncated = False
    # (configuration, parent's fireable mask, bit just fired, nodes to re-test)
    stack = [(start, 0, 0, range(n))]
    while stack:
        cfg, fireable, fired, retest = stack.pop()
        if cfg in visited:
            continue
        if len(visited) >= state_cap:
            truncated = True
            break
        visited.add(cfg)
        fireable &= ~fired
        for v in retest:
            if not (cfg >> v) & 1:
                # MONOTONE fires at count >= cutoff, ANTAGONISTIC below it
                if ((cfg & nbr_mask[v]).bit_count() >= cut[v]) != anti[v]:
                    fireable |= 1 << v
                else:
                    fireable &= ~(1 << v)
        if not fireable:
            fixpoints.add(cfg)
            continue
        rest = fireable
        while rest:  # children in ascending node order
            bit = rest & -rest
            rest ^= bit
            nxt = cfg | bit
            if nxt not in visited:
                stack.append((nxt, fireable, bit, out[bit.bit_length() - 1]))
    return fixpoints, len(visited), truncated


@dataclass(frozen=True)
class SensitivityReport:
    """How often free-running random schedules reproduce a reference output."""

    trials: int
    agree_fraction: float
    reference_output: tuple[int, ...]
    distinct_outcomes: int


def outcome_sensitivity(network: Network, seeds: Iterable[int],
                        watched: Sequence[int], reference: Sequence[int],
                        trials: int, rng_seed: int) -> SensitivityReport:
    """Run `trials` random-sweep cascades and compare the watched nodes'
    final bits against `reference`. Trial t runs
    ``run_cascade(network, seeds, RandomSweep(mix_seed(rng_seed, t)))``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ref = tuple(int(b) for b in reference)
    if len(ref) != len(watched):
        raise ValueError("reference must have one bit per watched node")
    for u in watched:
        if not 0 <= u < network.n:
            raise ValueError(f"watched node {u} is not a node id")
    cascade = _Cascade(network, seeds)
    agree = 0
    seen = set()
    for seed in mix_seed(rng_seed, np.arange(trials, dtype=np.uint64)).tolist():
        labels = cascade.run(RandomSweep(seed))[0]
        bits = tuple(labels[u] for u in watched)
        seen.add(bits)
        agree += bits == ref
    return SensitivityReport(trials=trials, agree_fraction=agree / trials,
                             reference_output=ref, distinct_outcomes=len(seen))


def schedule_sensitivity(circuit: CompiledCircuit, assignment: Mapping[str, int],
                         trials: int, rng_seed: int) -> SensitivityReport:
    """Sensitivity of a circuit's outputs to the examination schedule.

    The reference is the topological evaluation, which every circuit has
    because `CompiledCircuit` rejects cycles. Each trial runs a
    free-running random sweep that ignores the topology.
    """
    reference = tuple(evaluate(circuit, assignment).values())
    watched = list(circuit.outputs.values())
    return outcome_sensitivity(circuit.network, input_seeds(circuit, assignment),
                               watched, reference, trials, rng_seed)


class Verdict(Enum):
    UNIQUE = "unique"
    NON_UNIQUE = "non-unique"
    INCONCLUSIVE = "inconclusive"


def _instance_fixpoints(args) -> tuple[int, bool]:
    n, z, rule, instance_seed, state_cap = args
    p = z / (n - 1) if n > 1 else 0.0
    graph = generate_er(n, p, mix_seed(instance_seed, 0))
    network = assign_thresholds(graph, UNIFORM, rule,
                                rng_seed=mix_seed(instance_seed, 1))
    seed_node = int(make_rng(mix_seed(instance_seed, 2)).integers(n))
    found = enumerate_fixpoints(network, {seed_node}, state_cap=state_cap)
    return len(found.fixpoints), found.truncated


def verify_gcm_determinism(n: int, z: float, instances: int, rng_seed: int,
                           rule: Rule = Rule.MONOTONE,
                           state_cap: int = DEFAULT_STATE_CAP,
                           jobs: Optional[int] = None) -> Verdict:
    """Check final-state uniqueness over random instances by exhaustive search.

    Each instance is an ER graph with uniform-random thresholds, the given
    rule, and one random seed node. UNIQUE means every instance had exactly
    one reachable fixpoint; NON_UNIQUE that some instance provably had more;
    INCONCLUSIVE that a search was truncated before finishing. Instances may
    run across workers; per-instance seeds make the verdict independent of
    scheduling.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 1 and not 0 < z < n - 1:
        raise ValueError(f"z must lie in (0, n-1), got {z}")
    if state_cap < 1:
        raise ValueError(f"state_cap must be >= 1, got {state_cap}")
    tasks = [(n, z, rule, seed, state_cap) for seed in
             mix_seed(rng_seed, np.arange(instances, dtype=np.uint64)).tolist()]
    outcomes = map_tasks(_instance_fixpoints, tasks, jobs)
    if any(count > 1 for count, _ in outcomes):
        return Verdict.NON_UNIQUE
    if any(truncated for _, truncated in outcomes):
        return Verdict.INCONCLUSIVE
    return Verdict.UNIQUE
