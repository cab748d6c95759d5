"""Exhaustive reachable-fixpoint enumeration and schedule-sensitivity checks.

Enumeration branches on single labeling events: from each configuration,
every currently-fireable unlabeled node gives one successor. Every
pass-based schedule is a path in this tree, so a unique enumerated fixpoint
means a schedule-independent final state, and multiple fixpoints mean the
outcome depends on examination order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from ._seeds import make_rng, map_tasks, mix_seed
from .circuit import CompiledCircuit, evaluate, input_seeds
from .engine import RandomSweep, run_cascade
from .net import Network, Rule, assign_thresholds, generate_er, seed_ids, UNIFORM

DEFAULT_STATE_CAP = 1 << 22


@dataclass(frozen=True)
class FixpointSet:
    """All reachable stable configurations (exhaustive unless truncated)."""

    fixpoints: frozenset[frozenset[int]]
    explored_states: int
    truncated: bool


def enumerate_fixpoints(network: Network, seeds: Optional[Iterable[int]] = None,
                        state_cap: int = DEFAULT_STATE_CAP) -> FixpointSet:
    """Depth-first search over configurations reachable from the seed set.

    Configurations are bit masks over node ids; a visited set makes the
    search exhaustive. If more than `state_cap` distinct configurations get
    explored the result is flagged truncated (never silently cut short).
    Firing a node changes the firing test only at its out-neighbors, so each
    configuration's fireable set is its parent's, updated there.
    """
    if not network.thresholds_assigned:
        raise ValueError("thresholds not assigned; call assign_thresholds first")
    if state_cap < 1:
        raise ValueError(f"state_cap must be >= 1, got {state_cap}")
    n = network.n
    seed_set = network.seeds if seeds is None else seed_ids(seeds, n)

    cut = network.cutoff.tolist()
    anti = network.antagonistic.tolist()
    out = network.out_neighbors
    nbr_mask = [sum(1 << v for v in row) for row in network.in_neighbors]
    start = sum(1 << s for s in seed_set)

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

    as_sets = frozenset(
        frozenset(u for u in range(n) if (cfg >> u) & 1) for cfg in fixpoints
    )
    return FixpointSet(fixpoints=as_sets, explored_states=len(visited),
                       truncated=truncated)


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
    final bits against `reference`. Trial seeds derive from rng_seed."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ref = tuple(int(b) for b in reference)
    if len(ref) != len(watched):
        raise ValueError("reference must have one bit per watched node")
    seed_set = frozenset(seeds)
    agree = 0
    seen = set()
    for t in range(trials):
        result = run_cascade(network, seed_set, RandomSweep(mix_seed(rng_seed, t)))
        bits = tuple(int(u in result.final) for u in watched)
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
    tasks = [(n, z, rule, mix_seed(rng_seed, i), state_cap) for i in range(instances)]
    outcomes = map_tasks(_instance_fixpoints, tasks, jobs)
    if any(count > 1 for count, _ in outcomes):
        return Verdict.NON_UNIQUE
    if any(truncated for _, truncated in outcomes):
        return Verdict.INCONCLUSIVE
    return Verdict.UNIQUE
