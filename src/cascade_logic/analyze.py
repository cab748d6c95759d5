"""Exhaustive reachable-fixpoint enumeration and schedule-sensitivity checks.

Enumeration branches on single labeling events: from each configuration,
every currently-fireable unlabeled node gives one successor. Every
pass-based schedule is a path in this graph, so a unique enumerated fixpoint
means a schedule-independent final state, and multiple fixpoints mean the
outcome depends on examination order.

Each successor has one more labeled node than its parent, so the reachable
configurations fall into levels by labeled count, each computed from the one
before it alone as an array of distinct bit masks, with one firing test per
block on the counts of labeled in-neighbors (the graph's in-neighbor arrays);
a search that would pass its state cap stops between levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import islice
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._seeds import check_task_count, make_rngs, map_runs, mix_seed
from .circuit import CompiledCircuit, evaluate, input_seeds
from .engine import _Cascade
from .net import MAX_NODES, Network, Rule, _er_union, _uniform_network, check_er_size, seed_ids

DEFAULT_STATE_CAP = 1 << 22
# bytes of one (node x configuration) array of masks in each block of a level
SEARCH_BLOCK_BYTES = 1 << 18


class FixpointSet:
    """The reachable stable configurations, exhaustive unless truncated: then
    only those in the levels of labeled count that fit whole within the
    state cap, whose configurations `explored_states` counts.

    `member` is the search's array, one row per fixpoint in no set order and
    one column per node, nonzero where the node is labeled; `sorted_ids`
    decodes it, and `fixpoints`, the same configurations as a frozenset of
    frozensets of node ids, is built from that when first read. Two sets are
    equal when their fixpoints, counts and truncation are."""

    def __init__(self, member: np.ndarray, explored_states: int, truncated: bool):
        self.member, self.explored_states, self.truncated = member, explored_states, truncated

    def sorted_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the nodes each fixpoint labels, fixpoint after fixpoint,
        and how many each labels, the fixpoints in the order Python gives
        their sorted id lists. A row's sort keys are its ids, the first one
        major, padded with -1 so that a list sorts before its extensions."""
        member = self.member
        rows, ids = np.nonzero(member)
        counts = np.bincount(rows, minlength=len(member))
        padded = np.full((len(member), max(1, counts.max(initial=0))), -1,
                         dtype=np.min_scalar_type(-member.shape[1]))
        padded[rows, np.arange(len(ids)) - (np.cumsum(counts) - counts)[rows]] = ids
        order = np.lexsort(padded.T[::-1])
        padded = padded[order]
        return padded[padded >= 0], counts[order]

    @cached_property
    def fixpoints(self) -> frozenset[frozenset[int]]:
        ids, counts = self.sorted_ids()
        ids, ends = ids.tolist(), np.cumsum(counts).tolist()
        return frozenset(frozenset(ids[lo:hi]) for lo, hi in zip([0] + ends, ends))

    def _key(self):
        return self.fixpoints, self.explored_states, self.truncated

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, FixpointSet) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"FixpointSet(fixpoints={self.fixpoints!r}, "
                f"explored_states={self.explored_states!r}, truncated={self.truncated!r})")


def enumerate_fixpoints(network: Network, seeds: Optional[Iterable[int]] = None,
                        state_cap: int = DEFAULT_STATE_CAP) -> FixpointSet:
    """The stable configurations reachable from the seed set, searched one
    level of labeled count at a time, as the search's member array (see
    `FixpointSet`).

    Each move labels one node, so the configurations with k labeled nodes
    are exactly the children of those with k-1. The search is exhaustive, so
    `explored_states` is the size of the reachable set. If more than
    `state_cap` configurations are reachable, the result is flagged
    truncated (never silently cut short): the search stops before the first
    level that would take the count past the cap, and reports the levels
    before it, their configurations as explored and the stable ones among
    them as fixpoints.
    """
    if state_cap < 1:
        raise ValueError(f"state_cap must be >= 1, got {state_cap}")
    seed_set = network.seeds if seeds is None else seed_ids(seeds, network.n)
    member, _, explored, truncated = _by_levels(network, seed_set, state_cap)
    return FixpointSet(member, explored, truncated)


def _by_levels(network: Network, seeds: frozenset[int], state_cap: int,
               components: int = 1):
    """(a fixpoint x node array, nonzero where the node is labeled; the
    component of each of its rows; the explored count; whether the search
    was truncated).

    The network is the disjoint union of `components` networks of n nodes
    each, component c on nodes c*n .. c*n+n-1 with its seeds among them.
    Each is searched on its own, but in shared levels, and the cap counts
    the configurations of all of them. With more than one component, callers
    keep n + bit_length(components - 1) within 64 bits.

    Up to 64 nodes a level is a sorted array of masks in the narrowest
    unsigned word that holds a configuration's n node bits and, above them,
    its component's index (the fixpoint array drops the index). A block's
    in-neighbor masks, cutoffs and rules are gathered per configuration
    from its component's columns. Above 64 nodes a level is ceil(n/64) rows
    of uint64 words, a column per configuration, whose children are
    collected as (Zobrist hash, parent column * n + node) columns, 16 bytes
    whatever n is. Each (node x configuration) array of a block fits
    `SEARCH_BLOCK_BYTES`. Children are de-duplicated once the new ones are
    as many as the distinct ones, so at most twice the next level plus one
    block is held; once the distinct ones pass the cap, the rest of the
    level is only tested for stability.
    """
    n = network.n // components
    words = -(-n // 64)
    width = n + (components - 1).bit_length()
    word = np.dtype(np.uint16 if width <= 16 else np.uint32 if width <= 32 else np.uint64)
    if words == 1:
        bit = word.type(1) << np.arange(n, dtype=word)
    else:
        word_of = np.arange(n) >> 6
        bit = word.type(1) << (np.arange(n) & 63).astype(word)
    tails, heads = network.graph.indices % n, np.repeat(np.arange(network.n), network.graph.degrees)
    in_mask = np.zeros((words, network.n), dtype=word)  # in-neighbor bits, word by word
    np.bitwise_or.at(in_mask, (tails >> 6, heads), bit[tails])
    in_mask = in_mask.reshape(words, components, n).transpose(0, 2, 1)  # a column per component
    starts = [c << n for c in range(components)]
    for s in seeds:
        starts[s // n] |= 1 << s % n
    if words == 1:
        in_mask, bit, terms = in_mask[0], bit[:, None], 1
        level = np.array(starts, dtype=word)
    else:
        in_mask = in_mask[..., 0]
        level = np.frombuffer(starts[0].to_bytes(8 * words, "little"), dtype="<u8")[:, None]
        # `terms` (word, mask) rows per node, its nonzero words first and
        # then zero masks, hold all its in-neighbor bits
        terms = max(1, int(np.count_nonzero(in_mask, axis=0).max()))
        term_word = np.argsort(in_mask == 0, axis=0)[:terms]
        term_mask = np.take_along_axis(in_mask, term_word, axis=0)[:, :, None]
        key = mix_seed(n, np.arange(n))
        hashes = np.bitwise_xor.reduce(key[list(seeds)], initial=word.type(0), keepdims=True)
    step = max(1, SEARCH_BLOCK_BYTES // (word.itemsize * n))
    # a count never exceeds 64 per term, so the capped cutoffs give the same test
    count_type = np.min_scalar_type(64 * terms + 1)
    cut = np.minimum(network.cutoff, 64 * terms + 1).astype(count_type).reshape(-1, n).T
    anti = network.antagonistic.reshape(-1, n).T
    fixpoints, explored = [], 0
    while level.shape[-1]:
        explored += level.shape[-1]
        room = state_cap - explored  # configurations of the next level that fit
        parts, pending = [], 0  # parts[0] holds distinct children, the rest any
        for lo in range(0, level.shape[-1], step):
            block = level[..., lo:lo + step]
            masks, cuts, antis = in_mask, cut, anti
            if components > 1:  # the columns of each configuration's component
                at = (block >> n).astype(np.intp)
                masks, cuts, antis = in_mask[:, at], cut[:, at], anti[:, at]
            if words == 1:
                child = block | bit
                count = np.bitwise_count(block & masks)
                unlabeled = child != block
            else:
                count = np.bitwise_count(block[term_word] & term_mask).sum(0, dtype=count_type)
                unlabeled = (block[word_of] & bit[:, None]) == 0
            # MONOTONE fires at count >= cutoff, ANTAGONISTIC below it
            fire = (count >= cuts) != antis
            fire &= unlabeled
            stable = ~np.logical_or.reduce(fire, axis=0)
            if np.count_nonzero(stable):
                fixpoints.append(block[..., stable])
            if parts is None:
                continue  # the next level is already known not to fit
            if words == 1:
                children = child.compress(fire.ravel())
            else:
                node, parent = np.nonzero(fire)
                parent += lo
                children = np.stack((hashes[parent] ^ key[node], (parent * n + node).astype(word)))
            parts.append(children)
            pending += children.shape[-1]
            if pending >= parts[0].shape[-1]:
                parts, pending = [_distinct(parts, level, n)], 0
                if parts[0].shape[-1] > room:
                    parts = None
        if parts and pending:
            parts = [_distinct(parts, level, n)]
        if parts is None or parts[0].shape[-1] > room:
            break  # truncated: the search ends with a level left
        if words == 1:
            level = parts[0]
        else:
            hashes, level = parts[0][0], _child_words(level, parts[0][1], n)
    found = np.concatenate(fixpoints, axis=-1) if fixpoints else level[..., :0]
    member = found[:, None] & bit.T if words == 1 else found.T[:, word_of] & bit
    owner = (found >> n).astype(np.intp) if components > 1 else np.zeros(len(member), np.intp)
    return member, owner, explored, level.shape[-1] > 0


def _distinct(parts: list[np.ndarray], level: np.ndarray, n: int) -> np.ndarray:
    """The distinct children in `parts`, which it empties to free them, of
    the configurations `level`: masks, sorted (`np.unique` hashes them first
    and took 25 times longer on 40,000, numpy 2.4), or (hash, reference)
    columns. Equal children have equal hashes, so columns that share one are
    compared by value, a bounded chunk at a time; if any two differ, the
    columns are sorted by value instead."""
    part = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    parts.clear()
    if part.shape[-1] < 2:
        return part
    keep = np.empty(part.shape[-1], dtype=bool)
    keep[:1] = True
    if part.ndim == 1:
        part.sort()  # in place: no one else holds the children
        np.not_equal(part[1:], part[:-1], out=keep[1:])
        return part[keep]
    part = np.take(part, np.argsort(part[0]), axis=1)
    np.not_equal(part[0, 1:], part[0, :-1], out=keep[1:])
    same = np.flatnonzero(~keep[1:])
    chunk = max(1, SEARCH_BLOCK_BYTES // (8 * len(level)))
    if any((_child_words(level, part[1, i], n) != _child_words(level, part[1, i + 1], n)).any()
           for i in (same[lo:lo + chunk] for lo in range(0, same.size, chunk))):
        rows = _child_words(level, part[1], n)
        order = np.lexsort(rows)
        part, rows = np.take(part, order, axis=1), np.take(rows, order, axis=1)
        np.any(rows[:, 1:] != rows[:, :-1], axis=0, out=keep[1:])
    return np.compress(keep, part, axis=1)


def _child_words(level: np.ndarray, refs: np.ndarray, n: int) -> np.ndarray:
    """The word rows of the children `refs` (parent column * n + node) of the
    configurations `level`."""
    parent, node = np.divmod(refs.view(np.int64), n)
    rows = np.take(level, parent, axis=1)
    rows.ravel()[(node >> 6) * refs.size + np.arange(refs.size)] |= (
        np.uint64(1) << (node & 63).astype(np.uint64))
    return rows


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
    ``run_cascade(network, seeds, RandomSweep(mix_seed(rng_seed, t)))``, but
    the trials share one budget of `engine.MAX_EXAMINATIONS` examinations,
    not one each: past it, LimitExceeded is raised."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_task_count(trials, "trials")
    ref = tuple(int(b) for b in reference)
    if len(ref) != len(watched):
        raise ValueError("reference must have one bit per watched node")
    for u in watched:
        if not 0 <= u < network.n:
            raise ValueError(f"watched node {u} is not a node id")
    cascade = _Cascade(network, seed_ids(seeds, network.n))
    agree = 0
    seen = set()
    trial_seeds = mix_seed(rng_seed, np.arange(trials, dtype=np.uint64))
    for rng in make_rngs(trial_seeds):
        labels = cascade.run(rng)[0]
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


def _run_fixpoints(n: int, p: float, rule: Rule, rng_seed: int, state_cap: int,
                   batch: int, run: range) -> list[tuple[int, bool]]:
    """(fixpoint count, truncated) of each instance of a run, searched in
    batches of `batch` instances, each in one `_by_levels` call over the
    union of their networks. Instance i, of seed s = mix_seed(rng_seed, i),
    draws its graph as ``generate_er(n, p, mix_seed(s, 0))``, its thresholds
    as ``assign_thresholds(..., UNIFORM, rule, rng_seed=mix_seed(s, 1))``
    and its seed node as ``make_rng(mix_seed(s, 2)).integers(n)``."""
    instance_seeds = mix_seed(rng_seed, np.arange(run.start, run.stop, dtype=np.uint64))
    graph_rngs, phi_rngs, node_rngs = (make_rngs(mix_seed(instance_seeds, part))
                                       for part in range(3))
    outcomes = []
    for lo in range(0, len(run), batch):
        size = min(batch, len(run) - lo)
        network = _uniform_network(_er_union(n, p, islice(graph_rngs, size)), rule, n,
                                   islice(phi_rngs, size))
        seed_nodes = frozenset(i * n + int(rng.integers(n))
                               for i, rng in enumerate(islice(node_rngs, size)))
        _, owner, _, truncated = _by_levels(network, seed_nodes, state_cap, size)
        outcomes += [(count, truncated) for count in np.bincount(owner, minlength=size).tolist()]
    return outcomes


def _batch_size(n: int, state_cap: int) -> int:
    """The most instances of n nodes that one search may hold: B with
    B * 2^n <= min(state_cap, DEFAULT_STATE_CAP), so that no instance's
    search, at most 2^n configurations, can reach the cap, and a batch's
    levels hold no more configurations than one search under the default
    cap, whatever the cap; and B * n <= MAX_NODES, the largest random graph.
    B is 1 unless an instance's 2^n configurations fit one block of a level
    of 32-bit words (n <= 12), so that a batch's blocks span many
    components; a larger instance is searched alone, on its own columns. A
    tagged configuration then takes at most 22 bits."""
    if (4 * n) << n > SEARCH_BLOCK_BYTES:
        return 1
    return max(1, min(min(state_cap, DEFAULT_STATE_CAP) >> n, MAX_NODES // n))


def _instance_outcomes(n: int, z: float, instances: int, rng_seed: int, rule: Rule,
                       state_cap: int, jobs: Optional[int]) -> list[tuple[int, bool]]:
    """(fixpoint count, truncated) of each instance of
    `verify_gcm_determinism`, in instance order."""
    p = z / (n - 1) if n > 1 else 0.0
    check_er_size(n, p)
    search = partial(_run_fixpoints, n, p, rule, rng_seed, state_cap, _batch_size(n, state_cap))
    return [outcome for run in map_runs(search, instances, jobs) for outcome in run]


def verify_gcm_determinism(n: int, z: float, instances: int, rng_seed: int,
                           rule: Rule = Rule.MONOTONE,
                           state_cap: int = DEFAULT_STATE_CAP,
                           jobs: Optional[int] = None) -> Verdict:
    """Check final-state uniqueness over random instances by exhaustive search.

    Each instance is an ER graph with uniform-random thresholds, the given
    rule, and one random seed node. UNIQUE means every instance had exactly
    one reachable fixpoint; NON_UNIQUE that some instance provably had more;
    INCONCLUSIVE that a search was truncated before finishing. Instances run
    in batches, one search over the union of a batch's networks, and the
    batches may run across workers; per-instance seeds make every instance's
    result, and so the verdict, independent of batching and scheduling.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    check_task_count(instances, "instances")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 1 and not 0 < z < n - 1:
        raise ValueError(f"z must lie in (0, n-1), got {z}")
    if state_cap < 1:
        raise ValueError(f"state_cap must be >= 1, got {state_cap}")
    outcomes = _instance_outcomes(n, z, instances, rng_seed, rule, state_cap, jobs)
    if any(count > 1 for count, _ in outcomes):
        return Verdict.NON_UNIQUE
    if any(truncated for _, truncated in outcomes):
        return Verdict.INCONCLUSIVE
    return Verdict.UNIQUE
