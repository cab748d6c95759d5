"""Cascade dynamics: labeling rules, pass-based schedules, runs to fixpoint.

A run starts from a set of seed nodes (labeled, exempt from examination) and
repeatedly examines unlabeled nodes. A MONOTONE node labels itself when its
labeled-neighbor fraction nu reaches its threshold (nu >= phi); an
ANTAGONISTIC node labels itself while the fraction is still below it
(nu < phi). Labels are never removed, and a node labeled mid-pass counts
toward the fractions seen later in the same pass.

On a directed acyclic network :func:`settle` runs one pass in dependency order
for many rows at once; a `Topological` run is its one-row case, by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from ._seeds import make_rng
from .net import Network, Rule, seed_ids
from .parser import LimitExceeded

# A configuration is just the set of currently labeled node ids.
Configuration = frozenset
# node examinations, summed over the passes of every run of one `_Cascade`
MAX_EXAMINATIONS = 1 << 26


@dataclass(frozen=True)
class RandomSweep:
    """Each pass examines the currently-unlabeled nodes in a fresh random
    order, a ``Generator.shuffle`` of their ids in increasing order (the
    draws ``Generator.permutation`` makes); stops after the first pass that
    labels nothing."""

    rng_seed: int


@dataclass(frozen=True)
class ExplicitOrder:
    """Each pass examines nodes in the given fixed order (already-labeled
    entries are skipped) until a pass labels nothing. The order must mention
    every non-seed node at least once."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(u) for u in self.order))


@dataclass(frozen=True)
class Topological:
    """One pass over the non-seed nodes in dependency order; only valid on
    directed acyclic networks. This is the combinational-circuit schedule."""


ScheduleMode = Union[RandomSweep, ExplicitOrder, Topological]


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of a run.

    ``final`` is the labeled set, ``size_fraction`` its fraction of all
    nodes. ``labeling_order`` lists the nodes labeled during the run (seeds
    are labeled at time zero and not listed). ``passes`` counts examination
    passes including the final one that labels nothing. That final pass is
    counted but not run when it is provably empty: when, after a pass that
    labeled something, no unlabeled monotone node can fire.
    """

    final: Configuration
    size_fraction: float
    labeling_order: tuple[int, ...]
    passes: int


def topological_order(network: Network) -> tuple[int, ...]:
    """The network's `Graph.topological_order`, built once per graph."""
    return network.graph.topological_order


def settle(network: Network, fixed: Mapping[int, int], ones: int) -> list[int]:
    """Every node's labels after one pass in dependency order, for many rows
    at once: bit r of a node's int is its label in row r; `ones` sets them all.
    `fixed` nodes keep theirs. Each other node sums its in-neighbors' labels
    into bit-sliced count planes, O(d log d) int operations at in-degree d.
    """
    cut, anti = network.cutoff.tolist(), network.antagonistic.tolist()
    ptr, nbrs = network.graph.view[0]
    value = [0] * network.n
    for u in topological_order(network):
        if u in fixed:
            value[u] = fixed[u]
            continue
        planes = []  # planes[b]: the rows whose count has binary digit b set
        for v in nbrs[ptr[u]:ptr[u + 1]]:
            carry, b = value[v], 0  # add 1 in these rows, with a ripple carry
            while carry:
                if b == len(planes):
                    planes.append(0)
                planes[b], carry = planes[b] ^ carry, planes[b] & carry
                b += 1
        # MONOTONE fires at count >= cutoff, ANTAGONISTIC below it; the test
        # runs from the lowest digit up
        c, fired = cut[u], ones
        for plane in planes:
            fired = fired & plane if c & 1 else fired | plane
            c >>= 1
        if c:  # the cutoff is above every count
            fired = 0
        value[u] = fired ^ ones if anti[u] else fired
    return value


def run_cascade(network: Network, seeds: Optional[Iterable[int]],
                mode: ScheduleMode) -> CascadeResult:
    """Run the cascade from `seeds` (or the network's own seed set) to a fixpoint.

    Labeling takes effect immediately, so a node labeled mid-pass is visible
    to nodes examined after it. The run is deterministic given the mode,
    including RandomSweep's rng_seed. A pass-based run that would examine
    more than `MAX_EXAMINATIONS` nodes raises LimitExceeded.
    """
    seed_set = network.seeds if seeds is None else seed_ids(seeds, network.n)
    if isinstance(mode, Topological):  # the one-row settle, with the seeds fixed to 1
        value = settle(network, dict.fromkeys(seed_set, 1), 1)
        labeling_order = [u for u in topological_order(network) if value[u] and u not in seed_set]
        passes = 1
    else:
        if isinstance(mode, RandomSweep):
            mode = make_rng(mode.rng_seed)
        _, labeling_order, passes = _Cascade(network, seed_set).run(mode)
    final = seed_set.union(labeling_order)
    return CascadeResult(
        final=final,
        size_fraction=len(final) / network.n,
        labeling_order=tuple(labeling_order),
        passes=passes,
    )


class _Cascade:
    """Runs of one network from one checked seed set. The set-up that does
    not depend on the schedule (per-node lists, the seeds' neighbor counts)
    is done once, so many runs pay it once. All its runs share one budget of
    `MAX_EXAMINATIONS` node examinations: a pass that would overdraw it
    raises LimitExceeded before it starts."""

    def __init__(self, network: Network, seed_set: frozenset[int]):
        n = network.n
        self.network = network
        self.seed_set = seed_set
        self.cut = network.cutoff.tolist()
        self.anti = network.antagonistic.tolist()
        self.ptr, self.out = network.graph.view[1]
        self.labels = bytearray(n)
        self.counts = [0] * n  # labeled in-neighbors
        for s in self.seed_set:
            self.labels[s] = 1
            for v in self.out[self.ptr[s]:self.ptr[s + 1]]:
                self.counts[v] += 1
        unlabeled = np.frombuffer(self.labels, dtype=np.uint8) == 0
        self.pending = np.flatnonzero(unlabeled).tolist()  # in increasing order
        self.monotone = np.flatnonzero(unlabeled & ~network.antagonistic).tolist()
        self.budget = MAX_EXAMINATIONS

    def run(self, mode: Union[np.random.Generator, ExplicitOrder]
            ) -> tuple[bytearray, list[int], int]:
        """(labels, labeling order, passes) of one run under `mode`: a
        random sweep drawing its passes from the given generator, which
        ``RandomSweep(s)`` is with ``make_rng(s)``, or an explicit order.
        A random pass is a ``Generator.shuffle`` of the unlabeled ids in
        increasing order: the draws, and so the order, that
        ``Generator.permutation`` of those ids would make."""
        n = self.network.n
        if isinstance(mode, np.random.Generator):
            shuffle, order = mode.shuffle, self.pending.copy()
        elif isinstance(mode, ExplicitOrder):
            missing = set(range(n)) - self.seed_set - set(mode.order)
            if missing:
                raise ValueError(
                    f"explicit order must mention every non-seed node; missing {sorted(missing)}"
                )
            for u in mode.order:
                if not 0 <= u < n:
                    raise ValueError(f"order entry {u} is not a node id")
            shuffle, order = None, mode.order
        else:
            raise TypeError(f"unknown schedule mode {mode!r}")

        cut, anti, ptr, out = self.cut, self.anti, self.ptr, self.out
        labels = bytearray(self.labels)
        counts = self.counts.copy()
        monotone = self.monotone
        labeling_order: list[int] = []
        passes = 0
        while True:
            passes += 1
            changed = False
            if shuffle:
                shuffle(order)
            self.budget -= len(order)
            if self.budget < 0:
                raise LimitExceeded(f"cascade runs exceed the limit of "
                                    f"{MAX_EXAMINATIONS} node examinations")
            for u in order:
                # MONOTONE fires at count >= cutoff, ANTAGONISTIC below it
                if labels[u] or (counts[u] >= cut[u]) == anti[u]:
                    continue
                labels[u] = 1
                changed = True
                labeling_order.append(u)
                for v in out[ptr[u]:ptr[u + 1]]:
                    counts[v] += 1
            if not changed:
                break
            # The pass examined every unlabeled node. An antagonistic one
            # failed its test, and counts never fall, so it fails again; so
            # the next pass labels something only if a monotone node can
            # fire now. If none can, that pass is empty: count it, skip it.
            monotone = [u for u in monotone if not labels[u]]
            for u in monotone:
                if counts[u] >= cut[u]:
                    break
            else:
                passes += 1
                break
            if shuffle:
                order = np.flatnonzero(np.frombuffer(labels, dtype=np.uint8) == 0).tolist()
        return labels, labeling_order, passes


def monotone_closure(network: Network, seeds: Optional[Iterable[int]]) -> Configuration:
    """`run_cascade(...).final` of an all-monotone network, with no schedule.

    Every schedule ends in the same set under the monotone rule, so a
    worklist labels it directly, touching each edge once. Raises ValueError
    on any antagonistic node.
    """
    if network.antagonistic.any():
        raise ValueError("the closure needs an all-monotone network; use run_cascade")
    seed_set = network.seeds if seeds is None else seed_ids(seeds, network.n)
    need = network.cutoff.tolist()  # labeled in-neighbors still missing
    labeled = np.flatnonzero(network.cutoff <= 0).tolist()
    # a seed listed already is not listed again: walked twice, it would count
    # twice toward each of its out-neighbors
    labeled += [s for s in seed_set if need[s] > 0]
    for s in seed_set:
        need[s] = 0
    ptr, out = network.graph.view[1]
    for u in labeled:  # the list grows while it is walked: a FIFO worklist
        for v in out[ptr[u]:ptr[u + 1]]:
            need[v] -= 1
            if need[v] == 0:  # reached once, and only by an unlabeled node
                labeled.append(v)
    return frozenset(labeled)


def is_global(result: CascadeResult, fraction_threshold: float = 0.5) -> bool:
    """Whether the cascade reached at least `fraction_threshold` of all nodes."""
    if not 0 < fraction_threshold <= 1:
        raise ValueError(
            f"fraction_threshold must lie in (0, 1], got {fraction_threshold}"
        )
    return result.size_fraction >= fraction_threshold
