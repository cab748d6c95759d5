"""Cascade networks: random and hand-built graphs, thresholds, statistics, files.

A :class:`Graph` is bare: compressed sparse rows of in- and out-neighbors;
:func:`generate_er` returns one. A :class:`Network` is a graph plus two
columns, the ``antagonistic`` rule mask and the threshold ``phi``, and
``cutoff`` is derived from them: each threshold, float or exact
``Fraction``, becomes an integer :func:`cutoff` on the labeled in-neighbor
count, a float column's in one vectorized step and an exact column's by
:func:`cutoff` itself, once per distinct (threshold, degree) pair. A
monotone node fires iff the count reaches it, an antagonistic node iff the
count stays below it. :func:`assign_thresholds` makes a network from a graph
and shares its arrays.

Network files are read into the columns and written from them:
:func:`load_bundle` tests each rule once per node, edge and seed as it reads
it, and raises the message of the first rule that fails on the spot;
:func:`save_network` streams the file from the columns, a chunk of nodes or
edges at a time. :func:`open_output` opens every output path once, before the
work: in place, not truncated, it is cut at the end of the new text, and a new
file is removed again when the work fails before writing to it.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from ._seeds import make_rng
from .parser import LimitExceeded

PhiValue = Union[float, Fraction]

UNIFORM = "uniform"
# the largest random graph that may be asked for, checked before any draw
MAX_NODES = 1 << 20
MAX_EXPECTED_EDGES = 1 << 22


class Rule(Enum):
    """Per-node labeling rule; values are the on-disk names."""

    MONOTONE = "gcm"  # fires when the labeled-neighbor fraction nu >= phi
    ANTAGONISTIC = "agcm"  # fires when nu < phi


@dataclass(frozen=True)
class NodeSpec:
    """One node as :attr:`Network.nodes` yields it: its id (position), its
    rule and its threshold as stored, a float or the very ``Fraction``."""

    id: int
    rule: Rule
    phi: PhiValue


def cutoff(phi: PhiValue, degree: int) -> int:
    """The least labeled count c with c / degree >= phi; 0 if phi <= 0 else 1
    at degree 0, where the fraction is 0 by convention.

    Float thresholds compare with the float quotient, which is monotone in c
    because division is correctly rounded; Fraction thresholds compare exactly.
    """
    if degree == 0:
        return 0 if phi <= 0 else 1
    if isinstance(phi, Fraction):
        return -(-phi.numerator * degree // phi.denominator)
    # the rounded ceil(phi * degree) is at most one above the answer
    c = max(0, math.ceil(phi * degree) - 1)
    while c / degree < phi:
        c += 1
    return c


def _float_cutoffs(phi: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """`cutoff` of each float threshold in [0, 1] at its node's degree: the
    same test of the float quotient against phi, over arrays."""
    # the answer is floor(phi * degree) or one more, as (floor - 1) / degree falls
    # short of phi and (floor + 1) / degree tops it by about 1/degree, far beyond
    # rounding; at degree 0 the quotient's divisor is 1, giving 0 if phi <= 0 else 1
    c = np.floor(phi * degrees)
    c += c / np.maximum(degrees, 1) < phi
    return c.astype(np.int64)


def _phi_cutoffs(phi: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The threshold column as stored, and the `cutoff` of each threshold at
    its node's degree, once all are checked to lie in [0, 1]. The column is
    float64 and takes `_float_cutoffs`, unless it holds a Fraction: then it
    is an object array, every other entry made a float, walked once, with
    `cutoff` run once per distinct (threshold, degree) pair. A Fraction is
    keyed by its numerator and denominator: Fraction(0.1) == 0.1, but at
    degree 10 their cutoffs are 2 and 1."""
    if phi.dtype != object or not any(isinstance(p, Fraction) for p in phi.flat):
        phi = phi.astype(np.float64)
        # the min and max show the range, nan included
        if not 0 <= phi.min() <= phi.max() <= 1:
            i = int(((phi >= 0) & (phi <= 1)).argmin())
            raise ValueError(f"phi must lie in [0, 1], got {phi[i]} at node {i}")
        return phi, _float_cutoffs(phi, degrees)
    column, cutoffs, memo = [], [], {}
    for i, (p, d) in enumerate(zip(phi.tolist(), degrees.tolist())):
        exact = isinstance(p, Fraction)
        if not exact:
            p = float(p)
        key = (p.numerator, p.denominator, d) if exact else (p, d)
        c = memo.get(key)
        if c is None:
            if not (0 <= p.numerator <= p.denominator if exact else 0 <= p <= 1):
                raise ValueError(f"phi must lie in [0, 1], got {p} at node {i}")
            c = memo[key] = cutoff(p, d)
        column.append(p)
        cutoffs.append(c)
    return np.array(column, dtype=object), np.array(cutoffs, dtype=np.int64)


def seed_ids(seeds: Iterable[int], n: int) -> frozenset[int]:
    """`seeds` as a set of node ids, each checked to lie in 0..n-1."""
    ids = frozenset(int(s) for s in seeds)
    for s in ids:
        if not 0 <= s < n:
            raise ValueError(f"seed {s} is not a node id")
    return ids


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _csr(n: int, heads: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group `tails` by `heads`, keeping input order within each group."""
    # integer sorts of 16 bits or less are radix sorts: linear time
    order = np.argsort(heads.astype(np.min_scalar_type(n)), kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    return indptr, tails[order]


def _ids(values) -> np.ndarray:
    """`values` as int64, or as Python ints if some lie beyond int64 (no node does)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Graph:
    """A bare simple graph on nodes 0..n-1 in compressed sparse row form.

    ``src`` and ``dst`` hold the edges in input order, undirected ones as
    (u, v) with u < v. In edge order, the in-neighbors of v, whose labels
    count toward its fraction, are ``indices[indptr[v]:indptr[v + 1]]``, and
    its out-neighbors, whose fractions change when it is labeled, are
    ``out_indices[out_indptr[v]:out_indptr[v + 1]]``; undirected, both are
    all its neighbors, and the out arrays are the in arrays. Loops in Python
    walk the rows in place, through :attr:`view`.
    """

    n: int
    directed: bool
    src: np.ndarray
    dst: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    out_indptr: np.ndarray
    out_indices: np.ndarray
    degrees: np.ndarray  # in-degree of every node

    @classmethod
    def from_edges(cls, n: int, directed: bool, src, dst) -> "Graph":
        """Validate an edge list: no missing nodes, self-loops or duplicates."""
        src, dst = _ids(src), _ids(dst)
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        bad = np.flatnonzero((lo < 0) | (hi >= n) | (lo == hi))
        if bad.size:
            u, v = int(src[bad[0]]), int(dst[bad[0]])
            if u == v and 0 <= u < n:
                raise ValueError(f"self-loop at node {u}")
            raise ValueError(f"edge ({u}, {v}) references a missing node")
        if not directed:
            src, dst = lo, hi
        keys = src * n + dst
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            i = repeats.min()
            raise ValueError(f"duplicate edge ({src[i]}, {dst[i]})")
        return cls._build(n, directed, src, dst)

    @classmethod
    def _build(cls, n: int, directed: bool, src: np.ndarray, dst: np.ndarray) -> "Graph":
        """The graph of int64 edge arrays that are already valid: in range,
        with no self-loop or duplicate, undirected ones as (min, max)."""
        if directed:
            indptr, indices = _csr(n, dst, src)
            out_indptr, out_indices = _csr(n, src, dst)
        else:  # each edge lists v under u and u under v
            indptr, indices = _csr(n, np.column_stack((dst, src)).ravel(),
                                   np.column_stack((src, dst)).ravel())
            out_indptr, out_indices = indptr, indices
        degrees = np.diff(indptr)
        _frozen(src, dst, indptr, indices, out_indptr, out_indices, degrees)
        return cls(n, directed, src, dst, indptr, indices, out_indptr, out_indices, degrees)

    edges = property(lambda self: tuple(zip(self.src.tolist(), self.dst.tolist())))

    @cached_property
    def view(self) -> tuple[tuple[list[int], memoryview], tuple[list[int], memoryview]]:
        """``((indptr, indices), (out_indptr, out_indices))`` for the loops in
        Python, built on first use: each indptr a shared Python list (never
        mutate it), each indices a read-only memoryview of the graph's own
        array, sliced per node without a copy. Undirected, both pairs are one."""
        ins = self.indptr.tolist(), memoryview(self.indices)
        return ins, (self.out_indptr.tolist(), memoryview(self.out_indices)) if self.directed else ins

    def __getstate__(self):  # a memoryview cannot be pickled: the view is rebuilt
        return {k: v for k, v in self.__dict__.items() if k != "view"}

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """All node ids in dependency order (Kahn's algorithm, smallest id
        first), built on first use. Raises ValueError when undirected or cyclic.
        When every edge climbs (src < dst, as in every compiled circuit), each
        node's in-neighbours have smaller ids, so the order is 0, 1, 2, ... and
        no heap is run."""
        if not self.directed:
            raise ValueError("topological order requires a directed network")
        if (self.src < self.dst).all():
            return tuple(range(self.n))
        indeg = self.degrees.tolist()
        ready = [u for u in range(self.n) if indeg[u] == 0]
        heapq.heapify(ready)
        ptr, out = self.view[1]
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in out[ptr[u]:ptr[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) < self.n:
            raise ValueError("network contains a cycle")
        return tuple(order)


@dataclass(frozen=True, eq=False)
class Network:
    """A graph plus a boolean ``antagonistic`` mask and a threshold ``phi``
    per node, and optional seeds; ``cutoff`` is derived.

    ``phi`` is stored as float64, or as an object array when any threshold is
    an exact ``Fraction`` (other entries become floats). ``nodes`` is a view
    derived on first use.
    """

    graph: Graph
    antagonistic: np.ndarray
    phi: np.ndarray
    seeds: frozenset[int] = frozenset()
    cutoff: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.graph.n
        if n < 1:
            raise ValueError("network must have at least one node")
        antagonistic = np.array(self.antagonistic)
        phi = np.asarray(self.phi)
        if antagonistic.dtype != bool or antagonistic.shape != (n,) or phi.shape != (n,):
            raise ValueError(f"antagonistic needs {n} booleans and phi {n} thresholds")
        phi, cutoffs = _phi_cutoffs(phi, self.graph.degrees)
        _frozen(antagonistic, phi, cutoffs)
        for name, value in (("antagonistic", antagonistic), ("phi", phi),
                            ("seeds", seed_ids(self.seeds, n)), ("cutoff", cutoffs)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        a, b = self.graph, other.graph
        return ((a.n, a.directed, self.seeds) == (b.n, b.directed, other.seeds)
                and all(map(np.array_equal, (a.src, a.dst, self.antagonistic, self.phi),
                            (b.src, b.dst, other.antagonistic, other.phi))))

    def __hash__(self):
        return hash((self.n, self.directed, self.seeds, tuple(self.phi.tolist())))

    def __repr__(self):
        return (f"Network(n={self.n}, directed={self.directed}, edges={self.graph.src.size}, "
                f"seeds={sorted(self.seeds)})")

    # views of the graph
    n = property(lambda self: self.graph.n)
    directed = property(lambda self: self.graph.directed)
    edges = property(lambda self: self.graph.edges)

    @cached_property
    def nodes(self) -> tuple[NodeSpec, ...]:
        rules = (Rule.MONOTONE, Rule.ANTAGONISTIC)
        return tuple(NodeSpec(i, rules[a], p) for i, (a, p)
                     in enumerate(zip(self.antagonistic.tolist(), self.phi.tolist())))


@dataclass(frozen=True)
class NetworkStats:
    n: int
    edge_count: int
    mean_degree: float
    clustering_coefficient: float


def _bernoulli_positions(m: int, p: float, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The indices of the successes among one run of m independent
    Bernoulli(p) trials per generator, in increasing order: trial i of the
    run of the r-th generator has index r*m + i.

    Uses geometric gap-skipping, so cost scales with the number of successes
    rather than m. Every run's first draw has the same size, so the draws go
    through the gap arithmetic as one (generator x draw) array; a run whose
    first draw ends inside its m trials goes on from its last success alone.
    """
    if m <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(len(rngs) * m, dtype=np.int64)
    log_q = math.log1p(-p)
    u = np.empty((len(rngs), _draw_size(m, p, -1)))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    pos = _gap_positions(u, -1, m, log_q)
    inside = pos < m
    pos += np.arange(0, len(rngs) * m, m)[:, None]  # trial i of run r is r*m + i
    chunks = [pos[inside]]
    for r in inside[:, -1].nonzero()[0].tolist():  # rare: the first draw fell short
        last = int(pos[r, -1]) - r * m
        while last < m:
            step = _gap_positions(rngs[r].random(_draw_size(m, p, last)), last, m, log_q)
            chunks.append(step[step < m] + r * m)
            last = int(step[-1])
    return np.sort(np.concatenate(chunks)) if len(chunks) > 1 else chunks[0]


def _draw_size(m: int, p: float, last: int) -> int:
    """How many uniforms a draw of the successes after trial `last` takes."""
    return int((m - last) * p * 1.1) + 16


def _gap_positions(u: np.ndarray, last: int, m: int, log_q: float) -> np.ndarray:
    """The positions of the successes that uniforms `u` give along their last
    axis, counted on from `last`: each uniform is a geometric gap of
    failures, log(1 - u) / log(1 - p) rounded down, then one success."""
    gaps = np.floor(np.log1p(-u) / log_q)
    gaps = np.minimum(gaps, float(m)).astype(np.int64)  # avoid cumsum overflow
    gaps += 1
    return last + np.cumsum(gaps, axis=-1)


def _pair_from_linear(idx: np.ndarray, n: int,
                      components: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Invert the lexicographic linearization of pairs (u, v), u < v, of
    `components` graphs of n nodes: with m = n(n-1)/2 pairs each, index
    c*m + i is the i-th pair of component c, whose nodes are c*n .. c*n+n-1."""
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2  # linear index of (u, u + 1)
    row_start = (np.arange(components, dtype=np.int64)[:, None] * (n * (n - 1) // 2)
                 + row_start).ravel()
    u = np.searchsorted(row_start[1:], idx, side="right")  # the last row starting at or before idx
    return u, idx - (row_start - np.arange(1, row_start.size + 1))[u]  # idx - row_start[u] + u + 1


def check_er_size(n: int, p: float) -> None:
    """Raise LimitExceeded when G(n, p) has more than MAX_NODES nodes or
    more than MAX_EXPECTED_EDGES expected edges, n(n-1)p/2."""
    if n > MAX_NODES:
        raise LimitExceeded(f"n = {n} exceeds the limit of {MAX_NODES} nodes")
    expected = n * (n - 1) / 2 * p
    if expected > MAX_EXPECTED_EDGES:
        raise LimitExceeded(f"n = {n} and p = {p:.6g} expect {expected:.6g} edges; "
                            f"the limit is {MAX_EXPECTED_EDGES}")


def generate_er(n: int, p: float, rng_seed: int) -> Graph:
    """Erdős–Rényi G(n, p): each of the n(n-1)/2 pairs kept with probability p.

    Deterministic for fixed (n, p, rng_seed). The result is a bare graph;
    :func:`assign_thresholds` makes it a network. Sizes past
    :func:`check_er_size` raise LimitExceeded before anything is drawn.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    check_er_size(n, p)
    return _er_union(n, p, (make_rng(rng_seed),))


def _er_union(n: int, p: float, rngs: Iterable[np.random.Generator]) -> Graph:
    """The disjoint union of one G(n, p) per generator: component i takes
    nodes i*n .. i*n+n-1 and the pairs the i-th generator draws, all of
    them in one `_bernoulli_positions` call, so each component is the graph
    `generate_er` draws from that generator alone. The caller has checked
    n, p and the union's size."""
    rngs = tuple(rngs)
    # distinct, ordered and in range by construction: no validation needed
    us, vs = _pair_from_linear(_bernoulli_positions(n * (n - 1) // 2, p, rngs), n, len(rngs))
    return Graph._build(n * len(rngs), False, us, vs)


def assign_thresholds(graph: Graph, phi, rule: Rule,
                      rng_seed: Optional[int] = None) -> Network:
    """The network of `graph` with every node given `rule` and a threshold,
    and no seeds.

    ``phi=UNIFORM`` draws the ``phi`` column independently from U[0, 1) and
    requires an ``rng_seed``; a real value in [0, 1] (float or Fraction) is
    assigned to every node. The result shares `graph`. Pure: same
    arguments, same result.
    """
    if not isinstance(rule, Rule):
        raise ValueError(f"rule must be a Rule, got {rule!r}")
    if phi == UNIFORM:
        if rng_seed is None:
            raise ValueError("uniform threshold assignment requires rng_seed")
        return _uniform_network(graph, rule, graph.n, (make_rng(rng_seed),))
    return Network(graph, np.full(graph.n, rule is Rule.ANTAGONISTIC), np.full(graph.n, phi))


def _uniform_network(graph: Graph, rule: Rule, n: int,
                     rngs: Iterable[np.random.Generator]) -> Network:
    """The network of `graph` with every node given `rule` and the phi of
    nodes i*n .. i*n+n-1 drawn from U[0, 1) by the i-th generator, one per
    component of an `_er_union`: `assign_thresholds`' UNIFORM case is the
    one-component one."""
    values = np.concatenate([rng.random(n) for rng in rngs])
    return Network(graph, np.full(graph.n, rule is Rule.ANTAGONISTIC), values)


_WEDGES = 1 << 18  # wedges `_triangles` builds at once: about 10 MB of index arrays


def _triangles(graph: Graph) -> np.ndarray:
    """The number of triangles at each node of an undirected graph, that is,
    of its neighbor pairs that are linked, in O(m^1.5) time.

    Each edge points from the lower to the higher of its ends ranked by
    (degree, id), so no node has more than sqrt(2m) higher neighbors, and each
    triangle is the one pair of higher neighbors of its lowest node that an
    edge links (Chiba & Nishizeki, SIAM J. Comput. 14:210, 1985). Those pairs,
    the wedges, are built `_WEDGES` at a time and looked up among the edges.
    """
    n = graph.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(graph.degrees, kind="stable")] = np.arange(n)
    a, b = rank[graph.src], rank[graph.dst]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))  # by lower end, then higher
    low, high = np.divmod(keys, n)
    # the edge at position e makes a wedge with each later edge of its lower end
    later = np.cumsum(np.bincount(low, minlength=n))[low] - np.arange(keys.size) - 1
    wedges = np.cumsum(later) - later  # the first wedge of each edge, numbered over all edges
    count = np.zeros(n, dtype=np.int64)
    start = 0
    while start < keys.size:
        # this edge and those whose first wedge is within _WEDGES of its own
        stop = int(np.searchsorted(wedges, wedges[start] + _WEDGES))
        first = np.repeat(np.arange(start, stop), later[start:stop])
        # wedge w pairs edge e with edge e + 1 + w - wedges[e]
        second = first + 1 + np.arange(wedges[start], wedges[start] + first.size) - wedges[first]
        closing = high[first] * n + high[second]
        hit = keys[np.minimum(np.searchsorted(keys, closing), keys.size - 1)] == closing
        first, second = first[hit], second[hit]
        count += np.bincount(np.concatenate((low[first], high[first], high[second])), minlength=n)
        start = stop
    return count[rank]


def stats(graph: Graph) -> NetworkStats:
    """Node count, edge count, mean degree, and average clustering coefficient.

    Clustering averages, over all nodes, the fraction of neighbor pairs that
    are themselves connected; nodes of degree < 2 contribute 0. Undirected
    graphs only.
    """
    if graph.directed:
        raise ValueError("stats requires an undirected network")
    links = _triangles(graph)
    has = np.flatnonzero(links)  # every node with a triangle has degree >= 2
    d = graph.degrees[has]
    total = 0.0
    # one Python float per node, added in node order: the rounding of a loop
    # over nodes, which numpy's pairwise sum and sum() since Python 3.12 do not keep
    for term in (links[has] / (d * (d - 1) / 2)).tolist():
        total += term
    edge_count = graph.src.size
    return NetworkStats(
        n=graph.n,
        edge_count=edge_count,
        mean_degree=2 * edge_count / graph.n,
        clustering_coefficient=total / graph.n,
    )


# --- file format ------------------------------------------------------------
#
# A network file is one JSON document:
#   {"directed": bool,
#    "nodes":    [{"id": int, "rule": "gcm"|"agcm", "phi": float}, ...],
#    "edges":    [[int, int], ...],
#    "seeds":    [int, ...],
#    "inputs":   {name: id, ...},   # optional; circuits only
#    "outputs":  {name: id, ...}}   # optional; circuits only
#
# save_network streams json.dumps(doc, indent=1)'s text from the columns: one
# template per node and per edge, and json.dumps itself for the seeds and ports.
# Fraction thresholds are written as their nearest float; the canonical gate
# values survive this because cutoff(float(phi), k) == cutoff(phi, k) for
# each of them at its fan-in k, so a reloaded gate fires on the same counts.


class NetworkFormatError(ValueError):
    """A network file is malformed; the message names the offending field."""


@dataclass(frozen=True)
class NetworkBundle:
    """A parsed network file: the network plus optional circuit port maps."""

    network: Network
    inputs: Optional[dict[str, int]]
    outputs: Optional[dict[str, int]]


_TOP_KEYS = {"directed", "nodes", "edges", "seeds", "inputs", "outputs"}
_NODE_KEYS = {"id", "rule", "phi"}
_RULE_NAMES = (Rule.MONOTONE.value, Rule.ANTAGONISTIC.value)  # by the antagonistic flag
_AGCM = Rule.ANTAGONISTIC.value
_CHUNK = 1 << 12  # nodes or edges formatted per string that save_network writes


def read_text(source) -> str:
    """The text of an open text file, or of the file at a path."""
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text(encoding="utf-8")


@contextmanager
def open_output(path) -> Iterator[TextIO]:
    """Open the output file at `path` once, before the work that fills it,
    and yield it as a UTF-8 text file written from its start.

    The open does not truncate, and a new file gets the mode bits of
    ``open(path, "w")``. On leaving, a regular file is cut at the end of what
    was written, also when the block raises after a write; a process killed
    before the cut leaves the old file's tail. When the block raises before
    any write, a file this call created is removed and an existing one is
    left as it was. ``/dev/null``, a pipe or a tty is written, never cut."""
    created = not os.path.exists(path)  # through a dangling link, its target is new
    # on ext4 mounted with discard, O_TRUNC on an existing 2 KB file took
    # about 70 us, and an in-place write cut at its end about 3 us
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as f:
        cut = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            yield f
        except BaseException:
            if cut and f.tell() == 0:  # nothing written: leave the path as it was
                cut = False
                if created:
                    os.remove(os.path.realpath(path))
            raise
        finally:
            if cut:
                f.truncate()


def write_text(text: Union[str, Iterable[str]], destination) -> None:
    """Write `text`, one string or an iterable of strings written in turn,
    to an open text file, or to the file at a path through
    :func:`open_output`."""
    if isinstance(text, str):
        text = (text,)
    if hasattr(destination, "write"):
        destination.writelines(text)
        return
    with open_output(destination) as f:
        f.writelines(text)


def _list_text(key: str, count: int, items) -> Iterator[str]:
    """A comma, then the `key` list of a top-level ``indent=1`` JSON object:
    `count` items, `items(lo, hi)` giving the texts of items lo..hi-1."""
    yield f',\n "{key}": ['
    for lo in range(0, count, _CHUNK):
        yield ",\n" if lo else "\n"
        yield ",\n".join(items(lo, min(lo + _CHUNK, count)))
    yield "\n ]" if count else "]"


def save_network(network: Network, destination, *,
                 inputs: Optional[Mapping[str, int]] = None,
                 outputs: Optional[Mapping[str, int]] = None) -> None:
    """Write `network` as a JSON document to a path or open text file,
    streamed from its columns `_CHUNK` nodes or edges at a time: the text is
    ``json.dumps(doc, indent=1)`` of the document, never held whole."""
    graph, antagonistic = network.graph, network.antagonistic
    phi = network.phi.astype(np.float64, copy=False)  # each Fraction as its nearest float

    def nodes(lo, hi):
        return (f'  {{\n   "id": {i},\n   "rule": "{_RULE_NAMES[a]}",\n   "phi": {p!r}\n  }}'
                for i, a, p in zip(range(lo, hi), antagonistic[lo:hi].tolist(),
                                   phi[lo:hi].tolist()))

    def edges(lo, hi):
        return (f"  [\n   {u},\n   {v}\n  ]"
                for u, v in zip(graph.src[lo:hi].tolist(), graph.dst[lo:hi].tolist()))

    tail: dict = {"seeds": sorted(network.seeds)}
    for key, ports in (("inputs", inputs), ("outputs", outputs)):
        if ports is not None:
            tail[key] = {str(k): int(v) for k, v in ports.items()}
    # the tail's keys at the top level's indent: its text without the opening "{\n"
    write_text(chain(('{\n "directed": ' + json.dumps(graph.directed),),
                     _list_text("nodes", graph.n, nodes), _list_text("edges", graph.src.size, edges),
                     (",\n" + json.dumps(tail, indent=1)[2:] + "\n",)), destination)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise NetworkFormatError(message)


def _not_an_integer(where: str, value) -> NetworkFormatError:
    return NetworkFormatError(f"{where} must be an integer, got {value!r}")


def _parse_ports(doc: dict, key: str) -> Optional[dict[str, int]]:
    if key not in doc:
        return None
    raw = doc[key]
    if type(raw) is not dict:
        raise NetworkFormatError(f"{key} must be an object of name -> node id")
    for name, nid in raw.items():
        if type(nid) is not int:
            raise _not_an_integer(f"{key}[{name!r}]", nid)
    return raw


def load_bundle(source) -> NetworkBundle:
    """Parse a network file (path or open text file), validating the schema.

    Every node, edge and seed is checked as it is read into the columns, one
    rule at a time, and the first rule that fails raises its message there.
    The checks run in this order: each node's object type, keys, id type,
    rule name, phi type, phi range and repeated id; the ids' range; each
    edge's shape and endpoint types; each seed's type; the graph's own edge
    checks (missing nodes, self-loops, duplicates); the seeds' range; the
    ports.
    """
    try:
        doc = json.loads(read_text(source))
    except json.JSONDecodeError as e:
        raise NetworkFormatError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None

    _expect(type(doc) is dict, "top level must be a JSON object")
    unknown = doc.keys() - _TOP_KEYS
    if unknown:
        raise NetworkFormatError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("directed", "nodes", "edges", "seeds"):
        if key not in doc:
            raise NetworkFormatError(f"missing required key {key!r}")
    nodes, edges, seeds = doc["nodes"], doc["edges"], doc["seeds"]
    _expect(type(doc["directed"]) is bool, "directed must be a boolean")
    _expect(type(nodes) is list and nodes, "nodes must be a non-empty list")
    _expect(type(edges) is list, "edges must be a list")
    _expect(type(seeds) is list, "seeds must be a list")

    n = len(nodes)
    antagonistic, phis = [False] * n, [None] * n  # by id
    stray = set()  # ids outside 0..n-1, each an error once all nodes pass
    for i, raw in enumerate(nodes):
        if type(raw) is not dict:
            raise NetworkFormatError(f"nodes[{i}] must be an object")
        if raw.keys() != _NODE_KEYS:
            raise NetworkFormatError(f"nodes[{i}] must have exactly the keys id, rule, phi")
        nid, rule, phi = raw["id"], raw["rule"], raw["phi"]
        if type(nid) is not int:
            raise _not_an_integer(f"nodes[{i}].id", nid)
        if rule not in _RULE_NAMES:
            raise NetworkFormatError(f"nodes[{i}].rule: unknown rule name {rule!r}")
        if type(phi) is not float and type(phi) is not int:
            raise NetworkFormatError(f"nodes[{i}].phi must be a number, got {phi!r}")
        if not 0 <= phi <= 1:
            try:
                phi = float(phi)
            except OverflowError:  # an integer past the float range, shown as written
                pass
            raise NetworkFormatError(f"nodes[{i}].phi must lie in [0, 1], got {phi}")
        if 0 <= nid < n and phis[nid] is None:
            antagonistic[nid], phis[nid] = rule == _AGCM, phi
        elif 0 <= nid < n or nid in stray:
            raise NetworkFormatError(f"nodes[{i}].id: duplicate node id {nid}")
        else:
            stray.add(nid)
    if stray:
        raise NetworkFormatError(f"node ids must be exactly 0..{n - 1}")

    for i, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 2:
            raise NetworkFormatError(f"edges[{i}] must be a pair [u, v]")
        if type(edge[0]) is not int or type(edge[1]) is not int:
            j = int(type(edge[0]) is int)
            raise _not_an_integer(f"edges[{i}][{j}]", edge[j])
    for i, s in enumerate(seeds):
        if type(s) is not int:
            raise _not_an_integer(f"seeds[{i}]", s)

    src, dst = zip(*edges) if edges else ((), ())
    try:
        network = Network(Graph.from_edges(n, doc["directed"], src, dst),
                          antagonistic, phis, seeds)
    except ValueError as e:
        raise NetworkFormatError(str(e)) from None

    inputs, outputs = (_parse_ports(doc, key) for key in ("inputs", "outputs"))
    for key, ports in (("inputs", inputs), ("outputs", outputs)):
        for name, nid in (ports or {}).items():
            if not 0 <= nid < n:
                raise NetworkFormatError(f"{key}[{name!r}] references a missing node")
    return NetworkBundle(network=network, inputs=inputs, outputs=outputs)


def load_network(source) -> Network:
    """Load a network file; circuit port maps, if present, are validated and dropped."""
    return load_bundle(source).network
