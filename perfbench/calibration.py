"""A fixed computation that measures how fast the machine runs right now.

On a shared host, identical work runs up to 2x slower for seconds to
minutes at a time, in CPU time as much as in wall time. run.py takes
calibration samples between the commands of every pass, in the same
process, and brings each command's time to the reference speed: it
multiplies the time by REFERENCE_S over the mean of the samples taken just
before and just after the command.

A sample times two searches shaped like the program's own work, written
here and sharing no code with the package under test:

- the brute-force fixpoint search of oracles.py on a fixed 11-node net:
  sets of frozensets and exact Fractions, 356 states, run twice;
- a depth-first walk over the bitmask configurations of a fixed 14-node
  net, whose visited set grows to 7,948 ints.

Both nets are the same in every run and for every seed.
"""

from __future__ import annotations

import time

import numpy as np

import oracles
import workloads

# About the fastest sample time seen on the reference machine (2 vCPUs,
# Python 3.11.7). Times at the reference speed equal measured times when a
# sample takes this long.
REFERENCE_S = 0.025


def _random_net(n: int, rng: np.random.Generator):
    """Neighbour lists and thresholds in [0.3, 0.9] of an ER net with z=3."""
    nbrs = [[] for _ in range(n)]
    for u, v in workloads._er_edges(n, 3.0, rng):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs, rng.uniform(0.3, 0.9, n)


class Calibration:
    def __init__(self):
        nbrs, phis = _random_net(11, np.random.default_rng(0))
        self.net = oracles.Net(("agcm",) * 11,
                               tuple(oracles.exact_phi(round(float(x), 2)) for x in phis),
                               tuple(map(tuple, nbrs)), frozenset({0}), {})
        nbrs, phis = _random_net(14, np.random.default_rng(1))
        self.n = 14
        self.masks = [sum(1 << v for v in vs) for vs in nbrs]
        # node u may be labelled while at most limits[u] of its neighbours are
        self.limits = [int(len(vs) * x) for vs, x in zip(nbrs, phis)]

    def _walk(self) -> int:
        seen = set()
        stack = [1]
        while stack:
            config = stack.pop()
            if config in seen:
                continue
            seen.add(config)
            for u in range(self.n):
                if not (config >> u) & 1 and (config & self.masks[u]).bit_count() <= self.limits[u]:
                    stack.append(config | (1 << u))
        return len(seen)

    def sample(self) -> float:
        """Seconds the two searches take now."""
        start = time.perf_counter()
        for _ in range(2):
            oracles.brute_force_fixpoints(self.net, self.net.seeds)
        self._walk()
        return time.perf_counter() - start
