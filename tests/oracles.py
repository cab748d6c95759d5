"""Independent reference implementations the tests check the package against.

Everything here is written the straightforward way (per-examination rescans,
closed-form gate functions) and deliberately shares no internals with the
package's optimized paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from cascade_logic import ExplicitOrder, RandomSweep, Rule, cutoff, make_rng


def fires(rule: Rule, nu, phi) -> bool:
    """The labeling predicate: MONOTONE fires at nu >= phi, ANTAGONISTIC at nu < phi.

    Mixed float/Fraction arguments compare exactly.
    """
    if rule is Rule.MONOTONE:
        return nu >= phi
    if rule is Rule.ANTAGONISTIC:
        return nu < phi
    raise ValueError(f"unknown rule {rule!r}")


def tlu_fires(weights: Sequence[float], inputs: Sequence, degree: int, phi) -> bool:
    """Threshold-logic-unit form of the antagonistic rule.

    Fires when (w . x) / degree < phi, with x read as 0/1 bits. With unit
    weights this is exactly fires(ANTAGONISTIC, nu, phi) for nu the labeled
    fraction of `degree` neighbors.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if len(weights) != degree or len(inputs) != degree:
        raise ValueError("weights and inputs must both have length `degree`")
    dot = sum(w * (1 if x else 0) for w, x in zip(weights, inputs))
    return dot / degree < phi


def count_fires(rule: Rule, labeled: int, degree: int, phi) -> bool:
    """`fires` on the (labeled count, degree) pair, through the integer cutoff."""
    return (labeled >= cutoff(phi, degree)) != (rule is Rule.ANTAGONISTIC)


def in_neighbors(network) -> list[list[int]]:
    """Per node, the nodes whose labels count toward its fraction, from a
    scan of the edge list: the tail of a directed edge, both ends of an
    undirected one."""
    nbrs = [[] for _ in range(network.n)]
    for u, v in network.edges:
        nbrs[v].append(u)
        if not network.directed:
            nbrs[u].append(v)
    return nbrs


def neighbor_fraction(network, config, u: int) -> Fraction:
    """Exact fraction of u's neighbors (in-neighbors when directed) in `config`.

    Degree-0 nodes have fraction 0 by convention.
    """
    return _fraction(in_neighbors(network)[u], config)


def _fraction(nbrs, config) -> Fraction:
    if not nbrs:
        return Fraction(0)
    return Fraction(sum(1 for v in nbrs if v in config), len(nbrs))


def naive_cascade(network, seeds, order):
    """Pass-based cascade that rescans neighbors on every examination.

    Examines `order` repeatedly until a pass changes nothing. Returns the
    labeled set and the labeling history.
    """
    labeled, history, _ = full_pass_cascade(network, seeds, ExplicitOrder(tuple(order)))
    return labeled, history


def full_pass_cascade(network, seeds, mode):
    """(labeled set, labeling history, passes) of a pass-based cascade that
    rescans neighbors on every examination and runs every pass, the last
    one, which labels nothing, included.

    `mode` is an ExplicitOrder, or a RandomSweep, whose passes examine the
    unlabeled nodes in the order ``Generator.permutation`` draws for their
    ids in increasing order. The engine shuffles a list of those ids
    instead, which makes the same draws (test_seeds checks the two agree).
    """
    if isinstance(mode, RandomSweep):
        rng = make_rng(mode.rng_seed)

        def next_pass(labeled):
            pending = [u for u in range(network.n) if u not in labeled]
            return rng.permutation(np.array(pending, dtype=np.intp)).tolist()
    else:
        def next_pass(labeled):
            return mode.order
    nbrs = in_neighbors(network)
    labeled = set(seeds)
    history = []
    passes = 0
    while True:
        passes += 1
        changed = False
        for u in next_pass(labeled):
            if u in labeled:
                continue
            spec = network.nodes[u]
            nu = _fraction(nbrs[u], labeled)
            # a float threshold meets the rounded quotient, a Fraction the exact one
            if fires(spec.rule, nu if isinstance(spec.phi, Fraction) else float(nu),
                     spec.phi):
                labeled.add(u)
                history.append(u)
                changed = True
        if not changed:
            return labeled, history, passes


def gate_truth(kind: str, bits) -> int:
    """Closed-form Boolean gate functions."""
    bits = [int(b) for b in bits]
    if kind == "or":
        return int(any(bits))
    if kind == "and":
        return int(all(bits))
    if kind == "nor":
        return int(not any(bits))
    if kind == "nand":
        return int(not all(bits))
    if kind == "not":
        (b,) = bits
        return 1 - b
    if kind == "buf":
        (b,) = bits
        return b
    if kind == "xor":
        a, b = bits
        return a ^ b
    raise ValueError(kind)


def eval_expr(expr, env):
    """Evaluate an AST directly against a variable environment."""
    from cascade_logic.parser import And, Nand, Nor, Not, Or, Var, Xor

    if isinstance(expr, Var):
        return int(env[expr.name])
    if isinstance(expr, Not):
        return 1 - eval_expr(expr.arg, env)
    vals = [eval_expr(a, env) for a in expr.args]
    if isinstance(expr, Xor):
        return sum(vals) % 2
    if isinstance(expr, And):
        return int(all(vals))
    if isinstance(expr, Or):
        return int(any(vals))
    if isinstance(expr, Nand):
        return int(not all(vals))
    if isinstance(expr, Nor):
        return int(not any(vals))
    raise TypeError(expr)


def monotone_by_flips(table, breaks) -> bool:
    """Per-row monotonicity check of a single-output truth table.

    False when flipping some input 0 -> 1 in some row takes the output bit
    from x to y with breaks(x, y) (operator.gt: it drops, operator.lt: it
    rises).
    """
    bits = [row[0] for row in table.rows]
    m = len(table.input_names)
    for r in range(len(bits)):
        for j in range(m):
            above = r | (1 << j)
            if above != r and breaks(bits[r], bits[above]):
                return False
    return True


def rescan_fixpoints(network, seeds, state_cap):
    """Level-by-level fixpoint search that re-tests every node in every state.

    Each level is the set of configurations with one more labeled node than
    the one before, built with Python ints. The search stops at the first
    level that would take the explored count past `state_cap`, so it
    returns the same (fixpoints, explored_states, truncated) triple as
    `enumerate_fixpoints`, truncated searches included: the configurations
    of the complete levels within the cap, and the stable ones among them.
    """
    n = network.n
    cut = network.cutoff.tolist()
    anti = network.antagonistic.tolist()
    nbr_mask = [sum(1 << v for v in nbrs) for nbrs in in_neighbors(network)]
    level = {sum(1 << s for s in seeds)}
    explored = 0
    fixpoints = set()
    truncated = False
    while level:
        if explored + len(level) > state_cap:
            truncated = True
            break
        explored += len(level)
        children = set()
        for cfg in level:
            fireable = [
                u for u in range(n)
                if not (cfg >> u) & 1
                and ((cfg & nbr_mask[u]).bit_count() >= cut[u]) != anti[u]
            ]
            if not fireable:
                fixpoints.add(cfg)
            children.update(cfg | (1 << u) for u in fireable)
        level = children
    as_sets = frozenset(
        frozenset(u for u in range(n) if (cfg >> u) & 1) for cfg in fixpoints
    )
    return as_sets, explored, truncated
