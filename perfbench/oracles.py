"""Independent reference computations that the benchmark checks outputs against.

Nothing here imports the package under test. Network files are read with the
json module, expressions are parsed by a parser of this file's own, every
threshold test is made in exact rational arithmetic, and every search is a
plain breadth-first walk over Python sets.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# A float in a network file is either a decimal the user wrote or the nearest
# double to a small rational gate threshold (1/3, 5/6, ...). Either way the
# exact value it stands for is the simplest rational within one rounding error.
_ROUNDING = Fraction(1, 1 << 52)


def exact_phi(value) -> Fraction:
    exact = Fraction(value)
    simple = exact.limit_denominator(1 << 20)
    return simple if abs(simple - exact) <= _ROUNDING else exact


@dataclass(frozen=True)
class Net:
    """A network file as tuples: rules, exact thresholds, in-neighbours."""

    rules: tuple[str, ...]
    phis: tuple[Fraction, ...]
    in_nbrs: tuple[tuple[int, ...], ...]
    seeds: frozenset[int]
    outputs: dict

    @property
    def n(self) -> int:
        return len(self.rules)


def read_net(path) -> Net:
    doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=exact_phi)
    nodes = sorted(doc["nodes"], key=lambda node: node["id"])
    if [node["id"] for node in nodes] != list(range(len(nodes))):
        raise ValueError("node ids are not 0..n-1")
    in_nbrs: list[list[int]] = [[] for _ in nodes]
    for u, v in doc["edges"]:
        in_nbrs[v].append(u)
        if not doc["directed"]:
            in_nbrs[u].append(v)
    return Net(rules=tuple(node["rule"] for node in nodes),
               phis=tuple(exact_phi(node["phi"]) for node in nodes),
               in_nbrs=tuple(tuple(a) for a in in_nbrs),
               seeds=frozenset(doc["seeds"]),
               outputs=dict(doc.get("outputs", {})))


def fires(net: Net, u: int, labeled) -> bool:
    """The labeling rule for node u given the labeled set, exactly."""
    nbrs = net.in_nbrs[u]
    nu = Fraction(sum(v in labeled for v in nbrs), len(nbrs)) if nbrs else Fraction(0)
    if net.rules[u] == "gcm":
        return nu >= net.phis[u]
    if net.rules[u] == "agcm":
        return nu < net.phis[u]
    raise ValueError(f"unknown rule {net.rules[u]!r}")


def naive_cascade(net: Net, seeds) -> frozenset[int]:
    """Rescan every unlabeled node in id order until a pass labels nothing."""
    labeled = set(seeds)
    changed = True
    while changed:
        changed = False
        for u in range(net.n):
            if u not in labeled and fires(net, u, labeled):
                labeled.add(u)
                changed = True
    return frozenset(labeled)


def is_stable(net: Net, config) -> bool:
    """No unlabeled node can fire."""
    return not any(fires(net, u, config) for u in range(net.n) if u not in config)


BRUTE_FORCE_LIMIT = 1 << 16


def brute_force_fixpoints(net: Net, seeds):
    """Every stable configuration reachable by single firings from `seeds`,
    and the number of distinct configurations reached on the way."""
    start = frozenset(seeds)
    seen = {start}
    frontier = [start]
    fixpoints = set()
    while frontier:
        nxt = []
        for config in frontier:
            movers = [u for u in range(net.n) if u not in config and fires(net, u, config)]
            if not movers:
                fixpoints.add(config)
            for u in movers:
                child = config | {u}
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if len(seen) > BRUTE_FORCE_LIMIT:
            raise ValueError(f"more than {BRUTE_FORCE_LIMIT} configurations")
        frontier = nxt
    return fixpoints, len(seen)


# --- expressions --------------------------------------------------------------
#
# Grammar, loosest first: '|' and '@|' (OR, NOR), '^' (XOR, binary), '&' and
# '@&' (AND, NAND), then '!' and parentheses. A run of one operator is one
# k-ary gate; NAND and NOR negate the whole run.

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|@&|@\||[!&^|()])")


def parse(text: str):
    """Parse into nested tuples: ('var', name), ('not', e), ('xor', a, b) or
    (op, [args]) for op in and/or/nand/nor. Also returns the variables in
    first-appearance order."""
    tokens = []
    pos = 0
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    names: dict[str, None] = {}
    at = 0

    def peek():
        return tokens[at] if at < len(tokens) else None

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def run(sub, ops):
        node = sub()
        while peek() in ops:
            op = peek()
            args = [node]
            while peek() == op:
                take()
                args.append(sub())
            node = (ops[op], args)
        return node

    def expr():
        return run(xorterm, {"|": "or", "@|": "nor"})

    def xorterm():
        node = andterm()
        while peek() == "^":
            take()
            node = ("xor", node, andterm())
        return node

    def andterm():
        return run(unary, {"&": "and", "@&": "nand"})

    def unary():
        tok = take()
        if tok == "!":
            return ("not", unary())
        if tok == "(":
            node = expr()
            if take() != ")":
                raise ValueError(f"expected ')' in {text!r}")
            return node
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            names.setdefault(tok)
            return ("var", tok)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    tree = expr()
    if at != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return tree, list(names)


def evaluate(tree, env):
    """Evaluate a parsed expression; `env` maps names to numpy bool arrays."""
    op = tree[0]
    if op == "var":
        return env[tree[1]]
    if op == "not":
        return ~evaluate(tree[1], env)
    if op == "xor":
        return evaluate(tree[1], env) ^ evaluate(tree[2], env)
    vals = [evaluate(a, env) for a in tree[1]]
    if op in ("and", "nand"):
        out = np.logical_and.reduce(vals)
    else:
        out = np.logical_or.reduce(vals)
    return ~out if op in ("nand", "nor") else out


def truth_column(text: str, order) -> np.ndarray:
    """The expression's value on all 2^m rows, the first name in `order` being
    the most significant bit of the row index."""
    tree, _ = parse(text)
    m = len(order)
    rows = np.arange(1 << m, dtype=np.int64)
    env = {name: ((rows >> (m - 1 - j)) & 1).astype(bool) for j, name in enumerate(order)}
    return np.broadcast_to(evaluate(tree, env), rows.shape)


# --- cascade theory -------------------------------------------------------------

def watts_ratio(z: float, phi: float) -> float:
    """Watts' vulnerable-cluster condition for Poisson degree (PNAS 99:5766).

    A degree-k node is vulnerable when one labeled neighbour tips it, that is
    1/k >= phi. Global cascades from a single seed are possible when
    sum_k k(k-1) p_k [k vulnerable] / z exceeds 1.
    """
    k = np.arange(400, dtype=np.float64)  # Poisson mass beyond 400 is nil for z <= 100
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    p = np.exp(-z + k * math.log(z) - log_fact)
    vulnerable = (k >= 1) & (k * phi <= 1)
    return float(np.sum(k * (k - 1) * p * vulnerable) / z)
