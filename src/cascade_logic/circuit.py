"""Compile Boolean expressions into directed cascade networks.

A single node computes a gate through its threshold alone: with fan-in k it
is an OR for any phi in (0, 1/k] and an AND for phi in ((k-1)/k, 1] under
the monotone rule, and a NOR / NAND on the same intervals under the
antagonistic rule; a one-input antagonistic node is a NOT (any phi in
(0, 1]). Compiled thresholds are exact Fractions so the >=/< tie-breaks at
interval boundaries behave exactly.

Circuits are DAGs with named in-degree-0 input nodes that never fire on
their own; evaluating assigns the 1-inputs as cascade seeds and reads
outputs as membership in the final labeled set under the topological
schedule. That run is the one-row case of the engine's `settle`, and
`truth_table` runs the same pass on blocks of rows, one bit per row, so a
table equals row-by-row evaluation by construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .engine import Topological, run_cascade, settle, topological_order
from .net import (Graph, Network, NetworkFormatError, Rule, load_bundle,
                  save_network, write_text)
from .parser import (And, Expr, LimitExceeded, Nand, Nor, Not, Or, Var, Xor,
                     parse_expr)

MAX_FAN_IN = 64
MAX_TABLE_CELLS = 1 << 25  # every compiled expression of up to 20 inputs fits
# blocks x (nodes + edges) of a table's `settle` passes: a bound on its time,
# as the cells are on its memory; XOR-20 takes at most 12,250 in any basis
MAX_TABLE_STEPS = 1 << 24
# Rows per block of a table pass: the block's node values (a bit per node and
# row) or its CSV text stay within this many bytes whatever the circuit's size.
TABLE_BLOCK_BYTES = 1 << 18


class GateKind(Enum):
    OR = "or"
    AND = "and"
    NOR = "nor"
    NAND = "nand"
    NOT = "not"
    BUF = "buf"


class Basis(Enum):
    MIXED = "mixed"
    NAND_ONLY = "nand"
    NOR_ONLY = "nor"


@dataclass(frozen=True)
class GateAssignment:
    """Rule and threshold realizing `kind` at the given fan-in."""

    kind: GateKind
    fan_in: int
    rule: Rule
    phi: Fraction


def phi_interval(kind: GateKind, fan_in: int) -> tuple[Fraction, Fraction]:
    """The half-open interval (lo, hi] of thresholds realizing the gate."""
    k = fan_in
    if kind in (GateKind.NOT, GateKind.BUF):
        if k != 1:
            raise ValueError(f"{kind.value} takes exactly one input, got {k}")
        return Fraction(0), Fraction(1)
    if k < 2:
        raise ValueError(f"{kind.value} needs fan-in >= 2, got {k}")
    if k > MAX_FAN_IN:
        raise LimitExceeded(f"fan-in {k} exceeds the supported maximum {MAX_FAN_IN}")
    if kind in (GateKind.OR, GateKind.NOR):
        return Fraction(0), Fraction(1, k)
    if kind in (GateKind.AND, GateKind.NAND):
        return Fraction(k - 1, k), Fraction(1)
    raise ValueError(f"unknown gate kind {kind!r}")


_GATE_RULES = {
    GateKind.OR: Rule.MONOTONE,
    GateKind.AND: Rule.MONOTONE,
    GateKind.BUF: Rule.MONOTONE,
    GateKind.NOR: Rule.ANTAGONISTIC,
    GateKind.NAND: Rule.ANTAGONISTIC,
    GateKind.NOT: Rule.ANTAGONISTIC,
}


@cache
def phi_for_gate(kind: GateKind, fan_in: int) -> GateAssignment:
    """Canonical threshold assignment for a gate.

    OR/NOR take 1/k (the included interval endpoint), AND/NAND the midpoint
    (2k-1)/(2k), NOT/BUF 1/2. The assignment is immutable and made once per
    (kind, fan_in); a fan-in that no gate takes raises and is not kept.
    """
    lo, hi = phi_interval(kind, fan_in)
    if kind in (GateKind.OR, GateKind.NOR):
        phi = hi
    elif kind in (GateKind.AND, GateKind.NAND):
        phi = (lo + hi) / 2
    else:
        phi = Fraction(1, 2)
    return GateAssignment(kind=kind, fan_in=fan_in, rule=_GATE_RULES[kind], phi=phi)


@dataclass(frozen=True)
class CompiledCircuit:
    """A directed acyclic cascade network with named input and output nodes.

    Each input has in-degree 0 and stays unlabeled unless seeded, so a 0 bit
    means unlabeled; each output is reachable from some input."""

    network: Network
    inputs: dict[str, int]
    outputs: dict[str, int]

    def __post_init__(self):
        if not self.network.directed:
            raise ValueError("a circuit network must be directed")
        order = topological_order(self.network)  # raises on cycles
        network, graph = self.network, self.network.graph
        n, in_deg = graph.n, graph.degrees.tolist()
        cut, anti = network.cutoff.tolist(), network.antagonistic.tolist()
        if not self.inputs:
            raise ValueError("a circuit needs at least one input")
        if not self.outputs:
            raise ValueError("a circuit needs at least one output")
        for name, nid in self.inputs.items():
            if not 0 <= nid < n:
                raise ValueError(f"input {name!r} references a missing node")
            if in_deg[nid] != 0:
                raise ValueError(f"input {name!r} must have in-degree 0")
            # evaluate would label it where the table reads a 0 bit
            if (0 >= cut[nid]) != anti[nid]:
                raise ValueError(f"input {name!r} fires on its own, with no seed")
        reach = set(self.inputs.values())
        ptr, flat = graph.view[0]
        for u in order:
            if not reach.isdisjoint(flat[ptr[u]:ptr[u + 1]]):
                reach.add(u)
        for name, nid in self.outputs.items():
            if not 0 <= nid < n:
                raise ValueError(f"output {name!r} references a missing node")
            if nid not in reach:
                raise ValueError(f"output {name!r} is not reachable from any input")


class _Builder:
    """Accumulates nodes and edges with structural hashing, so identical
    sub-circuits share one node and the result is a DAG, not a tree."""

    def __init__(self):
        self.antagonistic: list[bool] = []
        self.phi: list[Fraction] = []
        self.src: list[int] = []
        self.dst: list[int] = []
        self.inputs: dict[str, int] = {}
        self._memo: dict = {}

    def node(self, rule: Rule, phi, children: Sequence[int] = ()) -> int:
        nid = len(self.phi)
        self.antagonistic.append(rule is Rule.ANTAGONISTIC)
        self.phi.append(phi)
        self.src += children
        self.dst += (nid,) * len(children)
        return nid

    def input_node(self, name: str) -> int:
        if name not in self.inputs:
            # inert placeholder: degree 0, monotone, 0 >= 1/2 never fires
            self.inputs[name] = self.node(Rule.MONOTONE, Fraction(1, 2))
        return self.inputs[name]

    def gate(self, kind: GateKind, children: Sequence[int]) -> int:
        children = tuple(dict.fromkeys(children))  # simple graph: one edge per child
        if len(children) == 1:
            if kind in (GateKind.AND, GateKind.OR):
                kind = GateKind.BUF
            elif kind in (GateKind.NAND, GateKind.NOR):
                kind = GateKind.NOT
        key = (kind, children)
        if key in self._memo:
            return self._memo[key]
        assign = phi_for_gate(kind, len(children))
        nid = self.node(assign.rule, assign.phi, children)
        self._memo[key] = nid
        return nid

    def network(self) -> Network:
        # valid by construction: each gate's children are distinct ids below its own
        graph = Graph._build(len(self.phi), True, np.array(self.src, dtype=np.int64),
                             np.array(self.dst, dtype=np.int64))
        return Network(graph, self.antagonistic, self.phi)


def _xor(builder: _Builder, kind: GateKind, x: int, y: int) -> int:
    """Four two-input `kind` gates, kind(x, y) emitted first: x XOR y out
    of NANDs, x XNOR y out of NORs."""
    t = builder.gate(kind, (x, y))
    return builder.gate(kind, (builder.gate(kind, (x, t)), builder.gate(kind, (y, t))))


# AST gate -> (gate emitted, operands negated, NOT on the output), per basis
_REWRITES = {
    Basis.MIXED: {And: (GateKind.AND, False, False), Or: (GateKind.OR, False, False),
                  Nand: (GateKind.NAND, False, False), Nor: (GateKind.NOR, False, False)},
    Basis.NAND_ONLY: {And: (GateKind.NAND, False, True), Or: (GateKind.NAND, True, False),
                      Nand: (GateKind.NAND, False, False), Nor: (GateKind.NAND, True, True)},
    Basis.NOR_ONLY: {And: (GateKind.NOR, True, False), Or: (GateKind.NOR, False, True),
                     Nand: (GateKind.NOR, True, True), Nor: (GateKind.NOR, False, False)},
}
_COMPLEMENT = {And: Nand, Nand: And, Or: Nor, Nor: Or}


def _emit(e: Expr, builder: _Builder, basis: Basis, negate: bool = False) -> int:
    """Emit `e`, or its complement when `negate`, in `basis`, visiting each
    AST node once and operands left to right.

    A NOT emits nothing: it flips the polarity asked of its operand. A
    negated gate takes the rewrite of its complement, and a rewrite's
    negated inputs are requests for negated operands, which of all leaves
    only a variable answers with a NOT node.
    """
    if isinstance(e, Var):
        nid = builder.input_node(e.name)
        return builder.gate(GateKind.NOT, (nid,)) if negate else nid
    if isinstance(e, Not):
        return _emit(e.arg, builder, basis, not negate)
    if isinstance(e, Xor):
        # NORs give XNOR, and XNOR(x, y) = XOR(!x, y): each of the k-1 folds
        # flips the polarity asked of the first operand
        kind = GateKind.NOR if basis is Basis.NOR_ONLY else GateKind.NAND
        flips = kind is GateKind.NOR and len(e.args) % 2 == 0
        out = _emit(e.args[0], builder, basis, negate != flips)
        for arg in e.args[1:]:
            out = _xor(builder, kind, out, _emit(arg, builder, basis))
        return out
    kind, negate_inputs, negate_output = _REWRITES[basis][
        _COMPLEMENT[type(e)] if negate else type(e)]
    out = builder.gate(kind, [_emit(arg, builder, basis, negate_inputs) for arg in e.args])
    return builder.gate(GateKind.NOT, (out,)) if negate_output else out


def compile_expr(expr: Union[Expr, str], basis: Basis = Basis.MIXED) -> CompiledCircuit:
    """Compile an expression (or its source text) into a cascade circuit.

    One pass over the AST emits each node straight into the builder, in the
    polarity its parent needs, so a NOT in the expression is never a node
    of its own. MIXED emits AND, OR, NAND and NOR nodes; NAND_ONLY and
    NOR_ONLY emit every gate as the basis gate by De Morgan, with one-input
    antagonistic NOTs (the fan-in-1 degeneration of either gate) only on
    variables and on rewrite outputs. A k-input XOR folds its operands left
    to right, four NANDs per fold (MIXED, NAND_ONLY) or four NORs, which
    compute XNOR, with the first operand's polarity set by the parity of k
    (NOR_ONLY). The single output is named "out"; inputs keep
    first-appearance order.
    """
    if isinstance(expr, str):
        expr = parse_expr(expr)
    builder = _Builder()
    out = _emit(expr, builder, basis)
    return CompiledCircuit(network=builder.network(),
                           inputs=dict(builder.inputs), outputs={"out": out})


def build_gate(kind: GateKind, fan_in: int, phi=None,
               rule: Optional[Rule] = None) -> CompiledCircuit:
    """A single-gate circuit with inputs x0..x{k-1}, optionally overriding
    the gate node's threshold or rule (for boundary experiments)."""
    assign = phi_for_gate(kind, fan_in)
    b = _Builder()
    inputs = [b.input_node(f"x{i}") for i in range(fan_in)]
    out = b.node(assign.rule if rule is None else rule,
                 assign.phi if phi is None else phi, inputs)
    return CompiledCircuit(network=b.network(), inputs=dict(b.inputs), outputs={"out": out})


def compile_half_adder() -> CompiledCircuit:
    """Two-bit adder out of five inverting gates.

    Four two-input NAND-threshold nodes form the sum, and a one-input
    complement of the first NAND forms the carry. Outputs: sum, carry.
    """
    b = _Builder()
    a = b.input_node("a")
    bb = b.input_node("b")
    s = _xor(b, GateKind.NAND, a, bb)
    c = b.gate(GateKind.NOT, (b.gate(GateKind.NAND, (a, bb)),))  # the sum's first NAND
    return CompiledCircuit(network=b.network(), inputs=dict(b.inputs),
                           outputs={"sum": s, "carry": c})


def input_seeds(circuit: CompiledCircuit, assignment: Mapping[str, int]) -> frozenset[int]:
    """Seed set for an input assignment; the assignment must cover the inputs exactly."""
    problems = [f"{word} {sorted(names)}" for word, names in
                (("missing", set(circuit.inputs) - set(assignment)),
                 ("unexpected", set(assignment) - set(circuit.inputs))) if names]
    if problems:
        raise ValueError("assignment must cover the inputs exactly: " + ", ".join(problems))
    return frozenset(circuit.inputs[name] for name, bit in assignment.items() if bit)


def evaluate(circuit: CompiledCircuit, assignment: Mapping[str, int]) -> dict[str, int]:
    """Evaluate the circuit on one input assignment.

    Inputs assigned 1 become cascade seeds; the run uses the topological
    schedule, one row of `settle`, and each output bit is membership of its
    node in the final labeled set.
    """
    seeds = input_seeds(circuit, assignment)
    result = run_cascade(circuit.network, seeds, Topological())
    return {name: int(nid in result.final) for name, nid in circuit.outputs.items()}


@dataclass(frozen=True, eq=False)
class TruthTable:
    """All 2^m assignments in binary counting order, as one uint8 bit matrix.

    `bits` has 2^m rows and one column per input, then one per output. Row
    index r assigns bit (r >> (m-1-j)) & 1 to input j, so the first input is
    the most significant counter bit.
    """

    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    bits: np.ndarray

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The output bits of each row as int tuples."""
        return tuple(map(tuple, self.bits[:, len(self.input_names):].tolist()))

    def column(self, name: str) -> "TruthTable":
        """Project onto a single output column."""
        m = len(self.input_names)
        j = m + self.output_names.index(name)
        return TruthTable(self.input_names, (name,), self.bits[:, [*range(m), j]])

    def to_csv(self, destination) -> None:
        """Write the table as CSV to a path or an open text file: a header
        line of the column names, then one line of 0/1 cells per row,
        encoded and written one block of rows at a time."""
        write_text(self._csv_blocks(), destination)

    def _csv_blocks(self):
        yield ",".join(self.input_names + self.output_names) + "\n"
        row_count, width = self.bits.shape
        step = max(1, TABLE_BLOCK_BYTES // (2 * width))
        for lo in range(0, row_count, step):
            bits = self.bits[lo:lo + step]
            text = np.full((len(bits), 2 * width), ord(","), dtype=np.uint8)
            text[:, 0::2] = bits + ord("0")
            text[:, -1] = ord("\n")
            yield text.tobytes().decode()


def _counter_bits(k: int, lo: int, size: int) -> int:
    """Bit k of the row ids lo..lo+size-1, row lo's in bit 0: cut from the
    bytes of the repeating pattern of bit k over all row ids, so no array
    of row ids is made."""
    if k < 3:  # a period within each byte: 0b10101010, 0b11001100, 0b11110000
        period = bytes((0xAA, 0xCC, 0xF0)[k:k + 1])
    else:  # 2^(k-3) bytes of 0s, then as many of 1s
        period = bytes(1 << (k - 3)) + b"\xff" * (1 << (k - 3))
    first, count = lo // 8, (lo % 8 + size + 7) // 8
    skip = first % len(period)
    stream = (period * ((skip + count) // len(period) + 1))[skip:skip + count]
    return (int.from_bytes(stream, "little") >> lo % 8) & ((1 << size) - 1)


def truth_table(circuit: CompiledCircuit) -> TruthTable:
    """Evaluate all 2^m input assignments in binary counting order.

    Each block of rows is one `settle` pass with the inputs' bits fixed, and
    `evaluate` is its one-row case, so the table equals row-by-row
    evaluation by construction. A block's node values fit in
    `TABLE_BLOCK_BYTES` (or are one row); only the input and output columns
    of every row are kept. A table past `MAX_TABLE_CELLS` cells or
    `MAX_TABLE_STEPS` steps raises LimitExceeded before any row is evaluated.
    """
    m = len(circuit.inputs)
    row_count = 1 << m
    columns = [*circuit.inputs.values(), *circuit.outputs.values()]
    if row_count * len(columns) > MAX_TABLE_CELLS:
        raise LimitExceeded(f"2^{m} rows of {len(columns)} columns would need "
                            f"{row_count * len(columns)} cells; the limit is "
                            f"{MAX_TABLE_CELLS} cells")
    network = circuit.network
    step = max(1, 8 * TABLE_BLOCK_BYTES // network.n)
    blocks, edges = -(-row_count // step), network.graph.src.size
    if blocks * (network.n + edges) > MAX_TABLE_STEPS:
        raise LimitExceeded(f"2^{m} rows in {blocks} blocks of {network.n} nodes and "
                            f"{edges} edges would take {blocks * (network.n + edges)} "
                            f"steps; the limit is {MAX_TABLE_STEPS} steps")
    bits = np.empty((row_count, len(columns)), dtype=np.uint8)
    for lo in range(0, row_count, step):
        size = min(step, row_count - lo)
        fixed = {nid: _counter_bits(m - 1 - j, lo, size)
                 for j, nid in enumerate(circuit.inputs.values())}
        value = settle(network, fixed, (1 << size) - 1)
        for j, nid in enumerate(columns):
            packed = np.frombuffer(value[nid].to_bytes(-(-size // 8), "little"), np.uint8)
            bits[lo:lo + size, j] = np.unpackbits(packed, count=size, bitorder="little")
    return TruthTable(input_names=tuple(circuit.inputs),
                      output_names=tuple(circuit.outputs), bits=bits)


def _monotone(table: TruthTable, breaks) -> bool:
    """False when some 0 -> 1 input flip takes the output bit from x to y
    with breaks(x, y)."""
    if len(table.output_names) != 1:
        raise ValueError("monotonicity checks take a single-output table; "
                         "use .column(name) first")
    m = len(table.input_names)
    cube = table.bits[:, m].reshape((2,) * m)  # axis j is input j
    return not any(breaks(cube.take(0, axis=a), cube.take(1, axis=a)).any()
                   for a in range(m))


def is_monotone_increasing(table: TruthTable) -> bool:
    """True when flipping any input 0 -> 1 never drops the output."""
    return _monotone(table, operator.gt)


def is_monotone_decreasing(table: TruthTable) -> bool:
    """True when flipping any input 0 -> 1 never raises the output."""
    return _monotone(table, operator.lt)


def save_circuit(circuit: CompiledCircuit, destination) -> None:
    """Write the circuit in the network file format with its port maps."""
    save_network(circuit.network, destination,
                 inputs=circuit.inputs, outputs=circuit.outputs)


def load_circuit(source) -> CompiledCircuit:
    """Load a circuit file; requires the inputs/outputs maps and a valid DAG."""
    bundle = load_bundle(source)
    if bundle.inputs is None or bundle.outputs is None:
        raise NetworkFormatError("a circuit file needs 'inputs' and 'outputs' maps")
    try:
        return CompiledCircuit(network=bundle.network, inputs=bundle.inputs,
                               outputs=bundle.outputs)
    except ValueError as e:
        raise NetworkFormatError(str(e)) from None
