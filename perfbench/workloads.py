"""The three benchmark workloads: their inputs, their commands and their checks.

A workload turns a seed into a list of `Op`s, each one command line for
`cascade_logic.cli.main`. `run.py` executes the list in whole rounds and hands
the first round's outputs to the workload's `check`, which compares them with
the independent computations in `oracles.py`. Checks return a list of
problems; an empty list means every output is correct.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cascade_logic" / "fixtures"

@dataclass
class Op:
    """One command. Its output is the file `out`, or its stdout when `out` is
    None. `units` is what the op adds to the workload's ops_per_s:
    realizations for a sweep, 1 for a circuit command (compile, table, eval)
    or a fixpoint search, the instance count for verify-gcm. An op with a
    `deadline` runs in a child process and fails when the deadline passes."""

    argv: list[str]
    out: Optional[Path] = None
    units: int = 0
    deadline: Optional[float] = None
    info: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Result:
    code: Optional[int]  # None when the deadline passed
    seconds: float
    output: bytes
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _write_net(path: Path, n: int, edges, rules, phis, seeds) -> Path:
    doc = {"directed": False,
           "nodes": [{"id": i, "rule": rules[i], "phi": float(phis[i])} for i in range(n)],
           "edges": [list(e) for e in edges],
           "seeds": sorted(int(s) for s in seeds)}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def _er_edges(n: int, z: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < z / (n - 1)
    return list(zip(iu[keep].tolist(), ju[keep].tolist()))


def random_expr(rng: np.random.Generator, names: list[str]) -> str:
    """A random fully parenthesised expression using every name once: leaves
    are joined pairwise by random AND/OR/NAND/NOR, some negated, and the last
    join is an XOR. One XOR keeps compile time from depending on how deep
    the seed happens to nest XORs, which the mixed and nand bases lower in
    time exponential in that depth."""
    parts = [f"!{name}" if rng.random() < 0.25 else name for name in names]
    while len(parts) > 1:
        i = int(rng.integers(len(parts) - 1))
        op = "^" if len(parts) == 2 else ["&", "|", "@&", "@|"][int(rng.integers(4))]
        joined = f"({parts[i]} {op} {parts[i + 1]})"
        parts[i:i + 2] = [f"!{joined}" if rng.random() < 0.15 else joined]
    return parts[0]


def _row_assign(order, row: int) -> str:
    m = len(order)
    return ",".join(f"{name}={(row >> (m - 1 - j)) & 1}" for j, name in enumerate(order))


# --- sweep ----------------------------------------------------------------------

class Sweep:
    """The paper's frequency experiment at n=1000, z=1..10, phi*=0.18, median
    metric, both rules. Most of its time is ER generation, threshold
    assignment and Network construction; the rest is the engine on 1000-node
    graphs."""

    name = "sweep"
    PASSES = 1
    N = 1000
    Z = tuple(range(1, 11))
    PHI = 0.18
    REALIZATIONS = 6

    def make_ops(self, seed: int, work: Path, main) -> list[Op]:
        ops = []
        for rule in ("gcm", "agcm"):
            csv, dump = work / f"{rule}.csv", work / f"{rule}.sizes.json"
            ops.append(Op(self._argv(rule, seed, csv, dump, jobs=1), out=csv,
                          units=len(self.Z) * self.REALIZATIONS,
                          info={"rule": rule, "dump": dump, "seed": seed}))
        return ops

    def _argv(self, rule, seed, csv, dump, jobs):
        return ["sweep", "--n", str(self.N), "--z", f"{self.Z[0]}:{self.Z[-1]}:1",
                "--phi", str(self.PHI), "--rule", rule,
                "--realizations", str(self.REALIZATIONS), "--metric", "median",
                "--seed", str(seed), "--jobs", str(jobs),
                "--out", str(csv), "--dump-sizes", str(dump)]

    def parallel_twin(self, ops: list[Op], work: Path) -> tuple[Op, Op]:
        """The agcm sweep, which also runs its gcm reference, at --jobs 2,
        paired with its --jobs 1 original."""
        op = next(op for op in ops if op.info["rule"] == "agcm")
        csv, dump = work / "agcm.jobs2.csv", work / "agcm.jobs2.sizes.json"
        return op, Op(self._argv("agcm", op.info["seed"], csv, dump, jobs=2),
                      out=csv, info={"dump": dump})

    def check(self, ops: list[Op], results: list[Result]) -> list[str]:
        sizes = {op.info["rule"]: json.loads(op.info["dump"].read_text())
                 for op in ops}
        problems = []
        for op, res in zip(ops, results):
            problems += check_sweep_csv(res.output.decode(), op.info["rule"],
                                        op.info["seed"], sizes[op.info["rule"]],
                                        sizes["gcm"], self)
        problems += check_sweep_shape(sizes["gcm"], sizes["agcm"], self)
        return problems


def _parse_sweep_csv(text: str):
    lines = text.splitlines()
    meta = dict(part.strip().split("=", 1) for part in lines[0].lstrip("# ").split(","))
    if lines[1] != "z,realizations,frequency,mean_size,median_size":
        raise ValueError(f"unexpected header {lines[1]!r}")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[2:]]
    return meta, rows


def _close(printed: float, exact: float) -> bool:
    # rows carry 6 significant digits
    return abs(printed - exact) <= 5e-6 * max(abs(exact), 1e-12) + 1e-15


def check_sweep_csv(text, rule, seed, dump, reference, spec) -> list[str]:
    """Recompute every row from the dumped sizes; `reference` is the gcm dump."""
    try:
        meta, rows = _parse_sweep_csv(text)
    except (ValueError, IndexError) as e:
        return [f"{rule}: unreadable CSV: {e}"]
    problems = []
    want_meta = {"metric": "median", "phi_star": f"{spec.PHI:g}", "n": str(spec.N),
                 "rule": rule, "master_seed": str(seed), "generator": "numpy-pcg64"}
    if meta != want_meta:
        problems.append(f"{rule}: provenance {meta} != {want_meta}")
    if [d["z"] for d in dump] != list(map(float, spec.Z)) or len(rows) != len(spec.Z):
        return problems + [f"{rule}: z values differ from {spec.Z}"]
    for (z, count, freq, mean, median), d, ref in zip(rows, dump, reference):
        sizes = d["sizes"]
        if len(sizes) != spec.REALIZATIONS or count != spec.REALIZATIONS:
            problems.append(f"{rule} z={z}: {count} realizations, {len(sizes)} dumped")
            continue
        if any(not 0 < s <= 1 or abs(s * spec.N - round(s * spec.N)) > 1e-6 for s in sizes):
            problems.append(f"{rule} z={z}: sizes are not multiples of 1/n in (0, 1]")
        cut = statistics.median(ref["sizes"])
        want = (sum(s > cut for s in sizes) / len(sizes),
                sum(sizes) / len(sizes), statistics.median(sizes))
        for label, got, exact in zip(("frequency", "mean", "median"),
                                     (freq, mean, median), want):
            if not _close(got, exact):
                problems.append(f"{rule} z={z}: {label} {got} != {exact:.6g}")
    return problems


def check_sweep_shape(gcm, agcm, spec) -> list[str]:
    """Watts' window for gcm and the two-mode curve for agcm."""
    problems = []
    window = [d for d in gcm if oracles.watts_ratio(d["z"], spec.PHI) >= 1.5]
    hits = [s >= 0.5 for d in window for s in d["sizes"]]
    if not window or sum(hits) < len(hits) / 3:
        problems.append(f"gcm: {sum(hits)} of {len(hits)} runs global inside "
                        f"Watts' window z={[d['z'] for d in window]}")
    outside = [d for d in gcm if d["z"] == 10.0]
    if not outside or any(s >= 0.5 for s in outside[0]["sizes"]):
        problems.append("gcm: a global cascade at z=10, outside Watts' window")
    freq = {}
    for d, ref in zip(agcm, gcm):
        cut = statistics.median(ref["sizes"])
        freq[d["z"]] = sum(s > cut for s in d["sizes"]) / len(d["sizes"])
    low = min(freq.values())
    if not (freq[1.0] >= 0.5 and max(freq[z] for z in freq if z >= 8) >= 0.5
            and min(freq[z] for z in freq if 3 <= z <= 7) == low and low <= 0.2):
        problems.append(f"agcm: frequencies {freq} lack two modes around a "
                        "minimum in z 3..7")
    return problems


# --- circuits --------------------------------------------------------------------

class Circuits:
    """compile (three bases) -> circuit file -> table and eval, over seeded
    random expressions, XOR chains and one wide circuit, plus the 20-variable
    XOR chain in the mixed and nand bases under a deadline."""

    name = "circuits"
    BASES = ("mixed", "nand", "nor")
    RANDOM_VARS = tuple(range(4, 13))
    CHAINS = (4, 6, 8, 10)
    WIDE_TERMS = 8  # two inputs per term: 16 inputs
    EVALS = 2
    LONG_CHAIN = 20
    DEADLINE_S = 2.0
    # Each round runs the commands three times and the two deadline compiles
    # once, so that the deadlines take a smaller share of the run.
    PASSES = 3

    def expressions(self, seed: int) -> list[tuple[str, str]]:
        rng = _rng(seed, 1)
        exprs = []
        for m in self.RANDOM_VARS:
            names = [f"v{i}" for i in rng.permutation(m)]
            exprs.append((f"random{m}", random_expr(rng, names)))
        for k in self.CHAINS:
            exprs.append((f"chain{k}", " ^ ".join(f"x{i}" for i in rng.permutation(k))))
        # a fixed shape and fixed gates, so that its node count and its
        # table's size do not depend on the seed; the seed orders the inputs
        names = [f"w{i}" for i in rng.permutation(2 * self.WIDE_TERMS)]
        terms = [f"({names[2 * t]} {['&', '|', '@&', '@|'][t % 4]} "
                 f"{names[2 * t + 1]})" for t in range(self.WIDE_TERMS)]
        exprs.append(("wide", f"({' | '.join(terms[:-1])}) ^ {terms[-1]}"))
        return exprs

    def make_ops(self, seed: int, work: Path, main) -> list[Op]:
        rng = _rng(seed, 2)
        ops = []
        for label, text in self.expressions(seed):
            _, order = oracles.parse(text)
            bases = self.BASES if label != "wide" else ("mixed",)
            for basis in bases:
                circ = work / f"{label}.{basis}.json"
                info = {"label": label, "expr": text, "basis": basis}
                ops.append(Op(["compile", "--expr", text, "--basis", basis,
                               "--out", str(circ)], out=circ, units=1, info=info))
                table = work / f"{label}.{basis}.csv"
                ops.append(Op(["table", "--net", str(circ), "--out", str(table)],
                              out=table, units=1, info=info))
                for row in rng.integers(1 << len(order), size=self.EVALS).tolist():
                    ops.append(Op(["eval", "--net", str(circ),
                                   "--assign", _row_assign(order, row)],
                                  units=1, info={**info, "row": row}))
        chain = " ^ ".join(f"x{i}" for i in range(self.LONG_CHAIN))
        for basis in ("mixed", "nand"):
            circ = work / f"long.{basis}.json"
            ops.append(Op(["compile", "--expr", chain, "--basis", basis, "--out", str(circ)],
                          out=circ, deadline=self.DEADLINE_S,
                          info={"label": "long", "expr": chain, "basis": basis}))
        return ops

    def check(self, ops: list[Op], results: list[Result]) -> list[str]:
        problems = []
        nodes: dict[str, dict[int, int]] = {}
        for op, res in zip(ops, results):
            if not res.ok:
                continue  # failures are counted, not checked
            info = op.info
            where = f"{info['label']} {info['basis']} {op.command}"
            _, order = oracles.parse(info["expr"])
            if op.command == "compile":
                doc = json.loads(res.output)
                if list(doc["inputs"]) != order or list(doc["outputs"]) != ["out"]:
                    problems.append(f"{where}: ports {doc['inputs']} {doc['outputs']}")
                if info["label"].startswith("chain"):
                    nodes.setdefault(info["basis"], {})[len(order)] = len(doc["nodes"])
            elif op.command == "table":
                parity = info["label"].startswith("chain")
                problems += [f"{where}: {p}"
                             for p in check_table(res.output, info["expr"], order, parity)]
            else:
                want = int(oracles.truth_column(info["expr"], order)[info["row"]])
                if json.loads(res.output) != {"out": want}:
                    problems.append(f"{where}: row {info['row']} gave "
                                    f"{res.output.decode().split()} != {want}")
        for basis, by_len in nodes.items():
            counts = [by_len[k] for k in sorted(by_len)]
            if len(set(np.diff(counts).tolist())) > 1:
                problems.append(f"chain node counts in {basis} are not linear: {counts}")
        return problems


def check_table(data: bytes, expr: str, order: list[str], parity=False) -> list[str]:
    """Every row of a truth-table CSV against the direct AST evaluator, and
    against parity when the expression is an XOR chain."""
    header, _, body = data.partition(b"\n")
    if header.decode().split(",") != order + ["out"]:
        return [f"header {header[:80]!r} != {order + ['out']}"]
    m = len(order)
    width = 2 * (m + 1)
    cells = np.frombuffer(body, dtype=np.uint8)
    if cells.size != width << m:
        return [f"{cells.size} bytes of rows, expected {width << m}"]
    cells = cells.reshape(1 << m, width)
    if (cells[:, 1:-1:2] != ord(",")).any() or (cells[:, -1] != ord("\n")).any():
        return ["rows are not comma-separated single bits"]
    bits = cells[:, ::2].astype(np.int64) - ord("0")
    rows = np.arange(1 << m, dtype=np.int64)
    counting = (rows[:, None] >> np.arange(m - 1, -1, -1)) & 1
    problems = []
    if not np.array_equal(bits[:, :m], counting):
        problems.append("input columns are not in binary counting order")
    want = oracles.truth_column(expr, order).astype(np.int64)
    wrong = np.flatnonzero(bits[:, m] != want)
    if wrong.size:
        problems.append(f"{wrong.size} rows differ from the expression, first row {wrong[0]}")
    if parity and not np.array_equal(bits[:, m], counting.sum(axis=1) & 1):
        problems.append("XOR chain is not parity")
    return problems


# --- analysis --------------------------------------------------------------------

class Analysis:
    """fixpoints on monotone and antagonistic ER nets, small random nets and
    compiled mixed-rule circuits; verify-gcm; sensitivity of the half adder
    and of compiled circuits."""

    name = "analysis"
    PASSES = 1
    # The four large instances are the same for every seed: (n, z, base
    # draw), exploring 48k and 58k monotone and 25k and 24k antagonistic
    # states. Over random draws the state count is heavy-tailed (1 to 180k
    # states at n=20, z=3 over 40 draws), and even renaming the nodes of one
    # instance changes its search time by up to 1.8x at an equal state count,
    # so seed-drawn large instances would time the seed, not the program.
    # --seed draws the small nets, circuits and the other commands' seeds.
    MONOTONE = ((20, 3.0, 1), (20, 3.0, 13))
    ANTAGONISTIC = ((16, 3.0, 1), (16, 3.0, 16))
    SMALL = (10, 11, 12, 10, 11, 12)
    CIRCUIT_VARS = (4, 4, 5, 5)
    ASSIGNMENTS = 4
    VERIFY = ("--n", "12", "--z", "3", "--instances", "300")
    TRIALS = 500

    def make_ops(self, seed: int, work: Path, main) -> list[Op]:
        """`main` is the program's CLI entry; it compiles the circuit inputs."""
        rng = _rng(seed, 3)
        ops = []
        for i, (n, z, base) in enumerate(self.MONOTONE + self.ANTAGONISTIC):
            shape = _rng(7, base)
            edges = _er_edges(n, z, shape)
            if i < len(self.MONOTONE):
                rules, phis, kind = ["gcm"] * n, [0.1] * n, "monotone"
            else:
                rules = ["agcm"] * n
                phis = np.round(shape.uniform(0.3, 0.9, n), 2).tolist()
                kind = "antagonistic"
            net = _write_net(work / f"{kind}{i}.json", n, edges, rules, phis, [0])
            ops.append(self._fixpoints(net, kind))
        for i, n in enumerate(self.SMALL):
            rules = ["gcm" if r else "agcm" for r in rng.random(n) < 0.5]
            phis = np.round(rng.uniform(0.05, 0.95, n), 2).tolist()
            net = _write_net(work / f"small{i}.json", n, _er_edges(n, 3.0, rng),
                             rules, phis, [int(rng.integers(n))])
            ops.append(self._fixpoints(net, "small"))
        triangle = FIXTURES / "triangle.json"
        ops.append(self._fixpoints(triangle, "triangle"))
        circuits = []
        for i, m in enumerate(self.CIRCUIT_VARS):
            text = random_expr(rng, [f"c{j}" for j in range(m)])
            path = work / f"circuit{i}.json"
            if main(["compile", "--expr", text, "--out", str(path)]) != 0:
                raise RuntimeError(f"compile failed for input circuit {text!r}")
            _, order = oracles.parse(text)
            ports = json.loads(path.read_text())["inputs"]
            circuits.append((path, text, order))
            for row in rng.choice(1 << m, size=self.ASSIGNMENTS, replace=False).tolist():
                seeds = [ports[name] for j, name in enumerate(order)
                         if (row >> (m - 1 - j)) & 1]
                ops.append(self._fixpoints(path, "circuit", seeds=seeds,
                                           expr=text, order=order, row=row))
        ops.append(Op(["verify-gcm", *self.VERIFY, "--seed", str(seed), "--jobs", "1"],
                      units=int(self.VERIFY[-1]), info={"kind": "verify"}))
        half_adder = FIXTURES / "half_adder.json"
        for a in (0, 1):
            for b in (0, 1):
                ops.append(self._sensitivity(half_adder, f"a={a},b={b}", seed,
                                             want=[a ^ b, a & b]))
        for path, text, order in circuits[:2]:
            row = int(rng.integers(1 << len(order)))
            want = [int(oracles.truth_column(text, order)[row])]
            ops.append(self._sensitivity(path, _row_assign(order, row), seed, want))
        return ops

    @staticmethod
    def _fixpoints(net: Path, kind: str, seeds=None, **info) -> Op:
        argv = ["fixpoints", "--net", str(net)]
        if seeds is not None:
            argv += ["--seeds", ",".join(map(str, seeds))]
        return Op(argv, units=1, info={"kind": kind, "net": net, "seeds": seeds, **info})

    def _sensitivity(self, net: Path, assign: str, seed: int, want) -> Op:
        return Op(["sensitivity", "--net", str(net), "--assign", assign,
                   "--trials", str(self.TRIALS), "--seed", str(seed)],
                  info={"kind": "sensitivity", "want": want})

    def check(self, ops: list[Op], results: list[Result]) -> list[str]:
        problems = []
        for op, res in zip(ops, results):
            if not res.ok:
                continue
            doc = json.loads(res.output)
            kind = op.info["kind"]
            where = f"{kind} {' '.join(op.argv[1:3])}"
            if kind == "verify":
                if doc["verdict"] != "unique":
                    problems.append(f"{where}: monotone verdict {doc['verdict']}")
            elif kind == "sensitivity":
                problems += check_sensitivity(doc, op.info["want"], self.TRIALS, where)
            else:
                problems += [f"{where}: {p}" for p in check_fixpoints(doc, op.info)]
        return problems


def check_sensitivity(doc, want, trials, where) -> list[str]:
    problems = []
    if doc["reference_output"] != want:
        problems.append(f"{where}: reference {doc['reference_output']} != {want}")
    if doc["trials"] != trials or not 1 <= doc["distinct_outcomes"] <= 1 << len(want):
        problems.append(f"{where}: {doc['trials']} trials, "
                        f"{doc['distinct_outcomes']} distinct outcomes")
    agree = doc["agree_fraction"] * trials
    if not 0 <= agree <= trials or abs(agree - round(agree)) > 1e-9:
        problems.append(f"{where}: agree fraction {doc['agree_fraction']}")
    return problems


def check_fixpoints(doc, info) -> list[str]:
    """Seeds, exact stability, monotone uniqueness, brute force where small."""
    net = oracles.read_net(info["net"])
    seeds = net.seeds if info["seeds"] is None else frozenset(info["seeds"])
    found = [frozenset(fp) for fp in doc["fixpoints"]]
    problems = []
    if doc["truncated"] or not found or len(set(found)) != len(found):
        return [f"{len(found)} fixpoints, truncated={doc['truncated']}"]
    for fp in found:
        if not seeds <= fp:
            problems.append(f"fixpoint {sorted(fp)} lacks seeds {sorted(seeds)}")
        elif not oracles.is_stable(net, fp):
            problems.append(f"fixpoint {sorted(fp)} is not stable")
    if set(net.rules) == {"gcm"}:
        naive = oracles.naive_cascade(net, seeds)
        if found != [naive]:
            problems.append(f"monotone: {len(found)} fixpoints, naive cascade "
                            f"labels {len(naive)} nodes")
    if info["kind"] == "triangle" and set(found) != {frozenset({0, 1}), frozenset({0, 2})}:
        problems.append(f"triangle fixpoints {doc['fixpoints']}")
    if info["kind"] == "circuit":
        # the topological schedule is one firing order, so its result is among them
        m = len(info["order"])
        bit = int(oracles.truth_column(info["expr"], info["order"])[info["row"]])
        out = net.outputs["out"]
        if not any((out in fp) == bool(bit) for fp in found):
            problems.append(f"no fixpoint gives the expression's value {bit} "
                            f"on row {info['row']} of {m} inputs")
    if net.n <= 16 and info["kind"] in ("small", "triangle", "circuit"):
        brute, explored = oracles.brute_force_fixpoints(net, seeds)
        if set(found) != brute or doc["explored"] != explored:
            problems.append(f"{len(found)} fixpoints over {doc['explored']} states; "
                            f"brute force finds {len(brute)} over {explored}")
    return problems


WORKLOADS = {w.name: w for w in (Sweep(), Circuits(), Analysis())}
