"""Layer spans recorded from outside the package.

`Tracer.install` replaces the package's public functions, at every module
global that names them, with wrappers that time each call. A span's self time
is its duration minus the time its child spans cover, so the self times of
all layers add up to the time spent inside the root span (`cli.main`).
Counters hang on the same wrappers and read each call's arguments and result.
`uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("net", "engine", "parser", "circuit", "analyze", "experiments", "cli")

# (module, attribute) of every wrapped function. Per-state predicates such as
# engine.count_fires are left out: they run millions of times inside a search
# and are part of their caller's self time.
TRACED = {
    "net": ("generate_er", "assign_thresholds", "load_network", "load_bundle",
            "save_network", "stats"),
    "engine": ("run_cascade", "topological_order"),
    "parser": ("parse_expr",),
    "circuit": ("compile_expr", "truth_table", "TruthTable.to_csv", "evaluate",
                "load_circuit", "save_circuit"),
    "analyze": ("enumerate_fixpoints", "verify_gcm_determinism",
                "schedule_sensitivity", "outcome_sensitivity"),
    "experiments": ("cascade_sizes", "reference_sizes", "rows_from_sizes", "emit_csv"),
    "cli": ("main",),
}

FILE_SPANS = ("load_network", "load_bundle", "save_network")


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.stack: list[list[float]] = []  # per open span: time its children took
        self.spans: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.names: list[str] = []  # open span names
        self.layer_self: dict[str, float] = defaultdict(float)
        self.name_total: dict[str, float] = defaultdict(float)
        self.name_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _close(self, name: str, layer: str, took: float, children: float) -> None:
        own = took - children
        if self.stack:
            self.stack[-1][0] += took
        parent = self.names[-1] if self.names else ""
        agg = self.spans.setdefault((parent, name), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += took
        agg[2] += own
        self.layer_self[layer] += own
        self.name_total[name] += took
        self.name_self[name] += own

    def wrap(self, fn, name: str, layer: str):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            self.names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.stack.pop()
                self.names.pop()
                self._close(name, layer, took, frame[0])
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cascade_logic.{layer}")
                   for layer in LAYERS}
        for layer, attrs in TRACED.items():
            for attr in attrs:
                owner_name, _, method = attr.partition(".")
                owner = getattr(modules[layer], owner_name)
                if method:
                    self._patch(owner, method, self.wrap(getattr(owner, method),
                                                         method, layer))
                    continue
                wrapped = self.wrap(owner, attr, layer)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is owner:
                            self._patch(module, key, wrapped)

    def _patch(self, target, key, value) -> None:
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        while self._patches:
            target, key, value = self._patches.pop()
            setattr(target, key, value)

    def tree(self) -> list[dict]:
        """Aggregated spans by (parent, name)."""
        return [{"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": own}
                for (parent, name), (calls, total, own) in sorted(self.spans.items())]


def _count_run(counts, args, result) -> None:
    counts["engine.runs"] += 1
    counts["engine.passes"] += result.passes
    counts["engine.labels"] += len(result.labeling_order)


def _count_search(counts, args, result) -> None:
    rules = {spec.rule.value for spec in args[0].nodes}
    kind = "monotone" if rules == {"gcm"} else "antagonistic"
    counts[f"analyze.states_{kind}"] += result.explored_states


def _count_compile(counts, args, result) -> None:
    counts["circuit.nodes"] += result.network.n


def _count_table(counts, args, result) -> None:
    counts["circuit.table_rows"] += len(result.rows)


def _count_graph(counts, args, result) -> None:
    counts["net.graphs"] += 1


_COUNTERS = {"run_cascade": _count_run, "enumerate_fixpoints": _count_search,
             "compile_expr": _count_compile, "truth_table": _count_table,
             "generate_er": _count_graph}
