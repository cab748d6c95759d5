"""Cascade-frequency sweeps over mean degree.

For each mean degree z, many independent realizations are run: a fresh ER
graph with p = z/(n-1), a constant threshold for every node, a few random
seed nodes, and one random-sweep cascade (the closure, under the monotone
rule). Per-z frequencies come from one of two metrics: the fraction of runs
whose cascade size reaches a fixed bound (GlobalFraction), or the fraction
strictly exceeding the median size that the monotone rule produces on the
same graphs (MedianExceedance).
Realization seeds derive from (master_seed, z index, realization index) with
SplitMix64 mixing, so results are byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from ._seeds import (GENERATOR_NAME, SEED_CHUNK, check_task_count, make_rngs, map_runs,
                     mix_seed)
from .engine import _Cascade, monotone_closure
from .net import Rule, _er_union, assign_thresholds, check_er_size, read_text, write_text


@dataclass(frozen=True)
class GlobalFraction:
    """Count a realization when its cascade size reaches `threshold`."""

    threshold: float = 0.5

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold must lie in (0, 1], got {self.threshold}")


@dataclass(frozen=True)
class MedianExceedance:
    """Count a realization when its cascade size strictly exceeds the median
    cascade size at the same z.

    The median is taken from a reference sweep run with the MONOTONE rule on
    identical graphs and seed nodes (the sweep's own sizes when the sweep is
    already monotone). Measured against that baseline, antagonistic cascades
    score high exactly where monotone ones stay small, and vice versa.
    """


Metric = Union[GlobalFraction, MedianExceedance]


@dataclass(frozen=True)
class SweepSpec:
    n: int
    z_values: tuple[float, ...]
    phi_star: float
    rule: Rule
    realizations: int
    master_seed: int
    seeds_per_run: int = 1
    metric: Metric = field(default_factory=GlobalFraction)

    def __post_init__(self):
        object.__setattr__(self, "z_values", tuple(float(z) for z in self.z_values))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not self.z_values:
            raise ValueError("z_values must be non-empty")
        for z in self.z_values:
            if not 0 < z < self.n - 1:
                raise ValueError(f"z must lie in (0, n-1); got z={z} with n={self.n}")
        if not 0 <= self.phi_star <= 1:
            raise ValueError(f"phi_star must lie in [0, 1], got {self.phi_star}")
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if not 1 <= self.seeds_per_run <= self.n:
            raise ValueError(f"seeds_per_run must lie in [1, n], got {self.seeds_per_run}")
        check_er_size(self.n, max(self.z_values) / (self.n - 1))
        check_task_count(self.realizations * len(self.z_values),
                         "realizations over all z values")


@dataclass(frozen=True)
class SweepRow:
    z: float
    frequency: float
    mean_size: float
    median_size: float
    realizations: int


def _run_sizes(spec: SweepSpec, rules: tuple[Rule, ...], run: range) -> np.ndarray:
    """Cascade sizes of a run of realizations, one row each and one column
    per rule, every rule on the same graph and seed nodes. Realization i is
    realization r at z index zi, ``(zi, r) = divmod(i, spec.realizations)``;
    its graph, seed nodes and random sweep draw from ``make_rng(mix_seed(base,
    k))`` for k = 0, 1, 2, where ``base = mix_seed(spec.master_seed, zi, r)``,
    derived `SEED_CHUNK` realizations at a time."""
    sizes = np.empty((len(run), len(rules)))
    p = np.array(spec.z_values) / (spec.n - 1)
    for lo in range(0, len(run), SEED_CHUNK):
        zi, r = np.divmod(run[lo:lo + SEED_CHUNK], spec.realizations)
        base = mix_seed(spec.master_seed, zi, r)
        rngs = make_rngs(np.stack([mix_seed(base, k) for k in range(3)], axis=1).ravel())
        # zip takes its arguments in turn: each realization's three generators
        for row, p_z, graph_rng, seed_rng, sweep_rng in zip(range(lo, len(run)), p[zi].tolist(),
                                                             rngs, rngs, rngs):
            graph = _er_union(spec.n, p_z, (graph_rng,))
            seed_set = frozenset(seed_rng.permutation(spec.n)[: spec.seeds_per_run].tolist())
            for col, rule in enumerate(rules):
                network = assign_thresholds(graph, spec.phi_star, rule)
                if rule is Rule.MONOTONE:  # every schedule ends in the closure
                    size = len(monotone_closure(network, seed_set))
                else:
                    size = _Cascade(network, seed_set).run(sweep_rng)[0].count(1)
                sizes[row, col] = size / spec.n
    return sizes


def _sizes_by_rule(spec: SweepSpec, rules: Sequence[Rule],
                   jobs: Optional[int]) -> list[list[np.ndarray]]:
    """Per rule, per z value, the cascade size of every realization, in
    realization order; every rule runs on the same graphs and seed nodes."""
    # one row per rule, so that each per-z row is contiguous
    by_rule = np.empty((len(rules), spec.realizations * len(spec.z_values)))
    np.concatenate(map_runs(partial(_run_sizes, spec, tuple(rules)), by_rule.shape[1], jobs),
                   out=by_rule.T)
    return [list(sizes.reshape(len(spec.z_values), spec.realizations)) for sizes in by_rule]


def cascade_sizes(spec: SweepSpec, jobs: Optional[int] = None) -> list[np.ndarray]:
    """Per z value, the cascade size of every realization, in realization order."""
    return _sizes_by_rule(spec, (spec.rule,), jobs)[0]


def reference_sizes(spec: SweepSpec, jobs: Optional[int] = None) -> list[np.ndarray]:
    """Sizes of the MONOTONE-rule reference sweep on the same graphs and seeds."""
    return _sizes_by_rule(spec, (Rule.MONOTONE,), jobs)[0]


def sweep_sizes(spec: SweepSpec, jobs: Optional[int] = None
                ) -> tuple[list[np.ndarray], Optional[list[np.ndarray]]]:
    """The sweep's sizes and, for MedianExceedance, its reference sizes.

    Each realization's graph is built once and runs every rule the metric
    needs; a MONOTONE sweep is its own reference.
    """
    median = isinstance(spec.metric, MedianExceedance)
    rules = [spec.rule]
    if median and spec.rule is not Rule.MONOTONE:
        rules.append(Rule.MONOTONE)
    per_rule = _sizes_by_rule(spec, rules, jobs)
    return per_rule[0], per_rule[-1] if median else None


def rows_from_sizes(spec: SweepSpec, sizes: Sequence[np.ndarray],
                    reference: Optional[Sequence[np.ndarray]] = None) -> list[SweepRow]:
    """Aggregate raw sizes into per-z rows, ordered by ascending z.

    MedianExceedance needs the reference sweep's sizes (see
    :func:`sweep_sizes`); GlobalFraction ignores them.
    """
    if isinstance(spec.metric, MedianExceedance) and reference is None:
        raise ValueError("MedianExceedance needs the reference sweep's sizes")
    rows = []
    for zi, z in enumerate(spec.z_values):
        arr = sizes[zi]
        if isinstance(spec.metric, GlobalFraction):
            freq = float(np.mean(arr >= spec.metric.threshold))
        else:
            freq = float(np.mean(arr > np.median(reference[zi])))
        rows.append(SweepRow(z=z, frequency=freq, mean_size=float(arr.mean()),
                             median_size=float(np.median(arr)), realizations=arr.size))
    rows.sort(key=lambda row: row.z)
    return rows


def run_sweep(spec: SweepSpec, jobs: Optional[int] = None) -> list[SweepRow]:
    """Run the whole sweep; identical output for any `jobs` value."""
    return rows_from_sizes(spec, *sweep_sizes(spec, jobs))


def metric_name(metric: Metric) -> str:
    if isinstance(metric, GlobalFraction):
        return f"global:{metric.threshold:.6g}"
    return "median"


_CSV_HEADER = "z,realizations,frequency,mean_size,median_size"


def emit_csv(rows: Sequence[SweepRow], destination, *, spec: SweepSpec) -> None:
    """Write sweep rows as CSV with a provenance comment line.

    Floating values carry 6 significant digits; the same spec always gives
    byte-identical files.
    """
    if not rows:
        raise ValueError("no rows to emit")
    lines = [
        f"# metric={metric_name(spec.metric)}, phi_star={spec.phi_star:.6g}, "
        f"n={spec.n}, rule={spec.rule.value}, master_seed={spec.master_seed}, "
        f"generator={GENERATOR_NAME}",
        _CSV_HEADER,
    ]
    for row in rows:
        lines.append(f"{row.z:.6g},{row.realizations},{row.frequency:.6g},"
                     f"{row.mean_size:.6g},{row.median_size:.6g}")
    write_text("\n".join(lines) + "\n", destination)


def parse_csv(source) -> tuple[list[SweepRow], dict[str, str]]:
    """Read back an emitted CSV: (rows at printed precision, provenance map)."""
    meta: dict[str, str] = {}
    rows: list[SweepRow] = []
    saw_header = False
    for line in read_text(source).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for part in line[1:].split(","):
                if "=" in part:
                    key, value = part.split("=", 1)
                    meta[key.strip()] = value.strip()
            continue
        if not saw_header:
            if line != _CSV_HEADER:
                raise ValueError(f"unexpected CSV header {line!r}")
            saw_header = True
            continue
        z, realizations, freq, mean_size, median_size = line.split(",")
        rows.append(SweepRow(z=float(z), frequency=float(freq),
                             mean_size=float(mean_size),
                             median_size=float(median_size),
                             realizations=int(realizations)))
    if not saw_header:
        raise ValueError("missing CSV header")
    return rows, meta
