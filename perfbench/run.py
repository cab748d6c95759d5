"""Benchmark of the cascade-logic command line: sweep, circuits, analysis.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/` directory. Each workload is a list of `cascade_logic.cli.main` command
lines (see workloads.py) executed in whole rounds for about --seconds. The
first pass's outputs are checked against independent computations
(oracles.py); every later pass must reproduce them byte for byte. wall_s and
ops_per_s come from each command's median time, brought to a reference speed
by calibration samples taken around it (calibration.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and reports the per-layer split (tracer.py) and the tracing
overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A record with machine facts, per-round times and output digests is written
to perfbench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 7
CALIBRATIONS = 6  # calibration samples per pass (calibration.py)
# A child process compiles under a deadline; it imports the package from SRC.
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from cascade_logic.cli import main; sys.exit(main(sys.argv[2:]))")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "circuits", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load(workload: str, seed: int, work: Path):
    """Import the package and build the workload's inputs in `work`."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import cascade_logic.cli as cli
    import workloads

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported {cli.__file__}, not the package under {SRC}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = workloads.WORKLOADS[workload]
    return cli, bench, bench.make_ops(seed, work, cli.main)


def _setup_sample(args) -> float:
    """Set-up time in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _execute(op, main):
    from workloads import Result

    if op.deadline is not None:
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *op.argv],
                                  capture_output=True, timeout=op.deadline, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return Result(None, time.perf_counter() - start, b"",
                          f"deadline of {op.deadline} s passed")
        took = time.perf_counter() - start
        output = op.out.read_bytes() if done.returncode == 0 else b""
        return Result(done.returncode, took, output, done.stderr.decode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except Exception:  # a crash is one failed operation
            code = -1
            err.write(traceback.format_exc())
        took = time.perf_counter() - start
    output = out.getvalue().encode()
    if code == 0 and op.out is not None:
        output = op.out.read_bytes()
    return Result(code, took, output, err.getvalue())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_commit": _git_commit()}


@dataclass
class Round:
    times: list[list[float]]  # each op's times, one per pass it ran in
    scaled: list[list[float]]  # the same at the reference speed
    calibration: list[float]

    @property
    def total(self) -> float:
        return sum(map(sum, self.times))


class Rounds:
    """Runs the op list in whole rounds and keeps what the metrics need.

    A round is `passes` passes over the ops; the ops with a deadline run in
    the first pass only, so every round attempts and fails the same ops.
    Each pass also takes CALIBRATIONS calibration samples, spread evenly
    between its ops; the last ones follow the last op."""

    def __init__(self, ops, main, passes=1):
        from calibration import Calibration

        self.ops, self.main, self.passes = ops, main, passes
        self.calibration = Calibration()
        # calibrate after op marks[j]
        self.marks = [((j + 1) * len(ops) - 1) // CALIBRATIONS for j in range(CALIBRATIONS)]
        self.first = None  # results of the first pass
        self.digests = None
        self.mismatches: list[str] = []
        self.attempted = self.failed = 0

    def run(self) -> Round:
        times = [[] for _ in self.ops]
        scaled = [[] for _ in self.ops]
        calibration = []
        for k in range(self.passes):
            results, samples = {}, {}
            for i, op in enumerate(self.ops):
                if k == 0 or op.deadline is None:
                    results[i] = _execute(op, self.main)
                if i in self.marks:
                    samples[i] = [self.calibration.sample() for _ in range(self.marks.count(i))]
            calibration += [c for cs in samples.values() for c in cs]
            self.attempted += len(results)
            self.failed += sum(not r.ok for r in results.values())
            digests = {i: _digest(r.output) if r.ok else None for i, r in results.items()}
            if self.first is None:
                self.first = [results[i] for i in range(len(self.ops))]
                self.digests = [digests[i] for i in range(len(self.ops))]
            else:
                self.mismatches += [" ".join(self.ops[i].argv[:3])
                                    for i, d in digests.items() if d != self.digests[i]]
            for i, r in results.items():
                times[i].append(r.seconds)
                scaled[i].append(r.seconds * _speed_scale(i, samples, self.ops[i].deadline))
        return Round(times, scaled, calibration)


def _speed_scale(i: int, samples: dict[int, list[float]], deadline) -> float:
    """The factor that brings op i's time to the reference speed: the
    reference sample time over the mean of the calibration samples taken
    just before and just after the op in the same pass. An op in a child
    process under a deadline keeps its measured time, which the deadline
    sets, not the machine's speed."""
    from calibration import REFERENCE_S

    if deadline is not None:
        return 1.0
    after = min(m for m in samples if m >= i)
    before = max((m for m in samples if m < i), default=after)
    return REFERENCE_S / statistics.mean(samples[before] + samples[after])


def _scale(rounds: list[Round]) -> float:
    """One factor for all of `rounds`: the reference sample time over their
    median calibration sample. It scales the traced layer times."""
    from calibration import REFERENCE_S

    return REFERENCE_S / statistics.median(c for r in rounds for c in r.calibration)


def _typical(ops, rounds: list[Round]) -> tuple[float, float]:
    """Wall time and ops_per_s of one pass at the reference speed, from each
    op's median scaled time over the rounds' passes."""
    per_op = [statistics.median(t for r in rounds for t in r.scaled[i])
              for i in range(len(ops))]
    unit_time = sum(t for op, t in zip(ops, per_op) if op.units)
    return sum(per_op), sum(op.units for op in ops) / unit_time


def _check(bench, rounds: Rounds, work: Path) -> list[str]:
    problems = [f"output differs between rounds: {m}" for m in rounds.mismatches]
    for op, r in zip(rounds.ops, rounds.first):
        if not r.ok and op.deadline is None:
            problems.append(f"{' '.join(op.argv[:3])} failed: {r.error.strip()[-300:]}")
    try:
        problems += bench.check(rounds.ops, rounds.first)
    except Exception:  # a malformed output is a wrong answer
        problems.append("check crashed: " + traceback.format_exc(limit=3))
    if bench.name == "sweep":
        op, twin = bench.parallel_twin(rounds.ops, work)
        result = _execute(twin, rounds.main)
        if not (result.ok and result.output == op.out.read_bytes()
                and twin.info["dump"].read_bytes() == op.info["dump"].read_bytes()):
            problems.append("sweep output at --jobs 2 differs from --jobs 1")
    return problems


def _table_alloc_peak_mb(ops, main) -> float:
    """tracemalloc peak of the widest `table` command, run once more outside
    the timed rounds."""
    import tracemalloc

    import oracles

    tables = [op for op in ops if op.command == "table"]
    if not tables:
        return 0.0
    widest = max(tables, key=lambda op: len(oracles.parse(op.info["expr"])[1]))
    tracemalloc.start()
    try:
        _execute(widest, main)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _layer_metrics(tracer, traced, plain, ops, main, passes) -> dict:
    """Per-pass means over the traced rounds, at the reference speed;
    overhead against `plain`."""
    from tracer import FILE_SPANS, LAYERS

    k = len(traced) * passes  # the traced ops run in-process once per pass
    scale = _scale(traced)
    t, c = tracer.name_total, tracer.counts
    s = tracer.name_self
    counts = {}
    for name in ("engine.runs", "engine.passes", "engine.labels", "circuit.nodes",
                 "circuit.table_rows", "analyze.states_monotone",
                 "analyze.states_antagonistic"):
        if c[name] % k:
            raise RuntimeError(f"{name} differs between rounds")
        counts[name] = c[name] // k
    realizations = sum(op.units for op in ops if op.command == "sweep")
    states = counts["analyze.states_monotone"] + counts["analyze.states_antagonistic"]
    traced_wall = _typical(ops, traced)[0]
    untraced_wall = _typical(ops, plain[1:])[0]
    traced_mean = statistics.mean(r.total for r in traced)
    child_mean = statistics.mean(sum(sum(ts) for op, ts in zip(ops, r.times) if op.deadline)
                                 for r in traced)

    def per_pass(seconds):
        return seconds * scale / k, "s/pass"

    values = {
        "net.generate_s": per_pass(s["generate_er"]),
        "net.assign_s": per_pass(s["assign_thresholds"]),
        "net.graphs_per_realization": (c["net.graphs"] / k / realizations
                                       if realizations else 0.0, "ratio"),
        "net.file_s": per_pass(sum(s[name] for name in FILE_SPANS)),
        "engine.run_s": per_pass(s["run_cascade"]),
        **{name: (value, "count") for name, value in counts.items()},
        "experiments.self_s": per_pass(tracer.layer_self["experiments"]),
        "parser.parse_s": per_pass(tracer.layer_self["parser"]),
        "circuit.compile_s": per_pass(t["compile_expr"]),
        "circuit.table_s": per_pass(t["truth_table"]),
        "circuit.to_csv_s": per_pass(t["to_csv"]),
        "circuit.table_alloc_peak_mb": (_table_alloc_peak_mb(ops, main), "MB"),
        "analyze.enumerate_s": per_pass(s["enumerate_fixpoints"]),
        "analyze.states_per_s": (states / per_pass(t["enumerate_fixpoints"])[0]
                                 if states else 0.0, "states/s"),
        "analyze.verify_s": per_pass(t["verify_gcm_determinism"]),
        "analyze.sensitivity_s": per_pass(t["schedule_sensitivity"]),
        "cli.self_s": per_pass(tracer.layer_self["cli"]),
        **{f"{layer}.self_s": per_pass(tracer.layer_self[layer])
           for layer in LAYERS if layer not in ("parser", "experiments", "cli")},
        "trace.overhead_pct": (100 * (traced_wall / untraced_wall - 1), "%"),
        "trace.unattributed_pct": (100 * (1 - (sum(tracer.layer_self.values()) / len(traced)
                                               + child_mean) / traced_mean), "%"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run(args) -> dict:
    from tracer import Tracer

    setup = []
    work = WORK / args.workload / f"run-seed{args.seed}-trace{args.trace}"
    cli, bench, ops = _load(args.workload, args.seed, work)
    # looked up on every call, so that the traced rounds see the wrapped main
    rounds = Rounds(ops, lambda argv: cli.main(argv), bench.PASSES)
    tracer = Tracer()
    plain, traced = [], []
    spent = last = 0.0
    # Rounds are whole: another one starts while it would end nearer to
    # --seconds than stopping now does. With --trace 1 the rounds go plain,
    # plain, traced, plain, traced, ...; the first plain round warms up and
    # is left out of the overhead.
    while (not plain or spent + last / 2 < args.seconds
           or (args.trace and not (len(plain) > 1 and traced))):
        trace_this = args.trace == 1 and len(plain) > len(traced) + 1
        if trace_this:
            tracer.install()
        start = time.perf_counter()
        try:
            (traced if trace_this else plain).append(rounds.run())
        finally:
            tracer.uninstall()
        last = time.perf_counter() - start
        spent += last
        # set-up samples spread over the run, so that they meet the same
        # machine load as the rounds do
        share = min(spent / args.seconds, 1) if args.seconds > 0 else 1
        if not args.trace and len(setup) < SETUP_SAMPLES * share:
            setup.append(_setup_sample(args))
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = _check(bench, rounds, work)
    scale = _scale(traced or plain)
    if args.trace:
        metrics = _layer_metrics(tracer, traced, plain, ops, cli.main, bench.PASSES)
    else:
        wall_s, ops_per_s = _typical(ops, plain)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(), "setup_samples_s": setup,
              "speed_scale": scale,
              "calibration_s": [c for r in plain + traced for c in r.calibration],
              "round_s": [r.total for r in plain], "traced_round_s": [r.total for r in traced],
              "outputs": [{"argv": op.argv, "sha256": d} for op, d in zip(ops, rounds.digests)],
              "problems": problems, "metrics": metrics,
              "spans": tracer.tree() if args.trace else []}
    (WORK / args.workload / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(work)
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(f"in-process command times are scaled to the reference speed, by {scale:.4f} "
          "on the median calibration sample")
    return {"correct": not problems, "attempted": rounds.attempted,
            "failed": rounds.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cascade_logic" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'cascade_logic'}; "
              "run from the root of a cascade-logic checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        start = time.perf_counter()
        work = WORK / args.workload / f"setup-seed{args.seed}"
        _load(args.workload, args.seed, work)
        print(time.perf_counter() - start)
        shutil.rmtree(work)
        return 0
    result = run(args)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
