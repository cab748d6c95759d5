"""Command-line front end.

One executable with subcommands; network files are the interchange currency,
so commands pipe through files (compile writes a circuit file, table reads
one). Every command is deterministic given its flags: all randomness sits
behind an explicit --seed, and --jobs never changes output bytes.

Exit codes: 0 success, 1 usage error, 2 input-file error, 3 resource cap.
Failures print one JSON object on stderr: {"error": {"kind", "message"}}.
Each output file is opened once, by `net.open_output`, before the command's
work; a new one is removed when the command fails before writing it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

import numpy as np

from ._seeds import GENERATOR_NAME, mix_seed
from .analyze import (DEFAULT_STATE_CAP, Verdict, enumerate_fixpoints,
                      schedule_sensitivity, verify_gcm_determinism)
from .circuit import (Basis, compile_expr, load_circuit, save_circuit,
                      truth_table, evaluate)
from .engine import ExplicitOrder, RandomSweep, Topological, is_global, run_cascade
from .experiments import (GlobalFraction, MedianExceedance, SweepSpec,
                          emit_csv, rows_from_sizes, sweep_sizes)
from .net import (NetworkFormatError, Rule, UNIFORM, assign_thresholds, generate_er,
                  load_network, open_output, save_network, stats, write_text)
from .parser import LimitExceeded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

MAX_Z_VALUES = 1 << 16  # a start:stop:step range longer than this is refused


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fail(kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)


def _output(out: Optional[str]):
    """The file a command writes, as a context: the --out path, or stdout."""
    return nullcontext(sys.stdout) if out is None else open_output(out)


def _print_json(doc, out=None) -> None:
    write_text(json.dumps(doc, indent=1) + "\n", sys.stdout if out is None else out)


def _print_object(fields: dict[str, str]) -> None:
    """Print, as json.dumps(indent=1) does, the object whose top-level values
    have the texts `fields`: a scalar's is its json.dumps."""
    write_text(("{\n", ",\n".join(f" {json.dumps(key)}: {text}" for key, text in fields.items()),
                "\n}\n"), sys.stdout)


def _id_lists(ids: np.ndarray, counts: Sequence[int], indent: int) -> list[str]:
    """The texts json.dumps(indent=1) gives lists of node ids nested at
    `indent` spaces: `ids`, an integer array, cut into consecutive lists of
    `counts` ids. The text of each id is built once."""
    pad = "\n" + " " * (indent + 1)
    texts = np.array([pad + str(i) for i in range(int(ids.max(initial=-1)) + 1)], dtype=object)
    items = texts[ids].tolist()
    close = "\n" + " " * indent + "]"
    ends = np.cumsum(counts).tolist()
    return ["[" + ",".join(items[lo:hi]) + close if hi > lo else "[]"
            for lo, hi in zip([0] + ends, ends)]


def _parse_rule(text: str) -> Rule:
    try:
        return Rule(text)
    except ValueError:
        raise UsageError(f"unknown rule {text!r}; expected gcm or agcm") from None


def _parse_phi_flag(text: str):
    if text == "uniform":
        return UNIFORM
    if text.startswith("const:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad constant threshold in {text!r}") from None
    raise UsageError(f"--phi must be 'uniform' or 'const:<x>', got {text!r}")


def _parse_ids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _parse_mode(text: str):
    if text == "topo":
        return Topological()
    if text.startswith("sweep:"):
        try:
            return RandomSweep(int(text.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad sweep seed in {text!r}") from None
    if text.startswith("order:"):
        return ExplicitOrder(_parse_ids(text.split(":", 1)[1]))
    raise UsageError(
        f"--mode must be sweep:<seed>, order:<id,...>, or topo; got {text!r}")


def _parse_assignment(text: str) -> dict[str, int]:
    assignment = {}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"--assign entries look like name=bit, got {part!r}")
        name, value = part.split("=", 1)
        if value not in ("0", "1"):
            raise UsageError(f"assignment bit for {name!r} must be 0 or 1")
        if name.strip() in assignment:
            raise UsageError(f"--assign gives {name.strip()!r} more than once")
        assignment[name.strip()] = int(value)
    return assignment


def _parse_z_range(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
            if step <= 0:
                raise UsageError("--z step must be positive")
            span = (stop - start) / step + 1e-9
            if span < 0:  # int() would truncate a span in (-1, 0) to 0, and fail on -inf
                raise UsageError(f"empty z range {text!r}")
            if span >= MAX_Z_VALUES:  # counted before any value is built
                raise LimitExceeded(f"--z range {text!r} has more than "
                                    f"{MAX_Z_VALUES} values")
            return tuple(start + i * step for i in range(int(span) + 1))
    except LimitExceeded:
        raise
    except ValueError:
        pass
    raise UsageError(f"--z must be a value or start:stop:step, got {text!r}")


def _parse_metric(text: str):
    if text == "median":
        return MedianExceedance()
    if text == "global":
        return GlobalFraction()
    if text.startswith("global:"):
        try:
            return GlobalFraction(float(text.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad global threshold in {text!r}") from None
    raise UsageError(f"--metric must be global[:<t>] or median, got {text!r}")


def _basis(text: str) -> Basis:
    try:
        return Basis(text)
    except ValueError:
        raise UsageError(f"--basis must be mixed, nand, or nor; got {text!r}") from None


def _cmd_gen(args) -> int:
    if (args.z is None) == (args.p is None):
        raise UsageError("exactly one of --z or --p is required")
    if args.p is not None:
        p = args.p
    else:
        if args.n < 2:
            raise UsageError("--z needs n >= 2")
        p = args.z / (args.n - 1)
    with _output(args.out) as out:  # opened before the graph is drawn
        graph = generate_er(args.n, p, mix_seed(args.seed, "graph"))
        network = assign_thresholds(graph, _parse_phi_flag(args.phi),
                                    _parse_rule(args.rule),
                                    rng_seed=mix_seed(args.seed, "phi"))
        save_network(network, out)
    return EXIT_OK


def _cmd_stats(args) -> int:
    _print_json(dataclasses.asdict(stats(load_network(args.net).graph)))
    return EXIT_OK


def _cmd_run(args) -> int:
    network = load_network(args.net)
    seeds = _parse_ids(args.seeds) if args.seeds is not None else None
    mode = _parse_mode(args.mode)
    result = run_cascade(network, seeds, mode)
    final, order = sorted(result.final), list(result.labeling_order)
    final_text, order_text = _id_lists(np.array(final + order, dtype=np.intp),
                                       (len(final), len(order)), 1)
    _print_object({
        "final": final_text,
        "size_fraction": json.dumps(result.size_fraction),
        "global": json.dumps(is_global(result)),
        "labeling_order": order_text,
        "passes": json.dumps(result.passes),
        "mode": json.dumps(args.mode.split(":", 1)[0]),
        "rng_seed": json.dumps(getattr(mode, "rng_seed", None)),
        "generator": json.dumps(GENERATOR_NAME),
    })
    return EXIT_OK


def _cmd_compile(args) -> int:
    with _output(args.out) as out:  # opened before the expression is compiled
        save_circuit(compile_expr(args.expr, _basis(args.basis)), out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    circuit = load_circuit(args.net)
    bits = evaluate(circuit, _parse_assignment(args.assign))
    _print_json(bits)
    return EXIT_OK


def _cmd_table(args) -> int:
    circuit = load_circuit(args.net)
    with _output(args.out) as out:  # opened before the 2^m rows are evaluated
        truth_table(circuit).to_csv(out)
    return EXIT_OK


def _cmd_fixpoints(args) -> int:
    network = load_network(args.net)
    seeds = _parse_ids(args.seeds) if args.seeds is not None else None
    found = enumerate_fixpoints(network, seeds, state_cap=args.cap)
    lists = _id_lists(*found.sorted_ids(), 2)
    _print_object({
        "fixpoints": "[\n  " + ",\n  ".join(lists) + "\n ]" if lists else "[]",
        "explored": json.dumps(found.explored_states),
        "truncated": json.dumps(found.truncated),
    })
    if found.truncated:
        _fail("resource", f"state cap {args.cap} reached; fixpoint set incomplete")
        return EXIT_RESOURCE
    return EXIT_OK


def _cmd_sensitivity(args) -> int:
    circuit = load_circuit(args.net)
    report = schedule_sensitivity(circuit, _parse_assignment(args.assign),
                                  args.trials, args.seed)
    _print_json({**dataclasses.asdict(report), "generator": GENERATOR_NAME})
    return EXIT_OK


def _cmd_verify_gcm(args) -> int:
    verdict = verify_gcm_determinism(args.n, args.z, args.instances, args.seed,
                                     rule=_parse_rule(args.rule), state_cap=args.cap,
                                     jobs=args.jobs)
    _print_json({
        "verdict": verdict.value,
        "n": args.n,
        "z": args.z,
        "instances": args.instances,
        "seed": args.seed,
    })
    if verdict is Verdict.INCONCLUSIVE:
        _fail("resource", f"state cap {args.cap} reached in at least one instance")
        return EXIT_RESOURCE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        n=args.n,
        z_values=_parse_z_range(args.z),
        phi_star=args.phi,
        rule=_parse_rule(args.rule),
        realizations=args.realizations,
        master_seed=args.seed,
        seeds_per_run=args.seeds_per_run,
        metric=_parse_metric(args.metric),
    )
    # both files are opened before any realization; the dump is written and
    # closed first, so `--out P --dump-sizes P` leaves the CSV at P
    with _output(args.out) as out:
        with nullcontext() if args.dump_sizes is None else open_output(args.dump_sizes) as dump:
            sizes, reference = sweep_sizes(spec, jobs=args.jobs)
            rows = rows_from_sizes(spec, sizes, reference)
            if dump is not None:
                _print_json([{"z": z, "sizes": sizes[zi].tolist()}
                             for zi, z in enumerate(spec.z_values)], dump)
        emit_csv(rows, out, spec=spec)
    return EXIT_OK


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and each command's own parser by name."""
    parser = _Parser(prog="cascade-logic",
                     description="Threshold-cascade networks: generate, run, "
                                 "compile, analyze, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}

    def command(name: str, func, help: str) -> _Parser:
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "generate an ER network with thresholds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=float, help="mean degree (p = z/(n-1))")
    p.add_argument("--p", type=float, help="edge probability")
    p.add_argument("--rule", default="gcm")
    p.add_argument("--phi", default="uniform", help="uniform or const:<x>")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    p = command("stats", _cmd_stats, "network statistics as JSON")
    p.add_argument("--net", required=True)

    p = command("run", _cmd_run, "run one cascade")
    p.add_argument("--net", required=True)
    p.add_argument("--seeds", help="comma-separated ids; default: file seeds")
    p.add_argument("--mode", required=True, help="sweep:<seed> | order:<id,...> | topo")

    p = command("compile", _cmd_compile, "compile an expression to a circuit file")
    p.add_argument("--expr", required=True)
    p.add_argument("--basis", default="mixed", help="mixed | nand | nor")
    p.add_argument("--out")

    p = command("eval", _cmd_eval, "evaluate a circuit on one assignment")
    p.add_argument("--net", required=True)
    p.add_argument("--assign", required=True, help="a=1,b=0,...")

    p = command("table", _cmd_table, "truth table of a circuit as CSV")
    p.add_argument("--net", required=True)
    p.add_argument("--out")

    p = command("fixpoints", _cmd_fixpoints, "enumerate reachable fixpoints")
    p.add_argument("--net", required=True)
    p.add_argument("--seeds", help="comma-separated ids; default: file seeds")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)

    p = command("sensitivity", _cmd_sensitivity, "schedule sensitivity of circuit outputs")
    p.add_argument("--net", required=True)
    p.add_argument("--assign", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("verify-gcm", _cmd_verify_gcm, "final-state uniqueness over random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rule", default="gcm")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--jobs", type=int)

    p = command("sweep", _cmd_sweep, "cascade-frequency sweep over mean degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", required=True, help="value or start:stop:step (inclusive)")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--realizations", type=int, required=True)
    p.add_argument("--metric", default="global:0.5", help="global[:<t>] | median")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seeds-per-run", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--dump-sizes", help="also write raw sizes per z as JSON")
    p.add_argument("--jobs", type=int)

    return parser, commands


_PARSER, _COMMANDS = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named command's own parser reads its flags, the one parse the top-level
    # parser would delegate; help and a missing or unknown command go there
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse exits 0 after --help; error() raises UsageError
        return e.code
    except (NetworkFormatError, OSError) as e:  # NetworkFormatError is a ValueError
        _fail("input", str(e))
        return EXIT_INPUT
    except LimitExceeded as e:
        _fail("resource", str(e))
        return EXIT_RESOURCE
    except (UsageError, ValueError) as e:
        _fail("usage", str(e))
        return EXIT_USAGE


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
