"""Threshold-cascade networks.

A simulation engine for label cascades under per-node thresholds (with both
the monotone and the antagonistic labeling rule), a compiler from Boolean
expressions to cascade networks that compute them, exhaustive fixpoint
analysis, and frequency-sweep experiments over random graphs.
"""

from importlib.resources import files as _files
from pathlib import Path

from ._seeds import GENERATOR_NAME, make_rng, mix_seed
from .analyze import (DEFAULT_STATE_CAP, FixpointSet, SensitivityReport,
                      Verdict, enumerate_fixpoints, outcome_sensitivity,
                      schedule_sensitivity, verify_gcm_determinism)
from .circuit import (Basis, CompiledCircuit, GateAssignment, GateKind,
                      TruthTable, build_gate, compile_expr, compile_half_adder,
                      evaluate, is_monotone_decreasing, is_monotone_increasing,
                      load_circuit, phi_for_gate, phi_interval, save_circuit,
                      truth_table)
from .engine import (CascadeResult, Configuration, ExplicitOrder, RandomSweep,
                     ScheduleMode, Topological, is_global, monotone_closure,
                     run_cascade, settle, topological_order)
from .experiments import (GlobalFraction, MedianExceedance, SweepRow,
                          SweepSpec, cascade_sizes, emit_csv, parse_csv,
                          reference_sizes, rows_from_sizes, run_sweep,
                          sweep_sizes)
from .net import (Graph, Network, NetworkBundle, NetworkFormatError, NetworkStats,
                  NodeSpec, Rule, UNIFORM, assign_thresholds, cutoff,
                  generate_er, load_bundle, load_network, save_network, stats)
from .parser import LimitExceeded, ParseError, parse_expr, variables

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Path of a bundled example network/circuit file."""
    return Path(str(_files("cascade_logic").joinpath("fixtures", name)))
