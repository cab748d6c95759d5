"""Library argument checks pinned message by message.

Each case calls a public function or constructor with one bad argument and
pins the exact ValueError message it raises before doing any work.
"""

import io

import pytest

from cascade_logic import (ExplicitOrder, Rule, SweepSpec, assign_thresholds,
                           compile_half_adder, fixture_path, generate_er, load_network,
                           outcome_sensitivity, parse_csv, run_cascade,
                           verify_gcm_determinism)
from cascade_logic.parser import And, Var


def _sweep(**changes):
    spec = dict(n=10, z_values=(1.0,), phi_star=0.2, rule=Rule.MONOTONE, realizations=1,
                master_seed=1)
    return lambda: SweepSpec(**{**spec, **changes})


CASES = {
    "order entry beyond the nodes": (
        lambda: run_cascade(load_network(fixture_path("triangle.json")), None,
                            ExplicitOrder((1, 2, 7))),
        "order entry 7 is not a node id"),
    "reference of the wrong length": (
        lambda: outcome_sensitivity(compile_half_adder().network, {0}, [5, 6], [1],
                                    trials=1, rng_seed=0),
        "reference must have one bit per watched node"),
    "reference bit of 2": (
        lambda: outcome_sensitivity(compile_half_adder().network, {0}, [5, 6], [1, 2],
                                    trials=1, rng_seed=0),
        "reference bits must be 0 or 1, got [1, 2]"),
    "verify-gcm on no nodes": (
        lambda: verify_gcm_determinism(n=0, z=1.0, instances=1, rng_seed=0),
        "n must be >= 1, got 0"),
    "sweep of one node": (_sweep(n=1), "n must be >= 2, got 1"),
    "sweep phi_star above 1": (_sweep(phi_star=1.5), "phi_star must lie in [0, 1], got 1.5"),
    "sweep phi_star below 0": (_sweep(phi_star=-0.25),
                               "phi_star must lie in [0, 1], got -0.25"),
    "sweep of no seeds per run": (_sweep(seeds_per_run=0),
                                  "seeds_per_run must lie in [1, n], got 0"),
    "csv of comments only": (lambda: parse_csv(io.StringIO("# seed=1\n")),
                             "missing CSV header"),
    "csv starting with a row": (lambda: parse_csv(io.StringIO("1.0,2,0.5,0.1,0.2\n")),
                                "unexpected CSV header '1.0,2,0.5,0.1,0.2'"),
    "rule by its file name": (lambda: assign_thresholds(generate_er(4, 0.5, 1), 0.5, "gcm"),
                              "rule must be a Rule, got 'gcm'"),
    "gate of one operand": (lambda: And((Var("a"),)),
                            "k-ary gate nodes need at least 2 operands"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_argument_check_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
