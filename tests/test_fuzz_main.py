"""The loader and `sweep --z` fuzzed through `main`: a mutated circuit file
or a --z text never escapes as a traceback, and every failure is one JSON
error line.

Each example mutates the half adder file (seeds 0 and 1 added) one to three
times: a node field, an edge or one of its endpoints, a seed or a port
replaced by a value of another type; a key deleted; an edge duplicated; the
nodes shuffled. The document is written with NaN and Infinity allowed, and
`table`, `eval` and `fixpoints` each run on it. A --z text is a value or
start:stop:step, each part a small number, inf, -inf or nan, run on a sweep
of one realization at n = 4.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from cascade_logic import fixture_path
from cascade_logic.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

COMMANDS = (["table"], ["eval", "--assign", "a=1,b=0"], ["fixpoints", "--cap", "64"])

VALUES = st.one_of(
    st.sampled_from([2**70, -2**70, 2**64, -1, 0, 1, 7]),
    st.integers(-10, 10),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5, 1.5]),
    st.floats(-2, 2),
    st.booleans(),
    st.sampled_from(["", "0", "gcm", "agcm", "a"]),
    st.none(),
    st.lists(st.integers(-1, 8), max_size=3),
    st.dictionaries(st.sampled_from(["id", "rule", "phi", "a"]), st.integers(-1, 8),
                    max_size=3),
)


def _slots(doc: dict) -> list[tuple]:
    """(container, key) of every node field, edge, edge endpoint, seed and port."""
    slots = []
    if type(doc.get("nodes")) is list:
        slots += [(node, key) for node in doc["nodes"] if type(node) is dict for key in node]
    if type(doc.get("edges")) is list:
        slots += [(doc["edges"], i) for i in range(len(doc["edges"]))]
        slots += [(e, j) for e in doc["edges"] if type(e) is list for j in range(len(e))]
    if type(doc.get("seeds")) is list:
        slots += [(doc["seeds"], i) for i in range(len(doc["seeds"]))]
    for key in ("inputs", "outputs"):
        if type(doc.get(key)) is dict:
            slots += [(doc[key], name) for name in doc[key]]
    return slots


def _keys(doc: dict) -> list[tuple]:
    """(container, key) of every top-level key, node key and port name."""
    keys = [(doc, key) for key in doc]
    if type(doc.get("nodes")) is list:
        keys += [(node, key) for node in doc["nodes"] if type(node) is dict for key in node]
    for key in ("inputs", "outputs"):
        if type(doc.get(key)) is dict:
            keys += [(doc[key], name) for name in doc[key]]
    return keys


def _pick(draw, items: list):
    return items[draw(st.integers(0, len(items) - 1))] if items else None


def mutate(doc: dict, draw) -> None:
    kind = draw(st.sampled_from(["replace", "delete", "duplicate edge", "shuffle nodes"]))
    if kind == "replace" and (slot := _pick(draw, _slots(doc))):
        container, key = slot
        container[key] = draw(VALUES)
    elif kind == "delete" and (slot := _pick(draw, _keys(doc))):
        container, key = slot
        del container[key]
    elif kind == "duplicate edge" and type(doc.get("edges")) is list and doc["edges"]:
        doc["edges"].append(copy.deepcopy(_pick(draw, doc["edges"])))
    elif kind == "shuffle nodes" and type(doc.get("nodes")) is list:
        doc["nodes"] = draw(st.permutations(doc["nodes"]))


Z_PARTS = st.one_of(st.integers(-3, 5), st.floats(-4, 4).map(lambda x: round(x, 1)),
                   st.sampled_from([math.inf, -math.inf, math.nan])).map(str)


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_exits_cleanly(argv: list[str], codes: tuple[int, ...]) -> None:
    """`main` on `argv` exits with one of `codes`, silently on success and
    otherwise with one JSON error line on stderr."""
    code, err = run(argv)
    assert code in codes, argv
    if code == 0:
        assert err == "", argv
    else:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        error = json.loads(err)
        assert list(error) == ["error"] and set(error["error"]) == {"kind", "message"}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_circuit_file_exits_cleanly(data):
    doc = json.loads(fixture_path("half_adder.json").read_text())
    doc["seeds"] = [0, 1]
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(doc, data.draw)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "net.json"
        path.write_text(json.dumps(doc, allow_nan=True))
        for argv in COMMANDS:
            assert_exits_cleanly([argv[0], "--net", str(path), *argv[1:]], (0, 1, 2, 3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(Z_PARTS, st.tuples(Z_PARTS, Z_PARTS, Z_PARTS).map(":".join)))
def test_z_text_exits_cleanly(z):
    assert_exits_cleanly(["sweep", "--n", "4", f"--z={z}", "--phi", "0.2", "--rule", "gcm",
                          "--realizations", "1", "--seed", "1"], (0, 1, 3))

