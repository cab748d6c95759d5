"""Network-file errors pinned message by message.

Each case corrupts a valid circuit file (the half adder, with seeds 0 and 1)
past its first node, edge, seed or port, or in its circuit shape, and
golden/load_errors.json holds the exact NetworkFormatError message that
loading it raises. Cases with two faults pin which one is reported.
"""

from __future__ import annotations

import io
import json

import pytest

from cascade_logic import NetworkFormatError, fixture_path, load_circuit
from conftest import GOLDEN

LOAD_ERRORS_GOLDEN = GOLDEN / "load_errors.json"


def base_doc() -> dict:
    doc = json.loads(fixture_path("half_adder.json").read_text())
    doc["seeds"] = [0, 1]
    return doc


def _set(*path_and_value):
    *path, key, value = path_and_value

    def corrupt(doc):
        target = doc
        for step in path:
            target = target[step]
        target[key] = value
    return corrupt


def _delete(*path):
    def corrupt(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        del target[path[-1]]
    return corrupt


def _both(*corruptions):
    def corrupt(doc):
        for c in corruptions:
            c(doc)
    return corrupt


def _renumber(doc):  # ids 0..5 and 7: a gap at 6
    doc["nodes"][6]["id"] = 7


CORRUPTIONS = {
    # ids
    "id bool": _set("nodes", 3, "id", True),
    "id float": _set("nodes", 3, "id", 3.0),
    "id beyond int64": _set("nodes", 3, "id", 2**70),
    "id negative": _set("nodes", 3, "id", -1),
    "id duplicate": _set("nodes", 4, "id", 2),
    "id gap": _renumber,
    "id duplicate out of range": _both(_set("nodes", 2, "id", 9), _set("nodes", 5, "id", 9)),
    # node keys
    "node not an object": _set("nodes", 3, [3, "agcm", 0.75]),
    "node key missing": _delete("nodes", 3, "phi"),
    "node key extra": _set("nodes", 3, "weight", 1),
    # rule and phi
    "rule unknown": _set("nodes", 3, "rule", "sir"),
    "rule not a string": _set("nodes", 3, "rule", 1),
    "phi string": _set("nodes", 3, "phi", "0.75"),
    "phi bool": _set("nodes", 3, "phi", True),
    "phi NaN": _set("nodes", 3, "phi", float("nan")),
    "phi Infinity": _set("nodes", 3, "phi", float("inf")),
    "phi 1.5": _set("nodes", 3, "phi", 1.5),
    "phi negative": _set("nodes", 3, "phi", -0.25),
    "phi integer 2": _set("nodes", 3, "phi", 2),
    # edges
    "edge of 3 items": _set("edges", 4, [1, 4, 5]),
    "edge not a list": _set("edges", 4, "1-4"),
    "edge bool endpoint": _set("edges", 4, 1, True),
    "edge float endpoint": _set("edges", 4, 0, 1.0),
    "edge missing endpoint": _set("edges", 4, 1, 7),
    "edge negative endpoint": _set("edges", 4, 0, -1),
    "edge endpoint beyond int64": _set("edges", 4, 1, 2**64),
    "edge self-loop": _set("edges", 4, 1, 1),
    "edge self-loop on a missing node": _set("edges", 4, [9, 9]),
    "edge duplicate": _set("edges", 5, [0, 2]),
    # seeds and ports
    "seed float": _set("seeds", 1, 1.0),
    "seed bool": _set("seeds", 1, True),
    "seed out of range": _set("seeds", 1, 7),
    "port string": _set("inputs", "b", "1"),
    "port out of range": _set("outputs", "carry", 7),
    "port negative": _set("inputs", "b", -1),
    "ports not an object": _set("outputs", [5, 6]),
    # two faults: the first reported
    "phi at node 4, id at node 3": _both(_set("nodes", 4, "phi", 2.0),
                                         _set("nodes", 3, "id", "3")),
    "duplicate id and bad phi on one node": _both(_set("nodes", 4, "id", 2),
                                                  _set("nodes", 4, "phi", 1.5)),
    "bad rule and bad phi on one node": _both(_set("nodes", 4, "rule", "x"),
                                              _set("nodes", 4, "phi", "y")),
    "id gap, then bad phi": _both(_set("nodes", 2, "id", 9), _set("nodes", 5, "phi", 2)),
    "id gap and bad edge": _both(_renumber, _set("edges", 4, 1, 1.5)),
    "edge type and bad seed": _both(_set("edges", 4, 0, "1"), _set("seeds", 1, "x")),
    "missing endpoint and bad seed": _both(_set("edges", 4, 1, 70), _set("seeds", 1, "x")),
    "missing endpoint and seed out of range": _both(_set("edges", 4, 1, 70),
                                                    _set("seeds", 1, 70)),
    "seed and port": _both(_set("seeds", 1, 0.5), _set("inputs", "b", 0.5)),
    # circuit shape, checked once the network has loaded
    "circuit undirected": _set("directed", False),
    "circuit without inputs": _set("inputs", {}),
    "circuit without outputs": _set("outputs", {}),
    "input with an in-edge": lambda doc: doc["edges"].append([1, 0]),  # b -> a: no cycle
    "output unreached": _delete("edges", 8),  # [2, 6]: carry has no in-edge
    "ports missing": _both(_delete("inputs"), _delete("outputs")),
    "outputs missing": _delete("outputs"),
}


def load_error(name: str) -> str:
    doc = base_doc()
    CORRUPTIONS[name](doc)
    with pytest.raises(NetworkFormatError) as caught:
        load_circuit(io.StringIO(json.dumps(doc)))
    return str(caught.value)


def test_the_base_file_loads():
    circuit = load_circuit(io.StringIO(json.dumps(base_doc())))
    assert circuit.network.seeds == {0, 1}


def test_every_case_is_pinned():
    assert list(json.loads(LOAD_ERRORS_GOLDEN.read_text())) == list(CORRUPTIONS)


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_load_error_message_is_pinned(name):
    assert load_error(name) == json.loads(LOAD_ERRORS_GOLDEN.read_text())[name]


if __name__ == "__main__":
    # Re-records golden/load_errors.json; run only for an intended change
    # of a message.
    LOAD_ERRORS_GOLDEN.write_text(
        json.dumps({name: load_error(name) for name in CORRUPTIONS}, indent=1) + "\n")
