"""CLI behaviour pinned per argv: exit code, exact stderr, stdout digest.

Each entry of golden/cli.json runs in a scratch directory that holds copies
of the package fixtures plus a few broken inputs, so every path in an argv
(and so in every error message) is relative. Files a command writes are
named out* and pinned by digest too.
"""

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import pytest

from cascade_logic import fixture_path
from cascade_logic.cli import main
from conftest import GOLDEN

CLI_GOLDEN = GOLDEN / "cli.json"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare_workdir(workdir: Path) -> None:
    for source in fixture_path("triangle.json").parent.glob("*.json"):
        shutil.copy(source, workdir / source.name)
    (workdir / "bad.json").write_text("{not json")
    (workdir / "nodeless.json").write_text('{"directed": true, "edges": [], "seeds": []}')
    (workdir / "adir").mkdir()


def observe(argv: list[str], workdir: Path) -> dict:
    """Run `argv` in `workdir` (the current directory) and record what it did."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {p.name: _digest(p.read_bytes()) for p in sorted(workdir.glob("out*"))}
    return {"argv": argv, "exit": code, "stderr": err.getvalue(),
            "stdout_sha256": _digest(out.getvalue().encode()), "files": files}


CASES = json.loads(CLI_GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]) or "<none>")
def test_cli_behaviour_is_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prepare_workdir(tmp_path)
    assert observe(case["argv"], tmp_path) == case


if __name__ == "__main__":
    # Re-records every argv already in golden/cli.json (add an entry as
    # {"argv": [...]}); run only for an intended change of CLI behaviour.
    import os
    import tempfile

    cases = []
    home = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            prepare_workdir(Path(scratch))
            cases.append(observe(case["argv"], Path(scratch)))
            os.chdir(home)
    CLI_GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
