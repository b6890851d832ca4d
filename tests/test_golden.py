"""The CLI's exact bytes: exit code, stdout and stderr for a fixed set of argv.

``golden/cli.json`` is a list of ``{"argv", "exit", "stdout", "stderr"}``
objects. It was written once, before the sweep engine and the output
emitter were merged, by calling ``lucaskit.cli.main(argv)`` in-process on
each argv with ``contextlib.redirect_stdout`` and ``redirect_stderr``
around the call, and saving the list with ``json.dump(cases, fh,
indent=1, ensure_ascii=False)``. The cases cover the acceptance matrix
under each ``--format``, ``phi --factor`` at p=1, q=-1 with n=0 and n=6,
a rational ``phi``, ``gauss`` with and without ``--cyclotomic``, a small
``verify --identities all``, a ``--step 1/2`` grid with eq35 and cor35
skips, and the usage errors. Later cases freeze the argparse bytes:
``--help`` at the top level and for each subcommand, one argparse
error per subcommand, and argv with two faults whose first-reported error
must not move. argparse wraps help and usage lines to the terminal width,
so each case runs with ``COLUMNS=80``. A change that is meant to alter output
updates the file by hand, case by case, so that the diff shows each byte
that moved.
"""

import json
from pathlib import Path

import pytest

from lucaskit.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_bytes(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
