"""Rebuild expected.json from commands.txt by running each command in-process.

Run from the repository root:

    PYTHONPATH=src python tests/cli_corpus/regenerate.py

Only run it on a tree whose output is known to be right: the test
`tests/test_cli_corpus.py` holds every later tree to the files it writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from strayt import fixture_path
from strayt.cli import main

HERE = Path(__file__).parent
COMMANDS = HERE / "commands.txt"
EXPECTED = HERE / "expected.json"


def commands() -> list[str]:
    """The command lines of commands.txt, without comments and blank lines."""
    lines = (line.strip() for line in COMMANDS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def run(command: str) -> dict:
    """The exit code, stdout and stderr of one command line."""
    argv = [re.sub(r"\{(\w+)\}", lambda m: str(fixture_path(m.group(1))), token)
            for token in shlex.split(command)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"command": command, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


if __name__ == "__main__":
    results = [run(command) for command in commands()]
    EXPECTED.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} commands to {EXPECTED}")
