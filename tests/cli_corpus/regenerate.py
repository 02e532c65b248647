"""Record in expected.json the commands of commands.txt it lacks.

Run from the repository root:

    PYTHONPATH=src python tests/cli_corpus/regenerate.py

Each entry already in expected.json is kept byte for byte, and only the
commands it lacks run, in-process, on the current tree; the entries come
out in commands.txt order, and those of lines no longer listed are
dropped. So a command added after a change to the program is recorded
from that change, while the older entries keep the output they were
recorded with. To record an entry again, delete it from expected.json by
hand first. A line may start with NAME=value tokens, as in a shell: they
set those environment variables for that one command only, and the
environment is restored after it. In a command, `{corpus}` stands for
this directory, which holds the corpus's own faulty presentation files,
and any other `{name}` for the bundled fixture of that name; this
directory's path reads `{corpus}` again in the recorded output, so the
entries do not depend on where the checkout lives. Only run it on a
tree whose output is known to be right: the test
`tests/test_cli_corpus.py` holds every later tree to the entries.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path
from unittest import mock

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
    """The exit code, stdout and stderr of one command line.

    Leading NAME=value tokens, as in a shell, set that environment
    variable for this one command; the environment is restored after it.
    `{corpus}` is this directory and another `{name}` a bundled fixture;
    the output names this directory `{corpus}`.
    """
    def path(m: re.Match) -> str:
        return str(HERE if m.group(1) == "corpus" else fixture_path(m.group(1)))

    argv = [re.sub(r"\{(\w+)\}", path, token) for token in shlex.split(command)]
    env = {}
    while argv and re.fullmatch(r"[A-Za-z_]\w*=.*", argv[0]):
        name, _, value = argv.pop(0).partition("=")
        env[name] = value
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = main(argv)
    here = str(HERE)
    return {"command": command, "exit": code,
            "stdout": out.getvalue().replace(here, "{corpus}"),
            "stderr": err.getvalue().replace(here, "{corpus}")}


if __name__ == "__main__":
    kept = ({case["command"]: case for case in json.loads(EXPECTED.read_text())}
            if EXPECTED.exists() else {})
    listed = commands()
    results = [kept.get(command) or run(command) for command in listed]
    EXPECTED.write_text(json.dumps(results, indent=1) + "\n")
    print(f"ran {sum(command not in kept for command in listed)} new commands;"
          f" {EXPECTED} holds {len(results)}")
