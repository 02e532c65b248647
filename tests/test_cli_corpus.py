"""The CLI's output on a corpus of commands over ex1-ex4, byte for byte.

tests/cli_corpus/commands.txt lists the commands and expected.json their
stdout, stderr and exit code; tests/cli_corpus/regenerate.py rebuilds
the latter.
"""

import json

import pytest

from cli_corpus.regenerate import EXPECTED, commands, run

CASES = json.loads(EXPECTED.read_text())


def test_corpus_lists_the_commands_in_order():
    assert [case["command"] for case in CASES] == commands()


@pytest.mark.parametrize("case", CASES, ids=[case["command"] for case in CASES])
def test_command_output_matches(case):
    assert run(case["command"]) == case
