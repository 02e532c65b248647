"""README's library example runs as written, and gives the values its comments state.

The `python` block under "## Library" runs line by line in one namespace.
A comment that starts with a Python literal, up to its first ':', states
the value of its line, which must equal it; any other comment is prose.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def split_comment(line: str) -> tuple[str, str]:
    """The code of a line and the text of its comment, without the '#'."""
    for tok in tokenize.generate_tokens(io.StringIO(line).readline):
        if tok.type == tokenize.COMMENT:
            return line[:tok.start[1]], tok.string[1:].strip()
    return line, ""


def stated_value(comment: str) -> tuple[bool, object]:
    """Whether the comment states a value, and the value."""
    try:
        return True, ast.literal_eval(comment.split(":", 1)[0])
    except (ValueError, SyntaxError):
        return False, None


def test_library_example_gives_the_stated_values():
    namespace: dict = {}
    checked = 0
    for line in library_lines():
        code, comment = split_comment(line)
        states, value = stated_value(comment)
        if states:
            assert eval(code, namespace) == value, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 5  # 21, True, the printed form, the image bytes, the walk ends
