"""Command line interface and the presentation file format.

A presentation file, in UTF-8, holds a `states <n>` header followed by
one generator per line, either `<name> = <linear notation>` or
`<name> = images: i1 i2 ... in`, with `#` starting a comment line. Words
on the command line are generator names separated by whitespace or dots,
so neither generator nor alias names contain them (single-character names
may also be run together), and `@name` expands a definition from the
presentation's UTF-8 `.words` sidecar, so no generator name starts with `@`.

Exit codes: 0 success, 2 unparseable input, 3 target not in the semigroup,
4 word does not permute the chosen set, 5 a search dropped a word beyond
--max-results or enumeration passed its cap, 130 interrupted (Ctrl-C),
141 standard output closed by its reader (128 + SIGPIPE, as shells report
for other tools). The environment variable STRAYT_MAX_ELEMENTS caps
enumeration as a safety valve; unset or empty means unlimited.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .core import MAX_STATES, Presentation, StraytError, Transformation, evaluate, stateset
from .notation import NotationError, parse_images, parse_linear, print_linear
from .cayley import CayleyGraph, EnumerationLimitExceeded, NotInSemigroup, enumerate_semigroup
from .straightwords import SearchLimits, all_straight_words, straight_permutator_words
from .permutator import (NotAPermutatorWord, factorize, minimal_straight_permutators,
                         perm_semigroup, reduce_word)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_IN_SEMIGROUP = 3
EXIT_NOT_PERMUTATOR = 4
EXIT_TRUNCATED = 5
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141
# errors with an exit code of their own; every other error is EXIT_PARSE
_EXIT_CODES = ((NotInSemigroup, EXIT_NOT_IN_SEMIGROUP), (NotAPermutatorWord, EXIT_NOT_PERMUTATOR),
               (EnumerationLimitExceeded, EXIT_TRUNCATED))

# an `@name` token: starts the text or follows a word separator
_ALIAS = re.compile(r"(?<![^\s.])@([^\s.]*)")


class PresentationFileError(StraytError):
    """A presentation or word file that does not parse."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def fixture_path(name: str) -> Path:
    """Path to a bundled presentation file, e.g. fixture_path("ex4_abc")."""
    if "." not in name:
        name += ".tsg"
    return Path(__file__).parent / "fixtures" / name


def _content_lines(path):
    # one unbuffered binary read: `splitlines` ends lines at "\r\n" and "\r" as
    # text mode would; `fspath` keeps an int from reading as a file descriptor
    try:
        with open(os.fspath(path), "rb", buffering=0) as f:
            text = f.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise PresentationFileError(path, 0, str(exc)) from None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _definitions(path, lines, value_kind: str, name_kind: str, value_required: bool):
    """The (line_no, name, value) of each `name = value` line; a line without
    the `=`, the name or a required value, with whitespace or `.` in the name
    (both separate a command-line word), or repeating a name, fails there."""
    names: set[str] = set()
    for line_no, line in lines:
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or (value_required and not value):
            raise PresentationFileError(path, line_no, f"expected '<name> = <{value_kind}>'")
        if name.replace(".", " ").split() != [name]:
            raise PresentationFileError(
                path, line_no, f"{name_kind} name {name!r} contains whitespace or '.'")
        if name in names:
            raise PresentationFileError(path, line_no, f"duplicate {name_kind} {name!r}")
        names.add(name)
        yield line_no, name, value


def load_presentation(path) -> Presentation:
    """Read a presentation file."""
    lines = _content_lines(path)
    line_no, line = next(lines, (0, None))
    if line is None:
        raise PresentationFileError(path, 0, "missing 'states <n>' header")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "states" or not parts[1].isdecimal():
        raise PresentationFileError(path, line_no, "expected 'states <n>' header")
    n = int(parts[1])
    if n < 1:
        raise PresentationFileError(path, line_no, "state count must be at least 1")
    if n > MAX_STATES:  # rejected before any generator allocates n images
        raise PresentationFileError(path, line_no, f"state count must be at most {MAX_STATES}")
    generators: list[tuple[str, object]] = []
    for line_no, name, value in _definitions(path, lines, "transformation", "generator", False):
        try:
            if name.startswith("@"):  # `@name` on the command line is a word alias
                raise ValueError(f"generator name {name!r} starts with '@'")
            t = _parse_map(value, n)
        except (NotationError, ValueError) as exc:
            raise PresentationFileError(path, line_no, str(exc)) from None
        generators.append((name, t))
    if not generators:
        raise PresentationFileError(path, 0, "no generators defined")
    return Presentation(n, generators)


def _parse_map(text: str, n: int) -> Transformation:
    """A map on n states, as `images: i1 ... in` or as a linear form."""
    if not text.startswith("images:"):
        return parse_linear(text, n)
    t = parse_images(text[len("images:"):])
    if t.n != n:
        raise NotationError(f"image list has {t.n} entries, expected {n}")
    return t


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".words")


def load_word_aliases(path) -> dict[str, str]:
    """Read `name = word` lines from a sidecar file; missing file means none."""
    sidecar = Path(path)
    if not sidecar.exists():
        return {}
    lines = _content_lines(sidecar)
    return {name: word for _, name, word in _definitions(sidecar, lines, "word", "word alias", True)}


def parse_cli_word(p: Presentation, text: str,
                   aliases: dict[str, str] | None = None) -> tuple[int, ...]:
    """Parse a command-line word, expanding `@name` sidecar aliases."""
    aliases = aliases or {}

    def expand(m: re.Match) -> str:
        if m.group(1) not in aliases:
            raise ValueError(f"unknown word alias {m.group(0)!r}")
        return aliases[m.group(1)]

    return p.word(_ALIAS.sub(expand, text))


def _parse_target(p: Presentation, text: str, aliases: dict[str, str]) -> Transformation:
    """A target argument's map: the value of a word if it reads as one, else the map."""
    text = text.strip()
    try:
        return evaluate(p, parse_cli_word(p, text, aliases))
    except ValueError:
        if text and not (text.startswith("images:") or text[0].isdigit() or text[0] in "[("):
            raise
    return _parse_map(text, p.n)


def _setup(args) -> tuple[CayleyGraph, tuple[int, ...] | None, Transformation | None,
                          frozenset[int] | None]:
    """The graph, then the command's parsed --word, --target and --set (None
    where not given), read in fault order: the file, STRAYT_MAX_ELEMENTS,
    the `.words` sidecar (only for a --word or a --target), --word, --target
    and --set, so that any fault ends the command before the one enumeration."""
    p = load_presentation(args.file)
    cap = os.environ.get("STRAYT_MAX_ELEMENTS")
    max_elements = None
    if cap:
        try:
            max_elements = int(cap)
        except ValueError:
            raise StraytError(f"STRAYT_MAX_ELEMENTS must be an integer, got {cap!r}") from None
        if max_elements < 1:
            raise StraytError(f"STRAYT_MAX_ELEMENTS must be at least 1, got {max_elements}")
    aliases = ({} if args.word is None and args.target is None
               else load_word_aliases(sidecar_path(args.file)))
    word = None if args.word is None else parse_cli_word(p, args.word, aliases)
    target = None if args.target is None else _parse_target(p, args.target, aliases)
    states = None
    if args.set is not None:
        try:
            states = [int(tok) for tok in args.set.split(",") if tok.strip() != ""]
        except ValueError:
            raise StraytError(f"bad state set {args.set!r}; expected e.g. 3,5,8") from None
        states = stateset(states, p.n)
    return enumerate_semigroup(p, max_elements=max_elements), word, target, states


def _output(args, rows, lines) -> int:
    """Print the rows as tab-separated fields under --tsv, else the plain lines."""
    for line in (["\t".join(map(str, row)) for row in rows] if args.tsv else lines):
        print(line)
    return EXIT_OK


def _finish_search(graph: CayleyGraph, result) -> int:
    p = graph.presentation
    for w in result:
        print(f"{p.format_word(w)}\t{print_linear(graph.element(graph.walk(w)))}")
    if result.truncated:
        print("warning: output truncated by a search limit", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_order(args) -> int:
    graph = _setup(args)[0]
    has_identity = "yes" if graph.contains_identity else "no"
    return _output(args, [("order", graph.order), ("identity", has_identity)],
                   [graph.order, f"identity in S: {has_identity}"])


def cmd_straight(args) -> int:
    limits = SearchLimits(max_length=args.max_len, max_results=args.max_results)
    graph, _, target, _ = _setup(args)
    node = None if target is None else graph.element_index(target)
    if node == 0 and not graph.contains_identity:  # node 0 is adjoined, not generated
        raise NotInSemigroup(f"{target!r} is not generated by the presentation")
    return _finish_search(graph, all_straight_words(graph, node, limits))


def cmd_perm(args) -> int:
    if not (args.words or args.minimal) and (args.max_len, args.max_results) != (None, None):
        raise StraytError("--max-len and --max-results apply only with --words or --minimal")
    limits = SearchLimits(max_length=args.max_len, max_results=args.max_results)
    graph, _, _, states = _setup(args)
    if args.words:
        return _finish_search(graph, straight_permutator_words(graph, states, limits))
    if args.minimal:
        return _finish_search(graph, minimal_straight_permutators(graph, states, limits))
    ps = perm_semigroup(graph, states)
    if args.group_order:
        group_order = ps.restriction_group_order
        return _output(args, [("group_order", group_order)], [group_order])
    count = len(ps.element_indices)
    return _output(args, [("perm_order", count)], [f"|Perm(Y)| = {count}"])


def cmd_factorize(args) -> int:
    graph, word, _, states = _setup(args)
    factors = [graph.presentation.format_word(f) for f in factorize(graph, word, states)]
    return _output(args, (("factor", i, f) for i, f in enumerate(factors, 1)), factors)


def cmd_reduce(args) -> int:
    graph, word, _, _ = _setup(args)
    reduced = reduce_word(graph, word)
    text = graph.presentation.format_word(reduced)
    return _output(args, [("reduced", text), ("length_before", len(word)),
                          ("length_after", len(reduced))],
                   [text, f"length: {len(word)} -> {len(reduced)}"])


def cmd_trajectory(args) -> int:
    graph, word, _, _ = _setup(args)
    nodes = graph.trajectory(word)
    forms = [print_linear(graph.element(node)) for node in nodes]
    return _output(args, (("node", i, node, form)
                          for i, (node, form) in enumerate(zip(nodes, forms))), forms)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="presentation file")
    common.add_argument("--tsv", action="store_true",
                        help="tab-separated machine-readable output")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--max-len", type=int, default=None,
                        help="cap word length (default: the hard bound)")
    search.add_argument("--max-results", type=int, default=None,
                        help="cap the number of words printed")

    parser = argparse.ArgumentParser(
        prog="strayt",
        description="Enumerate a transformation semigroup, its straight words, "
                    "and the permutators of a state subset.")
    parser.set_defaults(word=None, target=None, set=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("order", parents=[common],
                        help="print the number of generated elements")
    sp.set_defaults(func=cmd_order)

    sp = sub.add_parser("straight", parents=[common, search],
                        help="enumerate straight words")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--target",
                       help="word, linear form, or 'images: ...' to realize")
    group.add_argument("--all", action="store_true", help="enumerate every straight word")
    sp.set_defaults(func=cmd_straight)

    sp = sub.add_parser("perm", parents=[common, search],
                        help="inspect the permutators of a state subset",
                        epilog="--max-len and --max-results apply only with --words or --minimal.")
    sp.add_argument("--set", required=True, help="comma-separated states, e.g. 3,5,8")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--words", action="store_true",
                       help="list the straight permutator words")
    group.add_argument("--minimal", action="store_true",
                       help="list the minimal straight permutator words")
    group.add_argument("--group-order", action="store_true",
                       help="print the order of the induced permutation group")
    sp.set_defaults(func=cmd_perm)

    sp = sub.add_parser("factorize", parents=[common],
                        help="factor a permutator word into minimal permutators")
    sp.add_argument("--set", required=True, help="comma-separated states")
    sp.add_argument("--word", required=True, help="the word to factor")
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("reduce", parents=[common],
                        help="excise trajectory loops until the word is straight")
    sp.add_argument("--word", required=True, help="the word to reduce")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("trajectory", parents=[common],
                        help="print the nodes realized by the word's prefixes")
    sp.add_argument("--word", required=True, help="the word to trace")
    sp.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StraytError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for error, code in _EXIT_CODES if isinstance(exc, error)), EXIT_PARSE)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        try:  # the reader left: what is still buffered goes nowhere
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no descriptor, as in an in-process caller's stream
            return EXIT_BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
