"""Command line interface and the presentation file format.

A presentation file holds a `states <n>` header followed by one generator
per line, either `<name> = <linear notation>` or
`<name> = images: i1 i2 ... in`, with `#` starting a comment line. Words
on the command line are generator names separated by whitespace or dots
(single-character names may also be run together), and `@name` expands a
definition from the presentation's `.words` sidecar file.

Exit codes: 0 success, 2 unparseable input, 3 target not in the semigroup,
4 word does not permute the chosen set, 5 a search dropped a word beyond
--max-results or enumeration passed its cap. The environment variable
STRAYT_MAX_ELEMENTS caps enumeration as a safety valve (unset means
unlimited).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .core import Presentation, StraytError
from .notation import NotationError, parse_images, parse_linear, print_linear
from .cayley import (MAX_STATES, CayleyGraph, EnumerationLimitExceeded, NotInSemigroup,
                     enumerate_semigroup)
from .straightwords import SearchLimits, all_straight_words, straight_permutator_words
from .permutator import (NotAPermutatorWord, factorize, minimal_straight_permutators,
                         perm_semigroup, reduce_word)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_IN_SEMIGROUP = 3
EXIT_NOT_PERMUTATOR = 4
EXIT_TRUNCATED = 5

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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise PresentationFileError(path, 0, str(exc)) from None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def load_presentation(path) -> Presentation:
    """Read a presentation file."""
    n = None
    generators: list[tuple[str, object]] = []
    names: set[str] = set()
    for line_no, line in _content_lines(path):
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "states" or not parts[1].isdigit():
                raise PresentationFileError(path, line_no, "expected 'states <n>' header")
            n = int(parts[1])
            if n < 1:
                raise PresentationFileError(path, line_no, "state count must be at least 1")
            if n > MAX_STATES:  # rejected before any generator allocates n images
                raise PresentationFileError(path, line_no, f"state count must be at most {MAX_STATES}")
            continue
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name:
            raise PresentationFileError(path, line_no,
                                        "expected '<name> = <transformation>'")
        if name in names:
            raise PresentationFileError(path, line_no, f"duplicate generator {name!r}")
        names.add(name)
        try:
            if value.startswith("images:"):
                t = parse_images(value[len("images:"):])
                if t.n != n:
                    raise NotationError(f"image list has {t.n} entries, expected {n}")
            else:
                t = parse_linear(value, n)
        except NotationError as exc:
            raise PresentationFileError(path, line_no, str(exc)) from None
        generators.append((name, t))
    if n is None:
        raise PresentationFileError(path, 0, "missing 'states <n>' header")
    if not generators:
        raise PresentationFileError(path, 0, "no generators defined")
    return Presentation(n, generators)


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".words")


def load_word_aliases(path) -> dict[str, str]:
    """Read `name = word` lines from a sidecar file; missing file means none."""
    sidecar = Path(path)
    if not sidecar.exists():
        return {}
    aliases: dict[str, str] = {}
    for line_no, line in _content_lines(sidecar):
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or not value:
            raise PresentationFileError(sidecar, line_no, "expected '<name> = <word>'")
        if name in aliases:
            raise PresentationFileError(sidecar, line_no, f"duplicate word alias {name!r}")
        aliases[name] = value
    return aliases


def parse_cli_word(p: Presentation, text: str,
                   aliases: dict[str, str] | None = None) -> tuple[int, ...]:
    """Parse a command-line word, expanding `@name` sidecar aliases."""
    aliases = aliases or {}

    def expand(m: re.Match) -> str:
        if m.group(1) not in aliases:
            raise ValueError(f"unknown word alias {m.group(0)!r}")
        return aliases[m.group(1)]

    return p.word(_ALIAS.sub(expand, text))


def _resolve_target(graph: CayleyGraph, text: str, aliases: dict[str, str]) -> int:
    """Turn a target argument (word, linear form, or image list) into a node."""
    text = text.strip()
    if text.startswith("images:"):
        s = parse_images(text[len("images:"):])
    elif not text or text[0].isdigit() or text[0] in "[(":
        s = parse_linear(text, graph.presentation.n)
    else:
        return graph.walk(parse_cli_word(graph.presentation, text, aliases))
    node = graph.element_index(s)
    if node == 0 and not graph.contains_identity:  # node 0 is adjoined, not generated
        raise NotInSemigroup(f"{s!r} is not generated by the presentation")
    return node


def _load_graph(path) -> CayleyGraph:
    p = load_presentation(path)
    cap = os.environ.get("STRAYT_MAX_ELEMENTS")
    max_elements = None
    if cap:
        try:
            max_elements = int(cap)
        except ValueError:
            raise StraytError(f"STRAYT_MAX_ELEMENTS must be an integer, got {cap!r}") from None
    return enumerate_semigroup(p, max_elements=max_elements)


def _parse_states(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise StraytError(f"bad state set {text!r}; expected e.g. 3,5,8") from None


def _limits(args) -> SearchLimits:
    return SearchLimits(max_length=args.max_len, max_results=args.max_results)


def _print_words(graph: CayleyGraph, words) -> None:
    p = graph.presentation
    for w in words:
        print(f"{p.format_word(w)}\t{print_linear(graph.element(graph.walk(w)))}")


def _finish_search(graph: CayleyGraph, result) -> int:
    _print_words(graph, result.words)
    if result.truncated:
        print("warning: output truncated by a search limit", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_order(args) -> int:
    graph = _load_graph(args.file)
    has_identity = "yes" if graph.contains_identity else "no"
    if args.tsv:
        print(f"order\t{graph.order}")
        print(f"identity\t{has_identity}")
    else:
        print(graph.order)
        print(f"identity in S: {has_identity}")
    return EXIT_OK


def cmd_straight(args) -> int:
    limits = _limits(args)
    graph = _load_graph(args.file)
    if args.all:
        target = None
    else:
        aliases = load_word_aliases(sidecar_path(args.file))
        target = _resolve_target(graph, args.target, aliases)
    return _finish_search(graph, all_straight_words(graph, target, limits))


def cmd_perm(args) -> int:
    limits = _limits(args)
    graph = _load_graph(args.file)
    states = _parse_states(args.set)
    if args.words:
        return _finish_search(graph, straight_permutator_words(graph, states, limits))
    if args.minimal:
        return _finish_search(graph, minimal_straight_permutators(graph, states, limits))
    ps = perm_semigroup(graph, states)
    if args.group_order:
        if args.tsv:
            print(f"group_order\t{ps.restriction_group_order}")
        else:
            print(ps.restriction_group_order)
    elif args.tsv:
        print(f"perm_order\t{len(ps.element_indices)}")
    else:
        print(f"|Perm(Y)| = {len(ps.element_indices)}")
    return EXIT_OK


def cmd_factorize(args) -> int:
    graph = _load_graph(args.file)
    p = graph.presentation
    aliases = load_word_aliases(sidecar_path(args.file))
    word = parse_cli_word(p, args.word, aliases)
    factors = factorize(graph, word, _parse_states(args.set))
    for i, factor in enumerate(factors, 1):
        if args.tsv:
            print(f"factor\t{i}\t{p.format_word(factor)}")
        else:
            print(p.format_word(factor))
    return EXIT_OK


def cmd_reduce(args) -> int:
    graph = _load_graph(args.file)
    p = graph.presentation
    aliases = load_word_aliases(sidecar_path(args.file))
    word = parse_cli_word(p, args.word, aliases)
    reduced = reduce_word(graph, word)
    if args.tsv:
        print(f"reduced\t{p.format_word(reduced)}")
        print(f"length_before\t{len(word)}")
        print(f"length_after\t{len(reduced)}")
    else:
        print(p.format_word(reduced))
        print(f"length: {len(word)} -> {len(reduced)}")
    return EXIT_OK


def cmd_trajectory(args) -> int:
    graph = _load_graph(args.file)
    aliases = load_word_aliases(sidecar_path(args.file))
    word = parse_cli_word(graph.presentation, args.word, aliases)
    for i, node in enumerate(graph.trajectory(word)):
        form = print_linear(graph.element(node))
        if args.tsv:
            print(f"node\t{i}\t{node}\t{form}")
        else:
            print(form)
    return EXIT_OK


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
                        help="inspect the permutators of a state subset")
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
    except (PresentationFileError, NotationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotInSemigroup as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_SEMIGROUP
    except NotAPermutatorWord as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PERMUTATOR
    except EnumerationLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except (StraytError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
