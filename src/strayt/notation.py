"""Linear (bracket) notation for transformations: parser and printer.

The grammar, with whitespace between tokens ignored:

    form      = component*
    component = "(" [ entry ("," entry)* ] ")" | entry
    entry     = point | "[" source ("," source)* ";" point "]"
    source    = point | "[" source ("," source)* ";" point "]"
    point     = decimal integer

A parenthesized component lists the targets of a cycle in order; a bare
component is a fixed target. Every source maps to the target of the
bracket it sits in, recursively, so the cycle points are the sinks of
trees of transient points. Points that are not mentioned stay fixed, each
point may be mentioned at most once, and the identity map prints (and
parses) as "()".

`print_linear` is canonical: each cycle starts at its smallest target,
sources are sorted by their own point, components are sorted
by the smallest point occurring anywhere in them, and a source without
sub-sources prints as a bare point.
"""

from __future__ import annotations

import re

from .core import StraytError, Transformation


class NotationError(StraytError):
    """Malformed linear notation or image list."""


_TOKEN = re.compile(r"\s*(\d+|[][(),;])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if not text[pos:].strip():
                break
            raise NotationError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    """Reads the components in order; an image is written when its bracket or cycle closes."""

    def __init__(self, tokens: list[str], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.images = list(range(1, n + 1))
        self.seen: set[int] = set()

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise NotationError("unexpected end of input")
        if expect is not None and tok != expect:
            raise NotationError(f"expected {expect!r}, got {tok!r}")
        self.pos += 1
        return tok

    def point(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise NotationError(f"expected a point, got {tok!r}")
        p = int(tok)
        if not 1 <= p <= self.n:
            raise NotationError(f"point {p} is outside 1..{self.n}")
        if p in self.seen:
            raise NotationError(f"point {p} mentioned twice")
        self.seen.add(p)
        return p

    def component(self) -> None:
        if self.peek() != "(":
            self.entry()  # a bare entry is a fixed target, already its own image
            return
        self.take("(")
        cycle = []
        if self.peek() != ")":
            cycle.append(self.entry())
            while self.peek() == ",":
                self.take(",")
                cycle.append(self.entry())
        self.take(")")
        for target, successor in zip(cycle, cycle[1:] + cycle[:1]):
            self.images[target - 1] = successor

    def entry(self) -> int:
        # iterative, so nesting depth is not bounded by the recursion limit;
        # each open bracket holds the points read so far inside it
        brackets: list[list[int]] = []
        while True:
            while self.peek() == "[":
                self.take("[")
                brackets.append([])
            done = self.point()
            while brackets:
                brackets[-1].append(done)
                if self.peek() == ",":
                    self.take(",")
                    break
                self.take(";")
                done = self.point()
                self.take("]")
                for source in brackets.pop():
                    self.images[source - 1] = done
            else:
                return done


def parse_linear(text: str, n: int) -> Transformation:
    """Parse linear notation into a transformation on {1..n}.

    The empty form and "()" give the identity map. A stray character is
    reported first; otherwise the first fault in reading order is.
    """
    if n < 1:
        raise ValueError("state count must be at least 1")
    parser = _Parser(_tokenize(text), n)
    while parser.peek() is not None:
        parser.component()
    return Transformation(parser.images)


def print_linear(s: Transformation) -> str:
    """Canonical linear notation; parse_linear(print_linear(s), s.n) == s."""
    n, img = s.n, s.images

    # points lying on cycles: each start point walks until it meets a marked
    # point; meeting one of its own marks closes a new cycle, walked once more
    mark = [0] * (n + 1)
    on_cycle = [False] * (n + 1)
    for x in range(1, n + 1):
        y = x
        while not mark[y]:
            mark[y] = x
            y = img[y - 1]
        while mark[y] == x and not on_cycle[y]:
            on_cycle[y] = True
            y = img[y - 1]

    # trees of transient points rooted at cycle points, feeders ascending
    feeders: list[list[int]] = [[] for _ in range(n + 1)]
    for x in range(1, n + 1):
        if not on_cycle[x]:
            feeders[img[x - 1]].append(x)

    # every tree rendered leaves first, without recursion, noting the least
    # point under each node
    tree = [x for x in range(1, n + 1) if on_cycle[x]]
    for q in tree:
        tree.extend(feeders[q])
    rendered = list(map(str, range(n + 1)))
    least = list(range(n + 1))
    for q in reversed(tree):
        srcs = feeders[q]
        if srcs:
            rendered[q] = f"[{','.join(rendered[r] for r in srcs)};{q}]"
            least[q] = min(q, min(least[r] for r in srcs))

    # the ascending scan meets every cycle first at its least point
    pieces: list[tuple[int, str]] = []
    for x in range(1, n + 1):
        if not on_cycle[x]:
            continue
        cycle = [x]
        y = img[x - 1]
        while y != x:
            on_cycle[y] = False  # read from x; the scan must not restart here
            cycle.append(y)
            y = img[y - 1]
        if len(cycle) > 1:
            text = "(" + ",".join(rendered[p] for p in cycle) + ")"
            pieces.append((min(least[p] for p in cycle), text))
        elif feeders[x]:
            pieces.append((least[x], rendered[x]))  # plain fixed points are omitted

    pieces.sort()
    return "".join(text for _, text in pieces) or "()"


def parse_images(text: str) -> Transformation:
    """Parse a whitespace-separated image list; entry i is the image of i."""
    tokens = text.split()
    if not tokens:
        raise NotationError("empty image list")
    images = []
    for tok in tokens:
        if not tok.isdecimal():
            raise NotationError(f"bad image entry {tok!r}")
        images.append(int(tok))
    n = len(images)
    for x in images:
        if not 1 <= x <= n:
            raise NotationError(f"image {x} is outside 1..{n}")
    return Transformation(images)
