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


# any run of these characters splits into tokens and whitespace, so a match
# that ends short of the text ends at the first stray character
_FORM = re.compile(r"[][\s\d(),;]*")
_TOKEN = re.compile(r"\d+|[][(),;]")


def _fault(expected: str, tok: str) -> NotationError:
    if not tok:
        return NotationError("unexpected end of input")
    return NotationError(f"expected {expected}, got {tok!r}")


def parse_linear(text: str, n: int) -> Transformation:
    """Parse linear notation into a transformation on {1..n}.

    The empty form and "()" give the identity map. A stray character is
    reported first; otherwise the first fault in reading order is.
    """
    if n < 1:
        raise ValueError("state count must be at least 1")
    at = _FORM.match(text).end()
    if at < len(text):
        raise NotationError(f"unexpected character {text[at]!r} at position {at}")
    tokens = _TOKEN.findall(text)
    tokens.append("")  # marks the end of input

    # one point per turn of the loop: the brackets opened before it, then
    # the brackets and the cycle it closes. An image is written when its
    # bracket or cycle closes; each open bracket holds the points read so
    # far inside it, so nesting depth is not bounded by the recursion limit
    images = list(range(1, n + 1))
    seen: set[int] = set()
    brackets: list[list[int]] = []
    cycle: list[int] | None = None  # the targets read so far in an open cycle
    target = False  # the point is the target after a ";"
    pos = 0
    while True:
        tok = tokens[pos]
        if not target:
            if cycle is None and not brackets:  # a component starts, or the form ends
                if not tok:
                    return Transformation(images)
                if tok == "(":
                    pos += 1
                    tok = tokens[pos]
                    if tok == ")":
                        pos += 1
                        continue
                    cycle = []
            while tok == "[":
                brackets.append([])
                pos += 1
                tok = tokens[pos]
        if not tok.isdigit():
            raise _fault("a point", tok)
        p = int(tok)
        if not 1 <= p <= n:
            raise NotationError(f"point {p} is outside 1..{n}")
        if p in seen:
            raise NotationError(f"point {p} mentioned twice")
        seen.add(p)
        pos += 1
        tok = tokens[pos]
        if target:
            if tok != "]":
                raise _fault("']'", tok)
            for source in brackets.pop():
                images[source - 1] = p
            pos += 1
            tok = tokens[pos]
            target = False
        if brackets:  # p is a source of the innermost open bracket
            brackets[-1].append(p)
            if tok != ",":
                if tok != ";":
                    raise _fault("';'", tok)
                target = True
            pos += 1
        elif cycle is not None:  # p ends an entry of the cycle
            cycle.append(p)
            if tok != ",":
                if tok != ")":
                    raise _fault("')'", tok)
                for x, successor in zip(cycle, cycle[1:] + cycle[:1]):
                    images[x - 1] = successor
                cycle = None
            pos += 1
        # otherwise p ends a bare entry, a fixed target that is already its own image


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
    try:
        return Transformation(images)
    except ValueError as exc:  # an image outside 1..n, in Transformation's words
        raise NotationError(str(exc)) from None
