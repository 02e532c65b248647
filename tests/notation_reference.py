"""The linear-notation parser and printer as they were before each became
one walk, kept verbatim as the reference the current ones must match.

This version checks the whole form's syntax before it checks any point,
and then checks each bracket's target ahead of its sources.
"""

from __future__ import annotations

import re

from strayt import NotationError, Transformation

_TOKEN = re.compile(r"\s*(\d+|[][(),;])")

# an entry is (point, sources) with each source again an entry
_Entry = tuple[int, list]


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
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

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
        return int(tok)

    def form(self) -> list[tuple[bool, list[_Entry]]]:
        components = []
        while self.peek() is not None:
            components.append(self.component())
        return components

    def component(self) -> tuple[bool, list[_Entry]]:
        if self.peek() != "(":
            return False, [self.entry()]
        self.take("(")
        entries: list[_Entry] = []
        if self.peek() != ")":
            entries.append(self.entry())
            while self.peek() == ",":
                self.take(",")
                entries.append(self.entry())
        self.take(")")
        return True, entries

    def entry(self) -> _Entry:
        # iterative, so nesting depth is not bounded by the recursion limit;
        # each open bracket holds the sources read so far inside it
        brackets: list[list[_Entry]] = []
        while True:
            while self.peek() == "[":
                self.take("[")
                brackets.append([])
            done: _Entry = (self.point(), [])
            while brackets:
                brackets[-1].append(done)
                if self.peek() == ",":
                    self.take(",")
                    break
                self.take(";")
                target = self.point()
                self.take("]")
                done = (target, brackets.pop())
            else:
                return done


def parse_linear(text: str, n: int) -> Transformation:
    """Parse linear notation into a transformation on {1..n}.

    The empty form and "()" give the identity map.
    """
    if n < 1:
        raise ValueError("state count must be at least 1")
    components = _Parser(_tokenize(text)).form()
    images = list(range(1, n + 1))
    seen: set[int] = set()

    def mention(p: int) -> None:
        if not 1 <= p <= n:
            raise NotationError(f"point {p} is outside 1..{n}")
        if p in seen:
            raise NotationError(f"point {p} mentioned twice")
        seen.add(p)

    def place_sources(target: int, sources: list[_Entry]) -> None:
        # depth-first in written order, so errors name the first bad point
        stack = [(target, iter(sources))]
        while stack:
            target, rest = stack[-1]
            for point, subs in rest:
                mention(point)
                images[point - 1] = target
                if subs:
                    stack.append((point, iter(subs)))
                    break
            else:
                stack.pop()

    for is_cycle, entries in components:
        targets = []
        for target, sources in entries:
            mention(target)
            targets.append(target)
            place_sources(target, sources)
        k = len(targets)
        for i, t in enumerate(targets):
            images[t - 1] = targets[(i + 1) % k] if is_cycle and k > 1 else t
    return Transformation(images)


def print_linear(s: Transformation) -> str:
    """Canonical linear notation; parse_linear(print_linear(s), s.n) == s."""
    n, img = s.n, s.images

    # points lying on cycles of the functional graph
    on_cycle: set[int] = set()
    visited = [False] * (n + 1)
    for x in range(1, n + 1):
        if visited[x]:
            continue
        path: list[int] = []
        path_pos: dict[int, int] = {}
        y = x
        while y not in path_pos and not visited[y]:
            path_pos[y] = len(path)
            path.append(y)
            y = img[y - 1]
        if y in path_pos:
            on_cycle.update(path[path_pos[y]:])
        for p in path:
            visited[p] = True

    # trees of transient points rooted at cycle points
    preds: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        if x not in on_cycle:
            preds.setdefault(img[x - 1], []).append(x)
    for feeders in preds.values():
        feeders.sort()

    # every tree rendered leaves first, without recursion
    tree = list(on_cycle)
    for q in tree:
        tree.extend(preds.get(q, ()))
    rendered: dict[int, str] = {}
    for q in reversed(tree):
        srcs = preds.get(q)
        rendered[q] = f"[{','.join(rendered[r] for r in srcs)};{q}]" if srcs else str(q)

    def lowest_point(cycle: list[int]) -> int:
        lo = min(cycle)
        stack = list(cycle)
        while stack:
            q = stack.pop()
            lo = min(lo, q)
            stack.extend(preds.get(q, ()))
        return lo

    pieces: list[tuple[int, str]] = []
    done: set[int] = set()
    for x in range(1, n + 1):
        if x not in on_cycle or x in done:
            continue
        cycle = [x]
        y = img[x - 1]
        while y != x:
            cycle.append(y)
            y = img[y - 1]
        done.update(cycle)
        if len(cycle) == 1 and cycle[0] not in preds:
            continue  # plain fixed point, omitted
        start = cycle.index(min(cycle))
        rotated = cycle[start:] + cycle[:start]
        entries = [rendered[p] for p in rotated]
        text = entries[0] if len(rotated) == 1 else "(" + ",".join(entries) + ")"
        pieces.append((lowest_point(cycle), text))

    if not pieces:
        return "()"
    pieces.sort()
    return "".join(text for _, text in pieces)
