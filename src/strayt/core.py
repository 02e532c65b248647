"""Transformations of a finite state set, generator presentations, and words.

States are numbered 1..n. A transformation is a total map on {1..n} stored
as its image table. A word is a nonempty tuple of 0-based indices into a
presentation's generator list; evaluating a word applies its first letter
first. All objects here are immutable once built and safe to share.
"""

from __future__ import annotations

from typing import Iterable, Sequence

MAX_STATES = 255  # images are packed one byte per state


class StraytError(Exception):
    """Base class for errors raised by this package."""


class NotAPermutator(StraytError):
    """The transformation does not map the given state set onto itself."""


class Transformation:
    """A total map on {1..n}, stored as the images of 1, ..., n."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("a transformation needs at least one state")
        for x in images:
            if not (isinstance(x, int) and 1 <= x <= n):
                raise ValueError(f"image {x!r} is outside 1..{n}")
        self.images: tuple[int, ...] = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, state: int) -> int:
        """Image of a state under the map."""
        if not 1 <= state <= len(self.images):
            raise ValueError(f"state {state} is outside 1..{len(self.images)}")
        return self.images[state - 1]

    def __mul__(self, other: "Transformation") -> "Transformation":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transformation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Transformation({self.images!r})"

    def is_permutation(self) -> bool:
        return len(set(self.images)) == len(self.images)


def identity(n: int) -> Transformation:
    """The identity map on {1..n}."""
    if n < 1:
        raise ValueError("state count must be at least 1")
    return Transformation(range(1, n + 1))


def compose(s: Transformation, t: Transformation) -> Transformation:
    """The product "s then t": state x goes to t(s(x))."""
    if s.n != t.n:
        raise ValueError(f"cannot compose maps on {s.n} and {t.n} states")
    ti = t.images
    return Transformation(ti[x - 1] for x in s.images)


def check_word(word: Sequence[int], num_letters: int) -> None:
    """Reject empty words and out-of-range letters."""
    if len(word) == 0:
        raise ValueError("words must have at least one letter")
    for letter in word:
        if not (isinstance(letter, int) and 0 <= letter < num_letters):
            raise ValueError(f"letter {letter!r} is outside 0..{num_letters - 1}")


_BYTES = bytes(range(256))


class Presentation:
    """A state count together with an ordered list of named generator maps."""

    __slots__ = ("n", "generators", "names", "tables", "_positions", "_single_char")

    def __init__(self, n: int, generators: Iterable[tuple[str, Transformation]]) -> None:
        if n < 1:
            raise ValueError("state count must be at least 1")
        gens = tuple((name, t) for name, t in generators)
        if not gens:
            raise ValueError("at least one generator is required")
        positions: dict[str, int] = {}
        for i, (name, t) in enumerate(gens):
            if not isinstance(name, str) or not name:
                raise ValueError("generator names must be nonempty strings")
            if name.replace(".", " ").split() != [name]:  # `word` splits there
                raise ValueError(f"generator name {name!r} contains whitespace or '.'")
            if name in positions:
                raise ValueError(f"duplicate generator name {name!r}")
            if t.n != n:
                raise ValueError(f"generator {name!r} acts on {t.n} states, expected {n}")
            positions[name] = i
        self.n = n
        self.generators = gens
        self.names: tuple[str, ...] = tuple(positions)
        # each generator as a bytes.translate table: state x goes to its
        # image, every other byte to itself; a byte holds at most 255 states
        self.tables = tuple(_BYTES[:1] + bytes(t.images) + _BYTES[n + 1:]
                            for _, t in gens) if n <= MAX_STATES else ()
        self._positions = positions
        self._single_char = all(len(name) == 1 for name in positions)

    def word(self, text: str) -> tuple[int, ...]:
        """Parse a word written as generator names separated by spaces or dots.

        When every generator name is a single character, a run of names
        without separators is accepted as well, e.g. "bacbac".
        """
        tokens = text.replace(".", " ").split()
        if not tokens:
            raise ValueError("empty word")
        positions = self._positions
        try:
            if self._single_char:  # every character of every token is a name
                return tuple(map(positions.__getitem__, "".join(tokens)))
            return tuple(map(positions.__getitem__, tokens))
        except KeyError:
            # the first token that is neither a name nor a run of single-character names
            bad = next(tok for tok in tokens if tok not in positions
                       and not (self._single_char and set(tok) <= positions.keys()))
            raise ValueError(f"unknown generator name {bad!r}") from None

    def format_word(self, word: Sequence[int]) -> str:
        """Render a word with generator names.

        Single-character name sets concatenate; anything else joins with
        spaces, so the output is always re-parseable by `word`.
        """
        names = self.names
        check_word(word, len(names))  # a negative letter would index from the end
        return ("" if self._single_char else " ").join(map(names.__getitem__, word))


def evaluate(p: Presentation, word: Sequence[int]) -> Transformation:
    """The transformation realized by a word, first letter applied first."""
    check_word(word, len(p.generators))
    result = p.generators[word[0]][1]
    for letter in word[1:]:
        result = compose(result, p.generators[letter][1])
    return result


def stateset(states: Iterable[int], n: int) -> frozenset[int]:
    """Validate a nonempty subset of {1..n}."""
    members = frozenset(states)
    if not members:
        raise ValueError("state set must be nonempty")
    for y in members:
        if not (isinstance(y, int) and 1 <= y <= n):
            raise ValueError(f"state {y!r} is outside 1..{n}")
    return members


def permutes(s: Transformation, states: Iterable[int]) -> bool:
    """True when the image of the state set under s is the set itself."""
    members = stateset(states, s.n)
    return {s.images[y - 1] for y in members} == members


def restrict(s: Transformation, states: Iterable[int]) -> dict[int, int]:
    """The bijection induced on the state set; requires that s permutes it."""
    members = stateset(states, s.n)
    if {s.images[y - 1] for y in members} != members:
        raise NotAPermutator(f"map does not permute {sorted(members)}")
    return {y: s.images[y - 1] for y in members}
