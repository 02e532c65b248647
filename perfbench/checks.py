"""Checks of the program's outputs against the oracle and the method's properties.

Each check returns None when the output is right and a short reason when it
is not. Words arrive as text, the way a user reads them, and are parsed by
the oracle's own reader.
"""

from __future__ import annotations

import oracle as O


class Pres:
    """A presentation as the oracle sees it."""

    def __init__(self, n: int, names: list[str], maps: list[bytes], aliases=None):
        self.n = n
        self.names = names
        self.maps = maps
        self.aliases = aliases or {}

    @classmethod
    def read(cls, path, aliases_path=None) -> "Pres":
        n, names, maps = O.read_tsg(path)
        aliases = O.read_aliases(aliases_path) if aliases_path else {}
        return cls(n, names, maps, aliases)

    def word(self, text: str) -> tuple[int, ...]:
        return O.parse_word(self.names, text, self.aliases)

    def value(self, word) -> bytes:
        return O.evaluate(self.n, self.maps, word)


def _subsequence(short, long) -> bool:
    it = iter(long)
    return all(x in it for x in short)


def reduced(pres: Pres, word, text: str, lengths=None) -> str | None:
    """A reduction is a straight subsequence realizing the same map."""
    r = pres.word(text)
    if not r:
        return "empty reduction"
    if not O.is_straight(pres.n, pres.maps, r):
        return f"reduction {text!r} is not straight"
    if not _subsequence(r, word):
        return f"reduction {text!r} is not a subsequence"
    if pres.value(r) != pres.value(word):
        return f"reduction {text!r} realizes another map"
    if lengths is not None and (len(word), len(r)) != lengths:
        return f"reduction {len(word)} -> {len(r)}, expected {lengths[0]} -> {lengths[1]}"
    return None


def factors(pres: Pres, word, texts: list[str], states) -> str | None:
    """Factors concatenate to the word and are minimal permutators."""
    parts = [pres.word(t) for t in texts]
    if tuple(x for f in parts for x in f) != tuple(word):
        return "factors do not concatenate to the word"
    for f in parts:
        if not O.is_minimal(pres.n, pres.maps, f, states):
            return f"factor {O.format_word(pres.names, f)!r} is not a minimal permutator"
    return None


def _oracle_factors(pres: Pres, word, states) -> list[tuple[int, ...]]:
    out, begin = [], 0
    ident = m = bytes(range(1, pres.n + 1))
    tbl = O.tables(pres.maps)
    for pos, x in enumerate(word):
        m = m.translate(tbl[x])
        if O.permutes(m, states):
            out.append(tuple(word[begin:pos + 1]))
            begin, m = pos + 1, ident
    return out


def retracted(pres: Pres, word, text: str, states) -> str | None:
    """Same map, and a product of straight minimal permutators, one per factor."""
    r = pres.word(text)
    if pres.value(r) != pres.value(word):
        return "retraction realizes another map"
    parts = _oracle_factors(pres, r, states)
    if len(parts) != len(_oracle_factors(pres, word, states)):
        return "retraction has another number of minimal factors"
    for f in parts:
        if not O.is_straight(pres.n, pres.maps, f):
            return "retraction has a factor that is not straight"
    return None


def trajectory(pres: Pres, word, forms: list[str]) -> str | None:
    """One linear form per prefix, each parsing to the prefix's map."""
    pm = O.prefix_maps(pres.n, pres.maps, word)
    if len(forms) != len(pm):
        return f"{len(forms)} trajectory nodes, expected {len(pm)}"
    for i, (form, m) in enumerate(zip(forms, pm)):
        if O.parse_linear(form, pres.n) != m:
            return f"trajectory node {i} prints {form!r}"
    return None


def search(expected: str, words) -> str | None:
    """Ordered by length then letters, no duplicates, and the oracle's list."""
    got, ordered = O.words_digest(words)
    if not ordered:
        return "words out of order or repeated"
    if got != expected:
        return f"word list {got} differs from the oracle's {expected}"
    return None


def listing(pres: Pres, expected: str, lines: list[str]) -> str | None:
    """CLI word lists: each line a word and the linear form of its map."""
    words = []
    for line in lines:
        text, _, form = line.partition("\t")
        w = pres.word(text)
        if O.parse_linear(form, pres.n) != pres.value(w):
            return f"line {line!r} prints the wrong map"
        words.append(w)
    return search(expected, words)
