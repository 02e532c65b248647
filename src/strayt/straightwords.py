"""Backtracking enumeration of straight words and straight paths.

Words come out in length order with ties broken lexicographically by
letter position, produced by iterative deepening over the Cayley graph. A
step onto an already visited node is taken only when it closes a loop at
the starting node as the word's final letter, which is exactly the
straightness condition. Every search is one call of `search` with its
own emit test, and the graph is read-only throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .core import stateset
from .cayley import CayleyGraph

Word = tuple[int, ...]


@dataclass(frozen=True)
class SearchLimits:
    """Caps for word searches; None leaves the hard length bound in charge."""

    max_length: int | None = None
    max_results: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_length", "max_results"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class WordSearch:
    """Words found by a search, plus whether a limit cut it short."""

    words: tuple[Word, ...]
    truncated: bool = False

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: object) -> bool:
        return tuple(word) in self.words


def permuting(graph: CayleyGraph, states: Sequence[int]) -> Callable[[int], bool]:
    """Memoized per-node test of whether a node's map permutes the state set."""
    members = stateset(states, graph.presentation.n)
    images = graph.images
    cache: dict[int, bool] = {}

    def node_permutes(node: int) -> bool:
        hit = cache.get(node)
        if hit is None:
            e = images(node)
            hit = {e[y - 1] for y in members} == members
            cache[node] = hit
        return hit

    return node_permutes


def search(graph: CayleyGraph, start: int, emit: Callable[[int], bool],
           limits: SearchLimits | None, minimal: bool = False) -> WordSearch:
    """Words labeling straight paths from start to a node where emit holds.

    A path returns to start only as its final step, and such a loop word
    counts when emit(start) holds. With minimal, a path stops at its first
    node after start where emit holds, so no emitted word has an emitting
    proper prefix.
    """
    # Iterative deepening: one lexicographic depth-first pass per exact
    # length, so the stream is globally ordered and truncation by
    # max_results keeps a correct prefix of it. No straight trajectory can
    # use more edges than there are nodes, which bounds the deepening.
    if limits is None:
        limits = SearchLimits()
    k = graph.num_letters
    step = graph.step
    hard_bound = graph.size
    max_len = hard_bound if limits.max_length is None else min(limits.max_length, hard_bound)
    max_results = limits.max_results
    loop = emit(start)
    out: list[Word] = []

    for length in range(1, max_len + 1):
        reached_depth = False
        word: list[int] = []
        path = [start]
        visited = {start}
        pending = [iter(range(k))]
        while pending:
            node = path[-1]
            descended = False
            for letter in pending[-1]:
                nxt = step(node, letter)
                depth = len(word) + 1
                if nxt == start:
                    # closing a loop ends the word; shorter loops were
                    # emitted at their own length
                    if depth == length:
                        reached_depth = True
                        if loop:
                            out.append(tuple(word) + (letter,))
                            if max_results is not None and len(out) >= max_results:
                                return WordSearch(tuple(out), truncated=True)
                    continue
                if nxt in visited:
                    continue
                if depth == length:
                    reached_depth = True
                    if emit(nxt):
                        out.append(tuple(word) + (letter,))
                        if max_results is not None and len(out) >= max_results:
                            return WordSearch(tuple(out), truncated=True)
                    continue
                if minimal and emit(nxt):
                    continue
                visited.add(nxt)
                path.append(nxt)
                word.append(letter)
                pending.append(iter(range(k)))
                descended = True
                break
            if not descended:
                pending.pop()
                dropped = path.pop()
                if dropped != start:
                    visited.discard(dropped)
                if word:
                    word.pop()
        if not reached_depth:
            break
    return WordSearch(tuple(out))


def all_straight_words(graph: CayleyGraph, target: int | None = None,
                       limits: SearchLimits | None = None) -> WordSearch:
    """Every straight word, or only those realizing the target node.

    Loop words, which realize the identity, are included when no target is
    given or the target is node 0.
    """
    if target is None:
        return search(graph, 0, lambda node: True, limits)
    return straight_paths(graph, 0, target, limits)


def straight_paths(graph: CayleyGraph, start: int, goal: int,
                   limits: SearchLimits | None = None) -> WordSearch:
    """Words labeling node-repetition-free paths from start to goal.

    With start == goal the results are the simple cycles returning to the
    start on their final step; otherwise a path never revisits a node.
    Starting at node 0 this coincides with all_straight_words(target=goal).
    """
    for name, node in (("start", start), ("goal", goal)):
        if not 0 <= node < graph.size:
            raise ValueError(f"{name} node {node} is outside 0..{graph.size - 1}")
    return search(graph, start, lambda node: node == goal, limits)


def straight_permutator_words(graph: CayleyGraph, states: Sequence[int],
                              limits: SearchLimits | None = None) -> WordSearch:
    """Straight words whose realization permutes the given state set."""
    return search(graph, 0, permuting(graph, states), limits)
