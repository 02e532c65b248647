"""Backtracking enumeration of straight words and straight paths.

Words come out in length order with ties broken lexicographically by
letter position. A depth-first pass over the Cayley graph, in letter
order, drops each word into the bucket of its length, and the buckets
joined give that order: one pass to the length bound answers a search
without a result cap, while a capped search deepens one length at a time
so that it stops at the shortest words. A step onto an already visited
node is taken only when it closes a loop at the starting node as the
word's final letter, which is exactly the straightness condition. Every
search is one call of `search` with its own emit test, and the graph is
read-only throughout.
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
    proper prefix. The result is truncated only when a word beyond
    max_results exists within the length bound.
    """
    # Without max_results, one pass to the length bound finds every word.
    # With it, the bound deepens one length at a time and each pass keeps
    # only the words of its own length, up to the first word beyond the
    # cap: a short answer must not wait for a walk through every long
    # path, and the extra word proves the truncation. No straight
    # trajectory can use more edges than there are nodes, which is the
    # hard bound.
    if limits is None:
        limits = SearchLimits()
    max_len = graph.size if limits.max_length is None else min(limits.max_length, graph.size)
    cap = limits.max_results
    if cap is None:
        return WordSearch(tuple(_walk(graph, start, emit, minimal, 1, max_len)[0]))
    found: list[Word] = []
    for length in range(1, max_len + 1):
        words, cut = _walk(graph, start, emit, minimal, length, length, cap + 1 - len(found))
        found += words
        if len(found) > cap or not cut:
            break
    return WordSearch(tuple(found[:cap]), truncated=len(found) > cap)


def _walk(graph: CayleyGraph, start: int, emit: Callable[[int], bool], minimal: bool,
          shortest: int, bound: int, room: int | None = None) -> tuple[list[Word], bool]:
    """One depth-first pass, in letter order, over the straight paths from
    start of at most bound edges.

    Returns the words of length shortest..bound in length-then-letters
    order, and whether some path was cut at the bound. Each word goes into
    the bucket of its length, which depth-first order fills in letter
    order. A pass over one length (shortest == bound) stops once it holds
    room words.
    """
    k = graph.num_letters
    step = graph.step
    loop = emit(start)
    buckets: list[list[Word]] = [[], []]
    cut = False

    word: list[int] = []
    path = [start]
    visited = {start}
    pending = [iter(range(k))]
    while pending:
        node = path[-1]
        depth = len(path)  # length of a word ending with the next step
        bucket = buckets[depth]
        descended = False
        for letter in pending[-1]:
            nxt = step(node, letter)
            if nxt == start:
                hit = loop
            elif nxt in visited:
                continue
            else:
                hit = emit(nxt)
            if hit and depth >= shortest:
                bucket.append(tuple(word) + (letter,))
                if len(bucket) == room:
                    return bucket, True
            if nxt == start or (minimal and hit):
                continue
            if depth == bound:
                cut = True
                continue
            visited.add(nxt)
            path.append(nxt)
            word.append(letter)
            pending.append(iter(range(k)))
            if len(buckets) == depth + 1:
                buckets.append([])
            descended = True
            break
        if not descended:
            pending.pop()
            visited.discard(path.pop())
            if word:
                word.pop()
    return [w for bucket in buckets for w in bucket], cut


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
    if not _reaches(graph, start, goal):
        return WordSearch(())
    return search(graph, start, lambda node: node == goal, limits)


def _reaches(graph: CayleyGraph, start: int, goal: int) -> bool:
    """Whether a nonempty path leads from start to goal.

    Every node but 0 is a product of generators and so is reached from
    node 0; node 0 is reached again exactly when a word realizes the
    identity. From other starts this is one breadth-first walk.
    """
    if start == 0:
        return goal != 0 or graph.contains_identity
    step = graph.step
    reached = {start}
    queue = [start]
    for node in queue:
        for letter in range(graph.num_letters):
            nxt = step(node, letter)
            if nxt == goal:
                return True
            if nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)
    return False


def straight_permutator_words(graph: CayleyGraph, states: Sequence[int],
                              limits: SearchLimits | None = None) -> WordSearch:
    """Straight words whose realization permutes the given state set."""
    return search(graph, 0, permuting(graph, states), limits)
