"""Backtracking enumeration of straight words and straight paths.

Words come out in length order with ties broken lexicographically by
letter position. A depth-first pass over the Cayley graph, in letter
order, drops each word into the bucket of its length, and the buckets
joined give that order: one pass to the length bound answers a search
without a result cap, while a capped search deepens one length at a time
so that it stops at the shortest words, entering only nodes from which
an emitting node still lies within the length left. A step onto an
already visited node is taken only when it closes a loop at the starting
node as the word's final letter, which is exactly the straightness
condition. Every search is one call of `search` with its own emit mask:
one byte per node, set where a word ending there is emitted. All words
set every byte, a target sets one, and the permutators of a state set
come from `permuting`, which builds the mask from the graph's state
columns without a Python loop over nodes. The walk reads one successor
row per node it enters and keeps its visited nodes in a byte mask too;
the graph is read-only throughout.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Sequence

from .core import stateset
from .cayley import CayleyGraph

Word = tuple[int, ...]

# _ALL_SET[g] maps a byte to 1 exactly when its low g bits are all set
_ALL_SET = [bytes(int(b & ((1 << g) - 1) == (1 << g) - 1) for b in range(256))
            for g in range(9)]
# translate tables: _NONZERO maps every nonzero byte to 1, _ZERO maps 0 to 1
# and every other byte to 0
_NONZERO = bytes([0] + [1] * 255)
_ZERO = bytes([1] + [0] * 255)


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


def permuting(graph: CayleyGraph, states: Sequence[int]) -> bytes:
    """Byte mask over nodes: 1 where the node's map permutes the state set.

    The set is taken in groups of up to 8 states, each state of a group
    standing for one bit. A node's images of the whole set, translated to
    those bits and ORed together, cover every bit of every group exactly
    when they cover the set; |set| images covering the set equal it. Each
    group is one translate per state column, so no node is visited in
    Python.
    """
    members = sorted(stateset(states, graph.presentation.n))
    columns = [graph.column(y) for y in members]
    size = graph.size
    mask = -1
    for first in range(0, len(members), 8):
        group = members[first:first + 8]
        bits = bytearray(256)
        for bit, y in enumerate(group):
            bits[y] = 1 << bit
        covered = 0
        for column in columns:
            covered |= int.from_bytes(column.translate(bits), "big")
        full = covered.to_bytes(size, "big").translate(_ALL_SET[len(group)])
        mask &= int.from_bytes(full, "big")
    return mask.to_bytes(size, "big")


def search(graph: CayleyGraph, start: int, emit: bytes | bytearray,
           limits: SearchLimits | None, minimal: bool = False) -> WordSearch:
    """Words labeling straight paths from start to a node set in the emit mask.

    `emit` holds one byte per node, nonzero where a word ending there is
    emitted. A path returns to start only as its final step, and such a
    loop word counts when emit[start] is set. With minimal, a path stops
    at its first node after start set in emit, so no emitted word has an
    emitting proper prefix. The result is truncated only when a word beyond
    max_results exists within the length bound. A start outside
    0..size-1, or a mask that is not one byte per node, raises ValueError.
    """
    # Without max_results, one pass to the length bound finds every word.
    # With it, the bound deepens one length at a time and each pass keeps
    # only the words of its own length, up to the first word beyond the
    # cap: a short answer must not wait for a walk through every long
    # path, and the extra word proves the truncation. Deepening stops once
    # a pass cuts no path that could still reach an emitting node, so the
    # passes walk only the nodes that can. No straight trajectory can use
    # more edges than there are nodes, which is the hard bound. A search
    # that can reach no emitting node ends at once: the single pass asks
    # _reaches first, and the capped passes find no live node to enter.
    size = graph.size
    if not 0 <= start < size:
        raise ValueError(f"start node {start} is outside 0..{size - 1}")
    if len(emit) != size:
        raise ValueError(f"emit mask has {len(emit)} bytes, expected {size}")
    if limits is None:
        limits = SearchLimits()
    max_len = size if limits.max_length is None else min(limits.max_length, size)
    cap = limits.max_results
    if cap is None:
        if not _reaches(graph, start, emit):
            return WordSearch(())
        return WordSearch(tuple(_walk(graph, start, emit, minimal, 1, max_len)[0]))
    reach = _reach(graph, emit, max_len)
    found: list[Word] = []
    for length in range(1, max_len + 1):
        words, cut = _walk(graph, start, emit, minimal, length, length,
                           cap + 1 - len(found), reach)
        found += words
        if len(found) > cap or not cut:
            break
    return WordSearch(tuple(found[:cap]), truncated=len(found) > cap)


def _reach(graph: CayleyGraph, emit: bytes | bytearray, bound: int) -> bytes:
    """Byte mask over nodes: 1 + the fewest edges from the node to a node
    set in emit, or 0 when none lies within bound - 1 edges.

    One breadth-first pass over the reversed edges, which are kept as
    linked lists in two flat arrays: first[w] is the last edge into w and
    after[e] the edge into the same node before e, -1 ending a list; edge
    e leaves node e // k. Distances above 254 read as 255, a lower bound
    that never reads as unreachable.
    """
    size, k = graph.size, graph.num_letters
    successors = graph.successors
    first = array("i", [-1]) * size
    after = array("i", [-1]) * (size * k)
    e = 0
    for node in range(size):
        for nxt in successors(node):
            after[e] = first[nxt]
            first[nxt] = e
            e += 1
    reach = bytearray(emit.translate(_NONZERO))
    frontier = list(compress(range(size), reach))
    far = 1
    while frontier and far < bound:
        far += 1
        fresh = []
        for nxt in frontier:
            e = first[nxt]
            while e >= 0:
                node = e // k
                if not reach[node]:
                    reach[node] = min(far, 255)
                    fresh.append(node)
                e = after[e]
        frontier = fresh
    return bytes(reach)


def _walk(graph: CayleyGraph, start: int, emit: bytes | bytearray, minimal: bool,
          shortest: int, bound: int, room: int | None = None,
          reach: bytes | None = None) -> tuple[list[Word], bool]:
    """One depth-first pass, in letter order, over the straight paths from
    start of at most bound edges.

    Returns the words of length shortest..bound in length-then-letters
    order, and whether some path was cut at the bound. Each word goes into
    the bucket of its length, which depth-first order fills in letter
    order. A pass over one length (shortest == bound) stops once it holds
    room words. Each node on the path reads its successor row once. With
    a reach mask (see `_reach`) the pass never enters a node that cannot
    reach an emitting node, and it cuts a path at a node whose nearest
    emitting node lies beyond the bound.
    """
    successors = graph.successors
    loop = emit[start]
    buckets: list[list[Word]] = [[], []]
    cut = False

    word: list[int] = []
    path = [start]
    # unreachable nodes count as visited from the start, so no step enters one
    visited = bytearray(graph.size) if reach is None else bytearray(reach.translate(_ZERO))
    visited[start] = 1
    pending = [iter(enumerate(successors(start)))]
    while pending:
        depth = len(path)  # length of a word ending with the next step
        bucket = buckets[depth]
        descended = False
        for letter, nxt in pending[-1]:
            if nxt == start:
                hit = loop
            elif visited[nxt]:
                continue
            else:
                hit = emit[nxt]
            if hit and depth >= shortest:
                bucket.append(tuple(word) + (letter,))
                if len(bucket) == room:
                    return bucket, True
            if nxt == start or (minimal and hit):
                continue
            if depth == bound or (reach and depth + reach[nxt] > bound + 1):
                cut = True
                continue
            visited[nxt] = 1
            path.append(nxt)
            word.append(letter)
            pending.append(iter(enumerate(successors(nxt))))
            if len(buckets) == depth + 1:
                buckets.append([])
            descended = True
            break
        if not descended:
            pending.pop()
            visited[path.pop()] = 0
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
        return search(graph, 0, b"\x01" * graph.size, limits)
    return straight_paths(graph, 0, target, limits)


def straight_paths(graph: CayleyGraph, start: int, goal: int,
                   limits: SearchLimits | None = None) -> WordSearch:
    """Words labeling node-repetition-free paths from start to goal.

    With start == goal the results are the simple cycles returning to the
    start on their final step; otherwise a path never revisits a node.
    Starting at node 0 this coincides with all_straight_words(target=goal).
    """
    if not 0 <= goal < graph.size:
        raise ValueError(f"goal node {goal} is outside 0..{graph.size - 1}")
    emit = bytearray(graph.size)
    emit[goal] = 1
    return search(graph, start, emit, limits)


def _reaches(graph: CayleyGraph, start: int, emit: bytes | bytearray) -> bool:
    """Whether a nonempty path leads from start to a node set in emit.

    Every node but 0 is a product of generators and so is reached from
    node 0; node 0 is reached again exactly when a word realizes the
    identity. From other starts this is one breadth-first walk.
    """
    if start == 0:  # some node after 0 is set, or 0 is set and realized
        return len(emit.rstrip(b"\0")) > 1 or bool(emit[0] and graph.contains_identity)
    successors = graph.successors
    reached = bytearray(graph.size)
    reached[start] = 1
    queue = [start]
    for node in queue:
        for nxt in successors(node):
            if emit[nxt]:
                return True
            if not reached[nxt]:
                reached[nxt] = 1
                queue.append(nxt)
    return False


def straight_permutator_words(graph: CayleyGraph, states: Sequence[int],
                              limits: SearchLimits | None = None) -> WordSearch:
    """Straight words whose realization permutes the given state set."""
    return search(graph, 0, permuting(graph, states), limits)
