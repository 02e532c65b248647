"""Backtracking enumeration of straight words and straight paths.

Words come out in length order with ties broken lexicographically by
letter position. A depth-first pass over the Cayley graph, in letter
order, drops each word into the bucket of its length, and the buckets
joined give that order. Each search runs one walk (`_walk`), given only
a length bound and a result cap (`_length_bound`): one pass to the bound
answers an uncapped search, and a capped walk makes one pass per length,
so that it stops at the shortest words. A step onto an already visited
node is taken only when it closes a loop at the starting node as the
word's final letter, which is exactly the straightness condition.

A search returns at once a `WordSearch` that hands its words over while
its walk runs. The nearness of the start's successors (below) bounds the
least word length from below. The words of that length, if any, come
first, and depth-first order finds them in letter order, so each is
final the moment the walk finds it; the longer words follow when the
pass ends. A capped walk hands over each word of a pass as it finds it,
and marks the result truncated itself.

The walk reads one byte per node, its nearness: 1 when no emitting node
lies within the length bound, 2 when a word ending there is emitted, and
2 + d when no emitting node is nearer than d edges on: a lower bound on
2 + the node's distance to an emitting node, which every search but the
unguided walk below gives exactly. The walk never enters a node of
nearness 1 and cuts a path whose nearest emitting node lies beyond the
bound. Every search trims this one way; the searches differ only in
where the bytes come from:

- every straight word: every node emits;
- `search`, with a caller's emit mask: the nodes themselves, reached
  from the start by a forward breadth-first pass over the graph's edges;
- the permutators of a state set Y, and the paths to a goal node t: a
  guide, the forward orbit of one state set under the generators' action
  on subsets (Linton, Pfeiffer, Robertson and Ruskuc, Computing
  transformation semigroups, 2002). A node's set is the one its map
  makes of the starting set, and the walk carries along its path the row
  of sets each node's letters lead to, one lookup from its parent's row;
  a node's nearness is its set's distance to the goal set, read the
  first time the walk sees the node. For Y the set of node u is Y·u, and
  u·v permutes Y exactly when v maps Y·u onto Y; sets smaller than Y are
  dropped, since images never grow. For t the set of u is the pairs
  (u(x), t(x)), one per state x, and a letter moves the first of each
  pair: u·v = t exactly when v maps them onto the pairs (t(x), t(x)). A
  set in which one first has two seconds is dropped, since u then joins
  two states that t keeps apart. Both distances are exact, so a node
  emits exactly when its set is the goal set. When t keeps all states
  apart, its pairs name the node u itself, so the orbit is as large as
  the part of the graph it covers and an orbit edge costs more than a
  graph edge: such a goal goes to `search`, as its only emitting node;
- a walk too short to pay for a guide, on a graph of few edges or under
  a tight length bound (`_worth_a_guide`): every node that does not emit
  reads 3, the weakest bound, the permutators of Y coming from the
  `permuting` mask, which builds them from the graph's state columns
  without a Python loop over nodes.

`search` and the guides go forward only as deep as the length bound
allows, and then take distances back from the goals in one reverse
breadth-first pass (`_distances`), which a point enters only when a path
within the bound can meet it on the way to a goal.

A path to a goal node ends there, since it can never come back. The walk
reads one successor row per node it enters and keeps its visited nodes
in a byte mask; the graph is read-only throughout.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core import stateset
from .cayley import CayleyGraph

Word = tuple[int, ...]

# _ALL_SET[g] maps a byte to 1 exactly when its low g bits are all set
_ALL_SET = [bytes(int(b & ((1 << g) - 1) == (1 << g) - 1) for b in range(256))
            for g in range(9)]
# translates an emit mask to nearness: 0 to 3 (not emitting), the rest to 2
_UNKNOWN = bytes([3] + [2] * 255)
# Before it saves anything, a guide costs about what an unguided walk
# through this many nodes costs: a few microseconds to set up, then 3 to 4
# walk steps per set image (measured on 330 seeded census presentations).
# A walk that can enter no more nodes goes unguided, and so does every walk
# on a graph of no more edges: there the straight paths a guide spares
# were too few to pay for it (on the seeded small census, guides on such
# graphs slowed the median complete search by 6 to 136 percent).
_GUIDE_COST = 32


@dataclass(frozen=True)
class SearchLimits:
    """Caps for word searches; None leaves the hard length bound in charge."""

    max_length: int | None = None
    max_results: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_length", "max_results"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


class WordSearch:
    """Words found by a search, in order, plus whether a limit cut it short.

    A search hands its words over while its walk runs: iterating yields
    each word as soon as it is final, and keeps it, so a result can be
    iterated again, or by several iterators at once, each seeing every
    word once. `words`, `truncated`, `len`, `in`, `==` and `hash` finish
    the walk first. An iterator dropped part way leaves the walk where it
    was, for the next reader to go on with. A walk stopped by an
    exception, such as an interrupt, is not resumed: the result raises
    RuntimeError from then on. A result whose walk still runs must not be
    read from two threads at once.
    """

    __slots__ = ("_words", "_truncated", "_walk")

    def __init__(self, words: Iterable[Word], truncated: bool = False) -> None:
        self._words = tuple(words)  # a list while a walk appends to it
        self._truncated = truncated
        self._walk = None  # or the walk, read through _chunks, or the exception that stopped it

    def _chunks(self, found: list[Word],
                walk: Iterator[None] | BaseException) -> Iterator[list[Word]]:
        if isinstance(walk, BaseException):
            raise RuntimeError("the search was stopped by an exception") from walk
        seen = 0
        try:
            for _ in walk:
                chunk = found[seen:]
                seen += len(chunk)
                yield chunk
        except GeneratorExit:  # the iterator was dropped
            raise
        except BaseException as error:
            self._walk = error
            raise
        if self._walk is walk:  # the walk ended here
            self._words = tuple(found)
            self._walk = None
        self._finish()  # else it ended elsewhere, or an exception stopped it there
        if seen < len(found):
            yield found[seen:]

    def _finish(self) -> None:
        if self._walk is not None:
            for _ in self._chunks(self._words, self._walk):
                pass

    def __iter__(self) -> Iterator[Word]:
        if self._walk is None:
            return iter(self._words)
        return chain.from_iterable(self._chunks(self._words, self._walk))

    @property
    def words(self) -> tuple[Word, ...]:
        self._finish()
        return self._words

    @property
    def truncated(self) -> bool:
        self._finish()
        return self._truncated

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: object) -> bool:
        try:
            return tuple(word) in self.words
        except TypeError:  # not iterable, so not a word
            return False

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.words, self.truncated) == (other.words, other.truncated)

    def __hash__(self) -> int:
        return hash((self.words, self.truncated))

    def __repr__(self) -> str:
        return f"WordSearch(words={self.words!r}, truncated={self.truncated!r})"

    def __reduce__(self):
        return WordSearch, (self.words, self.truncated)


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

    The walk enters only nodes from which an emitting node lies within the
    length left. A breadth-first pass reads one queue, which grows while it
    is read, from start; it expands no node at the length bound, nor with
    minimal an emitting node, since no minimal path passes one. It notes
    each node's depth when it first sees the node and keeps each edge it
    crosses reversed; the distances back from the emitting nodes it met
    (`_distances`) are the walk's nearness.
    """
    max_len, cap = _length_bound(graph, start, limits)
    size, k = graph.size, graph.num_letters
    if len(emit) != size:
        raise ValueError(f"emit mask has {len(emit)} bytes, expected {size}")
    successors = graph.successors
    depths = array("i", [-1]) * size
    first = array("i", [-1]) * size
    after = array("i", [-1]) * (size * k)
    depths[start] = 0
    goals = [start] if emit[start] else []
    queue = [start]
    for node in queue:  # grows while it is read
        depth = depths[node] + 1  # that of the nodes it leads to
        if depth > max_len:
            break
        e = node * k
        for nxt in successors(node):
            after[e] = f = first[nxt]
            first[nxt] = e
            e += 1
            if f < 0 and nxt != start:  # the first edge into nxt
                depths[nxt] = depth
                if emit[nxt]:
                    goals.append(nxt)
                    if minimal:
                        continue
                queue.append(nxt)
    near = bytearray(b"\x01") * size
    _distances(near, goals, first, after, k, depths, max_len)
    return _deepen(graph, start, near, max_len, cap, minimal)


def _length_bound(graph: CayleyGraph, start: int,
                  limits: SearchLimits | None) -> tuple[int, int | None]:
    """The length bound, max_length but never more than the node count (no
    straight trajectory has more edges), and the result cap, max_results,
    of the limits. A start outside the graph raises ValueError."""
    size = graph.size
    if not 0 <= start < size:
        raise ValueError(f"start node {start} is outside 0..{size - 1}")
    if limits is None:
        return size, None
    return size if limits.max_length is None else min(limits.max_length, size), limits.max_results


def _deepen(graph: CayleyGraph, start: int, near: bytes | bytearray, max_len: int,
            cap: int | None, minimal: bool, guide: tuple | None = None) -> WordSearch:
    """A search's result: no words yet, and a walk, not started, that hands them over."""
    result = WordSearch(())
    result._words = []
    result._walk = _walk(result, graph, start, near, guide, minimal, max_len, cap)
    return result


def _distances(near: bytearray, goals: list[int], first: Sequence[int], after: Sequence[int],
               k: int, depths: Sequence[int], bound: int) -> None:
    """Write into near, which reads 1 at every point on entry, each point's
    nearness (see the module docstring): 2 at a goal, 2 + d at a point d
    edges before its nearest goal, and 1 left where no path of at most
    `bound` letters from the start meets a goal through the point.

    One breadth-first pass from the goals over the reversed edges, which
    are kept as linked lists in two flat arrays: first[w] is the last edge
    into w and after[e] the edge into the same point before e, -1 ending a
    list; edge e leaves point e // k. A point enters d edges back only
    when depths[point] + d <= bound, its depth being the fewest letters
    from the start to it. Nearness above 254 reads as 255, a lower bound
    that never reads as unreachable.
    """
    for goal in goals:
        near[goal] = 2
    frontier = goals
    letters = 0
    while frontier:
        letters += 1
        fresh = []
        for nxt in frontier:
            e = first[nxt]
            while e >= 0:
                point = e // k
                if near[point] == 1 and depths[point] + letters <= bound:
                    near[point] = min(letters + 2, 255)
                    fresh.append(point)
                e = after[e]
        frontier = fresh


def _guide(tables: Sequence[bytes], seed: bytes, goal: Hashable, bound: int,
           keyof: Callable[[bytes], Hashable] = frozenset) -> tuple[bytearray, list]:
    """The forward orbit of the state set `seed` under the generators'
    `tables`, as far as a walk of at most `bound` letters can use it.

    A letter moves every member of a set, and keyof(members) names the
    set: frozenset for plain sets, or the frozenset of pairs that matches
    each member with a fixed second (the i-th member with seconds[i]). A
    set smaller than the goal set, or one in which a member has two
    seconds, is dropped.

    Returns the guide (far, rows). Set 0 is `seed` and the others follow
    in breadth-first order; rows[i][letter] is the set that the letter
    maps set i onto, for each set i that a path of fewer than `bound`
    letters reaches, and -1 for a dropped set, or one other than the goal
    set first reached at the bound. far[i] is 2 + the fewest letters of a
    word mapping set i onto the goal set, or 1 when no path through set i
    can reach the goal set within the bound; far[-1] is 1.
    """
    least = len(goal)
    index = {keyof(seed): 0}
    get = index.get
    sets = [seed]
    depths = [0]
    first: list[int] = [-1]  # the orbit edges reversed, as `_distances` reads them
    after: list[int] = []
    rows = []
    for i, members in enumerate(sets):  # grows while it is read
        deeper = depths[i] + 1
        if deeper > bound:
            break
        row = []
        for table in tables:
            image = members.translate(table)
            key = keyof(image)
            g = get(key)
            if g is None:
                if (len(key) < least or len(set(image)) < len(key)
                        or (deeper == bound and key != goal)):
                    g = -1
                else:
                    g = len(sets)
                    sets.append(image)
                    depths.append(deeper)
                    first.append(-1)
                index[key] = g
            if g >= 0:  # edge len(after) leaves set i, as i * k + letter
                after.append(first[g])
                first[g] = len(after) - 1
            else:
                after.append(-1)
            row.append(g)
        rows.append(row)
    far = bytearray(b"\x01") * (len(sets) + 1)
    _distances(far, [index[goal]] if goal in index else [], first, after, len(tables),
               depths, bound)
    return far, rows


def _walk(result: WordSearch, graph: CayleyGraph, start: int, near: bytes | bytearray,
          guide: tuple | None, minimal: bool, max_len: int, cap: int | None) -> Iterator[None]:
    """Depth-first passes, in letter order, over the straight paths from
    start of at most max_len edges, appending their words to the result's
    list in length-then-letters order, and yielding after each word they
    append while they run.

    Without a cap, one pass to max_len finds every word. Each word goes
    into the bucket of its length, which depth-first order fills in letter
    order. Since nearness bounds 2 + distance from below, no word is
    shorter than the least nearness above 1 in the start's successor row,
    less 1. The words of that length, if any, come first: they go to the
    result as the pass finds them, and the other buckets follow when it
    ends. With a cap, the bound deepens one length at a time, and each pass
    hands over only the words of its own length, as it finds them: a short
    answer must not wait for a walk through every long path, and one word
    beyond the cap proves the truncation. That word, which is dropped,
    marks the result truncated and ends the walk; a pass that cuts no path
    at its bound ends it too, since no longer word is left.

    The path is its last node, that node's word, the unread steps of its
    successor row and, in a guided walk, its orbit row `sets`, over one
    frame of the same four for each node before it, so each node on the
    path reads its row once per pass; the start reads its row once, and
    every pass shares one visited mask. `near` holds each node's nearness
    (see the module docstring). A guided search passes a zeroed `near`
    and the guide (far, rows) from `_guide`: the walk reads an unknown 0
    as far[sets[letter]] the first time it sees the node, and entering
    the node moves `sets` to rows[sets[letter]], rows[0] at start. A
    node's set depends on the node alone, and every node entered lies
    fewer than max_len letters from start, so its set has a row. Other
    searches pass no guide and no 0 bytes, and their `sets` stays None.
    """
    successors = graph.successors
    far, rows = guide or (None, None)
    found = result._words
    closing = 2 if (near[start] or far[0]) == 2 else 1  # a step back to start emits or is dead
    row = successors(start)
    if cap is None:  # one pass; no word is shorter than eager, 254 where the row reads 255
        least = 255
        for letter, nxt in enumerate(row):
            f = closing if nxt == start else near[nxt] or far[rows[0][letter]]
            if 1 < f < least:
                least = f
        shortest, eager, bounds = 1, least - 1, (max_len,)
    else:  # one pass per length, which keeps only the words of that length
        bounds = range(1, max_len + 1)
    visited = bytearray(len(near))
    visited[start] = 1
    for bound in bounds:
        if cap is not None:
            shortest = eager = bound
        limit = bound + 2
        buckets: list[list[Word]] = [[], []]
        cut = False
        depth = 1  # length of a word ending with the next step
        bucket = buckets[1]
        node, prefix, steps, sets = start, (), enumerate(row), rows and rows[0]
        frames: list[tuple] = []
        while True:
            for letter, nxt in steps:
                if visited[nxt]:
                    if nxt != start:
                        continue
                    f = closing
                else:
                    f = near[nxt]
                    if not f:  # first seen: its set is its parent's set moved by the letter
                        f = near[nxt] = far[sets[letter]]
                if f < 3:
                    if f < 2:
                        continue
                    word = prefix + (letter,)
                    if depth >= shortest:
                        if depth != eager:
                            bucket.append(word)
                        elif len(found) == cap:
                            result._truncated = True
                            return
                        else:
                            found.append(word)
                            yield
                    if minimal or nxt == start:
                        continue
                    if depth == bound:
                        cut = True
                        continue
                elif depth + f > limit:  # the nearest emitting node lies beyond the bound
                    cut = True
                    continue
                else:
                    word = prefix + (letter,)
                visited[nxt] = 1
                frames.append((node, prefix, steps, sets))
                node, prefix, steps = nxt, word, enumerate(successors(nxt))
                sets = rows and rows[sets[letter]]
                depth += 1
                if len(buckets) == depth:
                    buckets.append([])
                bucket = buckets[depth]
                break
            else:
                if not frames:  # the start's row has run out
                    break
                visited[node] = 0
                node, prefix, steps, sets = frames.pop()
                depth -= 1
                bucket = buckets[depth]
        for bucket in buckets:
            found += bucket
        if not cut:
            return


def all_straight_words(graph: CayleyGraph, target: int | None = None,
                       limits: SearchLimits | None = None) -> WordSearch:
    """Every straight word, or only those realizing the target node.

    Loop words, which realize the identity, are included when no target is
    given or the target is node 0.
    """
    if target is None:
        max_len, cap = _length_bound(graph, 0, limits)
        return _deepen(graph, 0, b"\x02" * graph.size, max_len, cap, False)
    return straight_paths(graph, 0, target, limits)


def straight_paths(graph: CayleyGraph, start: int, goal: int,
                   limits: SearchLimits | None = None) -> WordSearch:
    """Words labeling node-repetition-free paths from start to goal.

    With start == goal the results are the simple cycles returning to the
    start on their final step; otherwise a path never revisits a node.
    Starting at node 0 this coincides with all_straight_words(target=goal).
    A path ends at goal, since it can never come back there. A walk long
    enough to pay for it is guided by the orbit of the pairs
    (start(x), goal(x)), unless goal keeps all states apart.
    """
    max_len, cap = _length_bound(graph, start, limits)
    if not 0 <= goal < graph.size:
        raise ValueError(f"goal node {goal} is outside 0..{graph.size - 1}")
    if not _worth_a_guide(graph, max_len):
        near = bytearray(b"\x03") * graph.size
        near[goal] = 2
        return _deepen(graph, start, near, max_len, cap, True)
    seconds = graph.images(goal)
    if len(set(seconds)) == len(seconds):
        emit = bytearray(graph.size)
        emit[goal] = 1
        return search(graph, start, emit, limits, True)
    guide = _guide(graph.presentation.tables, graph.images(start),
                   frozenset(zip(seconds, seconds)), max_len,
                   lambda members: frozenset(zip(members, seconds)))
    return _deepen(graph, start, bytearray(graph.size), max_len, cap, True, guide)


def straight_permutator_words(graph: CayleyGraph, states: Sequence[int],
                              limits: SearchLimits | None = None) -> WordSearch:
    """Straight words whose realization permutes the given state set."""
    return permutator_search(graph, states, limits)


def permutator_search(graph: CayleyGraph, states: Sequence[int],
                      limits: SearchLimits | None = None,
                      minimal: bool = False) -> WordSearch:
    """Straight words permuting the state set. With minimal, a path stops
    at its first permuting node, which gives the minimal straight
    permutators. A walk long enough to pay for it is guided by the set's
    orbit; a shorter one reads the `permuting` mask."""
    max_len, cap = _length_bound(graph, 0, limits)
    if not _worth_a_guide(graph, max_len):
        near = permuting(graph, states).translate(_UNKNOWN)
        return _deepen(graph, 0, near, max_len, cap, minimal)
    members = bytes(sorted(stateset(states, graph.presentation.n)))
    guide = _guide(graph.presentation.tables, members, frozenset(members), max_len)
    return _deepen(graph, 0, bytearray(graph.size), max_len, cap, minimal, guide)


def _worth_a_guide(graph: CayleyGraph, bound: int) -> bool:
    """Whether a walk of at most `bound` letters may pay for a guide: the
    graph has more than _GUIDE_COST edges, and the walk may enter more
    than _GUIDE_COST nodes, k + k^2 + ... + k^(bound - 1) of them over k
    letters."""
    k = graph.num_letters
    if graph.size * k <= _GUIDE_COST:
        return False
    return bound > _GUIDE_COST + 1 or (k > 1 and (k ** bound - k) // (k - 1) > _GUIDE_COST)
