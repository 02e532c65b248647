"""Breadth-first enumeration of the generated semigroup and its Cayley graph.

The graph is immutable once built, apart from a table derived from its
edges on first use; enumeration itself is single-threaded so that node
numbering and first words are reproducible.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Iterator, Sequence

from .core import Presentation, StraytError, Transformation, check_word


class NotInSemigroup(StraytError):
    """The transformation is not generated by the presentation."""


class EnumerationLimitExceeded(StraytError):
    """Enumeration found more elements than the configured cap."""


class CayleyGraph:
    """The generated semigroup with the identity adjoined as node 0.

    Nodes 1.. are the generated elements in breadth-first discovery order,
    and every (node, letter) pair has an edge node -> node * generator;
    words over the presentation label paths from node 0. Two buffers hold
    the graph, and no per-node object or lookup table outlives
    enumeration: `_packed` keeps the maps node-major, n bytes per node, so
    a node's images read as one slice and a state's images over every node
    as one strided slice; `_edges[node * k + letter]` is that edge's
    target. `_found_by`, for each node >= 1 the index in `_edges` of the
    edge that first reached it, which spells the node's first word, is
    built on the first `first_word` call. Node 0 is the identity map
    whether or not a nonempty word realizes it; `contains_identity`, given
    by `enumerate_semigroup`, says whether one does, which is exactly when
    some generator is a permutation: a product's rank is at most each
    factor's, so a word for the identity uses permutations only, and a
    permutation g of order m has g^m the identity.
    """

    def __init__(self, presentation: Presentation, packed: bytes, edges: array,
                 contains_identity: bool):
        self.presentation = presentation
        self._packed = packed
        self._edges = edges
        self._found_by: array | None = None
        self._k = len(presentation.generators)
        self.contains_identity = contains_identity

    @property
    def num_letters(self) -> int:
        return self._k

    @property
    def size(self) -> int:
        """Number of nodes: the generated elements plus the identity node."""
        return len(self._packed) // self.presentation.n

    @property
    def order(self) -> int:
        """Number of elements realized by nonempty words."""
        return self.size - 1 + (1 if self.contains_identity else 0)

    def element(self, node: int) -> Transformation:
        return Transformation(self.images(node))

    def images(self, node: int) -> bytes:
        """The node's map as the images of states 1..n."""
        n = self.presentation.n
        row = self._packed[node * n:node * n + n]
        if node < 0 or not row:
            raise self._outside(node)
        return row

    def _outside(self, node: int) -> ValueError:
        return ValueError(f"node {node} is outside 0..{self.size - 1}")

    def column(self, state: int) -> bytes:
        """Every node's image of the state, in node order."""
        n = self.presentation.n
        if not 1 <= state <= n:
            raise ValueError(f"state {state} is outside 1..{n}")
        return self._packed[state - 1::n]

    def element_index(self, s: Transformation) -> int:
        """Node of a transformation, or NotInSemigroup if no node holds it.

        The identity map finds node 0 even when `contains_identity` is false.
        A linear scan of the packed maps: a match that straddles two nodes
        is skipped, and the scan resumes at the next node boundary.
        """
        n = self.presentation.n
        if s.n != n:
            raise NotInSemigroup(
                f"map on {s.n} states cannot lie in a semigroup on {n} states")
        key = bytes(s.images)
        packed = self._packed
        at = packed.find(key)
        while at >= 0 and at % n:
            at = packed.find(key, at - at % n + n)
        if at < 0:
            raise NotInSemigroup(f"{s!r} is not generated by the presentation")
        return at // n

    def step(self, node: int, letter: int) -> int:
        """The node's edge target for the letter."""
        return self.walk((letter,), node)

    def successors(self, node: int) -> array:
        """The node's edge targets, one per letter in letter order."""
        k = self._k
        return self._edges[node * k:node * k + k]

    def walk(self, word: Sequence[int], start: int = 0) -> int:
        """End node of the path labeled by the word."""
        return next(self.walk_from(word, (start,)))

    def walk_from(self, word: Sequence[int], starts: Iterable[int]) -> Iterator[int]:
        """End node of the word's path from each start, as the starts come.

        The word is checked once, at the call, and each start as it is
        read, so `starts` may be a list that grows while it is read.
        """
        k = self._k
        check_word(word, k)
        edges = self._edges
        size = len(edges) // k

        def end(node: int) -> int:
            if not 0 <= node < size:
                raise self._outside(node)
            for letter in word:
                node = edges[node * k + letter]
            return node

        return map(end, starts)

    def trajectory(self, word: Sequence[int]) -> tuple[int, ...]:
        """Nodes realized by the word's prefixes, starting at node 0."""
        k = self._k
        check_word(word, k)
        edges = self._edges
        node = 0
        return (0, *[node := edges[node * k + letter] for letter in word])

    def is_straight(self, word: Sequence[int]) -> bool:
        """Trajectory nodes pairwise distinct, allowing one final return to node 0."""
        nodes = self.trajectory(word)
        if nodes[-1] == 0:  # a final return to node 0, or the empty word's one node
            nodes = nodes[:-1]
        return len(set(nodes)) == len(nodes)

    def first_word(self, node: int) -> tuple[int, ...]:
        """The first word realizing the node in breadth-first order (node >= 1).

        First words are shortest, with ties broken by generator position,
        and are always straight. The first call builds the table of first
        edges in one pass over the edges (about 0.12 s on p53).
        """
        if not 1 <= node < self.size:
            raise ValueError(f"node {node} has no defining word")
        found_by = self._found_by
        if found_by is None:
            # a node is numbered as its first edge is appended, so first
            # occurrences in `_edges` rise with the node; the table is kept
            # only once whole, so a racing reader sees all of it or none
            find, at = self._edges.index, -1
            found_by = array("i", [-1])
            for v in range(1, self.size):
                at = find(v, at + 1)
                found_by.append(at)
            self._found_by = found_by
        letters = []
        while node != 0:
            node, letter = divmod(found_by[node], self._k)
            letters.append(letter)
        return tuple(reversed(letters))


def enumerate_semigroup(p: Presentation, max_elements: int | None = None) -> CayleyGraph:
    """Generate every product of the generators by breadth-first closure.

    Discovery order is fixed: elements appear in word-length order with
    ties broken by generator position, which pins node numbering and first
    words. `max_elements` caps the order, raising EnumerationLimitExceeded
    as the node that passes it is added, the one place the cap is tested:
    the identity counts from the start when some generator is a
    permutation, which is when a product of generators equals it. The
    closure keeps the maps and the edges only; the index of every map found
    and the current and next breadth-first levels exist only while it runs,
    and first words are derived from the edges when first asked for.
    """
    n = p.n
    if max_elements is not None and max_elements < 1:
        raise ValueError(f"max_elements must be at least 1, got {max_elements}")
    contains_identity = any(t.is_permutation() for _, t in p.generators)
    limit = (sys.maxsize if max_elements is None else max_elements) - contains_identity
    tables = p.tables
    ident = bytes(range(1, n + 1))
    packed = bytearray(ident)
    index = {ident: 0}
    edges = array("i")
    edges_append = edges.append
    index_get = index.get

    level = [ident]
    while level:  # one breadth-first level at a time, in discovery order
        fresh = []
        for src in level:
            for tbl in tables:
                img = src.translate(tbl)
                nxt = index_get(img)
                if nxt is None:
                    nxt = len(index)
                    if nxt > limit:
                        raise EnumerationLimitExceeded(
                            f"enumeration exceeded the cap of {max_elements} elements")
                    index[img] = nxt
                    fresh.append(img)
                    packed += img
                edges_append(nxt)
        level = fresh

    # the maps and their index serve only the closure; they go before the
    # buffer is copied, so the copy never adds to the peak
    del index, index_get, src, img
    return CayleyGraph(p, bytes(packed), edges, contains_identity)
