"""Breadth-first enumeration of the generated semigroup and its Cayley graph.

The graph is immutable once built; enumeration itself is single-threaded
so that node numbering and first words are reproducible.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from .core import Presentation, StraytError, Transformation, check_word


MAX_STATES = 255  # images are packed one byte per state


class NotInSemigroup(StraytError):
    """The transformation is not generated by the presentation."""


class EnumerationLimitExceeded(StraytError):
    """Enumeration found more elements than the configured cap."""


class CayleyGraph:
    """The generated semigroup with the identity adjoined as node 0.

    Nodes 1.. are the generated elements in breadth-first discovery order,
    and every (node, letter) pair has an edge node -> node * generator;
    words over the presentation label paths from node 0. Three buffers
    hold the graph, and no per-node object or lookup table outlives
    enumeration: `_packed` keeps the maps node-major, n bytes per node, so
    a node's images read as one slice and a state's images over every node
    as one strided slice; `_edges[node * k + letter]` is that edge's
    target; `_found_by` keeps, for each node >= 1, the index in `_edges` of
    the edge that first reached it, which spells the node's first word.
    Node 0 is the identity map whether or not a nonempty word realizes it;
    `contains_identity` says whether some edge enters node 0.
    """

    def __init__(self, presentation: Presentation, packed: bytes, edges: array,
                 found_by: array):
        self.presentation = presentation
        self._packed = packed
        self._edges = edges
        self._found_by = found_by
        self._k = len(presentation.generators)
        self.contains_identity = 0 in edges

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
        if not 0 <= node < self.size:
            raise self._outside(node)
        check_word((letter,), self._k)
        return self._edges[node * self._k + letter]

    def successors(self, node: int) -> array:
        """The node's edge targets, one per letter in letter order."""
        k = self._k
        return self._edges[node * k:node * k + k]

    def walk(self, word: Sequence[int], start: int = 0) -> int:
        """End node of the path labeled by the word."""
        k = self._k
        check_word(word, k)
        edges = self._edges
        if not 0 <= start < len(edges) // k:
            raise self._outside(start)
        node = start
        for letter in word:
            node = edges[node * k + letter]
        return node

    def trajectory(self, word: Sequence[int]) -> tuple[int, ...]:
        """Nodes realized by the word's prefixes, starting at node 0."""
        check_word(word, self.num_letters)
        k = self.num_letters
        edges = self._edges
        node = 0
        nodes = [0]
        for letter in word:
            node = edges[node * k + letter]
            nodes.append(node)
        return tuple(nodes)

    def is_straight(self, word: Sequence[int]) -> bool:
        """Trajectory nodes pairwise distinct, allowing one final return to node 0."""
        nodes = self.trajectory(word)
        last = len(nodes) - 1
        seen: set[int] = set()
        for i, v in enumerate(nodes):
            if v in seen:
                return i == last and v == 0
            seen.add(v)
        return True

    def first_word(self, node: int) -> tuple[int, ...]:
        """The first word realizing the node in breadth-first order (node >= 1).

        First words are shortest, with ties broken by generator position,
        and are always straight.
        """
        if not 1 <= node < self.size:
            raise ValueError(f"node {node} has no defining word")
        letters = []
        while node != 0:
            node, letter = divmod(self._found_by[node], self._k)
            letters.append(letter)
        return tuple(reversed(letters))


def enumerate_semigroup(p: Presentation, max_elements: int | None = None) -> CayleyGraph:
    """Generate every product of the generators by breadth-first closure.

    Discovery order is fixed: elements appear in word-length order with
    ties broken by generator position, which pins node numbering and first
    words. `max_elements` caps the order (the identity counts once a
    product of generators equals it), raising EnumerationLimitExceeded
    beyond it. State counts above 255 are not supported (images are
    packed into bytes). The index of every map found and the current and
    next breadth-first levels exist only while the closure runs.
    """
    n = p.n
    if n > MAX_STATES:
        raise ValueError(f"enumeration supports at most {MAX_STATES} states")
    if max_elements is not None and max_elements < 1:
        raise ValueError(f"max_elements must be at least 1, got {max_elements}")
    base = bytes(range(256))
    tables = []
    for _, t in p.generators:
        tbl = bytearray(base)
        tbl[1:n + 1] = bytes(t.images)
        tables.append(bytes(tbl))

    ident = bytes(range(1, n + 1))
    packed = bytearray(ident)
    index = {ident: 0}
    found_by = array("i", [-1])
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
                    index[img] = nxt
                    fresh.append(img)
                    packed += img
                    found_by.append(len(edges))
                edges_append(nxt)
            if max_elements is not None and len(index) - 1 > max_elements:
                raise EnumerationLimitExceeded(
                    f"enumeration exceeded the cap of {max_elements} elements")
        level = fresh

    # the maps and their index serve only the closure; they go before the
    # buffer is copied, so the copy never adds to the peak
    del index, index_get, src, img
    graph = CayleyGraph(p, bytes(packed), edges, found_by)
    if max_elements is not None and graph.order > max_elements:  # the identity counts too
        raise EnumerationLimitExceeded(
            f"enumeration exceeded the cap of {max_elements} elements")
    return graph
