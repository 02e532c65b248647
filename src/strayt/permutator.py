"""Permutators of a state subset.

An element permutes a subset when it maps the subset onto itself, even if
it is not a permutation of the whole state set. This module collects the
permutator elements, recognizes and enumerates minimal permutator words,
factorizes permutator words uniquely into minimal ones, excises trajectory
loops to reach straight words, and combines the two into a retraction onto
products of straight minimal permutators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from typing import Callable, Sequence

from .core import StraytError, stateset
from .cayley import CayleyGraph
from .straightwords import SearchLimits, Word, WordSearch, permutator_search, permuting


class NotAPermutatorWord(StraytError):
    """The word does not permute the state set, so the operation does not apply."""


@dataclass(frozen=True)
class PermutatorSemigroup:
    """All generated elements mapping a state set onto itself."""

    states: frozenset[int]
    element_indices: frozenset[int]
    restriction_group_order: int


def perm_semigroup(graph: CayleyGraph, states: Sequence[int]) -> PermutatorSemigroup:
    """Collect every element whose action maps the state set onto itself.

    Node 0 counts only when the identity is itself a generated element.
    The members are closed under composition and restriction to the set
    is a homomorphism, so the distinct restrictions of the members are
    already closed: they form the restriction group, and its order is
    their number.
    """
    members = stateset(states, graph.presentation.n)
    mask = permuting(graph, members)
    first = 0 if graph.contains_identity else 1
    indices = list(compress(range(first, graph.size), mask[first:]))
    # each member's restriction, read across the state columns
    restrictions = set(zip(*[map(graph.column(y).__getitem__, indices) for y in sorted(members)]))
    return PermutatorSemigroup(members, frozenset(indices), len(restrictions))


def _node_permutes(graph: CayleyGraph, members: frozenset[int]) -> Callable[[int], bool]:
    """Test of one node's map against the set, for words too short to
    pay for a mask over the whole graph."""
    images = graph.images
    ys = [y - 1 for y in members]
    at = itemgetter(*ys, ys[0])  # one member read twice is still a tuple
    return lambda node: set(at(images(node))) == members


def is_minimal_permutator(graph: CayleyGraph, word: Sequence[int],
                          states: Sequence[int]) -> bool:
    """The word permutes the set and no proper nonempty prefix does.

    This is the same as not being a product of two or more permutator
    words: a permuting proper prefix u splits the word as uv where v also
    permutes (u maps the set onto itself, so the whole word doing the same
    forces v to), and conversely the first factor of any such product is a
    permuting proper prefix.
    """
    members = stateset(states, graph.presentation.n)
    nodes = graph.trajectory(word)
    permutes = _node_permutes(graph, members)
    return permutes(nodes[-1]) and not any(map(permutes, nodes[1:-1]))


def minimal_straight_permutators(graph: CayleyGraph, states: Sequence[int],
                                 limits: SearchLimits | None = None) -> WordSearch:
    """Enumerate the straight words permuting the set with no permuting proper prefix.

    The search never extends a branch past a node that permutes the set,
    which is exactly the minimality cut, so without limits the enumeration
    is complete (and finite, by the straight-word length bound).
    """
    return permutator_search(graph, states, limits, minimal=True)


def _not_a_permutator(e: bytes, members: frozenset[int]) -> NotAPermutatorWord:
    """The error for a word whose map e does not map the set onto itself: it
    names the first member mapped outside the set, else the least unreached."""
    for y in sorted(members):
        if e[y - 1] not in members:
            return NotAPermutatorWord(
                f"word does not permute {sorted(members)}: state {y} maps to {e[y - 1]}")
    lost = min(members.difference([e[y - 1] for y in members]))
    return NotAPermutatorWord(
        f"word does not permute {sorted(members)}: state {lost} is not reached from the set")


def factorize(graph: CayleyGraph, word: Sequence[int],
              states: Sequence[int]) -> list[Word]:
    """Split a permutator word at each first point its running prefix permutes the set.

    Every factor is a minimal permutator, the factors concatenate to the
    input, and no other split into minimal permutators exists. Words that
    do not permute the set raise NotAPermutatorWord.

    Cuts are read off the word's own trajectory: when a prefix u permutes
    the set, u followed by v maps the set onto v's image of it, so the
    running prefix of each factor permutes exactly where the whole prefix
    does. Each distinct node of the trajectory is tested once.
    """
    members = stateset(states, graph.presentation.n)
    nodes = graph.trajectory(word)
    hits = set(filter(_node_permutes(graph, members), set(nodes[1:])))
    if nodes[-1] not in hits:
        raise _not_a_permutator(graph.images(nodes[-1]), members)
    # the last node permutes, so the last cut ends the word
    cuts = list(compress(range(1, len(nodes)), map(hits.__contains__, nodes[1:])))
    word = tuple(word)
    return [word[begin:end] for begin, end in zip([0] + cuts, cuts)]


def reduce_word(graph: CayleyGraph, word: Sequence[int]) -> Word:
    """Excise trajectory loops until the word is straight.

    One pass over the trajectory: from each kept position, jump to the
    last occurrence of its node and keep the letter that leaves it. This
    equals excising, again and again, the loop from the earliest recurring
    node to its last occurrence, since each excision leaves a subsequence
    of the trajectory. The realized transformation never changes and the
    output is a subsequence of the input. A lone final return to node 0 is
    the allowed loop and is kept; when a word realizing the identity also
    wanders through node 0 earlier, the cut runs to the last interior
    occurrence so that the word never collapses to nothing.
    """
    nodes = graph.trajectory(word)
    end = len(word)
    last = dict(zip(nodes, range(len(nodes))))
    pos = last[0]
    if pos == end:
        pos = max(i for i in range(end) if nodes[i] == 0)
    out: list[int] = []
    while pos < end:
        out.append(word[pos])
        pos = last[nodes[pos + 1]]
    return tuple(out)


def retract(graph: CayleyGraph, word: Sequence[int],
            states: Sequence[int]) -> Word:
    """Replace each minimal factor of a permutator word by its straight reduction.

    Fixes every straight minimal permutator word, preserves the realized
    transformation, and distributes over concatenation of permutator
    words. The reduced factors stay minimal because excising loops only
    removes trajectory nodes, so no new permuting prefix can appear.
    Each distinct factor is reduced once.
    """
    factors = factorize(graph, word, states)
    reduced = {factor: reduce_word(graph, factor) for factor in set(factors)}
    return tuple(chain.from_iterable(map(reduced.__getitem__, factors)))


def subgroup_closure(graph: CayleyGraph, seeds: Sequence[Sequence[int]]) -> frozenset[int]:
    """Close the realizations of the seed words under composition.

    Each seed is checked once: one walk per seed reads the closed nodes
    in the order they are found, behind node 0, whose products are the
    seeds' own nodes.
    """
    if not seeds:
        raise ValueError("at least one seed word is required")
    nodes = [0]  # grows while the walks read it
    closed: set[int] = set()
    for products in zip(*[graph.walk_from(w, nodes) for w in seeds]):
        for product in products:
            if product not in closed:
                closed.add(product)
                nodes.append(product)
    return frozenset(closed)
