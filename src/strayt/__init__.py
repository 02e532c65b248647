"""Finite transformation semigroups: enumeration, straight words, and
permutators of state subsets."""

from .core import (NotAPermutator, Presentation, StraytError, Transformation,
                   check_word, compose, evaluate, identity, permutes, restrict,
                   stateset)
from .notation import NotationError, parse_images, parse_linear, print_linear
from .cayley import (CayleyGraph, EnumerationLimitExceeded, NotInSemigroup,
                     enumerate_semigroup)
from .straightwords import (SearchLimits, WordSearch, all_straight_words,
                            permuting, search, straight_paths,
                            straight_permutator_words)
from .permutator import (NotAPermutatorWord, PermutatorSemigroup, factorize,
                         is_minimal_permutator, minimal_straight_permutators,
                         perm_semigroup, reduce_word, retract, subgroup_closure)
from .cli import (PresentationFileError, fixture_path, load_presentation,
                  load_word_aliases, parse_cli_word)

__version__ = "0.1.0"

__all__ = [
    "CayleyGraph",
    "EnumerationLimitExceeded",
    "NotAPermutator",
    "NotAPermutatorWord",
    "NotInSemigroup",
    "NotationError",
    "Presentation",
    "PresentationFileError",
    "PermutatorSemigroup",
    "SearchLimits",
    "StraytError",
    "Transformation",
    "WordSearch",
    "all_straight_words",
    "check_word",
    "compose",
    "enumerate_semigroup",
    "evaluate",
    "factorize",
    "fixture_path",
    "identity",
    "is_minimal_permutator",
    "load_presentation",
    "load_word_aliases",
    "minimal_straight_permutators",
    "parse_cli_word",
    "parse_images",
    "parse_linear",
    "perm_semigroup",
    "permutes",
    "permuting",
    "print_linear",
    "reduce_word",
    "restrict",
    "retract",
    "search",
    "stateset",
    "straight_paths",
    "straight_permutator_words",
    "subgroup_closure",
]
