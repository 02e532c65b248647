"""p53-search: capped searches and word operations on one enumerated p53 graph.

Set-up loads and enumerates p53, SETUPS times, reporting the fastest. A
round is a fixed list built from the seed: minimal straight permutators
and straight permutator words of four state sets, straight words to seeded
targets, one large capped listing of every straight word, the permutator
semigroups of {3,5,8} and {4,12} with a subgroup closure, and reduce,
factorize, retract and a rendered trajectory on fixed and seeded products
of the words `a`/`b`.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

import strayt as st

import checks
import oracle as O
from common import GRAPH, P53, SEARCH, WORD, Run, run_library

MIN_LEN = 7       # minimal_straight_permutators cap
SPW_LEN = 6       # straight_permutator_words cap
TARGET_LEN = 6    # straight words to a target
ALL_LEN = 7       # every straight word
TARGETS = 4       # seeded targets, half through each entry point
SEEDED_WORDS = 4  # seeded products of a and b, 6 to 12 factors each
WORD_SET = (3, 5, 8)
SETUPS = 5        # enumerations of p53 before the first round, 1.5-2 s each
FIXED_WORDS = {"@a": None, "@b": None,
               "@b @b @a @b @b": (73, 43), "@a @a @a @b @a @a @a": (93, 54)}


def setup(run: Run, repeats: int):
    """Load and enumerate p53 `repeats` times; keep the last graph."""
    graph = None
    for _ in range(repeats):
        graph = None
        gc.collect()
        t0 = perf_counter()
        p = st.load_presentation(O.P53_TSG)
        aliases = st.load_word_aliases(O.P53_WORDS)
        graph = st.enumerate_semigroup(p)
        run.record_setup([perf_counter() - t0])
    return p, aliases, graph


def build(rng: random.Random, pres: checks.Pres, p, aliases, graph, figures):
    """The round's operations: (class, label, call, check) with checks bound to the oracle."""
    ops = []
    specs = {}
    for ys in O.P53_SETS:
        specs["min", ys] = O.spec(MIN_LEN, O.permuting(ys), minimal=True)
        specs["spw", ys] = O.spec(SPW_LEN, O.permuting(ys))
    targets = [" ".join(rng.choice(pres.names) for _ in range(rng.randint(4, 6)))
               for _ in range(TARGETS)]
    for t in targets:
        m = pres.value(pres.word(t))
        specs["target", t] = O.spec(TARGET_LEN, m.__eq__, loop=m == pres.value(()))
    specs["all"] = O.spec(ALL_LEN, lambda m: True)
    O.straight_search(pres.n, pres.maps, list(specs.values()))

    def search_op(label, call, key):
        expected = specs[key]["digest"].value()
        ops.append((SEARCH, label, call, lambda words: checks.search(expected, words)))

    for ys in O.P53_SETS:
        search_op(f"minimal {ys}", lambda ys=ys: st.minimal_straight_permutators(
            graph, ys, st.SearchLimits(max_length=MIN_LEN)), ("min", ys))
        search_op(f"permutator words {ys}", lambda ys=ys: st.straight_permutator_words(
            graph, ys, st.SearchLimits(max_length=SPW_LEN)), ("spw", ys))
    for i, t in enumerate(targets):
        node = graph.walk(st.parse_cli_word(p, t))
        limits = st.SearchLimits(max_length=TARGET_LEN)
        if i % 2:
            call = lambda node=node: st.straight_paths(graph, 0, node, limits)
        else:
            call = lambda node=node: st.all_straight_words(graph, node, limits)
        search_op(f"target {t}", call, ("target", t))
    search_op("all words", lambda: st.all_straight_words(
        graph, None, st.SearchLimits(max_length=ALL_LEN)), "all")

    for ys in O.P53_SETS[:2]:
        want = figures["perm"][",".join(map(str, ys))]
        expected = (want["count"], want["group_order"])
        ops.append((GRAPH, f"perm semigroup {ys}",
                    lambda ys=ys: st.perm_semigroup(graph, ys),
                    lambda ps, e=expected: None if (len(ps.element_indices), ps.restriction_group_order) == e
                    else f"perm semigroup {(len(ps.element_indices), ps.restriction_group_order)}, oracle {e}"))
    seeds = [pres.word("@a"), pres.word("@b")]
    want = O.closure(pres.n, [pres.value(w) for w in seeds])[0]
    ops.append((GRAPH, "subgroup closure a, b", lambda: st.subgroup_closure(graph, seeds),
                lambda nodes: None if {bytes(graph.element(v).images) for v in nodes} == want
                else "subgroup closure differs from the oracle's"))

    texts = dict(FIXED_WORDS)
    for _ in range(SEEDED_WORDS):
        texts[" ".join(rng.choice(("@a", "@b")) for _ in range(rng.randint(6, 12)))] = None
    for text, lengths in texts.items():
        w = pres.word(text)

        def parsed(text=text):
            return st.parse_cli_word(p, text, aliases)

        ops.append((WORD, f"reduce {text}", lambda parsed=parsed: p.format_word(st.reduce_word(graph, parsed())),
                    lambda out, w=w, lengths=lengths: checks.reduced(pres, w, out, lengths)))
        ops.append((WORD, f"factorize {text}",
                    lambda parsed=parsed: [p.format_word(f) for f in st.factorize(graph, parsed(), WORD_SET)],
                    lambda out, w=w: checks.factors(pres, w, out, WORD_SET)))
        ops.append((WORD, f"retract {text}",
                    lambda parsed=parsed: p.format_word(st.retract(graph, parsed(), WORD_SET)),
                    lambda out, w=w: checks.retracted(pres, w, out, WORD_SET)))
        ops.append((WORD, f"trajectory {text}",
                    lambda parsed=parsed: [st.print_linear(graph.element(v)) for v in graph.trajectory(parsed())],
                    lambda out, w=w: checks.trajectory(pres, w, out)))
    return ops


def prepare(seed: int, run: Run, traced: bool):
    """Set up once if traced, else SETUPS times at once: a second p53 graph
    kept beside the first would double the run's memory."""
    p, aliases, graph = setup(run, 1 if traced else SETUPS)
    pres = checks.Pres.read(O.P53_TSG, O.P53_WORDS)
    figures = O.load_p53_figures()
    run.setup_check(graph.order == figures["order"]
                    and graph.contains_identity == figures["identity_in_s"],
                    f"p53 order {graph.order}, oracle {figures['order']}")
    ops = build(random.Random(seed), pres, p, aliases, graph, figures)
    return ops, None


# the process-floor probe of a traced run: a capped search through the CLI
PROBE = [["perm", P53, "--set", "3,5,8", "--minimal", "--max-len", "6"]]


def run(seed: int, seconds: float, traced: bool) -> dict:
    return run_library("p53-search", prepare, PROBE, seed, seconds, traced)
