"""small-census and medium-census: many seeded random presentations.

For each shape (state count, generator count), draws whose semigroup size
lies outside the census's range are rejected, as the oracle decides from
the seed, until `per_shape` are accepted. Each accepted draw is written as
a linear-notation file; set-up reads each back with `load_presentation`
and enumerates it, once before the first round and then once a second
(SETUP_EVERY_S) between rounds; set-up time sums each file's fastest. A
round then runs, for each presentation and a state set Y that some
element permutes: four searches (complete where the oracle finds the tree
of straight words small, else capped at `capped_len` letters), the
permutator semigroup of Y, a subgroup closure, reduce, factorize and
retract on long seeded words, and print/parse round trips of seeded
elements.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
from time import perf_counter

import strayt as st

import checks
import oracle as O
from common import GRAPH, HERE, SEARCH, WORD, Run, run_library



class Census:
    """The parameters of one census workload."""

    def __init__(self, name, states, generators, per_shape, min_elements, cap,
                 capped_len, long_words):
        self.name = name
        self.states = states                # state counts drawn
        self.generators = generators        # generator counts drawn
        self.per_shape = per_shape          # accepted draws per (states, generators)
        self.min_elements = min_elements    # semigroup sizes accepted ...
        self.cap = cap                      # ... up to this many elements
        self.capped_len = capped_len        # length cap of a search that is not small
        self.long_words = long_words        # length range of the seeded long words


CENSUSES = {
    "small-census": Census("small-census", (3, 4, 5), (2, 3, 4), 30, 1, 200, 3, (40, 80)),
    "medium-census": Census("medium-census", (6, 7, 8), (2, 3), 10, 300, 3000, 6, (100, 200)),
}
SMALL_NODES = 300    # a straight-word tree this small, and
SMALL_DEPTH = 8      # this shallow, is searched completely
NAMES = "abcd"


class Draw:
    def __init__(self, rng: random.Random, n: int, k: int, census: Census):
        self.n = n
        self.names = list(NAMES[:k])
        self.maps = [bytes(rng.randint(1, self.n) for _ in range(self.n)) for _ in range(k)]
        found = O.closure(self.n, self.maps, cap=census.cap)
        if found is None or len(found[0]) < census.min_elements:
            found = None, None
        self.elements, self.has_identity = found
        self.pres = checks.Pres(self.n, self.names, self.maps)

    @property
    def accepted(self) -> bool:
        return self.elements is not None

    def text(self) -> str:
        lines = [f"states {self.n}"]
        for name, m in zip(self.names, self.maps):
            lines.append(f"{name} = {st.print_linear(st.Transformation(m))}")
        return "\n".join(lines) + "\n"


def setup(paths, cap: int, run: Run):
    """Load and enumerate every accepted draw once, timing each."""
    gc.collect()
    graphs, pieces = [], []
    for path in paths:
        t0 = perf_counter()
        graphs.append(st.enumerate_semigroup(st.load_presentation(path), max_elements=cap))
        pieces.append(perf_counter() - t0)
    run.record_setup(pieces)
    return graphs


def _small(d: Draw) -> bool:
    """Whether the tree of all straight words has few nodes and little depth."""
    probe = O.spec(SMALL_DEPTH + 1, lambda m: True)
    finished = O.straight_search(d.n, d.maps, [probe], node_budget=SMALL_NODES)
    return finished and SMALL_DEPTH + 1 not in probe["digest"].buckets


def _random_word(rng, d: Draw, lo: int, hi: int) -> str:
    return "".join(rng.choice(d.names) for _ in range(rng.randint(lo, hi)))


def build(rng: random.Random, d: Draw, g, census: Census) -> list:
    """The operations on one accepted presentation."""
    pres = d.pres
    p = g.presentation
    ident = bytes(range(1, d.n + 1))
    size = len(d.elements) + (0 if d.has_identity else 1)

    # Y is the image of an idempotent power e of a seeded element, so e permutes Y
    u = _random_word(rng, d, 1, 4)
    power, e = 1, pres.value(pres.word(u))
    while e.translate(O.tables([e])[0]) != e:
        power, e = power + 1, pres.value(pres.word(u * (power + 1)))
    ys = tuple(sorted(set(e)))
    permutes = O.permuting(ys)
    v = _random_word(rng, d, 2, 3)
    target_map = pres.value(pres.word(v))
    target = g.walk(p.word(v))

    # complete searches where the tree is small, capped ones elsewhere
    small = _small(d)
    max_len = size if small else census.capped_len
    limits = None if small else st.SearchLimits(max_length=census.capped_len)
    specs = [O.spec(max_len, lambda m: True),
             O.spec(max_len, permutes, minimal=True),
             O.spec(max_len, permutes, keep=True),
             O.spec(max_len, target_map.__eq__, loop=target_map == ident)]
    O.straight_search(d.n, d.maps, specs)
    calls = [("all words", lambda: st.all_straight_words(g, None, limits)),
             (f"minimal {ys}", lambda: st.minimal_straight_permutators(g, ys, limits)),
             (f"permutator words {ys}", lambda: st.straight_permutator_words(g, ys, limits)),
             (f"target {v}", lambda: st.all_straight_words(g, target, limits))]
    ops = [(SEARCH, label, call, lambda words, e=spec["digest"].value(): checks.search(e, words))
           for (label, call), spec in zip(calls, specs)]
    spw = specs[2]

    members = [m for m in d.elements if permutes(m)]
    want = (len(members), O.group_order(members, ys))
    ops.append((GRAPH, f"perm semigroup {ys}", lambda: st.perm_semigroup(g, ys),
                lambda ps: None if (len(ps.element_indices), ps.restriction_group_order) == want
                else f"perm semigroup {len(ps.element_indices)}, oracle {want}"))
    seeds = [p.word(u), p.word(v)]
    closure = O.closure(d.n, [pres.value(pres.word(u)), target_map])[0]
    ops.append((GRAPH, "subgroup closure", lambda: st.subgroup_closure(g, seeds),
                lambda nodes: None if {bytes(g.element(x).images) for x in nodes} == closure
                else "subgroup closure differs from the oracle's"))

    long_text = _random_word(rng, d, *census.long_words)
    long_word = pres.word(long_text)
    ops.append((WORD, "reduce", lambda: p.format_word(st.reduce_word(g, p.word(long_text))),
                lambda out: checks.reduced(pres, long_word, out)))
    pieces = [u * power * rng.randint(1, 3) for _ in range(rng.randint(3, 6))]
    if spw["digest"].words:
        pieces += [O.format_word(d.names, rng.choice(spw["digest"].words)) for _ in range(3)]
    rng.shuffle(pieces)
    perm_text = "".join(pieces)
    perm_word = pres.word(perm_text)
    ops.append((WORD, "factorize", lambda: [p.format_word(f) for f in st.factorize(g, p.word(perm_text), ys)],
                lambda out: checks.factors(pres, perm_word, out, ys)))
    ops.append((WORD, "retract", lambda: p.format_word(st.retract(g, p.word(perm_text), ys)),
                lambda out: checks.retracted(pres, perm_word, out, ys)))
    for _ in range(3):
        node = g.walk(p.word(_random_word(rng, d, 1, 6)))

        def round_trip(node=node):
            text = st.print_linear(g.element(node))
            return text, st.parse_linear(text, d.n).images

        want_map = bytes(g.element(node).images)
        ops.append((WORD, "round trip", round_trip,
                    lambda out, m=want_map: None if O.parse_linear(out[0], d.n) == m and bytes(out[1]) == m
                    else f"round trip of {out[0]!r}"))
    return ops


def prepare(census: Census, seed: int, run: Run, workdir):
    rng = random.Random(seed)
    draws = []
    for n in census.states:
        for k in census.generators:
            shape = []
            while len(shape) < census.per_shape:
                d = Draw(rng, n, k, census)
                if d.accepted:
                    shape.append(d)
            draws += shape
    paths = [workdir / f"p{i}.tsg" for i in range(len(draws))]
    for d, path in zip(draws, paths):
        path.write_text(d.text())
    graphs = setup(paths, census.cap, run)
    ops = []
    for i, (d, g, path) in enumerate(zip(draws, graphs, paths)):
        run.setup_check(O.read_tsg(path)[2] == d.maps, f"draw {i}: the file reads back as other maps")
        run.setup_check(g.order == len(d.elements) and g.contains_identity == d.has_identity,
                        f"draw {i}: order {g.order}, oracle {len(d.elements)}")
        ops.extend(build(rng, d, g, census))
    return ops, lambda: setup(paths, census.cap, run)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    census = CENSUSES[workload]
    workdir = HERE / "work" / f"census-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probe = [["order", str(workdir / f"p{i}.tsg")] for i in range(3)]
        return run_library(workload, lambda s, r, _traced: prepare(census, s, r, workdir),
                           probe, seed, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
