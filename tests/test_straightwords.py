import itertools
import pickle
import random
import time
from functools import partial

import pytest

from strayt import (Presentation, SearchLimits,
                    Transformation, WordSearch, all_straight_words,
                    enumerate_semigroup, evaluate, fixture_path, identity,
                    load_presentation, minimal_straight_permutators,
                    parse_linear, permutes, permuting, search, straight_paths,
                    straight_permutator_words)

from test_cayley import deep_presentation, oracle_is_straight
from test_permutator import mixed_graphs, random_graphs

CONSTANT_WORDS = {
    "[1,3;2]": {"abca", "aca", "acbabca", "acbaca", "acbacbca", "acbca",
                "babca", "baca", "bacbabca", "bacbaca", "bacbca", "bca", "ca",
                "cbabca", "cbaca", "cbacbabca", "cbacbca", "cbca"},
    "[2,3;1]": {"abc", "acabc", "acbabc", "acbacabc", "acbacbc", "acbc",
                "babc", "bacabc", "bacbabc", "bacbacabc", "bacbc", "bc",
                "cabc", "cbabc", "cbacabc", "cbacbabc", "cbacbc", "cbc"},
    "[1,2;3]": {"ab", "acab", "acbab", "acbacab", "acbacbcab", "acbcab",
                "bab", "bacab", "bacbab", "bacbacab", "bacbcab", "bcab",
                "cab", "cbab", "cbacab", "cbacbab", "cbacbcab", "cbcab"},
}

SINGLETON_WORDS = {
    "[3;1]": "c", "[2;3]": "b", "[1;2]": "a",
    "[[2;3];1]": "cb", "[[1;2];3]": "ba", "[[3;1];2]": "ac",
    "([1;2],3)": "cba", "([3;1],2)": "bac", "(1,[2;3])": "acb",
    "(1,[3;2])": "cbac", "([2;1],3)": "bacb", "([1;3],2)": "acba",
    "[[2;1];3]": "cbacb", "[[1;3];2]": "bacba", "[[3;2];1]": "acbac",
    "[1;3]": "cbacba", "[3;2]": "bacbac", "[2;1]": "acbacb",
}


@pytest.fixture(scope="module")
def deep():
    """A 641-node semigroup whose straight paths are too many to walk."""
    graph = enumerate_semigroup(deep_presentation())
    assert graph.size == 641
    return graph


def words_of(graph, result):
    return {graph.presentation.format_word(w) for w in result}


def reference_search(graph, start, emit, limits, minimal=False):
    """Iterative deepening: one lexicographic depth-first pass per exact
    length, stopping at the first length no path reaches. It looks for one
    word beyond max_results, so truncated means a word was dropped."""
    if limits is None:
        limits = SearchLimits()
    k = graph.num_letters
    max_len = graph.size if limits.max_length is None else min(limits.max_length, graph.size)
    max_results = limits.max_results
    loop = emit(start)
    out = []

    def keep(word):
        out.append(word)
        return max_results is not None and len(out) > max_results

    for length in range(1, max_len + 1):
        reached_depth = False
        word = []
        path = [start]
        visited = {start}
        pending = [iter(range(k))]
        while pending:
            node = path[-1]
            descended = False
            for letter in pending[-1]:
                nxt = graph.step(node, letter)
                depth = len(word) + 1
                if nxt == start:
                    if depth == length:
                        reached_depth = True
                        if loop and keep(tuple(word) + (letter,)):
                            return WordSearch(tuple(out[:-1]), truncated=True)
                    continue
                if nxt in visited:
                    continue
                if depth == length:
                    reached_depth = True
                    if emit(nxt) and keep(tuple(word) + (letter,)):
                        return WordSearch(tuple(out[:-1]), truncated=True)
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


def search_pairs(graph, rng):
    """(search, reference) pairs over the same query, each taking limits:
    the four searches from node 0, straight paths from random starts, and
    `search` from a random start on a random mask, minimal and not."""
    idempotents = [v for v in range(graph.size)
                   if all(graph.images(v)[x - 1] == x for x in graph.images(v))]
    states = set(graph.images(rng.choice(idempotents)))
    members = permuting(graph, states).__getitem__
    target = rng.randrange(graph.size)
    pairs = [
        (lambda lim: all_straight_words(graph, None, lim),
         lambda lim: reference_search(graph, 0, lambda v: True, lim)),
        (lambda lim: all_straight_words(graph, target, lim),
         lambda lim: reference_search(graph, 0, target.__eq__, lim)),
        (lambda lim: straight_permutator_words(graph, states, lim),
         lambda lim: reference_search(graph, 0, members, lim)),
        (lambda lim: minimal_straight_permutators(graph, states, lim),
         lambda lim: reference_search(graph, 0, members, lim, minimal=True)),
    ]
    for _ in range(3):
        start, goal = rng.randrange(graph.size), rng.randrange(graph.size)
        pairs.append((lambda lim, s=start, t=goal: straight_paths(graph, s, t, lim),
                      lambda lim, s=start, t=goal: reference_search(graph, s, t.__eq__, lim)))
    density = rng.uniform(0.02, 0.4)
    mask = bytes(rng.random() < density for _ in range(graph.size))
    start = rng.randrange(graph.size)
    for minimal in (False, True):
        pairs.append((lambda lim, m=minimal: search(graph, start, mask, lim, m),
                      lambda lim, m=minimal: reference_search(graph, start, mask.__getitem__,
                                                              lim, m)))
    return pairs


def stepped_prefixes(graph, max_length):
    """Brute-force tree walk: the straight words shorter than max_length
    that a search extends, namely the empty word and every straight word
    not realizing the identity (a loop word ends where it closes)."""
    p = graph.presentation
    level, count = [()], 0
    for _ in range(max_length):
        count += len(level)
        level = [w + (a,) for w in level for a in range(graph.num_letters)
                 if oracle_is_straight(p, w + (a,)) and evaluate(p, w + (a,)) != identity(p.n)]
    return count


class TestAllStraightWords:
    def test_monogenic_powers(self, ex1):
        assert set(all_straight_words(ex1).words) == {(0,), (0, 0), (0, 0, 0)}

    def test_single_word_targets(self, ex4):
        for form, word in SINGLETON_WORDS.items():
            target = ex4.element_index(parse_linear(form, 3))
            assert words_of(ex4, all_straight_words(ex4, target)) == {word}

    def test_constant_targets(self, ex4):
        for form, expected in CONSTANT_WORDS.items():
            target = ex4.element_index(parse_linear(form, 3))
            assert words_of(ex4, all_straight_words(ex4, target)) == expected

    def test_census_counts(self, ex4):
        result = all_straight_words(ex4)
        assert len(result) == 72 and not result.truncated
        counts = {}
        for w in result:
            counts[ex4.walk(w)] = counts.get(ex4.walk(w), 0) + 1
        assert sorted(counts.values()) == [1] * 18 + [18] * 3

    def test_constants_presentation(self, ex3):
        t1 = ex3.element_index(Transformation((1, 1)))
        assert words_of(ex3, all_straight_words(ex3, t1)) == {"t1", "t2 t1"}

    def test_loop_words_at_identity_target(self, ex2):
        assert all_straight_words(ex2, 0).words == ((0, 0, 0),)

    def test_everything_emitted_is_straight(self, ex1, ex2, ex3, ex4):
        for g in (ex1, ex2, ex3, ex4):
            for w in all_straight_words(g):
                assert g.is_straight(w)

    def test_complete_against_brute_force(self, ex1, ex4):
        # every straight word is found: compare against direct enumeration
        # of all words up to the longest straight length
        for g, max_len in ((ex1, 4), (ex4, 9)):
            p = g.presentation
            found = set(all_straight_words(g).words)
            assert max(len(w) for w in found) <= max_len
            brute = {w for k in range(1, max_len + 1)
                     for w in itertools.product(range(len(p.generators)), repeat=k)
                     if oracle_is_straight(p, w)}
            assert found == brute

    def test_length_bound(self, ex1, ex2, ex3, ex4):
        for g in (ex1, ex2, ex3, ex4):
            assert all(len(w) <= g.order for w in all_straight_words(g))

    def test_ordering_length_then_lex(self, ex4):
        words = all_straight_words(ex4).words
        assert list(words) == sorted(words, key=lambda w: (len(w), w))

    def test_max_results_truncates_in_order(self, ex4):
        full = all_straight_words(ex4).words
        cut = all_straight_words(ex4, limits=SearchLimits(max_results=10))
        assert cut.truncated
        assert cut.words == full[:10]

    def test_max_results_equal_to_count_is_not_truncated(self, ex4):
        # the only straight word realizing a is a itself
        a = ex4.walk((0,))
        result = all_straight_words(ex4, a, SearchLimits(max_results=1))
        assert result.words == ((0,),) and not result.truncated
        assert all_straight_words(ex4, a, SearchLimits(max_results=2)).words == ((0,),)
        every = all_straight_words(ex4, limits=SearchLimits(max_results=72))
        assert len(every) == 72 and not every.truncated

    def test_max_length_cap(self, ex4):
        short = all_straight_words(ex4, limits=SearchLimits(max_length=2))
        assert {len(w) for w in short} == {1, 2}
        assert not short.truncated

    def test_bad_target(self, ex4):
        with pytest.raises(ValueError):
            all_straight_words(ex4, 99)

    @pytest.mark.parametrize("caps", [{"max_length": 0}, {"max_results": 0},
                                      {"max_length": -2}, {"max_results": -1},
                                      {"max_length": 2.5}, {"max_results": 2.5},
                                      {"max_results": 3.0}, {"max_length": "3"}])
    def test_caps_below_one_rejected(self, caps):
        # a cap that is not an integer would be compared but never met
        (field,) = caps
        with pytest.raises(ValueError, match=field):
            SearchLimits(**caps)


class TestStraightPaths:
    def test_between_powers(self, ex1):
        t = ex1.walk((0,))
        t3 = ex1.walk((0, 0, 0))
        assert straight_paths(ex1, t, t3).words == ((0, 0),)

    def test_no_cycle_through_node_means_empty(self, ex1):
        t = ex1.walk((0,))
        assert straight_paths(ex1, t, t).words == ()

    def test_self_cycle(self, ex4):
        # the first collapsing is idempotent, giving a one-letter cycle
        a = ex4.walk((0,))
        assert (0,) in straight_paths(ex4, a, a)

    def test_from_identity_matches_straight_words(self, ex4):
        target = ex4.element_index(parse_linear("[1,3;2]", 3))
        assert straight_paths(ex4, 0, target).words == all_straight_words(ex4, target).words

    def test_loop_case_matches_identity_target(self, ex2):
        assert straight_paths(ex2, 0, 0).words == all_straight_words(ex2, 0).words

    def test_unreachable_goal_returns_at_once(self, deep):
        # node 1 is the non-injective generator and never leads back to the
        # identity, while the straight paths from it are far too many to walk
        t0 = time.perf_counter()
        result = straight_paths(deep, 1, 0, SearchLimits(max_results=3))
        result.truncated
        assert time.perf_counter() - t0 < 0.5
        assert result.words == () and not result.truncated

    def test_uncapped_unreachable_goal_returns_at_once(self, deep):
        t0 = time.perf_counter()
        assert straight_paths(deep, 1, 0).words == ()
        emit = bytearray(deep.size)
        emit[0] = 1
        assert search(deep, 1, emit, SearchLimits(max_length=100)).words == ()
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("start, goal", [(-3, 1), (22, 1), (1, -1), (1, 22)])
    def test_nodes_outside_the_graph_raise(self, ex4, start, goal):
        with pytest.raises(ValueError, match=r"outside 0\.\.21"):
            straight_paths(ex4, start, goal)

    def test_capped_search_stops_at_the_shortest_words(self, deep):
        # the first words to node 639 have 14-16 letters, far fewer than the
        # straight paths a walk to the hard bound would cross first
        t0 = time.perf_counter()
        result = straight_paths(deep, 0, 639, SearchLimits(max_results=3))
        result.truncated
        assert time.perf_counter() - t0 < 1.0
        assert [len(w) for w in result] == [14, 15, 16] and result.truncated
        assert result.words[0] == deep.first_word(639)

    def test_exactly_max_results_words_finish_at_once(self, deep):
        # one word reaches node 5; proving there is no second one must not
        # walk the straight paths that can never reach it
        t0 = time.perf_counter()
        result = straight_paths(deep, 0, 5, SearchLimits(max_results=1))
        result.truncated
        assert time.perf_counter() - t0 < 1.0
        assert words_of(deep, result) == {"ba"} and not result.truncated

    def test_uncapped_search_keeps_to_paths_that_reach_the_goal(self, deep):
        # the one straight word to node 5 is "ba"; without a cap, the walk
        # must still skip every path whose image set cannot reach node 5's
        t0 = time.perf_counter()
        result = straight_paths(deep, 0, 5)
        result.words
        assert time.perf_counter() - t0 < 0.5
        assert result.words == ((1, 0),) and not result.truncated
        # the same from a caller's mask, which no state set guides
        emit = bytearray(deep.size)
        emit[5] = 1
        t0 = time.perf_counter()
        result = search(deep, 0, emit, None, minimal=True)
        result.words
        assert time.perf_counter() - t0 < 0.5
        assert result.words == ((1, 0),) and not result.truncated

    def test_p53_capped_target_matches_the_unguided_search(self, p53):
        # a target 28 letters deep: image sets alone would keep most of the
        # graph live, the pairs (x, t(x)) keep only the nodes that reach it
        graph = p53.graph
        target = graph.walk(p53.a + p53.b)
        limits = SearchLimits(max_results=5)
        t0 = time.perf_counter()
        result = all_straight_words(graph, target, limits)
        result.truncated
        assert time.perf_counter() - t0 < 0.5
        emit = bytearray(graph.size)
        emit[target] = 1
        assert result == search(graph, 0, emit, limits)
        assert [len(w) for w in result] == [28] * 5 and result.truncated

    def test_minimal_search_goes_no_further_than_an_emitting_node(self, p53):
        # every node emits, so the forward pass ends after one level, long
        # before the length bound of one letter per node
        graph = p53.graph
        t0 = time.perf_counter()
        result = search(graph, 0, b"\x01" * graph.size, None, minimal=True)
        result.words
        assert time.perf_counter() - t0 < 0.1
        assert result.words == tuple((letter,) for letter in range(9))

    def test_distances_beyond_254_stay_reachable(self):
        # one loop word, of 272 letters: a cycle of 16 states and one of 17
        cycles = list(range(2, 17)) + [1] + list(range(18, 34)) + [17]
        graph = enumerate_semigroup(Presentation(33, [("a", Transformation(cycles))]))
        assert graph.size == 272
        result = straight_paths(graph, 0, 0, SearchLimits(max_results=1))
        assert result.words == ((0,) * 272,) and not result.truncated
        # the same cycles, with a state sent onto the first: node 1 (the map
        # a) joins two states, so the orbit of pairs guides the search
        graph = enumerate_semigroup(Presentation(34, [("a", Transformation(cycles + [1]))]))
        result = straight_paths(graph, 1, 1, SearchLimits(max_results=1))
        assert result.words == ((0,) * 272,) and not result.truncated

    def test_goal_that_keeps_states_apart_costs_no_more_than_search(self):
        # in a group every pair set names one node, so an orbit of pairs is
        # as large as the graph: the search must cost what `search` on the
        # goal mask costs (an orbit of pairs took five times as long here)
        swap, cycle = Transformation([2, 1, 3, 4, 5, 6, 7]), Transformation([2, 3, 4, 5, 6, 7, 1])
        graph = enumerate_semigroup(Presentation(7, [("s", swap), ("c", cycle)]))
        assert graph.size == 5040
        limits = SearchLimits(max_results=3)
        for word in [(0, 1, 1, 0, 1), (1,) * 6, (0, 1) * 7]:
            goal = graph.walk(word)
            emit = bytearray(graph.size)
            emit[goal] = 1
            timed = []
            for run in (partial(all_straight_words, graph, goal, limits),
                        partial(search, graph, 0, emit, limits)):
                times = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    result = run()
                    result.truncated
                    times.append(time.perf_counter() - t0)
                timed.append((min(times), result))
            (mine, got), (plain, want) = timed
            assert got == want and len(got) == 3 and got.truncated
            assert mine < 2 * plain + 0.005, (word, mine, plain)


class TestSearchArguments:
    @pytest.mark.parametrize("start", [-3, -22, 22, 999])
    def test_start_outside_the_nodes_raises(self, ex4, start):
        # a negative start must not wrap round to the last nodes
        with pytest.raises(ValueError, match=r"outside 0\.\.21"):
            search(ex4, start, b"\x01" * 22, None)

    @pytest.mark.parametrize("length", [0, 21, 23, 27])
    def test_mask_not_one_byte_per_node_raises(self, ex4, length):
        for limits in (None, SearchLimits(max_results=2)):
            with pytest.raises(ValueError, match="22"):
                search(ex4, 0, b"\x01" * length, limits)


class TestStraightPermutatorWords:
    def test_abc_pair_set(self, ex4):
        assert words_of(ex4, straight_permutator_words(ex4, {1, 2})) == {
            "c", "bac", "cbac", "bacbac"}

    def test_monogenic_has_no_permutators_of_everything(self, ex1):
        assert straight_permutator_words(ex1, {1, 2, 3, 4}).words == ()

    def test_cycle_group_every_straight_word_permutes(self, ex2):
        result = straight_permutator_words(ex2, {1, 2, 3})
        assert result.words == all_straight_words(ex2).words
        assert (0, 0, 0) in result

    def test_all_outputs_permute_and_are_straight(self, ex4):
        from strayt import permutes
        for w in straight_permutator_words(ex4, {1, 2}):
            assert ex4.is_straight(w)
            assert permutes(ex4.element(ex4.walk(w)), {1, 2})


class TestMinimalStraightPermutators:
    def test_max_results_equal_to_code_size_is_not_truncated(self, ex4):
        code = minimal_straight_permutators(ex4, {1, 2}, SearchLimits(max_results=2))
        assert words_of(ex4, code) == {"c", "bac"} and not code.truncated
        cut = minimal_straight_permutators(ex4, {1, 2}, SearchLimits(max_results=1))
        assert words_of(ex4, cut) == {"c"} and cut.truncated


    def test_p53_code_matches_the_unguided_search(self, p53):
        # the orbit of {3,5,8} guides the walk; `search` on the permuting
        # mask is trimmed by the graph's own forward and reverse passes
        graph, states = p53.graph, {3, 5, 8}
        limits = SearchLimits(max_length=9)
        t0 = time.perf_counter()
        code = minimal_straight_permutators(graph, states, limits)
        first = minimal_straight_permutators(graph, states, SearchLimits(max_results=3))
        code.words, first.truncated
        assert time.perf_counter() - t0 < 0.5
        assert len(code) == 91 and not code.truncated
        mask = permuting(graph, states)
        t0 = time.perf_counter()
        assert code == search(graph, 0, mask, limits, minimal=True)
        assert first == search(graph, 0, mask, SearchLimits(9, 3), minimal=True)
        assert time.perf_counter() - t0 < 0.2
        assert first.words == code.words[:3] and first.truncated


def guided_searches(graph, rng):
    """(run, start, emit, minimal) for each guided search on one graph, with
    the emit mask and minimal flag that `search` needs to give the same
    words: the straight permutator words and the minimal permutators of a
    random set of every size, and the straight paths to a random goal from
    node 0 and from two random starts."""
    n, size = graph.presentation.n, graph.size
    cases = []
    for count in range(1, n + 1):
        states = rng.sample(range(1, n + 1), count)
        mask = permuting(graph, states)
        cases.append((partial(straight_permutator_words, graph, states), 0, mask, False))
        cases.append((partial(minimal_straight_permutators, graph, states), 0, mask, True))
    for start in (0, rng.randrange(size), rng.randrange(size)):
        goal = rng.randrange(size)
        emit = bytearray(size)
        emit[goal] = 1
        run = (partial(all_straight_words, graph, goal) if start == 0
               else partial(straight_paths, graph, start, goal))
        cases.append((run, start, emit, False))
    return cases


class TestGuidedSearches:
    def test_match_the_unguided_search_under_every_cap(self):
        # no cap where the straight paths from the start are few, length
        # caps everywhere, and result caps one below and equal to the count;
        # a one-letter cap walks too few nodes to be guided, while searches
        # without a length cap on all but the smallest graphs are guided
        rng = random.Random(53)
        kinds = set()
        for graph in random_graphs(59, 120) + mixed_graphs(61, 60):
            for run, start, emit, minimal in guided_searches(graph, rng):
                few = not search(graph, start, b"\x01" * graph.size,
                                 SearchLimits(max_results=300)).truncated
                caps = [SearchLimits(max_length=length) for length in (1, 3, 6)]
                for limits in caps + [None] * few:
                    want = search(graph, start, emit, limits, minimal)
                    assert run(limits) == want, (run, limits)
                    length = limits and limits.max_length
                    for cap in {max(len(want) - 1, 1), max(len(want), 1)}:
                        capped = SearchLimits(length, cap)
                        want = search(graph, start, emit, capped, minimal)
                        assert run(capped) == want, (run, capped)
                        kinds.add((run.func.__name__, want.truncated))
        # every search, with a result cap that cut it or not
        assert len(kinds) == 8


class TestPermutingMask:
    @staticmethod
    def direct(graph, states):
        return bytes(int(permutes(graph.element(v), states)) for v in range(graph.size))

    def test_fixtures(self, ex1, ex2, ex3, ex4):
        for graph in (ex1, ex2, ex3, ex4):
            n = graph.presentation.n
            for size in range(1, n + 1):
                for states in itertools.combinations(range(1, n + 1), size):
                    assert permuting(graph, states) == self.direct(graph, states), states

    def test_random_presentations_every_set_size(self):
        # sets of more than 8 states take several bit groups
        rng = random.Random(29)
        grouped = 0
        for graph in mixed_graphs(31, 80):
            n = graph.presentation.n
            sets = [rng.sample(range(1, n + 1), size) for size in range(1, n + 1)]
            sets += [set(graph.images(rng.randrange(graph.size))) for _ in range(4)]
            for states in sets:
                want = self.direct(graph, states)
                assert permuting(graph, states) == want, (graph.presentation.generators, states)
                if len(set(states)) > 8:
                    grouped += sum(want[1:])
        assert grouped > 0

    def test_255_state_cycle(self):
        cycle = Transformation(list(range(2, 256)) + [1])
        graph = enumerate_semigroup(Presentation(255, [("a", cycle)]))
        assert graph.size == 255
        assert permuting(graph, range(1, 256)) == b"\x01" * 255
        # a rotation keeps the multiples of 3 exactly when it shifts by one
        thirds = permuting(graph, range(3, 256, 3))
        assert thirds == self.direct(graph, range(3, 256, 3)) and sum(thirds) == 85
        for states in (range(1, 255), range(2, 256, 2), [1, 255]):
            assert permuting(graph, states) == self.direct(graph, states)


class TestSinglePass:
    def test_matches_iterative_deepening_under_every_cap(self, ex1, ex2, ex3, ex4):
        rng = random.Random(41)
        # small presentations whose straight words are few enough to try
        # every cap
        graphs = [ex1, ex2, ex3, ex4] + [
            g for g in random_graphs(43, 120)
            if g.size <= 60 and len(reference_search(g, 0, lambda v: True, None)) <= 300]
        for graph in graphs:
            for run, reference in search_pairs(graph, rng):
                full = reference(None)
                assert (run(None).words, run(None).truncated) == (full.words, False)
                for max_length in range(1, max(map(len, full), default=1) + 1):
                    count = len(reference(SearchLimits(max_length=max_length)))
                    for max_results in range(1, count + 2):
                        limits = SearchLimits(max_length, max_results)
                        got, want = run(limits), reference(limits)
                        assert want.truncated == (max_results < count)
                        assert (got.words, got.truncated) == (want.words, want.truncated), limits

    @pytest.mark.parametrize("name", ["ex1_monogenic", "ex2_cycle", "ex3_constants", "ex4_abc"])
    def test_each_straight_prefix_is_stepped_once(self, name):
        # no length is walked twice: a search capped at L reads the
        # successor row of each straight prefix shorter than L exactly once
        graph = enumerate_semigroup(load_presentation(fixture_path(name)))
        successors, calls = graph.successors, 0

        def counted(node):
            nonlocal calls
            calls += 1
            return successors(node)

        graph.successors = counted
        for max_length in range(1, graph.size + 1):
            calls = 0
            all_straight_words(graph, limits=SearchLimits(max_length=max_length)).words
            assert calls == stepped_prefixes(graph, max_length)


def streaming_graphs(ex1, ex2, ex3, ex4):
    """The fixtures and the seeded small presentations whose straight
    words are few enough to try every cap."""
    return [ex1, ex2, ex3, ex4] + [
        g for g in random_graphs(43, 60)
        if g.size <= 60 and len(reference_search(g, 0, lambda v: True, None)) <= 300]


STREAM_CAPS = [None, SearchLimits(max_length=1), SearchLimits(max_length=2),
               SearchLimits(max_length=3), SearchLimits(max_results=1),
               SearchLimits(max_results=2), SearchLimits(max_results=5),
               SearchLimits(2, 1), SearchLimits(3, 4)]


def stream_cases(graphs, seed):
    """(run, limits) for the four searches, straight paths and `search`,
    under every cap in STREAM_CAPS, with the reference's answer."""
    rng = random.Random(seed)
    for graph in graphs:
        for run, reference in search_pairs(graph, rng):
            for limits in STREAM_CAPS:
                yield partial(run, limits), reference(limits)


def entered_rows(graph, start, emits, bound, minimal):
    """Brute-force model of a walk whose nearness is exact: the successor
    rows read before the first word in output order arrives, and in all.

    A node is entered when a path from it reaches an emitting node within
    the length left (distances over every edge, by one breadth-first pass
    back from the emitting nodes) and, with minimal, when it does not emit
    itself. The first word is emitted while its parent's row is read, so
    the rows before it are the start's and those of the nodes entered
    before it in depth-first letter order."""
    k, size = graph.num_letters, graph.size
    into = [[] for _ in range(size)]
    for node in range(size):
        for letter in range(k):
            into[graph.step(node, letter)].append(node)
    dist = {v: 0 for v in range(size) if emits(v)}
    frontier = list(dist)
    while frontier:
        fresh = []
        for v in frontier:
            for u in into[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    fresh.append(u)
        frontier = fresh
    events = []  # ("enter", word) and ("emit", word), in the walk's order

    def visit(prefix, node, on_path):
        depth = len(prefix) + 1
        for letter in range(k):
            nxt, word = graph.step(node, letter), prefix + (letter,)
            if nxt == start:
                if emits(start):
                    events.append(("emit", word))
                continue
            if nxt in on_path or nxt not in dist:
                continue
            if dist[nxt] == 0:
                events.append(("emit", word))
                if minimal or depth == bound:
                    continue
            elif depth + dist[nxt] > bound:
                continue
            events.append(("enter", word))
            visit(word, nxt, on_path | {nxt})

    visit((), start, {start})
    emitted = [w for kind, w in events if kind == "emit"]
    if not emitted:
        return None, None, 1 + len(events)
    first = min(emitted, key=lambda w: (len(w), w))
    before = events.index(("emit", first))
    entered = sum(kind == "enter" for kind, _ in events[:before])
    total = sum(kind == "enter" for kind, _ in events)
    return first, 1 + entered, 1 + total


class TestStreaming:
    def test_iteration_yields_the_words_in_order(self, ex1, ex2, ex3, ex4):
        for run, want in stream_cases(streaming_graphs(ex1, ex2, ex3, ex4), 73):
            result = run()
            streamed = list(result)
            assert (tuple(streamed), result.truncated) == (want.words, want.truncated)
            assert result.words == want.words and list(result) == streamed
            assert result == want and hash(result) == hash(want) and repr(result) == repr(want)
            again = run()
            assert again.words == want.words and list(again) == streamed

    def test_partial_iteration_then_finish(self, ex1, ex2, ex3, ex4):
        rng = random.Random(79)
        for run, want in stream_cases(streaming_graphs(ex1, ex2, ex3, ex4), 83):
            words = list(want.words)
            for taken in {0, 1, len(words) // 2, len(words)}:
                result = run()
                it = iter(result)
                assert list(itertools.islice(it, taken)) == words[:taken]
                if rng.random() < 0.5:
                    assert result.words == want.words and result.truncated == want.truncated
                else:
                    assert result.truncated == want.truncated and result.words == want.words
                assert len(result) == len(words)
                assert list(it) == words[taken:] and list(result) == words

    def test_interleaved_iterations_each_see_every_word_once(self, ex1, ex2, ex3, ex4):
        rng = random.Random(89)
        for run, want in stream_cases(streaming_graphs(ex1, ex2, ex3, ex4), 97):
            result = run()
            seen = [[], []]
            live = [(iter(result), seen[0]), (iter(result), seen[1])]
            late = rng.randrange(len(want.words) + 1)
            while live:
                i = rng.randrange(len(live))
                it, words = live[i]
                word = next(it, None)
                if word is None:
                    del live[i]
                    continue
                words.append(word)
                if len(seen) == 2 and len(seen[0]) + len(seen[1]) == late:
                    seen.append([])  # a third iterator, started part way
                    live.append((iter(result), seen[2]))
            assert all(tuple(words) == want.words for words in seen)
            assert result.truncated == want.truncated

    def test_a_walk_stopped_by_an_exception_is_not_resumed(self):
        # an exception part way through, such as an interrupt, leaves no
        # result that reads as whole
        class Interrupt(Exception):
            pass

        graph = enumerate_semigroup(load_presentation(fixture_path("ex4_abc")))
        rows, calls = graph.successors, 0

        def interrupted(node):
            nonlocal calls
            calls += 1
            if calls == 6:
                raise Interrupt
            return rows(node)

        graph.successors = interrupted
        result = all_straight_words(graph)
        it = iter(result)
        assert next(it) == (0,)
        with pytest.raises(Interrupt) as stopped:
            list(it)
        graph.successors = rows
        for read in (lambda r: r.words, lambda r: r.truncated, list, len):
            with pytest.raises(RuntimeError, match="stopped") as raised:
                read(result)
            # each read names the exception that stopped the walk, and
            # wraps it once, however often the result is read
            assert raised.value.__cause__ is stopped.value
            assert stopped.value.__cause__ is None

    def test_an_iterator_dropped_part_way_leaves_the_walk_to_resume(self, ex1, ex2, ex3, ex4):
        for run, want in stream_cases(streaming_graphs(ex1, ex2, ex3, ex4), 107):
            result = run()
            it = iter(result)
            next(it, None)
            del it
            assert (result.words, result.truncated) == (want.words, want.truncated)
            assert tuple(result) == want.words

    def test_equals_no_other_type(self, ex4):
        result = straight_permutator_words(ex4, {1, 2})
        assert result != result.words and result != list(result)
        assert result.__eq__(result.words) is NotImplemented
        # membership asks for a word: anything else, iterable or not, is absent
        assert 5 not in result and None not in result and result.words not in result
        assert result.words[0] in result and list(result.words[0]) in result

    def test_pickles_as_its_words(self, ex4):
        result = straight_permutator_words(ex4, {1, 2}, SearchLimits(max_results=3))
        assert pickle.loads(pickle.dumps(result)) == result
        assert result == WordSearch(result.words, truncated=True)

    @pytest.mark.parametrize("limits", [None, SearchLimits(max_length=2),
                                        SearchLimits(max_results=2)])
    def test_bad_arguments_raise_at_the_call(self, ex4, limits):
        calls = [
            partial(search, ex4, -1, b"\x01" * 22), partial(search, ex4, 22, b"\x01" * 22),
            partial(search, ex4, 0, b"\x01" * 21), partial(search, ex4, 0, b"\x01" * 23),
            partial(straight_paths, ex4, -1, 1), partial(straight_paths, ex4, 0, 22),
            partial(all_straight_words, ex4, 22), partial(all_straight_words, ex4, -1),
        ]
        for states in ([], [0], [4], [1, 2, 9], [1.5]):
            calls.append(partial(straight_permutator_words, ex4, states))
            calls.append(partial(minimal_straight_permutators, ex4, states))
        for call in calls:
            with pytest.raises(ValueError):
                call(limits)

    def test_first_word_arrives_before_the_last_row(self, ex1, ex2, ex3, ex4):
        # walks whose nearness is exact: every straight word, `search`, and
        # the guided walks, on graphs of more than 32 edges with a length
        # bound that lets a walk enter more than 32 nodes; each row the
        # walk reads is counted from the call's return
        rng = random.Random(101)
        graphs = [ex1, ex2, ex3, ex4] + random_graphs(103, 120)
        early = {}
        for graph in graphs:
            k, size = graph.num_letters, graph.size
            guided = k > 1 and size * k > 32
            bound = {2: 6, 3: 4}.get(k, 3)
            limits = SearchLimits(max_length=bound)
            idempotents = [v for v in range(size)
                           if all(graph.images(v)[x - 1] == x for x in graph.images(v))]
            states = set(graph.images(rng.choice(idempotents)))
            mask = permuting(graph, states)
            start, goal = rng.randrange(size), rng.randrange(size)
            emit = bytes(rng.random() < 0.2 for _ in range(size))
            cases = [(partial(all_straight_words, graph, None), 0, lambda v: True, False)]
            for minimal in (False, True):
                cases.append((partial(search, graph, start, emit, minimal=minimal),
                              start, emit.__getitem__, minimal))
            if guided:
                cases += [
                    (partial(straight_permutator_words, graph, states), 0, mask.__getitem__, False),
                    (partial(minimal_straight_permutators, graph, states), 0, mask.__getitem__, True),
                    (partial(straight_paths, graph, start, goal), start, goal.__eq__, True),
                ]
            successors, calls = graph.successors, 0

            def counted(node):
                nonlocal calls
                calls += 1
                return successors(node)

            graph.successors = counted
            try:
                for run, begin, emits, minimal in cases:
                    first, rows_before, rows = entered_rows(graph, begin, emits, bound, minimal)
                    result = run(limits)
                    calls = 0
                    it = iter(result)
                    assert next(it, None) == first
                    at_first = calls
                    list(it)
                    assert (at_first, calls) == (rows_before if first else rows, rows), run
                    # a first word of two or more letters comes early when the
                    # start's row, nearness being a lower bound on 2 + distance,
                    # shows that no word is shorter: here in `search` and the
                    # guided walks
                    if first is not None and len(first) > 1 and at_first < calls:
                        early[run.func.__name__] = early.get(run.func.__name__, 0) + 1
            finally:
                del graph.successors
        assert set(early) == {"search", "straight_permutator_words",
                              "minimal_straight_permutators", "straight_paths"}

    def test_unguided_walk_hands_over_its_first_word_early(self, ex4):
        # 66 edges but a bound of 3 letters: too short a walk for a guide,
        # so every node but the goal reads nearness 3, which still shows
        # that no word has one letter and each word of two is final
        target = ex4.walk((0, 1))
        successors, calls = ex4.successors, 0

        def counted(node):
            nonlocal calls
            calls += 1
            return successors(node)

        ex4.successors = counted
        try:
            result = all_straight_words(ex4, target, SearchLimits(max_length=3))
            calls = 0
            it = iter(result)
            assert next(it) == (0, 1)
            at_first = calls
            assert list(it) == [(1, 0, 1), (2, 0, 1)]
        finally:
            del ex4.successors
        assert (at_first, calls) == (2, 9)
