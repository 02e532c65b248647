import itertools
import random
import time

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
    the four searches from node 0 and straight paths from random starts."""
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
                                      {"max_length": -2}, {"max_results": -1}])
    def test_caps_below_one_rejected(self, caps):
        with pytest.raises(ValueError):
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
        assert time.perf_counter() - t0 < 1.0
        assert [len(w) for w in result] == [14, 15, 16] and result.truncated
        assert result.words[0] == deep.first_word(639)

    def test_exactly_max_results_words_finish_at_once(self, deep):
        # one word reaches node 5; proving there is no second one must not
        # walk the straight paths that can never reach it
        t0 = time.perf_counter()
        result = straight_paths(deep, 0, 5, SearchLimits(max_results=1))
        assert time.perf_counter() - t0 < 1.0
        assert words_of(deep, result) == {"ba"} and not result.truncated

    def test_distances_beyond_254_stay_reachable(self):
        # one loop word, of 272 letters: a cycle of 16 states and one of 17
        cycles = list(range(2, 17)) + [1] + list(range(18, 34)) + [17]
        graph = enumerate_semigroup(Presentation(33, [("a", Transformation(cycles))]))
        assert graph.size == 272
        result = straight_paths(graph, 0, 0, SearchLimits(max_results=1))
        assert result.words == ((0,) * 272,) and not result.truncated


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
            all_straight_words(graph, limits=SearchLimits(max_length=max_length))
            assert calls == stepped_prefixes(graph, max_length)
