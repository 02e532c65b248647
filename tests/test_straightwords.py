import itertools

import pytest

from strayt import (SearchLimits, Transformation, all_straight_words,
                    parse_linear, straight_paths, straight_permutator_words)

from test_cayley import oracle_is_straight

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


def words_of(graph, result):
    return {graph.presentation.format_word(w) for w in result}


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
