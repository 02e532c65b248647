import gc
import itertools
import sys
import threading
import tracemalloc

import pytest

from strayt import (EnumerationLimitExceeded, NotInSemigroup, Presentation,
                    Transformation, compose, enumerate_semigroup, evaluate,
                    identity)

from test_permutator import mixed_graphs, random_graphs


def oracle_prefix_maps(p, word):
    """Prefix realizations computed directly, identity first."""
    maps = [identity(p.n)]
    for letter in word:
        maps.append(compose(maps[-1], p.generators[letter][1]))
    return maps


def deep_presentation():
    """Two maps on 5 states generating 641 elements, the identity among them."""
    return Presentation(5, [("a", Transformation((3, 2, 1, 1, 4))),
                            ("b", Transformation((5, 3, 4, 2, 1)))])


def alternating_presentation():
    """A 7-cycle and a product of a 4- and a 2-cycle: they generate A7, a
    graph of 2,520 nodes whose words to 15 letters the oracle can list."""
    return Presentation(7, [("a", Transformation((5, 6, 1, 2, 4, 7, 3))),
                            ("b", Transformation((1, 5, 7, 6, 4, 2, 3)))])


def oracle_elements(p):
    """Maps realized by nonempty words: every word found so far is extended
    by each letter and evaluated, until no new map turns up."""
    k = len(p.generators)
    words = [(a,) for a in range(k)]
    found = {evaluate(p, w) for w in words}
    for w in words:  # grows while it is read, breadth-first
        for a in range(k):
            m = evaluate(p, w + (a,))
            if m not in found:
                found.add(m)
                words.append(w + (a,))
    return found


def oracle_first_words(p, budget=20000):
    """The shortest, then lexicographically least, word realizing each map,
    by evaluating every word length by length until a whole length realizes
    nothing new; None when a length holds more than `budget` words."""
    gens = [t.images for _, t in p.generators]
    first = {}
    level = [((), tuple(range(1, p.n + 1)))]
    while True:
        level = [(w + (a,), tuple(g[x - 1] for x in m))
                 for w, m in level for a, g in enumerate(gens)]
        if len(level) > budget:
            return None
        fresh = [(m, w) for w, m in level if m not in first]
        if not fresh:
            return first
        for m, w in fresh:
            first.setdefault(m, w)


@pytest.fixture(scope="module")
def graphs(ex1, ex2, ex3, ex4):
    """The four small fixtures and seeded random presentations of both test
    families, 42 of the 84 holding the identity."""
    return [ex1, ex2, ex3, ex4] + random_graphs(53, 40) + mixed_graphs(59, 40)


def oracle_is_straight(p, word):
    maps = oracle_prefix_maps(p, word)
    e = identity(p.n)
    last = len(maps) - 1
    for i in range(last + 1):
        for j in range(i + 1, last + 1):
            if maps[i] == maps[j] and not (i == 0 and j == last and maps[j] == e):
                return False
    return True


class TestEnumerate:
    def test_monogenic_order(self, ex1):
        assert ex1.order == 3
        assert ex1.size == 4
        assert not ex1.contains_identity

    def test_abc_order(self, ex4):
        assert ex4.order == 21
        assert not ex4.contains_identity

    def test_cycle_order_includes_identity(self, ex2):
        assert ex2.order == 3
        assert ex2.size == 3
        assert ex2.contains_identity

    def test_constants_order(self, ex3):
        assert ex3.order == 2
        assert not ex3.contains_identity

    def test_monogenic_elements(self, ex1):
        images = {ex1.element(i).images for i in range(1, ex1.size)}
        assert images == {(2, 4, 1, 2), (4, 2, 2, 4), (2, 4, 4, 2)}

    def test_deterministic(self):
        p = Presentation(3, [
            ("a", Transformation((2, 2, 3))),
            ("b", Transformation((1, 3, 3))),
            ("c", Transformation((1, 2, 1))),
        ])
        g1 = enumerate_semigroup(p)
        g2 = enumerate_semigroup(p)
        assert g1.size == g2.size
        for i in range(g1.size):
            assert g1.images(i) == g2.images(i)
            assert all(g1.step(i, a) == g2.step(i, a) for a in range(g1.num_letters))
        assert all(g1.first_word(i) == g2.first_word(i) for i in range(1, g1.size))

    def test_max_elements_cap(self, ex1, ex2, ex3, ex4, graphs):
        with pytest.raises(EnumerationLimitExceeded):
            enumerate_semigroup(ex4.presentation, max_elements=5)
        assert enumerate_semigroup(ex4.presentation, max_elements=21).order == 21
        # the identity, reached as a product of generators, counts as well
        with pytest.raises(EnumerationLimitExceeded):
            enumerate_semigroup(ex2.presentation, max_elements=2)
        assert enumerate_semigroup(ex2.presentation, max_elements=3).order == 3
        # every graph fits a cap of its order and no smaller one; where the
        # identity is generated, it alone takes the order past order - 1
        assert sum(g.contains_identity for g in graphs) >= 10
        for g in graphs:
            p = g.presentation
            assert enumerate_semigroup(p, max_elements=g.order).order == g.order
            if g.order > 1:
                with pytest.raises(EnumerationLimitExceeded):
                    enumerate_semigroup(p, max_elements=g.order - 1)
        # on the fixtures, every cap below the order fails with one message,
        # and the cap of the order builds the uncapped graph buffer for buffer
        for g in (ex1, ex2, ex3, ex4):
            p = g.presentation
            for cap in range(1, g.order):
                with pytest.raises(EnumerationLimitExceeded) as err:
                    enumerate_semigroup(p, max_elements=cap)
                assert str(err.value) == f"enumeration exceeded the cap of {cap} elements"
            capped = enumerate_semigroup(p, max_elements=g.order)
            assert capped.size == g.size
            for node in range(g.size):
                assert capped.images(node) == g.images(node)
                assert capped.successors(node) == g.successors(node)
                assert node == 0 or capped.first_word(node) == g.first_word(node)
        # a cap that is not an integer is compared as it stands
        with pytest.raises(EnumerationLimitExceeded) as err:
            enumerate_semigroup(ex2.presentation, max_elements=2.5)
        assert str(err.value) == "enumeration exceeded the cap of 2.5 elements"

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_elements_below_one_rejected(self, ex4, cap):
        with pytest.raises(ValueError) as err:
            enumerate_semigroup(ex4.presentation, max_elements=cap)
        assert str(err.value) == f"max_elements must be at least 1, got {cap}"
        assert not isinstance(err.value, EnumerationLimitExceeded)

    def test_identity_membership_matches_closure(self, graphs):
        for g in graphs:
            p = g.presentation
            elements = oracle_elements(p)
            assert g.contains_identity == (identity(p.n) in elements)
            assert g.order == len(elements)
        assert len({g.contains_identity for g in graphs}) == 2

    IDENTITY_CASES = {
        "no permutation": Presentation(4, [("a", Transformation((2, 3, 4, 4))),
                                           ("b", Transformation((1, 1, 3, 4)))]),
        "one permutation among collapsing maps": Presentation(5, [
            ("c", Transformation((1, 1, 1, 1, 1))),
            ("p", Transformation((2, 3, 1, 5, 4))),
            ("e", Transformation((1, 2, 3, 3, 5)))]),
        "identity generator": Presentation(3, [("a", Transformation((2, 2, 3))),
                                               ("e", Transformation((1, 2, 3)))]),
        "one state": Presentation(1, [("a", Transformation((1,)))]),
    }

    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_identity_is_generated_exactly_when_a_generator_permutes(self, case):
        p = self.IDENTITY_CASES[case]
        g = enumerate_semigroup(p)
        elements = oracle_elements(p)
        assert g.contains_identity == (identity(p.n) in elements) == (case != "no permutation")
        assert g.order == len(elements)
        # the cap counts the identity like any other element
        assert enumerate_semigroup(p, max_elements=g.order).contains_identity == g.contains_identity
        if g.order > 1:
            with pytest.raises(EnumerationLimitExceeded):
                enumerate_semigroup(p, max_elements=g.order - 1)

    def test_images_are_the_node_maps(self, ex1, ex4):
        for g in (ex1, ex4):
            for node in range(g.size):
                assert g.images(node) == bytes(g.element(node).images)

    @pytest.mark.parametrize("node", [-1, 4])
    def test_images_outside_the_nodes_raise(self, ex1, node):
        with pytest.raises(ValueError):
            ex1.images(node)

    @pytest.mark.parametrize("state", [0, 4])
    def test_column_outside_the_states_raises(self, ex4, state):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            ex4.column(state)

    @pytest.mark.parametrize("node", [-1, -22, 22, 999])
    def test_steps_and_walks_outside_the_nodes_raise(self, ex4, node):
        # ex4 has 22 nodes; a negative node must not wrap round to the last ones
        assert ex4.size == 22
        with pytest.raises(ValueError, match=r"outside 0\.\.21"):
            ex4.step(node, 0)
        with pytest.raises(ValueError, match=r"outside 0\.\.21"):
            ex4.walk((0,), start=node)

    @pytest.mark.parametrize("letter", [-1, 3])
    def test_step_letter_outside_the_generators_raises(self, ex4, letter):
        # a letter past the last generator would read the next node's row
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            ex4.step(0, letter)

    def test_retains_flat_storage_only(self):
        # n bytes of images and k edges of 4 bytes each
        p = deep_presentation()
        gc.collect()
        tracemalloc.start()
        try:
            graph = enumerate_semigroup(p)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert graph.size == 641
        assert held <= (p.n + 4 * graph.num_letters) * graph.size + 4096

    def test_too_many_states_rejected(self):
        with pytest.raises(ValueError):
            enumerate_semigroup(Presentation(256, [("e", identity(256))]))


class TestElementIndex:
    def test_identity_is_node_zero(self, ex1):
        assert ex1.element_index(identity(4)) == 0

    def test_square_of_generator(self, ex1):
        node = ex1.element_index(Transformation((4, 2, 2, 4)))
        assert ex1.first_word(node) == (0, 0)

    def test_not_in_semigroup(self, ex1):
        with pytest.raises(NotInSemigroup):
            ex1.element_index(Transformation((1, 1, 1, 1)))

    def test_wrong_state_count(self, ex1):
        with pytest.raises(NotInSemigroup):
            ex1.element_index(identity(3))

    def test_every_node_round_trips(self, ex1, ex2, ex3, ex4):
        for g in (ex1, ex2, ex3, ex4):
            for node in range(g.size):
                assert g.element_index(g.element(node)) == node

    def test_straddling_matches_are_skipped(self):
        # node maps 12, 22, 11: "22" first occurs across nodes 0 and 1,
        # and "21" only across nodes 1 and 2
        g = enumerate_semigroup(Presentation(2, [("a", Transformation((2, 2))),
                                                 ("b", Transformation((1, 1)))]))
        packed = b"".join(map(g.images, range(g.size)))
        assert packed == bytes((1, 2, 2, 2, 1, 1))
        assert packed.find(b"\x02\x02") == 1 and packed.find(b"\x02\x01") == 3
        assert g.element_index(Transformation((2, 2))) == 1
        with pytest.raises(NotInSemigroup):
            g.element_index(Transformation((2, 1)))


class TestTrajectory:
    def test_power_trajectory_repeats(self, ex1):
        t2 = ex1.element_index(Transformation((4, 2, 2, 4)))
        nodes = ex1.trajectory((0, 0, 0, 0))
        assert len(nodes) == 5
        assert nodes[0] == 0
        assert nodes[4] == nodes[2] == t2

    def test_cycle_returns_to_identity(self, ex2):
        assert ex2.trajectory((0, 0, 0)) == (0, 1, 2, 0)

    def test_single_letter(self, ex4):
        nodes = ex4.trajectory((2,))
        assert nodes == (0, ex4.walk((2,)))

    def test_bad_letter(self, ex4):
        with pytest.raises(ValueError):
            ex4.trajectory((0, 9))
        with pytest.raises(ValueError):
            ex4.trajectory(())


class TestWalkFrom:
    def test_matches_walk_from_each_start(self, graphs):
        for g in graphs:
            for word in [(0,), tuple(range(g.num_letters)) * 2, (g.num_letters - 1, 0, 0)]:
                starts = list(range(g.size)) + [0, g.size - 1]
                assert list(g.walk_from(word, starts)) == [g.walk(word, start=s) for s in starts]

    def test_starts_read_as_they_come(self, ex2):
        # a list that grows while it is read: the cycle's powers
        nodes = [0]
        for end in ex2.walk_from((0,), nodes):
            if end not in nodes:
                nodes.append(end)
        assert nodes == [0, 1, 2]

    def test_bad_word_raises_at_the_call(self, ex4):
        for word in [(), (0, 3), (-1,), (1.0,)]:
            with pytest.raises(ValueError):
                ex4.walk_from(word, iter(()))

    @pytest.mark.parametrize("start", [-1, 22, 100])
    def test_start_outside_the_nodes_raises(self, ex4, start):
        ends = ex4.walk_from((0,), [0, start])
        assert next(ends) == ex4.walk((0,))
        with pytest.raises(ValueError, match=r"outside 0\.\.21"):
            next(ends)


class TestIsStraight:
    def test_full_cycle_loop_is_straight(self, ex2):
        assert ex2.is_straight((0, 0, 0))

    def test_fourth_power_is_not(self, ex1):
        assert not ex1.is_straight((0, 0, 0, 0))

    def test_powers_up_to_cube_are(self, ex1):
        for k in (1, 2, 3):
            assert ex1.is_straight((0,) * k)

    def test_loop_with_interior_identity_is_not(self, ex2):
        assert not ex2.is_straight((0,) * 6)

    def test_agrees_with_direct_oracle(self, ex4):
        p = ex4.presentation
        for k in range(1, 6):
            for word in itertools.product(range(3), repeat=k):
                assert ex4.is_straight(word) == oracle_is_straight(p, word)


class TestFirstWords:
    def test_first_words_realize_their_node(self, ex4):
        p = ex4.presentation
        for node in range(1, ex4.size):
            w = ex4.first_word(node)
            assert ex4.walk(w) == node
            assert evaluate(p, w) == ex4.element(node)

    def test_first_words_are_straight(self, ex1, ex4):
        for g in (ex1, ex4):
            for node in range(1, g.size):
                assert g.is_straight(g.first_word(node))

    def test_first_words_within_length_bound(self, ex1, ex2, ex3, ex4):
        for g in (ex1, ex2, ex3, ex4):
            for node in range(1, g.size):
                assert len(g.first_word(node)) <= g.order

    def test_minimal_length_words_are_straight(self, ex4):
        # every shortest word for an element is straight, and the first
        # word is the lexicographically least shortest one (checked
        # exhaustively to length 6)
        p = ex4.presentation
        shortest = {}
        for k in range(1, 7):
            for word in itertools.product(range(3), repeat=k):
                node = ex4.walk(word)
                if node not in shortest:
                    shortest[node] = word
                if len(shortest[node]) == k:
                    assert ex4.is_straight(word)
        for node, word in shortest.items():
            assert ex4.first_word(node) == word

    def test_first_words_are_least_shortest_words(self, graphs):
        checked = 0
        for g in graphs:
            first = oracle_first_words(g.presentation)
            if first is None:
                continue  # too many words of the longest length to list
            checked += 1
            assert len(first) == g.order
            for node in range(1, g.size):
                assert g.first_word(node) == first[tuple(g.images(node))]
        assert checked >= 75

    def test_node_zero_has_no_first_word(self, ex2):
        with pytest.raises(ValueError):
            ex2.first_word(0)

    def test_census_size_first_words_match_the_oracle(self):
        g = enumerate_semigroup(alternating_presentation())
        assert g.size == 2520
        first = oracle_first_words(g.presentation, budget=40000)
        words = [g.first_word(node) for node in range(1, g.size)]
        assert words == [first[tuple(g.images(node))] for node in range(1, g.size)]
        assert [g.first_word(node) for node in range(g.size - 1, 0, -1)] == words[::-1]

    def test_first_edges_are_kept_from_the_first_call_on(self):
        p = alternating_presentation()
        gc.collect()
        tracemalloc.start()
        try:
            graph = enumerate_semigroup(p)
            gc.collect()
            enumerated = tracemalloc.get_traced_memory()[0]
            last = graph.first_word(graph.size - 1)
            asked = tracemalloc.get_traced_memory()[0]
            assert graph.first_word(graph.size - 1) == last
            asked_again = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # no table until a first word is asked for, then one 4-byte edge per node, once
        assert enumerated <= (p.n + 4 * graph.num_letters) * graph.size + 4096
        assert asked - enumerated >= 4 * (graph.size - 1)
        assert asked_again - asked < 1024

    def test_threads_racing_on_the_first_call_read_whole_tables(self):
        expected = enumerate_semigroup(alternating_presentation())
        expected = [expected.first_word(node) for node in range(1, expected.size)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                g = enumerate_semigroup(alternating_presentation())
                seen = []
                # each thread starts at another node, so some read while the table is built
                threads = [threading.Thread(target=lambda start=start: seen.append(
                               [g.first_word(node) for node in range(start, g.size)]))
                           for start in (1, 600, 1200, 1800, 2400)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert sorted(seen, key=len, reverse=True) == [
                    expected[start - 1:] for start in (1, 600, 1200, 1800, 2400)]
        finally:
            sys.setswitchinterval(switch)


class TestSynonymTrajectories:
    def test_equal_generators_share_trajectories(self):
        t = Transformation((2, 4, 1, 2))
        p = Presentation(4, [("s", t), ("t", t)])
        g = enumerate_semigroup(p)
        assert g.trajectory((0, 1)) == g.trajectory((1, 0))
        assert g.trajectory((0,)) == g.trajectory((1,))

    def test_distinct_words_same_element_different_trajectories(self):
        t = Transformation((2, 4, 1, 2))
        r = compose(t, t)
        p = Presentation(4, [("t", t), ("r", r)])
        g = enumerate_semigroup(p)
        assert g.walk((1,)) == g.walk((0, 0))
        assert g.trajectory((1,)) != g.trajectory((0, 0))
