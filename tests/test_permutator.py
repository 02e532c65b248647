import random

import pytest
from hypothesis import given, settings, strategies as st

from strayt import (EnumerationLimitExceeded, NotAPermutatorWord, Presentation,
                    SearchLimits, Transformation, compose, enumerate_semigroup,
                    evaluate, factorize, is_minimal_permutator,
                    minimal_straight_permutators, perm_semigroup, permutes,
                    reduce_word, restrict, retract, straight_paths,
                    subgroup_closure)


def word(graph, text):
    return graph.presentation.word(text)


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(any(x == y for y in it) for x in sub)


def reference_reduce(graph, word):
    """Loop excision by repeated rescans: cut from the earliest recurring
    node to its last occurrence (to its last interior one for node 0 when
    the word returns there), until only the allowed final loop is left."""
    letters = list(word)
    while True:
        nodes = graph.trajectory(letters)
        last = len(nodes) - 1
        occurrences = {}
        for i, v in enumerate(nodes):
            occurrences.setdefault(v, []).append(i)
        cut = None
        for i, v in enumerate(nodes):
            occ = occurrences[v]
            if occ[0] != i or len(occ) == 1:
                continue
            if v == 0 and i == 0 and occ[1:] == [last]:
                continue  # allowed loop
            j = occ[-1]
            if v == 0 and i == 0 and j == last:
                j = occ[-2]
            cut = (i, j)
            break
        if cut is None:
            return tuple(letters)
        i, j = cut
        del letters[i:j]


def random_graphs(seed, count):
    """Seeded random presentations on 2-5 states with 1-3 generators."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(2, 5)
        gens = [(name, Transformation(rng.randint(1, n) for _ in range(n)))
                for name in "abc"[:rng.randint(1, 3)]]
        graphs.append(enumerate_semigroup(Presentation(n, gens)))
    return graphs


def mixed_graphs(seed, count):
    """Seeded random presentations on 1-20 states with 1-3 generators, each
    a random map or a product of disjoint 2- and 3-cycles, kept when they
    have at most 400 elements."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(1, 20)
        gens = []
        for name in "abc"[:rng.randint(1, 3)]:
            if rng.random() < 0.5:
                images = list(range(1, n + 1))
                order = rng.sample(range(1, n + 1), n)
                while len(order) >= 2:
                    cycle = [order.pop() for _ in range(min(len(order), rng.choice((2, 3))))]
                    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                        images[x - 1] = y
            else:
                images = [rng.randint(1, n) for _ in range(n)]
            gens.append((name, Transformation(images)))
        try:
            graphs.append(enumerate_semigroup(Presentation(n, gens), max_elements=400))
        except EnumerationLimitExceeded:
            pass
    return graphs


class TestPermSemigroup:
    def test_abc_pair_members(self, ex4):
        ps = perm_semigroup(ex4, {1, 2})
        expected = {ex4.walk(word(ex4, w)) for w in ("c", "bac", "cbac", "bacbac")}
        assert ps.element_indices == expected
        assert ps.restriction_group_order == 2

    def test_abc_full_set_is_empty(self, ex4):
        # products of collapsings are never injective, so nothing permutes
        # the whole state set; cross-checked against a direct filter
        direct = {node for node in range(1, ex4.size)
                  if permutes(ex4.element(node), {1, 2, 3})}
        assert direct == set()
        ps = perm_semigroup(ex4, {1, 2, 3})
        assert ps.element_indices == frozenset()
        assert ps.restriction_group_order == 0

    def test_cycle_group_everything_permutes(self, ex2):
        ps = perm_semigroup(ex2, {1, 2, 3})
        assert ps.element_indices == {0, 1, 2}
        assert ps.restriction_group_order == 3

    def test_members_closed_under_products(self, ex4):
        ps = perm_semigroup(ex4, {1, 2})
        members = sorted(ps.element_indices)
        for i in members:
            for j in members:
                product = compose(ex4.element(i), ex4.element(j))
                assert ex4.element_index(product) in ps.element_indices

    def test_group_order_is_closure_of_restrictions(self, ex1, ex2, ex3, ex4):
        graphs = [ex1, ex2, ex3, ex4] + random_graphs(5, 12)
        rng = random.Random(17)
        for g in graphs:
            n = g.presentation.n
            for _ in range(4):
                states = rng.sample(range(1, n + 1), rng.randint(1, n))
                ps = perm_semigroup(g, states)
                seeds = {tuple(sorted(restrict(g.element(node), states).items()))
                         for node in ps.element_indices}
                closed = set(seeds)
                while True:
                    fresh = {tuple((y, dict(q)[x]) for y, x in p)
                             for p in closed for q in seeds} - closed
                    if not fresh:
                        break
                    closed |= fresh
                assert ps.restriction_group_order == len(closed)

    def test_p53_three_states(self, p53):
        ps = perm_semigroup(p53.graph, {3, 5, 8})
        assert (len(ps.element_indices), ps.restriction_group_order) == (549, 6)

    def test_matches_direct_filter(self, ex1, ex3, ex4):
        for g, states in ((ex1, {2, 4}), (ex3, {1}), (ex4, {1, 2})):
            direct = {node for node in range(1, g.size)
                      if permutes(g.element(node), states)}
            assert perm_semigroup(g, states).element_indices == direct


class TestIsMinimalPermutator:
    def test_single_collapsing_is_minimal(self, ex4):
        assert is_minimal_permutator(ex4, word(ex4, "c"), {1, 2})
        assert is_minimal_permutator(ex4, word(ex4, "bac"), {1, 2})

    def test_products_are_not(self, ex4):
        assert not is_minimal_permutator(ex4, word(ex4, "cbac"), {1, 2})
        assert not is_minimal_permutator(ex4, word(ex4, "bacbac"), {1, 2})

    def test_non_permutator_is_not(self, ex4):
        assert not is_minimal_permutator(ex4, word(ex4, "b"), {1, 2})

    def test_non_straight_minimal_permutator(self, ex4):
        # pumping the idempotent middle letter keeps minimality
        for text in ("baac", "baaac", "bbac"):
            w = word(ex4, text)
            assert not ex4.is_straight(w)
            assert is_minimal_permutator(ex4, w, {1, 2})

    def test_agrees_with_product_definition(self, ex4):
        # minimal means not splittable into two permutator words
        import itertools
        Y = {1, 2}
        for k in range(1, 7):
            for w in itertools.product(range(3), repeat=k):
                w = tuple(w)
                splittable = any(
                    permutes(ex4.element(ex4.walk(w[:i])), Y)
                    and permutes(ex4.element(ex4.walk(w[i:])), Y)
                    for i in range(1, k))
                expected = permutes(ex4.element(ex4.walk(w)), Y) and not splittable
                assert is_minimal_permutator(ex4, w, Y) == expected


class TestMinimalStraightPermutators:
    def test_abc_pair(self, ex4):
        code = minimal_straight_permutators(ex4, {1, 2})
        assert {ex4.presentation.format_word(w) for w in code} == {"c", "bac"}

    def test_cycle_group_single_generator(self, ex2):
        assert minimal_straight_permutators(ex2, {1, 2, 3}).words == ((0,),)

    def test_filters_straight_permutator_words(self, ex4):
        from strayt import straight_permutator_words
        straight = straight_permutator_words(ex4, {1, 2})
        expected = tuple(w for w in straight
                         if is_minimal_permutator(ex4, w, {1, 2}))
        assert minimal_straight_permutators(ex4, {1, 2}).words == expected

    def test_prefix_free(self, ex2, ex3, ex4):
        for g, states in ((ex2, {1, 2, 3}), (ex3, {2}), (ex4, {1, 2})):
            code = list(minimal_straight_permutators(g, states))
            for u in code:
                for v in code:
                    assert u == v or u != v[:len(u)]

    def test_limits_apply(self, ex4):
        code = minimal_straight_permutators(ex4, {1, 2},
                                            SearchLimits(max_results=1))
        assert code.truncated and code.words == ((2,),)


class TestFactorize:
    def test_two_factor_word(self, ex4):
        assert factorize(ex4, word(ex4, "cbac"), {1, 2}) == [
            word(ex4, "c"), word(ex4, "bac")]

    def test_repeated_factor(self, ex4):
        assert factorize(ex4, word(ex4, "bacbac"), {1, 2}) == [
            word(ex4, "bac"), word(ex4, "bac")]

    def test_minimal_word_is_single_factor(self, ex4):
        assert factorize(ex4, word(ex4, "bac"), {1, 2}) == [word(ex4, "bac")]

    def test_rejects_non_permutator(self, ex4):
        for text in ("b", "ba", "ab"):
            with pytest.raises(NotAPermutatorWord):
                factorize(ex4, word(ex4, text), {1, 2})

    def test_concatenation_recovers_input(self, ex4):
        w = word(ex4, "cbacbacc")
        factors = factorize(ex4, w, {1, 2})
        assert tuple(x for f in factors for x in f) == w

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(["c", "bac"]), min_size=1, max_size=8))
    def test_code_property(self, ex4, pieces):
        w = word(ex4, "".join(pieces))
        assert factorize(ex4, w, {1, 2}) == [word(ex4, piece) for piece in pieces]

    def test_factorization_uniqueness_exhaustive(self, ex4):
        # Over all words up to length 12: every permutator word has exactly
        # one factorization into blocks that are permutator words not
        # themselves splittable into two permutator words, and it is the
        # one factorize returns. Block realizations are carried
        # incrementally along a word-tree walk.
        max_len = 12
        k = 3
        step = ex4.step
        is_perm = [permutes(ex4.element(node), {1, 2}) for node in range(ex4.size)]
        checked = [0]

        def inspect(rows, d):
            perm = [[False] * (d + 1) for _ in range(d)]
            for j in range(1, d + 1):
                row = rows[j]
                for i in range(j):
                    perm[i][j] = is_perm[row[i]]
            counts = [0] * (d + 1)
            counts[0] = 1
            for j in range(1, d + 1):
                total = 0
                for i in range(j):
                    if counts[i] and perm[i][j] and not any(
                            perm[i][x] and perm[x][j] for x in range(i + 1, j)):
                        total += counts[i]
                counts[j] = total
            assert counts[d] == 1
            checked[0] += 1

        def walk(wordbuf, rows):
            d = len(wordbuf)
            for letter in range(k):
                prev = rows[d]
                row = tuple(step(node, letter) for node in prev) + (step(0, letter),)
                rows.append(row)
                wordbuf.append(letter)
                if is_perm[row[0]] and row[0] != 0:
                    inspect(rows, d + 1)
                    factors = factorize(ex4, tuple(wordbuf), {1, 2})
                    boundary = 0
                    for f in factors:
                        boundary += len(f)
                        assert is_perm[rows[boundary][boundary - len(f)]]
                if d + 1 < max_len:
                    walk(wordbuf, rows)
                wordbuf.pop()
                rows.pop()

        walk([], [()])
        assert checked[0] == 2730


class TestReduceWord:
    def test_already_straight_unchanged(self, ex4):
        for text in ("c", "bac", "cbacba"):
            w = word(ex4, text)
            assert reduce_word(ex4, w) == w

    def test_pumped_idempotent(self, ex4):
        assert reduce_word(ex4, word(ex4, "baac")) == word(ex4, "bac")
        assert reduce_word(ex4, word(ex4, "baaaac")) == word(ex4, "bac")

    def test_power_past_cycle(self, ex1):
        # the fourth power falls back onto the square
        assert reduce_word(ex1, (0, 0, 0, 0)) == (0, 0)
        assert ex1.walk((0, 0, 0, 0)) == ex1.walk((0, 0))

    def test_loop_is_kept(self, ex2):
        assert reduce_word(ex2, (0, 0, 0)) == (0, 0, 0)

    def test_repeated_loop_shrinks_to_one(self, ex2):
        assert reduce_word(ex2, (0,) * 6) == (0, 0, 0)
        assert reduce_word(ex2, (0,) * 9) == (0, 0, 0)

    def test_interior_loop_prefix_dropped(self, ex2):
        assert reduce_word(ex2, (0, 0, 0, 0)) == (0,)

    def test_properties_on_random_words(self, ex4):
        rng = random.Random(7)
        for _ in range(300):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 14)))
            r = reduce_word(ex4, w)
            assert ex4.is_straight(r)
            assert ex4.walk(r) == ex4.walk(w)
            assert len(r) <= len(w)
            assert is_subsequence(r, w)


    def test_matches_rescan_reference(self, ex1, ex2, ex3, ex4):
        rng = random.Random(23)
        for g in [ex1, ex2, ex3, ex4] + random_graphs(29, 12):
            k = g.num_letters
            for _ in range(150):
                w = tuple(rng.randrange(k) for _ in range(rng.randint(1, 30)))
                assert reduce_word(g, w) == reference_reduce(g, w)

    def test_matches_rescan_reference_through_identity(self, ex2):
        # concatenated loop words realize the identity and pass through
        # node 0 inside the word; some get a random tail as well
        graphs = [ex2] + [g for g in random_graphs(31, 40) if g.contains_identity]
        assert len(graphs) > 5
        rng = random.Random(37)
        for g in graphs:
            loops = straight_paths(g, 0, 0, SearchLimits(max_length=8)).words
            for _ in range(60):
                w = sum((rng.choice(loops) for _ in range(rng.randint(1, 4))), ())
                if rng.random() < 0.3:
                    w += tuple(rng.randrange(g.num_letters) for _ in range(rng.randint(1, 3)))
                assert reduce_word(g, w) == reference_reduce(g, w)


class TestRetract:
    def test_fixes_straight_minimal_words(self, ex4):
        for text in ("c", "bac"):
            w = word(ex4, text)
            assert retract(ex4, w, {1, 2}) == w

    def test_straightens_pumped_factor(self, ex4):
        assert retract(ex4, word(ex4, "cbaac"), {1, 2}) == word(ex4, "cbac")

    def test_preserves_realization(self, ex4):
        rng = random.Random(11)
        pieces = ["c", "bac", "baac", "bbac", "cbaaac"]
        for _ in range(200):
            w = word(ex4, "".join(rng.choice(pieces)
                                  for _ in range(rng.randint(1, 5))))
            r = retract(ex4, w, {1, 2})
            assert ex4.walk(r) == ex4.walk(w)
            assert ex4.is_straight(r) or all(
                ex4.is_straight(f) for f in factorize(ex4, r, {1, 2}))

    def test_multiplicative(self, ex4):
        rng = random.Random(13)
        pieces = ["c", "bac", "baac", "bbac"]
        for _ in range(200):
            u = word(ex4, "".join(rng.choice(pieces)
                                  for _ in range(rng.randint(1, 4))))
            v = word(ex4, "".join(rng.choice(pieces)
                                  for _ in range(rng.randint(1, 4))))
            assert retract(ex4, u + v, {1, 2}) == (
                retract(ex4, u, {1, 2}) + retract(ex4, v, {1, 2}))

    def test_factors_stay_minimal(self, ex4):
        w = word(ex4, "cbaacbaac")
        r = retract(ex4, w, {1, 2})
        for f in factorize(ex4, r, {1, 2}):
            assert is_minimal_permutator(ex4, f, {1, 2})
            assert ex4.is_straight(f)

    def test_rejects_non_permutator(self, ex4):
        with pytest.raises(NotAPermutatorWord):
            retract(ex4, word(ex4, "ba"), {1, 2})


class TestMinimalCodeGenerates:
    def test_code_closure_is_whole_permutator_semigroup(self, ex4):
        # products of the minimal straight permutator words reach every
        # permutator element
        code = list(minimal_straight_permutators(ex4, {1, 2}))
        closure = subgroup_closure(ex4, code)
        assert closure == perm_semigroup(ex4, {1, 2}).element_indices

    def test_p53_group_structure(self, p53):
        g = p53.graph
        members = perm_semigroup(g, {3, 5, 8}).element_indices
        closure = subgroup_closure(g, [p53.a, p53.b])
        assert closure <= members
        assert g.walk(p53.a * 3) in members
        assert g.walk(p53.b + p53.b) in members

    def test_p53_retraction_fixes_straight_factors(self, p53):
        g = p53.graph
        x = p53.b + p53.b + p53.a + p53.b + p53.b
        assert retract(g, x, {3, 5, 8}) == x


class TestSubgroupClosure:
    def test_idempotent_seed_is_its_own_closure(self, ex4):
        a = word(ex4, "a")
        assert subgroup_closure(ex4, [a]) == {ex4.walk(a)}

    def test_matches_direct_closure(self, ex4):
        seeds = [word(ex4, "ab"), word(ex4, "ca")]
        base = [evaluate(ex4.presentation, w) for w in seeds]
        closed = set(base)
        while True:
            fresh = {compose(s, t) for s in closed for t in base} - closed
            if not fresh:
                break
            closed |= fresh
        expected = {ex4.element_index(s) for s in closed}
        assert subgroup_closure(ex4, seeds) == expected

    def test_requires_a_seed(self, ex4):
        with pytest.raises(ValueError):
            subgroup_closure(ex4, [])
