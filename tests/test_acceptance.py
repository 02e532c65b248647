"""Acceptance checks, one per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import functools
import itertools
import random
import time

from strayt import (all_straight_words, compose, enumerate_semigroup,
                    evaluate, factorize, fixture_path,
                    is_minimal_permutator, load_presentation,
                    minimal_straight_permutators, parse_linear, perm_semigroup,
                    permutes, print_linear, reduce_word, restrict,
                    straight_permutator_words, subgroup_closure,
                    Transformation)

from test_cayley import oracle_is_straight
from test_straightwords import CONSTANT_WORDS, SINGLETON_WORDS

A_FORM = "([1,2,10;3],[4,7,9,11,12,15,16;5],[6,13,14;8])"
B_FORM = "[1,2,4;3]([10,11,12,13,14,15,16;5],[6,7,9;8])"
X_FORM = "([10,11,12,13,14,15,16;3],[1,2,4;5],[6,7,9;8])"
Y_FORM = "([1,2,10;5],[6,13,14;8])[4,7,9,11,12,15,16;3]"
A3_FORM = "[1,2,10;8][4,7,9,11,12,15,16;3][6,13,14;5]"
B2_FORM = "[1,2,4;3][6,7,9;5][10,11,12,13,14,15,16;8]"


def report(num, ok, label):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_monogenic_powers():
    p = load_presentation(fixture_path("ex1_monogenic"))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        g = enumerate_semigroup(p)
        order_ok = g.order == 3
        words_ok = set(all_straight_words(g).words) == {(0,), (0, 0), (0, 0, 0)}
        fourth_ok = not g.is_straight((0, 0, 0, 0))
        best = min(best, time.perf_counter() - t0)
    ok = order_ok and words_ok and fourth_ok and best < 1e-3
    report(1, ok, f"order 3, straight words t/tt/ttt, tttt not straight "
                  f"({best * 1e6:.0f}us)")


def test_criterion_02_census():
    p = load_presentation(fixture_path("ex4_abc"))
    t0 = time.perf_counter()
    g = enumerate_semigroup(p)
    order_ok = g.order == 21
    census = {}
    for w in all_straight_words(g):
        census.setdefault(g.walk(w), set()).add(p.format_word(w))
    singles_ok = all(
        census.get(g.element_index(parse_linear(form, 3))) == {word}
        for form, word in SINGLETON_WORDS.items())
    constants_ok = all(
        census.get(g.element_index(parse_linear(form, 3))) == expected
        for form, expected in CONSTANT_WORDS.items())
    complete_ok = len(census) == 21
    elapsed = time.perf_counter() - t0
    ok = order_ok and singles_ok and constants_ok and complete_ok and elapsed < 1.0
    report(2, ok, f"order 21 with the full straight-word census ({elapsed:.2f}s)")


def test_criterion_03_permutator_words(ex4):
    result = straight_permutator_words(ex4, {1, 2})
    p = ex4.presentation
    names = {p.format_word(w) for w in result}
    words_ok = names == {"c", "bac", "cbac", "bacbac"}
    swapped = {"bac", "cbac"}
    fixed = {"c", "bacbac"}
    restr_ok = all(
        restrict(evaluate(p, p.word(w)), {1, 2}) == {1: 2, 2: 1} for w in swapped
    ) and all(
        restrict(evaluate(p, p.word(w)), {1, 2}) == {1: 1, 2: 2} for w in fixed)
    report(3, words_ok and restr_ok,
           "straight permutator words of {1,2} with their restrictions")


def test_criterion_04_p53_order(p53):
    ok = p53.graph.order == 316665 and p53.seconds < 60.0
    report(4, ok, f"p53 semigroup has 316665 elements "
                  f"(got {p53.graph.order} in {p53.seconds:.1f}s)")


def test_criterion_05_p53_permutator_count(p53):
    ps = perm_semigroup(p53.graph, {3, 5, 8})
    count = len(ps.element_indices)
    group_ok = ps.restriction_group_order == 6
    ok = count == 542 and group_ok
    report(5, ok, f"|Perm({{3,5,8}})| = 542 with restriction group order 6 "
                  f"(got {count}, group order {ps.restriction_group_order})")


def test_criterion_06_p53_words_straight_and_minimal(p53):
    g = p53.graph
    straight_ok = g.is_straight(p53.a) and g.is_straight(p53.b)
    a_ok = g.element(g.walk(p53.a)) == parse_linear(A_FORM, 16)
    b_ok = g.element(g.walk(p53.b)) == parse_linear(B_FORM, 16)
    minimal_ok = (is_minimal_permutator(g, p53.a, {3, 5, 8})
                  and is_minimal_permutator(g, p53.b, {3, 5, 8}))
    report(6, straight_ok and a_ok and b_ok and minimal_ok,
           "a and b are straight minimal permutators matching their forms")


def _ab_product(letters):
    """The map of a word over {a, b}, composed from the quoted a/b forms."""
    forms = {"a": parse_linear(A_FORM, 16), "b": parse_linear(B_FORM, 16)}
    return functools.reduce(compose, (forms[letter] for letter in letters))


def test_criterion_07_p53_reductions(p53):
    g = p53.graph
    x = p53.b + p53.b + p53.a + p53.b + p53.b
    y = p53.a * 3 + p53.b + p53.a * 3
    rx = reduce_word(g, x)
    ry = reduce_word(g, y)
    x_len_ok = len(x) == 73 and len(rx) == 43
    y_len_ok = len(y) == 93 and len(ry) == 54
    # The expected forms follow from a and b alone (criterion 6 checks those).
    forms_ok = (_ab_product("bbabb") == parse_linear(X_FORM, 16)
                and _ab_product("aaabaaa") == parse_linear(Y_FORM, 16))
    x_real = g.element(g.walk(rx))
    y_real = g.element(g.walk(ry))
    x_form_ok = x_real == parse_linear(X_FORM, 16)
    y_form_ok = y_real == parse_linear(Y_FORM, 16)
    ok = x_len_ok and y_len_ok and forms_ok and x_form_ok and y_form_ok
    report(7, ok, f"bbabb reduces to 43 letters realizing {X_FORM} and aaabaaa "
                  f"to 54 realizing {Y_FORM} (x form match: {x_form_ok}, "
                  f"y form match: {y_form_ok}, "
                  f"x actually prints as {print_linear(x_real)})")


def test_criterion_08_p53_two_groups(p53):
    g = p53.graph
    closure = subgroup_closure(g, [p53.a, p53.b])
    size_ok = len(closure) == 12
    x = p53.b + p53.b + p53.a + p53.b + p53.b
    y = p53.a * 3 + p53.b + p53.a * 3
    a3 = g.walk(p53.a * 3)
    y2 = g.walk(y + y)
    b2 = g.walk(p53.b + p53.b)
    x3 = g.walk(x * 3)
    first_ok = a3 == y2 == g.element_index(parse_linear(A3_FORM, 16))
    second_ok = b2 == x3 == g.element_index(parse_linear(B2_FORM, 16))
    distinct_ok = a3 != b2
    report(8, size_ok and first_ok and second_ok and distinct_ok,
           "a,b generate 12 elements with the two printed unequal idempotents")


def test_criterion_09_code_property(ex4, p53):
    rng = random.Random(1789)
    failures = 0
    code4 = [ex4.presentation.word("c"), ex4.presentation.word("bac")]
    for _ in range(1000):
        pieces = [rng.choice(code4) for _ in range(rng.randint(1, 10))]
        w = tuple(x for f in pieces for x in f)
        if factorize(ex4, w, {1, 2}) != pieces:
            failures += 1
    code53 = [p53.a, p53.b]
    for _ in range(1000):
        pieces = [rng.choice(code53) for _ in range(rng.randint(1, 8))]
        w = tuple(x for f in pieces for x in f)
        if factorize(p53.graph, w, {3, 5, 8}) != pieces:
            failures += 1
    report(9, failures == 0,
           f"2000 random code sequences factorize back exactly ({failures} failures)")


def _oracle_minimal_factorization_count(p, word, members):
    m = len(word)
    perm = [[False] * (m + 1) for _ in range(m)]
    for i in range(m):
        cur = None
        for j in range(i + 1, m + 1):
            t = p.generators[word[j - 1]][1]
            cur = t if cur is None else compose(cur, t)
            perm[i][j] = permutes(cur, members)
    counts = [0] * (m + 1)
    counts[0] = 1
    for j in range(1, m + 1):
        counts[j] = sum(
            counts[i] for i in range(j)
            if counts[i] and perm[i][j]
            and not any(perm[i][x] and perm[x][j] for x in range(i + 1, j)))
    return counts[m], perm[0][m]


def test_criterion_10_brute_force_oracle(ex4):
    t0 = time.perf_counter()
    p = ex4.presentation
    straight_mismatches = 0
    uniqueness_failures = 0
    permutator_words = 0
    for k in range(1, 9):
        for word in itertools.product(range(3), repeat=k):
            if ex4.is_straight(word) != oracle_is_straight(p, word):
                straight_mismatches += 1
            count, is_permutator = _oracle_minimal_factorization_count(p, word, {1, 2})
            if is_permutator:
                permutator_words += 1
                if count != 1 or len(factorize(ex4, word, {1, 2})) < 1:
                    uniqueness_failures += 1
            elif count != 0:
                uniqueness_failures += 1
    elapsed = time.perf_counter() - t0
    ok = (straight_mismatches == 0 and uniqueness_failures == 0
          and permutator_words > 0 and elapsed < 10.0)
    report(10, ok, f"9840-word oracle sweep: straightness and unique "
                   f"factorization agree ({elapsed:.1f}s)")


def test_criterion_11_length_bound(ex1, ex2, ex3, ex4):
    ok = True
    for g in (ex1, ex2, ex3, ex4):
        for w in all_straight_words(g):
            ok = ok and len(w) <= g.order
    for g, states in ((ex2, {1, 2, 3}), (ex4, {1, 2})):
        for w in straight_permutator_words(g, states):
            ok = ok and len(w) <= g.order
        for w in minimal_straight_permutators(g, states):
            ok = ok and len(w) <= g.order
    report(11, ok, "no enumerated straight word exceeds the element count")


def test_criterion_12_notation_round_trip():
    rng = random.Random(90125)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 16)
        s = Transformation(tuple(rng.randint(1, n) for _ in range(n)))
        if parse_linear(print_linear(s), n) != s:
            failures += 1
    report(12, failures == 0,
           f"1000 random transformations round-trip ({failures} failures)")
