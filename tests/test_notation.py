import random

import pytest
from hypothesis import given, strategies as st

from strayt import (NotationError, Transformation, identity, parse_images,
                    parse_linear, print_linear)

P53_GENERATORS = [
    "[1;2][3;4][5;6][7;9][8;10][11;12][13;14][15;16]",
    "[2;1][4;3][6;5][9;7][10;8][12;11][14;13][16;15]",
    "[1;3][2;4][5;7][6;9][8;11][10;12][13;15][14;16]",
    "[3;1][4;2][7;5][9;6][11;8][12;10][15;13][16;14]",
    "[4,12;8][9,16;13]",
    "[2,6;5][4,9;7][10,14;13][12,16;15]",
    "[8,11;3][10,12;4][13,15;7][14,16;9]",
    "[5,6;2][7,9;4][13,14;10][15,16;12]",
    "[5;1][6;2][7;3][9;4][13;8][14;10][15;11][16;12]",
]


@st.composite
def transformations(draw, max_n=16):
    n = draw(st.integers(1, max_n))
    return Transformation(draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))


class TestParseLinear:
    def test_cycle_with_tree(self):
        assert parse_linear("([[3;1];2],4)", 4).images == (2, 4, 1, 2)

    def test_single_collapsing(self):
        assert parse_linear("[3;1]", 3).images == (1, 2, 1)

    def test_two_components(self):
        t = parse_linear("[4,12;8][9,16;13]", 16)
        expected = {4: 8, 12: 8, 9: 13, 16: 13}
        assert t.images == tuple(expected.get(x, x) for x in range(1, 17))

    def test_empty_form_is_identity(self):
        assert parse_linear("", 5) == identity(5)
        assert parse_linear("   ", 5) == identity(5)
        assert parse_linear("()", 5) == identity(5)

    def test_plain_cycle(self):
        assert parse_linear("(1,2,3)", 3).images == (2, 3, 1)

    def test_parenthesized_single_entry(self):
        assert parse_linear("(4)", 4) == identity(4)
        assert parse_linear("([1;2])", 3).images == (2, 2, 3)

    def test_whitespace_ignored(self):
        assert parse_linear(" ( [ [ 3 ; 1 ] ; 2 ] , 4 ) ", 4).images == (2, 4, 1, 2)

    def test_point_out_of_range(self):
        with pytest.raises(NotationError):
            parse_linear("[3;1]", 2)

    def test_point_mentioned_twice(self):
        with pytest.raises(NotationError):
            parse_linear("(1,1)", 3)
        with pytest.raises(NotationError):
            parse_linear("[1;2][1;3]", 3)

    def test_syntax_errors(self):
        for bad in ("[1;2", "(1,", "[;2]", "1]", "[1,2]", "x", "(1 2)"):
            with pytest.raises(NotationError):
                parse_linear(bad, 4)

    def test_component_order_irrelevant(self):
        a = parse_linear("[4,12;8][9,16;13]", 16)
        b = parse_linear("[9,16;13][4,12;8]", 16)
        assert a == b


class TestPrintLinear:
    def test_two_fixed_sinks(self):
        assert print_linear(Transformation((4, 2, 2, 4))) == "[1;4][3;2]"

    def test_cycle_with_source(self):
        # the realization of acb over the abc collapsings
        assert print_linear(Transformation((3, 3, 1))) == "(1,[2;3])"

    def test_identity_prints_empty_parens(self):
        assert print_linear(identity(7)) == "()"

    def test_constant(self):
        assert print_linear(Transformation((2, 2, 2))) == "[1,3;2]"

    def test_cycle_rotated_to_smallest_target(self):
        # 2 and 3 swap, 1 feeds 3: canonical form starts the cycle at 2
        assert print_linear(Transformation((3, 3, 2))) == "(2,[1;3])"

    def test_component_order_by_smallest_point(self):
        t = parse_linear("[1,2,4;3]([10,11,12,13,14,15,16;5],[6,7,9;8])", 16)
        assert print_linear(t) == "[1,2,4;3]([10,11,12,13,14,15,16;5],[6,7,9;8])"

    def test_plain_fixed_points_omitted(self):
        assert print_linear(Transformation((1, 2, 3, 3))) == "[4;3]"


class TestRoundTrip:
    @given(transformations())
    def test_parse_print_round_trip(self, s):
        assert parse_linear(print_linear(s), s.n) == s

    def test_seeded_round_trip_sweep(self):
        rng = random.Random(20240917)
        for _ in range(300):
            n = rng.randint(1, 16)
            s = Transformation(tuple(rng.randint(1, n) for _ in range(n)))
            assert parse_linear(print_linear(s), n) == s

    def test_deep_chain_round_trip(self):
        # 1 -> 2 -> ... -> 2000, nested one bracket per point
        n = 2000
        chain = "1"
        for point in range(2, n + 1):
            chain = f"[{chain};{point}]"
        s = parse_linear(chain, n)
        assert s.images == tuple(range(2, n + 1)) + (n,)
        assert print_linear(s) == chain
        assert parse_linear(print_linear(s), n) == s

    @given(transformations(max_n=10), st.randoms())
    def test_component_permutation_invariance(self, s, rng):
        text = print_linear(s)
        pieces = split_components(text)
        rng.shuffle(pieces)
        assert parse_linear("".join(pieces), s.n) == s


def split_components(text):
    """Split a printed form into its top-level components."""
    if text == "()":
        return ["()"]
    pieces = []
    depth = 0
    begin = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth == 0:
                pieces.append(text[begin:i + 1])
                begin = i + 1
    assert begin == len(text)
    return pieces


class TestParseImages:
    def test_basic(self):
        assert parse_images("2 4 1 2").images == (2, 4, 1, 2)

    def test_identity(self):
        assert parse_images("1 2 3") == identity(3)

    def test_constant(self):
        assert parse_images("2 2").images == (2, 2)

    def test_bad_token(self):
        with pytest.raises(NotationError):
            parse_images("1 x 3")

    def test_out_of_range(self):
        with pytest.raises(NotationError):
            parse_images("1 4 2")

    def test_empty(self):
        with pytest.raises(NotationError):
            parse_images("   ")


class TestP53Generators:
    def test_all_parse_and_are_total(self):
        for text in P53_GENERATORS:
            t = parse_linear(text, 16)
            assert t.n == 16
            assert all(1 <= x <= 16 for x in t.images)

    def test_t1_images(self):
        t1 = parse_linear(P53_GENERATORS[0], 16)
        assert t1.images == (2, 2, 4, 4, 6, 6, 9, 10, 9, 10, 12, 12, 14, 14, 16, 16)

    def test_round_trip_all(self):
        for text in P53_GENERATORS:
            t = parse_linear(text, 16)
            assert parse_linear(print_linear(t), 16) == t
