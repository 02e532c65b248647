import random

import pytest
from hypothesis import given, strategies as st

from strayt import (NotationError, Transformation, identity, parse_images,
                    parse_linear, print_linear)

import notation_reference as reference

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

    def test_no_states_rejected(self):
        for text in ("", "(1)"):
            with pytest.raises(ValueError, match="state count must be at least 1"):
                parse_linear(text, 0)

    def test_point_mentioned_twice(self):
        with pytest.raises(NotationError):
            parse_linear("(1,1)", 3)
        with pytest.raises(NotationError):
            parse_linear("[1;2][1;3]", 3)

    def test_first_fault_in_reading_order_is_reported(self):
        # point 5 is read before the input ends; the reference checked the
        # whole syntax first and reported the missing "]"
        with pytest.raises(NotationError, match="point 5 "):
            parse_linear("[5;6", 3)
        with pytest.raises(NotationError, match="end of input"):
            reference.parse_linear("[5;6", 3)

    def test_stray_character_is_named_past_whitespace(self):
        for text, at in (("[1;2] x", 6), ("[1;2]x", 5), ("x", 0), ("(1, \t\n²)", 6)):
            with pytest.raises(NotationError) as err:
                parse_linear(text, 3)
            assert str(err.value) == f"unexpected character {text[at]!r} at position {at}"

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

    @pytest.mark.parametrize("token", ["²", "¹", "①"])
    def test_digit_that_is_not_decimal(self, token):
        # str.isdigit accepts these, but int() does not
        with pytest.raises(NotationError, match="bad image entry"):
            parse_images(f"1 {token} 3")

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


def random_map(rng, n):
    """A seeded map on {1..n}: any map, a permutation, or mostly fixed points."""
    kind = rng.randrange(3)
    if kind == 0:
        return Transformation(rng.randint(1, n) for _ in range(n))
    if kind == 1:
        return Transformation(rng.sample(range(1, n + 1), n))
    return Transformation(rng.randint(1, n) if rng.random() < 0.3 else x
                          for x in range(1, n + 1))


def random_tokens(rng, n):
    """Tokens of a seeded form that follows the grammar, with its points
    mostly distinct and in range; about half get one or two token edits."""
    pool = rng.sample(range(1, n + 1), n)
    tokens = []

    def point():
        bad = not pool or rng.random() < 0.05
        tokens.append(str(rng.randint(0, n + 1) if bad else pool.pop()))

    def entry(depth):
        if depth < 3 and rng.random() < 0.4:
            tokens.append("[")
            for i in range(rng.randint(1, 3)):
                if i:
                    tokens.append(",")
                entry(depth + 1)
            tokens.append(";")
            point()
            tokens.append("]")
        else:
            point()

    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            tokens.append("(")
            for i in range(rng.randint(0, 3)):
                if i:
                    tokens.append(",")
                entry(0)
            tokens.append(")")
        else:
            entry(0)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(tokens))
            edit = rng.randrange(3)
            if edit and tokens[at:]:
                del tokens[at]  # a deletion, or the first half of a substitution
            if edit != 1:
                tokens.insert(at, rng.choice(["(", ")", "[", "]", ",", ";",
                                              str(rng.randint(0, n + 1))]))
    return tokens


def parse_outcome(parse, text, n):
    try:
        return parse(text, n).images, None
    except NotationError as exc:
        return None, str(exc)


class TestReferenceExactness:
    """The one-walk parser and printer against the two-walk reference."""

    def test_printed_forms_match(self):
        rng = random.Random(20261018)
        sizes = list(range(1, 17)) + [30, 100, 255]
        for _ in range(20000):
            s = random_map(rng, rng.choice(sizes))
            assert print_linear(s) == reference.print_linear(s)

    def test_deep_chain_prints_alike(self):
        n = 2000
        s = Transformation(tuple(range(2, n + 1)) + (n,))
        assert print_linear(s) == reference.print_linear(s)

    def test_token_strings_parse_alike(self):
        rng = random.Random(8)
        accepted = syntax_faults = 0
        for _ in range(100000):
            n = rng.randint(1, 12)
            text = rng.choice([" ", ""]).join(random_tokens(rng, n))
            images, error = parse_outcome(parse_linear, text, n)
            ref_images, ref_error = parse_outcome(reference.parse_linear, text, n)
            assert images == ref_images, text
            if images is not None:
                accepted += 1
            elif not error.startswith("point "):
                # no point fault precedes a syntax fault, so both name it
                assert error == ref_error, text
                syntax_faults += 1
        assert accepted > 20000 and syntax_faults > 20000

    def test_inserted_characters(self):
        # one character inserted into seeded token strings: a foreign one is
        # named at its position ahead of every other fault, one the grammar
        # takes ("٣" reads as the digit 3; tab and newline are whitespace)
        # leaves the outcome to the grammar, as the reference reads it
        rng = random.Random(13)
        foreign, taken = ["x", "²", "①"], ["٣", "\t", "\n"]
        named = same = 0
        for _ in range(30000):
            n = rng.randint(1, 12)
            text = rng.choice([" ", ""]).join(random_tokens(rng, n))
            char = rng.choice(foreign + taken)
            at = rng.randint(0, len(text))
            text = text[:at] + char + text[at:]
            images, error = parse_outcome(parse_linear, text, n)
            if char in foreign:
                assert error == f"unexpected character {char!r} at position {at}", text
                named += 1
                continue
            ref_images, ref_error = parse_outcome(reference.parse_linear, text, n)
            assert images == ref_images, text
            if images is None and not error.startswith("point "):
                assert error == ref_error, text
            same += 1
        assert named > 10000 and same > 10000
