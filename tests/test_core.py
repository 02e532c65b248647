import itertools

import pytest
from hypothesis import given, strategies as st

from strayt import (NotAPermutator, Presentation, Transformation, compose,
                    evaluate, identity, permutes, restrict)


def abc_presentation():
    return Presentation(3, [
        ("a", Transformation((2, 2, 3))),
        ("b", Transformation((1, 3, 3))),
        ("c", Transformation((1, 2, 1))),
    ])


T = Transformation((2, 4, 1, 2))


@st.composite
def same_size_maps(draw, count, max_n=8):
    n = draw(st.integers(1, max_n))
    maps = tuple(
        Transformation(draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
        for _ in range(count))
    return maps


class TestTransformation:
    def test_identity_images(self):
        assert identity(3).images == (1, 2, 3)
        assert identity(1).images == (1,)

    def test_identity_fixes_everything(self):
        e = identity(5)
        assert all(e(x) == x for x in range(1, 6))

    def test_identity_rejects_zero(self):
        with pytest.raises(ValueError):
            identity(0)

    def test_bad_images_rejected(self):
        with pytest.raises(ValueError):
            Transformation((1, 5, 2))
        with pytest.raises(ValueError):
            Transformation(())

    def test_apply_out_of_range(self):
        with pytest.raises(ValueError):
            T(5)

    def test_is_permutation(self):
        assert identity(4).is_permutation()
        assert not T.is_permutation()


class TestCompose:
    def test_square_of_t(self):
        assert compose(T, T).images == (4, 2, 2, 4)

    def test_cube_of_t(self):
        assert compose(compose(T, T), T).images == (2, 4, 4, 2)

    def test_identity_neutral(self):
        assert compose(T, identity(4)) == T
        assert compose(identity(4), T) == T

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            compose(T, identity(3))
        with pytest.raises(ValueError):
            T * identity(3)

    def test_product_operator_composes(self):
        assert T * T == compose(T, T)
        assert T * identity(4) * T == compose(T, T)

    @given(same_size_maps(count=3))
    def test_associative(self, maps):
        a, b, c = maps
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestEvaluate:
    def test_cb(self):
        p = abc_presentation()
        assert evaluate(p, p.word("cb")).images == (1, 3, 1)

    def test_cbac_is_the_transposition_on_12(self):
        p = abc_presentation()
        s = evaluate(p, p.word("cbac"))
        assert s.images == (2, 1, 2)

    def test_single_letter(self):
        p = Presentation(4, [("t", T)])
        assert evaluate(p, (0,)) == T

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            evaluate(abc_presentation(), ())

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            evaluate(abc_presentation(), (0, 7))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=6),
           st.lists(st.integers(0, 2), min_size=1, max_size=6))
    def test_concatenation_multiplies(self, u, v):
        p = abc_presentation()
        uv = tuple(u) + tuple(v)
        assert evaluate(p, uv) == compose(evaluate(p, u), evaluate(p, v))


class TestPermutes:
    def test_bac_permutes_12(self):
        p = abc_presentation()
        assert permutes(evaluate(p, p.word("bac")), {1, 2})

    def test_b_does_not_permute_12(self):
        p = abc_presentation()
        assert not permutes(evaluate(p, p.word("b")), {1, 2})

    def test_full_set_means_permutation(self):
        assert permutes(identity(4), {1, 2, 3, 4})
        assert not permutes(T, {1, 2, 3, 4})

    def test_bad_set(self):
        with pytest.raises(ValueError):
            permutes(T, {0, 1})
        with pytest.raises(ValueError):
            permutes(T, set())

    @given(same_size_maps(count=2), st.data())
    def test_closed_under_products(self, maps, data):
        s, t = maps
        n = s.n
        members = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
        if permutes(s, members) and permutes(t, members):
            assert permutes(compose(s, t), members)

    def test_prefix_cancellation_exhaustive(self):
        # if uv and u both permute the set, so does v (checked on all
        # short word pairs over the abc presentation)
        p = abc_presentation()
        members = {1, 2}
        words = [list(w) for k in (1, 2, 3)
                 for w in itertools.product(range(3), repeat=k)]
        for u in words:
            su = evaluate(p, u)
            for v in words:
                sv = evaluate(p, v)
                if permutes(compose(su, sv), members) and permutes(su, members):
                    assert permutes(sv, members)


class TestRestrict:
    def test_transposition(self):
        p = abc_presentation()
        assert restrict(evaluate(p, p.word("bac")), {1, 2}) == {1: 2, 2: 1}

    def test_identity_restriction(self):
        assert restrict(identity(6), {2, 4}) == {2: 2, 4: 4}

    def test_c_restricts_to_identity(self):
        p = abc_presentation()
        assert restrict(evaluate(p, p.word("c")), {1, 2}) == {1: 1, 2: 2}

    def test_rejects_non_permutator(self):
        p = abc_presentation()
        with pytest.raises(NotAPermutator):
            restrict(evaluate(p, p.word("b")), {1, 2})


class TestPresentation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Presentation(3, [("a", identity(3)), ("a", identity(3))])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Presentation(3, [("", identity(3))])

    @pytest.mark.parametrize("name", ["a b", "a.b", "a\tb", " a", "a.", "."])
    def test_names_with_word_separators_rejected(self, name):
        # such a name would not parse back from format_word's output
        with pytest.raises(ValueError, match="whitespace or '.'"):
            Presentation(2, [(name, identity(2))])

    def test_mismatched_state_count_rejected(self):
        with pytest.raises(ValueError):
            Presentation(3, [("t", T)])

    def test_no_states_or_no_generators_rejected(self):
        with pytest.raises(ValueError, match="state count must be at least 1"):
            Presentation(0, [("t", T)])
        with pytest.raises(ValueError, match="at least one generator"):
            Presentation(4, [])

    def test_word_with_separators(self):
        p = abc_presentation()
        assert p.word("b a c") == (1, 0, 2)
        assert p.word("b.a.c") == (1, 0, 2)
        assert p.word("bac") == (1, 0, 2)

    def test_word_unknown_name(self):
        # the whole first token that is neither a name nor a run of names
        p = abc_presentation()
        for text, bad in (("bxc", "bxc"), ("ba bxc c", "bxc"), ("b.x", "x"), ("ab xa x", "xa")):
            with pytest.raises(ValueError, match=f"^unknown generator name {bad!r}$"):
                p.word(text)
        for empty in ("", " . "):
            with pytest.raises(ValueError, match="^empty word$"):
                p.word(empty)

    def test_multichar_names_need_separators(self):
        p = Presentation(2, [("t1", Transformation((1, 1))),
                             ("t2", Transformation((2, 2)))])
        assert p.word("t2 t1") == (1, 0)
        for text, bad in (("t2t1", "t2t1"), ("t1 t3 t2", "t3"), ("t1.t", "t")):
            with pytest.raises(ValueError, match=f"^unknown generator name {bad!r}$"):
                p.word(text)

    def test_format_word_roundtrip(self):
        p = abc_presentation()
        assert p.format_word((1, 0, 2)) == "bac"
        q = Presentation(2, [("t1", Transformation((1, 1))),
                             ("t2", Transformation((2, 2)))])
        assert q.format_word((1, 0)) == "t2 t1"
        assert q.word(q.format_word((1, 0))) == (1, 0)

    def test_format_word_rejects_letters_outside_the_generators(self):
        # a negative letter would otherwise print the last names
        p = abc_presentation()
        for bad in ((-1,), (0, -3), (3,), (0, 1.0), ()):
            with pytest.raises(ValueError):
                p.format_word(bad)

    def test_bool_letters_are_accepted(self):
        p = abc_presentation()
        assert p.format_word((True, False, 2)) == "bac"
        assert evaluate(p, (True, False, 2)) == evaluate(p, p.word("bac"))
