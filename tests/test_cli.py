import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strayt
from strayt import (StraytError, fixture_path, load_presentation, load_word_aliases,
                    parse_cli_word, parse_linear, print_linear)
from strayt.cli import PresentationFileError, main, sidecar_path

from test_straightwords import CONSTANT_WORDS, SINGLETON_WORDS

FIXTURES = ["ex1_monogenic", "ex2_cycle", "ex3_constants", "ex4_abc", "p53"]


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestPresentationFiles:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_loads(self, name):
        p = load_presentation(fixture_path(name))
        assert p.n >= 1 and len(p.generators) >= 1

    def test_p53_fixture_shape(self):
        p = load_presentation(fixture_path("p53"))
        assert p.n == 16
        assert p.names == tuple(f"t{i}" for i in range(1, 10))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_round_trips_through_printer(self, name):
        p = load_presentation(fixture_path(name))
        for gen_name, t in p.generators:
            assert parse_linear(print_linear(t), p.n) == t

    def test_images_form_supported(self, tmp_path):
        f = tmp_path / "two.tsg"
        f.write_text("states 2\nu = images: 2 1\nv = [2;1]\n")
        p = load_presentation(f)
        assert p.generators[0][1].images == (2, 1)
        assert p.generators[1][1].images == (1, 1)

    def test_missing_header(self, tmp_path):
        f = tmp_path / "bad.tsg"
        f.write_text("t = [1;2]\n")
        with pytest.raises(PresentationFileError) as err:
            load_presentation(f)
        assert ":1:" in str(err.value)

    def test_bad_generator_line_number(self, tmp_path):
        f = tmp_path / "bad.tsg"
        f.write_text("# header\nstates 3\na = [1;2]\nb = [9;1]\n")
        with pytest.raises(PresentationFileError) as err:
            load_presentation(f)
        assert ":4:" in str(err.value)

    def test_duplicate_name(self, tmp_path):
        f = tmp_path / "bad.tsg"
        f.write_text("states 2\nt = [1;2]\nt = [2;1]\n")
        with pytest.raises(PresentationFileError):
            load_presentation(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PresentationFileError):
            load_presentation(tmp_path / "absent.tsg")

    @pytest.mark.parametrize("name", ["a b", "a.b", "a\tb"])
    def test_name_with_word_separator_rejected_at_its_line(self, capsys, tmp_path, name):
        f = tmp_path / "sep.tsg"
        f.write_text(f"states 2\nc = ()\n{name} = (1,2)\n")
        with pytest.raises(PresentationFileError) as err:
            load_presentation(f)
        assert str(err.value).startswith(f"{f}:3: ") and "whitespace or '.'" in str(err.value)
        code, out, stderr = run(capsys, "straight", f, "--all")
        assert code == 2 and not out and "sep.tsg:3:" in stderr

    @pytest.mark.parametrize("name", ["@a", "@"])
    def test_name_starting_with_alias_sign_rejected_at_its_line(self, capsys, tmp_path, name):
        # `@a` would print in words that `--word '@a'` reads as an alias
        f = tmp_path / "at.tsg"
        f.write_text(f"states 2\nc = ()\n{name} = (1,2)\n")
        code, out, stderr = run(capsys, "order", f)
        assert code == 2 and not out
        assert stderr == f"error: {f}:3: generator name {name!r} starts with '@'\n"

    @pytest.mark.parametrize("text, line, message", [
        ("states ²\na = ()\n", 1, "expected 'states <n>' header"),
        ("states 3\na = images: 1 ² 3\n", 2, "bad image entry '²'"),
    ])
    def test_non_decimal_digits_rejected_at_their_line(self, capsys, tmp_path, text, line, message):
        f = tmp_path / "digits.tsg"
        f.write_text(text)
        with pytest.raises(PresentationFileError) as err:
            load_presentation(f)
        assert str(err.value) == f"{f}:{line}: {message}"
        code, out, stderr = run(capsys, "order", f)
        assert code == 2 and not out and stderr == f"error: {f}:{line}: {message}\n"

    def test_utf8_files_load_under_an_ascii_locale(self, tmp_path):
        f = tmp_path / "caf\u00e9.tsg"
        f.write_text("# caf\u00e9\nstates 2\na = (1,2)\n", encoding="utf-8")
        sidecar_path(f).write_text("# na\u00efve\nx = a a a\n", encoding="utf-8")
        src = str(Path(strayt.__file__).parent.parent)
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "strayt", "reduce", f.name, "--word", "@x"],
                              capture_output=True, cwd=tmp_path, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"a\nlength: 3 -> 1\n", b"")

    @pytest.mark.parametrize("suffix", [".tsg", ".words"])
    def test_undecodable_byte_reported_at_line_0(self, capsys, tmp_path, suffix):
        f = tmp_path / "bad.tsg"
        f.write_text("states 2\na = (1,2)\n")
        bad = f.with_suffix(suffix)
        bad.write_bytes(b"# \xff\n" + (b"states 2\na = (1,2)\n" if suffix == ".tsg" else b""))
        message = (f"{bad}:0: 'utf-8' codec can't decode byte 0xff in position 2: "
                   "invalid start byte")
        code, out, stderr = run(capsys, "reduce", f, "--word", "a")
        assert (code, out, stderr) == (2, [], f"error: {message}\n")

    @pytest.mark.parametrize("text, line, message", [
        ("states 3\na [1;2]\n", 2, "expected '<name> = <transformation>'"),
        ("states 3\n = [1;2]\n", 2, "expected '<name> = <transformation>'"),
        ("states 2\nt = [1;2]\nt = [2;1]\n", 3, "duplicate generator 't'"),
        ("states 0\na = ()\n", 1, "state count must be at least 1"),
        ("states 3\na = [1;2] x\n", 2, "unexpected character 'x' at position 6"),
        ("", 0, "missing 'states <n>' header"),
        ("# only a comment\n\n", 0, "missing 'states <n>' header"),
        ("states 3\n", 0, "no generators defined"),
    ])
    def test_file_error_messages(self, tmp_path, text, line, message):
        f = tmp_path / "bad.tsg"
        f.write_text(text)
        with pytest.raises(PresentationFileError) as err:
            load_presentation(f)
        assert str(err.value) == f"{f}:{line}: {message}"


class TestWordAliases:
    def test_p53_sidecar(self):
        p = load_presentation(fixture_path("p53"))
        aliases = load_word_aliases(sidecar_path(fixture_path("p53")))
        a = parse_cli_word(p, "@a", aliases)
        b = parse_cli_word(p, "@b", aliases)
        assert len(a) == 13 and len(b) == 15
        assert parse_cli_word(p, "@b @b @a @b @b", aliases) == b + b + a + b + b

    def test_missing_sidecar_means_no_aliases(self):
        assert load_word_aliases(sidecar_path(fixture_path("ex4_abc"))) == {}

    def test_unknown_alias(self):
        p = load_presentation(fixture_path("ex4_abc"))
        with pytest.raises(ValueError):
            parse_cli_word(p, "@zzz", {})

    def test_mixed_tokens(self):
        p = load_presentation(fixture_path("ex4_abc"))
        assert parse_cli_word(p, "ba c", {}) == (1, 0, 2)

    @pytest.mark.parametrize("text, line, message", [
        ("x bac\n", 1, "expected '<name> = <word>'"),
        ("# a comment\nx =\n", 2, "expected '<name> = <word>'"),
        ("x = bac\nx = c\n", 2, "duplicate word alias 'x'"),
        ("x = bac\nx y = c\n", 2, "word alias name 'x y' contains whitespace or '.'"),
        ("x.y = bac\n", 1, "word alias name 'x.y' contains whitespace or '.'"),
    ])
    def test_sidecar_error_messages(self, tmp_path, text, line, message):
        f = tmp_path / "bad.words"
        f.write_text(text)
        with pytest.raises(PresentationFileError) as err:
            load_word_aliases(f)
        assert str(err.value) == f"{f}:{line}: {message}"

    @pytest.mark.parametrize("name", ["x y", "x.y", "x\ty"])
    def test_name_with_word_separator_rejected_at_its_line(self, capsys, tmp_path, name):
        # `@x y` would expand `@x`, and no `@` token can reach the name
        f = tmp_path / "abc.tsg"
        f.write_text(fixture_path("ex4_abc").read_text())
        sidecar_path(f).write_text(f"# aliases\nz = ab\n{name} = bac\n")
        code, out, stderr = run(capsys, "trajectory", f, "--word", "@z")
        assert code == 2 and not out
        assert stderr == (f"error: {sidecar_path(f)}:3: word alias name {name!r}"
                          " contains whitespace or '.'\n")


class TestOrderCommand:
    def test_monogenic(self, capsys):
        code, out, _ = run(capsys, "order", fixture_path("ex1_monogenic"))
        assert code == 0
        assert out == ["3", "identity in S: no"]

    def test_cycle_has_identity(self, capsys):
        code, out, _ = run(capsys, "order", fixture_path("ex2_cycle"))
        assert code == 0
        assert out == ["3", "identity in S: yes"]

    def test_abc(self, capsys):
        code, out, _ = run(capsys, "order", fixture_path("ex4_abc"))
        assert code == 0
        assert out[0] == "21"

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "order", "--tsv", fixture_path("ex4_abc"))
        assert code == 0
        assert out == ["order\t21", "identity\tno"]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        f = tmp_path / "bad.tsg"
        f.write_text("states 3\nq = [1;2\n")
        code, out, err = run(capsys, "order", f)
        assert code == 2 and not out and "bad.tsg:2:" in err

    def test_enumeration_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("STRAYT_MAX_ELEMENTS", "5")
        code, out, err = run(capsys, "order", fixture_path("ex4_abc"))
        assert code == 5 and "cap" in err

    def test_enumeration_cap_counts_the_identity(self, capsys, monkeypatch):
        # ex2_cycle has order 3: a product of its generator is the identity
        monkeypatch.setenv("STRAYT_MAX_ELEMENTS", "2")
        code, out, err = run(capsys, "order", fixture_path("ex2_cycle"))
        assert code == 5 and not out and "cap" in err

    def test_deeply_nested_generator(self, capsys, tmp_path):
        chain = "1"
        for point in range(2, 1201):
            chain = f"[{chain};{point}]"
        f = tmp_path / "deep.tsg"
        f.write_text(f"states 1200\nt = {chain}\n")
        code, out, err = run(capsys, "order", f)
        # the header rejects the state count before the generator is parsed
        assert code == 2 and not out and err.startswith("error:") and "255" in err

    def test_huge_state_count_rejected_at_header(self, capsys, tmp_path):
        # a state table of this size would not fit in memory
        f = tmp_path / "huge.tsg"
        f.write_text("states 100000000\na = ()\n")
        code, out, err = run(capsys, "order", f)
        assert code == 2 and not out and "huge.tsg:1:" in err and "255" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_enumeration_cap_below_one_rejected(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("STRAYT_MAX_ELEMENTS", cap)
        code, out, err = run(capsys, "order", fixture_path("ex4_abc"))
        assert code == 2 and not out and "at least 1" in err
        assert err == f"error: STRAYT_MAX_ELEMENTS must be at least 1, got {cap}\n"

    def test_bad_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv("STRAYT_MAX_ELEMENTS", "lots")
        code, _, err = run(capsys, "order", fixture_path("ex4_abc"))
        assert code == 2 and "STRAYT_MAX_ELEMENTS" in err


class TestStraightCommand:
    def test_target_linear_form(self, capsys):
        code, out, _ = run(capsys, "straight", fixture_path("ex4_abc"),
                           "--target", "[3;1]")
        assert code == 0
        assert out == ["c\t[3;1]"]

    def test_target_images(self, capsys):
        code, out, _ = run(capsys, "straight", fixture_path("ex1_monogenic"),
                           "--target", "images: 2 4 4 2")
        assert code == 0
        assert out == ["ttt\t([1;2],[3;4])"]

    def test_target_word(self, capsys):
        code, out, _ = run(capsys, "straight", fixture_path("ex4_abc"),
                           "--target", "bac")
        assert code == 0
        assert [line.split("\t")[0] for line in out] == ["bac"]

    def test_target_that_reads_as_a_word_is_that_word(self, capsys, tmp_path):
        # names that start as a linear form does; a text no name reads is still a map
        f = tmp_path / "digits.tsg"
        f.write_text("states 3\n2 = [1;2]\nb = [2;3]\n( = (1,2)\n")
        expected = {"2": ["2", "(2"], "2 b": ["2b", "b2b", "b(b", "(2b", "(b2b", "(b(b"],
                    "(": ["("], "[1;2]": ["2", "(2"], "(1,2)": ["("]}
        for target, words in expected.items():
            code, out, _ = run(capsys, "straight", f, "--target", target)
            assert (code, [line.split("\t")[0] for line in out]) == (0, words), target
        code, out, err = run(capsys, "straight", f, "--target", "b x")
        assert (code, out, err) == (2, [], "error: unknown generator name 'x'\n")

    def test_census_matches_listing(self, capsys):
        for form, expected in CONSTANT_WORDS.items():
            code, out, _ = run(capsys, "straight", fixture_path("ex4_abc"),
                               "--target", form)
            assert code == 0
            assert sorted(line.split("\t")[0] for line in out) == sorted(expected)
        for form, word in SINGLETON_WORDS.items():
            code, out, _ = run(capsys, "straight", fixture_path("ex4_abc"),
                               "--target", form)
            assert code == 0
            assert [line.split("\t")[0] for line in out] == [word]
            # the word names the same target as its map
            assert run(capsys, "straight", fixture_path("ex4_abc"),
                       "--target", word) == (0, out, "")

    def test_all_words(self, capsys):
        code, out, _ = run(capsys, "straight", fixture_path("ex4_abc"), "--all")
        assert code == 0 and len(out) == 72

    def test_unreachable_target(self, capsys):
        # ex1 has no identity: the adjoined node 0 is not a target
        for target in ("images: 1 1 1 1", "()", "images: 1 2 3 4", ""):
            code, out, err = run(capsys, "straight", fixture_path("ex1_monogenic"),
                                 "--target", target)
            assert code == 3 and not out and "not generated" in err, target

    def test_image_list_of_the_wrong_length(self, capsys):
        # a malformed target, like a malformed generator, is a parse error
        for target in ("images: 2 1 3", "images: 2 4 4 2 1"):
            code, out, err = run(capsys, "straight", fixture_path("ex1_monogenic"),
                                 "--target", target)
            entries = len(target.split()) - 1
            assert code == 2 and not out, target
            assert f"image list has {entries} entries, expected 4" in err

    def test_identity_target_when_generated(self, capsys):
        code, out, _ = run(capsys, "straight", fixture_path("ex2_cycle"), "--target", "()")
        assert code == 0 and out == ["ggg\t()"]

    def test_truncation_exit_code(self, capsys):
        code, out, err = run(capsys, "straight", fixture_path("ex4_abc"),
                             "--all", "--max-results", "3")
        assert code == 5 and len(out) == 3 and "truncated" in err

    def test_results_equal_to_cap_not_truncated(self, capsys):
        # a is the only straight word realizing a, so nothing is dropped
        code, out, err = run(capsys, "straight", fixture_path("ex4_abc"),
                             "--target", "a", "--max-results", "1")
        assert code == 0 and [line.split("\t")[0] for line in out] == ["a"]
        assert "truncated" not in err

    def test_max_len(self, capsys):
        code, out, _ = run(capsys, "straight", fixture_path("ex4_abc"),
                           "--all", "--max-len", "1")
        assert code == 0
        assert [line.split("\t")[0] for line in out] == ["a", "b", "c"]

    @pytest.mark.parametrize("cap", [("--max-results", "0"), ("--max-results", "-1"),
                                     ("--max-len", "0"), ("--max-len", "-2")])
    def test_caps_below_one_rejected(self, capsys, cap):
        code, out, err = run(capsys, "straight", fixture_path("ex4_abc"), "--all", *cap)
        assert code == 2 and not out and err.startswith("error:")


class TestPermCommand:
    def test_count_default(self, capsys):
        code, out, _ = run(capsys, "perm", fixture_path("ex4_abc"), "--set", "1,2")
        assert code == 0
        assert out == ["|Perm(Y)| = 4"]

    def test_words(self, capsys):
        code, out, _ = run(capsys, "perm", fixture_path("ex4_abc"),
                           "--set", "1,2", "--words")
        assert code == 0
        assert [line.split("\t")[0] for line in out] == ["c", "bac", "cbac", "bacbac"]

    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "perm", fixture_path("ex4_abc"),
                           "--set", "1,2", "--minimal")
        assert code == 0
        assert [line.split("\t")[0] for line in out] == ["c", "bac"]

    def test_minimal_results_equal_to_cap_not_truncated(self, capsys):
        code, out, err = run(capsys, "perm", fixture_path("ex4_abc"),
                             "--set", "1,2", "--minimal", "--max-results", "2")
        assert code == 0 and [line.split("\t")[0] for line in out] == ["c", "bac"]
        assert "truncated" not in err
        code, out, err = run(capsys, "perm", fixture_path("ex4_abc"),
                             "--set", "1,2", "--minimal", "--max-results", "1")
        assert code == 5 and [line.split("\t")[0] for line in out] == ["c"]
        assert "truncated" in err

    def test_group_order(self, capsys):
        code, out, _ = run(capsys, "perm", fixture_path("ex4_abc"),
                           "--set", "1,2", "--group-order")
        assert code == 0
        assert out == ["2"]

    def test_tsv_count(self, capsys):
        code, out, _ = run(capsys, "perm", "--tsv", fixture_path("ex4_abc"),
                           "--set", "1,2")
        assert code == 0
        assert out == ["perm_order\t4"]

    def test_bad_set(self, capsys):
        code, _, err = run(capsys, "perm", fixture_path("ex4_abc"), "--set", "1,x")
        assert code == 2 and "state set" in err

    @pytest.mark.parametrize("mode", [(), ("--group-order",)])
    @pytest.mark.parametrize("cap", [("--max-len", "3"), ("--max-results", "1"),
                                     ("--max-len", "0"), ("--max-len", "2", "--max-results", "2")])
    def test_caps_without_a_search_rejected(self, capsys, mode, cap):
        # the count and the group order run no search, so a cap would go unused
        code, out, err = run(capsys, "perm", fixture_path("ex4_abc"), "--set", "1,2", *mode, *cap)
        assert code == 2 and not out
        assert err == "error: --max-len and --max-results apply only with --words or --minimal\n"

    def test_help_says_the_caps_need_a_search(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["perm", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert exited.value.code == 0
        assert "--max-len and --max-results apply only with --words or --minimal." in out


class TestFactorizeCommand:
    def test_two_factors(self, capsys):
        code, out, _ = run(capsys, "factorize", fixture_path("ex4_abc"),
                           "--set", "1,2", "--word", "cbac")
        assert code == 0
        assert out == ["c", "bac"]

    def test_non_permutator_word(self, capsys):
        code, out, err = run(capsys, "factorize", fixture_path("ex4_abc"),
                             "--set", "1,2", "--word", "b")
        assert code == 4 and not out
        assert "state" in err and "does not permute" in err

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "factorize", "--tsv", fixture_path("ex4_abc"),
                           "--set", "1,2", "--word", "bacbac")
        assert code == 0
        assert out == ["factor\t1\tbac", "factor\t2\tbac"]


class TestReduceCommand:
    def test_pumped_word(self, capsys):
        code, out, _ = run(capsys, "reduce", fixture_path("ex4_abc"),
                           "--word", "baac")
        assert code == 0
        assert out == ["bac", "length: 4 -> 3"]

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "reduce", "--tsv", fixture_path("ex4_abc"),
                           "--word", "baac")
        assert code == 0
        assert out == ["reduced\tbac", "length_before\t4", "length_after\t3"]


class TestTrajectoryCommand:
    def test_repeating_power(self, capsys):
        code, out, _ = run(capsys, "trajectory", fixture_path("ex1_monogenic"),
                           "--word", "t t t t")
        assert code == 0
        assert len(out) == 5
        assert out[0] == "()"
        assert out[4] == out[2]

    def test_word_syntax_error(self, capsys):
        code, _, err = run(capsys, "trajectory", fixture_path("ex4_abc"),
                           "--word", "axc")
        assert code == 2 and "unknown generator" in err


def package_errors(cls=StraytError):
    """Every exception class of the package that derives from cls, cls included."""
    found = {cls}
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("strayt."):
            found |= package_errors(sub)
    return found


class TestExitCodes:
    # exit codes documented in the cli module docstring; other errors exit 2
    DOCUMENTED = {"NotInSemigroup": 3, "NotAPermutatorWord": 4, "EnumerationLimitExceeded": 5}

    def test_docstring_documents_the_codes(self):
        doc = " ".join(strayt.cli.__doc__.split())
        assert ("Exit codes: 0 success, 2 unparseable input, 3 target not in the semigroup, "
                "4 word does not permute the chosen set, 5 a search dropped a word") in doc

    def test_every_package_error_is_known(self):
        assert {cls.__name__ for cls in package_errors()} == {
            "StraytError", "NotAPermutator", "NotationError", "PresentationFileError",
            "NotInSemigroup", "EnumerationLimitExceeded", "NotAPermutatorWord"}

    @pytest.mark.parametrize("error", sorted(package_errors() | {ValueError},
                                             key=lambda cls: cls.__name__),
                             ids=lambda cls: cls.__name__)
    def test_error_exit_code(self, capsys, monkeypatch, error):
        exc = error("f.tsg", 1, "boom") if error is PresentationFileError else error("boom")

        def fail(path):
            raise exc

        monkeypatch.setattr(strayt.cli, "load_presentation", fail)
        code, out, err = run(capsys, "order", fixture_path("ex4_abc"))
        assert code == self.DOCUMENTED.get(error.__name__, 2)
        assert not out and err == f"error: {exc}\n"

    # argparse words its faults by Python version, so only the usage line's start is pinned
    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["perm", "F"], ["straight", "F", "--all", "--target", "a"],
        ["straight", "F", "--all", "--max-len", "abc"]], ids=" ".join)
    def test_usage_fault_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([str(fixture_path("ex4_abc")) if a == "F" else a for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert not captured.out and captured.err.startswith("usage: strayt")

    ARGUMENT_FAULTS = {
        "perm F --set 1,x": "bad state set '1,x'; expected e.g. 3,5,8",
        "reduce F --word zz": "unknown generator name 'zz'",
        "trajectory F --word zz": "unknown generator name 'zz'",
        "factorize F --set x --word a": "unknown generator name 'a'",
        "factorize F --set x --word t1": "bad state set 'x'; expected e.g. 3,5,8",
        "straight F --target @nosuch": "unknown word alias '@nosuch'",
        "straight F --target zz": "unknown generator name 'zz'",
        "straight F --target [17]": "point 17 is outside 1..16",
        "perm F --set 3,99": "state 99 is outside 1..16",
        "perm F --set 3,99 --minimal": "state 99 is outside 1..16",
        "perm F --set ,": "state set must be nonempty",
        "factorize F --set 3,99 --word zz": "unknown generator name 'zz'",
        "factorize F --set 3,99 --word t1": "state 99 is outside 1..16"}

    @pytest.mark.parametrize("command", ARGUMENT_FAULTS)
    def test_argument_fault_ends_before_enumeration(self, capsys, monkeypatch, command):
        def enumerate_semigroup(p, max_elements=None):
            raise AssertionError("enumerated before the arguments were read")

        monkeypatch.setattr(strayt.cli, "enumerate_semigroup", enumerate_semigroup)
        argv = [fixture_path("p53") if a == "F" else a for a in command.split()]
        code, out, err = run(capsys, *argv)
        message = self.ARGUMENT_FAULTS[command]
        assert (code, out, err) == (2, [], f"error: {message}\n")

    @pytest.mark.parametrize("command", ARGUMENT_FAULTS)
    def test_argument_fault_outranks_the_enumeration_cap(self, capsys, monkeypatch, command):
        # p53 passes a cap of 1 at its second element, so a fault read after
        # enumeration would end with exit 5
        monkeypatch.setenv("STRAYT_MAX_ELEMENTS", "1")
        argv = [fixture_path("p53") if a == "F" else a for a in command.split()]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, [], f"error: {self.ARGUMENT_FAULTS[command]}\n")

    @pytest.mark.parametrize("command", [
        "straight F --target @a",
        "straight F --target [1;2][3;4][5;6][7;9][8;10][11;12][13;14][15;16]",  # t1's map
        "perm F --set 3,5,8", "factorize F --set 3,5,8 --word @a"])
    def test_arguments_that_parse_meet_the_enumeration_cap(self, capsys, monkeypatch, command):
        monkeypatch.setenv("STRAYT_MAX_ELEMENTS", "1")
        argv = [fixture_path("p53") if a == "F" else a for a in command.split()]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (5, [], "error: enumeration exceeded the cap of 1 elements\n")

    @pytest.mark.parametrize("cap, message", [
        ("5", "unknown generator name 'zz'"),  # ex4 has 21 elements: the word fails first
        ("lots", "STRAYT_MAX_ELEMENTS must be an integer, got 'lots'")])
    def test_cap_read_before_arguments_and_enforced_after(self, capsys, monkeypatch, cap,
                                                          message):
        monkeypatch.setenv("STRAYT_MAX_ELEMENTS", cap)
        code, out, err = run(capsys, "reduce", fixture_path("ex4_abc"), "--word", "zz")
        assert (code, out, err) == (2, [], f"error: {message}\n")

    def test_reader_closing_the_pipe_ends_quietly(self, tmp_path):
        # 7,040 words, far more than a pipe buffers, so the writer meets the closed pipe
        f = tmp_path / "S5.tsg"
        f.write_text("states 5\ns = (1,2)\nc = (1,2,3,4,5)\n")
        src = str(Path(strayt.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "strayt", "straight", str(f), "--all", "--max-len", "18"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (first, err, proc.returncode) == (b"s\t(1,2)\n", b"", 141)
        assert "141 standard output closed" in " ".join(strayt.cli.__doc__.split())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_pipe_leaves_no_descriptor_open(self):
        # in-process, the pipe's write end becomes /dev/null; the descriptor
        # opened on /dev/null for that must not stay open after it
        before = len(os.listdir("/proc/self/fd"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as stdout, contextlib.redirect_stdout(stdout):
            code = main(["straight", str(fixture_path("ex4_abc")), "--all"])
        assert (code, len(os.listdir("/proc/self/fd"))) == (141, before)

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(graph, target, limits):
            yield (0,)
            raise KeyboardInterrupt

        monkeypatch.setattr(strayt.cli, "all_straight_words", interrupted)
        code, out, err = run(capsys, "straight", fixture_path("ex4_abc"), "--all")
        assert (code, out, err) == (130, ["a\t[1;2]"], "error: interrupted\n")
        assert "130 interrupted" in " ".join(strayt.cli.__doc__.split())
