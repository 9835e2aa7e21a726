import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from biorder import cli
from biorder.corpus import CORPUS_NAMES, corpus_text
from biorder.freegroup import Word
from biorder.orderprops import ProbeConfig
from biorder.presentation import (PresentationError, parse_presentation,
                                  serialize_presentation)
from helpers import W

SRC = Path(__file__).resolve().parents[1] / "src"


class TestPresentationFormat:
    def test_corpus_round_trips_are_byte_identical(self):
        for name in CORPUS_NAMES:
            text = corpus_text(name)
            assert serialize_presentation(parse_presentation(text)) == text

    def test_6_2_record_shape(self):
        pf = parse_presentation(corpus_text("6_2"))
        record = pf.record()
        assert record.rank == 4
        assert record.generator_names == ("x", "a", "b", "c")
        names = record.generator_names
        assert record.phi.images[0] == W("x x b", names)
        assert record.phi.images[1] == W("B X", names)
        assert record.phi.images[2] == W("C", names)
        assert record.phi.images[3] == W("a b c", names)

    def test_trefoil_record_rank(self):
        record = parse_presentation(corpus_text("trefoil")).record()
        assert record.rank == 2
        assert record.fibered

    def test_missing_map_line_reports_generator(self):
        text = "name: t\nfibered: true\ngenerators: a b\nmap:\n  a -> b\n"
        with pytest.raises(PresentationError, match="missing map line.*'b'"):
            parse_presentation(text)

    def test_unknown_generator_has_line_number(self):
        text = "name: t\nfibered: true\ngenerators: a b\nmap:\n  a -> b\n  q -> a\n"
        with pytest.raises(PresentationError, match="line 6"):
            parse_presentation(text)

    def test_generator_named_e_has_line_number(self):
        # `e` spells the identity word, so it cannot also name a generator
        text = "name: t\nfibered: true\ngenerators: d e\nmap:\n  d -> e\n  e -> d\n"
        with pytest.raises(PresentationError, match="line 3") as info:
            parse_presentation(text)
        assert info.value.line == 3

    def test_duplicate_map_line(self):
        text = "name: t\nfibered: true\ngenerators: a b\nmap:\n  a -> b\n  a -> a\n  b -> a\n"
        with pytest.raises(PresentationError, match="line 6.*duplicate"):
            parse_presentation(text)

    def test_unreadable_token(self):
        text = "name: t\nfibered: true\ngenerators: a b\nmap:\n  a -> b!\n  b -> a\n"
        with pytest.raises(PresentationError, match="line 5"):
            parse_presentation(text)

    @pytest.mark.parametrize("line, word, message", [
        (5, "b A q", "unknown generator 'q'"),
        (6, "bA", "unreadable word token 'bA'"),
        (9, "a e", "unknown generator 'e'"),
    ])
    def test_word_refusals_keep_their_line(self, line, word, message):
        lines = ["name: t", "fibered: true", "generators: a b", "map:",
                 "  a -> b", "  b -> a", "inverse:", "  a -> b", "  b -> a"]
        lines[line - 1] = lines[line - 1].split("->")[0] + "-> " + word
        with pytest.raises(PresentationError) as info:
            parse_presentation("\n".join(lines) + "\n")
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_identity_image_spelled_e(self):
        text = "name: t\nfibered: false\ngenerators: a b\nmap:\n  a -> e\n  b -> a\n"
        pf = parse_presentation(text)
        assert pf.record().phi.images[0] == Word(2, ())


HEADER = "name: t\nfibered: true\ngenerators: a b\n"


@pytest.mark.parametrize("text, line, message", [
    ("name: t\n  a -> b\n", 2, "indented line outside a map block"),
    (HEADER + "map:\n  a b\n", 5, "expected `generator -> word`"),
    ("name: t\nfibered: yes\n", 2, "fibered must be `true` or `false`"),
    ("name: t\nmap:\n  a -> a\n", 2, "map block before generators"),
    ("name: t\ninverse:\n", 2, "inverse block before generators"),
    ("name: t\ncolour: red\n", 2, "unknown directive 'colour'"),
    ("name: t\nname: u\n", 2, "repeated `name:` line"),
    ("name: t\nfibered: true\nfibered: false\n", 3, "repeated `fibered:` line"),
    ("fibered: true\ngenerators: a\nmap:\n  a -> a\n", None, "missing `name:` line"),
    ("name: t\ngenerators: a\nmap:\n  a -> a\n", None, "missing `fibered:` line"),
    ("name: t\nfibered: true\n", None, "missing `generators:` line"),
    (HEADER + "map:\n  a -> b\n  b -> a\ninverse:\n  a -> b\n", None,
     "missing inverse line for generator 'b'"),
    (HEADER + "map:\n  a -> b\n  b -> a\ninverse:\n", None,
     "missing inverse line for generator 'a'"),
    (HEADER + "map: a -> zzz\n  a -> b\n  b -> a\n", 4, "text after `map:` header"),
    (HEADER + "map:\n  a -> b\n  b -> a\ninverse: a -> b\n", 7,
     "text after `inverse:` header"),
    ("name:\nfibered: true\n", 1, "empty `name:` value"),
])
def test_presentation_error_paths(text, line, message):
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert info.value.line == line
    assert str(info.value) == (f"line {line}: " if line is not None else "") + message


class TestAnalyzeCommand:
    def test_6_2_json_verdict(self, capsys):
        assert cli.main(["analyze", "corpus:6_2", "--max-level", "1",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "6_2"
        assert payload["verdict"]["outcome"] == "NOT_BIORDERABLE"
        assert payload["verdict"]["rule"] == "R3"
        assert payload["verdict"]["level"] == 1
        assert payload["levels"][0]["charpoly"] == [1, -3, 3, -3, 1]
        assert payload["levels"][1]["charpoly"] == [1, -3, 8, -12, 8, -3, 1]
        assert payload["levels"][1]["flags"]["some_factor_all_Lambda"] is True
        assert payload["levels"][1]["basis"][0] == "[x,a]"

    def test_figure8_text_verdict(self, capsys):
        assert cli.main(["analyze", "corpus:figure8"]) == 0
        out = capsys.readouterr().out
        assert "verdict: BIORDERABLE at level 0 via R4" in out

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["analyze", "missing.knot"]) == cli.EXIT_PARSE

    def test_analyze_from_file(self, tmp_path, capsys):
        path = tmp_path / "trefoil.knot"
        path.write_text(corpus_text("trefoil"))
        assert cli.main(["analyze", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["outcome"] == "NOT_BIORDERABLE"
        assert payload["verdict"]["rule"] == "R1"

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.knot"
        bad.write_text("name: q\nfibered: true\ngenerators: a\nmap:\n")
        assert cli.main(["analyze", str(bad)]) == cli.EXIT_PARSE

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.knot"
        bad.write_bytes(b"\x80")
        for argv in (["analyze", str(bad)],
                     ["probe", "order-preservation", "--map", str(bad)]):
            assert cli.main(argv) == cli.EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "utf-8" in captured.err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        for name in CORPUS_NAMES:
            marked = tmp_path / f"{name}.knot"
            marked.write_bytes(b"\xef\xbb\xbf" + corpus_text(name).encode("utf-8"))
            for fmt in ("text", "json"):
                assert cli.main(["analyze", f"corpus:{name}", "--format", fmt]) == cli.EXIT_OK
                expected = capsys.readouterr().out
                assert cli.main(["analyze", str(marked), "--format", fmt]) == cli.EXIT_OK
                assert capsys.readouterr() == (expected, ""), (name, fmt)

    def test_non_automorphism_is_analysis_error(self, tmp_path, capsys):
        doubling = tmp_path / "doubling.knot"
        doubling.write_text("name: q\nfibered: true\ngenerators: a b\n"
                            "map:\n  a -> a a\n  b -> b\n")
        assert cli.main(["analyze", str(doubling)]) == cli.EXIT_ANALYSIS

    def test_fake_map_is_analysis_error(self, tmp_path, capsys):
        """a -> a, b -> b a b A B has |det M| = 1 but is not onto: with no
        inverse block its images are folded, and analyze and both map
        probes that need no inverse refuse it alike."""
        fake = tmp_path / "fake.knot"
        fake.write_text("name: fake\nfibered: true\ngenerators: a b\n"
                        "map:\n  a -> a\n  b -> b a b A B\n")
        for argv in (["analyze", str(fake)],
                     ["probe", "order-preservation", "--map", str(fake)],
                     ["probe", "invariance", "--map", str(fake)]):
            assert cli.main(argv) == cli.EXIT_ANALYSIS
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("analysis error: fake: monodromy is not an automorphism "
                                    "(the images of phi do not generate F_n)\n")

    def test_corpus_without_inverse_block_prints_the_same(self, tmp_path, capsys):
        # folding confirms each corpus map, and the report does not show
        # how the map was confirmed
        for name in CORPUS_NAMES:
            text = corpus_text(name)
            cut = tmp_path / f"{name}.knot"
            cut.write_text(text[:text.index("inverse:\n")])
            for level in range(4):
                for fmt in ("text", "json"):
                    flags = ["--max-level", str(level), "--max-degree", "100", "--format", fmt]
                    assert cli.main(["analyze", f"corpus:{name}", *flags]) == cli.EXIT_OK
                    expected = capsys.readouterr().out
                    assert cli.main(["analyze", str(cut), *flags]) == cli.EXIT_OK
                    assert capsys.readouterr().out == expected, (name, level, fmt)

    def test_degree_cap_is_analysis_error(self, capsys):
        assert cli.main(["analyze", "corpus:6_2", "--max-degree", "4"]) == cli.EXIT_ANALYSIS

    def test_max_degree_range(self, capsys):
        # checked before the target is read, so a bad target does not mask it
        for target in ("corpus:6_2", "corpus:nosuch"):
            for degree in ("0", "101"):
                assert cli.main(["analyze", target, "--max-degree", degree]) == cli.EXIT_USAGE
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "error: --max-degree: must be in 1..100\n"

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["analyze"]) == cli.EXIT_USAGE
        assert cli.main(["analyze", "corpus:6_2", "--max-level", "7"]) == cli.EXIT_USAGE

    def test_repeated_generators_line_is_parse_error(self, tmp_path, capsys):
        # the map's words are read against the first list of names; a second
        # list must not reindex them into a different monodromy
        path = tmp_path / "swap.knot"
        path.write_text("name: swap\nfibered: true\ngenerators: x y\n"
                        "map:\n  x -> y\n  y -> x y\ngenerators: y x\n")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 7: repeated `generators:` line" in captured.err

    def test_trivial_level_is_analysis_error(self, tmp_path, capsys):
        """At rank 1 every level above 0 has Witt number 0; asking for one
        is refused with a message, and level 0 alone still analyzes."""
        path = tmp_path / "rank1.knot"
        path.write_text("name: r1\nfibered: true\ngenerators: a\n"
                        "map:\n  a -> a\ninverse:\n  a -> a\n")
        for flags in ([], ["--max-level", "2"]):
            assert cli.main(["analyze", str(path)] + flags) == cli.EXIT_ANALYSIS
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("analysis error: level 1 is trivial at rank 1"
                                    " (Witt number 0); analyze at most level 0\n")
        assert cli.main(["analyze", str(path), "--max-level", "0"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "  char poly: t - 1\n" in out
        assert "verdict: BIORDERABLE at level 0 via R4\n" in out


class TestCorpusCommand:
    def test_list(self, capsys):
        assert cli.main(["corpus", "list"]) == 0
        assert capsys.readouterr().out.split() == list(CORPUS_NAMES)

    def test_show_round_trips_file(self, capsys):
        assert cli.main(["corpus", "show", "7_6"]) == 0
        assert capsys.readouterr().out == corpus_text("7_6")

    def test_show_unknown_name(self, capsys):
        assert cli.main(["corpus", "show", "8_19"]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("args", [
        ["corpus", "show", "nope"],
        ["analyze", "corpus:nope"],
        ["probe", "order-preservation", "--map", "corpus:nope"],
    ], ids=["show", "analyze", "probe"])
    def test_unknown_knot_has_one_spelling(self, args, capsys):
        assert cli.main(args) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unknown corpus knot 'nope'; available: "
                                "trefoil, figure8, 6_2, 7_6\n")

    def test_show_without_name_is_usage_error(self, capsys):
        assert cli.main(["corpus", "show"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, message = captured.err.split("\n", 1)
        assert usage.startswith("usage: biorder corpus show ")
        assert message == ("biorder corpus show: error: "
                           "the following arguments are required: name\n")

    @pytest.mark.parametrize("args, stray", [
        (["corpus", "list", "trefoil"], "trefoil"),
        (["corpus", "verify", "trefoil"], "trefoil"),
        (["corpus", "verify", "7_6", "--format", "json"], "7_6"),
        (["corpus", "list", ""], ""),
        (["corpus", "show", "7_6", "--format", "json"], "--format json"),
    ], ids=["list", "verify", "verify-json", "list-empty", "show-format"])
    def test_stray_name_is_usage_error(self, args, stray, capsys):
        """Each corpus action parses only its own arguments: a name after
        list or verify, or a --format after show, is left over."""
        assert cli.main(args) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, message = captured.err.split("\n", 1)
        assert usage.startswith("usage: biorder ")
        assert message == f"biorder: error: unrecognized arguments: {stray}\n"

    def test_list_json(self, capsys):
        assert cli.main(["corpus", "list", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == list(CORPUS_NAMES)

    def test_verify_text(self, capsys):
        assert cli.main(["corpus", "verify"]) == 0
        out = capsys.readouterr().out
        for name in CORPUS_NAMES:
            assert f"{name}:" in out
        assert "all 4 corpus verdicts match" in out

    def test_verify_json_is_byte_stable(self, capsys):
        assert cli.main(["corpus", "verify", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["corpus", "verify", "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is True
        assert [r["name"] for r in payload["results"]] == list(CORPUS_NAMES)


class TestProbeCommand:
    def test_subgroup_short_trial_count_warns(self, capsys):
        assert cli.main(["probe", "subgroup", "--g", "x y X Y", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "\nwarning: only 1 of 20 samples found an infinitesimal within 500 draws\n" in out
        assert cli.main(["probe", "subgroup", "--g", "x", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "trials: 20\n" in out and "warning" not in out

    def test_subgroup_pass(self, capsys):
        assert cli.main(["probe", "subgroup", "--g", "x", "--seed", "7",
                         "--samples", "200"]) == 0
        assert "status: PASS" in capsys.readouterr().out

    def test_dominance_counterexample_witness(self, capsys):
        assert cli.main(["probe", "dominance", "--g", "y", "--seed", "7",
                         "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "status: COUNTEREXAMPLE" in out
        assert "counterexample: x" in out

    def test_unknown_probe_is_usage_error(self, capsys):
        assert cli.main(["probe", "nosuch"]) == cli.EXIT_USAGE

    def test_missing_word_argument_is_usage_error(self, capsys):
        assert cli.main(["probe", "subgroup"]) == cli.EXIT_USAGE

    def test_malformed_word_argument_is_usage_error(self, capsys):
        assert cli.main(["probe", "subgroup", "--g", "q!"]) == cli.EXIT_USAGE

    def test_weak_comparability_not_found(self, capsys):
        assert cli.main(["probe", "weak-comparability", "--f", "x", "--g", "y",
                         "--bound", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "NOT_FOUND_WITHIN_BOUND"
        assert payload["witness"] is None

    def test_weak_comparability_witness(self, capsys):
        assert cli.main(["probe", "weak-comparability", "--f", "x", "--g", "x",
                         "--bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "status: WITNESS_FOUND" in out
        assert "witness: e" in out

    def test_weak_comparability_witness_json(self, capsys):
        assert cli.main(["probe", "weak-comparability", "--f", "x", "--g", "y x Y",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "WITNESS_FOUND"
        assert payload["witness"] == "e"
        assert payload["checked"] == 1

    def test_map_probe_via_corpus(self, capsys):
        assert cli.main(["probe", "order-preservation", "--map", "corpus:figure8",
                         "--samples", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] in ("PASS", "COUNTEREXAMPLE")

    def test_map_probe_requires_map(self, capsys):
        assert cli.main(["probe", "semidirect"]) == cli.EXIT_USAGE

    def test_probe_json_stable(self, capsys):
        args = ["probe", "dominance", "--g", "y", "--samples", "50",
                "--format", "json"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert first == capsys.readouterr().out

    def test_negative_probe_word_is_analysis_error(self, capsys):
        assert cli.main(["probe", "subgroup", "--g", "X"]) == cli.EXIT_ANALYSIS
        assert capsys.readouterr().err == (
            "analysis error: element must be positive in the Magnus order: X\n")

    def test_premise_detail_names_word_in_given_generators(self, capsys):
        args = ["probe", "normality", "--g", "q", "--generators", "p q"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == (
            "probe: normality\nstatus: PREMISE_UNMET\n"
            "detail: dominance premise failed for q\n")
        assert cli.main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "probe": "normality", "status": "PREMISE_UNMET",
            "detail": "dominance premise failed for q"}

    def test_commutator_probe(self, capsys):
        assert cli.main(["probe", "commutator", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("probe: commutator-infinitesimal\n"
                              "config: seed=0 samples=20 max_word_length=10 search_bound=4\n")
        assert "status: PASS\n" in out
        assert cli.main(["probe", "commutator", "--samples", "20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probe"] == "commutator-infinitesimal"
        assert payload["config"]["samples"] == 20
        assert 0 < payload["trials"] <= 20
        assert (payload["status"], payload["failures"]) == ("PASS", [])

    def test_invariance_premise_unmet(self, capsys):
        args = ["probe", "invariance", "--map", "corpus:trefoil"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == (
            "probe: invariance\nstatus: PREMISE_UNMET\n"
            "detail: order preservation premise failed\n")
        assert cli.main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "probe": "invariance", "status": "PREMISE_UNMET",
            "detail": "order preservation premise failed"}

    def test_map_probes_refuse_a_wrong_inverse_block(self, tmp_path, capsys):
        """A map probe checks the monodromy as analyze does, so a wrong
        `inverse:` block is analysis error 3 and no probe runs on it."""
        bogus = tmp_path / "bogus.knot"
        bogus.write_text("name: bogus\nfibered: true\ngenerators: a b\n"
                         "map:\n  a -> b\n  b -> b A\ninverse:\n  a -> a\n  b -> b\n")
        assert cli.main(["analyze", str(bogus)]) == cli.EXIT_ANALYSIS
        expected = capsys.readouterr().err
        assert "monodromy is not an automorphism" in expected
        for name in ("order-preservation", "invariance", "semidirect"):
            assert cli.main(["probe", name, "--map", str(bogus)]) == cli.EXIT_ANALYSIS
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == expected

    def test_semidirect_needs_inverse_block(self, tmp_path, capsys):
        """The semidirect probe builds phi^n for negative n, so a map file
        without an `inverse:` block is analysis error 3."""
        path = tmp_path / "noinv.knot"
        path.write_text("name: t\nfibered: true\ngenerators: a b\n"
                        "map:\n  a -> b\n  b -> b A\n")
        assert cli.main(["probe", "semidirect", "--map", str(path)]) == cli.EXIT_ANALYSIS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "analysis error: map carries no inverse images\n"

    def test_probe_defaults_are_the_config_defaults(self):
        ns = cli.build_parser().parse_args(["probe", "commutator"])
        cfg = ProbeConfig()
        assert (ns.seed, ns.samples, ns.max_word_length, ns.bound) == (
            cfg.seed, cfg.samples, cfg.max_word_length, cfg.search_bound)

    def test_missing_map_file_is_parse_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.knot"
        assert cli.main(["probe", "semidirect", "--map", str(missing)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(missing) in captured.err


class TestUsage:
    @pytest.mark.parametrize("args, reason", [
        (["analyze", "corpus:6_2", "--max-level", "7"], "error: argument --max-level: "),
        (["analyze", "corpus:6_2", "--max-degree", "x"], "error: argument --max-degree: "),
        (["probe", "subgroup", "--g", "x", "--seed", "q"], "error: argument --seed: "),
    ])
    def test_argparse_reason_follows_the_usage_line(self, args, reason, capsys):
        assert cli.main(args) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, message = captured.err.split(f"\nbiorder {args[0]}: ")
        assert usage.startswith(f"usage: biorder {args[0]} ")
        assert message.startswith(reason) and message.endswith("\n")

    def test_probe_generators_rejected(self, capsys):
        for generators, message in (("d e", "'e' is reserved"),
                                    ("x x", "duplicate generator names"),
                                    ("X y", "'X' must be one lowercase letter"),
                                    ("", "empty generator list")):
            assert cli.main(["probe", "dominance", "--generators", generators,
                             "--g", "e"]) == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --generators: ")
            assert message in captured.err

    def test_no_command(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_bad_format_value(self, capsys):
        assert cli.main(["analyze", "corpus:6_2", "--format", "xml"]) == cli.EXIT_USAGE

    def test_probe_sizes_below_one(self, capsys):
        assert cli.main(["probe", "subgroup", "--g", "x", "--samples", "0"]) == cli.EXIT_USAGE
        assert "error: --samples: must be in 1..10000" in capsys.readouterr().err
        assert cli.main(["probe", "subgroup", "--g", "x",
                         "--max-word-length", "0"]) == cli.EXIT_USAGE
        assert "error: --max-word-length: must be in 1..100" in capsys.readouterr().err

    def test_bound_range(self, capsys):
        base = ["probe", "weak-comparability", "--f", "x", "--g", "y", "--bound"]
        for bound in ("0", "1000"):
            assert cli.main(base + [bound]) == cli.EXIT_OK
            assert f"config: bound={bound}" in capsys.readouterr().out
        for bound in ("-1", "1001"):
            assert cli.main(base + [bound]) == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --bound: must be in 0..1000\n"


# Every probe flag at its lowest value and just past each end of its range
# (flags without a numeric range: one accepted and one rejected value).  Each
# row extends a small base run; a flag given again overrides the base's.
_WORD = ["probe", "subgroup", "--g", "x", "--samples", "5"]
_MAP = ["probe", "semidirect", "--map", "corpus:figure8", "--samples", "5"]
_PAIR = ["probe", "weak-comparability", "--f", "x", "--g", "y"]
_OUT_OF_RANGE = "error: {}: must be in {}\n"


_FLAG_TABLE = [
    (_WORD, ["--samples", "1"], cli.EXIT_OK, ""),
    (_WORD, ["--samples", "0"], cli.EXIT_USAGE, _OUT_OF_RANGE.format("--samples", "1..10000")),
    (_WORD, ["--samples", "10001"], cli.EXIT_USAGE,
     _OUT_OF_RANGE.format("--samples", "1..10000")),
    (_WORD, ["--max-word-length", "1"], cli.EXIT_OK, ""),
    (_WORD, ["--max-word-length", "0"], cli.EXIT_USAGE,
     _OUT_OF_RANGE.format("--max-word-length", "1..100")),
    (_WORD, ["--max-word-length", "101"], cli.EXIT_USAGE,
     _OUT_OF_RANGE.format("--max-word-length", "1..100")),
    (_PAIR, ["--bound", "0"], cli.EXIT_OK, ""),
    (_PAIR, ["--bound", "-1"], cli.EXIT_USAGE, _OUT_OF_RANGE.format("--bound", "0..1000")),
    (_PAIR, ["--bound", "1001"], cli.EXIT_USAGE, _OUT_OF_RANGE.format("--bound", "0..1000")),
    (_WORD, ["--seed", "-1"], cli.EXIT_OK, ""),
    (_WORD, ["--seed", "1.5"], cli.EXIT_USAGE, None),
    (_WORD, ["--format", "json"], cli.EXIT_OK, ""),
    (_WORD, ["--format", "xml"], cli.EXIT_USAGE, None),
    (_WORD, ["--generators", "a b", "--g", "a"], cli.EXIT_OK, ""),
    (_WORD, ["--generators", "a a"], cli.EXIT_USAGE,
     "error: --generators: duplicate generator names\n"),
    (_WORD, ["--g", "y x"], cli.EXIT_OK, ""),
    (_WORD, ["--g", "z"], cli.EXIT_USAGE, "error: --g: unknown generator 'z'\n"),
    (_PAIR, ["--f", "y X"], cli.EXIT_OK, ""),
    (_PAIR, ["--f", "xy"], cli.EXIT_USAGE, "error: --f: unreadable word token 'xy'\n"),
    (_MAP, ["--map", "corpus:trefoil"], cli.EXIT_OK, ""),
    (_MAP, ["--map", "corpus:nosuch"], cli.EXIT_PARSE, None),
]


@pytest.mark.parametrize("base, flags, code, err", _FLAG_TABLE,
                         ids=[" ".join(row[1]) for row in _FLAG_TABLE])
def test_probe_flag_table(base, flags, code, err, capsys):
    assert cli.main(base + flags) == code
    captured = capsys.readouterr()
    if err is not None:
        assert captured.err == err
    if code != cli.EXIT_OK:
        assert captured.out == ""


# sha256 of `probe NAME ... --seed S --format json` at default flags, seeds 1
# and 7, recorded before the probe hot path was sped up.  A change that alters
# which words are drawn, or what is done with them, fails here.
_INNER = ("name: inner\nfibered: true\ngenerators: a b\nmap:\n  a -> a\n  b -> a b A\n"
          "inverse:\n  a -> a\n  b -> A b a\n")
_PINNED_STREAM = {
    "subgroup": (["--g", "x"],
                 "0e996eeaf1e03b947d5fe9ab17fa05798b12b8088a5f146269b7c9be2e768c41",
                 "b859687fad8b86e9b783c0d00a6a8b8f6d79524315c52e02ddbcc01b05f1fcdd"),
    "normality": (["--g", "x"],
                  "8f7ca8a3fda8c1373f6b9f1d7306e4ead9d055ec780fe6cb4f8cbb038dc15fac",
                  "7087c39c4cfb588f69b8316621f0414940b24aea9f034b47ca987ca876173632"),
    "dominance": (["--g", "x"],
                  "e77932875d870dca5b0680b4325ce279be17adcc02fab86bb40549be8e053151",
                  "b5bcc6f9bdaf15113425c0d09991f13f3c9a09c1d6039ea4100a59d8c478e659"),
    "commutator": ([],
                   "c21a17a2e335817b4ad14e329c1003afcc113716874252c1c4e05c0d00d8b2f3",
                   "8afcec46cf4dec8bef0c45a52bce922f6b94c333f94d2265c44192c19e7faf2e"),
    "order-preservation": (["--map", "corpus:figure8"],
                           "61eed1de3d054ced2ad8f4a5daae7cbb09287467d11e469d2cd88e529f8deed8",
                           "889810192e84b236613d22372709722917bb9c8919c5c9b7cbce03e590560f2e"),
    "invariance": (["--map", "INNER"],
                   "cbf502cb079b3e66244be1a4769e8ed3c4a54897dbbbe689e4a775112bc587c5",
                   "8809d45f2fc8027ee52a2439155c90f181c28dba734dc38f55eb113e468d1613"),
    "semidirect": (["--map", "corpus:figure8"],
                   "b83f3eae0e2cbbca8ddd635c7eba3ccd0979e449fecb374370790b9bc6d119d4",
                   "4cbdc5885edc7ffadbe6f5fcb3b809cc42e3960d064ac80827bd3bf5c3689984"),
    "weak-comparability": (["--f", "x", "--g", "y"],
                           "11e735d8ab4710544121f6b5ae724c10da253f8b7e7e8ff5a6dd234e20d1e9b0",
                           "5f36716eae558aa6c33af17d6e99b20f5510167ab1bb7a2e3e09f6783391b615"),
}


@pytest.mark.parametrize("name", _PINNED_STREAM)
def test_probe_stream_is_pinned(name, tmp_path, capsys):
    inner = tmp_path / "inner.knot"  # conjugation by a: invariance runs in full
    inner.write_text(_INNER)
    args, *digests = _PINNED_STREAM[name]
    args = [str(inner) if a == "INNER" else a for a in args]
    for seed, digest in zip((1, 7), digests):
        assert cli.main(["probe", name, *args, "--seed", str(seed), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# sha256 of the text view of each _PINNED_STREAM row, seeds 1 and 7, recorded
# before the text and the JSON were rendered from one document.
_PINNED_TEXT = {
    "subgroup": ("fc275456a2faac661720eea369cad64d90fb1496fec59c04153006ea7281cb9f",
                 "635e2121614951987b8020b93418b343e579967e468496e80012cc0764bcdb16"),
    "normality": ("08b5132305df21ccc3dc749c4147d58f2ca863eb98cf853f7b793264cc9c49a4",
                  "ba3bf1a69bbab7d481a049500d37bf624a621213dbed2f54b02d297b3fdd8dc5"),
    "dominance": ("49413fabf7a84d148749280fb4fbce4bed21855d07800b8ef8034e34db97502a",
                  "bbd87faa684a633a76cb05e2aeef2c7d91b0e45af5ebeebd1fa8aa3c46ee8bfb"),
    "commutator": ("ae1c93c2c203f03733fad9cb60cf14b6490b564bdc9cfdad92634083c3857337",
                   "60c20cd400f945ecdd21d6a75d07bcee6fabec40aa174ba3adec4efc9ea5e417"),
    "order-preservation": ("fbcac746967f7f85e693b17f11385f1f789c16c86eefe167fbedbd994aa485ec",
                           "0eed60bfe98ed861a97e109ad25e0ad657e852fb0b176a0a74486384df7c9d43"),
    "invariance": ("4df57485bf303482ac0d3b5e45d2e20676ba81e20ca47434446b3d68017626bd",
                   "435a210be85015698cac0e799ba231c011b4d50068e1b8af4f6c32b8145c3309"),
    "semidirect": ("5a1cac3a51b902eeac522d053c49a51bf8361be1fa42f00faf4bfafb6ea34c8e",
                   "7a4816666692856d84f8697e7c5bf0270085c2881df3623bf4da6540a8eb099f"),
    "weak-comparability": ("35e9b68b278ebcacab20930c764fe2cb208407aca648c8719157330c148ce51c",
                           "35e9b68b278ebcacab20930c764fe2cb208407aca648c8719157330c148ce51c"),
}


@pytest.mark.parametrize("name", _PINNED_TEXT)
def test_probe_text_is_pinned(name, tmp_path, capsys):
    inner = tmp_path / "inner.knot"
    inner.write_text(_INNER)
    args = [str(inner) if a == "INNER" else a for a in _PINNED_STREAM[name][0]]
    for seed, digest in zip((1, 7), _PINNED_TEXT[name]):
        assert cli.main(["probe", name, *args, "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# sha256 of the stdout of the commands whose view has no other pin: corpus
# verify in both formats, a PREMISE_UNMET pair and a found witness.
_PINNED_VIEWS = [
    (["corpus", "verify"], "ce2061ecf81a18ef6bb74d46725bb4eedf00942e4ddc59b64aa08b118a535277"),
    (["corpus", "verify", "--format", "json"],
     "5f1e7ee68bf517e36cf593b373a12dc7c06466eaf53ed6ba7927a880e2cdd04a"),
    (["probe", "invariance", "--map", "corpus:trefoil"],
     "ba64f9234594cc68dd354fae99c6201cc1660184d24553c32f1fd765a36b47f0"),
    (["probe", "invariance", "--map", "corpus:trefoil", "--format", "json"],
     "bb2176d74bf58be5881b11d0f42a1dd84fe87b9160ac0e05c867a1d74eecc511"),
    (["probe", "weak-comparability", "--f", "x", "--g", "x"],
     "273836f8fb045bccb9b484a25bd3d6b751d6056eca5f1544fac6b28ca6756660"),
]


@pytest.mark.parametrize("args, digest", _PINNED_VIEWS, ids=[" ".join(a) for a, _ in _PINNED_VIEWS])
def test_view_is_pinned(args, digest, capsys):
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# sha256 of `analyze corpus:K --max-level L --max-degree 100` stdout, one
# (text, json) pair for each L = 0..3, recorded before every level read M's
# power sums from one list.  Any change to an analysis byte fails here.
_PINNED_ANALYSIS = {
    "trefoil": (
        ("b871d15de9c748e4e13d0f0296b09dfb790368eab7ac478356d2b9f648c2894f",
         "343a8f3e85dea7748bc5937ac289b9198d8cf812cbe8003f23773d8fc2b4830d"),
        ("bbde656a2055c2a1918cfb6868d41aa2fa87cfb55a9e59783bdc56c7f45d6f5b",
         "b9c3c2c1fc5234b4a6c76056410184d606428ece0c5dc207ef3ad0b4dfe2d6f4"),
        ("d75377621cafe950510d11bca08f5503032ffbeac654112f28775c25313c76a5",
         "b90aba3e3e28300b9a83f9dd6737f85704d71bd1c1760d57322143d1929d21cd"),
        ("5e70989fe9117e97a13809937316ced1c332861713784e68bba3fed17906518a",
         "b2390059d3aae2d75c5a952237c7ff9559e0e64475a404df50b021711afe9357"),
    ),
    "figure8": (
        ("10b25a5aa8835d17e20e03153584eceb3d8c67a1c95192e910fdd41557368483",
         "4d3705b1c2192fa8a0ed4afa27fe7be76125b5c802b59de07f1b16ea9548bec8"),
        ("ab1299ba059e13ff2ea9fde72aa423929d4f5d6395f4bf46d3fb995fcb910f3f",
         "07ace39ce76e92fd3f16e8e545523bc8d89f20f0e76467ba2d1e2918b5f67854"),
        ("ab347fe45f7aa04aa987b48b3211d1af52fce877b1442eabb9a5bc97b8ca34fb",
         "10de489762554dc9449d591e18f18f4b9d236d3c081a7d176e6b25ffebf59e78"),
        ("e79290d8a6455373bc44698df1b19aa55d4065824656031f347259012b93ce52",
         "764390b891403c22e02ad10b65f4a2e924b6fae25acbbfcd7ecfe32b041b4a54"),
    ),
    "6_2": (
        ("5d3f07e124252b572baf3e449a152dea5d3fd0aa03b424c9b789a95aff83d57e",
         "1618b95fce80cfc682c6acbc32483f1608e4569d2feb0e26cca54fc7230398cc"),
        ("ad8a2f2b96155ad14766ea2351d438c6a998bf8a7908b49eb48cd4430a2b4e8f",
         "4cecd05f4a23ea0f1b79bbaa7b30acb3f23f7c4155aae36db56c484009888b0f"),
        ("bb466d9e29866ca39a96681e47ea26cccab34be71fabc3d7fc288887a819e097",
         "3a1d6c91a648a16edd42199c8d9df99a66e934be819daa614369dbe8b74b3adb"),
        ("61df67c44fa8b82da649062f8b87d13ee3037331aca1bbde69c7862ba558829e",
         "d62352561802584fa1293140e6efff17a8fa17d187afb15eb4f98decdbb29667"),
    ),
    "7_6": (
        ("e77086a7b590b3da0d025923907c28f1c27f4fbc46c11905ba3f3db3bb7bbff7",
         "a30f498ebd8ac4bd1db61a0196f66fd6ba47c0825155450f9557e18c8c537711"),
        ("827041f0ceb5ef74cf2b66720d7da2e800ba9e9d732429a96794d6283c189106",
         "f0a23a637c407452dd7fb559bd24802f67c15b3a013d4302fd1e9b2992ee93d5"),
        ("13d37f1d354262c6382671bd3c54c15dd4ff0f9af86e6257198b34ee9a94c932",
         "c18246cc42ca633d906dbdce53331268d79409783856537e658ce91e3d66f31b"),
        ("fd4b221f87bf198472ad6bf463ad26a63639a90dc03680e0974e3a17b116603e",
         "78d1c36d6a448488d58ae79b355377bb18f7023a0e11ce2b2651e0e71431dd5a"),
    ),
}


@pytest.mark.parametrize("name", _PINNED_ANALYSIS)
def test_analysis_stream_is_pinned(name, capsys):
    for level, digests in enumerate(_PINNED_ANALYSIS[name]):
        for fmt, digest in zip(("text", "json"), digests):
            assert cli.main(["analyze", f"corpus:{name}", "--max-level", str(level),
                             "--max-degree", "100", "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_basis_names_match_bracket_name():
    """The renderer builds each level's names from the splits of the level
    below; bracket_name, one fold per word, is the oracle."""
    from biorder.presentation import KnotRecord
    from biorder.verdict import analyze
    from helpers import bracket_name, random_automorphism
    rng = random.Random(127)
    for names in (("x", "y"), ("p", "q", "r"), ("d", "c", "b", "a")):
        record = KnotRecord("r", random_automorphism(rng, len(names), 5), True, names)
        report = analyze(record, max_level=3, max_degree=100)
        assert cli._basis_names(report) == [
            [bracket_name(lw, names) for lw in level.action.basis] for level in report.levels]


def test_corpus_loads_no_archive_or_temp_file_module():
    """The corpus reads its files by a path beside the module.  Neither the
    CLI's import nor loading every entry pulls in zipfile, tempfile or
    pathlib, which importlib.resources would."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import biorder.cli; "
            "from biorder.corpus import corpus_entries; corpus_entries(); "
            "print(biorder.cli.__file__); "
            "print(*[m for m in ('zipfile', 'tempfile', 'pathlib') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    where, loaded = run.stdout.split("\n")[:2]
    assert Path(where).resolve().is_relative_to(SRC)
    assert loaded == ""


def test_package_import_loads_no_submodule():
    """`import biorder` runs only the package docstring and version; each
    caller imports the modules it uses."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import biorder; "
            "print(biorder.__file__); "
            "print(*sorted(m for m in sys.modules if m.startswith('biorder.')))")
    run = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    where, loaded = run.stdout.split("\n")[:2]
    assert Path(where).resolve().is_relative_to(SRC)
    assert loaded == ""


@pytest.mark.parametrize("args", [
    ["corpus", "list"],
    ["corpus", "verify"],
    ["corpus", "verify", "--format", "json"],
    ["analyze", "corpus:figure8"],
    ["analyze", "corpus:figure8", "--format", "json"],
    ["probe", "dominance", "--g", "y"],
    ["probe", "weak-comparability", "--f", "x", "--g", "y"],
    ["probe", "invariance", "--map", "corpus:trefoil"],
    ["--help"],
], ids=" ".join)
def test_closed_stdout_ends_quietly(args):
    """A reader that closed stdout before the command wrote (`| head -1` that
    has read its line) stops the output: the command keeps its exit code and
    writes nothing to stderr."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "from biorder.cli import main; sys.exit(main())")
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-I", "-c", code, *args], stdout=write,
                             stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("args, code", [
    (["analyze", "corpus:nope"], cli.EXIT_PARSE),
    (["analyze", "corpus:6_2", "--max-degree", "4"], cli.EXIT_ANALYSIS),
    (["probe", "subgroup", "--g", "x", "--samples", "0"], cli.EXIT_USAGE),
    (["probe", "subgroup", "--format", "xml"], cli.EXIT_USAGE),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_closed_stderr_keeps_the_exit_code(args, code):
    """A reader that closed stderr before the error line was written does not
    turn a refusal into a traceback: the command keeps its exit code."""
    code_text = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                 "from biorder.cli import main; sys.exit(main())")
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-I", "-c", code_text, *args],
                             stdout=subprocess.PIPE, stderr=write, text=True, timeout=120)
    finally:
        os.close(write)
    assert (run.returncode, run.stdout) == (code, "")
