import json

import pytest

from biorder import cli
from biorder.corpus import CORPUS_NAMES, corpus_text
from biorder.freegroup import Word
from biorder.presentation import (PresentationError, parse_presentation,
                                  serialize_presentation)
from helpers import W


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

    def test_identity_image_spelled_e(self):
        text = "name: t\nfibered: false\ngenerators: a b\nmap:\n  a -> e\n  b -> a\n"
        pf = parse_presentation(text)
        assert pf.images[0] == Word(2, ())


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

    def test_non_automorphism_is_analysis_error(self, tmp_path, capsys):
        doubling = tmp_path / "doubling.knot"
        doubling.write_text("name: q\nfibered: true\ngenerators: a b\n"
                            "map:\n  a -> a a\n  b -> b\n")
        assert cli.main(["analyze", str(doubling)]) == cli.EXIT_ANALYSIS

    def test_degree_cap_is_analysis_error(self, capsys):
        assert cli.main(["analyze", "corpus:6_2", "--max-degree", "4"]) == cli.EXIT_ANALYSIS

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["analyze"]) == cli.EXIT_USAGE
        assert cli.main(["analyze", "corpus:6_2", "--max-level", "7"]) == cli.EXIT_USAGE


class TestCorpusCommand:
    def test_list(self, capsys):
        assert cli.main(["corpus", "list"]) == 0
        assert capsys.readouterr().out.split() == list(CORPUS_NAMES)

    def test_show_round_trips_file(self, capsys):
        assert cli.main(["corpus", "show", "7_6"]) == 0
        assert capsys.readouterr().out == corpus_text("7_6")

    def test_show_unknown_name(self, capsys):
        assert cli.main(["corpus", "show", "8_19"]) == cli.EXIT_PARSE

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


class TestUsage:
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
        assert "error: samples must be >= 1" in capsys.readouterr().err
        assert cli.main(["probe", "subgroup", "--g", "x",
                         "--max-word-length", "0"]) == cli.EXIT_USAGE
        assert "error: max_word_length must be >= 1" in capsys.readouterr().err
