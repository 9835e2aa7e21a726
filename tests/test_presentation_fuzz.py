"""Fuzz of the presentation parser: every text parses or raises PresentationError."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import configuration, strategies as st  # noqa: E402

from biorder.corpus import corpus_text  # noqa: E402
from biorder.presentation import (PresentationError, PresentationFile,  # noqa: E402
                                  parse_presentation)

# lines of the format, good and bad, with text over the characters the parser
# looks at (line breaks that str.splitlines knows among them) on their own or
# appended; most texts start with a good header or a whole good file
FRAGMENTS = ["name: t", "fibered: true", "fibered: no", "generators: a b",
             "generators: a a", "generators: e", "generators:", "map:", "inverse:",
             "  a -> b", "  b -> A B", "  a -> e", "  b -> a", "  q -> a", "  a b",
             "  a -> b!", "\ta -> a", "# note", "", "name:", "colour: red", ":", "->"]
CHARS = "abeqABEQ0é \t:->#!\r\n\x0b\x1c\x85\u2028"
HEADER = ["name: t", "fibered: true", "generators: a b", "map:"]
STARTS = [[], HEADER, HEADER + ["  a -> b", "  b -> A B"], corpus_text("6_2").splitlines()]
LINE = st.one_of(st.sampled_from(FRAGMENTS),
                 st.builds(str.__add__, st.sampled_from(FRAGMENTS), st.text(CHARS, max_size=8)),
                 st.text(CHARS, max_size=16))
LINES = st.builds(list.__add__, st.sampled_from(STARTS), st.lists(LINE, max_size=8))


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(LINES, st.sampled_from(["\n", "\r\n", "\r"]))
def _parses_or_raises_presentation_error(lines, newline):
    try:
        parsed = parse_presentation(newline.join(lines))
    except PresentationError:
        return
    assert isinstance(parsed, PresentationFile)


def test_every_text_parses_or_raises_presentation_error(tmp_path):
    # Hypothesis caches constants mined from local source files in its
    # storage directory even with database=None; run the property here, not
    # as a collected test, so that the cache goes to tmp_path.
    configuration.set_hypothesis_home_dir(tmp_path)
    try:
        _parses_or_raises_presentation_error()
    finally:
        configuration.set_hypothesis_home_dir(None)
