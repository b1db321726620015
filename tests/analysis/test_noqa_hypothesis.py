"""Property tests: the noqa tokenizer.

For arbitrary comment spacing, id separators, casing and placement —
including after line continuations and multi-line expressions — the
suppression map must land the right rule-id set on the right physical
line, and never fire from inside a string literal.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import parse_suppressions

RULE_IDS = st.sampled_from(
    ["RB000", "RB001", "RB003", "RB005", "RB006", "RB007", "RB010", "RB999"]
)

#: Horizontal whitespace legal inside a comment.
hws = st.text(alphabet=" \t", max_size=3)


@st.composite
def noqa_comment(draw):
    """(comment_text, expected_ids): a syntactically scrambled noqa."""
    ids = draw(st.lists(RULE_IDS, min_size=0, max_size=4, unique=True))
    marker = "".join(
        draw(st.sampled_from([c.lower(), c.upper()])) for c in "repro: noqa"
    )
    parts = [f"#{draw(hws)}{marker}"]
    for rule_id in ids:
        sep = draw(st.sampled_from([" ", ", ", ",", "  ", " ,"]))
        cased = rule_id.lower() if draw(st.booleans()) else rule_id
        parts.append(f"{sep}{cased}")
    trailer = draw(st.sampled_from(["", "  trailing words", " -- why"]))
    return "".join(parts) + trailer, frozenset(ids)


@given(noqa_comment())
@settings(max_examples=200)
def test_arbitrary_noqa_comment_parses(comment_and_ids):
    comment, expected = comment_and_ids
    suppressions = parse_suppressions(f"x = 1  {comment}\n")
    assert 1 in suppressions
    if expected:
        assert suppressions[1] == expected
    else:
        assert "*" in suppressions[1]


@given(noqa_comment(), st.integers(min_value=0, max_value=5))
@settings(max_examples=100)
def test_noqa_lands_on_its_physical_line(comment_and_ids, leading_lines):
    comment, expected = comment_and_ids
    source = "y = 0\n" * leading_lines + f"x = 1  {comment}\n"
    suppressions = parse_suppressions(source)
    assert set(suppressions) == {leading_lines + 1}


@given(noqa_comment())
@settings(max_examples=100)
def test_noqa_after_line_continuation_stays_on_its_line(comment_and_ids):
    comment, _ = comment_and_ids
    # The comment physically sits on line 2 of a continued expression
    # (and on line 5 of a backslash continuation).
    source = f"x = (1 +\n     2)  {comment}\n\nz = 3 + \\\n    4  {comment}\n"
    suppressions = parse_suppressions(source)
    assert set(suppressions) == {2, 5}


@given(noqa_comment())
@settings(max_examples=100)
def test_noqa_inside_string_literal_is_inert(comment_and_ids):
    comment, _ = comment_and_ids
    source = f"x = {json.dumps(comment)}\ny = '''\n{comment}\n'''\n"
    assert parse_suppressions(source) == {}


@given(st.lists(RULE_IDS, min_size=1, max_size=6, unique=True))
@settings(max_examples=50)
def test_multiple_ids_all_register(ids):
    source = "x = 1  # repro: noqa " + ", ".join(ids) + "\n"
    assert parse_suppressions(source)[1] == frozenset(ids)

