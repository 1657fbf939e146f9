"""Parser fuzzing: on any text the four parsers either return or raise
ParseError.  The one other allowed error is ConstraintError for
duplicate CSV column names, a structural limit of ``NumericTable``."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galmine import ConstraintError, ParseError, parse_csv, parse_cxt, parse_tab
from galmine.rules import parse_rules_jsonl

# line ends, Unicode line separators, BOM and the format's own characters
_NOISY = st.text(alphabet=st.sampled_from("aB X.,\"#\t\r\n\x1c\x85\u2028\ufeff0123-e"), max_size=40)
_TEXT = st.one_of(st.text(max_size=40), _NOISY)


def _only_parse_errors(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@st.composite
def cxt_like(draw):
    """A CXT header with drawn counts, then drawn lines."""
    count = st.one_of(st.integers(-1, 4).map(str), _NOISY)
    lines = [draw(st.sampled_from(["B", "B\r", "\ufeffB"])), "", draw(count), draw(count), ""]
    lines += draw(st.lists(st.one_of(st.text(alphabet=".X", max_size=4), _NOISY), max_size=12))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def csv_like(draw):
    """A header and rows of drawn cells: numbers, non-finite and huge
    values, quotes, and CR/LF inside cells."""
    cell = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-(10**30), 10**30).map(str),
        st.sampled_from(["nan", "inf", "1e400", "", '"1,5"', '"a\nb"', "1\r2", "x"]),
        _NOISY,
    )
    rows = draw(st.lists(st.lists(cell, min_size=1, max_size=4), min_size=1, max_size=6))
    return "\n".join(",".join(r) for r in rows) + "\n"


# JSON with non-finite and huge numbers, written by json.dumps as
# Infinity / NaN / 400-digit literals
_NUMBERS = st.one_of(st.integers(-(10**400), 10**400), st.floats(allow_nan=True, allow_infinity=True))
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_LABELS = st.lists(st.text(alphabet="ab\r\x85\u2028", max_size=3), max_size=3)


@st.composite
def rules_jsonl_like(draw):
    """JSON-lines of rule-shaped records (each field a plausible value or
    any JSON value), other JSON values and raw text."""
    record = st.fixed_dictionaries(
        {
            "premise": _LABELS | _JSON,
            "consequent": _LABELS | _JSON,
            "support": _NUMBERS | _JSON,
            "confidence": _NUMBERS | _JSON,
            "lift": _NUMBERS | _JSON,
            "conviction": st.none() | _NUMBERS | _JSON,
        }
    )
    ensure_ascii = draw(st.booleans())
    line = st.one_of(record.map(lambda r: json.dumps(r, ensure_ascii=ensure_ascii)), _JSON.map(json.dumps), _TEXT)
    return draw(st.sampled_from(["\n", "\r\n"])).join(draw(st.lists(line, max_size=4)))


@given(st.one_of(_TEXT, cxt_like()))
def test_parse_tab_raises_only_parse_error(text):
    _only_parse_errors(parse_tab, text)


@given(st.one_of(_TEXT, cxt_like()))
def test_parse_cxt_raises_only_parse_error(text):
    _only_parse_errors(parse_cxt, text)


@pytest.mark.parametrize("has_label_column", [False, True])
@given(text=st.one_of(_TEXT, csv_like()))
def test_parse_csv_raises_only_parse_error(has_label_column, text):
    try:
        parse_csv(text, has_label_column=has_label_column)
    except ParseError:
        pass
    except ConstraintError as exc:
        assert "column names must be distinct" in str(exc)


@given(st.one_of(_TEXT, rules_jsonl_like()))
def test_parse_rules_jsonl_raises_only_parse_error(text):
    _only_parse_errors(parse_rules_jsonl, text)
