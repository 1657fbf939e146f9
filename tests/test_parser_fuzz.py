"""Parser fuzzing: on any text the four parsers either return or raise
ParseError.  The one other allowed error is ConstraintError for
duplicate CSV column names, a structural limit of ``NumericTable``.

Then the CLI against the library: a file of UTF-8 bytes with one
consistent line end gives the CLI exactly the library's output, or exit
2 exactly when the library parser raises ParseError."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galmine import (
    BinningSpec,
    ConstraintError,
    GalmineError,
    ParseError,
    discretize,
    parse_csv,
    parse_cxt,
    parse_tab,
    write_cxt,
)
from galmine.rules import parse_rules_jsonl, render_rules_jsonl

from conftest import cli_bytes

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


# -- the CLI reads the same text as the library -------------------------------

_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


def _label(keep_cr=False):
    """Labels with U+2028 and U+0085, and with ``keep_cr`` a "\\r", which
    only a CXT with LF line ends keeps inside a line."""
    return st.text(alphabet="ab#. \u2028\x85" + ("\r" if keep_cr else ""), max_size=3)


def _cli_matches_library(suffix, text, argv, library):
    """Run ``galmine *argv FILE`` on ``text`` written as UTF-8 bytes and
    compare its stdout bytes with ``library(text)`` as UTF-8, the parser
    plus renderer."""
    try:
        expected = (0, library(text).encode("utf-8"))
    except ParseError:
        expected = (2, b"")
    except GalmineError:
        expected = (3, b"")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("input" + suffix)
        path.write_bytes(text.encode("utf-8"))
        code, out = cli_bytes([*argv, str(path)])
    assert (code, out) == expected


def _file(draw, end, lines):
    """``lines`` joined by ``end``, with or without a BOM and a final line end."""
    return draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def tab_text(draw):
    end = draw(_LINE_END)
    return _file(draw, end, draw(st.lists(st.lists(_label(), max_size=4).map(" ".join), max_size=6)))


@st.composite
def cxt_text(draw):
    """Mostly well-formed: distinct names and full-width matrix lines,
    with now and then a declared object count one too high."""
    end = draw(_LINE_END)
    label = _label(keep_cr=end == "\n")
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    objects = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    attributes = draw(st.lists(label, min_size=m, max_size=m, unique=True))
    matrix = draw(st.lists(st.text(alphabet=".X", min_size=m, max_size=m), min_size=n, max_size=n))
    declared = draw(st.sampled_from([n, n, n, n + 1]))
    return _file(draw, end, ["B", "", str(declared), str(m), "", *objects, *attributes, *matrix])


@st.composite
def csv_text(draw):
    """A header of two distinct names, then rows of mostly numeric cells,
    each led by a label when ``--label-column`` is drawn.  No line break
    sits inside a quoted field."""
    end = draw(_LINE_END)
    label_column = draw(st.booleans())
    header = draw(st.lists(st.sampled_from(["x", "y\u2028", "z\x85", '"v,w"']), min_size=2, max_size=2, unique=True))
    cell = st.sampled_from(["1", "2.5", "-3", '"4"', "0", "1e3", "7", "8", "x", "nan"])
    rows = draw(st.lists(st.lists(cell, min_size=2, max_size=2), min_size=1, max_size=5))
    if label_column:
        header = ["id", *header]
        rows = [[draw(_label()), *row] for row in rows]
    argv = ["pre", "discretize", "--out-format", "cxt"] + (["--label-column"] if label_column else [])
    return _file(draw, end, [",".join(r) for r in [header, *rows]]), argv, label_column


@st.composite
def rules_text(draw):
    end = draw(_LINE_END)
    record = st.fixed_dictionaries(
        {
            "premise": st.lists(_label(), max_size=2, unique=True),
            "consequent": st.lists(st.sampled_from(["c", "d\u2028", "e\x85"]), min_size=1, max_size=2, unique=True),
            "support": st.sampled_from([0, 1, 3, 5, 8, 13, 21, -1, 2.5]),
            "confidence": st.sampled_from([0.5, 1.0, 0.25, 0.75, 0.9, 0.1, 0.6, 0, 1.5]),
            "lift": st.sampled_from([0.0, 1.25, 2.0, 1.0, 0.5, 3.0, 1.5, -1]),
            "conviction": st.sampled_from([None, 0.5, 2.0, 1.0, None, 3.0, 1.5, -1]),
        }
    )
    ensure_ascii = draw(st.booleans())
    lines = draw(st.lists(record.map(lambda r: json.dumps(r, ensure_ascii=ensure_ascii)), max_size=3))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@given(tab_text())
def test_cli_reads_tab_as_library(text):
    _cli_matches_library(".tab", text, ["pre", "convert", "--out-format", "cxt"], lambda t: write_cxt(parse_tab(t)))


@given(cxt_text())
def test_cli_reads_cxt_as_library(text):
    _cli_matches_library(".cxt", text, ["pre", "convert", "--out-format", "cxt"], lambda t: write_cxt(parse_cxt(t)))


@given(csv_text())
def test_cli_reads_csv_as_library(drawn):
    text, argv, label_column = drawn
    _cli_matches_library(".csv", text, argv, lambda t: write_cxt(discretize(parse_csv(t, label_column), BinningSpec())))


@given(rules_text())
def test_cli_reads_rules_jsonl_as_library(text):
    _cli_matches_library(
        ".jsonl", text, ["post", "filter"], lambda t: "".join(line + "\n" for line in render_rules_jsonl(parse_rules_jsonl(t)))
    )
