"""Parser fuzzing: on any text the four parsers either return or raise
ParseError.

Then the CLI against the library: a file of UTF-8 bytes with one
consistent line end gives the CLI exactly the library's output, or exit
2 exactly when the library parser raises ParseError.  The output of
each writing ``pre`` command, read back by ``galmine stats``, gives the
library's stats of the same transform, or the command exits 3 as the
library refuses."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galmine import (
    BinaryContext,
    BinningSpec,
    GalmineError,
    ParseError,
    discretize,
    parse_csv,
    parse_cxt,
    parse_tab,
    write_cxt,
)
from galmine.preprocess import write_context
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
    _only_parse_errors(lambda t: parse_csv(t, has_label_column=has_label_column), text)


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


# -- the writing commands give what the library gives --------------------------

_CONTEXT_TEXT = st.one_of(
    tab_text().map(lambda text: (".tab", parse_tab, text)),
    cxt_text().map(lambda text: (".cxt", parse_cxt, text)),
)
_OUT_FORMAT = st.sampled_from(["tab", "cxt"])


def _stats_record(ctx) -> dict:
    """What ``galmine stats --format json`` prints for ``ctx``."""
    stats = ctx.stats()
    return {
        "objects": stats.n_objects,
        "attributes": stats.n_attributes,
        "ones": stats.ones,
        "density": stats.density,
        "attribute_supports": dict(zip(ctx.attribute_labels, stats.attribute_supports)),
    }


def _pre_reads_back_as_library(suffix, text, argv, library, out_format):
    """Run ``galmine *argv --out-format F FILE`` on ``text`` and read its
    output back with ``galmine stats``: the stats of ``library(text)``
    (without its empty columns in TAB, which cannot hold them).  Exit 2
    exactly when the library raises ParseError, and 3 when it raises any
    other GalmineError, its writer's refusals included."""
    try:
        ctx = library(text)
        write_context(ctx, out_format)
        expected = 0
    except ParseError:
        expected = 2
    except GalmineError:
        expected = 3
    with tempfile.TemporaryDirectory() as tmp:
        path, output = Path(tmp) / ("input" + suffix), Path(tmp) / "output"
        path.write_bytes(text.encode("utf-8"))
        code, out = cli_bytes([*argv, "--out-format", out_format, str(path)])
        assert code == expected
        if code:
            assert out == b""
            return
        output.write_bytes(out)
        code, stats = cli_bytes(["stats", "--format", "json", "--in-format", out_format, str(output)])
    assert code == 0
    assert json.loads(stats) == _stats_record(ctx if out_format == "cxt" else ctx.project(min_column_support=1))


_TRANSFORMS = {"transpose": BinaryContext.transpose, "complement": BinaryContext.complement, "convert": lambda ctx: ctx}


@pytest.mark.parametrize("command", _TRANSFORMS)
@given(drawn=_CONTEXT_TEXT, out_format=_OUT_FORMAT)
def test_cli_pre_reads_back_as_library(command, drawn, out_format):
    suffix, parse, text = drawn
    transform = _TRANSFORMS[command]
    _pre_reads_back_as_library(suffix, text, ["pre", command], lambda t: transform(parse(t)), out_format)


# labels as ``--keep-*`` takes them: comma-separated, none empty
_KEEP = st.none() | st.lists(st.one_of(_label().filter(bool), st.sampled_from(["o1", "o2", "a", "b"])), max_size=3)


@given(drawn=_CONTEXT_TEXT, out_format=_OUT_FORMAT, objects=_KEEP, attributes=_KEEP, support=st.none() | st.integers(0, 3))
def test_cli_pre_project_reads_back_as_library(drawn, out_format, objects, attributes, support):
    suffix, parse, text = drawn
    argv = ["pre", "project"]
    for flag, labels in (("--keep-objects", objects), ("--keep-attributes", attributes)):
        if labels is not None:
            argv += [flag, ",".join(labels)]
    if support is not None:
        argv += ["--min-col-support", str(support)]
    library = lambda t: parse(t).project(objects, attributes, support)
    _pre_reads_back_as_library(suffix, text, argv, library, out_format)


@st.composite
def numeric_csv_text(draw):
    """A header of one to three distinct names, then rows of numbers, each
    led by a label (which may repeat) when ``--label-column`` is drawn."""
    end = draw(_LINE_END)
    label_column = draw(st.booleans())
    header = draw(st.lists(st.sampled_from(["x", "y", "z\u2028", '"v,w"']), min_size=1, max_size=3, unique=True))
    cell = st.sampled_from(["1", "2.5", "-3", "0", "1e3", "7"])
    rows = draw(st.lists(st.lists(cell, min_size=len(header), max_size=len(header)), min_size=1, max_size=5))
    if label_column:
        header = ["id", *header]
        rows = [[draw(_label()), *row] for row in rows]
    return _file(draw, end, [",".join(r) for r in [header, *rows]]), label_column


_CSV_TEXT = st.one_of(numeric_csv_text(), csv_text().map(lambda drawn: (drawn[0], drawn[2])))


@given(drawn=_CSV_TEXT, out_format=_OUT_FORMAT, bins=st.integers(1, 3), binning=st.sampled_from(["width", "freq"]))
def test_cli_pre_discretize_reads_back_as_library(drawn, out_format, bins, binning):
    text, label_column = drawn
    argv = ["pre", "discretize", "--bins", str(bins), "--binning", binning] + (["--label-column"] if label_column else [])
    library = lambda t: discretize(parse_csv(t, label_column), BinningSpec(binning, bins))
    _pre_reads_back_as_library(".csv", text, argv, library, out_format)
