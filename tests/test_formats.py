import re

import pytest

from galmine import BinaryContext, ConstraintError, ParseError, parse_cxt, parse_tab, write_cxt, write_tab

from conftest import K4_TAB

K4_CXT = "B\n\n4\n4\n\no1\no2\no3\no4\na\nb\nc\nd\nXXX.\nXX..\nX.XX\n.XX.\n"


def test_parse_tab_basic():
    ctx = parse_tab("a b\nb\n")
    assert ctx.n_objects == 2
    assert ctx.attribute_labels == ("a", "b")
    assert ctx.rows == ((0, 1), (1,))


def test_parse_tab_comments_and_blanks():
    ctx = parse_tab("# c\n\na\n")
    assert ctx.n_objects == 1
    assert ctx.attribute_labels == ("a",)


def test_parse_tab_first_appearance_order():
    ctx = parse_tab("z y\nx z\n")
    assert ctx.attribute_labels == ("z", "y", "x")


def test_parse_tab_duplicate_tokens_collapse():
    ctx = parse_tab("a a b\n")
    assert ctx.rows == ((0, 1),)


def test_parse_tab_empty_input():
    with pytest.raises(ParseError):
        parse_tab("")
    with pytest.raises(ParseError):
        parse_tab("# only comments\n\n")


def test_parse_tab_only_cr_and_lf_end_lines():
    ctx = parse_tab("a\x85b\n")
    assert ctx.n_objects == 1
    assert ctx.attribute_labels == ("a", "b")
    assert parse_tab("a\u2028b\x1cc\n").rows == ((0, 1, 2),)


def test_parse_tab_cr_and_crlf_line_ends(k4):
    assert parse_tab(K4_TAB.replace("\n", "\r\n")) == k4
    assert parse_tab(K4_TAB.replace("\n", "\r")) == k4
    assert parse_tab("a\r\n\r\nb\r").rows == ((0,), (1,))


def test_parse_tab_k4(k4):
    assert k4.stats().ones == 10
    assert k4.stats().density == 0.625


def test_parse_tab_long_line_ok():
    tokens = " ".join(f"t{i}" for i in range(5000))
    ctx = parse_tab(tokens + "\n")
    assert ctx.n_attributes == 5000


def test_write_tab_roundtrip(k4):
    assert parse_tab(write_tab(k4)) == k4
    assert write_tab(k4) == K4_TAB


def test_write_tab_unrepresentable():
    ctx = BinaryContext(["o1"], ["a b"], [{0}])
    with pytest.raises(ConstraintError):
        write_tab(ctx)
    empty_row = BinaryContext(["o1"], ["a"], [set()])
    with pytest.raises(ConstraintError):
        write_tab(empty_row)


def test_cxt_k4(k4):
    assert write_cxt(k4) == K4_CXT
    assert parse_cxt(K4_CXT) == k4


def test_cxt_roundtrip_canonical():
    assert write_cxt(parse_cxt(K4_CXT)) == K4_CXT


def test_cxt_zero_attributes():
    ctx = BinaryContext(["o1", "o2"], [], [set(), set()])
    text = write_cxt(ctx)
    assert text == "B\n\n2\n0\n\no1\no2\n\n\n"
    assert parse_cxt(text) == ctx


def test_cxt_empty_rows_roundtrip():
    ctx = BinaryContext(["o1", "o2"], ["a"], [set(), {0}])
    assert parse_cxt(write_cxt(ctx)) == ctx


def test_cxt_bad_matrix_char():
    # "0", "1", " ", "_", "+" and the Arabic-Indic digit one are read by int(..., 2)
    for ch in ("x", "0", "1", " ", "_", "+", "\u0661"):
        bad = K4_CXT.replace("XX..", f"X{ch}..")
        message = f"CXT matrix line 2 contains invalid character {ch!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_cxt(bad)


def test_cxt_count_mismatch():
    bad = "B\n\n2\n1\n\no1\no2\na\nX\n"  # declares 2 objects, one matrix line
    with pytest.raises(ParseError):
        parse_cxt(bad)


def test_cxt_bad_header():
    with pytest.raises(ParseError):
        parse_cxt("C\n\n1\n1\n\no1\na\nX\n")


def test_cxt_wrong_matrix_width():
    bad = "B\n\n1\n2\n\no1\na\nb\nX\n"
    with pytest.raises(ParseError):
        parse_cxt(bad)


def test_cxt_duplicate_names():
    bad = "B\n\n2\n1\n\no1\no1\na\nX\nX\n"
    with pytest.raises(ParseError):
        parse_cxt(bad)


def test_cxt_crlf_line_ends(k4):
    assert parse_cxt(K4_CXT.replace("\n", "\r\n")) == k4


def test_cxt_lf_keeps_carriage_return_in_label():
    ctx = parse_cxt("B\n\n1\n1\n\no1\r\na\nX\n")
    assert ctx.object_labels == ("o1\r",)


def test_cxt_utf8_bom(k4):
    assert parse_cxt("\ufeff" + K4_CXT) == k4
    assert parse_cxt("\ufeff" + K4_CXT.replace("\n", "\r\n")) == k4


def test_parse_tab_utf8_bom(k4):
    assert parse_tab("\ufeff" + K4_TAB) == k4


def test_write_tab_refuses_bom_leading_label():
    # parse_tab would strip it as the file's BOM
    with pytest.raises(ConstraintError):
        write_tab(BinaryContext(["o1"], ["\ufeffa"], [{0}]))
