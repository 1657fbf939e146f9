import pytest

from galmine import BinningSpec, ConstraintError, NumericTable, ParseError, discretize, parse_csv
from galmine.preprocess import convert, parse_context, write_context

from conftest import K4_TAB


def test_parse_csv_single_column():
    t = parse_csv("x\n1\n2\n")
    assert t.column_names == ("x",)
    assert t.rows == ((1.0,), (2.0,))
    assert t.object_labels == ("o1", "o2")


def test_parse_csv_label_column():
    t = parse_csv("id,x\no1,1.5\n", has_label_column=True)
    assert t.object_labels == ("o1",)
    assert t.rows == ((1.5,),)


def test_parse_csv_utf8_bom():
    assert parse_csv("\ufeffx,y\n1,2\n") == parse_csv("x,y\n1,2\n")
    t = parse_csv("\ufeffid,x\r\no1,1\r\n", has_label_column=True)
    assert t.column_names == ("x",)
    assert t.object_labels == ("o1",)


def test_parse_csv_non_numeric():
    with pytest.raises(ParseError, match=r"row 1.*column x"):
        parse_csv("x\nfoo\n")


def test_parse_csv_ragged():
    with pytest.raises(ParseError):
        parse_csv("x,y\n1\n")


def test_parse_csv_empty():
    with pytest.raises(ParseError):
        parse_csv("")


def test_parse_csv_non_finite():
    with pytest.raises(ParseError):
        parse_csv("x\ninf\n")


def test_parse_csv_repeated_names():
    with pytest.raises(ParseError, match="^CSV header repeats the column name 'x'$"):
        parse_csv("x,y,x\n1,2,3\n")
    with pytest.raises(ParseError, match="^row 3 repeats the object label 'r'$"):
        parse_csv("id,x\nr,1\n\nr,2\n", has_label_column=True)
    # the label column's name is not a data column
    assert parse_csv("x,x\nr,1\n", has_label_column=True).column_names == ("x",)


def test_numeric_table_validation():
    with pytest.raises(ConstraintError):
        NumericTable(("x", "x"), ((1.0,),), ("o1",))
    with pytest.raises(ConstraintError):
        NumericTable(("x",), ((1.0, 2.0),), ("o1",))


def test_binning_spec_validation():
    with pytest.raises(ConstraintError):
        BinningSpec(strategy="nope")
    with pytest.raises(ConstraintError):
        BinningSpec(bin_count=0)


def _table(values):
    return NumericTable(("x",), tuple((v,) for v in values), tuple(f"o{i+1}" for i in range(len(values))))


def test_discretize_equal_width_midpoint():
    ctx = discretize(_table([1, 2, 3, 4]), BinningSpec("width", 2))
    assert ctx.attribute_labels == ("x[1.0;2.5)", "x[2.5;4.0]")
    assert ctx.rows == ((0,), (0,), (1,), (1,))


def test_discretize_equal_frequency_median():
    ctx = discretize(_table([1, 2, 3, 4]), BinningSpec("freq", 2))
    assert ctx.rows == ((0,), (0,), (1,), (1,))


@pytest.mark.parametrize("values", [[-1e308, 1e308, 0.0], [0.0, 5e-324]], ids=["range-overflows", "width-underflows"])
def test_discretize_equal_width_refuses_a_range_without_finite_width(values):
    with pytest.raises(ConstraintError, match=r"^cannot split column 'x' \(.+\) into 2 equal-width bins$"):
        discretize(_table(values), BinningSpec("width", 2))
    assert discretize(_table(values), BinningSpec("freq", 2)).n_attributes == 2


def test_discretize_equal_width_extreme_finite_ranges():
    ctx = discretize(_table([-8e307, 8e307, 0.0]), BinningSpec("width", 2))
    assert (ctx.attribute_labels, ctx.rows) == (("x[-8e+307;0.0)", "x[0.0;8e+307]"), ((0,), (1,), (1,)))
    ctx = discretize(_table([0.0, 1e-323, 5e-324]), BinningSpec("width", 2))
    assert (ctx.attribute_labels, ctx.rows) == (("x[0.0;5e-324)", "x[5e-324;1e-323]"), ((0,), (1,), (1,)))


def test_discretize_constant_column_collapses():
    ctx = discretize(_table([5, 5, 5]), BinningSpec("width", 3))
    assert ctx.n_attributes == 1
    assert all(r == (0,) for r in ctx.rows)
    ctx = discretize(_table([5, 5, 5]), BinningSpec("freq", 3))
    assert ctx.n_attributes == 1


def test_discretize_partition_property():
    table = NumericTable(
        ("x", "y"),
        ((1.0, 10.0), (2.0, 20.0), (3.0, 15.0), (9.0, 11.0)),
        ("o1", "o2", "o3", "o4"),
    )
    for strategy in ("width", "freq"):
        for bins in (1, 2, 3, 4):
            ctx = discretize(table, BinningSpec(strategy, bins))
            assert ctx.n_attributes <= 2 * bins
            for row in ctx.rows:
                per_col = {"x": 0, "y": 0}
                for j in row:
                    per_col[ctx.attribute_labels[j].split("[")[0]] += 1
                assert per_col == {"x": 1, "y": 1}


def test_discretize_equal_frequency_ties_to_lower_bin():
    # cut for bin 1 of [1,1,2,2] at the 2nd order statistic = 1
    ctx = discretize(_table([1, 1, 2, 2]), BinningSpec("freq", 2))
    assert ctx.rows == ((0,), (0,), (1,), (1,))
    # all values equal to the first cut go low even beyond the even split
    ctx = discretize(_table([1, 1, 1, 2]), BinningSpec("freq", 2))
    assert ctx.rows == ((0,), (0,), (0,), (1,))


def test_discretize_distinct_values_own_bins():
    ctx = discretize(_table([3, 1, 2]), BinningSpec("freq", 3))
    assert ctx.n_attributes == 3
    assert ctx.rows == ((2,), (0,), (1,))


def test_discretize_empty_table():
    with pytest.raises(ConstraintError):
        discretize(NumericTable(("x",), (), ()), BinningSpec())


def test_discretize_cost_does_not_grow_with_bin_count():
    # only the occupied bins get edges: a per-bin list of 10**12 would not fit in memory
    ctx = discretize(_table([1, 2, 3]), BinningSpec("width", 10**12))
    assert ctx.attribute_labels == ("x[1.0;1.000000000002)", "x[2.0;2.000000000002)", "x[2.999999999998;3.0]")
    assert ctx.rows == ((0,), (1,), (2,))
    ctx = discretize(_table([3, 1, 2, 1]), BinningSpec("freq", 10**12))
    assert ctx.attribute_labels == ("x[1.0;1.0)", "x[1.0;2.0)", "x[2.0;3.0]")
    assert ctx.rows == ((2,), (0,), (1,), (0,))


def test_discretize_max_value_kept():
    ctx = discretize(_table([0, 10]), BinningSpec("width", 5))
    assert sum(len(r) for r in ctx.rows) == 2


def test_convert_roundtrip(tmp_path):
    src = tmp_path / "k4.tab"
    src.write_text(K4_TAB)
    cxt_text = convert(str(src), "tab", "cxt")
    dst = tmp_path / "k4.cxt"
    dst.write_text(cxt_text)
    back = convert(str(dst), "cxt", "tab")
    assert back == K4_TAB
    assert len(cxt_text.splitlines()) == 5 + 4 + 4 + 4  # header block + names + matrix
    assert convert(str(src), "tab", "tab") == K4_TAB  # canonicalizing identity


def test_parse_write_context_dispatch():
    ctx = parse_context(K4_TAB, "tab")
    assert write_context(ctx, "tab") == K4_TAB
    with pytest.raises(ConstraintError):
        parse_context(K4_TAB, "xml")
    with pytest.raises(ConstraintError):
        write_context(ctx, "xml")


def test_parse_csv_field_over_csv_limit():
    with pytest.raises(ParseError, match="line 2"):
        parse_csv("a,b\n" + "1" * 131_073 + ",2\n")


def test_parse_csv_cr_line_ends():
    assert parse_csv("a,b\r1,2\r3,4\r") == parse_csv("a,b\n1,2\n3,4\n")


def test_parse_csv_lone_cr_inside_row():
    # a lone CR ends the row, as the csv module's newline="" mode has it
    with pytest.raises(ParseError, match="row 1 has 1 data cells, expected 2"):
        parse_csv("a,b\n1\r2,3\n")
