import pytest

from galmine import BinaryContext, ConstraintError, UnknownLabelError

import oracle


def test_k4_shape(k4):
    assert k4.object_labels == ("o1", "o2", "o3", "o4")
    assert k4.attribute_labels == ("a", "b", "c", "d")
    assert k4.rows == ((0, 1, 2), (0, 1), (0, 2, 3), (1, 2))


def test_duplicate_labels_rejected():
    with pytest.raises(ConstraintError):
        BinaryContext(["o1", "o1"], ["a"], [{0}, {0}])
    with pytest.raises(ConstraintError):
        BinaryContext(["o1"], ["a", "a"], [{0}])


def test_out_of_range_attribute_rejected():
    for bad in (1, -1):
        with pytest.raises(ConstraintError, match="^attribute id out of range in row 0$"):
            BinaryContext(["o1"], ["a"], [{bad}])


def test_duplicate_rows_allowed():
    ctx = BinaryContext(["o1", "o2"], ["a", "b"], [{0}, {0}])
    assert ctx.rows == ((0,), (0,))


def test_extent(k4):
    assert k4.extent((0,)) == (0, 1, 2)
    assert k4.extent(()) == (0, 1, 2, 3)
    assert k4.extent((1, 3)) == ()


def test_intent(k4):
    assert k4.intent((0, 3)) == (1, 2)
    assert k4.intent((0, 1, 2, 3)) == ()
    assert k4.intent(()) == (0, 1, 2, 3)


@pytest.mark.parametrize("tids", [(4,), (-1,), (0, 9)])
def test_intent_out_of_range_raises(k4, tids):
    with pytest.raises(ValueError, match="object id out of range"):
        k4.intent(tids)


def test_closure(k4):
    assert k4.closure((3,)) == (0, 2, 3)
    assert k4.closure((0, 1)) == (0, 1)
    assert k4.closure((1, 3)) == (0, 1, 2, 3)  # empty extent -> full attribute set


def test_support(k4):
    assert k4.support((0,)) == 3
    assert k4.support(()) == 4
    assert k4.support((0, 1, 2)) == 1


def test_support_matches_oracle(k4):
    rows = [frozenset(r) for r in k4.rows]
    for items, expected in oracle.all_supports(rows, 4).items():
        assert k4.support(tuple(sorted(items))) == expected


def test_transpose(k4):
    t = k4.transpose()
    assert t.object_labels == ("a", "b", "c", "d")
    assert t.attribute_labels == ("o1", "o2", "o3", "o4")
    assert t.rows[0] == (0, 1, 2)  # row "a" = objects o1 o2 o3
    assert t.transpose() == k4


def test_complement(k4):
    c = k4.complement()
    assert c.rows[1] == (2, 3)  # o2 = {a,b} -> {c,d}
    assert c.complement() == k4
    assert c.stats().density == pytest.approx(1 - k4.stats().density)


def test_project_attributes(k4):
    p = k4.project(keep_attributes={"a", "b"})
    assert p.attribute_labels == ("a", "b")
    assert p.rows == ((0, 1), (0, 1), (0,), (1,))


def test_project_min_column_support(k4):
    p = k4.project(min_column_support=2)
    assert p.attribute_labels == ("a", "b", "c")


def test_project_identity(k4):
    assert k4.project(keep_objects=k4.object_labels, keep_attributes=k4.attribute_labels) == k4
    assert k4.project() == k4


def test_project_object_restriction_before_column_support(k4):
    # restricted to o1/o2, column c drops to support 1
    p = k4.project(keep_objects={"o1", "o2"}, min_column_support=2)
    assert p.attribute_labels == ("a", "b")


def test_project_unknown_label(k4):
    with pytest.raises(UnknownLabelError):
        k4.project(keep_attributes={"z"})
    with pytest.raises(UnknownLabelError):
        k4.project(keep_objects={"o9"})


def test_project_names_first_unknown_label_in_order_given(k4):
    with pytest.raises(UnknownLabelError, match="^unknown object label: 'zz'$"):
        k4.project(keep_objects=["o1", "zz", "yy", "xx", "ww"])
    with pytest.raises(UnknownLabelError, match="^unknown attribute label: 'y'$"):
        k4.project(keep_attributes=iter(["a", "y", "x"]))


def test_label_index(k4):
    assert (k4.attribute_index("c"), k4.object_index("o4")) == (2, 3)
    with pytest.raises(UnknownLabelError, match="^unknown attribute label: 'z'$"):
        k4.attribute_index("z")
    with pytest.raises(UnknownLabelError, match="^unknown object label: 'o9'$"):
        k4.object_index("o9")


def test_stats(k4):
    s = k4.stats()
    assert (s.n_objects, s.n_attributes, s.ones) == (4, 4, 10)
    assert s.density == 0.625
    assert s.attribute_supports == (3, 3, 3, 1)


def test_stats_degenerate():
    empty = BinaryContext([], ["a"], [])
    assert empty.stats().density == 0.0
    full = BinaryContext(["o1", "o2"], ["a", "b"], [{0, 1}, {0, 1}])
    assert full.stats().density == 1.0


def test_context_immutable(k4):
    with pytest.raises(AttributeError):
        k4.object_labels = ()
