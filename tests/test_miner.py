import pytest

from galmine import (
    BinaryContext,
    ConstraintError,
    mine_closed,
    mine_equivalence_classes,
    mine_frequent,
    mine_generators,
    mine_minimal_rare,
    resolve_minsup,
)
from galmine.miner import (
    STRATEGIES,
    _STRATEGY_TABLES,
    EquivalenceClass,
    _mine_class_list,
    render_itemsets_jsonl,
    render_itemsets_text,
)

import oracle
from conftest import seeded_corpus

# ids: a=0 b=1 c=2 d=3


def as_pairs(sets):
    return [(s.items, s.support) for s in sets]


def test_resolve_minsup():
    assert resolve_minsup(2, 4) == 2
    assert resolve_minsup(0.5, 4) == 2
    assert resolve_minsup(0.05, 4) == 1  # ceil(0.2)
    assert resolve_minsup(1.0, 4) == 4
    assert resolve_minsup(0.26, 4) == 2  # ceil(1.04)


@pytest.mark.parametrize("bad", [0, -1, 0.0, 1.5, -0.2, "2", None, True])
def test_resolve_minsup_invalid(bad):
    with pytest.raises(ConstraintError):
        resolve_minsup(bad, 4)


def test_resolve_minsup_empty_context_relative():
    with pytest.raises(ConstraintError):
        resolve_minsup(0.5, 0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_frequent_k4_minsup2(k4, strategy):
    fi = mine_frequent(k4, 2, strategy=strategy)
    assert as_pairs(fi) == [
        ((0,), 3),
        ((1,), 3),
        ((2,), 3),
        ((0, 1), 2),
        ((0, 2), 2),
        ((1, 2), 2),
    ]
    assert all(s.is_closed and s.is_generator for s in fi)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_frequent_k4_minsup1_count(k4, strategy):
    # oracle-verified count of non-zero-support itemsets
    assert len(mine_frequent(k4, 1, strategy=strategy)) == 11


def test_frequent_above_n_empty(k4):
    assert mine_frequent(k4, 5) == []


def test_frequent_relative_threshold(k4):
    assert as_pairs(mine_frequent(k4, 0.5)) == as_pairs(mine_frequent(k4, 2))


def test_frequent_unknown_strategy(k4):
    with pytest.raises(ConstraintError):
        mine_frequent(k4, 2, strategy="bogus")


def test_closed_k4(k4):
    assert [s.items for s in mine_closed(k4, 2)] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert [s.items for s in mine_closed(k4, 1)] == [
        (0,),
        (1,),
        (2,),
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 1, 2),
        (0, 2, 3),
    ]
    assert all(s.is_closed for s in mine_closed(k4, 1))


def test_closed_subset_of_frequent(k4):
    fi = set(as_pairs(mine_frequent(k4, 1)))
    assert set(as_pairs(mine_closed(k4, 1))) <= fi


def test_generators_k4(k4):
    assert [s.items for s in mine_generators(k4, 1)] == [
        (0,),
        (1,),
        (2,),
        (3,),
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 1, 2),
    ]
    assert [s.items for s in mine_generators(k4, 2)] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert all(s.is_generator for s in mine_generators(k4, 1))


def test_full_support_singleton_not_generator():
    ctx = BinaryContext(["o1", "o2"], ["a", "b"], [{0, 1}, {0}])
    gens = {s.items for s in mine_generators(ctx, 1)}
    assert (0,) not in gens  # support(a) = N = support of the empty set
    assert (1,) in gens


def test_equivalence_classes_k4(k4):
    classes = mine_equivalence_classes(k4, 1)
    assert [(c.closed_set, c.support, c.generators) for c in classes] == [
        ((0,), 3, ((0,),)),
        ((1,), 3, ((1,),)),
        ((2,), 3, ((2,),)),
        ((0, 1), 2, ((0, 1),)),
        ((0, 2), 2, ((0, 2),)),
        ((1, 2), 2, ((1, 2),)),
        ((0, 1, 2), 1, ((0, 1, 2),)),
        ((0, 2, 3), 1, ((3,),)),
    ]


def test_equivalence_classes_k4_minsup2_singletons(k4):
    classes = mine_equivalence_classes(k4, 2)
    assert len(classes) == 6
    assert all(c.generators == (c.closed_set,) for c in classes)


def test_equivalence_class_of_empty_closure():
    # attribute "a" is full, so closure(∅) = {a} and its class is generated by ∅
    ctx = BinaryContext(["o1", "o2"], ["a", "b"], [{0, 1}, {0}])
    classes = mine_equivalence_classes(ctx, 1)
    top = [c for c in classes if c.closed_set == (0,)]
    assert top and top[0].generators == ((),)
    assert top[0].support == 2
    # every frequent itemset contains a generator of its class
    table = {s.items: s for s in mine_frequent(ctx, 1)}
    for items in table:
        cls = next(c for c in classes if set(items) <= set(c.closed_set) and c.support == table[items].support)
        assert any(set(g) <= set(items) for g in cls.generators)


def test_minimal_rare_k4(k4):
    assert as_pairs(mine_minimal_rare(k4, 2)) == [((3,), 1), ((0, 1, 2), 1)]
    assert as_pairs(mine_minimal_rare(k4, 1)) == [((1, 3), 0)]


def test_minimal_rare_antichain(k4):
    for ms in (1, 2, 3, 4):
        mri = [set(s.items) for s in mine_minimal_rare(k4, ms)]
        for x in mri:
            for y in mri:
                assert x == y or not x <= y


def test_minimal_rare_above_n(k4):
    assert mine_minimal_rare(k4, 5) == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_match_oracle_on_corpus(strategy):
    for ctx in seeded_corpus(30, max_objects=8, max_attributes=6):
        rows = [frozenset(r) for r in ctx.rows]
        for minsup in (1, 2):
            got = {s.items: s.support for s in mine_frequent(ctx, minsup, strategy=strategy)}
            want = {tuple(sorted(s)): n for s, n in oracle.frequent(rows, ctx.n_attributes, minsup).items()}
            assert got == want


def test_families_match_oracle_on_corpus():
    for ctx in seeded_corpus(30, max_objects=8, max_attributes=6):
        rows = [frozenset(r) for r in ctx.rows]
        m = ctx.n_attributes
        for minsup in (1, 2):
            assert {s.items: s.support for s in mine_closed(ctx, minsup)} == {
                tuple(sorted(s)): n for s, n in oracle.closed_frequent(rows, m, minsup).items()
            }
            assert {s.items: s.support for s in mine_generators(ctx, minsup)} == {
                tuple(sorted(s)): n for s, n in oracle.generators(rows, m, minsup).items()
            }
            assert {s.items: s.support for s in mine_minimal_rare(ctx, minsup)} == {
                tuple(sorted(s)): n for s, n in oracle.minimal_rare(rows, m, minsup).items()
            }


def test_flags_match_oracle_on_corpus():
    for ctx in seeded_corpus(20, max_objects=8, max_attributes=5):
        rows = [frozenset(r) for r in ctx.rows]
        m = ctx.n_attributes
        closed = set(oracle.closed_frequent(rows, m, 1))
        gens = set(oracle.generators(rows, m, 1))
        for s in mine_frequent(ctx, 1):
            assert s.is_closed == (frozenset(s.items) in closed)
            assert s.is_generator == (frozenset(s.items) in gens)


def test_classes_match_oracle_on_corpus():
    for ctx in seeded_corpus(20, max_objects=8, max_attributes=5):
        rows = [frozenset(r) for r in ctx.rows]
        m = ctx.n_attributes
        want = oracle.equivalence_classes(rows, m, 1)
        got = mine_equivalence_classes(ctx, 1)
        assert {c.closed_set for c in got} == {tuple(sorted(c)) for c in want}
        for c in got:
            supp, gens = want[frozenset(c.closed_set)]
            assert c.support == supp
            assert [set(g) for g in c.generators] == [set(g) for g in gens]


def _canonical(sets):
    return sorted(sets, key=lambda s: (len(s), s))


def test_class_list_records_in_closed_set_order():
    """The class walk resolves its own threshold and returns class records
    and minimal rare sets, each ordered by (size, id-lex)."""
    for ctx in seeded_corpus(40):
        for minsup in (1, 2, 0.3):
            classes, rare = _mine_class_list(ctx, minsup)
            assert all(type(c) is EquivalenceClass for c in classes)
            closed = [c.closed_set for c in classes]
            assert closed == _canonical(closed)
            assert [items for items, _ in rare] == _canonical(items for items, _ in rare)
            assert sorted(classes, key=lambda c: (-c.support, c.closed_set)) == mine_equivalence_classes(ctx, minsup)
            assert (classes, rare) == _mine_class_list(ctx, resolve_minsup(minsup, ctx.n_objects))


def test_class_list_k4_closed_set_order(k4):
    # the walk meets generator d, of closed set acd, before ab and ac
    classes, rare = _mine_class_list(k4, 1)
    assert [(c.closed_set, c.generators, c.support) for c in classes] == [
        ((0,), ((0,),), 3),
        ((1,), ((1,),), 3),
        ((2,), ((2,),), 3),
        ((0, 1), ((0, 1),), 2),
        ((0, 2), ((0, 2),), 2),
        ((1, 2), ((1, 2),), 2),
        ((0, 1, 2), ((0, 1, 2),), 1),
        ((0, 2, 3), ((3,),), 1),
    ]
    assert rare == [((1, 3), 0)]


def test_strategies_are_the_strategy_tables():
    assert STRATEGIES == tuple(_STRATEGY_TABLES) == ("levelwise", "dfs", "hybrid")


def test_render_itemsets(k4):
    sets = mine_frequent(k4, 2)
    text = render_itemsets_text(sets, k4.attribute_labels)
    assert text[0] == "a (3)"
    assert text[3] == "a b (2)"
    import json

    rec = json.loads(render_itemsets_jsonl(sets, k4.attribute_labels)[3])
    assert rec == {"items": ["a", "b"], "support": 2, "closed": True, "generator": True}
