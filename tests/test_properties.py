"""Cross-module invariants checked with hypothesis over small random
contexts, with the brute-force oracle as the independent reference."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from galmine import (
    BinaryContext,
    Concept,
    ConstraintError,
    MinedSet,
    all_rules,
    build_lattice,
    closed_rules,
    duquenne_guigues,
    export_json,
    generic_basis,
    mine_closed,
    mine_equivalence_classes,
    mine_frequent,
    mine_generators,
    mine_minimal_rare,
    mnr_rules,
    parse_cxt,
    parse_tab,
    rare_rules,
    write_cxt,
    write_tab,
)
from galmine.context import _split_lines
from galmine.miner import STRATEGIES, render_itemsets_jsonl
from galmine.rules import parse_rules_jsonl, render_rules_jsonl

import oracle


# labels a writer may have to refuse: line ends, whitespace, "#", U+2028 and a BOM
_LABEL = st.text(alphabet="ab#. \t\n\r\u2028\ufeff", max_size=3)


@st.composite
def contexts(draw, max_objects=8, max_attributes=6, min_objects=0, label=None):
    """Labels ``o1``, ``a1``, ... or, with ``label``, distinct drawn ones."""
    n = draw(st.integers(min_objects, max_objects))
    m = draw(st.integers(0, max_attributes))
    rows = [draw(st.sets(st.integers(0, m - 1))) if m else set() for _ in range(n)]
    if label is None:
        return BinaryContext([f"o{i + 1}" for i in range(n)], [f"a{j + 1}" for j in range(m)], rows)
    objects = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    return BinaryContext(objects, draw(st.lists(label, min_size=m, max_size=m, unique=True)), rows)


@st.composite
def context_and_itemset(draw):
    ctx = draw(contexts(min_objects=0))
    items = draw(st.sets(st.integers(0, ctx.n_attributes - 1))) if ctx.n_attributes else set()
    return ctx, tuple(sorted(items))


@given(context_and_itemset())
def test_closure_is_extensive_and_idempotent(pair):
    ctx, x = pair
    cx = ctx.closure(x)
    assert set(x) <= set(cx)
    assert ctx.closure(cx) == cx


@given(context_and_itemset(), st.sets(st.integers(0, 5)))
def test_closure_is_monotone_and_support_anti_monotone(pair, extra):
    ctx, x = pair
    y = tuple(sorted(set(x) | {e for e in extra if e < ctx.n_attributes}))
    assert set(ctx.closure(x)) <= set(ctx.closure(y))
    assert ctx.support(x) >= ctx.support(y)


@given(context_and_itemset())
def test_support_of_closure_equals_support(pair):
    ctx, x = pair
    assert ctx.support(x) == ctx.support(ctx.closure(x))


@given(contexts(max_objects=6, max_attributes=5))
def test_galois_duality(ctx):
    for x_mask in range(1 << ctx.n_attributes):
        x = tuple(j for j in range(ctx.n_attributes) if x_mask >> j & 1)
        ext = set(ctx.extent(x))
        for t_mask in range(1 << ctx.n_objects):
            t = tuple(i for i in range(ctx.n_objects) if t_mask >> i & 1)
            assert (set(t) <= ext) == (set(x) <= set(ctx.intent(t)))


@given(contexts())
def test_involutions(ctx):
    t = ctx.transpose()
    assert t.column_masks == BinaryContext(t.object_labels, t.attribute_labels, t.rows).column_masks
    assert t.transpose() == ctx
    assert ctx.complement().complement() == ctx
    assert ctx.project(keep_objects=ctx.object_labels, keep_attributes=ctx.attribute_labels) == ctx


@given(contexts(label=_LABEL))
def test_cxt_roundtrip(ctx):
    """``write_cxt`` refuses exactly the labels holding a line feed, and
    ``parse_cxt`` reads back everything else."""
    try:
        text = write_cxt(ctx)
    except ConstraintError:
        assert any("\n" in label for label in ctx.object_labels + ctx.attribute_labels)
        return
    assert parse_cxt(text) == ctx


def _label_rows(ctx):
    return [{ctx.attribute_labels[j] for j in row} for row in ctx.rows]


@given(contexts(label=_LABEL))
def test_tab_roundtrip_modulo_label_order(ctx):
    """``write_tab`` refuses, or ``parse_tab`` gives back the same rows as
    label sets (TAB carries no object labels and no empty column)."""
    try:
        text = write_tab(ctx)
    except ConstraintError:
        return
    assert _label_rows(parse_tab(text)) == _label_rows(ctx)


@given(contexts(max_objects=7, max_attributes=5), st.integers(1, 4))
@settings(max_examples=40)
def test_miners_match_oracle(ctx, minsup):
    rows = [frozenset(r) for r in ctx.rows]
    m = ctx.n_attributes
    want_fi = {tuple(sorted(s)): n for s, n in oracle.frequent(rows, m, minsup).items()}
    for strategy in STRATEGIES:
        assert {s.items: s.support for s in mine_frequent(ctx, minsup, strategy)} == want_fi
    assert {s.items: s.support for s in mine_closed(ctx, minsup)} == {
        tuple(sorted(s)): n for s, n in oracle.closed_frequent(rows, m, minsup).items()
    }
    assert {s.items: s.support for s in mine_generators(ctx, minsup)} == {
        tuple(sorted(s)): n for s, n in oracle.generators(rows, m, minsup).items()
    }
    assert {s.items: s.support for s in mine_minimal_rare(ctx, minsup)} == {
        tuple(sorted(s)): n for s, n in oracle.minimal_rare(rows, m, minsup).items()
    }


@given(contexts(max_objects=7, max_attributes=5), st.integers(1, 3))
@settings(max_examples=30)
def test_rare_cover_property(ctx, minsup):
    rows = [frozenset(r) for r in ctx.rows]
    m = ctx.n_attributes
    if minsup > ctx.n_objects:
        return
    mri = [set(s.items) for s in mine_minimal_rare(ctx, minsup)]
    for s, n in oracle.all_supports(rows, m).items():
        if s and n < minsup:
            assert any(g <= s for g in mri)


@given(contexts(max_objects=7, max_attributes=5), st.integers(1, 3))
@settings(max_examples=30)
def test_every_frequent_closure_is_mined(ctx, minsup):
    closed = {s.items for s in mine_closed(ctx, minsup)}
    for s in mine_frequent(ctx, minsup):
        assert ctx.closure(s.items) in closed


@given(contexts(max_objects=7, max_attributes=5), st.integers(1, 3))
@settings(max_examples=30)
def test_class_invariants(ctx, minsup):
    for cls in mine_equivalence_classes(ctx, minsup):
        assert cls.generators
        for g in cls.generators:
            assert ctx.closure(g) == cls.closed_set
            assert ctx.support(g) == cls.support
        # generators are pairwise incomparable
        for g in cls.generators:
            for h in cls.generators:
                assert g == h or not set(g) <= set(h)


def _rule_ids(ctx, r):
    ids = lambda labels: frozenset(ctx.attribute_index(t) for t in labels)
    return (ids(r.premise), ids(r.consequent), r.support)


@given(contexts(max_objects=7, max_attributes=5), st.integers(1, 3), st.sampled_from([0.3, 0.6, 1.0]))
@settings(max_examples=40)
def test_rule_families_match_oracle(ctx, minsup, minconf):
    from galmine import all_rules, closed_rules, generic_basis, mnr_rules, rare_rules

    rows = [frozenset(r) for r in ctx.rows]
    m = ctx.n_attributes
    assert {_rule_ids(ctx, r) for r in all_rules(ctx, minsup, minconf)} == oracle.all_rules(
        rows, m, minsup, minconf
    )
    assert {_rule_ids(ctx, r) for r in generic_basis(ctx, minsup)} == oracle.generic_basis(rows, m, minsup)
    for reduced in (False, True):
        assert {_rule_ids(ctx, r) for r in mnr_rules(ctx, minsup, minconf, reduced=reduced)} == oracle.mnr(
            rows, m, minsup, minconf, reduced
        )
    assert {_rule_ids(ctx, r) for r in closed_rules(ctx, minsup, minconf)} == oracle.closed_rules(
        rows, m, minsup, minconf
    )
    assert {_rule_ids(ctx, r) for r in rare_rules(ctx, minsup)} == oracle.rare_rules(rows, m, minsup)


@given(contexts(max_objects=6, max_attributes=5))
@settings(max_examples=40)
def test_dg_sound_and_complete(ctx):
    rows = [frozenset(r) for r in ctx.rows]
    m = ctx.n_attributes
    implications = []
    for r in duquenne_guigues(ctx):
        p = frozenset(ctx.attribute_index(t) for t in r.premise)
        c = frozenset(ctx.attribute_index(t) for t in r.consequent)
        implications.append((p, p | c))
    assert oracle.family_closed_under(implications, m) == oracle.closed_family(rows, m)


@given(contexts(max_objects=6, max_attributes=5))
@settings(max_examples=25)
def test_lattice_concepts_match_oracle(ctx):
    rows = [frozenset(r) for r in ctx.rows]
    lat = build_lattice(ctx)
    want = {(tuple(sorted(e)), tuple(sorted(i))) for e, i in oracle.concepts(rows, ctx.n_attributes)}
    assert {(c.extent, c.intent) for c in lat.concepts} == want
    intents = [frozenset(c.intent) for c in lat.concepts]
    assert set(lat.cover_edges) == oracle.cover_edges(intents)


# -- JSON writers give back what they were given ---------------------------------


def _jsonl(lines) -> list:
    """The records of JSON-lines output, split as a reader of the stream would."""
    return [json.loads(line) for line in _split_lines("".join(line + "\n" for line in lines))]


@given(contexts(max_objects=6, max_attributes=5, label=_LABEL), st.integers(1, 3), st.sampled_from([0.3, 0.6, 1.0]))
@settings(max_examples=40)
def test_rules_jsonl_roundtrip(ctx, minsup, minconf):
    """Every basis reads back from its records as the same rules, DG
    implications over an empty extent (support 0, null conviction) included."""
    bases = {
        "all": all_rules(ctx, minsup, minconf),
        "generic": generic_basis(ctx, minsup),
        "mnr": mnr_rules(ctx, minsup, minconf),
        "rmnr": mnr_rules(ctx, minsup, minconf, reduced=True),
        "closed": closed_rules(ctx, minsup, minconf),
        "rare": rare_rules(ctx, minsup),
        "dg": duquenne_guigues(ctx),
    }
    for basis, rules in bases.items():
        assert parse_rules_jsonl("".join(line + "\n" for line in render_rules_jsonl(rules))) == rules, basis


@given(contexts(max_objects=6, max_attributes=5, label=_LABEL), st.integers(1, 3))
@settings(max_examples=40)
def test_itemsets_jsonl_give_back_the_sets(ctx, minsup):
    ids = {label: j for j, label in enumerate(ctx.attribute_labels)}
    for mine in (mine_frequent, mine_closed, mine_generators, mine_minimal_rare):
        sets = mine(ctx, minsup)
        read = [
            MinedSet(tuple(ids[label] for label in r["items"]), r["support"], r["closed"], r["generator"])
            for r in _jsonl(render_itemsets_jsonl(sets, ctx.attribute_labels))
        ]
        assert read == sets, mine.__name__


@given(contexts(max_objects=6, max_attributes=5, label=_LABEL))
@settings(max_examples=30)
def test_lattice_json_gives_back_the_lattice(ctx):
    lat = build_lattice(ctx)
    objects = {label: i for i, label in enumerate(ctx.object_labels)}
    attributes = {label: j for j, label in enumerate(ctx.attribute_labels)}
    [data] = _jsonl([export_json(lat)])
    concepts = tuple(
        Concept(tuple(objects[label] for label in c["extent"]), tuple(attributes[label] for label in c["intent"]))
        for c in data["concepts"]
    )
    assert (concepts, tuple(map(tuple, data["edges"]))) == (lat.concepts, lat.cover_edges)
