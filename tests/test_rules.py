import json
import math

import pytest

from galmine import (
    BinaryContext,
    ConstraintError,
    ResourceError,
    all_rules,
    closed_rules,
    duquenne_guigues,
    generic_basis,
    measures,
    mnr_rules,
    rare_rules,
)
from galmine.rules import parse_rules_jsonl, render_rules_jsonl, render_rules_text

import oracle
from conftest import BAD_RULE_RECORDS, RULE_RECORD, seeded_corpus


def rule_sig(r):
    return (r.premise, r.consequent, r.support)


def recompute(ctx, r):
    ids = lambda labels: tuple(ctx.attribute_index(t) for t in labels)
    xy = ids(r.premise) + ids(r.consequent)
    return measures(ctx.n_objects, ctx.support(xy), ctx.support(ids(r.premise)), ctx.support(ids(r.consequent)))


def test_measures_k4_a_to_b():
    conf, lift, conv = measures(4, 2, 3, 3)
    assert conf == pytest.approx(2 / 3, abs=1e-12)
    assert lift == pytest.approx(8 / 9, abs=1e-12)
    assert conv == pytest.approx(0.75, abs=1e-12)


def test_measures_exact_rule_conviction_infinite():
    conf, lift, conv = measures(4, 1, 1, 2)  # K4 d -> ac
    assert conf == 1.0
    assert lift == 2.0
    assert math.isinf(conv)


def test_measures_lift_symmetric():
    assert measures(10, 3, 5, 6)[1] == measures(10, 3, 6, 5)[1]


def test_measures_zero_premise_rejected():
    with pytest.raises(ConstraintError):
        measures(4, 0, 0, 1)


def test_all_rules_k4(k4):
    out = all_rules(k4, 2, 0.6)
    assert [rule_sig(r) for r in out] == [
        (("a",), ("b",), 2),
        (("a",), ("c",), 2),
        (("b",), ("a",), 2),
        (("b",), ("c",), 2),
        (("c",), ("a",), 2),
        (("c",), ("b",), 2),
    ]
    assert all(r.confidence == pytest.approx(2 / 3) for r in out)


def test_all_rules_exact_threshold_empty(k4):
    assert all_rules(k4, 2, 1.0) == []


def test_all_rules_contract(k4):
    for r in all_rules(k4, 1, 0.3):
        assert r.support >= 1
        assert r.confidence >= 0.3
        assert not set(r.premise) & set(r.consequent)


def test_all_rules_bad_minconf(k4):
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConstraintError):
            all_rules(k4, 2, bad)


def test_all_rules_cardinality_bound(k4):
    # a frequent set of size k contributes at most 2^k - 2 rules
    out = all_rules(k4, 1, 1e-9)
    by_total = {}
    for r in out:
        by_total.setdefault(tuple(sorted(r.premise + r.consequent)), 0)
        by_total[tuple(sorted(r.premise + r.consequent))] += 1
    for total, count in by_total.items():
        assert count <= 2 ** len(total) - 2


def test_generic_basis_k4(k4):
    out = generic_basis(k4, 1)
    assert [rule_sig(r) for r in out] == [(("d",), ("a", "c"), 1)]
    assert out[0].confidence == 1.0
    assert math.isinf(out[0].conviction)
    assert generic_basis(k4, 2) == []


def test_mnr_rules_k4_premise_a(k4):
    out = mnr_rules(k4, 1, 0.3)
    got = [(r.consequent, r.support, round(r.confidence, 4)) for r in out if r.premise == ("a",)]
    assert sorted(got) == [
        (("b",), 2, 0.6667),
        (("b", "c"), 1, 0.3333),
        (("c",), 2, 0.6667),
        (("c", "d"), 1, 0.3333),
    ]


def test_mnr_reduced_k4_premise_a(k4):
    out = mnr_rules(k4, 1, 0.3, reduced=True)
    got = sorted(r.consequent for r in out if r.premise == ("a",))
    assert got == [("b",), ("c",)]


def test_mnr_subset_of_all_rules(k4):
    allr = {(r.premise, r.consequent): (r.support, r.confidence) for r in all_rules(k4, 1, 0.3)}
    for r in mnr_rules(k4, 1, 0.3):
        assert allr[(r.premise, r.consequent)] == (r.support, r.confidence)


def test_mnr_structure(k4):
    rows = [frozenset(r) for r in k4.rows]
    gens = {tuple(sorted(g)) for g in oracle.generators(rows, 4, 1)}
    closed = {tuple(sorted(c)) for c in oracle.closed_frequent(rows, 4, 1)}
    ids = lambda labels: tuple(k4.attribute_index(t) for t in labels)
    for r in mnr_rules(k4, 1, 0.3):
        assert ids(r.premise) in gens
        assert tuple(sorted(ids(r.premise) + ids(r.consequent))) in closed


def test_rare_rules_k4(k4):
    out = rare_rules(k4, 2)
    assert [rule_sig(r) for r in out] == [(("d",), ("a", "c"), 1)]
    assert out[0].confidence == 1.0
    assert rare_rules(k4, 1) == []  # only a zero-support minimal rare set


def test_rare_rules_support_window(k4):
    for minsup in (2, 3, 4):
        for r in rare_rules(k4, minsup):
            assert 1 <= r.support < minsup


def test_closed_rules_k4(k4):
    out = closed_rules(k4, 1, 0.5)
    sigs = {rule_sig(r) for r in out}
    assert (("a", "b"), ("c",), 1) in sigs
    assert len(out) == 10
    allr = {(r.premise, r.consequent) for r in all_rules(k4, 1, 0.5)}
    assert {(r.premise, r.consequent) for r in out} <= allr


def test_closed_rules_premise_and_total_closed(k4):
    ids = lambda labels: tuple(k4.attribute_index(t) for t in labels)
    for r in closed_rules(k4, 1, 0.5):
        premise = ids(r.premise)
        total = tuple(sorted(premise + ids(r.consequent)))
        assert k4.closure(premise) == premise
        assert k4.closure(total) == total


def test_duquenne_guigues_k4(k4):
    out = duquenne_guigues(k4)
    assert [rule_sig(r) for r in out] == [(("d",), ("a", "c"), 1)]
    assert out[0].confidence == 1.0


def test_duquenne_guigues_every_set_closed():
    ctx = BinaryContext(["o1", "o2", "o3"], ["a", "b"], [{0}, {1}, {0, 1}])
    assert duquenne_guigues(ctx) == []


def test_duquenne_guigues_empty_premise():
    # attribute a is universal, so ∅ is pseudo-closed with closure {a}
    ctx = BinaryContext(["o1", "o2"], ["a", "b"], [{0, 1}, {0}])
    out = duquenne_guigues(ctx)
    assert [(r.premise, r.consequent, r.support) for r in out] == [((), ("a",), 2)]


def test_duquenne_guigues_guard():
    ctx = BinaryContext(["o1"], [f"a{j}" for j in range(21)], [set(range(21))])
    with pytest.raises(ResourceError, match="^context has 21 attributes, above the Duquenne-Guigues guard of 20$"):
        duquenne_guigues(ctx)
    assert len(duquenne_guigues(ctx, max_attributes=21)) >= 0


def test_duquenne_guigues_matches_oracle_on_corpus():
    for ctx in seeded_corpus(40, max_objects=8, max_attributes=6):
        rows = [frozenset(r) for r in ctx.rows]
        want = {(frozenset(p), frozenset(c)) for p, c in oracle.dg_basis(rows, ctx.n_attributes)}
        got = set()
        for r in duquenne_guigues(ctx):
            p = frozenset(ctx.attribute_index(t) for t in r.premise)
            c = frozenset(ctx.attribute_index(t) for t in r.consequent)
            got.add((p, p | c))
        assert got == want


def test_measures_recompute_within_tolerance(k4):
    for r in all_rules(k4, 1, 0.2) + mnr_rules(k4, 1, 0.2) + closed_rules(k4, 1, 0.2):
        conf, lift, conv = recompute(k4, r)
        assert conf == pytest.approx(r.confidence, abs=1e-12)
        assert lift == pytest.approx(r.lift, abs=1e-12)
        if math.isinf(r.conviction):
            assert math.isinf(conv)
        else:
            assert conv == pytest.approx(r.conviction, abs=1e-12)


def test_render_rules_text(k4):
    line = render_rules_text(all_rules(k4, 2, 0.6))[0]
    assert line == "a => b (supp=2; conf=0.6667; lift=0.8889; conv=0.7500)"
    dg_line = render_rules_text(duquenne_guigues(k4))[0]
    assert dg_line == "d => a c (supp=1; conf=1.0000; lift=2.0000; conv=inf)"


def test_rules_jsonl_roundtrip(k4):
    rules = mnr_rules(k4, 1, 0.3) + duquenne_guigues(k4)
    lines = render_rules_jsonl(rules)
    rec = json.loads(lines[0])
    assert set(rec) == {"premise", "consequent", "support", "confidence", "lift", "conviction"}
    assert parse_rules_jsonl("\n".join(lines)) == rules
    # infinite conviction serializes as null
    dg_rec = json.loads(render_rules_jsonl(duquenne_guigues(k4))[0])
    assert dg_rec["conviction"] is None


def test_rules_jsonl_roundtrip_empty_extent():
    # attribute c holds for no object: its implication has support 0, lift 0.0 and a null conviction
    rules = duquenne_guigues(BinaryContext(["o1", "o2"], ["a", "b", "c"], [[0], [0, 1]]))
    assert any(r.support == 0 and r.lift == 0.0 for r in rules)
    assert parse_rules_jsonl("\n".join(render_rules_jsonl(rules))) == rules


def test_rules_jsonl_bad_input():
    from galmine import ParseError

    with pytest.raises(ParseError):
        parse_rules_jsonl("{not json}\n")
    with pytest.raises(ParseError):
        parse_rules_jsonl('{"premise": ["a"]}\n')


@pytest.mark.parametrize("bad", BAD_RULE_RECORDS.values(), ids=BAD_RULE_RECORDS.keys())
def test_rules_jsonl_bad_record_is_parse_error(bad):
    from galmine import ParseError

    with pytest.raises(ParseError, match="line 2"):
        parse_rules_jsonl(RULE_RECORD + "\n" + bad + "\n")


def test_rules_jsonl_records_end_only_at_line_feed():
    # a raw U+2028 or U+0085 inside a label (json.dumps with ensure_ascii=False) does not end the record
    for sep in ("\u2028", "\x85"):
        text = RULE_RECORD.replace('"a"', f'"x{sep}y"') + "\r\n" + RULE_RECORD + "\n"
        first, second = parse_rules_jsonl(text)
        assert first.premise == (f"x{sep}y",)
        assert second.premise == ("a",)
