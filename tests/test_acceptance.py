"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

from galmine import (
    GenSpec,
    all_rules,
    build_lattice,
    duquenne_guigues,
    generic_basis,
    measures,
    mine_closed,
    mine_frequent,
    mine_generators,
    mine_minimal_rare,
    parse_tab,
    random_context,
)
from galmine.miner import STRATEGIES, render_itemsets_text
from galmine.rules import render_rules_text

import oracle
from conftest import K4_TAB, cli_bytes, seeded_corpus


def _report(number, name):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {number}] {name}: {verdict}")
            return False

    return _Reporter()


CORPUS = seeded_corpus(216, max_objects=12, max_attributes=8, densities=(0.2, 0.5, 0.8))


def test_criterion_1_oracle_equivalence():
    with _report(1, "oracle equivalence on 216 random contexts"):
        start = time.perf_counter()
        for ctx in CORPUS:
            rows = [frozenset(r) for r in ctx.rows]
            m = ctx.n_attributes
            for minsup in (1, 2, 3):
                want_fi = {tuple(sorted(s)): n for s, n in oracle.frequent(rows, m, minsup).items()}
                assert {s.items: s.support for s in mine_frequent(ctx, minsup)} == want_fi
                assert {s.items: s.support for s in mine_closed(ctx, minsup)} == {
                    tuple(sorted(s)): n for s, n in oracle.closed_frequent(rows, m, minsup).items()
                }
                assert {s.items: s.support for s in mine_generators(ctx, minsup)} == {
                    tuple(sorted(s)): n for s, n in oracle.generators(rows, m, minsup).items()
                }
                assert {s.items: s.support for s in mine_minimal_rare(ctx, minsup)} == {
                    tuple(sorted(s)): n for s, n in oracle.minimal_rare(rows, m, minsup).items()
                }
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_strategy_agreement():
    with _report(2, "levelwise/dfs/hybrid byte-identical"):
        for ctx in CORPUS:
            for minsup in (1, 2, 3):
                rendered = {
                    strategy: "\n".join(
                        render_itemsets_text(mine_frequent(ctx, minsup, strategy), ctx.attribute_labels)
                    )
                    for strategy in STRATEGIES
                }
                assert rendered["levelwise"] == rendered["dfs"] == rendered["hybrid"]


def test_criterion_3_k4_goldens():
    with _report(3, "K4 fixture goldens"):
        ctx = parse_tab(K4_TAB)
        assert len(mine_frequent(ctx, 2)) == 6
        assert len(mine_closed(ctx, 1)) == 8
        assert len(mine_generators(ctx, 1)) == 8
        assert [(s.items, s.support) for s in mine_minimal_rare(ctx, 2)] == [((3,), 1), ((0, 1, 2), 1)]
        gb = generic_basis(ctx, 1)
        assert [(r.premise, r.consequent) for r in gb] == [(("d",), ("a", "c"))]
        dg = duquenne_guigues(ctx)
        assert [(r.premise, r.consequent) for r in dg] == [(("d",), ("a", "c"))]
        lat = build_lattice(ctx)
        assert len(lat.concepts) == 10
        assert len(lat.cover_edges) == 15
        conf, lift, conv = measures(4, 2, 3, 3)
        assert abs(conf - 2 / 3) < 1e-12
        assert abs(lift - 8 / 9) < 1e-12
        assert abs(conv - 0.75) < 1e-12
        line = render_rules_text(all_rules(ctx, 2, 0.6))[0]
        assert line == "a => b (supp=2; conf=0.6667; lift=0.8889; conv=0.7500)"
        for shown, exact in (("0.6667", 2 / 3), ("0.8889", 8 / 9), ("0.7500", 0.75)):
            assert abs(float(shown) - exact) < 1e-4


def test_criterion_4_dg_soundness_completeness():
    with _report(4, "DG basis sound, complete and irredundant on 108 contexts"):
        corpus = seeded_corpus(108, max_objects=8, max_attributes=6)
        checked = 0
        for ctx in corpus:
            rows = [frozenset(r) for r in ctx.rows]
            m = ctx.n_attributes
            implications = []
            for r in duquenne_guigues(ctx):
                p = frozenset(ctx.attribute_index(t) for t in r.premise)
                c = frozenset(ctx.attribute_index(t) for t in r.consequent)
                implications.append((p, p | c))
            closed = oracle.closed_family(rows, m)
            assert oracle.family_closed_under(implications, m) == closed
            for skip in range(len(implications)):
                reduced = implications[:skip] + implications[skip + 1 :]
                assert oracle.family_closed_under(reduced, m) != closed
            checked += 1
        assert checked >= 100


def test_criterion_5_structural_laws():
    with _report(5, "closure/support laws, involutions, concept duality"):
        for ctx in CORPUS:
            m = ctx.n_attributes
            for x_mask in range(1 << m):
                x = tuple(j for j in range(m) if x_mask >> j & 1)
                cx = ctx.closure(x)
                assert set(x) <= set(cx)
                assert ctx.closure(cx) == cx
                assert ctx.support(x) == ctx.support(cx)
                sx = ctx.support(x)
                for a in range(m):
                    if a not in x:
                        y = tuple(sorted(x + (a,)))
                        assert set(cx) <= set(ctx.closure(y))
                        assert sx >= ctx.support(y)
            assert ctx.transpose().transpose() == ctx
            assert ctx.complement().complement() == ctx
        for ctx in CORPUS[:60]:
            direct = {(c.extent, c.intent) for c in build_lattice(ctx).concepts}
            swapped = {(c.intent, c.extent) for c in build_lattice(ctx.transpose()).concepts}
            assert direct == swapped


def _cli_bytes(argv) -> bytes:
    code, out = cli_bytes(argv)
    assert code == 0, f"exit {code} for {argv}"
    return out


def _cli_stdout(argv) -> str:
    return _cli_bytes(argv).decode("utf-8")


def test_criterion_6_determinism(tmp_path):
    with _report(6, "repeated invocations byte-identical"):
        data = tmp_path / "random.tab"
        data.write_bytes(_cli_bytes(["gen", "--rows", "60", "--cols", "12", "--density", "0.4", "--seed", "11"]))
        invocations = [
            ["mine", "--minsup", "5", "--set", "fi", "--strategy", "dfs", str(data)],
            ["mine", "--minsup", "5", "--set", "fci", str(data)],
            ["rules", "--basis", "mnr", "--minsup", "5", "--minconf", "0.4", str(data)],
            ["lattice", str(data)],
        ]
        for argv in invocations:
            outputs = {_cli_bytes(argv) for _ in range(5)}
            assert len(outputs) == 1


def test_criterion_7_format_roundtrips(tmp_path):
    with _report(7, "format round-trips and pipeline"):
        k4 = tmp_path / "k4.tab"
        k4.write_text(K4_TAB)
        cxt_text = _cli_stdout(["pre", "convert", "--out-format", "cxt", str(k4)])
        cxt_file = tmp_path / "k4.cxt"
        cxt_file.write_text(cxt_text)
        tab_back = _cli_stdout(["pre", "convert", "--out-format", "tab", str(cxt_file)])
        assert tab_back == K4_TAB
        # canonical idempotence after one normalization pass
        assert _cli_stdout(["pre", "convert", "--out-format", "cxt", str(cxt_file)]) == cxt_text
        messy = tmp_path / "messy.tab"
        messy.write_text("# comment\n\nb   a\n\na\n")
        once = _cli_stdout(["pre", "convert", "--out-format", "tab", str(messy)])
        norm_file = tmp_path / "norm.tab"
        norm_file.write_text(once)
        assert _cli_stdout(["pre", "convert", "--out-format", "tab", str(norm_file)]) == once
        # csv -> discretize -> mine pipeline
        csv = tmp_path / "vals.csv"
        csv.write_text("x,y\n1,10\n2,20\n3,15\n4,11\n")
        binarized = _cli_stdout(["pre", "discretize", "--bins", "2", str(csv)])
        ctx_file = tmp_path / "vals.tab"
        ctx_file.write_text(binarized)
        mined = _cli_stdout(["mine", "--minsup", "1", str(ctx_file)])
        assert mined.strip()
        rules_out = _cli_stdout(["rules", "--basis", "dg", str(ctx_file)])
        assert "=>" in rules_out


def test_criterion_8_performance_smoke():
    with _report(8, "performance smoke 5000x30 d=0.2 minsup 5%"):
        ctx = random_context(GenSpec(rows=5000, cols=30, density=0.2, seed=99))
        start = time.perf_counter()
        dfs_result = mine_frequent(ctx, 0.05, strategy="dfs")
        dfs_time = time.perf_counter() - start
        start = time.perf_counter()
        level_result = mine_frequent(ctx, 0.05, strategy="levelwise")
        level_time = time.perf_counter() - start
        assert [(s.items, s.support) for s in dfs_result] == [(s.items, s.support) for s in level_result]
        assert dfs_time < 10.0, f"dfs took {dfs_time:.2f}s"
        assert level_time < 60.0, f"levelwise took {level_time:.2f}s"
        print(f"  dfs {dfs_time:.2f}s, levelwise {level_time:.2f}s, {len(dfs_result)} itemsets", end=" ")
