import json

import pytest

from galmine import BinaryContext, ConstraintError, ResourceError, build_lattice, export_dot, export_json

import oracle
from conftest import seeded_corpus


def test_k4_lattice_counts(k4):
    lat = build_lattice(k4)
    assert len(lat.concepts) == 10
    assert len(lat.cover_edges) == 15


def test_k4_concepts_match_oracle(k4):
    lat = build_lattice(k4)
    rows = [frozenset(r) for r in k4.rows]
    want = {(tuple(sorted(e)), tuple(sorted(i))) for e, i in oracle.concepts(rows, 4)}
    assert {(c.extent, c.intent) for c in lat.concepts} == want


def test_k4_cover_edges_match_oracle(k4):
    lat = build_lattice(k4)
    intents = [frozenset(c.intent) for c in lat.concepts]
    assert set(lat.cover_edges) == oracle.cover_edges(intents)


def test_concepts_ordered_and_bounded(k4):
    lat = build_lattice(k4)
    sizes = [len(c.intent) for c in lat.concepts]
    assert sizes == sorted(sizes)
    assert lat.concepts[0].extent == (0, 1, 2, 3)  # top: all objects
    assert lat.concepts[-1].intent == (0, 1, 2, 3)  # bottom: all attributes


def test_mutually_closed_pairs(k4):
    lat = build_lattice(k4)
    for c in lat.concepts:
        assert k4.intent(c.extent) == c.intent
        assert k4.extent(c.intent) == c.extent


def test_single_cell_context():
    ctx = BinaryContext(["o1"], ["a"], [{0}])
    lat = build_lattice(ctx)
    assert len(lat.concepts) == 1  # closure(∅) is the full attribute set
    assert lat.cover_edges == ()


def test_cover_edges_are_transitive_reduction_on_corpus():
    for ctx in seeded_corpus(25, max_objects=7, max_attributes=5):
        lat = build_lattice(ctx)
        intents = [frozenset(c.intent) for c in lat.concepts]
        assert set(lat.cover_edges) == oracle.cover_edges(intents)


def test_transpose_duality_on_corpus():
    for ctx in seeded_corpus(25, max_objects=7, max_attributes=5):
        a = {(c.extent, c.intent) for c in build_lattice(ctx).concepts}
        b = {(c.intent, c.extent) for c in build_lattice(ctx.transpose(), max_attributes=20).concepts}
        assert a == b


def test_guard():
    ctx = BinaryContext(["o1"], [f"a{j}" for j in range(25)], [set(range(25))])
    with pytest.raises(ResourceError, match="^context has 25 attributes, above the lattice guard of 20$"):
        build_lattice(ctx)
    assert len(build_lattice(ctx, max_attributes=25).concepts) == 1


def _check_dot_grammar(text: str):
    """Minimal DOT digraph well-formedness check."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph lattice {"
    assert lines[-1] == "}"
    import re

    node_re = re.compile(r'^  c(\d+) \[label="(?:[^"\\]|\\.)*"\];$')
    edge_re = re.compile(r"^  c(\d+) -> c(\d+);$")
    attr_re = re.compile(r"^  node \[.*\];$")
    for line in lines[1:-1]:
        assert node_re.match(line) or edge_re.match(line) or attr_re.match(line), line


def test_export_dot_full(k4):
    lat = build_lattice(k4)
    dot = export_dot(lat, label_mode="full")
    _check_dot_grammar(dot)
    assert dot.count("->") == 15
    assert dot.count("[label=") == 10
    assert '"{} \\n{o1 o2 o3 o4}"' not in dot  # top node label has no space glitch
    assert '[label="{}\\n{o1 o2 o3 o4}"]' in dot


def test_export_dot_reduced(k4):
    dot = export_dot(build_lattice(k4), label_mode="reduced")
    _check_dot_grammar(dot)
    # attribute d and object o3 are introduced at the acd concept
    assert '[label="{d}\\n{o3}"]' in dot


def test_export_dot_single_node():
    ctx = BinaryContext(["o1"], ["a"], [{0}])
    dot = export_dot(build_lattice(ctx))
    _check_dot_grammar(dot)
    assert dot.count("->") == 0
    assert dot.count("[label=") == 1


def test_export_dot_quoting():
    ctx = BinaryContext(["o 1"], ['weird"attr'], [{0}])
    dot = export_dot(build_lattice(ctx))
    _check_dot_grammar(dot)
    assert 'weird\\"attr' in dot


def test_export_dot_unknown_label_mode_is_a_constraint_error(k4):
    with pytest.raises(ConstraintError, match="label_mode must be 'full' or 'reduced', got 'brief'"):
        export_dot(build_lattice(k4), label_mode="brief")


def test_export_json(k4):
    lat = build_lattice(k4)
    data = json.loads(export_json(lat))
    assert len(data["concepts"]) == 10
    assert len(data["edges"]) == 15
    assert data["concepts"][0] == {"extent": ["o1", "o2", "o3", "o4"], "intent": []}
    assert all(isinstance(e, list) and len(e) == 2 for e in data["edges"])
