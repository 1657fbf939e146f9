"""The library against the implementations it replaced, on contexts wider
than the powerset oracle's 8 attributes."""

import random
import re

import pytest

from galmine import (
    BinaryContext,
    BinningSpec,
    GenSpec,
    NumericTable,
    ParseError,
    build_lattice,
    closed_rules,
    discretize,
    duquenne_guigues,
    mine_equivalence_classes,
    mine_frequent,
    mine_minimal_rare,
    mnr_rules,
    parse_cxt,
    parse_tab,
    random_context,
    write_cxt,
    write_tab,
)
from galmine._bitset import bits_of, mask_of
from galmine.miner import STRATEGIES

import reference

# rows, cols, density, two minsups (absolute or relative); rows are few
# where columns are many, so that classes hold several itemsets
CASES = [
    (300, 9, 0.6, (2, 0.3)),
    (40, 12, 0.5, (1, 3)),
    (120, 14, 0.55, (6, 0.1)),
    (150, 16, 0.3, (2, 0.1)),
    (30, 20, 0.4, (2, 3)),
    (60, 24, 0.35, (3, 4)),
    (200, 26, 0.2, (3, 0.05)),
    (60, 30, 0.2, (2, 5)),
    (25, 32, 0.45, (4, 5)),
    (40, 36, 0.4, (5, 6)),
    (300, 40, 0.2, (0.05, 0.1)),
    (20, 40, 0.6, (7, 9)),
]


@pytest.mark.parametrize(
    "seed, rows, cols, density, minsups",
    [(seed, *case) for seed, case in enumerate(CASES)],
    ids=[f"{r}x{c}-d{d}" for r, c, d, _ in CASES],
)
def test_miners_match_horizontal_reference(seed, rows, cols, density, minsups):
    ctx = random_context(GenSpec(rows=rows, cols=cols, density=density, seed=seed))
    for minsup in minsups:
        want = reference.frequent(ctx, minsup)
        for strategy in STRATEGIES:
            assert mine_frequent(ctx, minsup, strategy=strategy) == want, strategy
        assert mine_minimal_rare(ctx, minsup) == reference.minimal_rare(ctx, minsup)
        assert mine_equivalence_classes(ctx, minsup) == reference.equivalence_classes(ctx, minsup)


# rows, cols, density, minsup, minconf: 9 to 20 attributes (the lattice and
# Duquenne-Guigues guard), each giving a few hundred closed sets
CLOSED_CASES = [
    (200, 9, 0.5, 2, 0.5),
    (40, 10, 0.5, 1, 0.3),
    (100, 11, 0.45, 0.03, 0.6),
    (60, 12, 0.5, 2, 0.5),
    (30, 13, 0.5, 1, 0.7),
    (80, 14, 0.3, 2, 0.4),
    (25, 15, 0.5, 1, 0.5),
    (50, 16, 0.3, 0.04, 0.5),
    (20, 17, 0.4, 1, 0.3),
    (40, 18, 0.25, 2, 0.5),
    (15, 19, 0.5, 1, 0.6),
    (30, 20, 0.3, 2, 0.5),
]


@pytest.mark.parametrize(
    "seed, rows, cols, density, minsup, minconf",
    [(seed, *case) for seed, case in enumerate(CLOSED_CASES)],
    ids=[f"{r}x{c}-d{d}" for r, c, d, _, _ in CLOSED_CASES],
)
def test_closed_set_structure_matches_pairwise_reference(seed, rows, cols, density, minsup, minconf):
    ctx = random_context(GenSpec(rows=rows, cols=cols, density=density, seed=seed))
    lattice = build_lattice(ctx)
    assert ([c.intent for c in lattice.concepts], list(lattice.cover_edges)) == reference.lattice(ctx)
    assert duquenne_guigues(ctx) == reference.duquenne_guigues(ctx)
    for reduced in (False, True):
        assert mnr_rules(ctx, minsup, minconf, reduced=reduced) == reference.mnr_rules(ctx, minsup, minconf, reduced)
    assert closed_rules(ctx, minsup, minconf) == reference.closed_rules(ctx, minsup, minconf)


def _bin_label(name, cells, bit):
    """The label ``discretize`` gives, in two equal-width bins, to the 0/1
    cell ``bit`` of a column holding ``cells``."""
    if len(set(cells)) == 1:
        return f"{name}[{cells[0]!r};{cells[0]!r}]"
    return f"{name}[0.5;1.0]" if bit else f"{name}[0.0;0.5)"


def _built(ctx):
    """Every path into a context, applied to ``ctx``: (name, the context,
    the row masks it must hold), the rows worked out without the library's
    row code."""
    n, m = ctx.n_objects, ctx.n_attributes
    rows = ctx.row_masks
    yield "random_context", ctx, rows
    yield "BinaryContext", BinaryContext(ctx.object_labels, ctx.attribute_labels, ctx.rows), rows
    text = write_cxt(ctx)
    yield "parse_cxt", parse_cxt(text), reference.cxt_rows(text.split("\n")[5 + n + m : -1], m)
    yield "transpose", ctx.transpose(), reference.column_masks(rows, m)
    yield "complement", ctx.complement(), tuple(r ^ ((1 << m) - 1) for r in rows)
    objs, attrs = range(0, n, 2), range(1, m, 2)
    projected = ctx.project([ctx.object_labels[i] for i in objs], [ctx.attribute_labels[j] for j in attrs])
    yield "project", projected, tuple(mask_of(k for k, j in enumerate(attrs) if rows[i] >> j & 1) for i in objs)
    if n and all(rows):  # TAB holds neither an empty context nor an empty row
        tab = parse_tab(write_tab(ctx))
        ids = [tab.attribute_index(label) for label in ctx.attribute_labels]
        yield "parse_tab", tab, tuple(mask_of(ids[j] for j in bits_of(r)) for r in rows)
    if n:
        cells = [[float(r >> j & 1) for j in range(m)] for r in rows]
        table = NumericTable(ctx.attribute_labels, tuple(map(tuple, cells)), ctx.object_labels)
        binned = discretize(table, BinningSpec("width", 2))
        columns = list(zip(*cells))
        labels = [[_bin_label(a, columns[j], row[j]) for j, a in enumerate(ctx.attribute_labels)] for row in cells]
        yield "discretize", binned, tuple(mask_of(map(binned.attribute_index, row)) for row in labels)


# the 12 seeded contexts above, then no objects, no attributes, neither, and
# more objects than the 4,300 digits int() reads from decimal text by default
SHAPES = [(rows, cols, density) for rows, cols, density, _ in CASES]
SHAPES += [(0, 5, 0.5), (5, 0, 0.5), (0, 0, 0.5), (4500, 3, 0.5)]


@pytest.mark.parametrize(
    "seed, rows, cols, density",
    [(seed, *shape) for seed, shape in enumerate(SHAPES)],
    ids=[f"{r}x{c}-d{d}" for r, c, d in SHAPES],
)
def test_context_producers_match_bitwise_reference(seed, rows, cols, density):
    ctx = random_context(GenSpec(rows=rows, cols=cols, density=density, seed=seed))
    rng = random.Random(seed)  # random_context's contract: cells drawn row-major
    assert ctx.row_masks == tuple(mask_of(j for j in range(cols) if rng.random() < density) for _ in range(rows))
    for name, built, want in _built(ctx):
        assert built.row_masks == want, name
        assert built.column_masks == reference.column_masks(want, built.n_attributes), name


@pytest.mark.parametrize(
    "seed, rows, cols, density",
    [(seed, *shape) for seed, shape in enumerate(SHAPES) if shape[0] and shape[1]],
    ids=[f"{r}x{c}-d{d}" for r, c, d in SHAPES if r and c],
)
def test_cxt_matrix_errors_match_per_character_reference(seed, rows, cols, density):
    lines = write_cxt(random_context(GenSpec(rows=rows, cols=cols, density=density, seed=seed))).split("\n")
    head = 5 + rows + cols
    rng = random.Random(seed)
    # int(..., 2) reads "0", "1", " ", "_", "+" and "\u0661"; "" shortens the line
    for ch in ("x", "0", "1", " ", "_", "+", "\u0661", "\t", "", "XX"):
        k, j = head + rng.randrange(rows), rng.randrange(cols)
        bad = lines.copy()
        bad[k] = bad[k][:j] + ch + bad[k][j + 1 :]
        with pytest.raises(ParseError) as want:
            reference.cxt_rows(bad[head:-1], cols)
        with pytest.raises(ParseError, match=f"^{re.escape(str(want.value))}$"):
            parse_cxt("\n".join(bad))
