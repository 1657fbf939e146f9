"""The library against the implementations it replaced, on contexts wider
than the powerset oracle's 8 attributes."""

import pytest

from galmine import (
    GenSpec,
    build_lattice,
    closed_rules,
    duquenne_guigues,
    mine_equivalence_classes,
    mine_frequent,
    mine_minimal_rare,
    mnr_rules,
    random_context,
)
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
