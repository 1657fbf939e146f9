"""The vertical miners against the horizontal reference on contexts wider
than the powerset oracle's 8 attributes."""

import pytest

from galmine import GenSpec, mine_equivalence_classes, mine_frequent, mine_minimal_rare, random_context
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
