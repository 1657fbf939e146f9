"""Auxiliary utilities: random context generation and equivalence-class
rendering."""

import random
from dataclasses import dataclass

from galmine.context import BinaryContext
from galmine.errors import ConstraintError
from galmine.miner import EquivalenceClass


@dataclass(frozen=True)
class GenSpec:
    rows: int
    cols: int
    density: float
    seed: int = 0

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ConstraintError("rows and cols must be >= 0")
        if not 0.0 <= self.density <= 1.0:
            raise ConstraintError(f"density must be in [0, 1], got {self.density}")


def random_context(spec: GenSpec) -> BinaryContext:
    """A rows-by-cols context with each cell set independently with
    probability ``density``.

    Reproducibility contract: cells are drawn row-major (object 0 first,
    attribute 0 first within a row) from ``random.Random(seed)``, i.e.
    CPython's Mersenne Twister, whose float stream is stable across
    versions and platforms.  Identical specs give identical contexts.
    Labels are o1..oN and a1..aM."""
    rng = random.Random(spec.seed)
    rows = []
    for _ in range(spec.rows):
        row = 0
        for j in range(spec.cols):
            if rng.random() < spec.density:
                row |= 1 << j
        rows.append(row)
    return BinaryContext._from_masks(
        [f"o{i + 1}" for i in range(spec.rows)],
        [f"a{j + 1}" for j in range(spec.cols)],
        rows,
    )


def render_equivalence_classes(classes: list[EquivalenceClass], attribute_labels) -> list[str]:
    """One block per class: the closed set with its support, then one
    ``gen:`` line per generator.  The empty generator renders as ``{}``."""

    def braced(items):
        return "{" + " ".join(attribute_labels[j] for j in items) + "}"

    lines = []
    for cls in classes:
        lines.append(f"CLASS closed={braced(cls.closed_set)} supp={cls.support}")
        for g in cls.generators:
            lines.append(f"  gen: {braced(g)}")
    return lines
