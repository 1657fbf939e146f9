"""Itemset mining: frequent, frequent closed, frequent generators,
equivalence classes and minimal rare itemsets.

Every support is a tidset intersection: the objects of an itemset are
the objects of its prefix ANDed with the column of its last item.  One
levelwise (Apriori) walk does this counting for two callers, each with
its own test of which candidates the next level is joined from:

* the ``levelwise`` support table keeps the frequent sets;
* the class walk keeps the frequent generators, whose closures give the
  equivalence classes (closed sets and generators).  Its candidates
  below the threshold are exactly the minimal rare itemsets.  A minimal
  rare X is a candidate because its immediate subsets are frequent
  generators: if one, Y, had supp(Y - y) = supp(Y), then
  supp(X - y) = supp(X) would be rare too.  X is itself a generator,
  as its proper subsets are frequent and it is not (Szathmary, Napoli
  & Valtchev, ICTAI 2007).

Three interchangeable traversal strategies produce identical tables:

* ``levelwise`` — the walk above, keeping the tidsets of the previous
  level's frequent sets only.
* ``dfs`` — depth-first tidset intersection (Eclat).
* ``hybrid`` — the class walk, then expansion of each class into its
  member itemsets.

All outputs are canonically ordered (itemsets by size then id-lex,
classes by support descending then closed-set lex), so results are
byte-stable regardless of strategy.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from galmine._bitset import bits_of
from galmine.context import BinaryContext, Itemset
from galmine.errors import ConstraintError


@dataclass(frozen=True)
class MinedSet:
    """An itemset with its absolute support and structural flags."""

    items: Itemset
    support: int
    is_closed: bool
    is_generator: bool


@dataclass(frozen=True)
class EquivalenceClass:
    """All itemsets sharing one closure: the closed set, its minimal
    members (generators) and their common support.

    The generator list is the empty itemset ``()`` alone exactly when
    the class is the closure of the empty set and that closure is
    non-empty.
    """

    closed_set: Itemset
    generators: tuple[Itemset, ...]
    support: int


def resolve_minsup(threshold, n_objects: int) -> int:
    """Resolve a support threshold against a context size.

    An int is an absolute count (must be >= 1); a float is a relative
    fraction in (0, 1], resolved as ceil(f * N).  The resolved value
    must be >= 1.
    """
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ConstraintError(f"minsup must be an int count or a float fraction, got {threshold!r}")
    if isinstance(threshold, int):
        if threshold < 1:
            raise ConstraintError(f"absolute minsup must be >= 1, got {threshold}")
        return threshold
    if not 0.0 < threshold <= 1.0:
        raise ConstraintError(f"relative minsup must be in (0, 1], got {threshold}")
    resolved = math.ceil(threshold * n_objects)
    if resolved < 1:
        raise ConstraintError("resolved minsup is below 1 (relative threshold on an empty context)")
    return resolved


# -- support tables ---------------------------------------------------------


def _join_candidates(prev: list[Itemset]) -> list[Itemset]:
    """Apriori join + prune: size-(k+1) candidates from lex-sorted
    size-k sets; a candidate survives only if every size-k subset is in
    ``prev``."""
    prev_set = set(prev)
    out = []
    n = len(prev)
    for i in range(n):
        head = prev[i][:-1]
        for j in range(i + 1, n):
            if prev[j][:-1] != head:
                break
            cand = prev[i] + (prev[j][-1],)
            if all(cand[:x] + cand[x + 1 :] in prev_set for x in range(len(cand))):
                out.append(cand)
    return out


def _apriori(ctx: BinaryContext, keep) -> None:
    """The one levelwise walk.  Each candidate's tidset is its prefix's
    tidset ANDed with the column of its last item; ``keep(cand,
    support, tidset)`` sees every candidate, and the next level is
    joined from the candidates it accepts, whose tidsets are the only
    ones held."""
    cols = ctx.column_masks
    tids: dict[Itemset, int] = {(): (1 << ctx.n_objects) - 1}
    level: list[Itemset] = [(j,) for j in range(ctx.n_attributes)]
    while level:
        kept: dict[Itemset, int] = {}
        for cand in level:
            t = tids[cand[:-1]] & cols[cand[-1]]
            if keep(cand, t.bit_count(), t):
                kept[cand] = t
        tids = kept
        level = _join_candidates(list(kept))


def _levelwise(ctx: BinaryContext, minsup: int) -> dict[Itemset, int]:
    """Support table of all frequent non-empty itemsets."""
    table: dict[Itemset, int] = {}

    def keep(cand, s, t):
        if s >= minsup:
            table[cand] = s
            return True
        return False

    _apriori(ctx, keep)
    return table


def _dfs(ctx: BinaryContext, minsup: int) -> dict[Itemset, int]:
    """Support table by depth-first tidset intersection.

    At each node every candidate extension is counted (and recorded if
    frequent) in ascending id order before the frequent ones are
    descended into.  Recursion depth equals the size of the largest
    frequent itemset.
    """
    table: dict[Itemset, int] = {}
    cols = ctx.column_masks

    def visit(prefix, tid, candidates):
        kept = []
        for j in candidates:
            t = tid & cols[j]
            s = t.bit_count()
            if s >= minsup:
                table[prefix + (j,)] = s
                kept.append((j, t))
        for idx, (j, t) in enumerate(kept):
            visit(prefix + (j,), t, [k for k, _ in kept[idx + 1 :]])

    visit((), (1 << ctx.n_objects) - 1, range(ctx.n_attributes))
    return table


def _mine_class_list(ctx: BinaryContext, minsup) -> tuple[list[EquivalenceClass], list[tuple[Itemset, int]]]:
    """Frequent equivalence classes by closed set, and the minimal rare
    itemsets as (items, support), each in (size asc, id-lex asc) order.

    The walk keeps the frequent generators (they form an order ideal,
    so join + prune over the previous generator level is complete); each
    one's closure assigns it to a class.  It meets candidates, hence the
    generators of a class and the minimal rare itemsets below ``minsup``
    (see the module docstring), in (size asc, id-lex asc) order.
    """
    minsup = resolve_minsup(minsup, ctx.n_objects)
    if minsup > ctx.n_objects:
        return [], []
    n = ctx.n_objects
    gen_support: dict[Itemset, int] = {(): n}
    classes: dict[int, list] = {ctx.closure_mask((1 << n) - 1): [n, [()]]}
    rare: list[tuple[Itemset, int]] = []

    def keep(cand, s, t):
        if s < minsup:
            rare.append((cand, s))
            return False
        if all(gen_support[cand[:x] + cand[x + 1 :]] > s for x in range(len(cand))):
            gen_support[cand] = s
            classes.setdefault(ctx.closure_mask(t), [s, []])[1].append(cand)
            return True
        return False

    _apriori(ctx, keep)
    classes.pop(0, None)  # the empty closed set is never reported
    out = [EquivalenceClass(bits_of(cmask), tuple(gens), supp) for cmask, (supp, gens) in classes.items()]
    out.sort(key=lambda c: (len(c.closed_set), c.closed_set))
    return out, rare


def _hybrid(ctx: BinaryContext, minsup: int) -> dict[Itemset, int]:
    """Expand every class into its member itemsets g ∪ s, s ⊆ closure\\g.

    Classes partition the frequent collection, so the union over
    classes is complete and classes never collide on a key."""
    table: dict[Itemset, int] = {}
    for c in _mine_class_list(ctx, minsup)[0]:
        for g in c.generators:
            g_set = set(g)
            rest = tuple(a for a in c.closed_set if a not in g_set)
            for r in range(len(rest) + 1):
                for extra in combinations(rest, r):
                    table[tuple(sorted(g + extra))] = c.support
    table.pop((), None)
    return table


_STRATEGY_TABLES = {"levelwise": _levelwise, "dfs": _dfs, "hybrid": _hybrid}
STRATEGIES = tuple(_STRATEGY_TABLES)


def frequent_support_table(ctx: BinaryContext, minsup, strategy: str = "levelwise") -> dict[Itemset, int]:
    """Supports of every frequent non-empty itemset, keyed by id tuple."""
    if strategy not in _STRATEGY_TABLES:
        raise ConstraintError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    return _STRATEGY_TABLES[strategy](ctx, resolve_minsup(minsup, ctx.n_objects))


# -- flags and public operations -------------------------------------------


def _sorted_mined(table: dict[Itemset, int], ctx: BinaryContext) -> list[MinedSet]:
    """Flag every itemset in one walk over immediate subsets: a subset
    with equal support is not closed, and its superset is not a
    generator.  The table is downward closed, so every non-empty subset
    is in it; the empty set has support n."""
    n = ctx.n_objects
    not_closed: set[Itemset] = set()
    not_generator: set[Itemset] = set()
    for items, supp in table.items():
        for x in range(len(items)):
            sub = items[:x] + items[x + 1 :]
            if (table[sub] if sub else n) == supp:
                not_closed.add(sub)
                not_generator.add(items)
    return [
        MinedSet(items, table[items], items not in not_closed, items not in not_generator)
        for items in sorted(table, key=lambda t: (len(t), t))
    ]


def mine_frequent(ctx: BinaryContext, minsup, strategy: str = "levelwise") -> list[MinedSet]:
    """All non-empty itemsets with support >= minsup, ordered by
    (size asc, id-lex asc).  A threshold above the object count yields
    an empty result."""
    return _sorted_mined(frequent_support_table(ctx, minsup, strategy), ctx)


def mine_closed(ctx: BinaryContext, minsup) -> list[MinedSet]:
    """The frequent closed itemsets (fixed points of closure), excluding
    the empty set."""
    classes, _ = _mine_class_list(ctx, minsup)
    return [
        MinedSet(c.closed_set, c.support, True, c.closed_set in c.generators)
        for c in classes
    ]


def mine_generators(ctx: BinaryContext, minsup) -> list[MinedSet]:
    """The frequent non-empty itemsets with no proper subset of equal
    support (the minimal members of their equivalence classes)."""
    classes, _ = _mine_class_list(ctx, minsup)
    out = [
        MinedSet(g, c.support, g == c.closed_set, True)
        for c in classes
        for g in c.generators
        if g
    ]
    out.sort(key=lambda s: (len(s.items), s.items))
    return out


def mine_equivalence_classes(ctx: BinaryContext, minsup) -> list[EquivalenceClass]:
    """One class per frequent closed set, ordered by (support desc,
    closed-set lex)."""
    return sorted(_mine_class_list(ctx, minsup)[0], key=lambda c: (-c.support, c.closed_set))


def mine_minimal_rare(ctx: BinaryContext, minsup) -> list[MinedSet]:
    """Itemsets below the threshold whose proper subsets are all
    frequent: the minimal elements of the rare region.  Zero-support
    sets qualify when their subsets are frequent.

    They are the failing candidates of the generator walk that also
    yields the equivalence classes, and every one is a generator: its
    proper subsets have support >= minsup > its own.
    """
    _, rare = _mine_class_list(ctx, minsup)
    return [MinedSet(items, supp, ctx.closure(items) == items, True) for items, supp in rare]


# -- serialization ----------------------------------------------------------


def render_itemsets_text(sets: list[MinedSet], attribute_labels) -> list[str]:
    """One line per itemset: labels space-separated, support in parens."""
    return [f"{' '.join(attribute_labels[j] for j in s.items)} ({s.support})" for s in sets]


def render_itemsets_jsonl(sets: list[MinedSet], attribute_labels) -> list[str]:
    import json

    return [
        json.dumps(
            {
                "items": [attribute_labels[j] for j in s.items],
                "support": s.support,
                "closed": s.is_closed,
                "generator": s.is_generator,
            }
        )
        for s in sets
    ]
