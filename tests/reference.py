"""Horizontal support counting, kept as a test-only reference.

This is the levelwise miner as it was before supports were counted by
tidset intersection: every candidate's support is the number of rows
whose attribute mask contains the candidate's mask, and closed flags
are found by probing every one-item superset.  Unlike the powerset
oracle it scales past 8 attributes, so it checks the vertical miners
on wider contexts.  Results use the library's types and canonical
orders, so they compare with ``==``.
"""

from bisect import bisect_left

from galmine._bitset import bits_of, mask_of
from galmine.miner import EquivalenceClass, MinedSet, _join_candidates, resolve_minsup


def _count(ctx, candidates):
    rows = ctx.row_masks
    out = []
    for cand in candidates:
        cmask = mask_of(cand)
        out.append(sum(1 for r in rows if cmask & r == cmask))
    return out


def _generator(items, supp, table, n):
    if len(items) == 1:
        return n > supp
    return all(table[items[:x] + items[x + 1 :]] > supp for x in range(len(items)))


def _levelwise(ctx, minsup):
    table, rare = {}, []
    if minsup > ctx.n_objects:
        return table, rare
    candidates = [(j,) for j in range(ctx.n_attributes)]
    while candidates:
        frequent = []
        for cand, s in zip(candidates, _count(ctx, candidates)):
            if s >= minsup:
                table[cand] = s
                frequent.append(cand)
            else:
                rare.append((cand, s))
        candidates = _join_candidates(frequent)
    return table, rare


def frequent(ctx, minsup):
    """``mine_frequent``: supports, closed flags by superset probes and
    generator flags by subset lookups."""
    table, _ = _levelwise(ctx, resolve_minsup(minsup, ctx.n_objects))
    n, m = ctx.n_objects, ctx.n_attributes
    out = []
    for items in sorted(table, key=lambda t: (len(t), t)):
        supp = table[items]
        closed = True
        for a in range(m):
            if a not in items:
                i = bisect_left(items, a)
                if table.get(items[:i] + (a,) + items[i:]) == supp:
                    closed = False
        out.append(MinedSet(items, supp, closed, _generator(items, supp, table, n)))
    return out


def minimal_rare(ctx, minsup):
    """``mine_minimal_rare``: the failing candidates of the levelwise run."""
    table, rare = _levelwise(ctx, resolve_minsup(minsup, ctx.n_objects))
    out = [
        MinedSet(items, supp, ctx.closure(items) == items, _generator(items, supp, table, ctx.n_objects))
        for items, supp in rare
    ]
    out.sort(key=lambda s: (len(s.items), s.items))
    return out


def equivalence_classes(ctx, minsup):
    """``mine_equivalence_classes``: levelwise generators, each assigned
    to the class of its closure."""
    minsup = resolve_minsup(minsup, ctx.n_objects)
    if minsup > ctx.n_objects:
        return []
    n = ctx.n_objects
    gen_support = {(): n}
    classes = {ctx.closure_mask((1 << n) - 1): [n, [()]]}
    level = [(j,) for j in range(ctx.n_attributes)]
    while level:
        survivors = []
        for cand, s in zip(level, _count(ctx, level)):
            if s >= minsup and all(gen_support[cand[:x] + cand[x + 1 :]] > s for x in range(len(cand))):
                gen_support[cand] = s
                survivors.append(cand)
                classes.setdefault(ctx.closure_mask(ctx.extent_mask(cand)), [s, []])[1].append(cand)
        level = _join_candidates(survivors)
    classes.pop(0, None)
    out = [EquivalenceClass(bits_of(c), tuple(gens), supp) for c, (supp, gens) in classes.items()]
    out.sort(key=lambda c: (-c.support, c.closed_set))
    return out
