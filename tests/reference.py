"""Replaced implementations, kept as test-only references.

Unlike the powerset oracle these scale past 8 attributes, so they check
the library on wider contexts.  Results use the library's types and
canonical orders, so they compare with ``==``.

* Horizontal support counting: the levelwise miner as it was before
  supports were counted by tidset intersection.  Every candidate's
  support is the number of rows whose attribute mask contains the
  candidate's mask, and closed flags are found by probing every one-item
  superset.
* The row-wise closure: the AND of the rows of an extent's objects.
  ``BinaryContext.closure_mask`` tests each column against the extent.
* The closed-set structure as it was before ``galmine.closures``: one
  Next-Closure loop per caller, lattice covers by pairwise intermediate
  elimination, and pairwise upper-set scans in the closed rule bases.
* Context building before ``_bitset.transpose``: each column derived one
  bit at a time from the row masks, and each CXT matrix line checked and
  read one character at a time.
"""

from bisect import bisect_left

from galmine._bitset import bits_of, mask_of
from galmine.errors import ParseError
from galmine.miner import EquivalenceClass, MinedSet, _join_candidates, resolve_minsup
from galmine.rules import _diff, _rule, _sort_rules


def column_masks(row_masks, m):
    """The column masks of ``m``-bit ``row_masks``, one bit at a time."""
    cols = [0] * m
    for i, mask in enumerate(row_masks):
        for j in bits_of(mask):
            cols[j] |= 1 << i
    return tuple(cols)


def cxt_rows(matrix, m):
    """The row masks of CXT matrix lines ``m`` wide, one character at a
    time; the first bad line raises ``parse_cxt``'s ParseError."""
    rows = []
    for k, line in enumerate(matrix):
        if len(line) != m:
            raise ParseError(f"CXT matrix line {k + 1} has {len(line)} characters, expected {m}")
        mask = 0
        for j, ch in enumerate(line):
            if ch == "X":
                mask |= 1 << j
            elif ch != ".":
                raise ParseError(f"CXT matrix line {k + 1} contains invalid character {ch!r}")
        rows.append(mask)
    return tuple(rows)


def closure_mask(ctx, extent):
    """``ctx.closure_mask``, row-wise."""
    mask = (1 << ctx.n_attributes) - 1
    while extent:
        low = extent & -extent
        mask &= ctx.row_masks[low.bit_length() - 1]
        extent ^= low
    return mask


def _close(ctx, mask):
    return closure_mask(ctx, ctx.extent_mask(bits_of(mask)))


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
    out = []
    for items, supp in rare:
        closed = _close(ctx, mask_of(items)) == mask_of(items)
        out.append(MinedSet(items, supp, closed, _generator(items, supp, table, ctx.n_objects)))
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
    classes = {closure_mask(ctx, (1 << n) - 1): [n, [()]]}
    level = [(j,) for j in range(ctx.n_attributes)]
    while level:
        survivors = []
        for cand, s in zip(level, _count(ctx, level)):
            if s >= minsup and all(gen_support[cand[:x] + cand[x + 1 :]] > s for x in range(len(cand))):
                gen_support[cand] = s
                survivors.append(cand)
                classes.setdefault(_close(ctx, mask_of(cand)), [s, []])[1].append(cand)
        level = _join_candidates(survivors)
    classes.pop(0, None)
    out = [EquivalenceClass(bits_of(c), tuple(gens), supp) for c, (supp, gens) in classes.items()]
    out.sort(key=lambda c: (-c.support, c.closed_set))
    return out


def _next_closed(a, m, close):
    """The lectic successor of the closed set ``a`` other than the full set."""
    for i in reversed(range(m)):
        bit = 1 << i
        if a & bit:
            a &= ~bit
        else:
            b = close(a | bit)
            if not (b & ~a) & (bit - 1):
                return b
    raise AssertionError("no lectic successor")


def lattice(ctx):
    """``build_lattice`` as (intents, cover edges): covers by intermediate
    elimination, each lower concept accepting the largest intents below
    its own that lie under no intent it already accepted."""
    m = ctx.n_attributes
    full = (1 << m) - 1
    closed = [_close(ctx, 0)]
    while closed[-1] != full:
        closed.append(_next_closed(closed[-1], m, lambda a: _close(ctx, a)))
    closed.sort(key=lambda c: (c.bit_count(), bits_of(c)))
    edges = []
    for low in range(len(closed)):
        ml = closed[low]
        accepted = []
        for up in range(len(closed) - 1, -1, -1):
            mu = closed[up]
            if mu == ml or mu & ~ml:
                continue
            if any(mu & ~ma == 0 for ma in accepted):
                continue
            accepted.append(mu)
            edges.append((up, low))
    return [bits_of(c) for c in closed], sorted(edges)


def duquenne_guigues(ctx):
    """``duquenne_guigues``: Next-Closure over implication saturation,
    stepping one set at a time with the implications found so far."""
    m = ctx.n_attributes
    full = (1 << m) - 1
    implications = []

    def preclose(mask):
        changed = True
        while changed:
            changed = False
            for p, c in implications:
                if p & ~mask == 0 and p != mask and c & ~mask:
                    mask |= c
                    changed = True
        return mask

    a = preclose(0)
    while True:
        c = _close(ctx, a)
        if c != a:
            implications.append((a, c))
        if a == full:
            break
        a = _next_closed(a, m, preclose)
    out = []
    for p, c in sorted(implications, key=lambda pc: (pc[0].bit_count(), bits_of(pc[0]))):
        supp = ctx.extent_mask(bits_of(p)).bit_count()
        out.append(_rule(ctx, bits_of(p), bits_of(c & ~p), supp, supp))
    return out


def _class_list(ctx, minsup):
    return [(c.closed_set, c.support, c.generators) for c in equivalence_classes(ctx, minsup)]


def mnr_rules(ctx, minsup, minconf, reduced=False):
    """``mnr_rules``: upper sets by a scan over every closed set and, with
    ``reduced``, covers by a pairwise filter over the upper sets."""
    classes = _class_list(ctx, minsup)
    masks = [mask_of(c) for c, _, _ in classes]
    out = []
    for cmask, (closed_items, supp, gens) in zip(masks, classes):
        for g in gens:
            if g and g != closed_items:
                out.append(_rule(ctx, g, _diff(closed_items, g), supp, supp))
        uppers = [k for k, fmask in enumerate(masks) if cmask & ~fmask == 0 and fmask != cmask]
        if reduced:
            uppers = [
                k for k in uppers if not any(masks[w] & ~masks[k] == 0 and masks[w] != masks[k] for w in uppers)
            ]
        for k in uppers:
            f_items, supp_f, _ = classes[k]
            if supp_f / supp >= minconf:
                for g in gens:
                    if g:
                        out.append(_rule(ctx, g, _diff(f_items, g), supp_f, supp))
    return _sort_rules(out)


def closed_rules(ctx, minsup, minconf):
    """``closed_rules``: a pairwise scan over the frequent closed sets."""
    classes = _class_list(ctx, minsup)
    masks = [mask_of(c) for c, _, _ in classes]
    out = []
    for i, (x_items, supp_x, _) in enumerate(classes):
        for j, (y_items, supp_y, _) in enumerate(classes):
            if masks[i] & ~masks[j] == 0 and masks[i] != masks[j] and supp_y / supp_x >= minconf:
                out.append(_rule(ctx, x_items, _diff(y_items, x_items), supp_y, supp_x))
    return _sort_rules(out)
