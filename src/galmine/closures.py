"""Closed sets of a closure operator and their order: one Next-Closure
enumerator (lattice, Duquenne-Guigues) with its attribute guard and
canonical order, one superset index (lattice edges, closed rule bases)."""

from galmine._bitset import bits_of
from galmine.errors import ResourceError


def check_width(m: int, max_attributes: int, guard: str) -> None:
    """Refuse to enumerate over more than ``max_attributes`` attributes."""
    if m > max_attributes:
        raise ResourceError(f"context has {m} attributes, above the {guard} guard of {max_attributes}")


def canonical(mask: int):
    """Sort key of a mask: size, then id-lex."""
    return mask.bit_count(), bits_of(mask)


def context_closure(ctx):
    """intent(extent(·)) of ``ctx`` on attribute masks."""
    return lambda mask: ctx.closure_mask(ctx.extent_mask(bits_of(mask)))


def lectic_closed(m: int, close):
    """Yield the closed sets of ``close`` on ``m`` bits in lectic order, up
    to the full set.  Lazy: each step uses ``close`` as it is by then."""
    full = (1 << m) - 1
    a = close(0)
    yield a
    while a != full:
        for i in reversed(range(m)):
            bit = 1 << i
            if a & bit:
                a &= ~bit
            else:
                b = close(a | bit)
                if not (b & ~a) & (bit - 1):
                    a = b
                    break
        yield a


def superset_index(masks: list[int]):
    """For a family of distinct masks, k -> the strict supersets of member
    k as a bitmask over family indices: the AND over k's attributes a of
    ``contain[a]``, the members holding a.  On demand: keeping C masks of
    C bits raised the peak memory of a 5,733-concept lattice by up to 10%."""
    contain = [0] * max(masks, default=0).bit_length()
    for k, mask in enumerate(masks):
        for a in bits_of(mask):
            contain[a] |= 1 << k
    everyone = (1 << len(masks)) - 1

    def strict_supersets(k: int) -> int:
        sup = everyone
        for a in bits_of(masks[k]):
            sup &= contain[a]
        return sup & ~(1 << k)

    return strict_supersets


def covers(strict_supersets, k: int) -> list[int]:
    """The minimal elements of ``strict_supersets(k)``, ascending.  The
    family must be ordered by size, so that the lowest remaining index is
    minimal; taking it clears its own supersets."""
    rest = strict_supersets(k)
    found = []
    while rest:
        j = (rest & -rest).bit_length() - 1
        found.append(j)
        rest &= ~strict_supersets(j) & ~(1 << j)
    return found
