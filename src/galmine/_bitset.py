"""Small helpers for int-backed bitsets.

Sets of ids are stored as arbitrary-precision ints: bit i set means id i
is a member.  CPython's big-int AND/OR and ``bit_count`` run at C speed,
which makes this the natural portable representation.
"""

from collections.abc import Iterable


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bits_of(mask: int) -> tuple[int, ...]:
    """Ids of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
