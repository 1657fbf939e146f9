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


def transpose(masks, width: int) -> tuple[int, ...]:
    """The columns of the bit matrix whose rows are ``masks``, each below
    ``1 << width``: bit i of column j is bit j of ``masks[i]``."""
    if not masks or not width:  # f"{0:00b}" is "0", not ""
        return (0,) * width
    rows = [f"{mask:0{width}b}" for mask in reversed(masks)]
    return tuple(int("".join(col), 2) for col in zip(*rows))[::-1]
