"""Bitmask helpers for subsets of small carriers."""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m
