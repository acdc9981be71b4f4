"""Signatures (partitions), mixed signatures, and group family labels.

A signature is stored as a plain tuple of weakly decreasing integers with
trailing zeros trimmed, so the same object represents a highest weight at
every rank (the zero-padding convention of the inductive-limit engine).
A mixed signature is a tuple of exactly k integers, weakly decreasing,
negative entries allowed; its rank is its length.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache

from .errors import NotDecreasing, OddRankForSp, RankConstraint

Signature = tuple[int, ...]
MixedSignature = tuple[int, ...]


def canonicalize(parts) -> Signature:
    """Trim trailing zeros from a weakly decreasing, nonnegative part list.

    Unsorted input is rejected, never repaired: silent sorting would hide
    caller bugs in multiplicity bookkeeping.  Negative parts belong to
    mixed signatures (see ``decreasing``) and are rejected here too.
    """
    parts = decreasing(parts)
    if parts and parts[-1] < 0:
        raise NotDecreasing(f"negative part in signature {list(parts)}")
    return trim(parts)


def decreasing(parts) -> MixedSignature:
    """The parts as a tuple of ints, rejected unless weakly decreasing."""
    parts = tuple(map(int, parts))
    if any(map(operator.lt, parts, parts[1:])):
        raise NotDecreasing(f"parts {list(parts)} are not weakly decreasing")
    return parts


def weight(sig: Signature) -> int:
    return sum(sig)


def pad(sig: Signature, rank: int) -> MixedSignature:
    """Zero-pad a trimmed signature to full declared length."""
    if len(sig) > rank:
        raise RankConstraint(f"signature {list(sig)} does not fit rank {rank}")
    return sig + (0,) * (rank - len(sig))


def shift_mixed(sig: MixedSignature, c: int) -> MixedSignature:
    """Add c to every part (tensoring with the c-th determinant power)."""
    return tuple(p + c for p in sig)


def trim(parts) -> Signature:
    """Drop trailing zeros without the monotonicity check (internal use)."""
    parts = tuple(parts)
    end = len(parts)
    while end > 0 and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def render(sig: Signature | MixedSignature) -> str:
    """Canonical text form: comma-separated parts, trivial renders as "0"."""
    if not sig:
        return "0"
    return ",".join(str(p) for p in sig)


def parse(text: str) -> Signature:
    """Parse the canonical text form of a nonnegative signature."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    parts = [int(p) for p in text.split(",")]
    if any(p < 0 for p in parts):
        raise NotDecreasing(f"negative part in signature {text!r}")
    return canonicalize(parts)


@lru_cache(maxsize=1 << 10, typed=True)
def _label(cls, family: str, rank: int | str):
    """The one object of each label that passed `GroupFamily`'s checks."""
    return tuple.__new__(cls, (family, rank))


class GroupFamily(namedtuple("GroupFamily", "family rank")):
    """A classical family label: family in {"u", "so", "sp"} plus rank.

    Rank is a positive integer (not a bool), or the string "stable" for
    inductive-limit decompositions.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int | str):
        if family not in ("u", "so", "sp"):
            raise ValueError(f"unknown family {family!r}")
        if rank != "stable":
            if type(rank) is bool or not isinstance(rank, int) or rank < 1:
                raise RankConstraint(f"rank must be a positive integer, got {rank!r}")
            if family == "sp" and rank % 2 != 0:
                raise OddRankForSp(f"Sp rank must be even, got {rank}")
        return _label(cls, family, rank)

    # ``_replace`` builds through ``_make``: route it through the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def check_signature(self, sig: Signature):
        """Reject a signature longer than the family admits; a stable rank admits any."""
        if self.rank == "stable":
            return
        if len(sig) > (self.rank if self.family == "u" else self.rank // 2):
            raise RankConstraint(f"signature {list(sig)} too long for {self}")

    def __str__(self):
        return f"{self.family}({self.rank})"


def iter_partitions(n: int, max_length: int | None = None, max_part: int | None = None):
    """Yield all partitions of n (weakly decreasing tuples), largest-part first."""
    if max_part is None:
        max_part = n
    if max_length is None:
        max_length = n

    def rec(remaining, bound, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, max_part, max_length)
