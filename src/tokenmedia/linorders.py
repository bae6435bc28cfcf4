"""The medium of linear orders on {1, .., n} under adjacent transpositions.

Each order is encoded as the set of its pairs that agree with a fixed base
order.  The encoding is injective, its image is a well graded family, and a
swap token acting at a cover pulls back to the add/remove token on the
encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapError, InputError
from .families import SetFamily
from .tokens import TokenSystem

MAX_ORDER = 7  # n! = 5040 states; it also keeps each element name one character


@dataclass(frozen=True)
class LinearOrder:
    """A linear order given as the sequence of its elements, smallest first."""

    seq: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.seq)) != len(self.seq) or not self.seq:
            raise InputError("order must list distinct elements")

    @property
    def pairs(self) -> frozenset[tuple[str, str]]:
        """All ordered pairs (x, y) with x before y, computed when read."""
        return frozenset(itertools.combinations(self.seq, 2))

    def position(self, x: str) -> int:
        try:
            return self.seq.index(x)
        except ValueError:
            raise InputError(f"unknown element {x!r}") from None


def covers(order: LinearOrder, x: str, y: str) -> bool:
    """True iff y immediately precedes x (nothing lies strictly between)."""
    return order.position(x) == order.position(y) + 1


def apply_token(order: LinearOrder, x: str, y: str) -> LinearOrder:
    """Swap x in front of y when x covers y; otherwise the order is unchanged.

    The swapped sequence is always a linear order again.
    """
    i = order.position(y)
    if order.position(x) != i + 1:
        return order
    seq = order.seq
    return LinearOrder(seq[:i] + (x, y) + seq[i + 2:])


def pair_name(x: str, y: str) -> str:
    return f"{x}<{y}"


def token_name(x: str, y: str) -> str:
    return f"t:{x}<{y}"


def encode(order: LinearOrder, base: LinearOrder) -> frozenset[str]:
    """The pairs of the order that agree with the base order, as pair names."""
    return frozenset(pair_name(x, y) for (x, y) in order.pairs & base.pairs)


def base_order(n: int) -> LinearOrder:
    return LinearOrder(tuple(str(i) for i in range(1, n + 1)))


def linear_medium(n: int) -> tuple[TokenSystem, SetFamily]:
    """All n! linear orders with one swap-token pair per base pair, plus the
    companion family of encodings.

    State ids are the concatenated sequences ("123", "132", ...), token ids
    are "t:x<y".  n is at most ``MAX_ORDER``, since the state count is n!.
    """
    if n < 2:
        raise InputError("need at least two elements")
    if n > MAX_ORDER:
        raise CapError(f"order size {n} exceeds the cap of {MAX_ORDER}")
    elements = tuple(str(i) for i in range(1, n + 1))
    base_pairs = list(itertools.combinations(elements, 2))
    perms = list(itertools.permutations(elements))
    names = ["".join(p) for p in perms]
    forward: dict[tuple[str, str], dict[str, str]] = {pair: {} for pair in base_pairs}
    for p, name in zip(perms, names):
        for i in range(n - 1):
            y, x = p[i], p[i + 1]  # x covers y here; t:x<y swaps them
            if x < y:
                forward[x, y][name] = "".join(p[:i] + (x, y) + p[i + 2:])
    ts = TokenSystem.from_pairs(tuple(names), ((token_name(x, y), token_name(y, x), ms)
                                               for (x, y), ms in forward.items()))
    # each order's encoding: its pairs x before y that the base order shares (x < y)
    sets = tuple(frozenset(pair_name(x, y) for x, y in itertools.combinations(p, 2) if x < y)
                 for p in perms)
    fam = SetFamily(tuple(pair_name(x, y) for (x, y) in base_pairs), sets)
    return ts, fam


def is_order_encoding(p, n: int) -> bool:
    """True iff p (a set of base-pair names) is the encoding of some linear order.

    For each base pair x<y, x wins iff "x<y" is in p, else y wins.  With p
    empty the k-th base element wins k times, and each pair of p moves one
    win from y to x, so only p's own pairs are read, in O(|p| + n).  p encodes
    an order iff no two elements win equally often; an item that names no
    base pair is an InputError.  Cross-checked against enumeration in the tests.
    """
    rank = {x: k for k, x in enumerate(base_order(n).seq)}
    wins, seen = list(range(n)), {}  # not a set: a set item must raise TypeError, not be looked up
    for item in p:
        if item in seen:
            continue
        x, _, y = item.partition("<") if isinstance(item, str) else (None, None, None)
        if rank.get(x, n) >= rank.get(y, -1):
            raise InputError(f"{item!r} is not a pair of the base order")
        seen[item] = None
        wins[rank[x]] += 1
        wins[rank[y]] -= 1
    return len(set(wins)) == n
