"""Families of finite sets under the symmetric-difference metric.

Well-gradedness (every pair of member sets joined by a unit-step geodesic
inside the family) is exactly what makes the family's add/remove token
system a medium; see ``tokenmedia.represent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping

from .errors import InputError, ParseError, json_list
from .tokens import TokenSystem

ADD_PREFIX = "add:"
REMOVE_PREFIX = "rem:"
_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes 0 and 1
_BLOCK = 1024  # label rows that ``_bit_columns`` lays out as one string


@dataclass(frozen=True)
class SetFamily:
    """An ordered ground set and a tuple of distinct member subsets."""

    ground: tuple[str, ...]
    sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        universe = frozenset(self.ground)
        if len(universe) != len(self.ground):
            raise InputError("duplicate ground elements")
        if not self.sets:
            raise InputError("a set family needs at least one member set")
        if len(set(self.sets)) != len(self.sets):
            raise InputError("member sets must be pairwise distinct")
        for s in self.sets:
            if not s <= universe:
                raise InputError("member sets must live inside the ground set")

    @classmethod
    def of(cls, ground: Iterable[str], sets: Iterable[Iterable[str]]) -> "SetFamily":
        return cls(tuple(ground), tuple(frozenset(s) for s in sets))

    def to_json_dict(self) -> dict:
        rank = dict(zip(self.ground, range(len(self.ground)))).__getitem__  # each set in ground order
        return {"ground": list(self.ground), "sets": [sorted(s, key=rank) for s in self.sets]}

    @classmethod
    def from_json_dict(cls, doc) -> "SetFamily":
        if not isinstance(doc, dict) or "ground" not in doc or "sets" not in doc:
            raise ParseError("set family document needs 'ground' and 'sets' fields")
        try:
            sets = json_list(doc["sets"], "set family 'sets'", inner=True)
            return cls.of([str(x) for x in json_list(doc["ground"], "set family 'ground'")],
                          [[str(x) for x in s] for s in sets])
        except (TypeError, InputError) as exc:
            raise ParseError(f"bad set family: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class FamilyRepresentation:
    """A family kept as one int per state, for a medium and a partial cube alike.
    ``labels`` holds the set of each state of ``states``, bit k standing for
    ``names[k]`` of ``ground``; ``alpha`` (state -> set) and ``family`` are
    built from the ints when read, None with no states (a decision that is no
    medium, a rejected graph).  ``beta`` maps each token to the (ground element,
    polarity) of its add/remove token on the family; a partial cube has none."""

    ground: tuple[str, ...] = ()
    names: tuple[str, ...] = ()
    states: tuple[str, ...] = ()
    labels: tuple[int, ...] = ()
    beta: Mapping[str, tuple[str, str]] | None = None

    @cached_property
    def alpha(self) -> dict[str, frozenset[str]] | None:
        if self.states:
            return {s: frozenset(compress(self.names, _digits(label, len(self.names))))
                    for s, label in zip(self.states, self.labels)}

    @cached_property
    def family(self) -> SetFamily | None:
        return SetFamily(self.ground, tuple(self.alpha.values())) if self.states else None

    def _sets(self, order) -> list[list[str]]:
        """Each label's set laid out once from its int, members in the order of ``order`` (the names)."""
        rank = {x: r for r, x in enumerate(order)}
        ranks = [rank[x] for x in self.names]
        return [list(map(order.__getitem__, sorted(compress(ranks, _digits(label, len(ranks))))))
                for label in self.labels]

    def to_json_dict(self) -> dict:
        sets = self._sets(self.ground)
        return {"family": {"ground": list(self.ground), "sets": sets}, "alpha": dict(zip(self.states, sets)),
                "beta": {t: {"element": x, "polarity": pol} for t, (x, pol) in self.beta.items()}}


def distance(p: frozenset, q: frozenset) -> int:
    """Symmetric-difference cardinality."""
    return len(p ^ q)


def between(p: frozenset, r: frozenset, q: frozenset) -> bool:
    """True iff r lies in the interval [p, q], i.e. p & q <= r <= p | q.

    Equivalent to d(p, r) + d(r, q) == d(p, q).
    """
    return (p & q) <= r <= (p | q)


def set_name(s: Iterable[str], ground: Iterable[str]) -> str:
    """Canonical printable name of a subset, elements in ground order."""
    members = set(s)
    return "{" + ",".join(x for x in ground if x in members) + "}"


def well_graded_witness(fam: SetFamily) -> tuple[frozenset, frozenset] | None:
    """None when well graded, else an ordered pair with no first geodesic step.

    The family is well graded iff from every member P toward every other Q
    some element of P ^ Q can be toggled without leaving the family.  The
    pair (P, Q) has no such step exactly when Q agrees with P on every
    toggle of P that stays in the family, so ``_moves_separate`` finds the
    first pair, in member order, with O(|F| * |X|) operations on bitsets
    over the members.
    """
    bit = {x: 1 << i for i, x in enumerate(fam.ground)}
    masks = [sum(map(bit.__getitem__, s)) for s in fam.sets]
    present = set(masks)
    toggles = [sum(b for b in bit.values() if m ^ b in present) for m in masks]
    pair = _moves_separate(masks, toggles, len(bit))
    return None if pair is None else (fam.sets[pair[0]], fam.sets[pair[1]])


def _bit_columns(lab, width):
    """Per bit x, the positions whose label lacks x and those whose label
    holds it: the label bit matrix, transposed by strided slices one block
    of rows at a time, and complemented.  Every label is less than 2 ** width."""
    spec, holders = f"0{width}b", [0] * width
    for start in range(0, len(lab), _BLOCK):
        # the block in binary, one row of width digits per label from its last
        # up: every width-th digit from c is its holders of bit width - 1 - c
        rows = "".join([format(own, spec) for own in reversed(lab[start:start + _BLOCK])])
        for c in range(width):
            holders[width - 1 - c] |= int(rows[c::width], 2) << start
    everyone = (1 << len(lab)) - 1
    return [(everyone ^ members, members) for members in holders]


def _digits(label: int, width: int) -> bytes:
    """Bits 0 to width - 1 of label, one byte each, bit 0 first."""
    return bin(label | 1 << width)[:2:-1].encode().translate(_BITS)


def _moves_separate(lab, toggles, width):
    """The first pair (p, q), q != p, such that no bit of toggles[p] separates
    lab[p] from lab[q], or None.  All q at once, on bitsets over the
    positions, with one AND per set bit of toggles[p], by a column of
    ``_bit_columns``.  With each move flipping its own bit, None is
    well-gradedness, and rules out equal labels."""
    agree, everyone = _bit_columns(lab, width), (1 << len(lab)) - 1
    for p, (own, tg) in enumerate(zip(lab, toggles)):
        alike = everyone
        while tg:
            low = tg & -tg
            x = low.bit_length() - 1
            alike &= agree[x][own >> x & 1]
            tg ^= low
        if alike != 1 << p:
            rest = alike ^ 1 << p
            return p, (rest & -rest).bit_length() - 1
    return None


def is_well_graded(fam: SetFamily) -> bool:
    return well_graded_witness(fam) is None


def line_segment(fam: SetFamily, p: Iterable[str], q: Iterable[str]):
    """A unit-step geodesic inside the family from p to q, or None.

    A depth-first search on an explicit stack tries the steps toward q in
    ground-set order, so the path is the first in that order; a member from
    which no step leads on is marked a dead end and never entered again, so
    each member is expanded once, O(|F| * |X|) set operations in all.
    """
    p = frozenset(p)
    q = frozenset(q)
    members = set(fam.sets)
    if p not in members or q not in members:
        raise InputError("segment endpoints must belong to the family")
    path, dead = [p], set()
    # per member of the path, the elements it has yet to toggle toward q
    untried = [filter((p ^ q).__contains__, fam.ground)]
    while path[-1] != q:
        cur = path[-1]
        for x in untried[-1]:
            nxt = cur ^ {x}
            if nxt in members and nxt not in dead:
                path.append(nxt)
                untried.append(filter((nxt ^ q).__contains__, fam.ground))
                break
        else:
            dead.add(path.pop())
            untried.pop()
            if not path:
                return None
    return tuple(path)


def family_medium(fam: SetFamily) -> TokenSystem:
    """The token system of add/remove reductions to the family.

    One token pair ``add:x`` / ``rem:x`` per ground element whose reduction
    is not the identity; states are named by ``set_name``.  The result is a
    medium exactly when the family is well graded.
    """
    if len(fam.sets) < 2:
        raise InputError("need at least two member sets to form a token system")
    names = {s: set_name(s, fam.ground) for s in fam.sets}
    members = set(fam.sets)
    states = tuple(names[s] for s in fam.sets)
    adds: dict[str, dict[str, str]] = {x: {} for x in fam.ground}
    for s in fam.sets:
        for x in s:
            down = s - {x}
            if down in members:
                adds[x][names[down]] = names[s]
    return TokenSystem.from_pairs(states, ((ADD_PREFIX + x, REMOVE_PREFIX + x, add)
                                           for x, add in adds.items() if add))


def is_complete(fam: SetFamily) -> bool:
    """True iff every single-element toggle of every member stays in the family.

    Toggles lead from any member to every subset of the ground, and the
    members are distinct subsets, so this holds iff they number 2^|ground|.
    """
    return len(fam.sets) == 1 << len(fam.ground)


def translate(fam: SetFamily, a: Iterable[str]) -> SetFamily:
    """Image of the family under S -> S ^ a; a distance-preserving involution."""
    a = frozenset(a)
    extra = tuple(sorted(a - set(fam.ground)))
    return SetFamily(fam.ground + extra, tuple(s ^ a for s in fam.sets))


@dataclass(frozen=True)
class NormalizationResult:
    family: SetFamily
    removed_common: tuple[str, ...]
    removed_unused: tuple[str, ...]


def normalize(fam: SetFamily) -> NormalizationResult:
    """Drop elements common to all members and elements used by none.

    The normalized family has empty intersection and ground equal to its
    union; the removed elements are reported for provenance.
    """
    common = frozenset.intersection(*fam.sets)
    union = frozenset().union(*fam.sets)
    keep = tuple(x for x in fam.ground if x in union and x not in common)
    removed_common = tuple(x for x in fam.ground if x in common)
    removed_unused = tuple(x for x in fam.ground if x not in union)
    sets = tuple(s - common for s in fam.sets)
    return NormalizationResult(SetFamily(keep, sets), removed_common, removed_unused)
