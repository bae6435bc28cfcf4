"""The decision's labels and the positive-content family as frozensets, as
they were before the decision kept one int per state: the differential
oracle of ``tests/test_int_labels.py`` and the representation type of the
reference routes in ``tests/test_decide_routes.py``,
``tests/tuple_potentials.py`` and ``tests/test_represent.py``.

``set_pair_decision`` builds each state's label as a frozenset of
coordinate names from its BFS parent's with one coordinate toggled;
``set_contents``, ``set_orient_from_state`` and
``set_positive_content_family`` read those sets, and ``SetDecision`` and
``SetRepresentation`` write each set by a scan of the ground.  Everything
below ``assert_reads_the_same`` is kept verbatim, with the classes and entry
points renamed, ``set_decision`` in place of the stored decision, and the
contents table stored under its own name, so that both routes can run on
one system.  Only ``set_pair_decision`` reads other potentials: the tuples
of ``tuple_potentials`` in place of the library's threshold labels, so that
the oracle shares no labeling with the code under test.  The least state
holds pair x's upper value iff its coordinate x is the greatest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily
from tokenmedia.represent import ContentTable, Orientation
from tokenmedia.tokens import TokenSystem, reverse_defect


def set_decision(ts: TokenSystem) -> "SetDecision":
    """The frozenset decision of a medium, stored on ``ts`` beside the
    library's; a system that is not one raises InputError."""
    decision = getattr(ts, "_set_decision", None)
    if decision is None:
        decision = set_pair_decision(ts)
        object.__setattr__(ts, "_set_decision", decision)
    if not decision.is_medium:
        raise InputError("contents need a medium; this system is not one")
    return decision


def assert_reads_the_same(new, old):
    """An int-label decision or representation reads as its frozenset
    counterpart: the same verdict and witness, the same alpha, beta and
    family, and the same document."""
    assert getattr(new, "is_medium", True) == getattr(old, "is_medium", True)
    assert getattr(new, "witness", None) == getattr(old, "witness", None)
    assert new.alpha == old.alpha
    assert new.beta == old.beta
    assert new.family == old.family
    assert new.to_json_dict() == old.to_json_dict()


def set_contents(ts: TokenSystem, base: str | None = None) -> ContentTable:
    """All contents, read off the canonical representation of ``decide_medium``.

    A token adding coordinate x occurs in the straight messages into exactly
    the states whose labels hold x, and a token removing x into exactly those
    whose labels lack it.  The result does not depend on the base state,
    which is only recorded.  The table is stored on ``ts`` beside the
    decision, so later calls on the same system share it.  A system that is
    not a medium raises InputError.
    """
    if base is None:
        base = ts.states[0]
    elif not ts.has_state(base):
        raise InputError(f"unknown state id {base!r}")
    table = getattr(ts, "_set_contents", None)
    if table is None:
        decision = set_decision(ts)
        table = {s: _content(decision, label) for s, label in decision.alpha.items()}
        object.__setattr__(ts, "_set_contents", table)
    return ContentTable(base, table)


def _content(decision, label) -> frozenset[str]:
    """The content of the state with this canonical label: the tokens adding
    a coordinate it holds or removing one it lacks."""
    return frozenset(t for t, (x, pol) in decision.beta.items() if (x in label) == (pol == "add"))


def set_orient_from_state(ts: TokenSystem, s0: str) -> Orientation:
    """The orientation whose negative class is the content of s0, read off
    s0's canonical label alone, with no table of all contents.  A system
    that is not a medium raises InputError."""
    if not ts.has_state(s0):
        raise InputError(f"unknown state id {s0!r}")
    decision = set_decision(ts)
    negative = _content(decision, decision.alpha[s0])
    return Orientation(frozenset(ts.tokens) - negative, negative)


@dataclass(frozen=True)
class SetRepresentation:
    """A positive-content family with its state and token bijections.

    ``alpha`` maps each state to its positive content; ``beta`` maps each
    token to the (ground element, polarity) of the add/remove token acting
    on the family.
    """

    family: SetFamily
    alpha: Mapping[str, frozenset[str]]
    beta: Mapping[str, tuple[str, str]]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict(),
            "alpha": {s: [x for x in self.family.ground if x in self.alpha[s]]
                      for s in self.alpha},
            "beta": {t: {"element": x, "polarity": pol}
                     for t, (x, pol) in self.beta.items()},
        }


def set_positive_content_family(ts: TokenSystem, orientation: Orientation) -> SetRepresentation:
    """The family of positive contents, isomorphic to the medium itself.

    Ground set is the positive token class; the intersection of the family
    is empty and its union is the whole ground.  The positive contents are
    the canonical labels of ``decide_medium`` after a translation and a
    renaming of coordinates, so they transport the action: s.t = v iff
    alpha(s).beta(t) = alpha(v).  A positive token that removes x holds
    exactly at the labels lacking x, so each label, XOR the coordinates
    whose positive token removes, maps onto the positive content; no
    states-by-tokens table is built.  A system that is not a medium raises
    InputError.
    """
    rev = ts.reverse
    decision = set_decision(ts)
    pos = orientation.positive
    if pos | orientation.negative != frozenset(ts.tokens) or pos & orientation.negative:
        raise InputError("orientation must partition this system's tokens")
    if any(rev[t] in pos for t in pos):
        raise InputError("orientation must separate every token from its reverse")
    ground = tuple(t for t in ts.tokens if t in pos)
    token = {decision.beta[t][0]: t for t in ground}  # coordinate -> its positive token
    flip = frozenset(x for x, t in token.items() if decision.beta[t][1] == "remove")
    coords = frozenset(token)  # all of them unless some pair has no positive token
    alpha = {s: frozenset(map(token.__getitem__, (label ^ flip) & coords))
             for s, label in decision.alpha.items()}
    family = SetFamily(ground, tuple(alpha[s] for s in ts.states))
    beta = {t: (t, "add") if t in pos else (rev[t], "remove") for t in ts.tokens}
    return SetRepresentation(family, alpha, beta)


@dataclass(frozen=True)
class SetDecision:
    is_medium: bool
    family: SetFamily | None = None
    alpha: Mapping[str, frozenset[str]] | None = None
    beta: Mapping[str, tuple[str, str]] | None = None
    witness: Mapping | None = None

    def to_json_dict(self) -> dict:
        if not self.is_medium:
            return {"medium": False, "witness": dict(self.witness)}
        return {"medium": True,
                **SetRepresentation(self.family, self.alpha, self.beta).to_json_dict()}


def set_pair_decision(ts: TokenSystem) -> SetDecision:
    defect = reverse_defect(ts)
    if defect is not None:
        return SetDecision(False, witness=defect)
    from tuple_potentials import _potentials  # which imports SetDecision from here

    ev = _potentials(ts)
    states, pot, pair = ts.states, ev.pot, ev.pair
    unreached = len(ev.comps) > 1 and {"axiom": "M2", "source": states[0], "target": states[ev.comps[1][0]]}
    witness = unreached or ev.m3 or ev.separation[0] or ev.bounds[0]
    if witness:
        return SetDecision(False, witness=witness)
    least: dict[int, tuple[str, str]] = {}
    for t, ms in ts._index_moves.items():
        if pair[t][1] > 0:  # by M1 its reverse moves along the same edges
            least[pair[t][0]] = min((states[i], states[j]) if states[i] < states[j]
                                    else (states[j], states[i]) for i, j in ms)
    name = [""] * len(least)
    for rank, x in enumerate(sorted(least, key=least.__getitem__)):
        name[x] = str(rank)
    high = [max(p[x] for p in pot) for x in range(len(name))]
    base = pot[ts._index[min(states)]]  # the least state holds pair x's upper value iff base[x] == high[x]
    sets = [frozenset()] * len(states)
    sets[0] = frozenset(name[x] for x in range(len(name)) if (pot[0][x] == high[x]) != (base[x] == high[x]))
    for j in ev.comps[0][1:]:  # each label is its BFS parent's with one coordinate toggled
        u, t = ev.parent[j]
        sets[j] = sets[u] ^ {name[pair[t][0]]}
    alpha = dict(zip(states, sets))
    beta = {}
    for t in ts.tokens:  # t adds iff it moves its coordinate off the least state's value
        x, step = pair[t]
        beta[t] = name[x], "add" if (step > 0) != (base[x] == high[x]) else "remove"
    family = SetFamily(tuple(map(str, range(len(name)))), tuple(alpha.values()))
    return SetDecision(True, family=family, alpha=alpha, beta=beta)
