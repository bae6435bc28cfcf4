"""The exact medium decision, and the contents, orientations and
positive-content representation read off it.

``decide_medium`` is the exact finite decision.  It verifies the reverse
pairing, labels every state by the token pairs on a path to it (one cube
coordinate per pair), and checks that each token acts exactly as the
add/remove reduction of its pair's coordinate, fixed points included, on a
well graded label family.  A yes verdict returns the canonical well-graded
set-family representation with explicit state and token bijections.  The
decision is stored on the token system, and ``contents``,
``orient_from_state`` and ``positive_content_family`` read it, so one
labeling serves decision, contents and representation.  The
Djokovic-Winkler partial-cube route stays as the reference decision and
supplies the witness when a system is rejected after M1 and M2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .cubes import LabeledGraph, is_partial_cube
from .errors import InputError
from .families import SetFamily
from .tokens import TokenSystem, reduction, reverse_defect


@dataclass(frozen=True)
class Orientation:
    """Partition of the tokens into positive and negative classes, closed
    under reversal: a token is positive iff its reverse is negative."""

    positive: frozenset[str]
    negative: frozenset[str]


def orientation_from_positive(ts: TokenSystem, positive) -> Orientation:
    positive = frozenset(positive)
    rev = ts.reverse
    if rev is None:
        raise InputError("orientation needs a reverse pairing")
    all_tokens = frozenset(ts.tokens)
    if not positive <= all_tokens:
        raise InputError("positive class contains unknown tokens")
    negative = all_tokens - positive
    for t in positive:
        if rev[t] in positive:
            raise InputError(f"tokens {t!r} and {rev[t]!r} cannot both be positive")
    return Orientation(positive, negative)


@dataclass(frozen=True)
class ContentTable:
    """Content of every state: the tokens occurring in straight messages into it.

    For every token pair exactly one member belongs to each content, all
    contents share one cardinality, and states are determined by their
    contents.
    """

    base: str
    contents: Mapping[str, frozenset[str]]


def contents(ts: TokenSystem, base: str | None = None) -> ContentTable:
    """All contents, read off the canonical representation of ``decide_medium``.

    A token adding coordinate x occurs in the straight messages into exactly
    the states whose labels hold x, and a token removing x into exactly those
    whose labels lack it.  The result does not depend on the base state,
    which is only recorded.  A system that is not a medium raises InputError.
    """
    if base is None:
        base = ts.states[0]
    elif not ts.has_state(base):
        raise InputError(f"unknown state id {base!r}")
    decision = decide_medium(ts)
    if not decision.is_medium:
        raise InputError("contents need a medium; this system is not one")
    beta = decision.beta.items()
    table = {s: frozenset(t for t, (x, pol) in beta if (x in label) == (pol == "add"))
             for s, label in decision.alpha.items()}
    return ContentTable(base, table)


def orient_from_state(ts: TokenSystem, s0: str) -> Orientation:
    """The orientation whose negative class is the content of s0."""
    table = contents(ts, base=s0)
    negative = table.contents[s0]
    return Orientation(frozenset(ts.tokens) - negative, negative)


@dataclass(frozen=True)
class FamilyRepresentation:
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


def positive_content_family(ts: TokenSystem, orientation: Orientation) -> FamilyRepresentation:
    """The family of positive contents, isomorphic to the medium itself.

    Ground set is the positive token class; the intersection of the family
    is empty and its union is the whole ground.  The positive contents are
    the canonical labels of ``decide_medium`` after a translation and a
    renaming of coordinates, so they transport the action: s.t = v iff
    alpha(s).beta(t) = alpha(v).  A system that is not a medium raises
    InputError.
    """
    rev = ts.reverse
    table = contents(ts)
    pos = orientation.positive
    if pos | orientation.negative != frozenset(ts.tokens) or pos & orientation.negative:
        raise InputError("orientation must partition this system's tokens")
    if any(rev[t] in pos for t in pos):
        raise InputError("orientation must separate every token from its reverse")
    ground = tuple(t for t in ts.tokens if t in pos)
    alpha = {s: table.contents[s] & pos for s in ts.states}
    family = SetFamily(ground, tuple(alpha[s] for s in ts.states))
    beta = {t: (t, "add") if t in pos else (rev[t], "remove") for t in ts.tokens}
    return FamilyRepresentation(family, alpha, beta)


# --- the decision procedure -------------------------------------------------


@dataclass(frozen=True)
class MediumDecision:
    is_medium: bool
    family: SetFamily | None = None
    alpha: Mapping[str, frozenset[str]] | None = None
    beta: Mapping[str, tuple[str, str]] | None = None
    witness: Mapping | None = None

    def to_json_dict(self) -> dict:
        if not self.is_medium:
            return {"medium": False, "witness": dict(self.witness)}
        return {"medium": True,
                **FamilyRepresentation(self.family, self.alpha, self.beta).to_json_dict()}


def decide_medium(ts: TokenSystem) -> MediumDecision:
    """Exact decision: is this token system a medium?

    Route: by the representation theorem a medium is the add/remove system
    of a well graded family with one ground element per token pair, so the
    token pairs are its cube coordinates.  After the exact reverse-pairing
    check (M1), one breadth-first pass from the first state labels every
    state by a bitmask of token pairs and checks connectivity (M2).  The
    system is a medium iff every move flips exactly its own pair's bit, each
    token flips it one way only, and for any two states some pair whose
    tokens move the first separates their labels.  The last test is
    well-gradedness of the label family; it also makes the labels injective
    and lets a token fix a state only when the toggled label is not realized
    or the token's polarity forbids the move.  On yes, the labels relative
    to the least state are the canonical set-family representation,
    coordinates named "0", "1", ... in order of each pair's least edge.  On
    no after M1 and M2, the witness comes from the Djokovic-Winkler route
    (``_theta_route``).  The decision is stored on ``ts``, so later calls on
    the same system return it without labeling again.
    """
    decision = getattr(ts, "_decision", None)
    if decision is None:
        decision = _pair_decision(ts)
        object.__setattr__(ts, "_decision", decision)
    return decision


def _pair_decision(ts: TokenSystem) -> MediumDecision:
    defect = reverse_defect(ts)
    if defect is not None:
        return MediumDecision(False, witness=defect)
    states, rev = ts.states, ts.reverse
    index = {s: i for i, s in enumerate(states)}
    pair: dict[str, int] = {}
    for t in ts.tokens:
        if t not in pair:
            pair[t] = pair[rev[t]] = len(pair) // 2
    k = len(pair) // 2
    moves: dict[str, list[tuple[int, int]]] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in states]
    for t in ts.tokens:
        row = ts.action[t]
        moves[t] = ms = [(i, index[v]) for i, s in enumerate(states) if (v := row[s]) != s]
        b = 1 << pair[t]
        for i, j in ms:
            adj[i].append((j, b))
    lab = [-1] * len(states)
    lab[0] = 0
    order = [0]
    for u in order:
        for j, b in adj[u]:
            if lab[j] < 0:
                lab[j] = lab[u] ^ b
                order.append(j)
    if len(order) != len(states):
        return MediumDecision(
            False,
            witness={"axiom": "M2", "source": states[0], "target": states[lab.index(-1)]},
        )

    head: dict[str, int] = {}  # the pair bit of every move's target, one value per token
    toggles = [0] * len(states)  # pairs whose tokens move each state
    for t, ms in moves.items():
        b = 1 << pair[t]
        ends = {lab[j] & b if lab[i] ^ lab[j] == b else -1 for i, j in ms}  # -1: wrong flip
        if len(ends) != 1 or -1 in ends:
            return _pair_rejection(ts)
        head[t] = ends.pop()
        for i, _ in ms:
            toggles[i] |= b
    base = lab[index[min(states)]]
    lab = [x ^ base for x in lab]
    # for every q != p some pair moving p separates them, i.e.
    # lab[q] & toggles[p] != lab[p] & toggles[p], tested for all q at once on
    # bitsets over the states.  This is well-gradedness of the labels; it
    # also rules out equal labels, and a realized toggle lab[p] ^ b that no
    # token takes p to (the fixed-point rule), since such a q agrees with p
    # on every pair in toggles[p].
    bits = [1 << x for x in range(k)]
    everyone = (1 << len(states)) - 1
    holders = [sum(1 << q for q, own in enumerate(lab) if own & b) for b in bits]
    for p, (own, tg) in enumerate(zip(lab, toggles)):
        alike = everyone
        for b, members in zip(bits, holders):
            if tg & b:
                alike &= members if own & b else everyone ^ members
        if alike != 1 << p:
            return _pair_rejection(ts)

    least: dict[int, tuple[str, str]] = {}
    for t, ms in moves.items():
        e = min((states[i], states[j]) if states[i] < states[j] else (states[j], states[i])
                for i, j in ms)
        if pair[t] not in least or e < least[pair[t]]:
            least[pair[t]] = e
    name = [""] * k
    for rank, x in enumerate(sorted(least, key=least.__getitem__)):
        name[x] = str(rank)
    alpha = {s: frozenset(name[x] for x in range(k) if lab[i] >> x & 1)
             for i, s in enumerate(states)}
    beta = {t: (name[pair[t]], "add" if (head[t] ^ base) >> pair[t] & 1 else "remove")
            for t in ts.tokens}
    family = SetFamily(tuple(map(str, range(k))), tuple(alpha.values()))
    return MediumDecision(True, family=family, alpha=alpha, beta=beta)


def _pair_rejection(ts: TokenSystem) -> MediumDecision:
    decision = _theta_route(ts)
    if decision.is_medium:
        raise AssertionError("the token-pair route rejected a system the Theta route accepts")
    return decision


def _theta_decision(ts: TokenSystem) -> MediumDecision:
    """The Djokovic-Winkler reference decision: exact M1 check, then ``_theta_route``."""
    defect = reverse_defect(ts)
    return _theta_route(ts) if defect is None else MediumDecision(False, witness=defect)


def _theta_route(ts: TokenSystem) -> MediumDecision:
    """The Djokovic-Winkler route on a system that passed M1; the source of
    rejection witnesses once M1 and M2 hold.

    Connectivity, partial-cube recognition of the state graph, then a
    per-token match against the add/remove reduction of its coordinate (the
    fixed-point direction of this match is what rules out systems whose
    graph is a partial cube but whose action is wrong).  On yes, the
    partial-cube labeling is the representation.
    """
    edges = set()
    for t in ts.tokens:
        for (s, v) in ts.moves(t):
            edges.add((s, v) if s < v else (v, s))
    reached = {ts.states[0]}
    queue = deque(reached)
    adj: dict[str, list[str]] = {s: [] for s in ts.states}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != len(ts.states):
        stranded = next(s for s in ts.states if s not in reached)
        return MediumDecision(
            False,
            witness={"axiom": "M2", "source": ts.states[0], "target": stranded},
        )
    graph = LabeledGraph(ts.states, tuple(edges))
    pc = is_partial_cube(graph)
    if not pc.accepted:
        return MediumDecision(False, witness={"kind": "not-partial-cube", "graph": dict(pc.witness)})
    labels = pc.labels
    realized = {labels[s] for s in ts.states}
    beta: dict[str, tuple[str, str]] = {}
    for t in ts.tokens:
        coord = None
        polarity = None
        for (s, v) in ts.moves(t):
            delta = labels[v] ^ labels[s]
            x = next(iter(delta))
            pol = "add" if x in labels[v] else "remove"
            if coord is None:
                coord, polarity = x, pol
            elif (coord, polarity) != (x, pol):
                return MediumDecision(
                    False,
                    witness={"kind": "action-mismatch", "token": t,
                             "detail": "moves cross several cube coordinates"},
                )
        for s in ts.states:
            if ts.action[t][s] != s:
                continue
            lab = labels[s]
            if polarity == "add":
                stuck = coord not in lab and (lab | {coord}) in realized
            else:
                stuck = coord in lab and (lab - {coord}) in realized
            if stuck:
                return MediumDecision(
                    False,
                    witness={"kind": "action-mismatch", "token": t, "state": s,
                             "detail": "token fixes a state its coordinate reduction moves"},
                )
        beta[t] = (coord, polarity)
    ground = tuple(sorted({cid for cid in pc.edge_classes.values()}, key=int))
    family = SetFamily(ground, tuple(labels[s] for s in ts.states))
    alpha = {s: labels[s] for s in ts.states}
    return MediumDecision(True, family=family, alpha=alpha, beta=beta)


# --- embeddings -------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingReport:
    embedding: bool
    mismatch: Mapping | None = None
    reduction_isomorphic: bool | None = None


def verify_embedding(ts1: TokenSystem, ts2: TokenSystem,
                     alpha: Mapping[str, str], beta: Mapping[str, str]) -> EmbeddingReport:
    """Check that (alpha, beta) embeds ts1 into ts2.

    The embedding property is s.t = v iff alpha(s).beta(t) = alpha(v) for
    all states and tokens, which for total injective maps collapses to
    alpha(s.t) == alpha(s).beta(t).  Additionally reports whether the
    reduction of ts2 to the alpha-image is isomorphic to ts1 under the same
    state map (true whenever both systems are media).
    """
    if set(alpha) != set(ts1.states) or set(beta) != set(ts1.tokens):
        raise InputError("alpha and beta must be total on the source system")
    if len(set(alpha.values())) != len(ts1.states) or len(set(beta.values())) != len(ts1.tokens):
        raise InputError("alpha and beta must be injective")
    for s in alpha.values():
        if not ts2.has_state(s):
            raise InputError(f"alpha image {s!r} is not a state of the target")
    for t in beta.values():
        if not ts2.has_token(t):
            raise InputError(f"beta image {t!r} is not a token of the target")
    for t in ts1.tokens:
        for s in ts1.states:
            if alpha[ts1.action[t][s]] != ts2.action[beta[t]][alpha[s]]:
                return EmbeddingReport(
                    False,
                    mismatch={"state": s, "token": t,
                              "source_result": ts1.action[t][s],
                              "target_result": ts2.action[beta[t]][alpha[s]]},
                )
    red = reduction(ts2, alpha.values())
    by_action = {tuple(red.action[u][alpha[s]] for s in ts1.states): u for u in red.tokens}
    matched = [by_action.get(tuple(alpha[ts1.action[t][s]] for s in ts1.states))
               for t in ts1.tokens]
    ok = None not in matched and set(matched) == set(red.tokens)
    return EmbeddingReport(True, reduction_isomorphic=ok)
