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
labeling serves decision, contents and representation.

A system that passes M1 and is no medium gets exact M2-M4 verdicts from
token-pair potentials (``_potentials``, stored on the system too): one BFS
per component, after which M3, M2 and M4 are a pass over the moves, a
separation test and a min/max per pair, with a BFS per state only on a
component that fails the separation test.  The decision's witness there is
the first failing check's, and ``check_axioms`` reads the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import InputError
from .families import SetFamily, _moves_separate
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
    which is only recorded.  The table is stored on ``ts`` beside the
    decision, so later calls on the same system share it.  A system that is
    not a medium raises InputError.
    """
    if base is None:
        base = ts.states[0]
    elif not ts.has_state(base):
        raise InputError(f"unknown state id {base!r}")
    table = getattr(ts, "_contents", None)
    if table is None:
        decision = _medium_decision(ts)
        table = {s: _content(decision, label) for s, label in decision.alpha.items()}
        object.__setattr__(ts, "_contents", table)
    return ContentTable(base, table)


def _content(decision, label) -> frozenset[str]:
    """The content of the state with this canonical label: the tokens adding
    a coordinate it holds or removing one it lacks."""
    return frozenset(t for t, (x, pol) in decision.beta.items() if (x in label) == (pol == "add"))


def orient_from_state(ts: TokenSystem, s0: str) -> Orientation:
    """The orientation whose negative class is the content of s0, read off
    s0's canonical label alone, with no table of all contents.  A system
    that is not a medium raises InputError."""
    if not ts.has_state(s0):
        raise InputError(f"unknown state id {s0!r}")
    decision = _medium_decision(ts)
    negative = _content(decision, decision.alpha[s0])
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
    alpha(s).beta(t) = alpha(v).  A positive token that removes x holds
    exactly at the labels lacking x, so each label, XOR the coordinates
    whose positive token removes, maps onto the positive content; no
    states-by-tokens table is built.  A system that is not a medium raises
    InputError.
    """
    rev = ts.reverse
    decision = _medium_decision(ts)
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


def _medium_decision(ts: TokenSystem) -> MediumDecision:
    """The decision of a medium; a system that is not one raises InputError."""
    decision = decide_medium(ts)
    if not decision.is_medium:
        raise InputError("contents need a medium; this system is not one")
    return decision


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
    coordinates named "0", "1", ... in order of each pair's least edge, and
    each label set is built from its BFS parent's with one coordinate
    toggled.  On no after M1 and M2's connectivity, the witness is that of
    the first check of the token-pair potentials that fails, in the order
    M3, M2's separation test, M4 by min/max (``_axiom_rejection``): the
    first failing axiom of ``check_axioms``.  The decision is stored on
    ``ts``, so later calls on the same system return it without labeling
    again.
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
    states, rev, moves = ts.states, ts.reverse, ts._index_moves
    pair: dict[str, int] = {}
    for t in ts.tokens:
        if t not in pair:
            pair[t] = pair[rev[t]] = len(pair) // 2
    k = len(pair) // 2
    adj: list[list[tuple[int, int]]] = [[] for _ in states]
    for t, ms in moves.items():
        x = pair[t]
        for i, j in ms:
            adj[i].append((j, x))
    lab = [-1] * len(states)
    lab[0] = 0
    order = [0]
    step = [(0, 0)] * len(states)  # (BFS parent, pair flipped on the way) per state
    for u in order:
        for j, x in adj[u]:
            if lab[j] < 0:
                lab[j] = lab[u] ^ 1 << x
                step[j] = u, x
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
            return _axiom_rejection(ts)
        head[t] = ends.pop()
        for i, _ in ms:
            toggles[i] |= b
    base = lab[ts._index[min(states)]]
    lab = [x ^ base for x in lab]
    # for every q != p some pair moving p separates them; this also rules out
    # a realized toggle lab[p] ^ b that no token takes p to (the fixed-point
    # rule), since such a q agrees with p on every pair in toggles[p]
    if _moves_separate(lab, toggles, k) is not None:
        return _axiom_rejection(ts)

    least: dict[int, tuple[str, str]] = {}
    for t, ms in moves.items():
        e = min((states[i], states[j]) if states[i] < states[j] else (states[j], states[i])
                for i, j in ms)
        if pair[t] not in least or e < least[pair[t]]:
            least[pair[t]] = e
    name = [""] * k
    for rank, x in enumerate(sorted(least, key=least.__getitem__)):
        name[x] = str(rank)
    sets = [frozenset()] * len(states)
    sets[0] = frozenset(name[x] for x in range(k) if base >> x & 1)
    for j in order[1:]:  # each label is its BFS parent's with one coordinate toggled
        u, x = step[j]
        sets[j] = sets[u] ^ {name[x]}
    alpha = dict(zip(states, sets))
    beta = {t: (name[pair[t]], "add" if (head[t] ^ base) >> pair[t] & 1 else "remove")
            for t in ts.tokens}
    family = SetFamily(tuple(map(str, range(k))), tuple(alpha.values()))
    return MediumDecision(True, family=family, alpha=alpha, beta=beta)


def _axiom_rejection(ts: TokenSystem) -> MediumDecision:
    """A connected system that passed M1 and is no medium: the witness of the
    first check that fails among M3, M2's separation test and M4 by bounds.
    By the representation theorem one of them fails, and none of them runs
    a BFS per state."""
    ev = _potentials(ts)
    return MediumDecision(False, witness=ev.m3 or ev.separation[0] or ev.bounds[0])


# --- exact axioms from token-pair potentials ----------------------------------


@dataclass
class _Potentials:
    """The BFS facts of ``_potentials`` and the witnesses read off them (None
    where a check passes); ``separation`` and ``bounds`` hold one per
    component and stay empty when M3 fails."""

    comps: list  # state indices per component, roots in state order, each in BFS order
    pot: list  # per state, a tuple with one coordinate per token pair
    parent: list  # per state, (state index, token) of its tree move, None at a root
    out: list  # per state, its effective moves (target index, token), in token order
    pair: dict  # token -> (coordinate, +1 or -1)
    m3: dict | None = None
    separation: list = field(default_factory=list)
    bounds: list = field(default_factory=list)


def _potentials(ts: TokenSystem) -> _Potentials:
    """The potentials of a system that passed M1, with M3, M2's separation
    test and M4 by bounds, stored on ``ts``.

    One BFS per component gives each state a potential: per token pair, the
    net steps along its tree path from the root, +1 for the pair's first
    token and -1 for its reverse.  M3 holds iff every move agrees with the
    potentials and no two states of a component share one, for then a
    walk's net count per pair is the difference of its ends' potentials.  A
    move s -> v by t that disagrees gives the closed walk "t, tree path
    v -> root, tree path root -> s", which is not vacuous; two states with
    one potential give the vacuous tree path between them.  Tree paths run
    up on reverse tokens, which M1 makes effective.

    Once M3 holds, a walk is consistent iff its length is the L1 distance of
    its ends' potentials.  So M2 holds on a component iff some move from p
    lowers that distance to q, for all p != q: ``families._moves_separate`` on
    the potentials in unary thresholds, where L1 distance is Hamming
    distance.  On a component that passes, every BFS geodesic is consistent,
    so t occurs in a straight message into v iff v lies at or past the least
    level of t's targets in t's direction: M4 fails there iff some pair
    moves at two levels.  On a component that fails the test this level
    lemma is false (``two_level_path`` in ``tests/test_exact_check.py``: M4
    holds though a pair moves at two levels), so it needs ``_m4_search``.
    """
    ev = getattr(ts, "_potentials", None)
    if ev is not None:
        return ev
    states, rev = ts.states, ts.reverse
    pair: dict[str, tuple[int, int]] = {}
    for t in ts.tokens:
        if t not in pair:
            pair[t], pair[rev[t]] = (len(pair) // 2, 1), (len(pair) // 2, -1)
    out: list[list[tuple[int, str]]] = [[] for _ in states]
    for t, ms in ts._index_moves.items():
        for i, j in ms:
            out[i].append((j, t))
    pot: list = [None] * len(states)
    parent: list = [None] * len(states)
    comps = []
    for root in range(len(states)):
        if pot[root] is None:
            pot[root] = (0,) * (len(pair) // 2)
            comp = [root]
            for u in comp:
                for j, t in out[u]:
                    if pot[j] is None:
                        (x, step), p = pair[t], pot[u]
                        pot[j] = p[:x] + (p[x] + step,) + p[x + 1:]
                        parent[j] = (u, t)
                        comp.append(j)
            comps.append(comp)
    ev = _Potentials(comps, pot, parent, out, pair)
    ev.m3 = _m3_witness(ts, ev)
    if ev.m3 is None:
        for comp in comps:
            ev.separation.append(_separation(ts, ev, comp))
            ev.bounds.append(None if ev.separation[-1] else _m4_bounds(ts, ev, comp))
    object.__setattr__(ts, "_potentials", ev)
    return ev


def _axiom_witnesses(ts: TokenSystem) -> dict:
    """Exact M2-M4 witnesses of a system that passed M1, None where the axiom
    holds.  When M3 fails there are no potentials: M4 is left out, and M2
    too unless the system is disconnected."""
    ev = _potentials(ts)
    found = {"M3": ev.m3}
    if len(ev.comps) > 1:
        found["M2"] = {"axiom": "M2", "source": ts.states[0], "target": ts.states[ev.comps[1][0]]}
    if ev.m3 is None:
        found.setdefault("M2", ev.separation[0])
        found["M4"] = next(filter(None, (
            _m4_search(ts, ev, comp) if ev.separation[c] else ev.bounds[c]
            for c, comp in enumerate(ev.comps))), None)
    return found


def _tree_path(ts, ev, i, up):
    """The tree path from state i up to its root, or (``up`` false) down to i."""
    path = []
    while ev.parent[i] is not None:
        i, t = ev.parent[i]
        path.append(ts.reverse[t] if up else t)
    return path if up else path[::-1]


def _geodesic(ev, b, v):
    """The tokens of a shortest walk from state b to state v, by one BFS from b."""
    prev = {b: None}
    queue = [b]
    for u in queue:
        for j, t in ev.out[u]:
            if j not in prev:
                prev[j] = (u, t)
                queue.append(j)
    path = []
    while prev[v] is not None:
        v, t = prev[v]
        path.append(t)
    return path[::-1]


def _m3_witness(ts, ev):
    states, pot = ts.states, ev.pot
    for t, ms in ts._index_moves.items():
        x, step = ev.pair[t]
        for i, j in ms:
            p = pot[i]
            if pot[j] != p[:x] + (p[x] + step,) + p[x + 1:]:
                return {"axiom": "M3", "kind": "ineffective-but-not-vacuous", "state": states[i],
                        "message": [t, *_tree_path(ts, ev, j, True), *_tree_path(ts, ev, i, False)]}
    for comp in ev.comps:
        first: dict = {}
        for i in comp:
            s = first.setdefault(pot[i], i)
            if s != i:
                return {"axiom": "M3", "kind": "vacuous-but-effective", "state": states[s],
                        "message": _tree_path(ts, ev, s, True) + _tree_path(ts, ev, i, False),
                        "end": states[i]}
    return None


def _thresholds(ev, comp):
    """The potentials of a component in unary thresholds: bit (x, j) is set
    iff coordinate x is at least j.  Returns the labels, in ``comp`` order,
    the offset that puts bit (x, j) at offset[x] + j, and the width."""
    pot, k = ev.pot, len(ev.pot[comp[0]])
    low = [min(pot[i][x] for i in comp) for x in range(k)]
    offset, width = [], 0
    for x in range(k):
        offset.append(width - low[x] - 1)
        width += max(pot[i][x] for i in comp) - low[x]
    labels = [sum(((1 << pot[i][x] - low[x]) - 1) << offset[x] + low[x] + 1 for x in range(k))
              for i in comp]
    return labels, offset, width


def _separation(ts, ev, comp):
    labels, offset, width = _thresholds(ev, comp)
    toggles = []
    for i in comp:
        bits = 0
        for j, t in ev.out[i]:  # the move sets the bit of the larger coordinate
            x = ev.pair[t][0]
            bits |= 1 << offset[x] + max(ev.pot[i][x], ev.pot[j][x])
        toggles.append(bits)
    found = _moves_separate(labels, toggles, width)
    if found is None:
        return None
    return {"axiom": "M2", "source": ts.states[comp[found[0]]], "target": ts.states[comp[found[1]]]}


def _m4_bounds(ts, ev, comp):
    """M4 on a component that passes the separation test: the first pair met
    whose moves by its first token t reach two levels.  The witness is t at
    the least level, then a geodesic to the source of a move at the
    greatest, against the reverse of that move."""
    ends: dict = {}  # first token of a pair -> its moves to the least and greatest level
    for i in comp:
        for j, t in ev.out[i]:
            x, step = ev.pair[t]
            if step > 0:
                low, high = ends.setdefault(t, [(i, j), (i, j)])
                if ev.pot[j][x] < ev.pot[low[1]][x]:
                    ends[t][0] = (i, j)
                elif ev.pot[j][x] > ev.pot[high[1]][x]:
                    ends[t][1] = (i, j)
    for t, (low, high) in ends.items():
        x = ev.pair[t][0]
        if ev.pot[low[1]][x] < ev.pot[high[1]][x]:
            return _m4_witness(ts, ev, t, low, high[0], high[::-1])
    return None


def _m4_search(ts, ev, comp):
    """M4 on a component that fails the separation test, by a BFS from every
    state: t occurs in a straight message into v iff some t-move a -> b has a
    walk from b to v as long as the L1 distance of their potentials that does
    not move t's coordinate against t."""
    labels = dict(zip(comp, _thresholds(ev, comp)[0]))
    straight = {}
    for b in comp:
        dist = {b: 0}
        queue = [b]
        for u in queue:
            for j, _ in ev.out[u]:
                if j not in dist:
                    dist[j] = dist[u] + 1
                    queue.append(j)
        straight[b] = [v for v in comp if dist[v] == (labels[b] ^ labels[v]).bit_count()]
    first = {}  # (t, v) -> the first t-move (a, b) that starts a straight message into v
    for a in comp:
        for b, t in ev.out[a]:
            x, step = ev.pair[t]
            for v in straight[b]:
                if step * (ev.pot[v][x] - ev.pot[b][x]) >= 0:
                    first.setdefault((t, v), (a, b))
    for (t, v), move in first.items():
        back = first.get((ts.reverse[t], v))
        if back is not None:
            return _m4_witness(ts, ev, t, move, v, back)
    return None


def _m4_witness(ts, ev, t, move, v, back):
    """Two straight messages into v: t's move, then a geodesic, and the same
    from a move of t's reverse."""
    states = ts.states
    return {"axiom": "M4", "produced": states[v],
            "state1": states[move[0]], "message1": [t, *_geodesic(ev, move[1], v)],
            "state2": states[back[0]], "message2": [ts.reverse[t], *_geodesic(ev, back[1], v)]}


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
    all states and tokens.  For total injective maps it says that t's moves,
    mapped through alpha, are exactly beta(t)'s moves from the alpha-image.
    Additionally reports whether the reduction of ts2 to the alpha-image is
    isomorphic to ts1 under the same state map (true whenever both systems
    are media), matching reduced tokens by move set.
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
    image = {a: s for s, a in alpha.items()}
    wants = []
    for t in ts1.tokens:
        want = {alpha[s]: alpha[v] for s, v in ts1.moves(t)}
        got = {a: b for a, b in ts2.moves(beta[t]) if a in image}
        if got != want:
            s = min((image[a] for a in want.keys() | got.keys() if want.get(a) != got.get(a)),
                    key=ts1._index.__getitem__)
            return EmbeddingReport(False, mismatch={
                "state": s, "token": t, "source_result": image[want.get(alpha[s], alpha[s])],
                "target_result": got.get(alpha[s], alpha[s])})
        wants.append(frozenset(want.items()))
    red = reduction(ts2, alpha.values())
    by_moves = {red.moves(u): u for u in red.tokens}
    matched = [by_moves.get(w) for w in wants]
    ok = None not in matched and set(matched) == set(red.tokens)
    return EmbeddingReport(True, reduction_isomorphic=ok)
